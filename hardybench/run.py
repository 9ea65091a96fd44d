#!/usr/bin/env python3
"""Weighted Hardy-norm benchmark: one workload, one seed, one JSON result.

Usage, from the root of the repository:

    python3 hardybench/run.py --workload closed-form --seed 1 --seconds 10 --trace 0

The run draws its inputs from ``--seed``, then repeats whole rounds (set-up
plus every operation of the workload) until ``--seconds`` have passed; it
always completes at least one round.  Every answer is checked against a
reference computed outside the package.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it holds the run's
diagnostics (steal, context switches, failed operations, check digest).

BLAS and OpenMP thread pools are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "query_p50_s": "s",
         "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def read_steal_seconds():
    """Machine-wide steal time from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def run_workload(workload, seconds, tracer=None):
    """Run whole rounds for at least ``seconds``; return raw measurements."""
    setups, walls, cpus, queries = [], [], [], []
    rounds = []          # per round: list of (op name, problems)
    layer_rounds = []    # per round: per-layer metrics (traced runs only)
    start = time.perf_counter()
    while True:
        span0 = len(tracer.spans) if tracer else 0
        counts0 = dict(tracer.counts) if tracer else {}
        t0 = time.perf_counter()
        exh = workload.setup()
        setups.append(time.perf_counter() - t0)
        answers, errors, op_times = {}, {}, {}
        wall = cpu = 0.0
        for i, op in enumerate(workload.ops):
            if i and workload.interleave_setups:
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                answers[op.name] = op.run(exh)
            except Exception:  # an operation that raises counts as failed
                errors[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            dt = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += dt
            op_times[op.name] = dt
            if op.is_query:
                queries.append(dt)
        walls.append(wall)
        cpus.append(cpu)
        if tracer:
            from layertrace import metrics
            counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
            layer_rounds.append(metrics(tracer.spans[span0:], counts))
        outcome = []
        for op in workload.ops:
            if op.name in errors:
                problems = [f"raised {errors[op.name]}"]
            else:
                problems = op.check(answers[op.name], answers)
            outcome.append((op.name, problems))
        rounds.append(outcome)
        if len(rounds) == 1:
            first_op_times = op_times
        del exh, answers
        if time.perf_counter() - start >= seconds:
            return {"setups": setups, "walls": walls, "cpus": cpus,
                    "queries": queries, "rounds": rounds,
                    "layer_rounds": layer_rounds, "op_times": first_op_times}


def summarize_checks(rounds, known_faults):
    attempted = sum(len(r) for r in rounds)
    failed_ops = [(name, problems) for r in rounds for name, problems in r if problems]
    unexpected = sorted({name for name, _ in failed_ops if name not in known_faults})
    digest = hashlib.sha256(json.dumps(
        [[name, bool(problems)] for name, problems in rounds[0]]).encode()).hexdigest()
    first = {}
    for name, problems in failed_ops:
        first.setdefault(name, problems)
    return {"attempted": attempted, "failed": len(failed_ops),
            "correct": not unexpected, "unexpected": unexpected,
            "failures": first, "digest": digest[:16]}


def layer_summary(layer_rounds):
    """Median over rounds of each per-layer metric; flags unequal counts."""
    out, uneven = {}, []
    for key in layer_rounds[0]:
        vals = [r[key] for r in layer_rounds]
        if key.endswith("_s"):
            out[key] = _median(vals)
        else:
            out[key] = int(statistics.median_low(vals))
            if len(set(vals)) > 1:
                uneven.append(key)
    return out, uneven


def span_overhead_seconds(n_spans, calls=20000):
    """Cost of the span wrapper itself, times the spans a run recorded."""
    from layertrace import Tracer

    def noop(*_args):
        return None

    probe = Tracer()
    wrapped = probe._wrap(noop, "bench", "probe", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(None, None)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped(None, None)
    traced = time.perf_counter() - t0
    return n_spans * max(traced - bare, 0.0) / calls


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import pshardy
    except ImportError as exc:
        print(f"hardybench: cannot import pshardy from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.realpath(pshardy.__file__))) \
            != os.path.realpath(src):
        print(f"hardybench: pshardy was imported from {pshardy.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"hardybench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer().install()

    steal0 = read_steal_seconds()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, t0 = time.process_time(), time.perf_counter()
    raw = run_workload(workload, args.seconds, tracer)
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    steal1 = read_steal_seconds()
    if tracer:
        tracer.uninstall()

    checks = summarize_checks(raw["rounds"], workloads.KNOWN_FAULTS)
    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(raw["rounds"]), "ops_per_round": len(workload.ops),
        "setups": len(raw["setups"]),
        "run_wall_s": elapsed, "run_cpu_s": cpu,
        "host_steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "involuntary_ctx_switches": ru1.ru_nivcsw - ru0.ru_nivcsw,
        "voluntary_ctx_switches": ru1.ru_nvcsw - ru0.ru_nvcsw,
        "round_wall_s": raw["walls"], "round_cpu_s": raw["cpus"],
        "op_wall_s_first_round": raw["op_times"],
        "check_digest": checks["digest"], "failures": checks["failures"],
        "unexpected_failures": checks["unexpected"],
    }
    if tracer:
        metrics, uneven = layer_summary(raw["layer_rounds"])
        overhead = span_overhead_seconds(len(tracer.spans))
        diag.update({
            "absent_targets": tracer.absent, "uneven_counts": uneven,
            "spans": len(tracer.spans), "trace_overhead_est_s": overhead,
            "trace_overhead_est_share": overhead / elapsed,
        })
        result_metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                          for k, v in metrics.items()}
    else:
        values = {
            "setup_s": _median(raw["setups"]),
            "wall_s": _median(raw["walls"]),
            "cpu_s": _median(raw["cpus"]),
            "query_p50_s": _median(raw["queries"]),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        }
        result_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({"correct": checks["correct"], "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
