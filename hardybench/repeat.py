#!/usr/bin/env python3
"""Run sets of benchmark runs and hold them against BENCHMARK.json's bounds.

Usage, from the root of the repository:

    python3 hardybench/repeat.py --runs 10 --sets 2 [--traced]

Each set runs every workload ``--runs`` times, each run with its own seed,
one process at a time and alternating workloads.  For every end-to-end
metric it reports the median and the quartile spread (q3 - q1) / median of
each set; a set passes when every spread stays within the metric's bound,
every run is correct and the failed share is the same in every run.  With
two or more sets, each later set's median must lie within the bound of the
first set's, in either direction.  Set ``s`` uses seeds
``1000 + s * runs`` onwards.

``--traced`` adds two traced runs per workload on the seed of the first
untraced run: their checks must match the untraced run's, their
per-layer counts must match each other, and each run's estimate of its
tracing overhead is reported.  A summary goes to hardybench/out/repeat-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
SEED0 = 1000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2])["diagnostics"]
    return {"seed": seed, "result": result, "diag": diag, "process_s": elapsed}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new, old, better):
    """Relative worsening of median ``new`` against ``old`` (< 0: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {(s, w): [] for s in range(args.sets) for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in names:
                seed = SEED0 + s * args.runs + i
                rec = run_once(w, seed, bench["run_seconds"], 0)
                runs[(s, w)].append(rec)
                print(f"set {s} {w} seed {seed}: {rec['process_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in rec["result"]["metrics"].items())
                      + f" steal={rec['diag']['host_steal_s']} "
                      f"nivcsw={rec['diag']['involuntary_ctx_switches']}", flush=True)

    ok = True
    report = {"sets": args.sets, "runs": args.runs, "workloads": {}}
    for w in names:
        wrep = {"sets": []}
        shares = set()
        for s in range(args.sets):
            recs = runs[(s, w)]
            srep = {"seeds": [r["seed"] for r in recs], "metrics": {},
                    "correct": all(r["result"]["correct"] for r in recs),
                    "process_s": [r["process_s"] for r in recs],
                    "host_steal_s": [r["diag"]["host_steal_s"] for r in recs]}
            ok &= srep["correct"]
            for r in recs:
                res = r["result"]
                shares.add(res["failed"] / res["attempted"])
            for name, m in metrics.items():
                vals = [r["result"]["metrics"][name]["value"] for r in recs]
                sp = spread(vals)
                entry = {"median": statistics.median(vals), "spread": sp,
                         "bound": m["bound"],
                         "spread_ok": sp <= m["bound"]}
                ok &= entry["spread_ok"]
                if s > 0:
                    first = wrep["sets"][0]["metrics"][name]["median"]
                    entry["worse_than_first"] = worse_by(entry["median"], first, m["better"])
                    entry["median_ok"] = abs(entry["worse_than_first"]) <= m["bound"]
                    ok &= entry["median_ok"]
                srep["metrics"][name] = entry
            wrep["sets"].append(srep)
        wrep["failed_share_same"] = len(shares) == 1
        wrep["failed_shares"] = sorted(shares)
        ok &= wrep["failed_share_same"]
        if args.traced:
            wrep["traced"] = traced_checks(w, runs[(0, w)][0], bench["run_seconds"])
            ok &= wrep["traced"]["checks_match"] and wrep["traced"]["counts_match"]
        report["workloads"][w] = wrep

    for w, wrep in report["workloads"].items():
        for s, srep in enumerate(wrep["sets"]):
            for name, e in srep["metrics"].items():
                extra = (f" vs set 0: {e['worse_than_first']:+.3f}"
                         if "worse_than_first" in e else "")
                print(f"{w:13s} set {s} {name:12s} median {e['median']:.6g} "
                      f"spread {e['spread']:.3f} (bound {e['bound']}){extra}")
        print(f"{w:13s} failed shares {wrep['failed_shares']}")
        if "traced" in wrep:
            print(f"{w:13s} traced: {json.dumps(wrep['traced'])}")
    report["ok"] = bool(ok)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"{'PASS' if ok else 'FAIL'}; summary in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def traced_checks(workload, untraced, seconds):
    """Two traced runs on an untraced run's seed: same checks, same counts."""
    seed = untraced["seed"]
    a = run_once(workload, seed, seconds, 1)
    b = run_once(workload, seed, seconds, 1)
    counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
               if v["unit"] == "count"} for r in (a, b)]
    digests = {untraced["diag"]["check_digest"], a["diag"]["check_digest"],
               b["diag"]["check_digest"]}
    same_results = all((r["result"]["failed"], r["result"]["attempted"]) ==
                       (untraced["result"]["failed"], untraced["result"]["attempted"])
                       for r in (a, b))
    return {
        "seed": seed,
        "checks_match": len(digests) == 1 and same_results,
        "counts_match": counts[0] == counts[1],
        "overhead_est_share": [r["diag"]["trace_overhead_est_share"] for r in (a, b)],
        "absent_targets": a["diag"]["absent_targets"],
    }


if __name__ == "__main__":
    sys.exit(main())
