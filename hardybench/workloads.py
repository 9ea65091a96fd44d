"""The two workloads: their exhaustions, their seeded queries, their checks.

A workload is a ``setup`` that builds the exhaustions and their boundary
weights, plus a list of operations drawn once per run from the seed.  A
round runs ``setup`` and then every operation in order; every round of a
run repeats the same operations on freshly built exhaustions, so caches
on the exhaustion objects start cold in each round.

Each operation returns the program's answer; its ``check`` compares that
answer with a reference from ``references`` and returns a list of
problems (empty when the answer is right).  Operations in ``KNOWN_FAULTS``
are expected to fail on every run: they are counted as failed, and the
run stays correct as long as every other operation passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import references as R

# Routes agree to this relative gap on members (the package's own
# agreement threshold in its tests and isometry checks).
ROUTE_AGREEMENT = 5e-3
# Norm powers against closed forms.  The bulk and boundary routes run at
# tol_rel = 1e-6, but the combined value leans on the level ladder, whose
# extrapolation is good to a few 1e-6 on these draws (p = 3 on Green(0.3)
# reaches 4e-6); ten times the route tolerance.
CLOSED_FORM_RTOL = 1e-5
# The lens weight carries a Fubini residual near 1e-5 relative, and its
# frozen values are asserted to 1e-5 in the package's tests.
LENS_RTOL = 1e-5
# Norm powers of f under u and under 2u differ by exactly the factor 2.
SCALING_RTOL = 1e-9
# Level rungs on the lens use 256 rays: the cold ladder at the default 512
# costs twice as much, and the run has to fit its time budget.
LENS_LEVEL_SAMPLES = 256


@dataclass
class Op:
    """One timed call into the program and the check of its answer."""

    name: str
    run: object          # callable(exhaustions) -> answer
    check: object        # callable(answer, earlier answers by name) -> [str]
    is_query: bool = True
    meta: dict = field(default_factory=dict)   # f, p, reference of a query


@dataclass
class Workload:
    name: str
    setup: object        # callable() -> dict of exhaustions
    ops: list
    # Time one more (discarded) set-up before every operation after the
    # first, so that setup_s, their median, samples the whole round.
    interleave_setups: bool


def _norm_problems(rep, ref_power, p, rtol, *, agreement=True):
    """A MEMBER verdict whose norm^p matches ref_power to rtol."""
    problems = []
    if rep.verdict != "MEMBER":
        problems.append(f"verdict {rep.verdict}, want MEMBER")
    if rep.value is None:
        problems.append("no norm value")
        return problems
    got = rep.value ** p
    rel = abs(got - ref_power) / abs(ref_power)
    if not rel <= rtol:
        problems.append(f"norm^p {got!r} vs reference {ref_power!r} "
                        f"(rel {rel:.2e} > {rtol:.0e})")
    if agreement and not (rep.agreement is not None
                          and rep.agreement <= ROUTE_AGREEMENT):
        problems.append(f"route agreement {rep.agreement} > {ROUTE_AGREEMENT}")
    if rep.monotone is False:
        problems.append("level ladder is not monotone")
    return problems


def _verdict_problems(rep, want):
    if rep.verdict != want:
        return [f"verdict {rep.verdict}, want {want}"]
    return []


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

CF_WEIGHTS = {
    "log": R.Weight(const=1.0),
    "2log": R.Weight(const=2.0),
    "green0.3": R.Weight(atoms=((0.3, 1.0),)),
    "pullback0.3": R.Weight(atoms=((0.3, 1.0),)),
    "cubic": R.Weight(const=2.0 / 3.0),
    "two-atom": R.Weight(atoms=((0.3, 0.5), (-0.3, 0.5))),
}
RADIAL = ("log", "2log", "cubic")
# beta * p stays >= 1.25: below that the ladder's limit drifts off the
# Gamma-function value while claiming a tight uncertainty (see CHANGES.md).
AFFINE_BETAS = (1.25, 1.5, 2.5)


def closed_form_setup():
    from pshardy import exhaustion as X
    from pshardy import hardy as H
    from pshardy.geometry import MoebiusAutomorphism
    from pshardy.potential import RieszMeasure

    log = X.radial_log()
    exh = {
        "log": log,
        "2log": X.scaled_exhaustion(2.0, log),
        "green0.3": X.green_exhaustion(
            RieszMeasure(atoms=((0.3 + 0.0j, 1.0),), label="atom:0.3")),
        "pullback0.3": X.pullback_exhaustion(
            MoebiusAutomorphism(a=0.3), X.radial_log()),
        "cubic": X.radial_smooth(lambda s: 2.0 * s, "radial-cubic"),
        "two-atom": X.green_exhaustion(
            RieszMeasure(atoms=((0.3 + 0.0j, 0.5), (-0.3 + 0.0j, 0.5)),
                         label="two-atom")),
    }
    for u in exh.values():
        H.boundary_weight(u)
    return exh


# Each drawn f has one interior zero, kept this far from the atom at 0.3.
# With two or more interior zeros close together, or one next to the atom,
# the bulk route can certify a value well outside its error bound on some
# seeds (see CHANGES.md).
ZERO_SEPARATION = 0.1


def _interior_zero(rng, r_lo, r_hi):
    """A point with r_lo <= |w| <= r_hi at least ZERO_SEPARATION from 0.3."""
    while True:
        w = rng.uniform(r_lo, r_hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if abs(w - 0.3) >= ZERO_SEPARATION:
            return w


def _draw_poly_coeffs(rng, degree, inside):
    """Ascending coefficients of lead * prod(z - r_j).

    The first root lies inside (|r| <= 0.7) when ``inside``, every other
    root outside (1.5 <= |r| <= 3); the seed draws moduli, angles, lead.
    """
    roots = [_interior_zero(rng, 0.0, 0.7)] if inside else []
    while len(roots) < degree:
        roots.append(rng.uniform(1.5, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    lead = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return lead * np.poly(roots)[::-1]


FAMILIES = ("poly", "blaschke*poly", "affine")
DRAWS_PER_PAIR = 2


def _draw_params(rng, kind, index):
    """Parameters of the index-th f of a family; see README.md.

    The index fixes the shape (degree, exponent), so every seed gives a
    round of the same make-up; the seed draws the rest.
    """
    if kind == "poly":
        return {"coeffs": _draw_poly_coeffs(rng, 1 + index % 3, inside=True)}
    if kind == "blaschke*poly":
        return {"zeros": [_interior_zero(rng, 0.05, 0.6)],
                "coeffs": _draw_poly_coeffs(rng, 1 + index % 2, inside=False)}
    return {"a": rng.uniform(0.5, 1.5), "beta": AFFINE_BETAS[index % len(AFFINE_BETAS)]}


def _make_function(kind, params):
    from pshardy.factorization import AffinePower, BlaschkeProduct, Poly, Product

    if kind == "poly":
        return Poly(params["coeffs"])
    if kind == "blaschke*poly":
        return Product(BlaschkeProduct(params["zeros"]), Poly(params["coeffs"]))
    return AffinePower(params["a"], params["beta"])


def _reference_power(kind, params, p, weight):
    """int |f*|^p V dnu; Blaschke factors drop out since |B*| = 1."""
    if kind == "affine":
        return R.affine_power_mean(params["a"], params["beta"], p, weight)
    return R.weighted_power_mean(R.poly_abs_on_circle(params["coeffs"]), p, weight)


def _query_op(u_name, kind, params, p, tag):
    from pshardy import hardy as H

    f = _make_function(kind, params)
    ref = _reference_power(kind, params, p, CF_WEIGHTS[u_name])

    def run(exh):
        return H.hardy_norm(f, p, exh[u_name])

    def check(rep, _earlier):
        return _norm_problems(rep, ref, p, CLOSED_FORM_RTOL)

    return Op(f"{u_name}|{tag}|{kind}|p={p:g}", run, check,
              meta={"f": f, "p": p, "reference": ref})


def _scaling_op(base_op, tag):
    """The same (f, p) under 2 log|z|: norm^p exactly twice that under log."""
    from pshardy import hardy as H

    f, p = base_op.meta["f"], base_op.meta["p"]
    ref = 2.0 * base_op.meta["reference"]

    def run(exh):
        return H.hardy_norm(f, p, exh["2log"])

    def check(rep, earlier):
        problems = _norm_problems(rep, ref, p, CLOSED_FORM_RTOL)
        base = earlier.get(base_op.name)
        if base is not None and base.value is not None and rep.value is not None:
            ratio = rep.value ** p / base.value ** p
            if not abs(ratio - 2.0) <= 2.0 * SCALING_RTOL:
                problems.append(f"scaling ratio {ratio!r}, want 2")
        return problems

    return Op(f"2log|{tag}|p={p:g}", run, check)


def _known_fault_ops():
    """The two operations that fail today, on inputs that ignore the seed."""
    from pshardy import hardy as H
    from pshardy.factorization import AffinePower, Poly

    sqrt_chord = R.chord_power_mean(0.5)          # = 1.0787052...
    two_atom_z = R.weighted_power_mean(lambda t: np.ones_like(t), 2.0,
                                       CF_WEIGHTS["two-atom"])   # = 1

    def run_sqrt(exh):
        return H.hardy_norm(AffinePower(1.0, 0.5), 1.0, exh["log"])

    def run_two(exh):
        return H.hardy_norm(Poly([0.0, 1.0]), 2.0, exh["two-atom"])

    return [
        Op("log|fault|(1-z)^0.5|p=1", run_sqrt,
           lambda rep, _e: _norm_problems(rep, sqrt_chord, 1.0, CLOSED_FORM_RTOL)),
        Op("two-atom|fault|z|p=2", run_two,
           lambda rep, _e: _norm_problems(rep, two_atom_z, 2.0, CLOSED_FORM_RTOL)),
    ]


KNOWN_FAULTS = ("log|fault|(1-z)^0.5|p=1", "two-atom|fault|z|p=2")


def _u_inner_ops(rng):
    """u_inner and the Beurling isometry on log|z| and on Green(0.3)."""
    from pshardy import factorization as F
    from pshardy.factorization import Poly

    points = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 6)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi, 6))
    test_coeffs = [rng.normal(size=int(rng.integers(1, 4)))
                   + 1j * rng.normal(size=1) for _ in range(3)]
    ops = []
    for u_name, outer in (("log", lambda z: np.ones_like(z)),
                          ("green0.3", lambda z: R.outer_of_poisson_atom(0.3, z))):
        state = {}

        def run_inner(exh, u_name=u_name, state=state):
            cand = F.u_inner(exh[u_name])
            state["cand"] = cand
            return cand

        def check_inner(cand, _e, outer=outer):
            problems = []
            if not abs(cand.norm_value - 1.0) <= CLOSED_FORM_RTOL:
                problems.append(f"norm of the u-inner multiplier {cand.norm_value!r}")
            gap = float(np.max(np.abs(cand.outer_part(points) - outer(points))))
            if not gap <= 1e-8:
                problems.append(f"multiplier off its closed form by {gap:.2e}")
            return problems

        def run_beurling(exh, u_name=u_name, state=state):
            fns = [Poly(c) for c in test_coeffs]
            return F.beurling_isometry_check(state["cand"], exh[u_name], test_fns=fns)

        def check_beurling(chk, _e):
            problems = [] if chk["ok"] else ["beurling_isometry_check not ok"]
            for entry, coeffs in zip(chk["entries"], test_coeffs):
                ref = R.classical_h2_norm(coeffs)
                got = entry["weighted"]
                if got is None or not abs(got - ref) <= CLOSED_FORM_RTOL * ref:
                    problems.append(f"weighted norm {got!r} vs H^2 norm {ref!r}")
            return problems

        ops.append(Op(f"{u_name}|u_inner", run_inner, check_inner, is_query=False))
        ops.append(Op(f"{u_name}|beurling", run_beurling, check_beurling,
                      is_query=False))
    return ops


def closed_form(seed):
    """Every (family, p) pair twice per exhaustion, parameters drawn by seed.

    The make-up of a round is the same for every seed (so its cost is
    too); the seed moves only coefficients, zeros, scales and exponents.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for u_name in ("log", "green0.3", "pullback0.3", "cubic"):
        drawn = []
        ps = (1.0, 2.0, 3.0) if u_name in RADIAL else (2.0, 3.0)
        for kind in FAMILIES:
            for index, p in enumerate(ps * DRAWS_PER_PAIR):
                params = _draw_params(rng, kind, index)
                op = _query_op(u_name, kind, params, p, f"#{len(drawn)}")
                ops.append(op)
                drawn.append(op)
        if u_name == "log":
            ops.extend(_scaling_op(op, f"#{j}") for j, op in enumerate(drawn))
    ops.extend(_known_fault_ops())
    ops.extend(_u_inner_ops(rng))
    # one set-up takes milliseconds, so a round times one per operation
    return Workload("closed-form", closed_form_setup, ops, interleave_setups=True)


# ---------------------------------------------------------------------------
# lens-battery
# ---------------------------------------------------------------------------


def lens_setup():
    from pshardy import exhaustion as X
    from pshardy import hardy as H

    exh = {"um0.75": X.make_example("um", 0.75), "um0.5": X.make_example("um", 0.5)}
    for u in exh.values():
        H.boundary_weight(u)
    return exh


def _lens_op(u_name, f, p, name, check):
    from pshardy import hardy as H

    def run(exh):
        return H.hardy_norm(f, p, exh[u_name], level_samples=LENS_LEVEL_SAMPLES)

    return Op(f"{u_name}|{name}|p={p:g}", run, check)


def lens_battery(seed):
    from pshardy.factorization import AffinePower, BlaschkeProduct, Poly, Product

    rng = np.random.default_rng(seed)
    M0, M1 = R.lens_moments(0.75)
    half_sq = R.lens_half_affine_square(0.5)
    M0_half, _ = R.lens_moments(0.5)
    ops = []

    def rule(beta, p, m):
        want = R.lens_verdict(beta, p, m)
        if want is None:
            raise ValueError(f"beta*p = {beta * p:g} is too close to 1 - 2m")
        return lambda rep, _e: _verdict_problems(rep, want)

    # the eight-row membership matrix: u_{1/2} first ...
    ops.append(_lens_op("um0.5", AffinePower(0.5, 2.0), 1.0, "[(1-z)/2]^2",
                        lambda rep, _e: _norm_problems(rep, half_sq, 1.0, LENS_RTOL,
                                                       agreement=False)))
    ops.append(_lens_op("um0.5", AffinePower(0.5, 1.0), 2.0, "(1-z)/2",
                        lambda rep, _e: _norm_problems(rep, half_sq, 2.0, LENS_RTOL,
                                                       agreement=False)))
    # ||1||^p is the Riesz mass M0, and M0 = inf at m = 1/2
    want_one = "MEMBER" if math.isfinite(M0_half) else "NOT_MEMBER"
    for p in (1.0, 2.0):
        ops.append(_lens_op("um0.5", Poly([1.0]), p, "1",
                            lambda rep, _e: _verdict_problems(rep, want_one)))
    # ... then u_{3/4}; its first p > 1 query pays the cold level ladder
    z1mz = 2.0 * (M0 - M1)
    ops.append(_lens_op("um0.75", Poly([0.0, 1.0, -1.0]), 2.0, "z(1-z)",
                        lambda rep, _e: _norm_problems(rep, z1mz, 2.0, LENS_RTOL,
                                                       agreement=False)))
    for beta, p in ((1.0, 1.0), (0.5, 2.0), (-0.6, 1.0), (-0.3, 2.0)):
        ops.append(_lens_op("um0.75", AffinePower(1.0, beta), p,
                            f"(1-z)^{beta:g}", rule(beta, p, 0.75)))
    # Blaschke isometry: ||B z(1-z)|| = ||z(1-z)|| for seeded zeros |a| <= 0.6
    zeros = [rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
             for _ in range(2)]
    f = Product(BlaschkeProduct(zeros), Poly([0.0, 1.0, -1.0]))
    ops.append(_lens_op("um0.75", f, 2.0, "B*z(1-z)",
                        lambda rep, _e: _norm_problems(rep, z1mz, 2.0, LENS_RTOL,
                                                       agreement=False)))
    # one set-up builds both lens weights (tens of seconds): once per round
    return Workload("lens-battery", lens_setup, ops, interleave_setups=False)


WORKLOADS = {"closed-form": closed_form, "lens-battery": lens_battery}
