"""Domain geometry and adaptive quadrature on the unit disk.

Every quantity in this package (Riesz masses, Green potentials, boundary
weights, Hardy norms) reduces to integrals over the open unit disk or its
boundary circle whose integrands carry a small list of known singular
points.  The engine in this module integrates vectorized densities with
declared singularities, grades dyadically toward each one, extrapolates
geometric tails, and converts non-decaying tail behaviour into an explicit
DIVERGENT verdict instead of a floating-point blowup.

Conventions
-----------
Area integrals are taken against plain Lebesgue measure dA = dx dy.
Boundary integrals are taken against normalized arclength nu with
nu(unit circle) = 1.  Callers that store Laplacians in the normalization
Lambda = (1/2pi) * Delta fold the 1/2pi into their densities.

All integrand callbacks must accept numpy arrays (complex offsets from
the polar center, with the center, for area densities; angles in radians
for boundary densities) and return float arrays of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONVERGED",
    "DIVERGENT",
    "INCONCLUSIVE",
    "QuadratureResult",
    "MoebiusAutomorphism",
    "integrate_interval",
    "integrate_boundary_arc",
    "integrate_disk_area",
]

CONVERGED = "CONVERGED"
DIVERGENT = "DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"

# Engine constants.  The divergence verdict is heuristic but reproducible:
# a dyadic tail whose last DIVERGENCE_SHELLS shell-to-shell ratios all stay
# above DIVERGENCE_RATIO fails the Cauchy test (log-divergent integrands
# give ratio -> 1, power divergences give ratio > 1).  A convergent singularity
# x^e decays with ratio 2^-(1 + e): members with e = beta p + alpha in (-0.941,
# -0.911] reach TAIL_RATIO_MAX, fit no tail and read INCONCLUSIVE, and those
# in (-1, -0.941] reach DIVERGENCE_RATIO and read DIVERGENT (ROADMAP item 13).
# The test reads only shells DIVERGENCE_DEPTH dyadic levels deep, where that
# asymptotic ratio has set in (see _fails_cauchy_test).
DEFAULT_TOL_ABS = 1e-6
DEFAULT_TOL_REL = 1e-6
DEFAULT_BUDGET = 2 ** 22
DIVERGENCE_RATIO = 0.96
DIVERGENCE_SHELLS = 6
DIVERGENCE_DEPTH = 30
BLOWUP_FACTOR = 1e9
TAIL_RATIO_MAX = 0.94   # extrapolate a geometric tail only below this ratio
MAX_DYADIC_DEPTH = 60

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK dqk15 values).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])
# Full 15-point node vector, ascending.
_NODES15 = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
# Gauss-7 uses nodes 1,3,5,7,9,11,13 of the 15-point vector.
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_W7 = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


class _Divergent(Exception):
    """Raised internally when a dyadic tail fails the Cauchy test."""


class _BudgetExceeded(Exception):
    pass


class _Counter:
    """Nodes one integral has evaluated, against DEFAULT_BUDGET as it reads
    when the integral starts; past it the integral ends INCONCLUSIVE.
    ``weights`` holds the quadrature weights of the last batch of nodes."""

    __slots__ = ("n", "budget", "weights")

    def __init__(self):
        self.n = 0
        self.budget = DEFAULT_BUDGET
        self.weights = None

    def charge(self, k: int) -> None:
        self.n += k
        if self.n > self.budget:
            raise _BudgetExceeded()


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integral.

    value is the best available estimate (a partial sum when status is
    DIVERGENT), error the estimated absolute error (inf when DIVERGENT),
    status one of CONVERGED / DIVERGENT / INCONCLUSIVE, and depth the
    maximal dyadic subdivision depth that was reached.
    """

    value: float
    error: float
    status: str
    depth: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value if math.isfinite(self.value) else None,
            "error": self.error if math.isfinite(self.error) else None,
            "status": self.status,
            "depth": self.depth,
        }


@dataclass(frozen=True)
class MoebiusAutomorphism:
    """Disk automorphism z -> e^{i rot} (z - a) / (1 - conj(a) z).

    Carries the closed-form inverse and derivative, which is what pullback
    arguments consume.
    """

    a: complex = 0.0
    rot: float = 0.0

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise ValueError("automorphism center must lie in the open disk")

    def forward(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(1j * self.rot) * (z - self.a) / (1.0 - np.conj(self.a) * z)

    def inverse(self, w):
        w = np.asarray(w, dtype=complex)
        ew = w * np.exp(-1j * self.rot)
        return (ew + self.a) / (1.0 + np.conj(self.a) * ew)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(1j * self.rot) * (1.0 - abs(self.a) ** 2) / (1.0 - np.conj(self.a) * z) ** 2


# ---------------------------------------------------------------------------
# 1D adaptive Gauss-Kronrod engine with dyadic singular tails.
# ---------------------------------------------------------------------------


def _gk_batch(f, lows, highs, counter):
    """Gauss-Kronrod 7-15 on a batch of panels.  Returns (values, errors).

    The exact per-node quadrature weights of the call are left on
    ``counter.weights``, so an integrand that shares the counter can fold
    its own internal evaluation errors into a correctly measured error
    integral.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    nodes = mid[:, None] + half[:, None] * _NODES15[None, :]
    counter.charge(nodes.size)
    counter.weights = (half[:, None] * _W15[None, :]).ravel()
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        vals = np.where(bad, 0.0, vals)
    k15, err = _kronrod(half, vals)
    if bad.any():
        err = np.where(bad.any(axis=1), np.inf, err)
    return k15, err


def _kronrod(half, vals):
    """(k15, |k15 - g7|) from the 15 node values in each row of ``vals``."""
    k15 = half * (vals @ _W15)
    g7 = half * (vals[:, _G7_IDX] @ _W7)
    return k15, np.abs(k15 - g7)


def _geometric_tail(shells) -> tuple[float, float] | None:
    """Best geometric-tail fit (tail, error) for one dyadic shell sequence.

    ``shells`` lists the shell values of one attractor, or of one ray of a
    radial batch, from the outside in.  Returns None when the last shells
    do not decay cleanly.  The ratio is Aitken-extrapolated when four
    shells are available, since dyadic shells of an algebraic singularity
    have ratios r_j = r (1 + O(2^-j)).
    """
    if len(shells) < 3:
        return None
    last = shells[-1]
    mags = [abs(v) for v in shells[-4:]]
    if mags[-2] < 1e-300:  # zero shells resolve no tail
        return None
    signs = {v > 0 for v in shells[-3:] if v != 0}
    if len(signs) > 1:
        return None
    ratios = [mags[i + 1] / max(mags[i], 1e-300) for i in range(len(mags) - 1)]
    if any(r >= TAIL_RATIO_MAX for r in ratios[-2:]):
        return None
    r_hat = ratios[-1]
    drift = abs(ratios[-1] - ratios[-2])
    if len(ratios) >= 3:
        d1, d2 = ratios[-2] - ratios[-3], ratios[-1] - ratios[-2]
        den = d2 - d1
        if abs(den) > 1e-14:
            r_ext = ratios[-1] - d2 * d2 / den
            if 0.0 < r_ext < TAIL_RATIO_MAX:
                drift = abs(r_ext - r_hat)
                r_hat = r_ext
    tail = last * r_hat / (1.0 - r_hat)
    err = abs(tail) * (3.0 * drift / max(1.0 - r_hat, 1e-6) + 1e-6) + abs(last) * 1e-12
    return tail, err


def _fails_cauchy_test(shells, floor):
    """Whether a dyadic shell sequence diverges, per column for array shells.

    ``shells`` lists shell values (scalars, or arrays over rays) from the
    outside in; a column above ``floor`` in every recent shell, of one sign,
    whose last DIVERGENCE_SHELLS ratios all reach DIVERGENCE_RATIO fails the
    Cauchy test.  Nothing is read before DIVERGENCE_DEPTH shells: a
    convergent integrand can grow over many shells before its asymptotic
    ratio sets in (x^s/(x + d)^2 looks like x^(s-2) down to x ~ d), and a
    depth of 20 still read such growth as divergence at d = 1e-5.
    """
    if len(shells) < DIVERGENCE_DEPTH:
        return False
    recent = np.asarray(shells[-(DIVERGENCE_SHELLS + 1):])
    mags = np.abs(recent)
    return (np.all(mags > floor, axis=0)
            & (np.all(recent > 0, axis=0) | np.all(recent < 0, axis=0))
            & np.all(mags[1:] >= DIVERGENCE_RATIO * mags[:-1], axis=0))


class _Attractor:
    """Bookkeeping for one singular point being approached dyadically."""

    __slots__ = ("anchor", "shells", "resolved", "tail", "tail_err", "panel_key")

    def __init__(self, anchor: float):
        self.anchor = anchor
        self.shells: list[float] = []
        self.resolved = False
        self.tail = 0.0
        self.tail_err = np.inf
        self.panel_key = None

    @property
    def has_tail(self) -> bool:
        return math.isfinite(self.tail_err)

    def push_shell(self, value: float) -> None:
        self.shells.append(value)

    def check_divergent(self, scale: float) -> bool:
        return bool(_fails_cauchy_test(self.shells, max(1e-13 * scale, 1e-280)))

    def try_tail(self, target: float) -> None:
        fit = _geometric_tail(self.shells)
        if fit is None:
            self.tail, self.tail_err = 0.0, np.inf
            self.resolved = False
            return
        self.tail, self.tail_err = fit
        self.resolved = self.tail_err <= target


def integrate_interval(
    f,
    a: float,
    b: float,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    singular_left: bool = False,
    singular_right: bool = False,
    interior_singularities=(),
    split_points=(),
    counter: "_Counter | None" = None,
) -> QuadratureResult:
    """Adaptive integral of a vectorized callable over [a, b].

    Declared singular endpoints and interior singular points are approached
    through dyadic shells whose contributions are monitored: cleanly
    decaying tails are extrapolated geometrically, non-decaying tails
    produce status DIVERGENT.  Undeclared trouble is still handled by plain
    bisection adaptivity but may end INCONCLUSIVE.

    Parameters
    ----------
    f : callable
        Vectorized integrand, f(ndarray) -> ndarray.
    a, b : float
        Endpoints, a < b.
    singular_left, singular_right : bool
        Declare an endpoint singularity.
    interior_singularities : iterable of float
        Interior singular abscissae (each becomes a two-sided attractor).
    split_points : iterable of float
        Non-singular breakpoints (kinks) to seed the initial partition.
    """
    if not b > a:
        raise ValueError("need a < b")
    counter = counter or _Counter()
    span = b - a

    interior = sorted({float(s) for s in interior_singularities if a < s < b})
    breaks = {a, b}
    breaks.update(interior)
    breaks.update(float(s) for s in split_points if a < s < b)

    attractors: list[_Attractor] = []
    anchor_set = set()
    if singular_left:
        attractors.append(_Attractor(a))
        anchor_set.add(a)
    if singular_right:
        attractors.append(_Attractor(b))
        anchor_set.add(b)
    for s in interior:
        attractors.append(_Attractor(s))
        attractors.append(_Attractor(s))  # left and right side share the anchor
        anchor_set.add(s)

    pts = sorted(breaks)
    # ensure every panel touches at most one anchor: split panels whose both
    # ends are anchors at their midpoint
    refined = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if lo in anchor_set and hi in anchor_set:
            refined.append((lo, 0.5 * (lo + hi)))
            refined.append((0.5 * (lo + hi), hi))
        else:
            refined.append((lo, hi))

    # panel records: [lo, hi, value, gk_error, depth, attractor_index]
    panels: list[list] = []

    # assign attractor ownership: each attractor adopts the unique panel it
    # anchors; interior anchors own one panel on each side
    seeds = []
    for lo, hi in refined:
        idx = -1
        for j, att in enumerate(attractors):
            if att.panel_key is None and (att.anchor == lo or att.anchor == hi):
                att.panel_key = (lo, hi)
                idx = j
                break
        seeds.append([lo, hi, 0.0, np.inf, 0, idx])

    try:
        vals, errs = _gk_batch(f, [p[0] for p in seeds], [p[1] for p in seeds], counter)
    except _BudgetExceeded:
        return QuadratureResult(float("nan"), float("inf"), INCONCLUSIVE, 0)
    for p, v, e in zip(seeds, vals, errs):
        p[2], p[3] = float(v), float(e)
    panels = seeds

    first_total = None
    max_depth = 0
    min_width = span * 1e-15

    def _totals():
        # A fitted geometric tail replaces the innermost (dyadic) panel of its
        # attractor, whether or not the fit already meets the local target;
        # dropping a fitted-but-slow tail would silently lose real mass.
        tot = err = 0.0
        for p in panels:
            if p[5] == -1 or not attractors[p[5]].has_tail:
                tot += p[2]
                err += p[3]
        for att in attractors:
            if att.has_tail:
                tot += att.tail
                err += att.tail_err
        return tot, err

    for _sweep in range(4096):
        total, err_sum = _totals()
        if first_total is None:
            first_total = abs(total)
        target = max(tol_abs, tol_rel * abs(total))

        scale = abs(total) + tol_abs
        if abs(total) > BLOWUP_FACTOR * max(first_total, tol_abs):
            return QuadratureResult(total, float("inf"), DIVERGENT, max_depth)
        for att in attractors:
            if att.check_divergent(scale):
                return QuadratureResult(total, float("inf"), DIVERGENT, max_depth)
            if not att.resolved:
                att.try_tail(target / (4.0 * max(len(attractors), 1)))
        total, err_sum = _totals()
        target = max(tol_abs, tol_rel * abs(total))
        if err_sum <= target:
            return QuadratureResult(total, err_sum, CONVERGED, max_depth)

        # choose panels to split: every unresolved attractor panel plus the
        # generic panels carrying the dominant error
        gen_errs = [p[3] for p in panels if p[5] == -1]
        thresh = 0.0
        if gen_errs:
            thresh = max(0.1 * max(gen_errs), target / (2.0 * len(panels) + 2.0))
        to_split = []
        for i, p in enumerate(panels):
            lo, hi, _v, e, depth, aidx = p
            if hi - lo <= min_width:
                continue
            if aidx >= 0:
                if not attractors[aidx].resolved and depth < MAX_DYADIC_DEPTH:
                    to_split.append(i)
            elif e > thresh:
                to_split.append(i)
        if not to_split:
            status = CONVERGED if err_sum <= 3.0 * target else INCONCLUSIVE
            return QuadratureResult(total, err_sum, status, max_depth)

        new_panels = []
        split = set(to_split)
        kept = [p for i, p in enumerate(panels) if i not in split]
        child_bounds = []
        child_meta = []  # (depth, attractor_index_for_child or -1, shell_owner or None)
        for i in to_split:
            lo, hi, _v, _e, depth, aidx = panels[i]
            mid = 0.5 * (lo + hi)
            if aidx >= 0:
                att = attractors[aidx]
                if att.anchor == lo:
                    inner, outer = (lo, mid), (mid, hi)
                else:
                    inner, outer = (mid, hi), (lo, mid)
                child_bounds.append(outer)
                child_meta.append((depth + 1, -1, aidx))
                child_bounds.append(inner)
                child_meta.append((depth + 1, aidx, None))
            else:
                child_bounds.append((lo, mid))
                child_meta.append((depth + 1, -1, None))
                child_bounds.append((mid, hi))
                child_meta.append((depth + 1, -1, None))
        try:
            vals, errs = _gk_batch(
                f, [cb[0] for cb in child_bounds], [cb[1] for cb in child_bounds], counter
            )
        except _BudgetExceeded:
            total, err_sum = _totals()
            return QuadratureResult(total, err_sum, INCONCLUSIVE, max_depth)
        for (lo, hi), (depth, aidx, shell_owner), v, e in zip(
            child_bounds, child_meta, vals, errs
        ):
            max_depth = max(max_depth, depth)
            if shell_owner is not None:
                attractors[shell_owner].push_shell(float(v))
            kept.append([lo, hi, float(v), float(e), depth, aidx])
        panels = kept

    total, err_sum = _totals()
    return QuadratureResult(total, err_sum, INCONCLUSIVE, max_depth)


def _wrap(theta):
    """The angle theta moved into [-pi, pi)."""
    return (np.asarray(theta, dtype=float) + math.pi) % (2.0 * math.pi) - math.pi


def _mirrored(half):
    """Values on the n/2 + 1 uniform angles 2 pi j/n of [0, pi], extended to
    all n by v(2 pi - t) = v(t): entry n - j is entry j."""
    return np.concatenate([half, half[-2:0:-1]])


def _arc_singularities(angles, a, b):
    """(interior, at_a, at_b): where singular angles and their copies 2 pi
    away sit on [a, b].  Within 1e-12 of an end is that end, never interior.
    """
    interior, at_a, at_b = set(), False, False
    for s in (float(t) + k * 2.0 * math.pi for t in angles for k in (-1, 0, 1)):
        if abs(s - a) < 1e-12:
            at_a = True
        elif abs(s - b) < 1e-12:
            at_b = True
        elif a < s < b:
            interior.add(s)
    return sorted(interior), at_a, at_b


def integrate_boundary_arc(
    density,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    singular_points=(),
    split_points=(),
    arc=(-math.pi, math.pi),
) -> QuadratureResult:
    """Integral of density(theta) over an arc against normalized arclength.

    density takes angles in radians (ndarray) and returns floats; the result
    is (1/2pi) * int_a^b density over ``arc`` = (a, b), by default the
    whole circle (-pi, pi).  singular_points lists angles where the density
    blows up, wrapped into [-pi, pi) and counted with their copies 2 pi
    away: each copy inside the arc gets dyadic treatment from both sides,
    one at an end from inside (on the whole circle an angle at pi is graded
    from both -pi+ and pi-).  split_points are non-singular breakpoints,
    given as angles in the arc, that seed the partition.  The circle runs
    from -pi so that an angle at 0, the usual singular angle, is an
    interior point: nodes graded toward it keep full relative precision,
    where next to 2pi they would carry ulp(2pi) ~ 9e-16 of absolute
    rounding and deep shells would read noise.
    """
    a, b = arc
    interior, singular_left, singular_right = _arc_singularities(
        _wrap(singular_points), a, b)

    def wrapped(th):
        return np.asarray(density(th), dtype=float) / (2.0 * math.pi)

    return integrate_interval(
        wrapped, a, b, tol_abs=tol_abs, tol_rel=tol_rel,
        singular_left=singular_left, singular_right=singular_right,
        interior_singularities=interior, split_points=split_points,
    )


# ---------------------------------------------------------------------------
# Area integrals: polar coordinates about a chosen singular center, outer
# adaptivity in the angle, batched dyadic integration along each ray.
# ---------------------------------------------------------------------------


def _ray_lengths(z0: complex, phi: np.ndarray, c0: complex = 0.0,
                 r0: float = 1.0) -> np.ndarray:
    """Distance from z0 along exp(i phi) to where the ray leaves the disk
    |w - c0| < r0, by default the unit disk.

    From z0 off the disk, the ray up to that distance covers all of its
    crossing; on a ray that misses the disk it is at most the distance to
    the closest approach, and the ray stays off the disk up to there.
    """
    rel = z0 - c0
    b = np.real(np.conj(rel) * np.exp(1j * phi))
    disc = b * b + r0 * r0 - abs(rel) ** 2
    return -b + np.sqrt(np.maximum(disc, 0.0))


def _radial_batch(gfun, n_nodes, singular_origin, tol_node, counter):
    """Integral over t in (0, 1) of gfun(t) for a batch of rays.

    gfun(t_vector) -> matrix (n_nodes, len(t)).  Returns (values, err) per
    node.  With singular_origin, dyadic shells toward t = 0 are accumulated
    with per-node geometric tail extrapolation; a non-decaying tail raises
    _Divergent.
    """
    t15 = 0.5 * (_NODES15 + 1.0)  # GK nodes mapped to (0,1)

    def shell_vals(lo, hi):
        ts = lo + (hi - lo) * t15
        counter.charge(n_nodes * ts.size)
        m = np.asarray(gfun(ts), dtype=float)
        return _kronrod(0.5 * (hi - lo), np.where(np.isfinite(m), m, 0.0))

    if not singular_origin:
        # composite doubling on (0,1)
        prev = None
        for k in range(3, 11):
            npan = 2 ** k
            edges = np.linspace(0.0, 1.0, npan + 1)
            vals = np.zeros(n_nodes)
            errs = np.zeros(n_nodes)
            for lo, hi in zip(edges[:-1], edges[1:]):
                v, e = shell_vals(lo, hi)
                vals += v
                errs += e
            if prev is not None:
                diff = np.abs(vals - prev)
                eff = np.maximum(tol_node, 1e-9 * np.abs(vals))
                if np.all(np.maximum(diff, errs) <= eff):
                    return vals, np.maximum(diff, errs)
            prev = vals
        return vals, np.maximum(np.abs(vals - prev), errs)

    # dyadic shells toward t = 0
    total = np.zeros(n_nodes)
    err = np.zeros(n_nodes)
    hist = []
    resolved = np.zeros(n_nodes, dtype=bool)
    tails = np.zeros(n_nodes)
    tail_errs = np.full(n_nodes, np.inf)
    hi = 1.0
    for j in range(MAX_DYADIC_DEPTH):
        lo = hi * 0.5
        v, e = shell_vals(lo, hi)
        # refine a shell once if its internal GK error dominates
        if np.any(e > np.maximum(tol_node, 0.01 * np.abs(v) + 1e-300)):
            mid = 0.5 * (lo + hi)
            v1, e1 = shell_vals(lo, mid)
            v2, e2 = shell_vals(mid, hi)
            v, e = v1 + v2, e1 + e2
        total += np.where(resolved, 0.0, v)
        err += np.where(resolved, 0.0, e)
        hist.append(v)
        floor = np.maximum(1e-13 * (np.abs(total) + tol_node), 1e-280)
        if np.any(_fails_cauchy_test(hist, floor) & ~resolved):
            raise _Divergent()
        if len(hist) >= 3:
            # fresh fit each sweep for the still-active rays (the remainder
            # being extrapolated shrinks as shells are accumulated)
            live = np.flatnonzero(~resolved)
            for i, col in zip(live, np.stack(hist[-4:])[:, live].T.tolist()):
                fit = _geometric_tail(col)
                tails[i], tail_errs[i] = (0.0, np.inf) if fit is None else fit
            eff_tol = np.maximum(tol_node, 1e-9 * np.abs(total))
            resolved = resolved | (tail_errs <= eff_tol)
            if np.all(resolved):
                break
        hi = lo
    total += tails
    last_mag = np.abs(hist[-1])
    err = err + np.where(
        np.isfinite(tail_errs),
        tail_errs,
        last_mag * TAIL_RATIO_MAX / (1.0 - TAIL_RATIO_MAX),
    )
    return total, err


def integrate_disk_area(
    density,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    interior_singularities=(),
    boundary_singularities=(),
    radial_cut=None,
    support_disk=None,
) -> QuadratureResult:
    """Integral of a density over the unit disk against Lebesgue area.

    The density is called as density(offset, center) and returns its
    values at center + offset, where center is the polar center of the
    integral and offset the complex displacement of each node from it.
    Densities whose value depends on the displacement from the center (a
    power of 1 - Re z about the center 1) read it from the offset, where
    recovering it from center + offset would cancel away its precision.

    One polar center per integral: the first declared boundary singular
    point wins, else the first interior singular point, else the origin.
    Remaining declared interior singularities in this package are mild
    (logarithmic or weaker) and are handled by seeding the outer angular
    partition with their directions plus plain adaptivity.

    Each ray from the center runs to the unit circle, shortened to the
    fraction (0, 1] that ``radial_cut``, when given, maps its angle to (a
    star region such as a traced sublevel set), and, when ``support_disk``
    = (c0, r0) declares that the density vanishes off |w - c0| < r0, to
    where the ray leaves that disk.  From a center in the support disk
    the quadrature then never crosses its edge; from one off it, a ray
    still crosses the edge where it enters.
    """
    counter = _Counter()
    interior = [complex(w) for w in interior_singularities]
    boundary = [complex(w) / abs(w) for w in boundary_singularities if abs(w) > 0]

    if boundary:
        z0 = boundary[0]
        theta0 = math.atan2(z0.imag, z0.real)
        phi_lo, phi_hi = theta0 + 0.5 * math.pi, theta0 + 1.5 * math.pi
        endpoint_singular = True
        origin_singular = True

        def ray_len(phi):
            return np.maximum(-2.0 * np.cos(phi - theta0), 0.0)

    else:
        z0 = interior[0] if interior else 0j
        phi_lo, phi_hi = 0.0, 2.0 * math.pi
        endpoint_singular = False
        origin_singular = bool(interior)
        ray_len = lambda phi: _ray_lengths(z0, phi)

    if support_disk is not None:
        c0, r0 = complex(support_disk[0]), float(support_disk[1])
        # a disk tangent to the circle at a boundary center holds the same
        # fraction r0 of every chord from it (the two are similar), exactly
        tangent = bool(boundary) and abs(c0 - (1.0 - r0) * z0) < 1e-12

    splits = []
    for w in interior:
        if w != z0:
            ang = math.atan2((w - z0).imag, (w - z0).real)
            while ang < phi_lo:
                ang += 2.0 * math.pi
            if phi_lo < ang < phi_hi:
                splits.append(ang)

    span = phi_hi - phi_lo
    tol_node = max(tol_abs, 1e-12) / (8.0 * span)
    inner_err = 0.0

    def f_phi(phi):
        nonlocal inner_err
        phi = np.asarray(phi, dtype=float)
        full = ray_len(phi)
        frac = np.ones_like(phi)
        if radial_cut is not None:
            frac = np.clip(np.asarray(radial_cut(phi), dtype=float), 0.0, 1.0)
        if support_disk is not None:
            frac = np.minimum(frac, r0 if tangent else np.clip(
                _ray_lengths(z0, phi, c0, r0) / full, 0.0, 1.0))
        rr = full * frac
        alive = rr > 1e-300
        out = np.zeros_like(phi)
        if not np.any(alive):
            return out
        rr_a = rr[alive]
        dirs = np.exp(1j * phi[alive])

        def gfun(ts):
            rho = rr_a[:, None] * ts[None, :]
            f = np.asarray(density(rho * dirs[:, None], z0), dtype=float)
            return f * rho * rr_a[:, None]

        vals, errs = _radial_batch(gfun, rr_a.size, origin_singular, tol_node, counter)
        # fold the per-node radial errors into the running error integral,
        # weighted by the exact outer quadrature weights (regions that get
        # re-evaluated during refinement are counted again, erring high)
        inner_err += float(np.sum(errs * np.abs(counter.weights[alive])))
        out[alive] = vals
        return out

    try:
        res = integrate_interval(
            f_phi,
            phi_lo,
            phi_hi,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            singular_left=endpoint_singular,
            singular_right=endpoint_singular,
            split_points=splits,
            counter=counter,
        )
    except _Divergent:
        return QuadratureResult(float("nan"), float("inf"), DIVERGENT, 0)
    if res.status == DIVERGENT:
        return res
    err = res.error + inner_err + tol_node * span
    status = res.status
    if status == CONVERGED and err > 10.0 * max(tol_abs, tol_rel * abs(res.value)):
        status = INCONCLUSIVE
    return QuadratureResult(res.value, err, status, res.depth)
