"""Weighted Hardy norms on the disk built from subharmonic exhaustions.

An exhaustion u < 0 with Riesz mass Lambda u induces a Hardy space whose
norm can be computed three independent ways:

``level-sup``
    sup over c < 0 of the pairings of |f|^p against the swept boundary
    measures mu_c of the sublevel sets, evaluated on the dyadic ladder
    c = -2^{-k} and extrapolated to c -> 0;
``bulk``
    int h_f dLambda u, the pairing of the Riesz mass with the least
    harmonic majorant h_f = P[|f*|^p] of |f|^p (the paper's majorant
    characterization; DIVERGENT when |f|^p has no majorant), computed from
    the boundary trace of f: a spectral series away from its singular
    angles, the boundary integrand within windows around them;
``boundary``
    int |f*|^p V dnu, where the boundary weight V is the Poisson balayage
    of the Riesz mass, V(zeta) = int P(w, zeta) dLambda u(w).

The three agree for members, and their disagreements (divergence flags,
inconclusive quadratures) drive the membership verdicts.  All route values
are reported as p-th powers of the norm; ``NormReport.value`` is the norm.

Normalization matches the rest of the package: nu is arclength with
nu(circle) = 1, masses are stored against Lambda = (1/2pi) Delta, and the
classical norm of f is (int |f*|^p dnu)^{1/p}.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

from .geometry import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    QuadratureResult,
    integrate_boundary_arc,
    integrate_interval,
)
from .potential import (
    BoundaryProfile,
    _analytic_coefficients,
    poisson_balayage,
    poisson_extension,
    poisson_kernel,
)
from .exhaustion import (
    EmptyLevel,
    ExhaustionSpec,
    InvalidParameter,
    UnsupportedRegion,
    pullback_exhaustion,
)

__all__ = [
    "NoMajorant",
    "InvalidMap",
    "BoundaryWeight",
    "boundary_weight",
    "classical_hardy_norm",
    "NormReport",
    "hardy_norm",
    "membership_verdict",
    "HarmonicMajorant",
    "least_harmonic_majorant",
    "conformal_pullback_norm",
    "comparison_checks",
]

TWO_PI = 2.0 * math.pi


class NoMajorant(ValueError):
    """|f|^p has no harmonic majorant on the disk."""


class InvalidMap(ValueError):
    """The supplied conformal map fails its consistency bounds."""


def _wrap(theta):
    """The angle theta moved into [-pi, pi)."""
    return (np.asarray(theta, dtype=float) + math.pi) % TWO_PI - math.pi


def _gap(theta, t0):
    """Periodic distance |theta - t0| on the circle."""
    return np.abs(_wrap(np.asarray(theta, dtype=float) - t0))


def _json_real(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "INFINITE" if x > 0 else "-INFINITE"
    if math.isnan(x):
        return "NAN"
    return x


def _on_singular(theta, singular_thetas):
    """Mask of the angles that sit exactly on a declared singular angle."""
    hit = np.zeros(np.shape(theta), dtype=bool)
    for t0 in singular_thetas:
        hit |= _gap(theta, t0) == 0.0
    return hit


def _inf_at(V, singular_thetas):
    """V with inf exactly at the declared singular angles."""

    def at(theta):
        th = np.asarray(theta, dtype=float)
        out = np.array(V(th), dtype=float)
        out[_on_singular(th, singular_thetas)] = math.inf
        return float(out) if out.ndim == 0 else out

    return at


def _log_abs_integrable(ev, singular_thetas, *, tol=1e-6):
    """Whether int |log V| dnu converges, by adaptive quadrature."""

    def integrand(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(np.abs(np.asarray(ev(t), dtype=float)))
        return np.abs(np.where(np.isfinite(v), v, np.inf))

    res = integrate_boundary_arc(
        integrand, tol_abs=tol, tol_rel=tol,
        singular_points=tuple(singular_thetas),
    )
    return res.status == CONVERGED


# ---------------------------------------------------------------------------
# The boundary weight.
# ---------------------------------------------------------------------------


class BoundaryWeight:
    """Boundary density V of an exhaustion against normalized arclength.

    V is the Poisson sweep of the Riesz mass onto the circle; the weighted
    boundary measure of the exhaustion is V dnu plus nothing else for the
    families handled here.  ``at`` is the one evaluator of V, the one
    ``potential.poisson_balayage`` returns, with inf exactly at the declared
    singular angles; ``values`` is ``at`` on the uniform sample grid, and
    ``profile`` is the same data with those isolated nodes zero-filled so
    spectral routines can consume it.
    """

    def __init__(self, *, thetas, values, evaluator, singular_thetas,
                 mass_of_laplacian, log_integrable, fubini_residual, label):
        self.thetas = np.asarray(thetas, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._evaluator = evaluator
        self.singular_thetas = tuple(float(t) for t in singular_thetas)
        self.mass_of_laplacian = float(mass_of_laplacian)
        self.log_integrable = bool(log_integrable)
        self.fubini_residual = None if fubini_residual is None else float(fubini_residual)
        self.label = label
        finite = np.where(np.isfinite(self.values), self.values, 0.0)
        self.profile = BoundaryProfile(self.thetas, finite, label=f"V:{label}")

    @property
    def samples(self):
        return self.values.size

    def at(self, theta):
        """Evaluate V at arbitrary angles (inf at singular angles)."""
        return self._evaluator(theta)

    def constancy(self):
        """Coefficient of variation of the finite samples (0 for radial)."""
        vals = self.values[np.isfinite(self.values)]
        mean = float(np.mean(vals))
        if mean == 0.0:
            return math.inf
        return float(np.std(vals) / abs(mean))

    def arc_mass(self, a, b, *, tol_abs=1e-9, tol_rel=1e-6):
        """Weighted measure of the boundary arc {e^{it} : a <= t <= b}."""
        a, b = float(a), float(b)
        if not b > a:
            raise ValueError("arc needs a < b")
        interior = []
        edge_lo = edge_hi = False
        for t0 in self.singular_thetas:
            for rep in (t0 + k * TWO_PI for k in (-1, 0, 1)):
                if a < rep < b:
                    interior.append(rep)
                edge_lo = edge_lo or abs(rep - a) < 1e-12
                edge_hi = edge_hi or abs(rep - b) < 1e-12
        res = integrate_interval(
            lambda t: np.asarray(self._evaluator(t), dtype=float),
            a, b, tol_abs=tol_abs, tol_rel=tol_rel,
            interior_singularities=tuple(interior),
            singular_left=edge_lo, singular_right=edge_hi,
        )
        if res.status == DIVERGENT:
            return math.inf
        return res.value / TWO_PI

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("theta,V\n")
            for t, v in zip(self.thetas, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")

    def to_json_dict(self):
        return {
            "label": self.label,
            "samples": int(self.samples),
            "mass_of_laplacian": _json_real(self.mass_of_laplacian),
            "log_integrable": self.log_integrable,
            "fubini_residual": _json_real(self.fubini_residual),
            "singular_thetas": [float(t) for t in self.singular_thetas],
            "constancy": _json_real(self.constancy()),
            "paper_refs": [
                "poisson-balayage-boundary-weight",
                "weight-mass-fubini-identity",
            ],
        }


def _fubini_residual(ev, mass, singular_thetas):
    """Relative gap between int V dnu and the Riesz mass, or None."""
    if not (math.isfinite(mass) and mass > 0.0):
        return None
    res = integrate_boundary_arc(
        lambda t: np.asarray(ev(t), dtype=float),
        tol_abs=1e-9, tol_rel=1e-6,
        singular_points=tuple(singular_thetas),
    )
    if res.status == DIVERGENT:
        return math.inf
    return abs(res.value - mass) / mass


def boundary_weight(u, samples=2048):
    """Sample the boundary weight V of an exhaustion on a uniform grid.

    V is the Poisson balayage of the Riesz mass, so it is built from
    ``u.measure`` alone (``potential.poisson_balayage``): the constant mass
    for a rotation-invariant measure, sum m P(a, .) for atoms, the
    measure's declared ``balayage``, and the Fourier moments of the mass
    otherwise.  The weight evaluates that V as it stands at every angle.
    Outside the two closed forms V is inf exactly at the angles of the
    measure's boundary singularities (recorded in ``singular_thetas``, not
    fatal), and a sample that is non-finite anywhere else raises
    UnsupportedRegion.  Functions that are not exhaustions and incomplete
    Riesz measures raise InvalidParameter.
    """
    if not isinstance(u, ExhaustionSpec):
        raise InvalidParameter("boundary_weight expects an ExhaustionSpec")
    if not u.is_exhaustion:
        raise InvalidParameter(
            f"{u.label} is not an exhaustion; its weight and norm identities "
            "do not hold"
        )
    if not u.measure.complete:
        raise InvalidParameter(
            f"the Riesz measure of {u.label} is incomplete; its boundary "
            "weight would be missing mass (INCOMPLETE_RIESZ_MEASURE)"
        )
    samples = int(samples)
    if samples < 256 or (samples & (samples - 1)) != 0:
        raise InvalidParameter(
            "samples must be a power of two, at least 256"
        )
    cache = u.__dict__.setdefault("_weights", {})
    if samples in cache:
        return cache[samples]
    weight = _build_weight(u, samples)
    cache[samples] = weight
    return weight


def _build_weight(u, samples):
    measure = u.measure
    mass, ev, closed = poisson_balayage(measure)
    singular = tuple(
        float(np.angle(s)) % TWO_PI for s in measure.boundary_singularities
    )
    thetas = np.arange(samples) * (TWO_PI / samples)
    if closed:
        # V is the constant mass or a positive trigonometric-rational
        # function: it integrates to the mass identically, and log V is
        # bounded on the circle
        values = ev(thetas)
        log_integrable = math.isfinite(mass)
        resid = 0.0 if log_integrable else None
    else:
        ev = _inf_at(ev, singular)
        values = ev(thetas)
        if not np.all(np.isfinite(values) | _on_singular(thetas, singular)):
            raise UnsupportedRegion(
                "boundary weight is non-finite away from its declared "
                "singular angles"
            )
        log_integrable = _log_abs_integrable(ev, singular)
        resid = _fubini_residual(ev, mass, singular)
    return BoundaryWeight(
        thetas=thetas, values=values, evaluator=ev,
        singular_thetas=singular, mass_of_laplacian=mass,
        log_integrable=log_integrable, fubini_residual=resid, label=u.label,
    )


# ---------------------------------------------------------------------------
# Classical Hardy norm.
# ---------------------------------------------------------------------------


def _classical_power(f, p, *, tol_abs=1e-10, tol_rel=1e-8):
    """nu-average of |f*|^p as a QuadratureResult."""

    def integrand(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = np.abs(f.boundary_trace(t)) ** p
        return np.where(np.isfinite(v), v, np.inf)

    return integrate_boundary_arc(
        integrand, tol_abs=tol_abs, tol_rel=tol_rel,
        singular_points=tuple(f.boundary_singularities),
    )


def classical_hardy_norm(f, p):
    """Classical H^p norm of an analytic expression, inf if divergent."""
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    res = _classical_power(f, p)
    if res.status == DIVERGENT:
        return math.inf
    return res.value ** (1.0 / p)


# ---------------------------------------------------------------------------
# The three routes.
# ---------------------------------------------------------------------------


def _route_boundary(f, p, weight, *, tol_abs=1e-9, tol_rel=1e-6):
    """int |f*|^p V dnu with the singular angles of both factors declared."""
    if not np.any(np.isfinite(weight.values)):
        return QuadratureResult(math.inf, math.inf, DIVERGENT, 0)
    sing = set(float(t) % TWO_PI for t in weight.singular_thetas)
    sing.update(float(t) % TWO_PI for t in f.boundary_singularities)

    def integrand(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = np.abs(f.boundary_trace(t)) ** p * np.asarray(
                weight.at(t), dtype=float)
        return np.where(np.isfinite(v), v, np.inf)

    return integrate_boundary_arc(
        integrand, tol_abs=tol_abs, tol_rel=tol_rel,
        singular_points=tuple(sorted(sing)),
    )


_CUT = (0.1, 0.4)  # chi is 1 within 0.1 rad of a singular angle of f, 0 past 0.4
_SERIES_FLOOR = 1e-10  # majorant terms below this share of the largest are dropped


def _cutoff(theta, angles):
    """Smooth chi on the circle: 1 near the angles, 0 away, C-infinity between."""
    lo, hi = _CUT
    keep = np.ones(np.shape(theta))
    for t0 in angles:
        s = np.clip((_gap(theta, t0) - lo) / (hi - lo), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            a, b = np.exp(-1.0 / s), np.exp(-1.0 / (1.0 - s))
        keep = keep * (a / (a + b))
    return 1.0 - keep


def _route_bulk(f, p, u, weight, *, tol_abs=1e-9, tol_rel=1e-6):
    """int h_f dLambda u, h_f = P[|f*|^p] the least harmonic majorant of |f|^p.

    By the symmetry of the Green function this is the norm^p of the
    paper's majorant characterization; |f|^p without a majorant is
    DIVERGENT.  The route reads f only through its boundary trace.  With
    q = |f*|^p and a smooth cutoff chi around the singular angles of f,
    the window part P[q chi] is taken by Fubini as int q chi V dnu over
    each window, so there the route shares the boundary route's integrand.
    The far part P[q (1 - chi)] is a spectral series paired with the mass,
    by the mean value h(0) * mass when the mass is rotation invariant.
    For a finite mass the series drops its terms below _SERIES_FLOOR of
    the largest and adds their sum times the mass to the error; the
    pairing runs at a hundredth of the tolerances, since the disk
    quadrature under-reports its error on the lens at the route's own.
    """
    divergent = QuadratureResult(math.inf, math.inf, DIVERGENT, 0)
    try:
        maj = least_harmonic_majorant(f, p)
    except NoMajorant:
        return divergent
    angles = tuple(f.boundary_singularities)

    def window(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = (np.abs(f.boundary_trace(t)) ** p * _cutoff(t, angles)
                 * np.asarray(weight.at(t), dtype=float)) / TWO_PI
        return np.where(np.isfinite(v), v, np.inf)

    # q chi V vanishes off the windows; panels break at their edges and
    # where chi starts to fall, so the shells graded toward a singular angle
    # see q V alone and their tail fit is not misled by chi
    parts = []
    if angles:
        sing = sorted({_wrap(t) for t in angles + weight.singular_thetas})
        at_pi = sing[0] == -math.pi
        parts.append(integrate_interval(
            window, -math.pi, math.pi, tol_abs=tol_abs, tol_rel=tol_rel,
            interior_singularities=sing, singular_left=at_pi,
            singular_right=at_pi,
            split_points=[_wrap(t + d) for t in angles
                          for d in (-_CUT[1], -_CUT[0], _CUT[0], _CUT[1])],
        ))
        if parts[0].status == DIVERGENT:
            return divergent

    mass = weight.mass_of_laplacian
    far = maj.profile.values * (1.0 - _cutoff(maj.profile.thetas, angles))
    coeffs = _analytic_coefficients(far)
    dropped = 0.0
    if u.measure.is_rotation_invariant():
        # rotation-invariant mass: every circle mean of h_far is h_far(0)
        parts.append(QuadratureResult(coeffs[0].real * mass, 0.0, CONVERGED, 0))
    else:
        mags = np.abs(coeffs)
        if math.isfinite(mass):
            keep = np.flatnonzero(mags >= _SERIES_FLOOR * mags.max())[-1] + 1
            dropped = float(mags[keep:].sum()) * mass
            coeffs = coeffs[:keep]

        def h_far(w):
            return np.real(polyval(np.asarray(w, dtype=complex), coeffs))

        # an infinite mass gathers at the measure's declared boundary
        # singular points, where h_far is continuous: positive there, the
        # pairing diverges
        tips = h_far(u.measure.boundary_singularities)
        if not math.isfinite(mass) and np.any(tips > _SERIES_FLOOR * mags.max()):
            return divergent
        parts.append(u.measure.pair(h_far, tol_abs=tol_abs / 100.0,
                                    tol_rel=tol_rel / 100.0))

    depth = max(r.depth for r in parts)
    if parts[-1].status == DIVERGENT or not math.isfinite(parts[-1].value):
        return QuadratureResult(math.inf, math.inf, DIVERGENT, depth)
    value = sum(r.value for r in parts)
    error = sum(r.error for r in parts) + dropped
    status = CONVERGED
    if (any(r.status != CONVERGED for r in parts)
            or error > 10.0 * max(tol_abs, tol_rel * abs(value))):
        status = INCONCLUSIVE
    return QuadratureResult(value, error, status, depth)


def _ladder_estimate(P, cvals):
    """Extrapolate the level-ladder pairings to c -> 0.

    Returns (status, limit, uncertainty, fitted_exponent).  The two-step
    ratio sqrt(d[-1]/d[-3]) cancels the alternating bias the chart rungs
    carry; the limit comes from a two-term fit in |c|^gamma over the last
    four rungs, floored at the deepest rung (the pairings are monotone for
    subharmonic integrands), and the uncertainty is the spread against a
    geometric tail sum and a three-rung refit.
    """
    P = np.asarray(P, dtype=float)
    cvals = np.asarray(cvals, dtype=float)
    scale = max(abs(P[-1]), 1.0)
    d = np.diff(P)
    if d.size >= 2 and np.all(np.abs(d[-2:]) < 1e-11 * scale):
        return (CONVERGED, float(P[-1]), float(np.abs(d[-2:]).max()), None)
    if d.size < 3:
        return (INCONCLUSIVE, float(P[-1]), float("nan"), None)
    rat = d[1:] / d[:-1]
    if (np.median(rat[-3:]) >= 0.95 and d[-1] > 0) or np.all(rat[-3:] >= 1.0):
        return (DIVERGENT, float("inf"), float("nan"), None)
    if np.any(d[-4:] <= 0):
        return (INCONCLUSIVE, float(P[-1]), float(abs(d[-1])), None)
    if d[-1] > 0 and d[-3] > 0 and 0.0025 < d[-1] / d[-3] < 0.81:
        rho = math.sqrt(d[-1] / d[-3])
    else:
        rho = float(np.median(rat[-3:]))
    gam = min(1.5, max(0.25, -math.log2(max(rho, 1e-12))))
    x = np.abs(cvals) ** gam
    n = min(4, P.size)
    A = np.column_stack([np.ones(n), x[-n:], x[-n:] ** 2])
    coef, *_ = np.linalg.lstsq(A, P[-n:], rcond=None)
    L = float(coef[0])
    L_geo = float(P[-1] + d[-1] * rho / (1.0 - rho))
    A3 = np.column_stack([np.ones(3), x[-3:], x[-3:] ** 2])
    coef3, *_ = np.linalg.lstsq(A3, P[-3:], rcond=None)
    unc = max(abs(L - L_geo), abs(L - float(coef3[0])))
    if L < P[-1]:
        L = float(P[-1])
    return (CONVERGED, L, float(unc), gam)


def _route_level(f, p, u, weight, *, samples=512):
    """sup over the dyadic ladder of the level-measure pairings of |f|^p.

    Returns (QuadratureResult-like tuple fields via dict).  Chart rungs are
    capped at k = 12 (deeper crescents are thinner than the chart's rim
    resolution); rotation-invariant exhaustions extend to k = 20 since
    their rungs are exact.  Infinite Riesz mass short-circuits the ladder:
    the rung values grow at least like min|f*|^p times the sublevel mass,
    so a boundary-nonvanishing f is divergent outright, and anything else
    is left to the other routes.
    """
    info = {"ladder": (), "uncertainty": None, "exponent": None,
            "monotone": None, "note": None}
    radial = u.measure.is_rotation_invariant()
    if p <= 1.0 and not radial:
        info["note"] = ("level route skipped: p <= 1 with a traced "
                        "(non-radial) level family")
        return None, info
    mass = weight.mass_of_laplacian
    if not math.isfinite(mass):
        interior_zeros = all(abs(loc) < 1.0 - 1e-9 for loc, _ in f.zeros)
        if not f.boundary_singularities and interior_zeros:
            grid = np.arange(2048) * (TWO_PI / 2048)
            with np.errstate(divide="ignore", invalid="ignore"):
                trace_min = float(np.min(np.abs(f.boundary_trace(grid))))
            if trace_min > 1e-9:
                info["note"] = (
                    "infinite Riesz mass with |f| bounded below on the "
                    "circle: the level pairings dominate "
                    "min|f|^p * mass(B_c) -> inf"
                )
                return QuadratureResult(math.inf, math.inf, DIVERGENT, 0), info
        info["note"] = "ladder skipped: infinite Riesz mass"
        return None, info

    k_max = 20 if radial else 12
    rungs, cs, skipped = [], [], []
    for k in range(k_max + 1):
        c = -(2.0 ** (-k))
        if c <= u.min_value:
            continue
        try:
            mu = u.demailly(c, samples=samples)
        except EmptyLevel:
            continue
        except (UnsupportedRegion, ValueError) as exc:
            # deep levels may not chart (several components, far from
            # circular); past the first traced rung a failure ends the
            # ladder so the rungs _ladder_estimate fits stay contiguous
            if not rungs:
                skipped.append(c)
                continue
            info["note"] = f"ladder stopped at c={c:g}: {exc}"
            break

        def f_power(w):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                v = np.abs(f(w)) ** p
            return np.where(np.isfinite(v), v, np.inf)

        val = mu.pair_spectral(f_power)
        if not math.isfinite(val):
            info["note"] = f"non-finite pairing at c={c:g}"
            break
        rungs.append(val)
        cs.append(c)
    info["ladder"] = tuple(zip(cs, rungs))
    if skipped:
        msg = "ladder skipped untraceable rungs c=" + ", ".join(f"{c:g}" for c in skipped)
        info["note"] = msg if info["note"] is None else f"{msg}; {info['note']}"
    if not rungs:
        if info["note"] is None:
            info["note"] = "no traceable levels on the ladder"
        return None, info
    diffs = np.diff(rungs)
    scale = max(abs(rungs[-1]), 1.0)
    info["monotone"] = bool(np.all(diffs >= -1e-8 * scale))
    status, limit, unc, gam = _ladder_estimate(rungs, cs)
    info["uncertainty"] = None if not math.isfinite(limit) else unc
    info["exponent"] = gam
    return QuadratureResult(limit, unc if math.isfinite(limit) else math.inf,
                            status, len(rungs)), info


# ---------------------------------------------------------------------------
# Norm reports and verdicts.
# ---------------------------------------------------------------------------

ROUTE_NAMES = ("level-sup", "bulk", "boundary")
# Relative gap within which two converged routes outvote a divergent ladder.
_OUTVOTE_AGREEMENT = 1e-6


class NormReport:
    """Outcome of a weighted Hardy norm query for one (f, p, u).

    Route values are p-th powers of the norm (inf when divergent, None
    when a route was skipped); ``value`` is the norm from the error-weighted
    mean of the converged routes, ``agreement`` their max pairwise relative
    gap.
    """

    def __init__(self, *, f_label, u_label, p, routes, statuses, value,
                 agreement, verdict, classical_norm, classical_status,
                 routes_run, ladder, ladder_uncertainty, fitted_exponent,
                 monotone, notes, weight):
        self.f_label = f_label
        self.u_label = u_label
        self.p = float(p)
        self.route_level_sup = routes["level-sup"]
        self.route_bulk = routes["bulk"]
        self.route_boundary = routes["boundary"]
        self.statuses = dict(statuses)
        self.value = value
        self.agreement = agreement
        self.verdict = verdict
        self.classical_norm = classical_norm
        self.classical_status = classical_status
        self.routes_run = tuple(routes_run)
        self.ladder = tuple(ladder)
        self.ladder_uncertainty = ladder_uncertainty
        self.fitted_exponent = fitted_exponent
        self.monotone = monotone
        self.notes = tuple(notes)
        self.weight = weight

    def route_values(self):
        return {
            "level-sup": self.route_level_sup,
            "bulk": self.route_bulk,
            "boundary": self.route_boundary,
        }

    def to_json_dict(self):
        return {
            "f": self.f_label,
            "exhaustion": self.u_label,
            "p": self.p,
            "routes": {
                name: {
                    "value": _json_real(val),
                    "status": self.statuses.get(name),
                }
                for name, val in self.route_values().items()
            },
            "routes_run": list(self.routes_run),
            "value": _json_real(self.value),
            "agreement": _json_real(self.agreement),
            "verdict": self.verdict,
            "classical_norm": _json_real(self.classical_norm),
            "classical_status": self.classical_status,
            "ladder": [[c, v] for c, v in self.ladder],
            "ladder_uncertainty": _json_real(self.ladder_uncertainty),
            "fitted_exponent": _json_real(self.fitted_exponent),
            "monotone": self.monotone,
            "notes": list(self.notes),
            "paper_refs": [
                "level-sup-hardy-norm",
                "bulk-harmonic-majorant-pairing",
                "weighted-boundary-isometry",
            ],
        }


def _matching_singularity(f, weight):
    """Whether f declares a boundary singularity at a singular angle of V."""
    for tf in f.boundary_singularities:
        for tw in weight.singular_thetas:
            if _gap(np.float64(tf), float(tw)) < 1e-9:
                return True
    return False


def hardy_norm(f, p, u, *, samples=2048, level_samples=512):
    """Compute the weighted Hardy norm of f by all applicable routes.

    Returns a NormReport with per-route values and statuses, the verdict,
    and the level-ladder diagnostics.  The boundary route needs the weight
    (built and cached on the exhaustion); the level route runs the dyadic
    ladder except where its preconditions fail (p <= 1 with traced curves,
    infinite Riesz mass), and those skips are recorded.
    """
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    if not isinstance(u, ExhaustionSpec):
        raise InvalidParameter("hardy_norm expects an ExhaustionSpec")
    weight = boundary_weight(u, samples=samples)
    notes = []

    classical = _classical_power(f, p)
    classical_norm = (math.inf if classical.status == DIVERGENT
                      else classical.value ** (1.0 / p))

    boundary = _route_boundary(f, p, weight)
    bulk = _route_bulk(f, p, u, weight)
    level, level_info = _route_level(f, p, u, weight, samples=level_samples)
    if level_info["note"]:
        notes.append(level_info["note"])

    routes = {}
    statuses = {}
    errors = {}
    routes_run = []
    for name, res in (("level-sup", level), ("bulk", bulk),
                      ("boundary", boundary)):
        if res is None:
            routes[name] = None
            statuses[name] = None
            continue
        routes_run.append(name)
        statuses[name] = res.status
        routes[name] = math.inf if res.status == DIVERGENT else float(res.value)
        errors[name] = float(res.error)
        if name != "level-sup" and res.status == INCONCLUSIVE:
            notes.append(
                f"{name} route did not certify at its tolerances "
                f"(estimate {res.value:.6g}, error bound {res.error:.2g})"
            )

    finite = {
        name: routes[name]
        for name in routes_run
        if statuses[name] == CONVERGED and math.isfinite(routes[name])
    }
    divergent = [name for name in routes_run if statuses[name] == DIVERGENT]

    agreement = None
    if len(finite) >= 2:
        vals = list(finite.values())
        agreement = max(
            abs(a - b) / max(abs(a), abs(b), 1e-300)
            for i, a in enumerate(vals) for b in vals[i + 1:]
        )

    if (divergent == ["level-sup"] and agreement is not None
            and agreement <= _OUTVOTE_AGREEMENT):
        # the ladder extrapolates rungs that may still be rising at its
        # deepest level; two converged routes that agree outvote it
        divergent = []
        notes.append(
            "divergent level-sup ladder outvoted: the converged routes "
            f"agree to {agreement:.1e}"
        )
    if len(divergent) >= 2:
        verdict = "NOT_MEMBER"
    elif (len(divergent) == 1 and len(finite) < 2
          and _matching_singularity(f, weight)):
        verdict = "NOT_MEMBER"
        notes.append(
            f"single divergent route ({divergent[0]}) accepted: f declares "
            "a boundary singularity at a singular angle of V"
        )
    elif (statuses.get("boundary") == CONVERGED
          and math.isfinite(routes["boundary"])
          and classical.status == CONVERGED
          and not divergent
          and len(finite) >= 2):
        verdict = "MEMBER"
    else:
        verdict = "INCONCLUSIVE"
        if len(divergent) == 1:
            notes.append(
                f"single divergent route ({divergent[0]}) without a "
                "matching singularity declaration is not decisive"
            )

    value = None
    if verdict != "NOT_MEMBER" and finite:
        # Inverse-variance combination of the converged routes: the ladder
        # extrapolation carries an uncertainty orders above the quadrature
        # tolerances, and an equal-weight mean would let it dominate.
        floor = 1e-14 * max(abs(v) for v in finite.values()) + 1e-300
        wsum = vsum = 0.0
        for name, val in finite.items():
            wgt = 1.0 / max(errors.get(name, floor), floor) ** 2
            wsum += wgt
            vsum += wgt * val
        value = (vsum / wsum) ** (1.0 / p)

    return NormReport(
        f_label=f.label, u_label=u.label, p=p, routes=routes,
        statuses=statuses, value=value, agreement=agreement, verdict=verdict,
        classical_norm=classical_norm, classical_status=classical.status,
        routes_run=routes_run, ladder=level_info["ladder"],
        ladder_uncertainty=level_info["uncertainty"],
        fitted_exponent=level_info["exponent"],
        monotone=level_info["monotone"], notes=notes, weight=weight,
    )


def membership_verdict(f, p, u, **kwargs):
    """Verdict plus the evidence that produced it, as a plain dict."""
    report = hardy_norm(f, p, u, **kwargs)
    return {
        "verdict": report.verdict,
        "norm": report.value,
        "routes": {
            name: {"value": val, "status": report.statuses.get(name)}
            for name, val in report.route_values().items()
        },
        "agreement": report.agreement,
        "classical": {
            "norm": report.classical_norm,
            "status": report.classical_status,
            "finite": math.isfinite(report.classical_norm),
        },
        "weight": report.weight.to_json_dict(),
        "notes": list(report.notes),
        "report": report,
    }


# ---------------------------------------------------------------------------
# Least harmonic majorants.
# ---------------------------------------------------------------------------


class HarmonicMajorant:
    """Least harmonic majorant of |f|^p, carried as a Poisson integral.

    ``profile`` holds the boundary data |f*|^p on the uniform grid (zeros
    filled at declared singular angles); evaluation is the spectral
    harmonic extension, so value_at(0) is the profile mean, which equals
    the classical norm power up to the profile's sampling error.
    """

    def __init__(self, profile, f_label, p, classical_power):
        self.profile = profile
        self.f_label = f_label
        self.p = float(p)
        self.classical_power = float(classical_power)
        self._extension = poisson_extension(profile)
        self.h0 = float(profile.mean())

    def value_at(self, z):
        return self._extension(z)

    def __call__(self, z):
        return self._extension(z)


def least_harmonic_majorant(f, p, *, n=8192):
    """Least harmonic majorant of |f|^p via the boundary Poisson integral.

    Requires f in the classical Hardy space; a divergent boundary mean
    means |f|^p majorizes no harmonic function and raises NoMajorant.
    """
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    classical = _classical_power(f, p)
    if classical.status == DIVERGENT or not math.isfinite(classical.value):
        raise NoMajorant(
            f"|{f.label}|^{p:g} has a divergent boundary mean; no harmonic "
            "majorant exists (NO_MAJORANT)"
        )

    def data(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = np.abs(f.boundary_trace(t)) ** p
        return np.where(np.isfinite(v), v, 0.0)

    profile = BoundaryProfile.from_function(
        data, n, singular_points=tuple(f.boundary_singularities),
        singular_fill=0.0, label=f"|{f.label}|^{p:g}",
    )
    return HarmonicMajorant(profile, f.label, p, classical.value)


# ---------------------------------------------------------------------------
# Conformal pullback.
# ---------------------------------------------------------------------------


class _ComposedExpr:
    """f composed with a disk automorphism, with just enough surface for
    the norm routes (evaluation, trace, zeros, singular angles)."""

    def __init__(self, f, mob):
        self.f = f
        self.mob = mob
        self.label = f"compose({f.label},mobius)"
        self.zeros = tuple(
            (complex(mob.inverse(loc)), mult) for loc, mult in f.zeros
        )
        self.boundary_singularities = tuple(
            float(np.angle(mob.inverse(np.exp(1j * float(t))))) % TWO_PI
            for t in f.boundary_singularities
        )

    def __call__(self, z):
        return self.f(self.mob.forward(np.asarray(z, dtype=complex)))

    def boundary_trace(self, theta):
        theta = np.asarray(theta, dtype=float)
        img = self.mob.forward(np.exp(1j * theta))
        return self.f.boundary_trace(np.angle(img))


def conformal_pullback_norm(f, u, automorphism, p, **kwargs):
    """Norm report for f∘φ under the pulled-back exhaustion u∘φ.

    The map must behave like a disk automorphism: closed-form inverse and
    derivative with a clean forward/inverse roundtrip and positive finite
    Jacobian bounds; anything else raises InvalidMap.  Membership must
    agree with the direct computation — the pullback transports the Riesz
    mass with the Jacobian, so every route transforms covariantly.
    """
    mob = automorphism
    for name in ("forward", "inverse", "derivative", "jacobian_bounds",
                 "roundtrip_residual"):
        if not callable(getattr(mob, name, None)):
            raise InvalidMap(
                f"map lacks a callable {name!r}; only disk automorphisms "
                "with closed-form inverses are supported (INVALID_MAP)"
            )
    resid = float(mob.roundtrip_residual())
    if not resid < 1e-9:
        raise InvalidMap(
            f"forward/inverse roundtrip residual {resid:.3e} exceeds 1e-9 "
            "(INVALID_MAP)"
        )
    lo, hi = mob.jacobian_bounds(0.99)
    if not (0.0 < lo <= hi < math.inf):
        raise InvalidMap(
            f"Jacobian bounds ({lo:g}, {hi:g}) are not positive and finite "
            "(INVALID_MAP)"
        )
    pulled = pullback_exhaustion(mob, u)
    return hardy_norm(_ComposedExpr(f, mob), p, pulled, **kwargs)


# ---------------------------------------------------------------------------
# Comparison propositions.
# ---------------------------------------------------------------------------


def comparison_checks(u, v, b, *, exclusion_radius=0.25, battery=None,
                      held_out=None, point=0.0, samples=512,
                      tol_abs=1e-8, tol_rel=1e-5):
    """Check the norm-comparison propositions between two exhaustions.

    Three statements are exercised with the bulk route's majorant pairings
    int h dLambda, h the least harmonic majorant of |f|^2, over a battery
    of analytic test functions:

    - order: if b*v <= u outside the exclusion disk around v's minimum
      (verified on a sample grid, to four times the sum of the two
      evaluators' ``value_error`` and at least 1e-9; failure is reported as
      HYPOTHESIS_FAILED, not raised), then each pairing satisfies
      ||phi||_u <= b*||phi||_v;
    - point bound: phi(w) <= s * ||phi||_v with s = sup P(w, .)/V_v;
    - reverse containment: a constant c is fitted on the battery so that
      ||phi||_v <= c*||phi||_u, then frozen and re-tested on held-out
      functions.
    """
    from .factorization import Poly

    if battery is None:
        battery = [
            Poly([1.0]),
            Poly([0.0, 1.0]),
            Poly([1.0, -1.0]),
            Poly([0.25, 0.0, 1.0]),
        ]
    if held_out is None:
        held_out = [Poly([1.0, 0.5]), Poly([0.0, 0.0, 1.0])]
    p = 2.0
    b = float(b)

    # hypothesis grid: polar samples outside the exclusion disk
    radii = np.linspace(0.05, 0.995, 24)
    angles = np.arange(96) * (TWO_PI / 96)
    pts = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    center = complex(v.min_point)
    pts = pts[np.abs(pts - center) >= float(exclusion_radius)]
    uu = np.asarray(u(pts), dtype=float)
    vv = np.asarray(v(pts), dtype=float)
    gap = uu - b * vv
    hyp_tol = max(1e-9, 4.0 * (u.value_error + v.value_error))
    hyp_ok = bool(np.all(gap >= -hyp_tol))
    report = {
        "hypothesis": {
            "margin": float(np.min(gap)),
            "tolerance": float(hyp_tol),
            "points": int(pts.size),
            "status": "OK" if hyp_ok else "HYPOTHESIS_FAILED",
        },
    }

    def pairings(g):
        return tuple(_route_bulk(g, p, x, boundary_weight(x), tol_abs=tol_abs,
                                 tol_rel=tol_rel) for x in (u, v))

    pair_u = {}
    pair_v = {}
    rows = []
    for g in battery:
        nu_, nv_ = pairings(g)
        pair_u[g.label] = nu_.value
        pair_v[g.label] = nv_.value
        ok = None
        if hyp_ok:
            ok = bool(nu_.value <= b * nv_.value * (1.0 + 1e-6) + 1e-12)
        rows.append({
            "f": g.label,
            "pairing_u": nu_.value,
            "pairing_v": nv_.value,
            "status_u": nu_.status,
            "status_v": nv_.status,
            "ok": ok,
        })
    order_ok = None if not hyp_ok else all(r["ok"] for r in rows)
    report["order"] = {"bound": b, "rows": rows, "ok": order_ok}

    w0 = complex(point)
    weight_v = boundary_weight(v, samples=samples)
    finite = np.isfinite(weight_v.values)
    kernel = poisson_kernel(w0, np.exp(1j * weight_v.thetas[finite]))
    s = float(np.max(kernel / weight_v.values[finite]))
    pb_rows = []
    for g in battery:
        lhs = float(np.abs(np.asarray(g(np.array([w0])))[0]) ** p)
        rhs = s * pair_v[g.label]
        pb_rows.append({
            "f": g.label, "value_at_w": lhs, "bound": rhs,
            "ok": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12),
        })
    report["point_bound"] = {
        "w": [w0.real, w0.imag], "s": s, "rows": pb_rows,
        "ok": all(r["ok"] for r in pb_rows),
    }

    ratios = [
        pair_v[g.label] / pair_u[g.label]
        for g in battery if pair_u[g.label] > 0.0
    ]
    c_fit = max(ratios) if ratios else math.inf
    held_rows = []
    for g in held_out:
        nu_, nv_ = pairings(g)
        held_rows.append({
            "f": g.label,
            "pairing_u": nu_.value,
            "pairing_v": nv_.value,
            "ok": bool(nv_.value <= c_fit * nu_.value * (1.0 + 1e-6) + 1e-12),
        })
    report["reverse"] = {
        "fitted_c": c_fit,
        "rows": held_rows,
        "ok": all(r["ok"] for r in held_rows),
    }

    report["ok"] = bool(
        hyp_ok and order_ok and report["point_bound"]["ok"]
        and report["reverse"]["ok"]
    )
    return report
