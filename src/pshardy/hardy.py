"""Weighted Hardy norms on the disk built from subharmonic exhaustions.

An exhaustion u < 0 with Riesz mass Lambda u induces a Hardy space whose
norm can be computed three independent ways:

``level-sup``
    sup over c < 0 of the pairings of |f|^p against the swept boundary
    measures mu_c of the sublevel sets, evaluated on the dyadic ladder
    c = -2^{-k} and carried to c -> 0 by one Richardson step;
``bulk``
    int h_f dLambda u, the pairing of the Riesz mass with the least
    harmonic majorant h_f = P[|f*|^p] of |f|^p (the paper's majorant
    characterization; DIVERGENT when |f|^p has no majorant), computed from
    the boundary trace of f: a spectral series away from its singular
    angles, the boundary integrand within windows around them;
``boundary``
    int |f*|^p V dnu, where the boundary weight V is the Poisson balayage
    of the Riesz mass, V(zeta) = int P(w, zeta) dLambda u(w).  A V with no
    closed form is evaluated once per exact float angle for as long as the
    exhaustion keeps its weight, and every route and check reads those
    values; they differ from fresh ones by rounding only.  Closed forms are
    evaluated afresh.

The three agree for members.  The declared exponents decide membership:
where |f*| ~ |t - t0|^beta and V ~ |t - t0|^alpha, |f*|^p V is integrable at
t0 exactly when p beta + alpha > -1.  Route values are p-th powers of the
norm; ``NormReport.value`` is the norm.
``NormReport`` derives its route values, statuses, ``routes_run``, ladder bar
and classical norm from one record, the routes' and the classical power's
``QuadratureResult``s.

Normalization matches the rest of the package: nu is arclength with
nu(circle) = 1, masses are stored against Lambda = (1/2pi) Delta, and the
classical norm of f is (int |f*|^p dnu)^{1/p}.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import minimize_scalar

from .geometry import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    MoebiusAutomorphism,
    QuadratureResult,
    _mirrored,
    _wrap,
    integrate_boundary_arc,
)
from .potential import (
    _MOMENT_ERROR,
    _add_exponents,
    _analytic_coefficients,
    _series,
    poisson_balayage,
    poisson_extension,
)
from .exhaustion import (
    ExhaustionSpec,
    InvalidParameter,
    UnsupportedRegion,
    pullback_exhaustion,
    radial_log,
)

__all__ = [
    "NoMajorant",
    "InvalidMap",
    "BoundaryWeight",
    "boundary_weight",
    "classical_hardy_norm",
    "NormReport",
    "hardy_norm",
    "least_harmonic_majorant",
    "conformal_pullback_norm",
    "comparison_checks",
]

TWO_PI = 2.0 * math.pi


class NoMajorant(ValueError):
    """|f|^p has no harmonic majorant on the disk."""


class InvalidMap(ValueError):
    """The supplied map is not a disk automorphism."""


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


def _fold(theta):
    """|theta| on [-pi, pi], and |_wrap(theta)| outside it: the angle in
    [0, pi] with the same V under a mirror-symmetric mass.  A small negative
    angle is never wrapped, which would round it to a multiple of ulp(pi).
    """
    mag = np.abs(theta)
    return np.where(mag <= math.pi, mag, np.abs(_wrap(theta)))


def _memoized(V, singular_thetas, mirror=False):
    """V evaluated once per exact float angle, inf at the singular angles.

    A call looks every angle up and evaluates the ones not yet seen,
    distinct and in order of first appearance, in one call to V.  Angles
    are keys as given (t and t + 2 pi are two entries), so a stored value
    differs from a fresh evaluation only by the rounding of the batch it
    was evaluated in.  Under ``mirror``, V(-t) = V(t): the key and the
    angle V is evaluated at are the folded angle (``_fold``) in [0, pi].
    """
    memo = {}

    def at(theta):
        th = np.asarray(theta, dtype=float)
        keys = (_fold(th) if mirror else th).ravel().tolist()
        new = list(dict.fromkeys(k for k in keys if k not in memo))
        if new:
            t = np.array(new)
            vals = np.array(V(t), dtype=float)
            vals[_on_singular(t, singular_thetas)] = math.inf
            memo.update(zip(new, vals.tolist()))
        out = np.fromiter(map(memo.__getitem__, keys), dtype=float,
                          count=len(keys))
        return float(out[0]) if th.ndim == 0 else out.reshape(th.shape)

    return at


# ---------------------------------------------------------------------------
# The boundary weight.
# ---------------------------------------------------------------------------


class BoundaryWeight:
    """Boundary density V of an exhaustion against normalized arclength.

    V is the Poisson sweep of the Riesz mass onto the circle; the weighted
    boundary measure of the exhaustion is V dnu plus nothing else for the
    families handled here.  ``at`` is the one evaluator of V, the one
    ``potential.poisson_balayage`` returns.  A closed form is evaluated
    afresh at every call.  Any other V goes through a memo that belongs to
    this weight, so it lives as long as the exhaustion that caches the
    weight: each exact float angle is evaluated once, inf exactly at the
    declared singular angles, and a stored value differs from a fresh one
    by rounding only.  For a mirror-symmetric measure V(-t) = V(t), and the
    memo is keyed on the folded angle in [0, pi].  ``values`` is ``at`` on
    the uniform sample grid ``thetas``, inf at the nodes on those angles;
    for a mirror-symmetric measure it is ``at`` on the nodes of [0, pi],
    mirrored, so values[n - j] == values[j].  ``singular_thetas`` maps
    each of them to the exponent alpha of V there, V ~ |t - t0|^alpha.
    ``log_mean`` is int log V dnu as a ``QuadratureResult``, adaptive at
    1e-8 abs and rel with the singular angles declared, computed on first
    read; by Szego's theorem exp(log_mean) is the limit of V's prediction
    errors, and the u-inner multiplier reads it as -2 log phi(0).
    """

    def __init__(self, *, thetas, values, evaluator, singular_thetas,
                 mass_of_laplacian, fubini_residual, label):
        self.thetas = np.asarray(thetas, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._evaluator = evaluator
        self.singular_thetas = dict(singular_thetas)
        self.mass_of_laplacian = float(mass_of_laplacian)
        self.fubini_residual = None if fubini_residual is None else float(fubini_residual)
        self.label = label

    @property
    def samples(self):
        return self.values.size

    def at(self, theta):
        """Evaluate V at arbitrary angles (inf at singular angles)."""
        return self._evaluator(theta)

    @functools.cached_property
    def log_mean(self):
        def log_v(t):
            with np.errstate(divide="ignore"):
                return np.log(np.asarray(self._evaluator(t), dtype=float))

        return integrate_boundary_arc(
            log_v, tol_abs=1e-8, tol_rel=1e-8,
            singular_points=tuple(self.singular_thetas))

    def constancy(self):
        """Coefficient of variation of the finite samples (0 for radial)."""
        vals = self.values[np.isfinite(self.values)]
        mean = float(np.mean(vals))
        if mean == 0.0:
            return math.inf
        return float(np.std(vals) / abs(mean))

    def arc_mass(self, a, b, *, tol_abs=1e-9, tol_rel=1e-6):
        """Weighted measure of the boundary arc {e^{it} : a <= t <= b}, to
        within the tolerances, inf when it diverges."""
        res = integrate_boundary_arc(
            self._evaluator, tol_abs=tol_abs, tol_rel=tol_rel,
            singular_points=tuple(self.singular_thetas), arc=(a, b))
        return math.inf if res.status == DIVERGENT else res.value

    def to_json_dict(self):
        return {
            "label": self.label,
            "samples": int(self.samples),
            "mass_of_laplacian": _json_real(self.mass_of_laplacian),
            "log_mean": self.log_mean.to_json_dict(),
            "fubini_residual": _json_real(self.fubini_residual),
            "singular_thetas": [[float(t), float(alpha)]
                                for t, alpha in self.singular_thetas.items()],
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


_WEIGHT_SAMPLES = 2048


def boundary_weight(u):
    """The boundary weight V of an exhaustion, sampled on 2,048 angles.

    V is the Poisson balayage of the Riesz mass, so it is built from
    ``u.measure`` alone (``potential.poisson_balayage``): the constant mass
    for a rotation-invariant measure, sum m P(a, .) for atoms, the
    measure's declared ``balayage``, and the Fourier moments of the mass
    otherwise.  The two closed forms are evaluated afresh at every angle.
    Any other V is evaluated once per exact float angle and kept in a memo
    on the weight, which set-up, ``arc_mass`` and every route read, so it
    lives as long as the exhaustion does; a stored value differs from a
    fresh evaluation by the rounding of its batch only.  When the measure
    is mirror-symmetric (``RieszMeasure.is_mirror_symmetric``) the memo is
    keyed on, and V evaluated at, the folded angle in [0, pi], and the
    2,048 samples are the 1,025 on [0, pi], mirrored.
    Outside the two closed forms V is inf exactly at the angles of the
    measure's boundary singularities (``singular_thetas``, with their
    exponents; not fatal), and a sample that is non-finite anywhere else
    raises UnsupportedRegion.  Functions that are not exhaustions raise
    InvalidParameter.  The weight is built once per exhaustion and cached
    on it.
    """
    if not isinstance(u, ExhaustionSpec):
        raise InvalidParameter("boundary_weight expects an ExhaustionSpec")
    if u._weight is None:
        u._weight = _build_weight(u)
    return u._weight


def _build_weight(u):
    measure = u.measure
    mass, ev, closed = poisson_balayage(measure)
    singular = {float(np.angle(s)) % TWO_PI: alpha
                for s, alpha in measure.boundary_singularities.items()}
    thetas = np.arange(_WEIGHT_SAMPLES) * (TWO_PI / _WEIGHT_SAMPLES)
    if closed:
        # V is the constant mass or a positive trigonometric-rational
        # function: it integrates to the mass identically, and log V is
        # bounded on the circle
        values = ev(thetas)
        resid = 0.0 if math.isfinite(mass) else None
    else:
        mirror = measure.is_mirror_symmetric()
        ev = _memoized(ev, singular, mirror)
        if mirror:
            # V(-t) = V(t): the nodes on [0, pi], mirrored onto (pi, 2 pi)
            values = _mirrored(ev(thetas[:_WEIGHT_SAMPLES // 2 + 1]))
        else:
            values = ev(thetas)
        if not np.all(np.isfinite(values) | _on_singular(thetas, singular)):
            raise UnsupportedRegion(
                "boundary weight is non-finite away from its declared "
                "singular angles"
            )
        resid = _fubini_residual(ev, mass, singular)
    weight = BoundaryWeight(
        thetas=thetas, values=values, evaluator=ev,
        singular_thetas=singular, mass_of_laplacian=mass,
        fubini_residual=resid, label=u.label,
    )
    if not closed:
        # on an infinite mass (u_{1/2}) _fubini_residual integrates nothing,
        # and this is the one set-up pass that fills the memo near the
        # singular angles; without it the routes pay for those evaluations
        # query by query
        weight.log_mean
    return weight


# ---------------------------------------------------------------------------
# Classical Hardy norm.
# ---------------------------------------------------------------------------


def _classical_power(f, p):
    """nu-average of |f*|^p as a QuadratureResult, at 1e-10 abs, 1e-8 rel."""

    def integrand(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return f.boundary_modulus(t) ** p

    return integrate_boundary_arc(
        integrand, tol_abs=1e-10, tol_rel=1e-8,
        singular_points=tuple(f.boundary_singularities),
    )


def _norm_of(res, p):
    """The norm whose p-th power ``res`` integrates, inf if divergent."""
    return math.inf if res.status == DIVERGENT else res.value ** (1.0 / p)


def classical_hardy_norm(f, p):
    """Classical H^p norm of an analytic expression, inf if divergent."""
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    return _norm_of(_classical_power(f, p), p)


# ---------------------------------------------------------------------------
# The three routes.
# ---------------------------------------------------------------------------


def _route_boundary(f, p, weight):
    """int |f*|^p V dnu at 1e-9 abs, 1e-6 rel, the singular angles of both
    factors declared."""
    if not np.any(np.isfinite(weight.values)):
        return QuadratureResult(math.inf, math.inf, DIVERGENT, 0)

    def integrand(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return f.boundary_modulus(t) ** p * np.asarray(
                weight.at(t), dtype=float)

    return integrate_boundary_arc(
        integrand, tol_abs=1e-9, tol_rel=1e-6,
        singular_points=(*weight.singular_thetas, *f.boundary_singularities),
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


def _route_bulk(f, p, u, weight, samples):
    """int h_f dLambda u, h_f = P[|f*|^p] the least harmonic majorant of |f|^p.

    By the symmetry of the Green function this is the norm^p of the
    paper's majorant characterization.  ``samples`` are those of |f*|^p
    that h_f extends (``_majorant``), or None when |f|^p has no majorant,
    which is DIVERGENT.  The route reads f only through its boundary
    modulus and those samples.  With
    q = |f*|^p and a smooth cutoff chi around the singular angles of f,
    the window part P[q chi] is taken by Fubini as int q chi V dnu over
    each window, so there the route shares the boundary route's integrand.
    The far part P[q (1 - chi)] = Re sum_k a_k w^k is a spectral series,
    paired with the mass: by the mean value h(0) * mass when the mass is
    rotation invariant, else as Re sum_k a_k M_k when the measure declares
    its ``moments`` M_k (the finite parts for an infinite mass, whose
    series the tip check has found to vanish at the tip), to within
    _MOMENT_ERROR of sum_k |a_k M_k|.  Other measures pair the series,
    summed by the blocked ``_series``, by ``RieszMeasure.pair`` at a
    hundredth of the route's tolerances, 1e-9 absolute and 1e-6 relative,
    since the disk quadrature under-reports its error on the lens at the
    route's own.  For a finite mass the series drops its terms below
    _SERIES_FLOOR of the largest and adds their sum times the mass to the
    error; an infinite mass keeps every term.
    """
    divergent = QuadratureResult(math.inf, math.inf, DIVERGENT, 0)
    if samples is None:
        return divergent
    tol_abs, tol_rel = 1e-9, 1e-6
    angles = tuple(f.boundary_singularities)

    def window(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return (f.boundary_modulus(t) ** p * _cutoff(t, angles)
                    * np.asarray(weight.at(t), dtype=float))

    # q chi V vanishes off the windows; panels break at their edges and
    # where chi starts to fall, so the shells graded toward a singular angle
    # see q V alone and their tail fit is not misled by chi
    parts = []
    if angles:
        parts.append(integrate_boundary_arc(
            window, tol_abs=tol_abs, tol_rel=tol_rel,
            singular_points=angles + tuple(weight.singular_thetas),
            split_points=[_wrap(t + d) for t in angles
                          for d in (-_CUT[1], -_CUT[0], _CUT[0], _CUT[1])],
        ))
        if parts[0].status == DIVERGENT:
            return divergent

    mass = weight.mass_of_laplacian
    far = samples * _majorant_far_share(angles)
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
            return _series(w, coeffs).real

        # an infinite mass gathers at the measure's declared boundary
        # singular points, where h_far is continuous: positive there, the
        # pairing diverges
        tips = h_far(np.array(list(u.measure.boundary_singularities), dtype=complex))
        if not math.isfinite(mass) and np.any(tips > _SERIES_FLOOR * mags.max()):
            return divergent
        moments = u.measure.moments
        if moments is None:
            parts.append(u.measure.pair(h_far, tol_abs=tol_abs / 100.0,
                                        tol_rel=tol_rel / 100.0))
        else:
            M = moments(coeffs.size)
            bound = float(np.sum(np.abs(coeffs) * np.abs(M)))
            parts.append(QuadratureResult(math.fsum((coeffs * M).real),
                                          _MOMENT_ERROR * bound, CONVERGED, 0))

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


def _ladder_estimate(P):
    """One Richardson step from the rungs mu_k at c_k = -2^{-k} to c -> 0.

    Returns (status, limit, uncertainty, decay_exponent, note).  With
    d_k = mu_k - mu_{k-1} and rho = d_K / d_{K-1} at the deepest rung, the
    limit is R_K = mu_K + d_K and the exponent -log2 rho.  The bar is the
    larger of |R_K - R_{K-1}| and the gap to the geometric tail
    d_K rho / (1 - rho), plus 1e-11 of scale.  By Demailly's Lelong-Jensen
    formula c -> mu_c(|f|^p) is convex, so R_K is a lower bound, when
    Lambda u puts no mass between S_c and the circle (atoms, log|z|, their
    pullbacks); elsewhere (u_m) convexity is only observed.  Either way the
    ladder is CONVERGED only when the chord slopes d_k 2^k of its last four
    steps do not decrease.
    """
    P = np.asarray(P, dtype=float)
    scale = max(abs(P[-1]), 1.0)
    d = np.diff(P)
    if d.size >= 2 and np.all(np.abs(d[-2:]) < 1e-11 * scale):
        return CONVERGED, float(P[-1]), float(np.abs(d[-2:]).max()), None, None
    if d.size < 3:
        return INCONCLUSIVE, float(P[-1]), float("nan"), None, None
    rat = d[1:] / d[:-1]
    if (np.median(rat[-3:]) >= 0.95 and d[-1] > 0) or np.all(rat[-3:] >= 1.0):
        return DIVERGENT, math.inf, math.inf, None, None
    if np.any(d[-4:] <= 0) or rat[-1] >= 1.0:
        return INCONCLUSIVE, float(P[-1]), float(abs(d[-1])), None, None
    rho = float(rat[-1])
    limit = float(P[-1] + d[-1])
    unc = float(max(abs(2.0 * d[-1] - d[-2]),
                    d[-1] * abs(rho / (1.0 - rho) - 1.0)) + 1e-11 * scale)
    slopes = d[-4:] * 2.0 ** np.arange(1 - d[-4:].size, 1)  # d_k 2^(k-K)
    if np.all(np.diff(slopes) >= -1e-11 * scale):
        return CONVERGED, limit, unc, -math.log2(rho), None
    note = ("level-sup ladder not convex in c: the chord slopes d_k 2^(k-K) "
            "of its last rungs decrease, " + ", ".join(f"{s:.6g}" for s in slopes))
    return INCONCLUSIVE, limit, unc, -math.log2(rho), note


def _route_level(f, p, u, weight, *, samples=512):
    """sup over the dyadic ladder of the level-measure pairings of |f|^p.

    Returns (QuadratureResult or None, info dict).  Every rung pairs
    |f|^p with mu_c, the flux of u through the traced level, by the
    trapezoid rule over its rays.  The rungs are the exhaustion's
    ``LevelLadder``, traced on the first query and kept on it, so a query
    reads |f|^p once on the stacked points of every rung and pairs them all
    in one product with the stacked flux weights; a rung whose pairing is
    not finite ends the ladder, its note replacing a deeper stop note.
    Rungs off circles are capped at k = 12: thinner crescents are limited
    by the ray count (the u_{3/4} flux mass at k = 12, on the exact d_r u,
    is 0.191976 on 256 rays, 0.191346 on 512 and 0.191239 on 2,048);
    rotation-invariant exhaustions extend to k = 20, since their levels
    are circles, on which the flux is uniform at any depth.  The ladder is
    skipped for an infinite Riesz mass, whose declared exponents decide
    membership.
    """
    info = {"ladder": (), "exponent": None, "monotone": None, "note": None}
    radial = u.measure.is_rotation_invariant()
    if p <= 1.0 and not radial:
        info["note"] = ("level route skipped: p <= 1 with a traced "
                        "(non-radial) level family")
        return None, info
    if not math.isfinite(weight.mass_of_laplacian):
        info["note"] = "ladder skipped: infinite Riesz mass"
        return None, info

    ladder = u.ladder(samples, 20 if radial else 12)
    points = ladder.points
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power = f.modulus(points.ravel()).reshape(points.shape) ** p
        power = np.where(np.isfinite(power), power, np.inf)
        pairs = np.mean(power * ladder.weights, axis=1)
    finite = np.isfinite(pairs)
    n = pairs.size if finite.all() else int(np.argmin(finite))
    note = ladder.stop if n == pairs.size else f"non-finite pairing at c={ladder.levels[n]:g}"
    rungs = pairs[:n]
    info["ladder"] = tuple(zip(ladder.levels[:n].tolist(), rungs.tolist()))
    if ladder.skipped:
        msg = "ladder skipped untraceable rungs c=" + ", ".join(f"{c:g}" for c in ladder.skipped)
        note = msg if note is None else f"{msg}; {note}"
    info["note"] = note
    if not rungs.size:
        if info["note"] is None:
            info["note"] = "no traceable levels on the ladder"
        return None, info
    scale = max(abs(rungs[-1]), 1.0)
    info["monotone"] = bool(np.all(np.diff(rungs) >= -1e-8 * scale))
    status, limit, unc, info["exponent"], note = _ladder_estimate(rungs)
    if note:
        info["note"] = note if info["note"] is None else f"{info['note']}; {note}"
    return QuadratureResult(limit, unc, status, len(rungs)), info


# ---------------------------------------------------------------------------
# Norm reports and verdicts.
# ---------------------------------------------------------------------------

class NormReport:
    """Outcome of a weighted Hardy norm query for one (f, p, u).

    It keeps one record, the ``QuadratureResult`` of each route (None when
    skipped) and of the classical power.  Derived from it: ``route_values()``
    and the ``route_*`` values (p-th powers of the norm, inf when divergent),
    ``statuses``, ``routes_run``, ``ladder_uncertainty`` (the level error, the
    Richardson bar, while the level value is finite), ``classical_norm``,
    ``classical_status`` and the routes of ``to_json_dict()``.  ``value`` is
    the norm from the error-weighted mean of the converged routes,
    ``agreement`` their max pairwise relative gap, ``fitted_exponent`` the
    observed decay exponent of the ladder's rungs.
    """

    route_level_sup = property(lambda self: self.route_values()["level-sup"])
    route_bulk = property(lambda self: self.route_values()["bulk"])
    route_boundary = property(lambda self: self.route_values()["boundary"])
    classical_status = property(lambda self: self._classical.status)

    def __init__(self, *, f_label, u_label, p, results, classical, value,
                 agreement, verdict, ladder, fitted_exponent, monotone, notes,
                 weight):
        self.f_label = f_label
        self.u_label = u_label
        self.p = float(p)
        self._results = dict(results)
        self._classical = classical
        self.value = value
        self.agreement = agreement
        self.verdict = verdict
        self.ladder = tuple(ladder)
        self.fitted_exponent = fitted_exponent
        self.monotone = monotone
        self.notes = tuple(notes)
        self.weight = weight

    def route_values(self):
        return {name: None if res is None
                else math.inf if res.status == DIVERGENT else float(res.value)
                for name, res in self._results.items()}

    @property
    def statuses(self):
        return {name: None if res is None else res.status
                for name, res in self._results.items()}

    @property
    def routes_run(self):
        return tuple(name for name, res in self._results.items()
                     if res is not None)

    @property
    def ladder_uncertainty(self):
        level = self._results["level-sup"]
        finite = level is not None and math.isfinite(level.value)
        return level.error if finite else None

    @property
    def classical_norm(self):
        return _norm_of(self._classical, self.p)

    def to_json_dict(self):
        values, statuses = self.route_values(), self.statuses
        return {
            "f": self.f_label,
            "exhaustion": self.u_label,
            "p": self.p,
            "routes": {
                name: {
                    "value": _json_real(values[name]),
                    "status": statuses[name],
                    "error": _json_real(None if res is None else res.error),
                }
                for name, res in self._results.items()
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


def _verdict(results, classical, f, weight, p, notes):
    """(verdict, value, agreement) from the route record; reasons go to notes.

    NOT_MEMBER exactly when p beta + alpha <= -1 at an angle of f or V, or
    V has no finite sample.  Otherwise a DIVERGENT route is a defect, noted
    and left out; MEMBER needs the boundary route, the classical power and
    one more route CONVERGED.  ``value`` is the norm from the inverse-variance
    mean of the CONVERGED finite routes, ``agreement`` their max gap.
    """
    finite = {name: float(res.value) for name, res in results.items()
              if res is not None and res.status == CONVERGED
              and math.isfinite(res.value)}
    exponents = _add_exponents(weight.singular_thetas, f.boundary_singularities, p)
    failing = {t: e for t, e in exponents.items() if e <= -1.0}

    agreement = None
    if len(finite) >= 2:
        vals = list(finite.values())
        agreement = max(
            abs(a - b) / max(abs(a), abs(b), 1e-300)
            for i, a in enumerate(vals) for b in vals[i + 1:]
        )

    if failing or not np.any(np.isfinite(weight.values)):
        verdict = "NOT_MEMBER"
        notes += [f"|f*|^p V ~ |t - t0|^{e:.6g} at t0 = {t:.6g}: not "
                  "integrable there (p beta + alpha <= -1)"
                  for t, e in failing.items()] or ["V is infinite at every sample"]
    else:
        notes += [f"{name} route DIVERGENT where the declared exponents are "
                  "integrable: a defect, left out of the verdict"
                  for name, res in results.items()
                  if res is not None and res.status == DIVERGENT]
        verdict = ("MEMBER" if "boundary" in finite and len(finite) >= 2
                   and classical.status == CONVERGED else "INCONCLUSIVE")

    value = None
    if verdict != "NOT_MEMBER" and finite:
        # Inverse-variance combination of the converged routes: the ladder's
        # Richardson step carries an uncertainty orders above the quadrature
        # tolerances, and an equal-weight mean would let it dominate.
        floor = 1e-14 * max(abs(v) for v in finite.values()) + 1e-300
        wsum = vsum = 0.0
        for name, val in finite.items():
            wgt = 1.0 / max(float(results[name].error), floor) ** 2
            wsum += wgt
            vsum += wgt * val
        value = (vsum / wsum) ** (1.0 / p)
    return verdict, value, agreement


def hardy_norm(f, p, u, *, level_samples=512):
    """Compute the weighted Hardy norm of f by all applicable routes.

    Returns a NormReport built from the routes' QuadratureResults, with the
    verdict and the level-ladder diagnostics.  The boundary route needs the
    weight (built and cached on the exhaustion); the level route runs the
    dyadic ladder except where its preconditions fail (p <= 1 with traced
    curves, infinite Riesz mass), and those skips are recorded.
    """
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    if not isinstance(u, ExhaustionSpec):
        raise InvalidParameter("hardy_norm expects an ExhaustionSpec")
    weight = boundary_weight(u)

    classical = _classical_power(f, p)
    boundary = _route_boundary(f, p, weight)
    bulk = _route_bulk(f, p, u, weight, _majorant(f, p, classical))
    level, level_info = _route_level(f, p, u, weight, samples=level_samples)
    results = {"level-sup": level, "bulk": bulk, "boundary": boundary}

    notes = [level_info["note"]] if level_info["note"] else []
    notes += [
        f"{name} route did not certify at its tolerances "
        f"(estimate {res.value:.6g}, error bound {res.error:.2g})"
        for name, res in results.items()
        if name != "level-sup" and res is not None and res.status == INCONCLUSIVE
    ]
    verdict, value, agreement = _verdict(results, classical, f, weight, p, notes)
    return NormReport(
        f_label=f.label, u_label=u.label, p=p, results=results,
        classical=classical, value=value, agreement=agreement,
        verdict=verdict, ladder=level_info["ladder"],
        fitted_exponent=level_info["exponent"],
        monotone=level_info["monotone"], notes=notes, weight=weight,
    )


# ---------------------------------------------------------------------------
# Least harmonic majorants.
# ---------------------------------------------------------------------------


_MAJORANT_SAMPLES = 8192
_MAJORANT_THETAS = TWO_PI * np.arange(_MAJORANT_SAMPLES) / _MAJORANT_SAMPLES
_MAJORANT_POINTS = np.exp(1j * _MAJORANT_THETAS)


@functools.lru_cache(maxsize=16)
def _majorant_far_share(angles):
    """1 - chi on _MAJORANT_THETAS for a tuple of singular angles, built once
    per tuple and read-only: the far part of the bulk route's samples."""
    share = 1.0 - _cutoff(_MAJORANT_THETAS, angles)
    share.flags.writeable = False
    return share


def _majorant(f, p, classical):
    """The samples of |f*|^p that h_f = P[|f*|^p] extends, None if the
    classical power of f diverges: |f|^p at e^{i theta} on _MAJORANT_THETAS,
    0 within 1e-12 of a declared singular angle of f and where not finite.
    """
    if classical.status == DIVERGENT or not math.isfinite(classical.value):
        return None
    good = np.ones(_MAJORANT_SAMPLES, dtype=bool)
    for t0 in f.boundary_singularities:
        good &= _gap(_MAJORANT_THETAS, t0) >= 1e-12
    values = np.zeros(_MAJORANT_SAMPLES)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = f.modulus(_MAJORANT_POINTS[good]) ** p
    values[good] = np.where(np.isfinite(v), v, 0.0)
    return values


def least_harmonic_majorant(f, p):
    """Least harmonic majorant h_f = P[|f*|^p] of |f|^p, as an evaluator.

    Requires f in the classical Hardy space; a divergent boundary mean
    means |f|^p majorizes no harmonic function and raises NoMajorant.
    It is the ``poisson_extension`` of the 8,192 samples of ``_majorant``,
    kept on its ``values``; h_f(0), their mean, is the classical norm power
    up to their sampling error.
    """
    p = float(p)
    if not p > 0.0:
        raise InvalidParameter("the exponent p must be positive")
    samples = _majorant(f, p, _classical_power(f, p))
    if samples is None:
        raise NoMajorant(
            f"|{f.label}|^{p:g} has a divergent boundary mean; no harmonic "
            "majorant exists (NO_MAJORANT)"
        )
    return poisson_extension(samples)


# ---------------------------------------------------------------------------
# Conformal pullback.
# ---------------------------------------------------------------------------


class _ComposedExpr:
    """f composed with a disk automorphism, with just enough surface for
    the norm routes (modulus inside and on the circle, zeros, singular
    angles)."""

    def __init__(self, f, mob):
        self.f = f
        self.mob = mob
        self.label = f"compose({f.label},mobius)"
        self.zeros = tuple(
            (complex(mob.inverse(loc)), mult) for loc, mult in f.zeros
        )
        self.boundary_singularities = {
            float(np.angle(mob.inverse(np.exp(1j * float(t))))) % TWO_PI: beta
            for t, beta in f.boundary_singularities.items()
        }

    def modulus(self, z):
        return self.f.modulus(self.mob.forward(np.asarray(z, dtype=complex)))

    def boundary_modulus(self, theta):
        img = self.mob.forward(np.exp(1j * np.asarray(theta, dtype=float)))
        return self.f.boundary_modulus(np.angle(img))


def conformal_pullback_norm(f, u, automorphism, p):
    """Norm report for f∘φ under the pulled-back exhaustion u∘φ.

    The map must be a ``MoebiusAutomorphism``, whose inverse and derivative
    are closed forms; anything else raises InvalidMap.  Membership must
    agree with the direct computation — the pullback transports the Riesz
    mass with the Jacobian, so every route transforms covariantly.
    """
    if not isinstance(automorphism, MoebiusAutomorphism):
        raise InvalidMap(
            "only disk automorphisms (MoebiusAutomorphism) are supported "
            "(INVALID_MAP)"
        )
    pulled = pullback_exhaustion(automorphism, u)
    return hardy_norm(_ComposedExpr(f, automorphism), p, pulled)


# ---------------------------------------------------------------------------
# Comparison propositions.
# ---------------------------------------------------------------------------


def _sharp_ratio(wu, wv):
    """(C, t): C = ess sup V_u/V_v over the circle, reached at the angle t.

    C is inf exactly where the declared exponents give alpha_u < alpha_v.
    Else V_u/V_v is read through ``at`` on the nodes, their midpoints and
    t0 +- 10^-k, k = 1..12, toward each declared angle t0, and its largest
    value is refined once by a bounded search between its neighbours.
    """
    gaps = _add_exponents(wu.singular_thetas, wv.singular_thetas, -1.0)
    worst = min(gaps, key=gaps.get, default=None)
    if worst is not None and gaps[worst] < 0.0:
        return math.inf, worst
    near = [(t0 + side * 10.0 ** -k) % TWO_PI
            for t0 in gaps for side in (-1.0, 1.0) for k in range(1, 13)]
    t = np.unique(np.concatenate([wu.thetas, wu.thetas + np.pi / wu.samples, near]))
    t = t[~_on_singular(t, gaps)]
    ratio = wu.at(t) / wv.at(t)
    i = int(np.argmax(ratio))
    # the neighbours of the best angle, across t = 0 at either end
    lo, hi = t[i - 1] - TWO_PI * (i == 0), t[(i + 1) % t.size] + TWO_PI * (i + 1 == t.size)
    best = minimize_scalar(lambda s: -wu.at(s) / wv.at(s), bounds=(lo, hi),
                           method="bounded", options={"xatol": 1e-10})
    if -best.fun > ratio[i]:
        return float(-best.fun), float(best.x) % TWO_PI
    return float(ratio[i]), float(t[i])


def comparison_checks(u, v):
    """Sharp constants of the comparison ||f||^p_u <= C ||f||^p_v, checked.

    By the boundary characterization ||f||^p_u = int |f*|^p V_u dnu, the
    sharp constant is C_uv = ess sup V_u/V_v of the two weights
    (``_sharp_ratio``), inf where alpha_u < alpha_v at a declared angle;
    b*v <= u near the circle gives V_u <= b*V_v, so C_uv <= b.  The report:

    - ``C_uv`` and ``C_vu``: the constant (``value``), the angle where it
      is reached (``theta``) and ``bump_ratio``, the ratio of the norms^2
      of the Poisson bump sqrt(1 - r^2)/(1 - r e^{-i theta} z), r = 0.999,
      whose |f*|^2 is P(r e^{i theta}, .): it approaches C from below;
    - ``rows``: the battery 1, z, 1 - z, 1/4 + z^2 paired under u and v by
      the bulk route at p = 2, which reads the Riesz mass and not V, ``ok``
      when pairing_u <= C_uv pairing_v and pairing_v <= C_vu pairing_u to
      1e-6 relative;
    - ``point_bound``: |phi(0)|^2 <= s pairing_v with s = sup P(0, .)/V_v,
      the sharp ratio of the weight of log|z| to V_v, over the battery;
    - ``ok``: every row, both bumps within their constants, the point bound.
    """
    from .factorization import Poly

    p, wu, wv = 2.0, boundary_weight(u), boundary_weight(v)

    def pairings(g):
        # one set of majorant samples of |g|^2 serves both exhaustions
        samples = _majorant(g, p, _classical_power(g, p))
        return _route_bulk(g, p, u, wu, samples), _route_bulk(g, p, v, wv, samples)

    def within(a, c, b):
        return bool(a <= c * b * (1.0 + 1e-6) + 1e-12)

    (c_uv, t_uv), (c_vu, t_vu) = _sharp_ratio(wu, wv), _sharp_ratio(wv, wu)
    r = 0.999  # the Poisson bumps' radius
    (uv_u, uv_v), (vu_u, vu_v) = (
        pairings(Poly([math.sqrt(1.0 - r * r)]) / Poly([1.0, -r * np.exp(-1j * t)]))
        for t in (t_uv, t_vu))
    report = {
        "C_uv": {"value": c_uv, "theta": t_uv, "bump_ratio": float(uv_u.value / uv_v.value)},
        "C_vu": {"value": c_vu, "theta": t_vu, "bump_ratio": float(vu_v.value / vu_u.value)}}

    # P(0, .) is V = 1 of log|z|, so the point bound's s = sup P(0, .)/V_v
    # is the sharp ratio of that weight to V_v
    s = _sharp_ratio(boundary_weight(radial_log()), wv)[0]
    rows, pb_rows = [], []
    for g in (Poly([1.0]), Poly([0.0, 1.0]), Poly([1.0, -1.0]), Poly([0.25, 0.0, 1.0])):
        pu, pv = pairings(g)
        rows.append({
            "f": g.label, "pairing_u": pu.value, "pairing_v": pv.value,
            "status_u": pu.status, "status_v": pv.status,
            "ok": within(pu.value, c_uv, pv.value) and within(pv.value, c_vu, pu.value),
        })
        lhs = float(g.modulus(0j) ** p)
        pb_rows.append({"f": g.label, "value_at_w": lhs, "bound": s * pv.value,
                        "ok": bool(lhs <= s * pv.value * (1.0 + 1e-9) + 1e-12)})
    report["rows"] = rows
    report["point_bound"] = {"w": [0.0, 0.0], "s": s, "rows": pb_rows,
                             "ok": all(row["ok"] for row in pb_rows)}
    report["ok"] = bool(
        all(row["ok"] for row in rows) and report["point_bound"]["ok"]
        and all(within(c["bump_ratio"], c["value"], 1.0)
                for c in (report["C_uv"], report["C_vu"])))
    return report
