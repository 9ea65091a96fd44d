"""Analytic expressions on the disk and their factorizations.

The expression family covers polynomials, principal-branch affine powers
[a(1-z)]^beta, finite Blaschke products, outer functions built from boundary
log-modulus data, and products/quotients of these.  Every expression
evaluates on complex arrays, gives its modulus in the disk and on the
circle, declares its singular angles and the exponent of |f*| at each,
and reports the interior zeros that Blaschke division needs; the norm
routes read nothing else.

On top of the family sit the factorization routines: dividing out zeros by
a Blaschke product without changing the weighted norm, reconstructing outer
functions from boundary data, and building the unit-norm outer multiplier
whose boundary modulus squares against the weight to one.  The multiplier
reads one number of the weight besides its samples, the log mean
int log V dnu, which fixes phi(0) by Szego's theorem; its Beurling check
probes |phi*|^2 V off the weight's nodes, where it can fail.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np
from numpy.polynomial import polynomial as npp

from . import hardy
from .geometry import CONVERGED, DIVERGENT
from .potential import (
    _add_exponents,
    _analytic_coefficients,
    _exponent_map,
    _series,
    integrate_interval,
)

__all__ = [
    "InvalidZero",
    "NotLogIntegrable",
    "UnsupportedExpression",
    "AnalyticExpr",
    "Poly",
    "AffinePower",
    "BlaschkeProduct",
    "OuterFunction",
    "Product",
    "Quotient",
    "divide_by_blaschke",
    "UInnerCandidate",
    "u_inner",
    "beurling_isometry_check",
]


class InvalidZero(ValueError):
    """A Blaschke zero sits on or outside the unit circle."""


class NotLogIntegrable(ValueError):
    """Boundary log-modulus data fails the integrability requirement."""


class UnsupportedExpression(ValueError):
    """The requested expression leaves the supported closed-form family."""


TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# expression base
# ---------------------------------------------------------------------------


class AnalyticExpr:
    """An analytic function on the unit disk with closed-form pieces.

    Subclasses implement ``_eval``; the boundary trace derives from it.
    ``modulus`` and ``boundary_modulus``, |f| and |f*|, derive from the hook
    ``_modulus``: np.abs of ``_eval`` unless the node has |f| in real
    arithmetic.  The norm routes read f through them alone.
    ``boundary_singularities`` maps each angle t0 where |f*| vanishes or
    blows up to its exponent, |f*(e^{it})| ~ |t - t0|^beta; the routes
    declare the angles to their quadrature, the verdict reads the beta.
    """

    label = "expr"
    #: interior zeros as ((location, multiplicity), ...)
    zeros = ()
    #: {angle: exponent} of the trace where it is singular or vanishes
    boundary_singularities = MappingProxyType({})

    def _eval(self, z):
        raise NotImplementedError

    def _modulus(self, z):
        return np.abs(self._eval(z))

    def __call__(self, z):
        return self._eval(np.asarray(z, dtype=complex))

    def modulus(self, z):
        """|f(z)|."""
        return self._modulus(np.asarray(z, dtype=complex))

    def boundary_trace(self, theta):
        """Value of the boundary function at e^{i theta} (a.e.)."""
        theta = np.asarray(theta, dtype=float)
        return self._eval(np.exp(1j * theta))

    def boundary_modulus(self, theta):
        """|f*(e^{i theta})| (a.e.)."""
        return self._modulus(np.exp(1j * np.asarray(theta, dtype=float)))

    def __mul__(self, other):
        if isinstance(other, AnalyticExpr):
            return Product(self, other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, AnalyticExpr):
            return Quotient(self, other)
        return NotImplemented

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


# ---------------------------------------------------------------------------
# concrete nodes
# ---------------------------------------------------------------------------


_ROOT_CLUSTER = 1e-3  # a k-fold root splits by about eps^(1/k): 2.2e-4 at k = 4
_MULTIPLE_ROOT = 1e-13  # true k-fold zeros leave below 6e-16 of the coefficients


class Poly(AnalyticExpr):
    """Polynomial with complex coefficients, low degree first.

    The k roots nearest a root, within _ROOT_CLUSTER of it, are one zero
    for the largest k at which p, ..., p^(k-1) vanish to _MULTIPLE_ROOT
    relative at c, two Newton steps on p^(k-1) from their centroid.  The
    zero is on the circle when they vanish so at its angle, where it is
    the nearest zero.  Distinct roots under 1e-6 apart merge, and a triple
    zero beside a root within 1e-3 may split: both past double precision.
    """

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        while coeffs.size > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if coeffs.size == 1 and coeffs[0] == 0:
            raise UnsupportedExpression("the zero function is not supported")
        self.coeffs = coeffs
        self.label = "poly(" + ",".join(f"{c:g}" for c in coeffs) + ")"
        self.zeros, self.boundary_singularities = self._classify_roots()

    def _vanishes(self, c, k):
        return all(abs(npp.polyval(c, d)) <= _MULTIPLE_ROOT * npp.polyval(abs(c), np.abs(d))
                   for d in (npp.polyder(self.coeffs, j) for j in range(k)))

    def _classify_roots(self):
        rest, zeros, inner, circle = list(npp.polyroots(self.coeffs)), [], [], {}
        while rest:
            near = sorted((s for s in rest if abs(s - rest[0]) < _ROOT_CLUSTER),
                          key=lambda s: abs(s - rest[0]))
            for k in range(len(near), 0, -1):
                c, d = complex(sum(near[:k])) / k, npp.polyder(self.coeffs, k - 1)
                for _ in range(2 * (k > 1)):  # p^(k-1) has a simple zero at c
                    slope = npp.polyval(c, npp.polyder(d))
                    c -= npp.polyval(c, d) / slope if slope else 0.0
                if k == 1 or self._vanishes(c, k):
                    break
            zeros.append((c, k))
            for s in near[:k]:
                rest.remove(s)
        for c, k in zeros:
            u = np.exp(1j * np.angle(c))
            if self._vanishes(u, k) and min(abs(u - b) for b, _ in zeros) == abs(u - c):
                circle[float(np.angle(c))] = float(k)
            elif abs(c) < 1.0 - 1e-12:
                inner.append((c, k))
        return tuple(inner), circle

    def _eval(self, z):
        return npp.polyval(z, self.coeffs)


class AffinePower(AnalyticExpr):
    """[a(1-z)]^beta with the principal branch.

    The image of the disk under a(1-z) is the disk of radius |a| centered
    at a, which avoids the branch cut (-inf, 0] exactly when Re a >= 0;
    other rotations would drag the cut through the domain.
    """

    def __init__(self, a, beta):
        a = complex(a)
        beta = float(beta)
        if a == 0:
            raise UnsupportedExpression("affine power needs a nonzero scale")
        if a.real < 0.0:
            raise UnsupportedExpression(
                "a(1-z) crosses the branch cut when Re a < 0"
            )
        self.a = a
        self.beta = beta
        self.label = f"pow({a:g}*(1-z),{beta:g})"
        # |a(1 - e^{it})|^beta = |a|^beta |2 sin(t/2)|^beta: the trace
        # vanishes (beta > 0) or blows up (beta < 0) at z = 1, so its
        # log-modulus is always singular there
        self.boundary_singularities = {0.0: beta}

    def _base(self, z):
        return self.a * (1.0 - z)

    def _eval(self, z):
        w = self._base(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(self.beta * np.log(w))
        if self.beta >= 0:
            out = np.where(w == 0, 0.0 ** self.beta, out)  # 1 at beta = 0
        return out

    def _modulus(self, z):
        with np.errstate(divide="ignore"):  # 0, 1 or inf at z = 1 as beta >, = or < 0
            return np.abs(self._base(z)) ** self.beta


class BlaschkeProduct(AnalyticExpr):
    """Finite Blaschke product with the standard normalization.

    Each factor is (|a|/a)(a-z)/(1-conj(a)z), degenerating to z for a = 0;
    the product has modulus one on the circle and |B| < 1 inside.
    """

    def __init__(self, zero_list):
        locs = [complex(a) for a in zero_list]
        for a in locs:
            if abs(a) >= 1.0 - 1e-12:
                raise InvalidZero(f"Blaschke zero {a} is not inside the disk")
        self.zero_list = tuple(locs)
        grouped = {}
        for a in locs:
            for key in grouped:
                if abs(key - a) < 1e-14:
                    grouped[key] += 1
                    break
            else:
                grouped[a] = 1
        self.zeros = tuple(grouped.items())
        self.label = "blaschke(" + ",".join(f"{a:g}" for a in locs) + ")"

    def _factor(self, z, a):
        if a == 0:
            return np.asarray(z, dtype=complex)
        return (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)

    def _eval(self, z):
        out = np.ones_like(np.asarray(z, dtype=complex))
        for a in self.zero_list:
            out = out * self._factor(z, a)
        return out


class OuterFunction(AnalyticExpr):
    """Outer function exp( integral (zeta+z)/(zeta-z) logM d nu ).

    The Herglotz kernel expands as 1 + 2 sum_k (z/zeta)^k, so the function
    is exp(sum_k a_k z^k) with a the analytic series of the log-modulus
    samples (``potential._analytic_coefficients``: their mean, twice each
    Fourier coefficient below Nyquist, the Nyquist term once), less its
    trailing terms below 1e-15 of the largest.  ``log_coeff0`` is a_0 and
    ``log_coeffs`` the rest.  The constructor samples 8,192 angles.
    ``boundary_singularities`` declares {t0: a} where the log-modulus is
    a log|2 sin((t - t0)/2)| plus a continuous rest, a term carried exactly.
    Construction refuses a non-finite log-modulus on adjacent samples, and
    a callable one whose absolute integral diverges at a declared angle.
    """

    def __init__(self, log_modulus, *, boundary_singularities=None):
        thetas = np.arange(8192) * (TWO_PI / 8192)
        vals = np.asarray(log_modulus(thetas), dtype=float)
        self._init_from_samples(thetas, vals, boundary_singularities)
        # samples interpolate to a bounded function, which cannot diverge:
        # only the function itself can show a singularity that is not
        # log-integrable
        for t0 in self.boundary_singularities:
            res = integrate_interval(
                lambda s: np.abs(log_modulus(s)),
                float(t0) + 1e-12, float(t0) + 0.2,
                tol_abs=1e-6, tol_rel=1e-6, singular_left=True,
            )
            if res.status == DIVERGENT:
                raise NotLogIntegrable(
                    f"log-modulus is not integrable near theta={t0:g}"
                )

    @classmethod
    def from_samples(cls, thetas, log_values, *, boundary_singularities=None):
        obj = cls.__new__(cls)
        obj._init_from_samples(np.asarray(thetas, dtype=float),
                               np.asarray(log_values, dtype=float),
                               boundary_singularities)
        return obj

    def _init_from_samples(self, thetas, vals, declared):
        declared = _exponent_map({} if declared is None else declared,
                                 UnsupportedExpression, "angle")
        n = thetas.size
        vals = np.asarray(vals, dtype=float).copy()
        bad = ~np.isfinite(vals)
        if bad.any():
            # runs of non-finite samples mean the modulus vanishes (or blows
            # up) on a whole arc, which no outer function can represent
            run = bad & (np.roll(bad, 1) | np.roll(bad, -1))
            if run.any():
                raise NotLogIntegrable(
                    "log-modulus is non-finite on adjacent samples"
                )
        # Subtract the declared a log|2 sin((theta-t0)/2)| at each singular
        # angle.  Its Fourier coefficients are exact (-e^{-ik t0}/2k), so
        # only the continuous rest goes through the FFT and the log
        # singularity costs no accuracy.
        work = vals
        for t0, a in declared.items():
            work = work - a * np.log(np.maximum(
                2.0 * np.abs(np.sin(0.5 * (thetas - t0))), 1e-300))
        bad = ~np.isfinite(work)
        if bad.any():
            idx = np.flatnonzero(bad)
            work[idx] = 0.5 * (work[(idx - 1) % n] + work[(idx + 1) % n])
        coeffs = _analytic_coefficients(work)
        scale = max(np.abs(coeffs).max(), 1e-30)
        keep = coeffs.size
        while keep > 2 and abs(coeffs[keep - 1]) < 1e-15 * scale:
            keep -= 1
        self.log_coeff0 = float(coeffs[0].real)
        self.log_coeffs = coeffs[1:keep]
        self.boundary_singularities = declared
        self.label = f"outer[{n} samples]"

    def _log_series(self, z):
        z = np.asarray(z, dtype=complex)
        series = _series(z, np.concatenate(([0.0], self.log_coeffs)))
        total = self.log_coeff0 + series
        for t0, a in self.boundary_singularities.items():
            total = total + a * np.log(1.0 - z * np.exp(-1j * t0))
        return total

    def _eval(self, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(self._log_series(z))

    def _modulus(self, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(self._log_series(z).real)


class Product(AnalyticExpr):
    def __init__(self, f, g):
        self.f = f
        self.g = g
        self.label = f"({f.label})*({g.label})"
        self.zeros = tuple(f.zeros) + tuple(g.zeros)
        self.boundary_singularities = _add_exponents(
            f.boundary_singularities, g.boundary_singularities)

    def _eval(self, z):
        return self.f._eval(z) * self.g._eval(z)

    def _modulus(self, z):
        return self.f._modulus(z) * self.g._modulus(z)


class Quotient(AnalyticExpr):
    """f/g for g nonvanishing on the closed disk interior."""

    def __init__(self, f, g):
        if tuple(g.zeros):
            raise UnsupportedExpression(
                "quotient denominators must not vanish inside the disk"
            )
        self.f = f
        self.g = g
        self.label = f"({f.label})/({g.label})"
        self.zeros = tuple(f.zeros)
        self.boundary_singularities = _add_exponents(
            f.boundary_singularities, g.boundary_singularities, -1.0)

    def _eval(self, z):
        return self.f._eval(z) / self.g._eval(z)

    def _modulus(self, z):
        return self.f._modulus(z) / self.g._modulus(z)


# ---------------------------------------------------------------------------
# factorization operations
# ---------------------------------------------------------------------------


def divide_by_blaschke(f, p, u):
    """Split f = B h^{2/p} and check the norm carries over to h^{2/p}.

    B collects the interior zeros of f; h^{2/p} is realized as the outer
    function with boundary modulus |f*| (legitimate because |B*| = 1), so
    it is zero-free by construction.  The report compares the two weighted
    norms, which the factorization is supposed to preserve.
    """
    zero_list = []
    for loc, mult in f.zeros:
        zero_list.extend([loc] * int(mult))
    B = BlaschkeProduct(zero_list) if zero_list else Poly([1.0])

    def log_mod(theta):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(f.boundary_modulus(theta))

    h_2p = OuterFunction(log_mod, boundary_singularities=f.boundary_singularities)
    norm_f = hardy.hardy_norm(f, p, u)
    norm_h = hardy.hardy_norm(h_2p, p, u)
    gap = None
    if norm_f.value is not None and norm_h.value is not None:
        gap = abs(norm_f.value - norm_h.value) / max(abs(norm_f.value), 1e-300)
    report = {
        "blaschke": B.label,
        "n_zeros": len(zero_list),
        "norm_f": norm_f.value,
        "norm_h": norm_h.value,
        "relative_gap": gap,
        "preserved": gap is not None and gap <= 5e-3,
    }
    return h_2p, report


# ---------------------------------------------------------------------------
# u-inner functions
# ---------------------------------------------------------------------------


class UInnerCandidate:
    """Outer multiplier phi whose boundary modulus squares against V to one.

    ``outer_part`` is phi, ``weight`` the boundary weight it flattens, and
    ``norm_value`` the weighted H^2_u norm of phi from ``norm_report``.
    """

    def __init__(self, outer_part, weight, norm_value, norm_report):
        self.outer_part = outer_part
        self.weight = weight
        self.norm_value = norm_value
        self.norm_report = norm_report


def u_inner(u):
    """Construct the outer multiplier phi with |phi*|^2 V = 1 a.e.

    phi is the outer function of -log(V)/2, which carries -alpha/2 at each
    angle where V declares the exponent alpha.  Its log series comes from
    the weight's samples; its constant term is -1/2 of the weight's
    adaptive ``log_mean``, since the declared log|2 sin((t - t0)/2)| terms
    have mean zero, so 1/phi(0)^2 = exp int log V dnu, Szego's limit of V's
    prediction errors.  Raises NotLogIntegrable unless the log mean
    converged.
    """
    weight = hardy.boundary_weight(u)
    log_mean = weight.log_mean
    if log_mean.status != CONVERGED:
        raise NotLogIntegrable(
            f"log V is not integrable for {u.label}; no outer candidate"
        )
    with np.errstate(divide="ignore"):
        log_phi = -0.5 * np.log(weight.values)
    phi = OuterFunction.from_samples(
        weight.thetas, log_phi, boundary_singularities={
            t0: -0.5 * alpha for t0, alpha in weight.singular_thetas.items()},
    )
    phi.log_coeff0 = -0.5 * log_mean.value
    report = hardy.hardy_norm(phi, 2.0, u)
    return UInnerCandidate(phi, weight, report.value, report)


def beurling_isometry_check(candidate, u, test_fns=None):
    """Verify the multiplier carries classical H^2 isometrically into H^2_u.

    For each test function g the weighted norm of phi*g must match the
    classical H^2 norm of g to 5e-3.  ``flatness`` probes |phi*|^2 V off the
    weight's nodes, where phi's series does not interpolate its own
    samples: at the midpoints of the nodes and at t0 +- 10^-k, k = 1..5,
    about each declared angle t0.  It reports the largest | |phi*|^2 V - 1 |
    and its angle, ok within 1e-3.
    """
    if test_fns is None:
        rng = np.random.default_rng(5)
        test_fns = [
            Poly([1.0]),
            Poly([0.0, 1.0]),
            Poly([0.0, 0.0, 1.0]),
            Poly(rng.normal(size=4) + 1j * rng.normal(size=4)),
            Poly([1.0, -1.0]),
        ]
    entries = []
    for g in test_fns:
        fg = Product(candidate.outer_part, g)
        weighted = hardy.hardy_norm(fg, 2.0, u)
        classical = hardy.classical_hardy_norm(g, 2.0)
        gap = None
        if weighted.value is not None:
            gap = abs(weighted.value - classical) / max(classical, 1e-300)
        entries.append({
            "label": g.label,
            "weighted": weighted.value,
            "classical": classical,
            "relative_gap": gap,
            "ok": gap is not None and gap <= 5e-3,
        })
    weight = candidate.weight
    thetas = weight.thetas
    steps = 10.0 ** -np.arange(1, 6)
    probes = [thetas + 0.5 * (thetas[1] - thetas[0])]
    for t0 in weight.singular_thetas:
        probes += [t0 - steps, t0 + steps]
    t = np.concatenate(probes)
    dev = np.abs(candidate.outer_part.boundary_modulus(t) ** 2
                 * weight.at(t) - 1.0)
    worst = int(np.argmax(dev))
    flat = {"max": float(dev[worst]), "theta": float(t[worst]),
            "ok": bool(dev[worst] <= 1e-3)}
    return {
        "entries": entries,
        "flatness": flat,
        "ok": flat["ok"] and all(e["ok"] for e in entries),
    }
