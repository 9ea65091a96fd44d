"""Reference values computed without the package under test.

Everything here uses only the standard library and numpy: Beta and Gamma
functions through ``math.lgamma``, closed-form boundary weights, and
trapezoid averages on a uniform grid of the circle.  The benchmark
compares each answer of ``pshardy`` against one of these.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Uniform nodes for trapezoid averages.  The integrands averaged on this
# grid are analytic on the circle (polynomials times Poisson kernels with
# pole radius >= 1/0.6), so the rule is exact to round-off far below the
# tolerances the checks use.
TRAPEZOID_NODES = 4096


def beta_fn(a, b):
    """Euler's Beta function B(a, b) for a, b > 0; inf when b == 0."""
    if b <= 0.0:
        return math.inf
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def lens_moments(m):
    """(M0, M1) of the lens measure sigma_m behind make_example("um", m).

    M0 = m(1-m)/pi B(3/2, m-1/2) is the total Riesz mass and
    M1 = m(1-m)/pi B(5/2, m-1/2) its first moment, so that for the boundary
    weight V of u_m:  ||1||^2 = M0  and  ||z(1-z)||^2 = 2 (M0 - M1).
    Both are infinite for m <= 1/2.
    """
    pref = m * (1.0 - m) / math.pi
    return pref * beta_fn(1.5, m - 0.5), pref * beta_fn(2.5, m - 0.5)


def lens_half_affine_square(m):
    """||(1/2)(1-z)||_2^2 under u_m, as 1/2 m(1-m)/pi B(3/2, m+1/2)."""
    return 0.5 * m * (1.0 - m) / math.pi * beta_fn(1.5, m + 0.5)


def lens_verdict(beta, p, m):
    """MEMBER iff beta*p > 1 - 2m for (a(1-z))^beta under u_m.

    Returns None when beta*p lies within 0.1 of the threshold: the rule is
    only used where a quadrature verdict can be expected to resolve it.
    """
    gap = beta * p - (1.0 - 2.0 * m)
    if abs(gap) < 0.1 - 1e-12:
        return None
    return "MEMBER" if gap > 0.0 else "NOT_MEMBER"


def chord_power_mean(s):
    """int |1 - e^{it}|^s dnu = Gamma(1+s) / Gamma(1+s/2)^2, s > -1."""
    return math.exp(math.lgamma(1.0 + s) - 2.0 * math.lgamma(1.0 + 0.5 * s))


def poisson(a, t):
    """Poisson kernel P(a, e^{it}) = (1-|a|^2)/|e^{it} - a|^2."""
    zeta = np.exp(1j * np.asarray(t, dtype=float))
    return (1.0 - abs(a) ** 2) / np.abs(zeta - a) ** 2


class Weight:
    """A closed-form boundary weight: a constant plus Poisson atoms.

    V(t) = const + sum_k mass_k P(a_k, e^{it}); this covers c log|z|,
    the radial cubic profile (V = its mass 2/3), Green atoms and their
    Moebius pullbacks.
    """

    def __init__(self, const=0.0, atoms=()):
        self.const = float(const)
        self.atoms = tuple((complex(a), float(m)) for a, m in atoms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.const)
        for a, mass in self.atoms:
            out = out + mass * poisson(a, t)
        return out


def grid():
    return np.arange(TRAPEZOID_NODES) * (TWO_PI / TRAPEZOID_NODES)


def weighted_power_mean(trace_abs, p, weight):
    """Trapezoid average of |f*|^p V, given |f*| as a function of angle."""
    t = grid()
    return float(np.mean(np.asarray(trace_abs(t)) ** p * weight(t)))


def affine_power_mean(a, beta, p, weight):
    """int |a(1-e^{it})|^{beta p} V dnu with the chord singularity split off.

    |1-e^{it}|^s V(t) = V(0) |1-e^{it}|^s + |1-e^{it}|^s (V(t) - V(0)): the
    first term is the Gamma-function mean, the second vanishes like
    |t|^{s+2} (V is even about t = 0 for the weights used here) and is
    averaged by the trapezoid rule.
    """
    s = beta * p
    t = grid()
    chord = np.abs(1.0 - np.exp(1j * t)) ** s
    v0 = float(weight(np.array([0.0]))[0])
    smooth = float(np.mean(chord * (weight(t) - v0)))
    return abs(a) ** s * (v0 * chord_power_mean(s) + smooth)


def poly_abs_on_circle(coeffs):
    """|q(e^{it})| for q with ascending coefficients, evaluated by numpy."""
    coeffs = np.asarray(coeffs, dtype=complex)

    def f(t):
        return np.abs(np.polyval(coeffs[::-1], np.exp(1j * np.asarray(t))))

    return f


def classical_h2_norm(coeffs):
    """||q||_{H^2} = sqrt(sum |c_k|^2) by Parseval."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(coeffs)) ** 2)))


def outer_of_poisson_atom(a, z):
    """The outer phi with |phi*|^2 P(a, .) = 1 and phi(0) > 0.

    P(a, e^{it}) = (1-|a|^2)/|1 - conj(a) e^{it}|^2, so
    phi(z) = (1 - conj(a) z) / sqrt(1 - |a|^2).
    """
    return (1.0 - np.conj(a) * np.asarray(z)) / math.sqrt(1.0 - abs(a) ** 2)
