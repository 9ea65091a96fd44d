"""Green and Poisson kernels, Riesz measures, and harmonic extensions.

The potential theory here is classical: the Green function of the unit
disk, the Poisson kernel, superpositions of both against finite measures,
and the spectral harmonic extension of sampled boundary data.  Everything
downstream (exhaustion functions, boundary weights, Hardy norms) is
assembled from these pieces.

Normalization
-------------
Riesz masses are stored against Lambda = (1/2pi) * Delta, so the unit
point mass at w has potential exactly g(., w) = log|(z - w)/(1 - z conj w)|
and a subharmonic u with zero boundary values satisfies u = G[Lambda u].
Boundary data is integrated against normalized arclength nu with
nu(circle) = 1, so the harmonic extension of the constant 1 is 1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np
from numpy.polynomial.polyutils import trimseq
from scipy.special import beta, exprel, factorial, gamma, roots_jacobi, zeta as hurwitz_zeta

from .geometry import (
    CONVERGED,
    DIVERGENT,
    QuadratureResult,
    _wrap,
    integrate_disk_area,
    integrate_interval,
)

__all__ = [
    "InvalidParameter",
    "SingularEvaluation",
    "green_function",
    "poisson_kernel",
    "RieszMeasure",
    "poisson_balayage",
    "green_potential",
    "poisson_extension",
    "LensPowerDensity",
]


class InvalidParameter(ValueError):
    """A parameter is outside the range the operation supports."""


class SingularEvaluation(ValueError):
    """A scalar evaluation landed exactly on a pole of the kernel."""


def _exponent_map(decl, error, what):
    """decl as a dict {what: exponent}; anything else raises ``error``."""
    if not (isinstance(decl, Mapping)
            and all(isinstance(a, Real) and math.isfinite(a) for a in decl.values())):
        raise error(f"boundary_singularities must be a mapping {{{what}: "
                    f"exponent}} with finite exponents, not {decl!r}")
    return {k: float(a) for k, a in decl.items()}


def _add_exponents(first, second, factor=1.0):
    """first + factor * second for two {angle: exponent} declarations; an
    angle of second within 1e-9 of one of first adds to it there."""
    out = dict(first)
    for t, e in second.items():
        key = next((s for s in out if abs(_wrap(t - s)) < 1e-9), t)
        out[key] = out.get(key, 0.0) + factor * e
    return out


def green_function(z, w):
    """Green's function of the unit disk, g(z, w) = log|z - w| - log|1 - z conj(w)|.

    Symmetric in its arguments, negative on the open disk, zero on the
    circle.  ``z`` may be an array; ``w`` is a single pole inside the disk.
    A scalar evaluation exactly at the pole raises SingularEvaluation;
    coincident entries of an array input come back as -inf, the actual
    value of g there, so downstream code can treat them as flags instead
    of overflowing.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("the pole of the Green function must lie inside the disk")
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    za = np.atleast_1d(zarr)
    num = np.abs(za - w)
    with np.errstate(divide="ignore"):
        vals = np.log(num) - np.log(np.abs(1.0 - za * np.conj(w)))
    if scalar:
        if num[0] == 0.0:
            raise SingularEvaluation(f"green_function evaluated at its pole {w}")
        return float(vals[0])
    return vals.reshape(zarr.shape)


def poisson_kernel(z, zeta):
    """Poisson kernel P(z, zeta) = (1 - |z|^2) / |zeta - z|^2, |zeta| = 1.

    Arguments broadcast; ``zeta`` is projected onto the unit circle.  The
    kernel averages to 1 over the circle for every z in the disk.  A scalar
    coincidence z == zeta raises SingularEvaluation; in array input the
    coincident entries are +inf.
    """
    za = np.asarray(z, dtype=complex)
    ze = np.asarray(zeta, dtype=complex)
    mag = np.abs(ze)
    if np.any(mag == 0.0):
        raise ValueError("boundary points must be nonzero")
    ze = ze / mag
    num = 1.0 - np.abs(za) ** 2
    den = np.abs(ze - za) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(den == 0.0, np.inf, num / np.where(den == 0.0, 1.0, den))
    if vals.ndim == 0:
        v = float(vals)
        if not math.isfinite(v):
            raise SingularEvaluation("poisson_kernel evaluated at its boundary pole")
        return v
    return vals


# ---------------------------------------------------------------------------
# Riesz measures: atoms plus an absolutely continuous part with declared
# singular structure, in the Lambda = (1/2pi) Delta normalization.
# ---------------------------------------------------------------------------


@dataclass
class RieszMeasure:
    """A positive measure Lambda u on the closed unit disk.

    Every integral against it, over the disk or restricted to a traced
    sublevel set B_c, is ``pair``; ``total_mass`` is ``pair`` of 1 but for
    its one-dimensional shortcut on a declared ``radial_profile``.

    Attributes
    ----------
    atoms : tuple of (location, mass)
        Point masses.  A unit atom at w is the Riesz mass of g(., w).
    density : callable or None
        Vectorized density of the absolutely continuous part against
        plain Lebesgue area (the 1/2pi already folded in), called as
        ``density(offset, center)`` for its values at center + offset
        (see ``geometry.integrate_disk_area``).  Densities with steep
        boundary profiles read the displacement from the quadrature
        center off the offset, which center + offset would lose to
        cancellation.
    interior_singularities : tuple of complex
        Declared blowup points of the density, forwarded to quadrature.
    boundary_singularities : mapping of complex to float
        Each boundary point where the density blows up, with the exponent
        alpha of the balayage there, V(e^{it}) ~ |t - t0|^alpha (the lens
        declares {1: 2m - 2}); the membership verdict reads the exponents.
        Anything but such a mapping raises InvalidParameter.
    support_disk : (complex, float) or None
        When the density vanishes outside an open disk, its center and
        radius: the one statement of where the area part lives.  Every
        area integral of the measure clips its rays at the support edge
        instead of integrating across the density jump.
    radial_profile : callable or None
        For rotation-invariant densities only: the profile lambda(s) with
        the density lambda(|z|) at z.  Declaring it unlocks exact 1D
        reductions (total mass, Green potentials) that sidestep the cone
        point such densities put at the origin of the 2D integrals.
    mirror_symmetric : bool
        Declares the area part invariant under w -> conj(w), as the lens
        density of u_m is.  With real atoms (``is_mirror_symmetric``) the
        whole measure is, so u(conj z) = u(z) and V(-t) = V(t), and the
        boundary weight, the level trace and the support probes compute
        one half and mirror it.
    total_mass_hint : float or None
        Closed-form total mass when one is known (inf for a divergent
        mass); never substituted for a computed value silently, but
        available to fast paths that state so.
    balayage : callable or None
        For measures with a reduced form only: angles t -> the Poisson
        balayage V(e^{it}) = int P(w, e^{it}) d(measure)(w) of the whole
        measure, atoms included, vectorized and accurate at every angle
        off ``boundary_singularities``.  ``poisson_balayage`` reads it in
        place of the Fourier moments, and the boundary weight evaluates it
        once per angle (see ``hardy.boundary_weight``).
    moments : callable or None
        For measures with a reduced form only: n -> the array of the
        moments M_k = int w^k d(measure)(w), k < n, atoms included, each
        within _MOMENT_ERROR |M_k| of its value.  The first n do not
        depend on how many are asked for.  An infinite mass that gathers
        at the boundary point 1 declares the finite parts
        int (w^k - 1) d(measure) instead, so M_0 reads 0: paired with the
        coefficients of a harmonic series h with h(1) = 0 they still give
        int h d(measure).  The bulk route pairs its far series with them
        in place of ``pair`` (see ``hardy._route_bulk``); ``scaled``
        scales them.
    label : str
        Short identifier used in reports and cache keys.
    """

    atoms: tuple = ()
    density: object = None
    interior_singularities: tuple = ()
    boundary_singularities: dict = field(default_factory=dict)
    radial_profile: object = None
    total_mass_hint: object = None
    label: str = ""
    support_disk: object = None
    balayage: object = None
    moments: object = None
    mirror_symmetric: bool = False

    def __post_init__(self):
        self.boundary_singularities = _exponent_map(
            self.boundary_singularities, InvalidParameter, "boundary point")

    def has_area_part(self) -> bool:
        return self.density is not None

    def is_rotation_invariant(self) -> bool:
        """Whether rotations about 0 fix the measure: every atom sits at 0,
        and an area part declares its ``radial_profile``."""
        return (all(loc == 0 for loc, _ in self.atoms)
                and (self.radial_profile is not None or not self.has_area_part()))

    def is_mirror_symmetric(self) -> bool:
        """Whether w -> conj(w) fixes the measure: every atom is real, and an
        area part declares ``mirror_symmetric`` or its ``radial_profile``."""
        return (all(complex(loc).imag == 0 for loc, _ in self.atoms)
                and (self.mirror_symmetric or self.radial_profile is not None
                     or not self.has_area_part()))

    def total_mass(self, *, level=None, tol_abs: float = 1e-9,
                   tol_rel: float = 1e-7) -> QuadratureResult:
        """Total mass, atoms plus the area integral of the density.

        Without a ``level``, a declared ``radial_profile`` reduces the area
        part to one radial integral.  Anything else, the mass of B_c under
        a traced ``level`` included, is ``pair`` of 1.
        """
        if level is not None or self.radial_profile is None or not self.has_area_part():
            return self.pair(lambda w: np.ones(np.shape(w)), level=level,
                             tol_abs=tol_abs, tol_rel=tol_rel)
        lam = self.radial_profile

        def ring(s):
            return 2.0 * math.pi * np.asarray(lam(s), dtype=float) * s

        res = integrate_interval(
            ring, 0.0, 1.0, tol_abs=tol_abs, tol_rel=tol_rel,
            singular_left=True, singular_right=True,
        )
        atom_sum = float(sum(m for _, m in self.atoms))
        return QuadratureResult(res.value + atom_sum, res.error, res.status, res.depth)

    def pair(
        self,
        h,
        *,
        level=None,
        tol_abs: float = 1e-9,
        tol_rel: float = 1e-6,
        extra_interior=(),
    ) -> QuadratureResult:
        """Integral of the real part of a vectorized h against the measure.

        ``extra_interior`` declares additional singular points of h.  With
        a traced ``level`` (an ``exhaustion.LevelSet``) the measure is
        restricted to B_c: an atom counts when the level contains it, and
        the area part is integrated over the star region about
        ``level.center``, each ray cut at ``level.ray_fraction()`` and at
        the support disk, so no discontinuous indicator enters the
        quadrature.  There the declared interior singular points that B_c
        contains are kept and the boundary ones, outside B_c, are dropped.
        """
        total = 0.0
        for loc, m in self.atoms:
            if level is None or level.contains(loc):
                hv = np.real(np.asarray(h(np.asarray([complex(loc)], dtype=complex))))
                total += m * float(hv.reshape(-1)[0])
        if not self.has_area_part():
            return QuadratureResult(total, 0.0, CONVERGED, 0)

        dens = self.density

        def prod(d, c):
            return np.asarray(dens(d, c), dtype=float) * np.real(h(c + d))

        interior = tuple(self.interior_singularities) + tuple(extra_interior)
        boundary, cut = tuple(self.boundary_singularities), None
        if level is not None:
            interior = [level.center] + [s for s in interior if s != level.center
                                         and level.contains(s)]
            boundary, cut = (), level.ray_fraction()
        res = integrate_disk_area(
            prod,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            interior_singularities=interior,
            boundary_singularities=boundary,
            radial_cut=cut,
            support_disk=self.support_disk,
        )
        return QuadratureResult(res.value + total, res.error, res.status, res.depth)

    def pair_complex(self, h, **kwargs):
        """Complex pairing via two real passes; returns (value, error, status)."""
        re = self.pair(lambda zv: np.real(h(zv)), **kwargs)
        im = self.pair(lambda zv: np.imag(h(zv)), **kwargs)
        status = CONVERGED
        for r in (re, im):
            if r.status == DIVERGENT:
                status = DIVERGENT
            elif r.status != CONVERGED and status != DIVERGENT:
                status = r.status
        return complex(re.value, im.value), re.error + im.error, status

    def scaled(self, a: float) -> "RieszMeasure":
        """The measure scaled by a >= 0 (the Riesz mass of a*u)."""
        a = float(a)
        if a < 0.0:
            raise ValueError("scale factor must be nonnegative")
        atoms = tuple((loc, a * m) for loc, m in self.atoms)

        def times(f):
            if f is None:
                return None
            return lambda *args: a * np.asarray(f(*args))

        hint = None if self.total_mass_hint is None else a * float(self.total_mass_hint)
        label = f"scaled:{a:g}:{self.label}" if self.label else f"scaled:{a:g}"
        return replace(
            self,
            atoms=atoms,
            density=times(self.density),
            radial_profile=times(self.radial_profile),
            total_mass_hint=hint,
            balayage=times(self.balayage),
            moments=times(self.moments),
            label=label,
        )


def poisson_balayage(measure: RieszMeasure):
    """The total mass of a measure and its Poisson balayage onto the circle.

    Returns (mass, V, closed) with V(t) = int P(w, e^{it}) d(measure)(w),
    vectorized in t.  The mass is the measure's ``total_mass_hint`` when it
    states one, else its quadrature (inf when that diverges).  V comes from
    the first rule that applies:

    - a rotation-invariant measure sweeps to the constant mass;
    - atoms alone sweep to sum m P(a, .);
    - a declared ``balayage`` is V as it stands;
    - anything else goes through the complex moments M_k = int w^k dmeasure,
      since P(w, e^{it}) = 1 + 2 Re sum_k w^k e^{-ikt}.  The series is
      accurate when the mass stays away from the circle (the tail then
      decays like r_max^k) and needs a finite mass.

    ``closed`` is True for the first two rules: there V integrates to the
    mass identically and log V is bounded.  A measure without mass, or a
    moment series of an infinite mass, raises InvalidParameter.
    """
    hint = measure.total_mass_hint
    if hint is not None:
        mass = float(hint)
    else:
        res = measure.total_mass(tol_abs=1e-10, tol_rel=1e-8)
        mass = math.inf if res.status == DIVERGENT else float(res.value)
    if not mass > 0.0:
        raise InvalidParameter("the Riesz measure carries no mass")

    if measure.is_rotation_invariant():
        def V(t):
            out = np.full(np.shape(t), mass)
            return float(out) if out.ndim == 0 else out

        return mass, V, True

    if not measure.has_area_part():
        atoms = measure.atoms

        def V(t):
            t = np.asarray(t, dtype=float)
            zeta = np.exp(1j * np.atleast_1d(t))
            out = np.zeros(zeta.shape)
            for loc, m in atoms:
                out = out + m * poisson_kernel(loc, zeta)
            return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

        return mass, V, True

    if measure.balayage is not None:
        return mass, measure.balayage, False

    if not math.isfinite(mass):
        raise InvalidParameter(
            f"the Poisson balayage of {measure.label or 'the measure'} needs "
            "a finite mass outside the declared families"
        )
    moments = [complex(mass)]
    scale = max(mass, 1e-300)
    run = 0
    for k in range(1, 192):
        mk, _, status = measure.pair_complex(
            lambda w, _k=k: w ** _k, tol_abs=1e-10, tol_rel=1e-7,
        )
        moments.append(mk)
        if status != CONVERGED:
            break
        run = run + 1 if abs(mk) < 1e-11 * scale else 0
        if run >= 3:
            break
    mom = np.asarray(moments, dtype=complex)
    series = np.concatenate((mom[:1], 2.0 * mom[1:]))

    def V(t):
        out = _series(np.exp(-1j * np.asarray(t, dtype=float)), series).real
        return float(out) if out.ndim == 0 else out

    return mass, V, False


def green_potential(measure: RieszMeasure, z, *, tol_abs: float = 1e-9, tol_rel: float = 1e-6) -> float:
    """Green potential of the measure at a point: sum over atoms of
    mass * g(z, atom) plus the area integral of g(z, .) d(measure).

    The Green kernel is <= 0 on the disk, so any divergence is one-sided:
    the return value is -inf when z sits on an atom or when the
    superposition diverges.  Points on the unit circle, and those within
    1e-12 beyond it, give 0.
    """
    z = complex(z)
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise ValueError("evaluation point must lie in the closed unit disk")
    if r > 1.0 or abs(r - 1.0) <= 1e-15:
        return 0.0

    if any(z == complex(loc) for loc, _ in measure.atoms):
        return -math.inf
    if measure.radial_profile is None:
        res = measure.pair(lambda w: green_function(w, z), tol_abs=tol_abs,
                           tol_rel=tol_rel, extra_interior=(z,))
        return -math.inf if res.status == DIVERGENT else res.value

    # exact reduction for rotation-invariant densities: the circular mean
    # of g(z, .) over |w| = s is log max(|z|, s)
    lam = measure.radial_profile

    def ring(s):
        return (
            2.0
            * math.pi
            * np.asarray(lam(s), dtype=float)
            * s
            * np.log(np.maximum(s, r))
        )

    splits = (r,) if 0.0 < r < 1.0 else ()
    res = integrate_interval(
        ring, 0.0, 1.0, tol_abs=tol_abs, tol_rel=tol_rel,
        singular_left=True, singular_right=True, split_points=splits,
    )
    if res.status == DIVERGENT:
        return -math.inf
    return sum(m * green_function(z, loc) for loc, m in measure.atoms) + res.value


# ---------------------------------------------------------------------------
# The worked power density, by its moments and Euler's integral.
#
# The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on the lens L = {|w - 1/2| < 1/2}
# is Delta s/(2 pi), s(w) = -(1 - Re w)^m.  Its moments A_k = 2^k int (w -
# 1/2)^k dsigma_m have a closed form: a chord ends at x - 1/2 + iY = e^{i psi}/2,
# 1 - x = sin^2(psi/2), dx = -sin(psi) dpsi/2, its integral of (w - 1/2)^k is
# 2^-k sin((k+1)psi)/(k+1), and sin((k+1)psi) sin(psi) = [cos(k psi) -
# cos((k+2)psi)]/2 makes A_k a multiple of C_k - C_(k+2), C_n = int_0^pi
# sin^(2m-4)(psi/2) cos(n psi) dpsi continued analytically in the exponent;
# its Beta-function value gives C_(n+1)/C_n = (n + 2 - m)/(n + m - 1), so
# A_(k+1)/A_k = (k + 2 - m)/(k + 1 + m) from A_0 = M_0 = m(1-m) B(3/2, m - 1/2)/pi.
#
# The same ratios r_k = A_k/M_0 give the moments M_k = int w^k dsigma_m
# (``LensPowerDensity.moments``).  As w = (1 + (2w - 1))/2, M_k = 2^-k sum_j
# C(k, j) A_j.  For m <= 1/2 the mass is infinite, but B_j = A_j - M_0 =
# M_0 (r_j - 1) and r_(i+1) - r_i = r_i (1 - 2m)/(i + 1 + m) give the finite
# B_j = int ((2w - 1)^j - 1) dsigma_m = K sum_(i<j) l_i, l_i = r_i/(i + 1 + m),
# with K = M_0 (1 - 2m) = -2m(1-m)(1+m) B(3/2, m + 1/2)/pi finite for every m,
# and the finite parts nu_k = int (w^k - 1) dsigma_m = 2^-k sum_j C(k, j) B_j.
# Exchanging the sums, sum_k B_k q^(k-1) = K L(q)/(1 - q), L(q) = sum_i l_i q^i
# = 2F1(2 - m, 1; 2 + m; q)/(1 + m).
#
# Off the closed lens, with q = 1/(2z - 1) and q' = z/(2 - z) (the reflection
# 1/conj z, the moments being real), int log(zeta - w) dsigma_m = M_0 log(zeta -
# 1/2) - sum_k (A_k/k) (2 zeta - 1)^-k gives u_m in which the M_0 terms cancel:
#
#   u_m = -Re sum_k (B_k/k) (q^k - q'^k),   G = 2 d_z u_m = K/(z - 1) [q L(q) - L(q')/(2 - z)].
#
# Inside it a series in zeta = 2z - 1 serves the direct half.  On the circle
# log|z - w| = -log 2 - Re sum_k zeta^k e^{-ik psi}/k and d_n log|z - w| = 2 + 2
# Re sum_k zeta^k e^{-ik psi}, so Green's identity gives int log|z - w| dsigma_m
# = s(z) + Re sum_k kappa_k zeta^k, kappa_0 = (2 J_0(m) - m log 2 I_0)/(4 pi),
# kappa_k = (2 J_k(m) - (m/k) I_k)/(4 pi), J_k(a) = int sin^(2a)(psi/2) cos(k psi)
# dpsi = 2 pi (-1)^k Gamma(2a + 1)/(4^a Gamma(a + k + 1) Gamma(a - k + 1)), I_k =
# J_k(m - 1) - 2 J_k(m) and M_0 = m I_0/(4 pi).  The reflected half is M_0 log|1
# - z/2| - Re sum_k (A_k/k) q'^k, and with lambda_k = kappa_k + M_0/k (lambda_0 =
# J_0(m)/(2 pi)) the M_0 log|1 - z| of both halves drops out exactly:
#
#   u_m = s + Re sum_k lambda_k zeta^k + Re sum_k (B_k/k) q'^k,
#   G   = m(1 - x)^(m-1) + 2 sum_k k lambda_k zeta^(k-1) + K L(q')/((2 - z)(1 - z)).
#
# lambda_k takes the gaps J_k - J_0, finite as m -> 1/2 (``_circle_cosines``).
#
# Euler's integral continues L: L(q) = q^(m-2) I((1 - q)/q), I(y) = int_0^1 s^m
# (s + y)^(m-2) ds, so on Im z >= 0 (the lower half is mirrored) off the lens
#
#   G = K/(z - 1) [zeta^(1-m) I(2z - 2) - (2 - z)^(1-m) int_0^1 s^m (2 - 2z + zs)^(m-2) ds],
#
# the second integral z^(m-2) I((2 - 2z)/z), regular at z = 0 on the circle;
# inside it G is that plus m(1 - x)^(m-1) - J, J = m (1 - z)^(2m-2) zeta^(1-m)
# e^{i pi (m-1)} the continuation of m(1 - x)^(m-1) off the circle, where 1 - x
# = -(1 - z)^2/zeta.  With eps = 2m - 1, I(y) = P(y) - (y^eps - 1)/eps + c y^eps
# for |y| < 1, P(y) = sum_(k>=1) C(m-2, k) y^k/(eps - k): the integral over s > 0
# is -h y^eps/eps, h = Gamma(1 + m) Gamma(2 - 2m)/Gamma(2 - m), and over s > 1 a
# binomial series, so c = (1 - h)/eps.  For |eps| <= 1/2, c = -a exprel(eps a)
# by the Taylor series of log h = eps a(eps): the Gamma poles at m = 1/2 cancel.
#
# V has a series off the tip for every m.  With zeta = e^{it} and q = 1/(2 zeta
# - 1), P(w, zeta) = Re(2 zeta/(zeta - w)) - 1 and 1/(zeta - w) = 2q sum_k
# 2^k (w - 1/2)^k q^k give V = Re[(2 zeta/(zeta - 1/2)) sum_k A_k q^k] - M_0;
# the M_0 terms cancel exactly on the circle, where Re(2 zeta/(zeta - 1)) = 1,
# so V = Re[(2 zeta/(zeta - 1/2)) sum_k B_k q^k], finite for m <= 1/2 too.  By
# the tip, y = 2(zeta - 1) and 2 zeta/(zeta - 1) = 1 - i cot(t/2) give V = K
# [Re W + cot(t/2) Im W], W = (1 + y)^(1-m) I(y).
#
# By the tip, t = 1 - z, y1 = -2t and y2 = 2t/(1 - t): u_m off the lens is
# K Re[Q(y1) - Q(y2)], Q'(Y) = (1 + Y)^(1-m) I(Y)/Y, and termwise Q = F(Y) + g
# (c - h T(Y)) - (g - log Y)/eps, g = (Y^eps - 1)/eps, T = sum_(n>=1) b_n Y^n/(n +
# eps), b_n = C(1 - m, n), F = sum_(n>=1) (a_n/n + b_n (1 + cn)/(n (n + eps))) Y^n
# and a_n those of (1 + Y)^(1-m) P(Y).  Where y1^eps = e^{i pi eps} (2t)^eps takes
# (2t)^eps instead, Q becomes Q~ and K Re[Q(y1) - Q~(y1)] = Re Sigma, Sigma = i m
# e^{i pi eps/2} t^eps (1/eps + T(y1)), d_z Sigma = J: so u_m = s + u~ inside and
# u~ + Re Sigma off it, u~ = K Re[Q~(y1) - Q(y2)], and G = G~ + m(1 - x)^(m-1)
# inside and G~ + J off it, G~ that of u~.  With lambda = -log(1 - t), w =
# (2t)^eps and g~ = (w - 1)/eps the two halves of u~ and G~ differ by O(t) and
# no t^(2m-1) or t^(2m-2) is formed twice:
#
#   u~ = K Re[F(y1) - F(y2) - h g~ (T(y1) - T(y2)) - w lambda E1 (c - h T(y2))
#             + lambda (g~ E1 + lambda E2)],
#   G~ = -(K/t) [a1 P(y1) - a2 P(y2) + a2 lambda E1 + (a1 - a2 e^{eps lambda}) (c - h g~)],
#
# E1 = (e^x - 1)/x and E2 = (e^x - 1 - x)/x^2 at x = eps lambda, a1 = (1 - 2t)^(1-m)
# and a2 = (1 - t)^(m-2) (1 + t)^(1-m).  Re Sigma's leading term is -m |t|^eps
# sin(eps phi)/eps, phi = arg t + pi/2, small in the cusp between the lens circle
# and the unit circle; log(1 - t), log(1 - 2t) and log(1 + t) keep their digits
# by ``_log1p``.
#
# Every point has one evaluator (``LensPowerDensity._evaluate``), the same for
# every m: the tip cap |t| < _TIP_CAP by the closed forms in t; else the series
# inside the lens where |zeta| < _MULTIPOLE_REACH and off it where
# _MULTIPOLE_REACH |zeta| > 1, each at a rate below _MULTIPOLE_REACH in
# _MULTIPOLE_TERMS terms; and between them the seam, G by Euler's integral (I
# by its series where |y| < 1/2, else Gauss-Jacobi in s with the weight s^m)
# and u by the series at the switch circle on the ray from 1/2 plus Re int G dz
# along the ray.  V takes the closed form where |y| = 4 |sin(t/2)| < 1/2, |t| <
# 0.2507, and the series of the finite parts beyond.
# ---------------------------------------------------------------------------

CHUNK = 1024  # points per block of a batch evaluation
_BLOCK = 64  # terms per row of the two-level Horner in _series
# |green_potential - u_m| for every m, with margin: the largest gaps are 2.9e-16
# to the tests' 40-digit references and 7.2e-16 between the evaluators of two
# regions at their switch
_VALUE_ERROR = 1.4e-14
_MULTIPOLE_TERMS = 4000  # terms of each series; 0.99^4000 = 3.5e-18 at the reach
_MULTIPOLE_REACH = 0.99  # points whose series converges at a rate below it
_TIP_CAP = 0.2  # |1 - z| below it: the closed forms in t, |y1|, |y2| < 1/2
_EULER_RULE = 24  # Gauss-Jacobi points in s of I(y) where |y| >= 1/2
_RAY = np.polynomial.legendre.leggauss(8)  # u on the seam: int G dz along the ray
_E2 = 1.0 / factorial(np.arange(2.0, 20.0))  # E2(x) = sum x^k/(k + 2)!, |x| < 1/4
# the relative error of declared moments: four times the largest gap, 1.0e-15,
# of the lens moments to the tests' 30-digit references at k <= 4096; it also
# covers the rounding of the bulk route's sum of a_k M_k
_MOMENT_ERROR = 4e-15


def _lens_mass(m):
    """M_0 = m(1-m) B(3/2, m - 1/2)/pi, the lens mass; inf for m <= 1/2."""
    return m * (1.0 - m) * beta(1.5, m - 0.5) / math.pi if m > 0.5 else math.inf


def _lens_ratios(m, n):
    """r_0 ... r_(n-1) = A_k/M_0, in extended precision."""
    k = np.arange(n - 1, dtype=np.longdouble)
    return np.append(np.longdouble(1.0), np.cumprod(1.0 + (1.0 - 2.0 * m) / (k + 1.0 + m)))


def _finite_scale(m):
    """K = M_0 (1 - 2m) = -2m(1-m)(1+m) B(3/2, m + 1/2)/pi, finite for every m."""
    return -2.0 * m * (1.0 - m) * (1.0 + m) * beta(1.5, m + 0.5) / math.pi


def _euler_terms(m, n):
    """l_0 ... l_(n-1) = r_i/(i + 1 + m), the series of L, in extended precision."""
    return _lens_ratios(m, n) / (np.arange(n, dtype=np.longdouble) + 1.0 + m)


def _finite_parts(m, n):
    """B_0 ... B_(n-1) = A_k - M_0, finite for every m, in extended precision."""
    return np.append(np.longdouble(0.0), _finite_scale(m) * np.cumsum(_euler_terms(m, n - 1)))


def _circle_cosines(a, n):
    """J_k(a) = int sin^(2a)(psi/2) cos(k psi) dpsi over one turn, and the
    gaps J_k(a) - J_0(a), for k < n, in extended precision.

    J_(k+1)/J_k = (k - a)/(k + 1 + a) from J_0(a) = 2 B(a + 1/2, 1/2), so
    J_(k+1) - J_k = -(2a + 1) J_k/(k + 1 + a): the gaps carry (2a + 1) J_0(a)
    = 4 (a + 1) B(a + 3/2, 1/2), which stays finite as a -> -1/2.
    """
    k = np.arange(n - 1, dtype=np.longdouble)
    rho = np.append(np.longdouble(1.0), np.cumprod((k - a) / (k + 1.0 + a)))
    scale = 4.0 * (a + 1.0) * beta(a + 1.5, 0.5)
    gaps = np.append(np.longdouble(0.0), -scale * np.cumsum(rho[:-1] / (k + 1.0 + a)))
    return 2.0 * beta(a + 0.5, 0.5) * rho, gaps


def _log1p(x):
    """log(1 + x) for complex x, within rounding of |x| as x -> 0 (numpy's
    complex log1p forms |1 + x| and loses the real part's digits)."""
    return (0.5 * np.log1p(x.real * (2.0 + x.real) + x.imag * x.imag)
            + 1j * np.arctan2(x.imag, 1.0 + x.real))


def _exprel(x):
    """(e^x - 1)/x for complex x, 1 at 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


def _in_chunks(block, points):
    """Apply a block evaluator to CHUNK points at a time; a block may return
    several values a point, stacked on a leading axis."""
    flat = points.ravel()
    out = [block(flat[i0:i0 + CHUNK]) for i0 in range(0, flat.size, CHUNK)]
    out = np.concatenate(out or [np.empty(0)], axis=-1)
    return out.reshape(out.shape[:-1] + points.shape)


class LensPowerDensity:
    """The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on |z - 1/2| < 1/2.

    This is the Riesz mass of the worked example u_m.  Its potential and
    G = 2 d_z u_m = u_x - i u_y have one evaluator by region, the same for
    every m in (0, 1), and no quadrature of the lens (see the section
    comment): the closed forms in t = 1 - z in the tip cap |t| < 0.2
    (``_tip_field``), else the series inside the lens where |2z - 1| < 0.99
    (``_inner_field``) and off it where |2z - 1| > 1/0.99 (``_far_field``),
    and Euler's integral on the seam between (``_seam_field``); the lower
    half mirrors the upper one bit for bit.  Against 40-digit references
    at m = 1/4, 1/2, 0.5001, 3/4 and 0.9, u is within 2.9e-16 and G within
    1.0e-15 max(1, |G|), inside the lens and off it, 0.004 either side of
    its circle, in the tip cap at |t| = 1e-12 to 0.19 and in the cusp
    between the lens circle and the unit circle at |t| = 1e-3 and 1e-5.
    At each switch, 1e-9 to either side, the two evaluators agree within
    7.2e-16 in u and 5.0e-14 relative in G for m = 1/4 to 0.9; on the seam
    u is smooth in z to 1e-17.  On the circle u and G lie within 1e-12 of
    their values 1e-12 to either side.  ``balayage`` is V(e^{it}): for
    |t| >= 0.2507 the series of the finite parts (``_far_balayage``),
    within 1.2e-15 relative of 40-digit references on 400 seeded angles in
    0.3 to pi for m = 1/4, 0.4, 1/2, 3/4, and within 1.7e-15 on 40 in
    0.2507 to 0.3; by the tip a closed form, within 2.6e-15 of 40-digit
    references at 1e-14 <= t <= 0.1008 for 0.05 <= m <= 0.97 and within
    3.0e-15 on 32 angles in 0.1009 to 0.2507 (9.3e-16 for m <= 1/2), inf
    at 0.  ``moments`` gives M_k = int w^k dsigma_m, or for m <= 1/2 the
    finite parts nu_k = int (w^k - 1) dsigma_m, built on first use and
    within _MOMENT_ERROR of 30-digit references to k = 4096.  The series
    coefficients are built on first use too, once per density.
    """

    def __init__(self, m):
        self.m = float(m)
        self.pref = self.m * (1.0 - self.m) / (2.0 * math.pi)
        self.value_error = _VALUE_ERROR
        self._scale = _finite_scale(self.m)  # K
        self._moment_table = np.empty(0)  # M_k, built on first use

    def moments(self, n):
        """M_0 ... M_(n-1), or nu_0 ... nu_(n-1) for m <= 1/2.

        The binomial means 2^-k sum_j C(k, j) A_j (or B_j) are k rounds of
        pairwise averages, whose terms all share one sign: each round rounds
        each mean once and cancels nothing.  The k-th reads the terms j <= k
        alone, so the first n values do not depend on n, and the longest
        table built serves every shorter one.
        """
        if self._moment_table.size < n:
            m = self.m
            terms = (_lens_mass(m) * _lens_ratios(m, n) if m > 0.5
                     else _finite_parts(m, n)).astype(float)
            self._moment_table = np.empty(n)
            for k in range(n):
                self._moment_table[k] = terms[0]
                terms = 0.5 * (terms[:-1] + terms[1:])
        return self._moment_table[:n].copy()

    @functools.cached_property
    def _inner_terms(self):
        """lambda_k = kappa_k + M_0/k (lambda_0 = kappa_0 + M_0 log 2) and
        k lambda_k (k >= 1): the series of u_m and of G inside the lens."""
        m, n = self.m, _MULTIPOLE_TERMS + 1
        (J, gaps), (_, gaps_low) = _circle_cosines(m, n), _circle_cosines(m - 1.0, n)
        k = np.arange(1, n, dtype=np.longdouble)
        lam = np.append(2.0 * J[0], 2.0 * J[1:] - (m / k) * (gaps_low[1:] - 2.0 * gaps[1:]))
        lam /= 4.0 * math.pi
        return lam.astype(float), (k * lam[1:]).astype(float)

    @functools.cached_property
    def _finite_terms(self):
        """B_k, B_k/k and l_k: the series of V, of u_m and of G."""
        n = _MULTIPOLE_TERMS + 1
        B = _finite_parts(self.m, n)
        return (B.astype(float), np.append(0.0, B[1:] / np.arange(1, n)).astype(float),
                _euler_terms(self.m, n).astype(float))

    @functools.cached_property
    def _tip_terms(self):
        """The series by the tip, k < _BLOCK (|y| < 1/2: tail below 1e-19):
        C(m - 2, k)/(eps - k) (0 at k = 0), those of T and of F, and c."""
        m, eps, k = self.m, 2.0 * self.m - 1.0, np.arange(1.0, _BLOCK)
        terms = np.append(0.0, np.cumprod((m - 1.0 - k) / k) / (eps - k))
        if abs(eps) > 0.5:
            c = (1.0 - gamma(1.0 + m) * gamma(2.0 - 2.0 * m) / gamma(2.0 - m)) / eps
        else:
            n = np.arange(2.0, _BLOCK)  # log h = eps a(eps): a is psi(3/2) - psi(1), then these
            taylor = (hurwitz_zeta(n, 1.0) - n % 2 * 2.0 ** (1.0 - n) * hurwitz_zeta(n, 1.5)) / n
            a = np.polynomial.polynomial.polyval(eps, np.append(2.0 - 2.0 * math.log(2.0), taylor))
            c = -a * exprel(eps * a)
        b = np.cumprod((2.0 - m - k) / k)  # C(1 - m, k)
        a = np.convolve(np.append(1.0, b), terms)[1:_BLOCK]
        T = np.append(0.0, b / (k + eps))
        F = np.append(0.0, a / k + b * (1.0 + c * k) / (k * (k + eps)))
        return terms, T, F, c

    @functools.cached_property
    def _euler_rule(self):
        """Gauss-Jacobi points s in (0, 1) and weights for int_0^1 s^m f(s) ds."""
        x, w = roots_jacobi(_EULER_RULE, 0.0, self.m)
        return 0.5 * (1.0 + x), w * 2.0 ** (-1.0 - self.m)

    def green_potential(self, z):
        return self._evaluate(z, False)[0]

    def green_gradient(self, z):
        """u_m and G = 2 d_z u_m = u_x - i u_y at z, from one pass."""
        u, gx, gy = self._evaluate(z, True)
        return u, gx + 1j * gy

    def _evaluate(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, stacked on a leading axis:
        each point by its region (see the section comment), on Im z >= 0 and
        mirrored, u_m(conj z) = u_m(z) and G(conj z) = conj G(z)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros((3 if gradient else 1,) + z.shape)
        if self.pref == 0.0:
            return out
        w = z.real + 1j * np.abs(z.imag)
        rate, near = np.abs(2.0 * w - 1.0), np.abs(w) < 1.0 - 1e-15
        tip = near & (np.abs(1.0 - w) < _TIP_CAP)
        lens = near & ~tip & (rate < _MULTIPOLE_REACH)
        far = near & ~tip & (_MULTIPOLE_REACH * rate > 1.0)
        seam = near & ~(tip | lens | far)
        for part, field in ((tip, self._tip_field), (lens, self._inner_field),
                            (far, self._far_field), (seam, self._seam_field)):
            out[:, part] = _in_chunks(lambda zz: field(zz, gradient), w[part])
        if gradient:  # u_y vanishes on the axis
            out[2] *= np.sign(z.imag)
        return out

    def _far_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, off the lens by the
        series of the finite parts in q = 1/(2z - 1) and q' = z/(2 - z)."""
        n, (_, B_k, ell) = z.size, self._finite_terms
        q = np.concatenate([1.0 / (2.0 * z - 1.0), z / (2.0 - z)])
        T = _series(q, B_k)
        u = (T[n:] - T[:n]).real
        if not gradient:
            return u[None]
        L = _series(q, ell)
        G = self._scale / (z - 1.0) * (q[:n] * L[:n] - L[n:] / (2.0 - z))
        return np.stack([u, G.real, G.imag])

    def _inner_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, inside the lens by the
        series in zeta = 2z - 1 of the direct half and in q' = z/(2 - z) of
        the reflected one."""
        m, (lam, slope), (_, B_k, ell) = self.m, self._inner_terms, self._finite_terms
        zeta, q, omx = 2.0 * z - 1.0, z / (2.0 - z), 1.0 - z.real
        u = _series(zeta, lam).real - omx ** m + _series(q, B_k).real
        if not gradient:
            return u[None]
        G = (m * omx ** (m - 1.0) + 2.0 * _series(zeta, slope)
             + self._scale * _series(q, ell) / ((2.0 - z) * (1.0 - z)))
        return np.stack([u, G.real, G.imag])

    def _seam_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, about the lens circle: G
        by Euler's integral, u by the series at the switch circle on the ray
        from 1/2 plus Re int G dz along the ray, on Gauss-Legendre points."""
        zeta = 2.0 * z - 1.0
        inside = np.abs(zeta) < 1.0
        start = 0.5 + 0.5 * np.where(inside, _MULTIPOLE_REACH, 1.0 / _MULTIPOLE_REACH) * (
            zeta / np.abs(zeta))
        ext = start.astype(np.clongdouble)  # extended sums keep u smooth in z to 1e-17
        u = np.empty(z.size)
        u[inside] = self._inner_field(ext[inside], False)[0]
        u[~inside] = self._far_field(ext[~inside], False)[0]
        x, w = _RAY
        path = start + 0.5 * (1.0 + x[:, None]) * (z - start)
        G = self._euler_gradient(np.append(path, z))
        u += (0.5 * (z - start) * (w @ G[:path.size].reshape(path.shape))).real
        if not gradient:
            return u[None]
        return np.stack([u, G[path.size:].real, G[path.size:].imag])

    def _euler_gradient(self, z):
        """G at z, Im z >= 0, from Euler's integral (see the section comment)."""
        m, zeta = self.m, 2.0 * z - 1.0
        G = self._scale / (z - 1.0) * (
            zeta ** (1.0 - m) * self._euler(np.ones(z.shape), 2.0 * z - 2.0)
            - (2.0 - z) ** (1.0 - m) * self._euler(z, 2.0 - 2.0 * z))
        inside = np.abs(zeta) < 1.0
        p = z[inside]
        G[inside] += m * ((1.0 - p.real) ** (m - 1.0) - (1.0 - p) ** (2.0 * m - 2.0)
                          * (2.0 * p - 1.0) ** (1.0 - m) * np.exp(1j * math.pi * (m - 1.0)))
        return G

    def _euler(self, a, b):
        """int_0^1 s^m (a s + b)^(m-2) ds: a^(m-2) I(b/a) by the series where
        |b| < |a|/2, else by the Gauss-Jacobi rule in s."""
        out = np.empty(b.shape, dtype=complex)
        near = np.abs(b) < 0.5 * np.abs(a)
        out[near] = a[near] ** (self.m - 2.0) * self._euler_series(b[near] / a[near])
        s, w = self._euler_rule
        out[~near] = w @ (a[~near] * s[:, None] + b[~near]) ** (self.m - 2.0)
        return out

    def _euler_series(self, y):
        """I(y) = int_0^1 s^m (s + y)^(m-2) ds by its series, |y| < 1/2."""
        eps, (terms, _, _, c) = 2.0 * self.m - 1.0, self._tip_terms
        x = eps * np.log(y)
        gap = np.log(y) if eps == 0.0 else np.expm1(x) / eps  # (y^eps - 1)/eps
        return _series(y, terms) - gap + c * np.exp(x)

    def _tip_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, in the tip cap
        |1 - z| < _TIP_CAP, Im z >= 0, in closed form (see the section comment)."""
        m, K, eps, n = self.m, self._scale, 2.0 * self.m - 1.0, z.size
        terms, T_k, F_k, c = self._tip_terms
        h, t = 1.0 - c * eps, 1.0 - z
        y = np.concatenate([-2.0 * t, 2.0 * t / z])
        lam, log2t = -_log1p(-t), np.log(2.0 * t)
        E1, g = _exprel(eps * lam), log2t * _exprel(eps * log2t)
        E2 = np.polynomial.polynomial.polyval(eps * lam, _E2)
        F, T = _series(y, F_k), _series(y, T_k)
        u = K * (F[:n] - F[n:] - h * g * (T[:n] - T[n:])
                 - np.exp(eps * log2t) * lam * E1 * (c - h * T[n:])
                 + lam * (g * E1 + lam * E2)).real
        inside = t.real > t.real ** 2 + t.imag ** 2  # |2z - 1| < 1
        phi = np.arctan2(t.real, -t.imag)
        u += np.where(inside, -t.real ** m,
                      -m * np.abs(t) ** eps * phi * np.sinc(eps * phi / math.pi)
                      + (1j * m * np.exp(0.5j * math.pi * eps) * t ** eps * T[:n]).real)
        if not gradient:
            return u[None]
        P = _series(y, terms)
        lead, top = (1.0 - m) * _log1p(-2.0 * t), (1.0 - m) * _log1p(t) + (1.0 + m) * lam
        a1, a2 = np.exp(lead), np.exp(top - eps * lam)
        gap = np.exp(top) * np.expm1(lead - top)  # a1 - a2 e^{eps lambda}
        G = -(K / t) * (a1 * P[:n] - a2 * P[n:] + a2 * lam * E1 + gap * (c - h * g))
        G += np.where(inside, m * t.real ** (m - 1.0),
                      m * t ** (2.0 * m - 2.0) * a1 * np.exp(1j * math.pi * (m - 1.0)))
        return np.stack([u, G.real, G.imag])

    def balayage(self, t):
        t = np.asarray(t, dtype=float)
        if self.pref == 0.0:
            return np.zeros(t.shape)
        s = np.where(np.isfinite(t), t, 0.0)
        far = 4.0 * np.abs(np.sin(0.5 * s)) >= 0.5  # |y| >= 1/2
        out = np.empty(t.shape)
        out[far] = self._far_balayage(np.exp(1j * s[far]))
        out[~far] = self._tip_balayage(t[~far])
        return out

    def _far_balayage(self, zeta):
        """V at zeta = e^{it} by the series of the finite parts B_k, q = 1/(2 zeta - 1)."""
        q = 1.0 / (2.0 * zeta - 1.0)
        return (4.0 * zeta * q * _series(q, self._finite_terms[0])).real

    def _tip_balayage(self, t):
        """V by the tip in closed form (see the section comment), inf at t = 0."""
        out = np.where(np.isfinite(t), np.inf, np.nan)
        s = np.abs(np.where(np.isfinite(t), t, 0.0))
        ok = np.sin(0.5 * s) > 0.0
        y = 4j * np.sin(0.5 * s[ok]) * np.exp(0.5j * s[ok])  # 2(zeta - 1)
        W = (1.0 + y) ** (1.0 - self.m) * self._euler_series(y)
        with np.errstate(over="ignore"):  # V ~ m |t|^(2m - 2) may leave the doubles
            out[ok] = self._scale * (W.real + W.imag / np.tan(0.5 * s[ok]))
        return out


# ---------------------------------------------------------------------------
# Boundary data: the analytic series of uniform samples and its Poisson
# extension.
# ---------------------------------------------------------------------------


def _analytic_coefficients(values) -> np.ndarray:
    """One-sided series [c_0, 2c_1, ..., 2c_{n/2-1}, c_{n/2}] of uniform samples.

    c_k = (1/n) sum_j values_j e^{-2 pi i jk/n}, with the mean and the
    Nyquist term taken real.  The series a is analytic in the disk and
    Re sum_k a_k e^{ik theta} is the trigonometric interpolant of the
    samples.  Trailing coefficients that are exactly zero are dropped (at
    least one is kept), so ``_series`` sums no terms past the last nonzero
    one: a constant is one term.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    c = np.fft.rfft(values) / n
    c[1 : (n + 1) // 2] *= 2.0
    c[0] = c[0].real
    if n % 2 == 0:
        c[-1] = c[-1].real
    return trimseq(c)


def _series(z, coeffs) -> np.ndarray:
    """sum_k a_k z^k for |z| <= 1, by two-level Horner in blocks of _BLOCK.

    The coefficients fill a (rows x _BLOCK) matrix, so one matmul with the
    power table z^0 ... z^(_BLOCK-1) gives each row's block value and a
    Horner pass in z^_BLOCK over the rows sums them: numpy pays rows calls
    per chunk of points instead of one per term.  The table doubles up
    from z (z^(k+j) = z^k z^j), so each power in it takes at most
    log2(_BLOCK) rounded products.  Returns the complex sum, in extended
    precision where z is np.clongdouble; the harmonic callers take its real
    part.
    """
    z = np.asarray(z)
    kind = np.result_type(z, 1j)
    a = np.asarray(coeffs, dtype=kind)
    width = min(_BLOCK, a.size)
    rows = -(-a.size // width)
    mat = np.zeros(rows * width, dtype=kind)
    mat[:a.size] = a
    mat = mat.reshape(rows, width)

    def block(w):
        powers = np.empty((width + 1, w.size), dtype=kind)
        powers[0] = 1.0
        powers[1] = w
        k = 1
        while k < width:
            top = min(2 * k, width)
            powers[k + 1:top + 1] = powers[k] * powers[1:top - k + 1]
            k = top
        sums = mat @ powers[:width]
        out = sums[-1]
        for row in sums[-2::-1]:
            out = out * powers[width] + row
        return out

    return _in_chunks(block, z.astype(kind, copy=False))


def poisson_extension(values):
    """P[phi] for samples of phi on the uniform grid theta_j = 2 pi j / n.

    Returns a vectorized evaluator h(z) = Re sum_k a_k z^k, the real part of
    the analytic series of ``_analytic_coefficients`` summed by ``_series``:
    the harmonic extension of the trigonometric interpolant of the samples,
    exact for band-limited data and equal to the samples on the grid.  On
    the circle, h(e^{i theta}) is that interpolant at any angle.  The
    samples stay on ``h.values``.
    """
    values = np.asarray(values, dtype=float)
    coeffs = _analytic_coefficients(values)

    def h(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1.0 + 1e-12):
            raise ValueError("harmonic extension evaluated outside the closed disk")
        out = _series(z, coeffs).real
        return float(out) if out.ndim == 0 else out

    h.values = values
    return h


def _spectral_derivative(x: np.ndarray) -> np.ndarray:
    """d/dt of a smooth periodic sample vector, spectrally."""
    n = x.size
    X = np.fft.rfft(x)
    k = np.arange(X.size, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0  # drop the Nyquist derivative (sign-ambiguous)
    return np.fft.irfft(X * (1j * k), n)
