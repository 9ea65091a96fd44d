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
from scipy.special import beta, exprel, gamma, roots_jacobi, zeta as hurwitz_zeta

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
# The worked power density, as integrals over the lens circle.
#
# The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on the lens L = {|w - 1/2| < 1/2}
# is Delta s/(2 pi), s(w) = -(1 - Re w)^m, so Green's second identity on L
# turns its potential and gradient into integrals over the lens circle
# w = (1 + n)/2, n = e^{i psi}, where 1 - Re w = 1 - |w|^2 = S =
# sin^2(psi/2), ds = dpsi/2 and d_n g = (1 - |z|^2) Re(n/((w - z)(1 - conj(z) w))):
#
#   u_m(z) = s(z)[z in L] + 1/(4 pi) int S^m (m cos psi g(z, w)/S + d_n g) dpsi,
#   G(z)   = m(1 - Re z)^(m-1)[z in L]
#            + m/(4 pi) int S^(m-1) (conj(w n)/(1 - z conj w) - n/(w - z)) dpsi.
#
# G = 2 d_z u_m is the Cauchy-Pompeiu formula, a simple pole where the
# z-derivative of u's kernel has a double one.  A point on the circle takes
# half of each jump term and the principal value.  Each integrand is
# |psi|^(2m-1) times a function analytic by the tip psi = 0, for every m in
# (0, 1), so one rule (``_lens_rule``) serves both: a Gauss-Jacobi panel at
# the tip and Gauss-Legendre panels graded toward the kernels' poles, at
# h = -+i|log(1 + 2d)| about the angle theta* of the point's nearest circle
# point (h = psi - theta*, d the point's signed distance from the circle).
# Nodes are offsets from theta* or from the tip, so p - w = e^{i theta*}(d -
# i sin(h/2) e^{ih/2}) and S keep their digits.
#
# Off the closed lens u_m is harmonic, and where a series in q = 1/2/(z - 1/2)
# converges fast, it replaces the rule at about a ninth of the cost
# (``_far_field``).  Its moments A_k = 2^k int (w - 1/2)^k dsigma_m have a
# closed form: a chord ends at x - 1/2 + iY = e^{i psi}/2, 1 - x =
# sin^2(psi/2), dx = -sin(psi) dpsi/2, its integral of (w - 1/2)^k is
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
# B_j = int ((2w - 1)^j - 1) dsigma_m = K sum_(i<j) r_i/(i + 1 + m), with
# K = M_0 (1 - 2m) = -2m(1-m)(1+m) B(3/2, m + 1/2)/pi finite for every m, and
# the finite parts nu_k = int (w^k - 1) dsigma_m = 2^-k sum_j C(k, j) B_j.
#
# Inside the lens a series in zeta = 2z - 1 serves u_m for m > 1/2.  On the
# circle log|z - w| = -log 2 - Re sum_k zeta^k e^{-ik psi}/k and d_n log|z - w|
# = 2 + 2 Re sum_k zeta^k e^{-ik psi}, so Green's identity gives the direct
# half int log|z - w| dsigma_m = s(z) + Re sum_k kappa_k zeta^k, with
# kappa_0 = (2 J_0(m) - m log 2 I_0)/(4 pi), kappa_k = (2 J_k(m) - (m/k) I_k)/(4 pi),
# J_k(a) = int sin^(2a)(psi/2) cos(k psi) dpsi = 2 pi (-1)^k Gamma(2a + 1)/(4^a
# Gamma(a + k + 1) Gamma(a - k + 1)) and I_k = J_k(m - 1) - 2 J_k(m); the mass
# is M_0 = m I_0/(4 pi).  The reflected half int log|1 - conj(z) w| dsigma_m is
# M_0 log|1 - z/2| + Re T(q), q = z/(2 - z), T = -sum_k (A_k/k) q^k.  Both
# halves hold M_0 log|1 - z|, which cancels in u_m but, summed, costs M_0
# times the rounding, and M_0 -> inf as m -> 1/2 (5e-13 at m = 0.501).  With
# T = M_0 log(1 - q) - sum_k (B_k/k) q^k and lambda_k = kappa_k + M_0/k
# (lambda_0 = J_0(m)/(2 pi)) it drops out exactly:
#
#   u_m = s + Re sum_k lambda_k zeta^k + Re sum_k (B_k/k) q^k,
#   G   = m(1 - x)^(m-1) + 2 sum_k k kappa_k zeta^(k-1) + (M_0 + 2 R/(2 - z))/(2 - z),
#
# R = sum_k A_(k+1) q^k.  G keeps kappa_k and A_k, whose terms decay where
# those of lambda_k and B_k tend to M_0.  lambda_k takes the gaps J_k - J_0,
# which stay finite as m -> 1/2 (``_circle_cosines``).
#
# V has a series off the tip for every m.  With zeta = e^{it} and q = 1/(2 zeta
# - 1), P(w, zeta) = Re(2 zeta/(zeta - w)) - 1 and 1/(zeta - w) = 2q sum_k
# 2^k (w - 1/2)^k q^k give V = Re[(2 zeta/(zeta - 1/2)) sum_k A_k q^k] - M_0;
# the M_0 terms cancel exactly on the circle, where Re(2 zeta/(zeta - 1)) = 1,
# so V = Re[(2 zeta/(zeta - 1/2)) sum_k B_k q^k], finite for m <= 1/2 too.
#
# By the tip, q -> 1, the sum is closed.  Exchanging the sums in B_k gives
# sum_k B_k q^k = K q L(q)/(1 - q), L = sum_i r_i q^i/(i + 1 + m) = 2F1(2 - m,
# 1; 2 + m; q)/(1 + m).  Euler's integral of L, y = 2(zeta - 1) = (1 - q)/q,
# eps = 2m - 1 and 2 zeta/(zeta - 1) = 1 - i cot(t/2) give V = K [Re W +
# cot(t/2) Im W], W = q^(m-1) int_0^1 s^m (s + y)^(m-2) ds = q^(m-1) [sum_(k>=1)
# C(m-2, k) y^k/(eps - k) - (y^eps - 1)/eps + c y^eps]: the integral over s > 0
# is -h y^eps/eps, h = Gamma(1 + m) Gamma(2 - 2m)/Gamma(2 - m), and over s > 1 a
# binomial series, so c = (1 - h)/eps.  For |eps| <= 1/2, c = -a exprel(eps a)
# by the Taylor series of log h = eps a(eps): the Gamma poles at m = 1/2 cancel.
#
# Every point has one evaluator (``LensPowerDensity._evaluate``).  The series
# take _MULTIPOLE_TERMS terms and converge at a rate below _MULTIPOLE_REACH:
# for m > 1/2, where |z| < 0.99 |2 - z|, off the lens where 0.99 |2z - 1| > 1
# and inside it where |2z - 1| < 0.99; V where 0.99 |2 e^{it} - 1| > 1, that
# is |t| > 0.1008, the closed form by the tip.  The lens-circle rule keeps the
# rest of u_m and G: the annulus about the lens circle, the tip, and m <= 1/2.
# ---------------------------------------------------------------------------

CHUNK = 1024  # points per block of a batch evaluation
_BLOCK = 64  # terms per row of the two-level Horner in _series
_ORDER = 12  # Gauss points per panel of the lens-circle rule
_GAUSS = np.polynomial.legendre.leggauss(_ORDER)
_GRADING = 0.4  # largest panel half-width over its distance to a pole or tip
# |green_potential - u_m| for every m: four times the largest gap, 3.5e-15, to
# the tests' 40-digit references and to the rule at grading 0.15 on 1,489
# seeded points 1e-8..1e-1 from the circle, by both tips and across the disk
_VALUE_ERROR = 1.4e-14
_MULTIPOLE_TERMS = 4000  # terms of each series; 0.99^4000 = 3.5e-18 at the reach
_MULTIPOLE_REACH = 0.99  # points whose series converges at a rate below it
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


def _finite_parts(m, n):
    """B_0 ... B_(n-1) = A_k - M_0, finite for every m, in extended precision."""
    i = np.arange(n - 1, dtype=np.longdouble)
    return np.append(np.longdouble(0.0),
                     _finite_scale(m) * np.cumsum(_lens_ratios(m, n)[:-1] / (i + 1.0 + m)))


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


def _lens_rule(star, d, delta, tip_rule, image):
    """The lens-circle rule of each point for u and G, its nodes flat over them.

    A point's nearest circle point is at angle ``star`` = theta* in (-pi, pi]
    and its kernels' poles at height ``delta`` over h = 0, the reflected
    kernel's at angle image[0], height image[1].  The turn from tip to tip is
    cut at theta* (unless theta* lies within delta of the tip), each piece
    halved, and each half walked from theta* or from the tip in offsets x,
    in the longest Gauss panels, in x or (past the first) in log x, whose
    half-width is at most _GRADING times the centre's distance from the
    poles, their images a turn on, and the tips (``_half_width``).  A panel
    from the tip takes the Gauss-Jacobi ``tip_rule`` and, for the harmonic H
    of ``_curve_potential``, Legendre points.  The first panels either side of
    theta* match: a point on the circle gets the principal value.  Returns
    each node's point, S, n, 1 - w, p - w and weight, then sin(h/2), sin(psi/2),
    cos(psi/2) and the ends of the node groups: tip panels, their Legendre
    copies, the rest.  d is the point's signed distance.
    """
    n = star.size
    delta = np.maximum(delta, 1e-280)  # on the circle: the kernels stay finite
    a = np.abs(star)
    b = 2.0 * math.pi - a
    sg = np.where(star < 0.0, -1.0, 1.0)
    split = a >= delta
    zero, turn, beyond = np.zeros(n), np.full(n, 2.0 * math.pi), np.full(n, 1e150)
    # frames: from theta* toward the near tip and from that tip back, the same
    # for the far tip, and (theta* by the tip) from each tip to the middle;
    # offset x lies at psi = theta* + sign x, or psi = sign x from a tip
    frame = np.flatnonzero(np.stack([split] * 4 + [~split] * 2).ravel())
    point = frame % n
    sign = np.stack([-sg, sg, sg, -sg, sg, -sg]).ravel()[frame]
    from_tip = np.repeat([False, True, False, True, True, True], n)[frame]
    end = np.stack([a, a, b, b, turn, turn]).ravel()[frame] / 2.0
    # the poles (at height delta), tips (`beyond` for none) and reflected poles
    X = [np.stack(row).ravel()[frame] for row in ([zero, a, zero, b, a, b],
                                                  [turn, -b, turn, -a, -b, -a],
                                                  [a, beyond, b, beyond, beyond, beyond],
                                                  [-b, turn, -a, turn, turn, turn])]
    off = sign * (image[0][point] - np.where(from_tip, 0.0, star[point]))
    X += [(off + math.pi) % (2.0 * math.pi) - math.pi]
    X += [X[-1] + 2.0 * math.pi]
    Y = [delta[point]] * 2 + [np.zeros(frame.size)] * 2 + [image[1][point]] * 2
    X, Y = np.array(X), np.array(Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_X, arg_X = np.log(np.minimum(np.hypot(X, Y), 1e150)), np.arctan2(Y, X)
        x = np.minimum(2.0 * _half_width(X, Y).min(axis=0), end)
        panels = [(np.arange(frame.size), np.zeros_like(x), x.copy(), np.zeros_like(x, bool))]
        live = np.flatnonzero(x < end)
        while live.size:  # in x the tip at a frame's origin counts, in log x not
            x0 = x[live]
            half = _half_width(X[:, live] - x0, Y[:, live]).min(axis=0)
            half = np.where(from_tip[live],
                            np.minimum(half, _GRADING * x0 / (1.0 - _GRADING)), half)
            log_half = _half_width(log_X[:, live] - np.log(x0), arg_X[:, live]).min(axis=0)
            by_x, by_log = x0 + 2.0 * half, x0 * np.exp(2.0 * log_half)
            x1 = np.minimum(np.maximum(by_x, by_log), end[live])
            panels.append((live, x0, x1, by_log > by_x))
            x[live] = x1
            live = live[x1 < end[live]]
    index, x0, x1, log = (np.concatenate(p) for p in zip(*panels))
    tip, first = from_tip[index], x0 == 0.0
    # (panels, rule, in log x, from the tip), one node layout each
    groups = [(first & tip, tip_rule, False, True), (first & tip, _GAUSS, False, True)]
    groups += [(~first & tip & (log == k), _GAUSS, k, True) for k in (False, True)]
    groups += [(~tip & (log == k), _GAUSS, k, False) for k in (False, True)]
    owners, halves, weights = [], [], []
    for part, (xi, wi), in_log, at_tip in groups:
        f, lo, hi = index[part], x0[part, None], x1[part, None]
        size = 0.5 * (np.log(hi / lo) if in_log else hi - lo)
        x = lo * np.exp(size * (1.0 + xi)) if in_log else lo + size * (1.0 + xi)
        weights.append((size * wi * (x if in_log else 1.0)).ravel())
        st, ct = np.sin(0.5 * star[point[f], None]), np.cos(0.5 * star[point[f], None])
        sx, cx = sign[f, None] * np.sin(0.5 * x), np.cos(0.5 * x)
        if at_tip:  # psi = sign x, h = sign x - theta*
            halves.append((sx * ct - cx * st, cx * ct + sx * st, sx, cx))
        else:  # h = sign x, psi = theta* + sign x
            halves.append((sx, cx, st * cx + ct * sx, ct * cx - st * sx))
        owners.append(np.repeat(point[f], _ORDER))
    sh, ch, sp, cp = (np.concatenate([v[k].ravel() for v in halves]) for k in range(4))
    owner = np.concatenate(owners)
    pw = np.exp(1j * star)[owner] * (d[owner] + sh * sh - 1j * sh * ch)
    half = cp + 1j * sp  # e^{i psi/2}
    return (owner, sp * sp, half * half, -1j * sp * half, pw, np.concatenate(weights),
            (sh, sp, cp, np.cumsum([o.size for o in owners])))


def _half_width(ahead, height):
    """The longest panel half-width r from a point that a singularity
    ``ahead`` on the axis and ``height`` off it allows: r = _GRADING |r - ahead + i height|."""
    g = _GRADING
    return g * (np.hypot(ahead, math.sqrt(1.0 - g * g) * height) - g * ahead) / (1.0 - g * g)


def _power_gap(base, base_m, top_m, step, m):
    """top^m - base^m from base, both powers and step = top - base, without
    cancellation."""
    ratio = step / base
    close = np.abs(ratio) < 0.5
    return np.where(close, base_m * np.expm1(m * np.log1p(np.where(close, ratio, 0.0))),
                    top_m - base_m)


def _sum_by(owner, terms, size):
    """Sums of ``terms`` by ``owner``, exact but for their own rounding: the
    multiples of one power of two in each term add exactly, then the rest."""
    scale = np.abs(terms).max(initial=0.0) * terms.size
    quantum = 2.0 ** (math.frexp(scale)[1] - 52) if scale > 0.0 else 1.0
    coarse = np.rint(terms / quantum) * quantum
    return np.bincount(owner, coarse, size) + np.bincount(owner, terms - coarse, size)


def _in_chunks(block, points):
    """Apply a block evaluator to CHUNK points at a time; a block may return
    several values a point, stacked on a leading axis."""
    flat = points.ravel()
    out = [block(flat[i0:i0 + CHUNK]) for i0 in range(0, flat.size, CHUNK)]
    out = np.concatenate(out or [np.empty(0)], axis=-1)
    return out.reshape(out.shape[:-1] + points.shape)


class LensPowerDensity:
    """The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on |z - 1/2| < 1/2.

    This is the Riesz mass of the worked example u_m.  Its potential and its
    gradient are integrals over the lens circle on one rule (see the section
    comment), for every m in (0, 1), or series where those converge at a rate
    below _MULTIPOLE_REACH; V takes no quadrature.  For
    m > 1/2, points where rho = max(1/|2z - 1|, |z|/|2 - z|) < 0.99 take the
    multipole series of u_m (``_far_field``); at rho = 0.99 -+ 1e-9 the two
    agree to 1.2e-16 in u, 4e-15 relative in G.  Points where |2z - 1| <
    0.99 and |z| < 0.99 |2 - z| take the series inside the lens
    (``_inner_field``); at |2z - 1| = 0.99 -+ 1e-9 it meets the rule within
    5.4e-16 in u and 2.1e-14 relative in G (m = 0.6, 3/4, 0.9), and within
    8.1e-15 in u by the tip for m down to 1/2.  Both series' G lose digits
    as m -> 1/2, where their terms grow like M_0: at m = 0.51, 3.4e-12
    relative inside the lens and 4.6e-14 off it.  ``green_potential`` is
    within ``value_error`` of 40-digit references at 73 points (m = 3/4,
    1/2) and 9 (m = 1/4) inside the lens, 1e-7 to 1e-1 outside it, by both
    tips and by the circle; on the circle u and G lie within 1e-12 of their
    values 1e-12 to either side.  ``green_gradient`` gives the same u with
    G = 2 d_z u_m = u_x - i u_y, within 3e-15 relative of a 30-digit
    reference and of a 60,000-term series at 0.99 < rho < 0.999.
    ``balayage`` is V(e^{it}): for |t| > 0.1008 the series of the finite
    parts (``_far_balayage``), within 1.2e-15 relative of 40-digit
    references on 400 seeded angles in 0.3 to pi for m = 1/4, 0.4, 1/2, 3/4,
    and on 400 in 0.1009 to 0.3 within 4.7e-15 at m = 1/4, 3.2e-15 at the
    others; by the tip a closed
    form, within 2.6e-15 of 40-digit references at 1e-14 <= t <= 0.1008 for
    0.05 <= m <= 0.97 and of the series at |t| = 0.1008 -+ 1e-9, inf at 0.
    ``moments`` gives M_k = int w^k dsigma_m, or for m <= 1/2 the finite
    parts nu_k = int (w^k - 1) dsigma_m, built on first use and within
    _MOMENT_ERROR of 30-digit references to k = 4096.  The series
    coefficients are built on first use too, once per density.
    """

    def __init__(self, m):
        self.m = float(m)
        self.pref = self.m * (1.0 - self.m) / (2.0 * math.pi)
        self.value_error = _VALUE_ERROR
        # Gauss-Jacobi points for tau^(2m-1) by the tip, the weight divided out
        alpha = 2.0 * self.m - 1.0
        nodes, weights = roots_jacobi(_ORDER, 0.0, alpha)
        self._tip_rule = (nodes, weights / (1.0 + nodes) ** alpha)
        # A_k by their ratios (inf for m <= 1/2)
        self._moments = _lens_mass(self.m) * _lens_ratios(
            self.m, _MULTIPOLE_TERMS + 1).astype(float)
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
    def _outer_terms(self):
        """-A_k/k and A_(k+1): the multipole series of u_m and of G, and of
        G's reflected half inside the lens."""
        A = self._moments
        return np.append(0.0, -A[1:] / np.arange(1, A.size)), A[1:]

    @functools.cached_property
    def _inner_terms(self):
        """lambda_k = kappa_k + M_0/k (lambda_0 = kappa_0 + M_0 log 2) and
        k kappa_k (k >= 1): the series of u_m and of G inside the lens."""
        m, n = self.m, _MULTIPOLE_TERMS + 1
        (J, gaps), (J_low, gaps_low) = _circle_cosines(m, n), _circle_cosines(m - 1.0, n)
        k = np.arange(1, n, dtype=np.longdouble)
        lam = np.append(2.0 * J[0], 2.0 * J[1:] - (m / k) * (gaps_low[1:] - 2.0 * gaps[1:]))
        slope = 2.0 * k * J[1:] - m * (J_low[1:] - 2.0 * J[1:])
        return (lam / (4.0 * math.pi)).astype(float), (slope / (4.0 * math.pi)).astype(float)

    @functools.cached_property
    def _finite_terms(self):
        """B_k = A_k - M_0 and B_k/k: the series of V, and of u_m's reflected
        half inside the lens."""
        B = _finite_parts(self.m, _MULTIPOLE_TERMS + 1)
        return B.astype(float), np.append(0.0, B[1:] / np.arange(1, B.size)).astype(float)

    def green_potential(self, z):
        return self._evaluate(z, False)[0]

    def green_gradient(self, z):
        """u_m and G = 2 d_z u_m = u_x - i u_y at z, from one pass."""
        u, gx, gy = self._evaluate(z, True)
        return u, gx + 1j * gy

    def _evaluate(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, stacked on a leading axis."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros((3 if gradient else 1,) + z.shape)
        if self.pref == 0.0:
            return out
        a = np.abs(z)
        near = a < 1.0 - 1e-15
        if self.m > 0.5:
            rate = np.abs(2.0 * z - 1.0)
            series = near & (a < _MULTIPOLE_REACH * np.abs(2.0 - z))
            far = series & (_MULTIPOLE_REACH * rate > 1.0)
            lens = series & (rate < _MULTIPOLE_REACH)
            out[:, far] = self._far_field(z[far], gradient)
            out[:, lens] = self._inner_field(z[lens], gradient)
            near &= ~(far | lens)
        out[:, near] = _in_chunks(lambda zz: self._curve_potential(zz, gradient), z[near])
        return out

    def _far_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, by the multipole series:
        S(zeta) = int log(zeta - w) dsigma_m = M_0 log(zeta - 1/2) - sum_k
        (A_k/k) q^k gives u_m = Re S(z) - Re S(1/conj z) - M_0 log|z| and
        G = 2 d_z u_m; real moments put the reflection at 1/z, q = z/(2 - z)."""
        A0, n = self._moments[0], z.size
        log_terms, next_terms = self._outer_terms
        q = np.concatenate([1.0 / (2.0 * z - 1.0), z / (2.0 - z)])
        T = _series(q, log_terms)
        u = (A0 * (np.log(np.abs(2.0 * z - 1.0)) - np.log(np.abs(2.0 - z)))
             + (T[:n] - T[n:]).real)
        if not gradient:
            return u[None]
        R = _series(q, next_terms)  # sum_k A_(k+1) q^k
        q1, rz = q[:n], 1.0 / (2.0 - z)
        G = 2.0 * q1 * (A0 + q1 * R[:n]) + (A0 + 2.0 * rz * R[n:]) * rz
        return np.stack([u, G.real, G.imag])

    def _inner_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, inside the lens by the
        series in zeta = 2z - 1 of the direct half and in q = z/(2 - z) of the
        reflected one (see the section comment)."""
        m, A0, (lam, slope) = self.m, self._moments[0], self._inner_terms
        zeta, q, omx = 2.0 * z - 1.0, z / (2.0 - z), 1.0 - z.real
        u = (_series(zeta, lam).real - omx ** m
             + _series(q, self._finite_terms[1]).real)
        if not gradient:
            return u[None]
        rz = 1.0 / (2.0 - z)
        R = _series(q, self._outer_terms[1])
        G = (m * omx ** (m - 1.0) + 2.0 * _series(zeta, slope)
             + (A0 + 2.0 * rz * R) * rz)
        return np.stack([u, G.real, G.imag])

    def _curve_potential(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, by the lens-circle rule.

        Green's identity holds for s + H, H harmonic, as for s.  With
        H = S*^m + b (1 - Re w - S*), S* = S(theta*) and b = m S*^m, s + H
        and its normal derivative nearly vanish by z, so no O(1) terms cancel
        to u there: its rounding noise by the circle is 3e-17, not 4e-16.
        The tip panels take H's part, which is analytic, on Legendre points.
        """
        m, x, y = self.m, z.real, z.imag
        star = np.angle(2.0 * z - 1.0)
        st, ct = np.sin(0.5 * star), np.cos(0.5 * star)
        S_star, cos_star = st * st, np.cos(star)
        d = (y * y - x * (1.0 - x)) / (np.abs(z - 0.5) + 0.5)
        inside = np.where(d == 0.0, 0.5, d < 0.0)  # each jump term's share
        with np.errstate(divide="ignore"):  # z = 1/2 and z = 0 send a pole off
            image = (np.angle(2.0 * z - np.abs(z) ** 2), np.log(np.abs(2.0 - z) / np.abs(z)))
            owner, S, n, omw, pw, weight, (sh, sp, cp, ends) = _lens_rule(
                star, d, np.abs(np.log1p(2.0 * d)), self._tip_rule, image)
        tips, plain, rest = slice(0, ends[0]), slice(ends[0], ends[1]), slice(ends[1], None)
        p = z[owner]
        r1 = (1.0 - p.conjugate()) + p.conjugate() * omw  # 1 - conj(z) w
        q = 1.0 - (p.real ** 2 + p.imag ** 2)
        X = -q * S / (r1.real ** 2 + r1.imag ** 2)
        small = X > -0.5
        g = np.empty_like(X)
        g[small] = 0.5 * np.log1p(X[small])
        g[~small] = np.log(np.abs(pw[~small]) / np.abs(r1[~small]))
        dng, cos, Sm = q * (n / (-pw * r1)).real, 1.0 - 2.0 * S, S ** m
        Sm_star = S_star ** m
        b = m * Sm_star
        on, bo = owner[rest], b[owner]
        with np.errstate(divide="ignore", invalid="ignore"):
            # S - S* = sin(h/2) sin((psi + theta*)/2), 1 - Re z - S* = -d cos theta*
            dS = sh * (sp * ct[owner] + cp * st[owner])
            s_H = (_power_gap(S_star[on], Sm_star[on], Sm[rest], dS[rest], m)
                   - bo[rest] * dS[rest])
            jump = (_power_gap(1.0 - x, (1.0 - x) ** m, Sm_star, d * cos_star, m)
                    - b * d * cos_star)
        f = np.empty_like(S)
        f[tips] = m * cos[tips] * (Sm[tips] / S[tips]) * g[tips] + Sm[tips] * dng[tips]
        f[plain] = -(bo[plain] * cos[plain] * g[plain]
                     + (Sm_star[owner[plain]] + bo[plain] * dS[plain]) * dng[plain])
        f[rest] = (m * cos[rest] * (Sm[rest] / S[rest]) * g[rest]
                   - bo[rest] * cos[rest] * g[rest] + s_H * dng[rest])
        u = inside * jump + _sum_by(owner, weight * f, z.size) / (4.0 * math.pi)
        if not gradient:
            return u[None]
        fG = np.zeros(S.size, dtype=complex)  # the Legendre copies take none
        for part in (tips, rest):
            # conj(w n)(w - z) - n(1 - z conj w), free of cancellation at the tip
            nn, nb, pp = n[part], n[part].conjugate(), p[part]
            num = (1j * nn.imag * ((pp - 1.0) * (1.0 + nb) - 2.0 * omw[part].conjugate())
                   - S[part] * nb)
            fG[part] = ((Sm[part] / S[part]) * num / (r1[part].conjugate() * -pw[part])
                        * weight[part])
        G = (inside * m * (1.0 - x) ** (m - 1.0) + m / (4.0 * math.pi)
             * (_sum_by(owner, fG.real, z.size) + 1j * _sum_by(owner, fG.imag, z.size)))
        return np.stack([u, G.real, G.imag])

    def balayage(self, t):
        t = np.asarray(t, dtype=float)
        if self.pref == 0.0:
            return np.zeros(t.shape)
        zeta = np.exp(1j * np.where(np.isfinite(t), t, 0.0))
        far = _MULTIPOLE_REACH * np.abs(2.0 * zeta - 1.0) > 1.0
        out = np.empty(t.shape)
        out[far] = self._far_balayage(zeta[far])
        out[~far] = self._tip_balayage(t[~far])
        return out

    def _far_balayage(self, zeta):
        """V at zeta = e^{it} by the series of the finite parts B_k, q = 1/(2 zeta - 1)."""
        q = 1.0 / (2.0 * zeta - 1.0)
        return (4.0 * zeta * q * _series(q, self._finite_terms[0])).real

    @functools.cached_property
    def _tip_terms(self):
        """C(m - 2, k)/(eps - k), k < _BLOCK (0 at k = 0), and c: V by the tip."""
        m, eps, k = self.m, 2.0 * self.m - 1.0, np.arange(1.0, _BLOCK)  # |y| <= 0.2016: tail 1e-40
        terms = np.append(0.0, np.cumprod((m - 1.0 - k) / k) / (eps - k))
        if abs(eps) > 0.5:
            return terms, (1.0 - gamma(1.0 + m) * gamma(2.0 - 2.0 * m) / gamma(2.0 - m)) / eps
        n = np.arange(2.0, _BLOCK)  # log h = eps a(eps): a is psi(3/2) - psi(1), then these
        taylor = (hurwitz_zeta(n, 1.0) - n % 2 * 2.0 ** (1.0 - n) * hurwitz_zeta(n, 1.5)) / n
        a = np.polynomial.polynomial.polyval(eps, np.append(2.0 - 2.0 * math.log(2.0), taylor))
        return terms, -a * exprel(eps * a)

    def _tip_balayage(self, t):
        """V by the tip in closed form (see the section comment), inf at t = 0."""
        m, eps, (terms, c) = self.m, 2.0 * self.m - 1.0, self._tip_terms
        out = np.where(np.isfinite(t), np.inf, np.nan)
        s = np.abs(np.where(np.isfinite(t), t, 0.0))
        ok = np.sin(0.5 * s) > 0.0
        y = 4j * np.sin(0.5 * s[ok]) * np.exp(0.5j * s[ok])  # 2(zeta - 1)
        x = eps * np.log(y)
        gap = np.log(y) if eps == 0.0 else np.expm1(x) / eps  # (y^eps - 1)/eps
        W = (1.0 + y) ** (1.0 - m) * (_series(y, terms) - gap + c * np.exp(x))
        with np.errstate(over="ignore"):  # V ~ m |t|^(2m - 2) may leave the doubles
            out[ok] = _finite_scale(m) * (W.real + W.imag / np.tan(0.5 * s[ok]))
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
    log2(_BLOCK) rounded products.  Returns the complex sum; the harmonic
    callers take its real part.
    """
    a = np.asarray(coeffs, dtype=complex)
    width = min(_BLOCK, a.size)
    rows = -(-a.size // width)
    mat = np.zeros(rows * width, dtype=complex)
    mat[:a.size] = a
    mat = mat.reshape(rows, width)

    def block(w):
        powers = np.empty((width + 1, w.size), dtype=complex)
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

    return _in_chunks(block, np.asarray(z, dtype=complex))


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
