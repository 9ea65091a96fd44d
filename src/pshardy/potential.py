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

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.polyutils import trimseq
from scipy.special import beta

from .geometry import (
    CONVERGED,
    DIVERGENT,
    QuadratureResult,
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
    interior_singularities, boundary_singularities : tuple of complex
        Declared blowup points of the density, forwarded to quadrature.
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
    complete : bool
        False when the object deliberately carries only part of the
        distributional Riesz mass (the glued example family does); any
        mass-sensitive operation must reject incomplete measures.
    label : str
        Short identifier used in reports and cache keys.
    """

    atoms: tuple = ()
    density: object = None
    interior_singularities: tuple = ()
    boundary_singularities: tuple = ()
    radial_profile: object = None
    total_mass_hint: object = None
    complete: bool = True
    label: str = ""
    support_disk: object = None
    balayage: object = None

    def has_area_part(self) -> bool:
        return self.density is not None

    def is_rotation_invariant(self) -> bool:
        """Whether rotations about 0 fix the measure: every atom sits at 0,
        and an area part declares its ``radial_profile``."""
        return (all(loc == 0 for loc, _ in self.atoms)
                and (self.radial_profile is not None or not self.has_area_part()))

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
        boundary, cut = self.boundary_singularities, None
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
            return lambda *args: a * np.asarray(f(*args), dtype=float)

        hint = None if self.total_mass_hint is None else a * float(self.total_mass_hint)
        label = f"scaled:{a:g}:{self.label}" if self.label else f"scaled:{a:g}"
        return replace(
            self,
            atoms=atoms,
            density=times(self.density),
            radial_profile=times(self.radial_profile),
            total_mass_hint=hint,
            balayage=times(self.balayage),
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
# The worked power density, reduced to vertical chords.
#
# The density m(1-m)/(2 pi) (1 - x)^(m-2) dA is x-simple on the lens
# |z - 1/2| < 1/2 and on the whole disk: at abscissa x its support is the
# chord |y| < Y(x), and the y-integrals of the Green and the Poisson kernel
# over a chord are elementary.  Its potential and its balayage therefore
# reduce to one integral in x, discretized once per m on one grid: a sqrt
# substitution absorbs the chord root at x = 0, and Gauss panels in
# lambda = -log(1 - x) resolve the blowup of (1 - x)^(m-2) at x = 1.  Each
# point or angle then swaps the fixed panels around the places where its
# integrand has a kink or a sharp bend for panels graded toward them
# (``_graded_panels``), so one grid serves every point and every angle.
#
# Off the closed lens disk u_m is harmonic, and a far-field series in
# q = 1/2/(z - 1/2) replaces the grid (``_far_field``).  Its moments
# A_k = 2^k int (w - 1/2)^k dsigma_m have a closed form.  A chord ends at
# x - 1/2 + iY = e^{i psi}/2, where 1 - x = sin^2(psi/2), dx = -sin(psi)
# dpsi/2 and its integral of (w - 1/2)^k is 2^-k sin((k+1)psi)/(k+1).
# sin((k+1)psi) sin(psi) = [cos(k psi) - cos((k+2)psi)]/2 then makes A_k a
# multiple of C_k - C_(k+2), C_n = int_0^pi sin^(2m-4)(psi/2) cos(n psi)
# dpsi continued analytically in the exponent; its Beta-function value
# gives C_(n+1)/C_n = (n + 2 - m)/(n + m - 1), so A_(k+1)/A_k =
# (k + 2 - m)/(k + 1 + m), free of cancellation, from the mass
# A_0 = M_0 = m(1-m) B(3/2, m - 1/2)/pi.
# ---------------------------------------------------------------------------

CHUNK = 1024  # points per block of a batch evaluation
_BLOCK = 64  # terms per row of the two-level Horner in _series
_N_LEFT = 40  # sqrt-substituted panels on 0 < x < 1/2
_FAR = 1e6  # chords beyond _FAR * Y from e^{it} take the midpoint kernel
_POTENTIAL_ORDER = 8  # Gauss points per fixed panel of the lens grid
_HALF_DEPTH = 8  # its panels grade toward x = 1/2 down to 2^-8 of a panel
_KINK_DEPTH = 12  # graded panels of a potential row reach 2^-12 of the way
_KINK_ORDER = 6  # Gauss points per graded panel of a potential row
_CROSSING_DEPTH = 30  # graded panels of a balayage row reach 2^-30 of the way
_CROSSING_TAIL = 40.0  # a split past the last edge runs on to its point + this
_KINK_REACH = 0.1  # potential rows this close to the lens are split
# Bound on |green_potential - u_m| for m >= 1/2: four times the largest gap,
# 2.2e-12, to a refined grid (fixed panels cut in four, 14 Gauss points on
# every panel, grading to 2^-24) on 1,791 seeded points within 1e-8..1e-1
# of the lens, by the tips and across the disk.
_VALUE_ERROR = 1e-11
_MULTIPOLE_TERMS = 4000  # terms of the far-field series; its tail is < 1e-18
_MULTIPOLE_REACH = 0.99  # points whose series converges at a rate below it


def _lens_mass(m):
    """M_0 = m(1-m) B(3/2, m - 1/2)/pi, the lens mass; inf for m <= 1/2."""
    return m * (1.0 - m) * beta(1.5, m - 0.5) / math.pi if m > 0.5 else math.inf


def _geometric_lam_edges():
    edges = [math.log(2.0)]
    size = 0.18
    while edges[-1] < 40.0:
        edges.append(min(edges[-1] + size, 40.0))
        size *= 1.16
    return edges


# Panel edges of the lens grid: in sigma = sqrt(x) on 0 < x < 1/2, then in
# lambda = -log(1 - x) on 1/2 < x < 1.  Both kernels are smooth in x up to
# the tip away from the points and angles that split them, so the panels
# widen geometrically to lambda = 40; they grade toward x = 1/2 from both
# sides, so that a kink just across the seam (split in the other layout)
# stays resolved.  The Poisson kernel at e^{it} peaks where 1 - x ~ t^2, at
# any depth as t -> 0; those angles split the grid where the chords cross
# e^{it} (see ``_crossing_grid``), and past lambda = 40 their graded
# panels run on to the crossing + _CROSSING_TAIL.
_HALF_GRADING = 2.0 ** -np.arange(_HALF_DEPTH, 0, -1)
_POTENTIAL_PANELS = (
    np.concatenate([np.linspace(0.0, 1.0 / math.sqrt(2.0), _N_LEFT + 1)[:-1],
                    (1.0 - _HALF_GRADING[::-1] / _N_LEFT) / math.sqrt(2.0),
                    [1.0 / math.sqrt(2.0)]]),
    np.concatenate([[math.log(2.0)], math.log(2.0) + 0.18 * _HALF_GRADING,
                    _geometric_lam_edges()[1:]]),
)


def _chord_log(A, B, C, D, Y):
    """Integral of log|a + b y| over |y| < Y, with no O(1) - O(1) cancellation.

    Here a = A + iB and c = bY = C + iD.  With q = c/a and
    L = log((1 + q)/(1 - q)) = log((a + c)/(a - c)) it is
    Y Re(L/q - 2) + Y log|a^2 - c^2|, every term O(Y).  Re L is
    log1p(4 Re(a conj c)/|a - c|^2)/2 where that argument is small (there
    log|a + c| - log|a - c| would cancel), and Im L is the angle of
    (a + c) conj(a - c), whose imaginary part -2 Im(a conj c) is formed
    directly; so neither loses digits for short chords or near their ends.
    a = 0 gives 2Y (log|c| - 1) through L = i pi; c must not vanish.

    Returns the integral with Re L and Im L: b times the integral of
    1/(a + b y) over the chord is L, which the gradient reads.
    """
    ac_re = A * C + B * D  # a conj(c)
    ac_im = B * C - A * D
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log((A + C) ** 2 + (B + D) ** 2)
        N2 = (A - C) ** 2 + (B - D) ** 2
        ln = np.log(N2)
        s = 4.0 * ac_re / N2
        small = np.abs(s) < 0.5
        re_L = np.log1p(s, where=small, out=np.empty_like(s))
        np.subtract(lp, ln, where=~small, out=re_L)
        re_L *= 0.5
        im_L = np.arctan2(-2.0 * ac_im, (A + C) * (A - C) + (B + D) * (B - D))
        value = Y * ((re_L * ac_re - im_L * ac_im) / (C * C + D * D)
                     + 0.5 * (lp + ln) - 2.0)
        return value, re_L, im_L


def _chord_green(z, x, omx, Y, gradient=False):
    """Integral of g(z, x + iy) over |y| < Y, the Green kernel on one chord.

    g = log|z - w| - log|1 - conj(z) w| splits into two chord terms,
    a = z - x, b = -i and a = 1 - conj(z) x, b = -i conj(z); the second
    vanishes at z = 0, and both at the zero-width chords Y = 0 that empty
    graded panels put at x = 0.  Near x = 1 the real parts Re z - x and
    1 - Re(z) x are taken from 1 - x, which the lambda nodes carry to full
    relative accuracy.

    With ``gradient`` it also returns the chord integral of 2 d_z g =
    1/(z - w) + conj(w)/(1 - z conj(w)) as its real and imaginary parts,
    from the L of the same two chord terms: the direct one gives i L_d,
    the reflected one 2Y/z + i conj(L_r)/z^2 (``_reflected_gradient``).
    """
    xi, eta = z.real, z.imag
    omxi = 1.0 - xi
    dx = np.where(x < 0.5, xi - x, omx - omxi)
    if not gradient:
        direct = _chord_log(dx, eta, 0.0, -Y, Y)[0]
        reflected = _chord_log(omxi + xi * omx, eta * x, -eta * Y, -xi * Y, Y)[0]
        reflected[np.broadcast_to(z == 0.0, reflected.shape)] = 0.0
        return np.where(Y > 0.0, direct - reflected, 0.0)
    direct, gy, gx = _chord_log(dx, eta, 0.0, -Y, Y)
    reflected, re_L, im_L = _chord_log(omxi + xi * omx, eta * x, -eta * Y,
                                       -xi * Y, Y)
    reflected[np.broadcast_to(z == 0.0, reflected.shape)] = 0.0
    value = np.where(Y > 0.0, direct - reflected, 0.0)
    del direct, reflected
    re_R, im_R = _reflected_gradient(z, x, Y, re_L, im_L)
    del re_L, im_L
    np.negative(gx, out=gx)  # i L_d = -Im L_d + i Re L_d
    gx -= re_R
    gy -= im_R
    empty = np.broadcast_to(Y == 0.0, gx.shape)
    gx[empty] = 0.0
    gy[empty] = 0.0
    return value, gx, gy


_NEAR_ZERO = 0.05  # rows |z| below it sum the reflected gradient as a series
_SERIES_TERMS = 5  # terms of that series: |q|^2 <= 7e-4 there


def _reflected_gradient(z, x, Y, re_L, im_L):
    """Re and Im of R = 2Y/z + i conj(L_r)/z^2 from L_r of the reflected chord.

    R is the chord integral of -conj(w)/(1 - z conj(w)), the z-derivative
    of log|1 - conj(z) w|.  Its two terms are O(Y/|z|) each and cancel to
    O(Y x) as z -> 0.  With q = c/a = -i conj(z) Y/(1 - conj(z) x) of the
    chord term, L_r = 2 sum q^(2k+1)/(2k+1), and the cancelling first term
    taken out leaves R = -2Yx/(1 - zx) + 2zY^3/(1 - zx)^3 S(t),
    S(t) = sum_j t^j/(2j + 3), t = conj(q)^2 = -(zY/(1 - zx))^2.  Rows with
    |z| < _NEAR_ZERO (where |q| <= 0.027 on every chord) take that series,
    with _SERIES_TERMS terms; the other rows keep the closed form, whose
    rounding is O(eps Y/|z|).
    """
    near = np.broadcast_to(np.abs(z) < _NEAR_ZERO, z.shape)
    inv = 1.0 / np.where(near, 1.0, z)
    inv2 = inv * inv
    re_R = 2.0 * Y * inv.real + im_L * inv2.real - re_L * inv2.imag
    im_R = 2.0 * Y * inv.imag + im_L * inv2.imag + re_L * inv2.real
    rows = np.flatnonzero(near[:, 0])
    if rows.size:
        zr = z[rows]
        xr = np.broadcast_to(x, re_R.shape)[rows]
        Yr = np.broadcast_to(Y, re_R.shape)[rows]
        den = 1.0 / (1.0 - zr * xr)
        t = -(zr * Yr * den) ** 2
        S = np.full(t.shape, 1.0 / (2 * _SERIES_TERMS + 1), dtype=complex)
        for j in range(_SERIES_TERMS - 2, -1, -1):
            S = S * t + 1.0 / (2 * j + 3)
        R = -2.0 * Yr * xr * den + 2.0 * zr * Yr ** 3 * den ** 3 * S
        re_R[rows] = R.real
        im_R[rows] = R.imag
    return re_R, im_R


def _sigma_nodes(sig, w, m):
    """x, 1 - x and the weights (1 - x)^(m-2) dx of nodes sigma = sqrt(x)."""
    x = sig * sig
    return x, 1.0 - x, w * 2.0 * sig * (1.0 - x) ** (m - 2.0)


def _lambda_nodes(lam, w, m):
    """x, 1 - x and the weights (1 - x)^(m-2) dx of nodes -log(1 - x) = lam."""
    omx = np.exp(-lam)
    return 1.0 - omx, omx, w * omx * omx ** (m - 2.0)


def _gauss(lo, hi, order):
    """Nodes and weights of Gauss panels [lo, hi], flat along the last axis."""
    glx, glw = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi)[..., None], 0.5 * (hi - lo)[..., None]
    shape = lo.shape[:-1] + (lo.shape[-1] * order,)
    return (mid + half * glx).reshape(shape), (glw * half).reshape(shape)


def _lens_grid(m, panels, order):
    """Nodes x and 1 - x, chord half-widths Y and weights on the lens.

    The weights already carry the x-measure (1 - x)^(m-2) dx, so a batch
    evaluation is one dot product per point.
    """
    sigma_edges, lam_edges = (np.asarray(e) for e in panels)
    left = _sigma_nodes(*_gauss(sigma_edges[:-1], sigma_edges[1:], order), m)
    right = _lambda_nodes(*_gauss(lam_edges[:-1], lam_edges[1:], order), m)
    x, omx, w = (np.concatenate(p) for p in zip(left, right))
    return x, omx, np.sqrt(x * omx), w


def _graded_panels(edges, offset, star, tail, depth, order, grid_order):
    """Gauss panels graded toward points of each row, and the columns they free.

    ``star`` holds one point per row, or two.  For each point a row drops
    the two fixed panels of ``edges`` (``grid_order`` nodes each, the first
    at column ``offset``) that meet nearest it, so the point stays half a
    panel from every fixed node (dropping only the panel holding it left
    errors up to 6e-5 in V when the point sat by its edge).  In their place
    go ``order``-point Gauss panels graded toward the point from both
    sides, with edges s -+ d 2^-j, j = 0..depth (d the distance to the
    window's edge) and s: the same count on every row, so the nodes and
    weights form one array per row.  Two points whose windows overlap share
    them, split at their midpoint.  A window that ends at the grid's last
    edge runs on to its point + ``tail``.
    """
    edges = np.asarray(edges)
    star = np.sort(star[:, None] if star.ndim == 1 else star, axis=1)
    panel = np.minimum(np.searchsorted(edges, star, side="right") - 1,
                       edges.size - 2)
    # the two panels that meet at the edge nearest each point
    first = panel - (2.0 * star < edges[panel] + edges[panel + 1])
    first = np.clip(first, 0, edges.size - 3)
    lo = edges[first]
    hi = edges[first + 2]
    hi = np.where(first == edges.size - 3, np.maximum(hi, star + tail), hi)
    if star.shape[1] == 2:
        shared = first[:, 1] - first[:, 0] <= 1
        mid = 0.5 * (star[:, 0] + star[:, 1])
        hi[:, 0] = np.where(shared, mid, hi[:, 0])
        lo[:, 1] = np.where(shared, mid, lo[:, 1])
    rows, k = star.shape
    dropped = (offset + grid_order * first[:, :, None]
               + np.arange(2 * grid_order)).reshape(rows, 2 * grid_order * k)
    frac = np.append(2.0 ** -np.arange(depth + 1.0), 0.0)
    left = star[:, :, None] - (star - lo)[:, :, None] * frac
    right = star[:, :, None] + (hi - star)[:, :, None] * frac
    shape = (rows, 2 * (depth + 1) * k)
    a = np.concatenate([left[:, :, :-1], right[:, :, 1:]], 2).reshape(shape)
    b = np.concatenate([left[:, :, 1:], right[:, :, :-1]], 2).reshape(shape)
    return (dropped, *_gauss(a, b, order))


def _in_chunks(block, points):
    """Apply a vectorized block evaluator to CHUNK points at a time.

    A block may return several values a point, stacked on a leading axis.
    """
    flat = points.ravel()
    out = [block(flat[i0:i0 + CHUNK]) for i0 in range(0, flat.size, CHUNK)]
    out = np.concatenate(out or [np.empty(0)], axis=-1)
    return out.reshape(out.shape[:-1] + points.shape)


class LensPowerDensity:
    """The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on |z - 1/2| < 1/2.

    This is the Riesz mass of the worked example u_m.  One grid of its
    chords (``_lens_grid`` on _POTENTIAL_PANELS) carries its evaluators,
    each chord term in closed form.  For m > 1/2, points of the disk where
    rho = max(1/|2z - 1|, |z|/|2 - z|) < _MULTIPOLE_REACH take the
    multipole series of u_m instead (``_far_field``): there u was within
    6e-17 of 34- and 40-digit references and G within 7.5e-16 relative of
    a 30-digit one, where the grid was 1.9e-14 and 7.7e-11 off; at
    rho = 0.99 -+ 1e-9 the two agree to 6.3e-15 in u and 3.2e-12 in G.
    For m <= 1/2 the mass diverges and every point takes the grid.  On the
    grid each point within _KINK_REACH of the lens splits it at x = Re z and
    where the lens boundary passes its height (``_green_block``), each chord
    term free of float cancellation (``_chord_log``).  Against a 40-digit
    mpmath reference u_m is within 1.3e-14 (m = 3/4) and 1.9e-13 (m = 1/2)
    at 73 points inside the lens, 1e-6 to 1e-1 outside it, by the tip z = 1,
    by the circle and within 1e-7 of z = 0, and within 1e-15 at six points
    each for m = 0.6 and 0.9.  ``value_error`` bounds it for m >= 1/2 (see
    _VALUE_ERROR).  Below m = 1/2 it is inf: the grid ends at lambda = 40,
    and at z = 0.99999 + 3e-6i it was 3e-12 off for m = 0.4 and 1.1e-9 for
    m = 1/4 (60-digit reference), a gap that grows toward the tip.

    ``green_gradient`` returns u_m with G = 2 d_z u_m = u_x - i u_y from
    the same pass, u bit-identical to ``green_potential``.  On the grid the
    chord integral of 2 d_z g is elementary in the L of the two chord terms
    (``_chord_green``), two more real dot products with the weights.
    Against Richardson-extrapolated differences of ``green_potential``
    (m = 3/4; one-sided where the stencil would cross the lens circle) it
    was within a median 3e-13 relative at 100 points across the disk,
    2e-12 at 1e-3 from the lens circle, 6e-11 at 1e-5 from it (the
    differences' own rounding), and 5e-12 within 1e-6 of z = 0, where the
    reflected term needs its series (``_reflected_gradient``; the closed
    form there was 3.7e-9 off at |z| = 1e-7).  Just outside the top and
    bottom of the lens, where 0.99 < rho < 0.999 keeps points on the grid,
    G was up to 1.1e-9 relative off a 60,000-term multipole series (median
    5e-13 over 400 points; the worst at |Im z| ~ 1/2, Re z just above 1/2).

    ``balayage`` is the one evaluator of its Poisson balayage V(e^{it}):
    each angle near t = 0 splits the grid where the chords cross e^{it}
    (see ``_balayage_block``).  Against a 30-digit mpmath reference at
    t = 0.3, 1.0, 1.865, 2.5 and 4.109 it is within 3.1e-13 (m = 3/4) and
    5.5e-11 (m = 1/2) relative.  It is not smooth in t at the last digits:
    the closed chord term F(Y) - F(-Y) cancels on the grid's short chords
    by the tip z = 1, so for m = 3/4 two angles two ulps apart at
    t = -0.698 differ by 3.3e-14, 2.8e-13 relative.  Below m = 1/2 the
    grid's end at lambda = 40 shows: at t = 1.0, 2.5 and 4.109 it is
    1.2e-8 to 2.9e-8 off for m = 1/4 and 3e-10 to 7e-10 for m = 0.4.
    """

    def __init__(self, m):
        self.m = float(m)
        self.pref = self.m * (1.0 - self.m) / (2.0 * math.pi)
        self.value_error = _VALUE_ERROR if self.m >= 0.5 else math.inf
        self._grid = _lens_grid(self.m, _POTENTIAL_PANELS, _POTENTIAL_ORDER)
        # A_k by their ratios (see above; inf for m <= 1/2), multiplied in
        # extended precision so the rounding does not drift over 4,000 factors
        k = np.arange(_MULTIPOLE_TERMS, dtype=np.longdouble)
        ratios = np.cumprod(1.0 + (1.0 - 2.0 * self.m) / (k + 1.0 + self.m))
        self._moments = _lens_mass(self.m) * np.append(1.0, ratios.astype(float))

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
        a = np.abs(z)  # far: m > 1/2, in the disk, rho < _MULTIPOLE_REACH
        far = ((self.m > 0.5) & (a < 1.0 - 1e-15)
               & (a < _MULTIPOLE_REACH * np.abs(2.0 - z))
               & (_MULTIPOLE_REACH * np.abs(2.0 * z - 1.0) > 1.0))
        out[:, far] = self._far_field(z[far], gradient)
        if self.pref != 0.0:
            out[:, ~far] = _in_chunks(lambda zz: self._green_block(zz, gradient),
                                      z[~far])
        return out

    def _far_field(self, z, gradient):
        """u_m, with Re G and Im G under ``gradient``, by the multipole series.

        S(zeta) = int log(zeta - w) dsigma_m = M_0 log(zeta - 1/2) - sum_k
        (A_k/k) q^k gives u_m = Re S(z) - Re S(1/conj z) - M_0 log|z| and
        G = 2 d_z u_m; real moments put the reflection at 1/z, q = z/(2 - z).
        """
        A, n = self._moments, z.size
        q = np.concatenate([1.0 / (2.0 * z - 1.0), z / (2.0 - z)])
        T = _series(q, np.append(0.0, -A[1:] / np.arange(1, A.size)))
        u = (A[0] * (np.log(np.abs(2.0 * z - 1.0)) - np.log(np.abs(2.0 - z)))
             + (T[:n] - T[n:]).real)
        if not gradient:
            return u[None]
        R = _series(q, A[1:])  # sum_k A_(k+1) q^k
        q1, rz = q[:n], 1.0 / (2.0 - z)
        G = 2.0 * q1 * (A[0] + q1 * R[:n]) + (A[0] + 2.0 * rz * R[n:]) * rz
        return np.stack([u, G.real, G.imag])

    def balayage(self, t):
        return _in_chunks(self._balayage_block, np.asarray(t, dtype=float))

    def _green_block(self, zz, gradient):
        """u_m on one block of points, with Re G and Im G under ``gradient``.

        The chord integral of g(z, .) has a kink at x = Re z (inside the
        lens) or a bend as wide as the distance to the lens (outside it);
        unsplit, points within 1e-3 of the lens were up to 1e-4 off
        (m = 1/2).  Where the chord end passes the height of z, at x_c with
        Y(x_c) = |Im z|, it bends as sharply for z near the lens boundary
        (2e-6 off at z = 0.99994 + 0.0043i, m = 1/2, without a split there).
        Rows within _KINK_REACH of the lens swap the fixed panels nearest
        both points, in sigma below x = 1/2 and in lambda above, for panels
        graded toward them (``_graded_panels``); rows left of the lens grade
        toward the tip 0.  Farther rows were within 3e-16 of the refined
        grid unsplit.
        """
        x, omx, Y, w = self._grid
        inside = np.abs(zz) < 1.0 - 1e-15
        zz = np.where(inside, zz, 0.0)
        terms = _chord_green(zz[:, None], x, omx, Y, gradient)
        terms = terms if gradient else (terms,)
        split = _kink_grid(zz, self.m)
        for term in terms:
            for rows, dropped, _ in split:
                term[rows[:, None], dropped] = 0.0
        out = np.stack([term @ w for term in terms])
        del terms, term
        for rows, _, (x_g, omx_g, w_g) in split:
            Y_g = np.sqrt(x_g * omx_g)
            terms = _chord_green(zz[rows, None], x_g, omx_g, Y_g, gradient)
            for o, I_g in zip(out, terms if gradient else (terms,)):
                o[rows] += np.einsum("ij,ij->i", I_g, w_g)
        return np.where(inside, self.pref * out, 0.0)

    def _balayage_block(self, t):
        """V on one block of angles.

        Where the chord half-width Y(x) passes |sin t| the chord integral of
        the Poisson kernel steps from about 2 pi cos t to about 0, over a
        lambda-width of about t.  For cos t > 0 and sin^2 t < 1/4 that is at
        lambda* = -log(1 - x*), Y(x*) = |sin t|, and a fixed panel across it
        made V jump (by up to 0.7 % near t = 0) each time lambda* passed a
        Gauss node.  Those angles swap the two fixed panels nearest lambda*
        for panels graded toward it to 2^-_CROSSING_DEPTH
        (``_crossing_grid``; graded to the potential's 2^-12 with 6-point
        panels, V was 6.9e-7 off at t = 9e-6).  The other crossing,
        x ~ sin^2 t at the left tip, is smooth (A = cos t - x ~ 1) and is
        not split.
        """
        _, omx, Y, w = self._grid
        b = np.sin(t)
        ct1 = -2.0 * np.sin(0.5 * t) ** 2
        rows, dropped, omx_g, w_g = _crossing_grid(b, ct1, self.m)
        I = _chord_poisson(b[:, None], ct1[:, None], omx, Y)
        I[rows[:, None], dropped] = 0.0
        out = I @ w
        if rows.size:
            I_g = _chord_poisson(b[rows, None], ct1[rows, None], omx_g,
                                 np.sqrt((1.0 - omx_g) * omx_g))
            out[rows] += np.einsum("ij,ij->i", I_g, w_g)
        return self.pref * out


def _lens_crossing(h2):
    """x <= 1/2 where the lens boundary reaches height h, from h^2 <= 1/4.

    It solves Y(x)^2 = x(1 - x) = h^2; the other root is 1 - x, which this
    form gives without cancellation."""
    return 2.0 * h2 / (1.0 + np.sqrt(1.0 - 4.0 * h2))


def _lambda_split(star, depth, order):
    """``_graded_panels`` on the lambda panels of the lens grid."""
    sigma_edges, lam_edges = _POTENTIAL_PANELS
    return _graded_panels(lam_edges, (sigma_edges.size - 1) * _POTENTIAL_ORDER,
                          star, _CROSSING_TAIL, depth, order, _POTENTIAL_ORDER)


def _kink_grid(z, m):
    """Potential rows split at their kink and crossing, in each layout.

    Returns (rows, the grid columns they drop, their graded nodes) for the
    rows split in sigma and for those split in lambda.  The crossing of a
    real z is the tip x = 1 itself; its graded panels then sit at the end
    of the grid.
    """
    xi = z.real
    near = np.abs(z - 0.5) < 0.5 + _KINK_REACH
    left = np.flatnonzero(near & (xi < 0.5))
    right = np.flatnonzero(near & (xi >= 0.5))
    x_c = _lens_crossing(np.minimum(z.imag ** 2, 0.25))
    with np.errstate(divide="ignore"):
        lam_c = np.minimum(-np.log(x_c[right]), _POTENTIAL_PANELS[1][-1])
    sig = np.stack([np.sqrt(np.maximum(xi[left], 0.0)), np.sqrt(x_c[left])], 1)
    lam = np.stack([-np.log1p(-xi[right]), lam_c], 1)
    drop_l, sig, w_l = _graded_panels(_POTENTIAL_PANELS[0], 0, sig, 0.0,
                                      _KINK_DEPTH, _KINK_ORDER, _POTENTIAL_ORDER)
    drop_r, lam, w_r = _lambda_split(lam, _KINK_DEPTH, _KINK_ORDER)
    return [(left, drop_l, _sigma_nodes(sig, w_l, m)),
            (right, drop_r, _lambda_nodes(lam, w_r, m))]


def _crossing_grid(b, ct1, m):
    """Rows split at lambda*, the grid columns they drop, their graded nodes.

    Where lambda* lies beyond the grid's last edge (|t| below about 2e-9)
    the graded panels run on to lambda* + _CROSSING_TAIL, so V holds down
    to the deepest dyadic shells of the quadrature engine.
    """
    s2 = b * b
    rows = np.flatnonzero((ct1 > -1.0) & (s2 > 0.0) & (s2 < 0.25))
    star = -np.log(_lens_crossing(s2[rows]))
    dropped, lam, w = _lambda_split(star, _CROSSING_DEPTH, _POTENTIAL_ORDER)
    return (rows, dropped, *_lambda_nodes(lam, w, m)[1:])


def _chord_poisson(b, ct1, omx, Y):
    """Integral of the Poisson kernel at e^{it} over the chord at x = 1 - omx.

    With b = sin t and ct1 = cos t - 1 = -2 sin^2(t/2) the integral over
    |y| < Y is

        F(Y) - F(-Y),   F(y) = 2 ct atan((y-b)/A) - (y-b) - b log(A^2+(y-b)^2)

    with A = cos t - x written as A = ct1 + omx, so the cancellation
    cos t - x near t = 0, x = 1 happens in exact arithmetic.  Far chords
    (d^2 beyond (_FAR*Y)^2) switch to the midpoint value of the kernel,
    whose numerator 1 - x^2 = omx(2 - omx) is equally safe.
    """
    ct = 1.0 + ct1
    A = ct1 + omx
    d2 = A * A + b * b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        def F(y):
            s = y - b
            return 2.0 * ct * np.arctan(s / A) - s - b * np.log(A * A + s * s)

        return np.where(d2 > (_FAR * Y) ** 2,
                        2.0 * Y * omx * (2.0 - omx) / d2,
                        F(Y) - F(-Y))


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
