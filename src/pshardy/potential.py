"""Green and Poisson kernels, Riesz measures, and harmonic extensions.

The potential theory here is classical: the Green function of the unit
disk, the Poisson kernel, superpositions of both against finite measures,
and numerical conformal transplantation of harmonic boundary data from
star-shaped Jordan subdomains back to the disk.  Everything downstream
(exhaustion functions, boundary weights, Hardy norms) is assembled from
these pieces.

Normalization
-------------
Riesz masses are stored against Lambda = (1/2pi) * Delta, so the unit
point mass at w has potential exactly g(., w) = log|(z - w)/(1 - z conj w)|
and a subharmonic u with zero boundary values satisfies u = G[Lambda u].
Boundary data is integrated against normalized arclength nu with
nu(circle) = 1, so the harmonic extension of the constant 1 is 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval
from numpy.polynomial.polyutils import trimseq

from .geometry import (
    CONVERGED,
    DIVERGENT,
    QuadratureResult,
    integrate_boundary_arc,
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
    "BoundaryProfile",
    "poisson_extension",
    "poisson_integral",
    "periodic_interpolant",
    "LensPowerDensity",
    "JordanDiskMap",
    "harmonic_extension_via_map",
    "laplacian_probe",
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

    Attributes
    ----------
    atoms : tuple of (location, mass)
        Point masses.  A unit atom at w is the Riesz mass of g(., w).
    density : callable or None
        Vectorized density of the absolutely continuous part against
        plain Lebesgue area (the 1/2pi already folded in).
    density_polar : callable or None
        Optional polar form ``density_polar(center, rho, phi)`` evaluated
        in shell coordinates about the quadrature center.  Densities with
        steep boundary profiles lose all precision when rho must be
        recovered from center + rho*exp(i phi) in floats; the polar form
        bypasses that cancellation.
    interior_singularities, boundary_singularities : tuple of complex
        Declared blowup points of the density, forwarded to quadrature.
    radial_cut : callable or None
        Optional angle -> fraction map restricting each ray from the first
        boundary singularity to the actual support (sub-disk supports).
    support_disk : (complex, float) or None
        When the density vanishes outside an open disk, its center and
        radius.  Region integrals use it to clip their rays at the support
        edge instead of integrating across the density jump.
    radial_profile : callable or None
        For rotation-invariant densities only: the profile lambda(s) with
        density(z) = lambda(|z|).  Declaring it unlocks exact 1D
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
        as it stands, with no second evaluator in front.
    complete : bool
        False when the object deliberately carries only part of the
        distributional Riesz mass (the glued example family does); any
        mass-sensitive operation must reject incomplete measures.
    label : str
        Short identifier used in reports and cache keys.
    """

    atoms: tuple = ()
    density: object = None
    density_polar: object = None
    interior_singularities: tuple = ()
    boundary_singularities: tuple = ()
    radial_cut: object = None
    radial_profile: object = None
    total_mass_hint: object = None
    complete: bool = True
    label: str = ""
    support_disk: object = None
    balayage: object = None

    def has_area_part(self) -> bool:
        return self.density is not None or self.density_polar is not None

    def is_rotation_invariant(self) -> bool:
        """Whether rotations about 0 fix the measure: every atom sits at 0,
        and an area part declares its ``radial_profile``."""
        return (all(loc == 0 for loc, _ in self.atoms)
                and (self.radial_profile is not None or not self.has_area_part()))

    def total_mass(self, *, tol_abs: float = 1e-9, tol_rel: float = 1e-7) -> QuadratureResult:
        """Total mass, atoms plus the area integral of the density."""
        atom_sum = float(sum(m for _, m in self.atoms))
        if not self.has_area_part():
            return QuadratureResult(atom_sum, 0.0, CONVERGED, 0)
        if self.radial_profile is not None:
            lam = self.radial_profile

            def ring(s):
                return 2.0 * math.pi * np.asarray(lam(s), dtype=float) * s

            res = integrate_interval(
                ring, 0.0, 1.0, tol_abs=tol_abs, tol_rel=tol_rel,
                singular_left=True, singular_right=True,
            )
            return QuadratureResult(res.value + atom_sum, res.error, res.status, res.depth)
        res = integrate_disk_area(
            self.density,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            interior_singularities=self.interior_singularities,
            boundary_singularities=self.boundary_singularities,
            radial_cut=self.radial_cut,
            density_polar=self.density_polar,
        )
        return QuadratureResult(res.value + atom_sum, res.error, res.status, res.depth)

    def pair(
        self,
        h,
        *,
        tol_abs: float = 1e-9,
        tol_rel: float = 1e-6,
        extra_interior=(),
    ) -> QuadratureResult:
        """Integral of a real vectorized function h against the measure.

        ``extra_interior`` declares additional singular points of h.  A
        polar density is paired with h at center + rho e^{i phi}.
        """
        total = 0.0
        for loc, m in self.atoms:
            hv = np.asarray(h(np.asarray([complex(loc)], dtype=complex)), dtype=float)
            total += m * float(hv.reshape(-1)[0])
        if not self.has_area_part():
            return QuadratureResult(total, 0.0, CONVERGED, 0)

        dens = self.density

        def prod(zv):
            return np.asarray(dens(zv), dtype=float) * np.asarray(h(zv), dtype=float)

        prod_polar = None
        if self.density_polar is not None:
            dpol = self.density_polar

            def prod_polar(c, rho, phi):
                zv = c + rho * np.exp(1j * phi)
                return np.asarray(dpol(c, rho, phi), dtype=float) * np.asarray(
                    h(zv), dtype=float
                )

        res = integrate_disk_area(
            prod,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            interior_singularities=tuple(self.interior_singularities) + tuple(extra_interior),
            boundary_singularities=self.boundary_singularities,
            radial_cut=self.radial_cut,
            density_polar=prod_polar,
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
        dens = None
        if self.density is not None:
            base = self.density
            dens = lambda zv, _f=base: a * np.asarray(_f(zv), dtype=float)
        dpol = None
        if self.density_polar is not None:
            basep = self.density_polar
            dpol = lambda c, r, p, _f=basep: a * np.asarray(_f(c, r, p), dtype=float)
        prof = None
        if self.radial_profile is not None:
            basel = self.radial_profile
            prof = lambda s, _f=basel: a * np.asarray(_f(s), dtype=float)
        bal = None
        if self.balayage is not None:
            baseb = self.balayage
            bal = lambda t, _f=baseb: a * np.asarray(_f(t), dtype=float)
        hint = None if self.total_mass_hint is None else a * float(self.total_mass_hint)
        label = f"scaled:{a:g}:{self.label}" if self.label else f"scaled:{a:g}"
        return replace(
            self,
            atoms=atoms,
            density=dens,
            density_polar=dpol,
            radial_profile=prof,
            total_mass_hint=hint,
            balayage=bal,
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
        out = np.real(polyval(np.exp(-1j * np.asarray(t, dtype=float)), series))
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
# ---------------------------------------------------------------------------

CHUNK = 1024  # points per block of a batch evaluation
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
    """
    ac_re = A * C + B * D  # a conj(c)
    ac_im = B * C - A * D
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log((A + C) ** 2 + (B + D) ** 2)
        N2 = (A - C) ** 2 + (B - D) ** 2
        ln = np.log(N2)
        s = 4.0 * ac_re / N2
        small = np.abs(s) < 0.5
        two_re_L = np.log1p(s, where=small, out=np.empty_like(s))
        np.subtract(lp, ln, where=~small, out=two_re_L)
        im_L = np.arctan2(-2.0 * ac_im, (A + C) * (A - C) + (B + D) * (B - D))
        return Y * ((0.5 * two_re_L * ac_re - im_L * ac_im) / (C * C + D * D)
                    + 0.5 * (lp + ln) - 2.0)


def _chord_green(z, x, omx, Y):
    """Integral of g(z, x + iy) over |y| < Y, the Green kernel on one chord.

    g = log|z - w| - log|1 - conj(z) w| splits into two chord terms,
    a = z - x, b = -i and a = 1 - conj(z) x, b = -i conj(z); the second
    vanishes at z = 0, and both at the zero-width chords Y = 0 that empty
    graded panels put at x = 0.  Near x = 1 the real parts Re z - x and
    1 - Re(z) x are taken from 1 - x, which the lambda nodes carry to full
    relative accuracy.
    """
    xi, eta = z.real, z.imag
    omxi = 1.0 - xi
    dx = np.where(x < 0.5, xi - x, omx - omxi)
    direct = _chord_log(dx, eta, 0.0, -Y, Y)
    reflected = _chord_log(omxi + xi * omx, eta * x, -eta * Y, -xi * Y, Y)
    reflected[np.broadcast_to(z == 0.0, reflected.shape)] = 0.0
    return np.where(Y > 0.0, direct - reflected, 0.0)


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
    """Apply a vectorized block evaluator to CHUNK points at a time."""
    flat = points.ravel()
    out = np.empty(flat.size)
    for i0 in range(0, flat.size, CHUNK):
        out[i0:i0 + CHUNK] = block(flat[i0:i0 + CHUNK])
    return out.reshape(points.shape)


class LensPowerDensity:
    """The density m(1-m)/(2 pi) (1 - x)^(m-2) dA on |z - 1/2| < 1/2.

    This is the Riesz mass of the worked example u_m.  One grid of its
    chords (``_lens_grid`` on _POTENTIAL_PANELS) carries both of its
    evaluators, each chord term in closed form.

    ``green_potential`` is the one evaluator of u_m: each point within
    _KINK_REACH of the lens splits the grid at x = Re z and where the lens
    boundary passes its height (see ``_green_block``), with each chord term
    in a form free of float cancellation (``_chord_log``).  Against a
    40-digit mpmath reference it is within 1.3e-14 (m = 3/4) and 1.9e-13
    (m = 1/2) at 73 points inside the lens, 1e-6 to 1e-1 outside it, by the
    tip z = 1, by the circle and within 1e-7 of z = 0, and within 1e-15 at
    six points each for m = 0.6 and 0.9.  ``value_error`` bounds it for
    m >= 1/2 (see _VALUE_ERROR).  Below m = 1/2 it is inf: the grid ends at
    lambda = 40, and at z = 0.99999 + 3e-6i it was 3e-12 off for m = 0.4
    and 1.1e-9 for m = 1/4 (60-digit reference), a gap that grows toward
    the tip.

    ``balayage`` is the one evaluator of its Poisson balayage V(e^{it}):
    each angle near t = 0 splits the grid where the chords cross e^{it}
    (see ``_balayage_block``).  Against a 30-digit mpmath reference at
    t = 0.3, 1.0, 1.865, 2.5 and 4.109 it is within 3.1e-13 (m = 3/4) and
    5.5e-11 (m = 1/2) relative, and it is smooth in t.
    """

    def __init__(self, m):
        self.m = float(m)
        self.pref = self.m * (1.0 - self.m) / (2.0 * math.pi)
        self.value_error = _VALUE_ERROR if self.m >= 0.5 else math.inf
        self._grid = _lens_grid(self.m, _POTENTIAL_PANELS, _POTENTIAL_ORDER)

    def green_potential(self, z):
        z = np.asarray(z, dtype=complex)
        if self.pref == 0.0:
            return np.zeros(z.shape)
        return _in_chunks(self._green_block, z)

    def balayage(self, t):
        return _in_chunks(self._balayage_block, np.asarray(t, dtype=float))

    def _green_block(self, zz):
        """u_m on one block of points.

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
        I = _chord_green(zz[:, None], x, omx, Y)
        split = _kink_grid(zz, self.m)
        for rows, dropped, _ in split:
            I[rows[:, None], dropped] = 0.0
        out = I @ w
        for rows, _, (x_g, omx_g, w_g) in split:
            Y_g = np.sqrt(x_g * omx_g)
            I_g = _chord_green(zz[rows, None], x_g, omx_g, Y_g)
            out[rows] += np.einsum("ij,ij->i", I_g, w_g)
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
# Boundary data: uniform spectral sampling, Poisson extension, CSV exchange.
# ---------------------------------------------------------------------------

_MIN_PROFILE = 256


@dataclass
class BoundaryProfile:
    """Real boundary data sampled on the uniform angular grid.

    The grid is theta_j = 2 pi j / n for j = 0 .. n-1 (endpoint-exclusive)
    with n a power of two and at least 256 — the sizes the spectral
    routines expect.  ``mean()`` is the integral against normalized
    arclength, exact for trigonometric polynomials of degree < n.
    """

    thetas: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        n = t.size
        if n < _MIN_PROFILE or (n & (n - 1)) != 0:
            raise ValueError(
                f"profile needs a power-of-two sample count >= {_MIN_PROFILE}, got {n}"
            )
        if v.shape != t.shape:
            raise ValueError("thetas and values must have matching shapes")
        want = 2.0 * math.pi * np.arange(n) / n
        if not np.allclose(t, want, rtol=0.0, atol=1e-9):
            raise ValueError("thetas must be the uniform endpoint-exclusive grid on [0, 2pi)")
        self.thetas = want
        self.values = v

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def from_function(cls, fn, n: int = 1024, *, singular_points=(), singular_fill: float = 0.0, label: str = ""):
        """Sample fn(theta) on the uniform n-grid.

        Grid nodes that collide with a declared singular angle (within
        1e-12) are not evaluated; they take ``singular_fill`` instead, so
        integrable boundary blowups can be sampled without producing inf.
        """
        t = 2.0 * math.pi * np.arange(n) / n
        mask = np.zeros(n, dtype=bool)
        two_pi = 2.0 * math.pi
        for s in singular_points:
            d = np.abs((t - float(s) + math.pi) % two_pi - math.pi)
            mask |= d < 1e-12
        vals = np.empty(n, dtype=float)
        if mask.any():
            vals[mask] = float(singular_fill)
        good = ~mask
        if good.any():
            vals[good] = np.asarray(fn(t[good]), dtype=float)
        return cls(t, vals, label=label)

    def mean(self) -> float:
        return float(np.mean(self.values))

    def fourier_coefficients(self) -> np.ndarray:
        """One-sided coefficients c_k = (1/n) sum_j values_j e^{-ik theta_j}."""
        return np.fft.rfft(self.values) / self.n

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "value"])
            for t, v in zip(self.thetas, self.values):
                writer.writerow([repr(float(t)), repr(float(v))])

    @classmethod
    def from_csv(cls, path, label: str = ""):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["theta", "value"]:
            raise ValueError("profile CSV must start with the header 'theta,value'")
        body = [(float(a), float(b)) for a, b in rows[1:]]
        arr = np.array(body, dtype=float)
        return cls(arr[:, 0], arr[:, 1], label=label)


def _analytic_coefficients(values) -> np.ndarray:
    """One-sided series [c_0, 2c_1, ..., 2c_{n/2-1}, c_{n/2}] of uniform samples.

    c_k = (1/n) sum_j values_j e^{-2 pi i jk/n}, with the mean and the
    Nyquist term taken real.  The series a is analytic in the disk and
    Re sum_k a_k e^{ik theta} is the trigonometric interpolant of the
    samples.  Trailing coefficients that are exactly zero are dropped (at
    least one is kept), so Horner evaluation stops at the last nonzero
    term: a constant costs one step.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    c = np.fft.rfft(values) / n
    c[1 : (n + 1) // 2] *= 2.0
    c[0] = c[0].real
    if n % 2 == 0:
        c[-1] = c[-1].real
    return trimseq(c)


def poisson_extension(profile: BoundaryProfile):
    """Spectral harmonic extension of a sampled boundary profile.

    Returns a vectorized evaluator h(z) = Re sum_k a_k z^k, the real part of
    the analytic series of ``_analytic_coefficients`` (shared with
    ``periodic_interpolant`` and ``JordanDiskMap``): the harmonic extension
    of the trigonometric interpolant of the samples, exact for
    band-limited data and matching the samples on the boundary grid.
    """
    coeffs = _analytic_coefficients(profile.values)

    def h(z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1.0 + 1e-12):
            raise ValueError("harmonic extension evaluated outside the closed disk")
        out = np.real(polyval(z, coeffs))
        return float(out) if out.ndim == 0 else out

    h.profile = profile
    return h


def poisson_integral(data, z, *, singular_points=(), tol_abs: float = 1e-10, tol_rel: float = 1e-8):
    """Harmonic extension of real boundary data, evaluated at z.

    ``data`` is either a BoundaryProfile (evaluated spectrally; z may be
    an array) or a callable theta -> values (integrated adaptively
    against the Poisson kernel at a single point, honoring declared
    singular angles).  A divergent Poisson integral of one-signed data
    comes back as a signed infinity rather than an overflow.
    """
    if isinstance(data, BoundaryProfile):
        return poisson_extension(data)(z)
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must lie in the open unit disk")

    def integrand(theta):
        zeta = np.exp(1j * theta)
        return np.asarray(data(theta), dtype=float) * poisson_kernel(z, zeta)

    res = integrate_boundary_arc(
        integrand,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        singular_points=singular_points,
    )
    if res.status == DIVERGENT:
        return math.copysign(math.inf, res.value if res.value != 0.0 else 1.0)
    return res.value


def periodic_interpolant(samples):
    """Trigonometric interpolant of uniform periodic samples.

    Returns a vectorized callable on angles, exact at the sample grid
    theta_j = 2 pi j / n.  Turns traced level-curve radii into the smooth
    radius function the conformal mapping iteration needs.
    """
    coeffs = _analytic_coefficients(samples)

    def f(theta):
        out = np.real(polyval(np.exp(1j * np.asarray(theta, dtype=float)), coeffs))
        return float(out) if out.ndim == 0 else out

    return f


# ---------------------------------------------------------------------------
# Conformal map onto a star-shaped Jordan domain via the conjugation
# (Theodorsen) iteration, with spectral coefficients and Newton inverse.
# ---------------------------------------------------------------------------


class JordanDiskMap:
    """Riemann map F from the unit disk onto a star-shaped Jordan domain.

    The target is described by a center and a smooth radius function
    R(theta) > 0: its boundary is the curve center + R(theta) e^{i theta}.
    The map is normalized by F(0) = center, F'(0) > 0 and represented as
    F(z) = center + z exp(G(z)) with G the analytic series that
    ``_analytic_coefficients`` builds from the samples of log R(theta(t))
    (the layout ``poisson_extension`` and ``periodic_interpolant`` share),
    so Re G(e^{it}) = log R(theta(t)), where theta(t) is the boundary
    correspondence fixed point of

        theta(t) = t + H[log R o theta](t),

    H being the circle conjugation operator applied spectrally.  The
    iteration contracts when |d/dtheta log R| stays below 1, which all
    the near-circular level curves in this package satisfy with room.

    Attributes after construction: ``univalent`` (grid check that the
    boundary correspondence is strictly increasing), ``boundary_residual``
    (max distance between F(e^{it}) and the prescribed curve on the grid),
    ``iterations`` (count used by the fixed point loop).
    """

    def __init__(self, center, radius_fn, *, n: int = 1024, maxiter: int = 200, tol: float = 5e-14):
        if n < _MIN_PROFILE or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= {_MIN_PROFILE}")
        self.center = complex(center)
        self.n = int(n)
        t = 2.0 * math.pi * np.arange(n) / n

        def rho(th):
            rr = np.asarray(radius_fn(th), dtype=float)
            if np.any(rr <= 0.0) or not np.all(np.isfinite(rr)):
                raise ValueError("radius function must be finite and positive")
            return np.log(rr)

        theta = t.copy()
        step = 1.0
        prev_delta = math.inf
        delta = math.inf
        for it in range(1, maxiter + 1):
            target = t + _conjugate_samples(rho(theta))
            delta = float(np.max(np.abs(target - theta)))
            theta = theta + step * (target - theta)
            if delta < tol:
                break
            if delta > prev_delta and step > 0.49:
                # fall back to damped iteration near the contraction margin
                step = 0.5
            prev_delta = delta
        else:
            raise ValueError(
                "boundary correspondence iteration did not converge; "
                "the curve is too far from circular for this map"
            )
        self.iterations = it
        self.theta_of_t = theta

        self._gcoeffs = _analytic_coefficients(rho(theta))
        self._gprime = polyder(self._gcoeffs)

        dtheta = _spectral_derivative(theta - t) + 1.0
        self.univalent = bool(np.min(dtheta) > 0.0)
        self.correspondence_min_slope = float(np.min(dtheta))

        circle = np.exp(1j * t)
        want = self.center + np.asarray(radius_fn(theta), dtype=float) * np.exp(1j * theta)
        self.boundary_residual = float(np.max(np.abs(self.forward(circle) - want)))

    # -- evaluation -------------------------------------------------------

    def forward(self, z):
        """F(z) for z in the closed unit disk (vectorized)."""
        z = np.asarray(z, dtype=complex)
        out = self.center + z * np.exp(polyval(z, self._gcoeffs))
        return complex(out) if out.ndim == 0 else out

    def derivative(self, z):
        """F'(z) = exp(G(z)) (1 + z G'(z)) (vectorized)."""
        z = np.asarray(z, dtype=complex)
        out = np.exp(polyval(z, self._gcoeffs)) * (1.0 + z * polyval(z, self._gprime))
        return complex(out) if out.ndim == 0 else out

    def boundary_point(self, t):
        """F(e^{it}), the parametrized image boundary."""
        return self.forward(np.exp(1j * np.asarray(t, dtype=float)))

    @property
    def derivative_at_center(self) -> float:
        """F'(0) = exp(g_0) > 0, the conformal radius factor."""
        return float(math.exp(self._gcoeffs[0].real))

    def inverse(self, w, *, tol: float = 1e-12, maxiter: int = 60):
        """Newton solve of F(z) = w for w inside the image domain.

        Vectorized over w; iterates are kept inside the closed disk.
        Raises ValueError when some component fails to reach the
        tolerance (w outside the domain, typically).
        """
        wa = np.asarray(w, dtype=complex)
        scalar = wa.ndim == 0
        ww = np.atleast_1d(wa).astype(complex)
        scale = max(self.derivative_at_center, 1e-12)
        z = (ww - self.center) / scale
        mag = np.abs(z)
        np.divide(z, mag, out=z, where=mag > 1.0 - 1e-15)
        z[mag > 1.0 - 1e-15] *= 1.0 - 1e-12
        for _ in range(maxiter):
            resid = self.forward(z) - ww
            if np.max(np.abs(resid)) <= tol * max(scale, 1.0):
                break
            dz = resid / self.derivative(z)
            # limit steps so iterates stay in the closed disk
            z = z - dz
            mag = np.abs(z)
            bad = mag > 1.0
            if np.any(bad):
                z[bad] = z[bad] / mag[bad] * (1.0 - 1e-14)
        else:
            raise ValueError("inverse map did not converge; point may be outside the domain")
        return complex(z[0]) if scalar else z.reshape(wa.shape)


def _conjugate_samples(x: np.ndarray) -> np.ndarray:
    """Circle conjugation of real uniform samples: multiplier -i sgn(k)."""
    n = x.size
    X = np.fft.rfft(x)
    mult = np.full(X.shape, -1j)
    mult[0] = 0.0
    if n % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(X * mult, n)


def _spectral_derivative(x: np.ndarray) -> np.ndarray:
    """d/dt of a smooth periodic sample vector, spectrally."""
    n = x.size
    X = np.fft.rfft(x)
    k = np.arange(X.size, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0  # drop the Nyquist derivative (sign-ambiguous)
    return np.fft.irfft(X * (1j * k), n)


def harmonic_extension_via_map(disk_map: JordanDiskMap, boundary_data, *, n: int | None = None):
    """Harmonic extension of data given on a mapped Jordan boundary.

    ``boundary_data(points)`` takes curve points (complex array) and
    returns real values.  The extension is computed by sampling the data
    along the parametrized boundary, extending spectrally on the disk,
    and pulling evaluation points back through the Newton inverse.  The
    returned callable acts on points of the image domain; its
    ``disk_evaluator`` attribute is the extension in disk coordinates.
    """
    m = disk_map.n if n is None else int(n)
    t = 2.0 * math.pi * np.arange(m) / m
    pts = disk_map.boundary_point(t)
    vals = np.asarray(boundary_data(pts), dtype=float)
    profile = BoundaryProfile(t, vals)
    ext = poisson_extension(profile)

    def h(w):
        return ext(disk_map.inverse(w))

    h.disk_evaluator = ext
    h.profile = profile
    return h


def laplacian_probe(u, z, h: float = 1e-4) -> float:
    """Five-point estimate of (Delta u) / (2 pi) at z — the Riesz density.

    ``u`` must accept a complex array.  Truncation error is O(h^2); with
    the default step the roundoff amplification stays near 1e-8, well
    inside the 1e-3 the recovery checks ask for.
    """
    z = complex(z)
    pts = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z], dtype=complex)
    vals = np.asarray(u(pts), dtype=float)
    lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4.0 * vals[4]) / (h * h)
    return float(lap / (2.0 * math.pi))
