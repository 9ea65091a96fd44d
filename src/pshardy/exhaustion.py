"""Exhaustion functions on the unit disk and their sublevel machinery.

An exhaustion here is a negative subharmonic function u on the disk whose
sublevel sets B_c = {u < c} are compactly contained for every c < 0.  The
module builds the standard families (logarithm, radial profiles, Green
potentials, the one-parameter power examples), traces sublevel boundaries
S_c = {u = c}, and assembles the boundary measure mu_c swept onto S_c by
the Riesz mass of u.  The measure is represented through a conformal chart
of B_c together with the Fourier moments of the chart pullback of the
Riesz mass, which yields the boundary density and makes the two-sided
Jensen-Lelong bookkeeping checkable at desk scale.
"""

import functools
import math
from dataclasses import replace

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import ndimage
from scipy.optimize import brentq, minimize_scalar
from scipy.special import beta as beta_function

from .geometry import (
    MoebiusAutomorphism,
    QuadratureResult,
    _ray_lengths,
    integrate_disk_area,
    integrate_interval,
)
from .potential import (
    InvalidParameter,
    JordanDiskMap,
    LensPowerDensity,
    RieszMeasure,
    green_function,
    green_potential,
    periodic_interpolant,
    poisson_balayage,
)

__all__ = [
    "InvalidParameter",
    "EmptyLevel",
    "UnsupportedRegion",
    "ExhaustionSpec",
    "LevelSet",
    "DemaillyMeasure",
    "radial_log",
    "radial_smooth",
    "green_exhaustion",
    "scaled_exhaustion",
    "pullback_exhaustion",
    "make_example",
    "sublevel_set",
    "pair_over_sublevel",
    "area_integral_over_sublevel",
    "demailly_measure",
    "density_uc",
    "djl_both_sides",
]


class EmptyLevel(ValueError):
    """The requested sublevel set {u < c} is empty."""


class UnsupportedRegion(RuntimeError):
    """The sublevel region is not a single star-shaped Jordan domain."""


def _power_density(m, inside):
    """(density, density_polar) of m(1-m)(1-x)^{m-2} dA/2pi on {inside(w)}.

    The polar form takes shell coordinates about the boundary point 1,
    where 1 - x = -rho cos(phi) exactly.
    """
    pref = m * (1.0 - m) / (2.0 * math.pi)

    def dens(w):
        w = np.asarray(w, dtype=complex)
        good = inside(w)
        safe = np.where(good, 1.0 - w.real, 1.0)
        return np.where(good, pref * safe ** (m - 2.0), 0.0)

    def dens_polar(center, rho, phi):
        omx = -rho * np.cos(phi)
        good = omx > 0.0
        return np.where(good, pref * np.where(good, omx, 1.0) ** (m - 2.0), 0.0)

    return dens, dens_polar


def _lens_measure(m):
    """Riesz measure of the lens power example in unit-mass normalization."""
    dens, dens_polar = _power_density(m, lambda w: np.abs(w - 0.5) < 0.5)
    hint = math.inf  # the mass diverges at the tip for m <= 1/2
    if m > 0.5:
        hint = 2.0 * m * (1.0 - m) * beta_function(1.5, m - 0.5) / (2.0 * math.pi)
    return RieszMeasure(
        density=dens,
        density_polar=dens_polar,
        boundary_singularities=(1.0 + 0.0j,),
        radial_cut=lambda phi: np.full(np.shape(phi), 0.5),
        total_mass_hint=hint,
        label=f"lens-power:{m:g}",
        support_disk=(0.5 + 0.0j, 0.5),
    )


def _phim_measure(m):
    """Full-disk Riesz measure of the power profile -(1 - Re z)^m."""
    dens, dens_polar = _power_density(m, lambda w: np.abs(w) < 1.0)
    hint = None
    if m > 0.5:
        def chord_weighted(x):
            # (1-x)^(m-2) * sqrt(1-x^2) merged into one power of (1-x) so the
            # endpoint stays a plain integrable singularity without overflow.
            omx = np.maximum(1.0 - x, 1e-300)
            return m * (1.0 - m) / math.pi * omx ** (m - 1.5) * np.sqrt(np.maximum(1.0 + x, 0.0))

        res = integrate_interval(
            chord_weighted, -1.0, 1.0, singular_left=True, singular_right=True,
            tol_abs=1e-12, tol_rel=1e-12,
        )
        hint = res.value
    return RieszMeasure(
        density=dens,
        density_polar=dens_polar,
        boundary_singularities=(1.0 + 0.0j,),
        total_mass_hint=hint,
        label=f"power-profile:{m:g}",
    )


def _vm_point(z, m, tol=1e-12):
    """The glued example: the power profile on the lens, harmonic outside.

    Outside the lens the value is the harmonic extension of the profile's
    lens-boundary trace with zero data on the unit circle.  The crescent
    between the two circles maps to a vertical strip under 1/(1-z) and on
    to a half plane, where the extension is a single rapidly converging
    Poisson integral.
    """
    z = complex(z)
    if abs(z - 0.5) <= 0.5 + 1e-14:
        return -((1.0 - z.real) ** m)
    if abs(z) >= 1.0 - 1e-14:
        return 0.0
    w = 1.0 / (1.0 - z)
    s = 2.0 * w - 1.0
    zeta = np.exp(1j * math.pi * s)
    X, Yz = zeta.real, zeta.imag

    # Poisson pairing against data D(tau) = (1 + v^2)^(-m), tau = e^(-2 pi v),
    # on the half line.  The angle substitution tau = -X + Y tan(psi) absorbs
    # the kernel exactly, so the integrand stays bounded even when the point
    # sits a hair outside the lens and the kernel is nearly a delta.
    psi0 = math.atan2(X, Yz)

    def g(psi):
        tau = np.maximum(-X + Yz * np.tan(psi), 1e-300)
        v = -np.log(tau) / (2.0 * math.pi)
        return (1.0 + v * v) ** (-m)

    res = integrate_interval(g, psi0, 0.5 * math.pi, tol_abs=tol, tol_rel=tol,
                             singular_left=True, singular_right=True)
    return -res.value / math.pi


# ---------------------------------------------------------------------------
# The exhaustion container.
# ---------------------------------------------------------------------------


class ExhaustionSpec:
    """A subharmonic exhaustion with its Riesz measure and its evaluator.

    ``evaluate`` is vectorized, and the one evaluator of u: curve tracing,
    minimization and frozen-value checks all use it.  ``value_error``
    bounds |evaluate(z) - u(z)| everywhere in the disk; it is measured
    against a reference outside the package, or inf where nothing bounds
    it.  ``min_value``/``min_point`` locate the minimum (min_value may be
    -inf for atomic mass), and the minimum point doubles as the star center
    for sublevel tracing.

    Everything else reads ``measure``: the boundary weight (derived
    exhaustions a * u and u composed with a disk automorphism, and the
    lens example, carry what it needs on their Riesz measure; see
    ``potential.poisson_balayage``), and rotation invariance, which the
    measure states (``RieszMeasure.is_rotation_invariant``) and which turns
    a level about min_point = 0 into one circle.
    """

    def __init__(self, label, evaluate, measure, *, min_value, min_point,
                 value_error, is_exhaustion=True):
        self.label = label
        self._evaluate = evaluate
        self.measure = measure
        self.min_value = float(min_value)
        self.min_point = complex(min_point)
        self.is_exhaustion = bool(is_exhaustion)
        self.value_error = float(value_error)
        self._levels = {}
        self._demailly = {}

    def __call__(self, z):
        return self._evaluate(np.asarray(z, dtype=complex))

    def __repr__(self):
        return f"ExhaustionSpec({self.label!r})"

    def sublevel(self, c, samples=512, grid_check="auto"):
        key = (round(float(c), 15), int(samples))
        if key not in self._levels:
            self._levels[key] = sublevel_set(
                self, c, samples=samples, grid_check=grid_check
            )
        return self._levels[key]

    def demailly(self, c, samples=512):
        key = (round(float(c), 15), int(samples))
        if key not in self._demailly:
            self._demailly[key] = demailly_measure(self, c, samples=samples)
        return self._demailly[key]


def radial_log():
    """u = log|z|, the unit point mass at the origin."""
    measure = RieszMeasure(atoms=((0.0 + 0.0j, 1.0),), label="log")

    def ev(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        with np.errstate(divide="ignore"):
            return np.where(r >= 1.0, 0.0, np.log(np.where(r > 0, r, 1e-300)))

    return ExhaustionSpec(
        "log", ev, measure,
        min_value=-math.inf, min_point=0.0,
        value_error=0.0,
    )


def radial_smooth(profile, label, *, n_panels=400, gl_order=12):
    """Rotation-invariant exhaustion from a plain radial Laplacian profile.

    ``profile(s)`` is the ordinary Laplacian on radius s (vectorized,
    integrable near both endpoints after the s ds weight).  The potential
    is recovered from the exact one-dimensional reduction
    u(r) = M(r) log r + T(r) with M the cumulative (2 pi-normalized) mass
    and T the outer log moment, both tabulated once on a composite Gauss
    grid and interpolated with splines.
    """
    from scipy.interpolate import CubicSpline

    glx, glw = np.polynomial.legendre.leggauss(gl_order)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halfs[:, None] * glx[None, :]
    wts = halfs[:, None] * glw[None, :]
    svals = profile(nodes.ravel()).reshape(nodes.shape)
    with np.errstate(divide="ignore"):
        logs = np.where(nodes > 0, np.log(np.where(nodes > 0, nodes, 1.0)), 0.0)
    m_pan = np.sum(nodes * svals * wts, axis=1)
    t_pan = np.sum(nodes * svals * logs * wts, axis=1)
    M_edges = np.concatenate([[0.0], np.cumsum(m_pan)])
    T_edges = np.concatenate([[np.sum(t_pan)], np.sum(t_pan) - np.cumsum(t_pan)])
    M_sp = CubicSpline(edges, M_edges)
    T_sp = CubicSpline(edges, T_edges)
    total = M_edges[-1]

    def u_r(r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, 1.0)
        safe = np.maximum(rc, 1e-300)
        out = M_sp(rc) * np.log(safe) + T_sp(rc)
        return np.where(rc < 1e-12, T_edges[0], np.where(r >= 1.0, 0.0, out))

    def ev(z):
        z = np.asarray(z, dtype=complex)
        return u_r(np.abs(z))

    def lam(s):
        s = np.asarray(s, dtype=float)
        return profile(s) / (2.0 * math.pi)

    measure = RieszMeasure(
        density=lambda w: lam(np.abs(np.asarray(w, dtype=complex))),
        radial_profile=lam,
        interior_singularities=(0.0 + 0.0j,),
        total_mass_hint=total,
        label=label,
    )
    return ExhaustionSpec(
        label, ev, measure,
        min_value=float(T_edges[0]), min_point=0.0,
        value_error=1e-10,
    )


# Four times the largest gap, 1.3e-10, between the adaptive Green potential
# at tol_abs 1e-12, tol_rel 1e-10 and at 1e-14 on 12 seeded points of the
# Gaussian bump exp(-|w - 0.4|^2/0.02)/(2 pi) (the measure of
# test_weight_from_moments_matches_poisson_balayage).
_AREA_VALUE_ERROR = 5.2e-10


def green_exhaustion(measure, label=None):
    """Exhaustion u = Green potential of a finite Riesz measure.

    Atom-only measures evaluate in closed form; measures with an area part
    fall back to per-point adaptive quadrature (tol_abs 1e-12, tol_rel
    1e-10), which is accurate but slow in batch settings.  Its
    ``value_error`` is _AREA_VALUE_ERROR.
    """
    if not isinstance(measure, RieszMeasure):
        raise InvalidParameter("green_exhaustion expects a RieszMeasure")
    if not measure.complete:
        raise InvalidParameter("the Riesz measure must be complete")
    label = label or f"green-potential:{measure.label or 'measure'}"
    atoms_only = bool(measure.atoms) and not measure.has_area_part()
    if atoms_only:
        locs = np.array([a[0] for a in measure.atoms], dtype=complex)
        masses = np.array([a[1] for a in measure.atoms], dtype=float)

        def ev(z):
            z = np.asarray(z, dtype=complex)
            out = np.zeros(z.shape, dtype=float)
            for loc, mass in zip(locs, masses):
                out = out + mass * green_function(z, loc)
            return np.where(np.abs(z) >= 1.0, 0.0, out)

        center = complex(locs[0])
        err = 0.0
    else:
        def ev(z):
            z = np.asarray(z, dtype=complex)
            vals = [green_potential(measure, zz, tol_abs=1e-12, tol_rel=1e-10)
                    for zz in z.ravel()]
            return np.array(vals).reshape(z.shape)

        err = _AREA_VALUE_ERROR
        if measure.atoms:
            center = measure.atoms[0][0]
        else:
            # Star center heuristic for pure densities: the mass centroid.
            # The true minimum is not located, so empty levels surface as
            # bracket failures rather than EmptyLevel.
            moment, _, _ = measure.pair_complex(lambda w: w)
            mass = measure.total_mass()
            center = moment / mass.value if mass.value > 0 else 0.0
    return ExhaustionSpec(
        label, ev, measure,
        min_value=-math.inf,
        min_point=center,
        is_exhaustion=True,
        value_error=err,
    )


def scaled_exhaustion(a, inner):
    """a * u for a > 0; sublevels obey B_{c, a u} = B_{c/a, u}."""
    a = float(a)
    if not a > 0.0 or not math.isfinite(a):
        raise InvalidParameter("scale factor must be positive and finite")

    def ev(z):
        return a * inner._evaluate(np.asarray(z, dtype=complex))

    return ExhaustionSpec(
        f"scaled:{a:g}:{inner.label}", ev, inner.measure.scaled(a),
        min_value=a * inner.min_value, min_point=inner.min_point,
        is_exhaustion=inner.is_exhaustion,
        value_error=a * inner.value_error,
    )


def pullback_exhaustion(automorphism, inner):
    """u composed with a disk automorphism.

    The Riesz mass transforms with the Jacobian |phi'|^2 on densities and
    by preimages on atoms, so norms built on the pullback match the inner
    exhaustion's norms composed with the map.  A pulled area part carries
    the transported balayage V(phi(e^{it})) |phi'(e^{it})| of the inner
    measure, whose mass it keeps; atoms alone just move.
    """
    if not isinstance(automorphism, MoebiusAutomorphism):
        raise InvalidParameter("pullback needs a MoebiusAutomorphism")
    mob = automorphism

    def ev(z):
        return inner._evaluate(mob.forward(np.asarray(z, dtype=complex)))

    atoms = tuple(
        (complex(mob.inverse(loc)), mass) for loc, mass in inner.measure.atoms
    )
    dens = inner.measure.density
    new_dens = None
    if dens is not None:
        def new_dens(w):
            w = np.asarray(w, dtype=complex)
            return dens(mob.forward(w)) * np.abs(mob.derivative(w)) ** 2

    interior = tuple(
        complex(mob.inverse(s)) for s in inner.measure.interior_singularities
    )
    boundary = tuple(
        complex(mob.inverse(s)) for s in inner.measure.boundary_singularities
    )
    swept = None
    if inner.measure.has_area_part():
        # the inner balayage is built on first use: its moments may be costly
        inner_sweep = functools.cache(
            lambda: poisson_balayage(inner.measure)[1])

        def swept(t):
            zeta = np.exp(1j * np.asarray(t, dtype=float))
            return (np.asarray(inner_sweep()(np.angle(mob.forward(zeta))),
                               dtype=float)
                    * np.abs(mob.derivative(zeta)))

    measure = RieszMeasure(
        atoms=atoms,
        density=new_dens,
        interior_singularities=interior,
        boundary_singularities=boundary,
        total_mass_hint=inner.measure.total_mass_hint,
        complete=inner.measure.complete,
        label=f"pullback:{inner.measure.label}",
        balayage=swept,
    )
    return ExhaustionSpec(
        f"pullback:{mob.a.real:g}{mob.a.imag:+g}i:{inner.label}",
        ev, measure,
        min_value=inner.min_value,
        min_point=complex(mob.inverse(inner.min_point)),
        is_exhaustion=inner.is_exhaustion,
        value_error=inner.value_error,
    )


_POWER_CACHE = {}


def _power_state(m):
    """The lens density of u_m with the minimum value and point of u_m."""
    key = round(float(m), 12)
    if key not in _POWER_CACHE:
        density = LensPowerDensity(m)
        if m == 1.0:
            minval, minpt = 0.0, 0.0
        else:
            res = minimize_scalar(
                lambda x: float(density.green_potential(np.array([x + 0j]))[0]),
                bounds=(1e-6, 1.0 - 1e-9), method="bounded",
                options={"xatol": 1e-11},
            )
            minval, minpt = float(res.fun), float(res.x)
        _POWER_CACHE[key] = (density, minval, minpt)
    return _POWER_CACHE[key]


def make_example(kind, m):
    """The worked one-parameter family on the disk.

    kind selects among the power profile ("phi_m"), its lens-restricted
    Riesz measure ("sigma_m"), the glued exhaustion ("v_m"), and the Green
    potential of the lens measure ("u_m").  The measure kinds return a
    RieszMeasure; the others return an ExhaustionSpec.
    """
    norm = str(kind).replace("_", "").replace("-", "").lower()
    if norm not in {"phim", "sigmam", "vm", "um"}:
        raise InvalidParameter(f"unknown example kind: {kind!r}")
    m = float(m)
    if not 0.0 < m <= 1.0:
        raise InvalidParameter("power parameter must lie in (0, 1]")

    if norm == "sigmam":
        return _lens_measure(m)

    if norm == "phim":
        def ev(z):
            z = np.asarray(z, dtype=complex)
            return -np.maximum(1.0 - z.real, 0.0) ** m

        return ExhaustionSpec(
            f"phim:{m:g}", ev, _phim_measure(m),
            min_value=-(2.0 ** m), min_point=-1.0,
            is_exhaustion=False,
            value_error=0.0,
        )

    if norm == "vm":
        def ev(z):
            z = np.asarray(z, dtype=complex)
            flat = z.ravel()
            vals = np.array([_vm_point(zz, m) for zz in flat])
            return vals.reshape(z.shape)

        measure = replace(_lens_measure(m), complete=False,
                          total_mass_hint=None, label=f"glued:{m:g}")
        return ExhaustionSpec(
            f"vm:{m:g}", ev, measure,
            min_value=-1.0, min_point=0.0,
            value_error=1e-10,
        )

    density, min_value, min_point = _power_state(m)
    return ExhaustionSpec(
        f"um:{m:g}", density.green_potential,
        replace(_lens_measure(m), balayage=density.balayage),
        min_value=min_value, min_point=min_point,
        value_error=density.value_error,
    )


# ---------------------------------------------------------------------------
# Sublevel sets.
# ---------------------------------------------------------------------------


class LevelSet:
    """Traced boundary of a sublevel set {u < c}, star-shaped about center.

    Vertices sit on the curve to within level_tolerance in u-value; the
    radius function interpolates trigonometrically between rays.
    ``u_values`` holds the value of the exhaustion's evaluator at each
    vertex.  ``achieved_tolerance`` is the largest |u_values - c| plus the
    evaluator's ``value_error``, so it bounds the distance of the true u
    from c at every vertex.
    """

    def __init__(self, *, c, center, angles, radii, u_values, spec_label,
                 is_circle=False, achieved_tolerance=0.0):
        self.c = float(c)
        self.center = complex(center)
        self.angles = np.asarray(angles, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.u_values = np.asarray(u_values, dtype=float)
        self.spec_label = spec_label
        self.is_circle = bool(is_circle)
        self.level_tolerance = 1e-4 * abs(self.c)
        self.achieved_tolerance = float(achieved_tolerance)
        self.vertices = self.center + self.radii * np.exp(1j * self.angles)
        self._interp = None

    @property
    def samples(self):
        return self.angles.size

    def radius_fn(self):
        """Angle -> radius, spectrally interpolated between traced rays.

        The trigonometric interpolant is resampled once onto a dense grid
        and carried by a periodic cubic spline, which costs O(1) per
        evaluation instead of O(samples); quadrature over the region calls
        this on every angular panel.
        """
        if self._interp is None:
            if self.is_circle:
                r0 = float(self.radii[0])
                self._interp = lambda phi: np.full(np.shape(phi), r0)
            else:
                from scipy.interpolate import CubicSpline

                trig = periodic_interpolant(self.radii)
                n_dense = max(8192, 8 * self.samples)
                phis = np.linspace(0.0, 2.0 * math.pi, n_dense + 1)
                vals = np.asarray(trig(phis[:-1]), dtype=float)
                vals = np.append(vals, vals[0])
                spline = CubicSpline(phis, vals, bc_type="periodic")
                two_pi = 2.0 * math.pi
                self._interp = lambda phi: spline(np.mod(phi, two_pi))
        return self._interp

    def radius_at(self, phi):
        return self.radius_fn()(np.asarray(phi, dtype=float))

    def ray_fraction(self):
        """Angle -> fraction of the ray to the unit circle inside the set."""

        def frac(phi):
            phi = np.asarray(phi, dtype=float)
            full = _ray_lengths(self.center, phi)
            return np.clip(self.radius_at(phi) / full, 0.0, 1.0)

        return frac

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        rel = z - self.center
        ang = np.angle(rel)
        return np.abs(rel) < self.radius_at(ang)

    def polyline_length(self):
        verts = self.vertices
        return float(np.sum(np.abs(np.roll(verts, -1) - verts)))

    def area(self):
        verts = self.vertices
        nxt = np.roll(verts, -1)
        return float(0.5 * np.sum(verts.real * nxt.imag - verts.imag * nxt.real))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x,y,u_value\n")
            for v, uv in zip(self.vertices, self.u_values):
                fh.write(f"{float(v.real)!r},{float(v.imag)!r},{float(uv)!r}\n")

    @staticmethod
    def from_csv(path):
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "x,y,u_value":
                raise ValueError("unrecognized level-set CSV header")
            for line in fh:
                x, y, uv = (float(p) for p in line.strip().split(","))
                rows.append((x, y, uv))
        pts = np.array([complex(x, y) for x, y, _ in rows])
        # row j lies on the ray at angle 2 pi j/n from the star center z0:
        # Im((v_j - z0) e^{-i theta_j}) = 0 fixes z0 by least squares
        ang = 2.0 * math.pi * np.arange(pts.size) / pts.size
        turn = np.exp(-1j * ang)
        lhs = np.column_stack((turn.imag, turn.real))
        (x0, y0), *_ = np.linalg.lstsq(lhs, (pts * turn).imag, rcond=None)
        center = complex(x0, y0)
        return LevelSet(
            c=float(np.median([uv for _, _, uv in rows])),
            center=center, angles=ang, radii=((pts - center) * turn).real,
            u_values=[uv for _, _, uv in rows], spec_label="from-csv",
        )


def _connected_components_of_sublevel(spec, c, n_grid=96):
    """Count connected components of {u < c} on a coarse grid."""
    ax = np.linspace(-0.999, 0.999, n_grid)
    X, Y = np.meshgrid(ax, ax)
    Z = X + 1j * Y
    inside = np.abs(Z) < 0.999
    vals = np.full(Z.shape, 1.0)
    vals[inside] = spec(Z[inside])
    mask = (vals < c) & inside
    if not mask.any():
        return 0
    _, count = ndimage.label(mask)
    return int(count)


_BATCH_STEPS = 12  # evaluations a ray gets in _illinois toward its target
_EXTRA_STEPS = 24  # further evaluations for a ray that still misses


def _illinois(f, lo, f_lo, hi, f_hi, target, need):
    """Roots on the brackets lo < t < hi, f_lo < 0 < f_hi, all rays at once.

    Regula falsi with the Illinois step (Dowell and Jarratt, "A modified
    regula falsi method", BIT 11, 1971): an end kept twice in a row has its
    value halved, so both ends close in and the order is about 1.44.
    ``f(idx, t)`` evaluates the rays idx at t in one batch; a ray stops
    once |f| <= target, or its bracket is down to rounding.  After
    _BATCH_STEPS evaluations only the rays with |f| > need go on, for up
    to _EXTRA_STEPS more.  Returns the last iterate and its value on each
    ray.
    """
    lo, hi, g_lo, g_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    nearer_lo = -f_lo < f_hi
    t = np.where(nearer_lo, lo, hi)
    ft = np.where(nearer_lo, f_lo, f_hi)
    kept = np.zeros(lo.size)  # +1: the last step kept hi, -1: it kept lo
    for step in range(_BATCH_STEPS + _EXTRA_STEPS):
        goal = target if step < _BATCH_STEPS else need
        active = np.flatnonzero((np.abs(ft) > goal) & (hi - lo > 4e-16 * hi))
        if not active.size:
            break
        a, b, ga, gb = lo[active], hi[active], g_lo[active], g_hi[active]
        x = (a * gb - b * ga) / (gb - ga)
        fx = f(active, x)
        t[active], ft[active] = x, fx
        below = fx < 0.0
        up, dn = active[below], active[~below]
        lo[up], g_lo[up] = x[below], fx[below]
        g_hi[up] *= np.where(kept[up] > 0, 0.5, 1.0)
        kept[up] = 1.0
        hi[dn], g_hi[dn] = x[~below], fx[~below]
        g_lo[dn] *= np.where(kept[dn] < 0, 0.5, 1.0)
        kept[dn] = -1.0
    return t, ft


def sublevel_set(spec, c, *, samples=512, grid_check="auto"):
    """Trace S_c = {u = c} as a star-shaped polyline about the minimum.

    Rotation-invariant exhaustions solve one radius.  Otherwise every ray
    from the minimum is bracketed and solved on the exhaustion's evaluator
    by regula falsi with the Illinois step (``_illinois``), to 1e-6 of
    tol_u = 1e-4 |c| where its steps allow; a ray whose |u - c| plus
    ``spec.value_error`` is still above tol_u/2 gets further steps, and one
    that misses after those fails the trace.

    Raises EmptyLevel when c is at or below the minimum of u, and
    UnsupportedRegion when the sublevel set is not a single star-shaped
    Jordan domain (several components, non-exhaustions whose sublevels
    touch the circle, or a failed trace), or when the evaluator is not
    accurate enough to place the level at all.
    """
    c = float(c)
    if not (math.isfinite(c) and c < 0.0):
        raise InvalidParameter("the level must be a negative real number")
    if math.isfinite(spec.min_value) and c <= spec.min_value:
        raise EmptyLevel(
            f"level {c:g} is at or below the minimum {spec.min_value:.6g} "
            f"of {spec.label}"
        )
    if not spec.is_exhaustion:
        raise UnsupportedRegion(
            f"{spec.label} is not an exhaustion; its sublevel sets are not "
            "compactly contained in the disk"
        )
    tol_u = 1e-4 * abs(c)
    need = 0.5 * tol_u - spec.value_error
    if not need > 0.0:
        raise UnsupportedRegion(
            f"{spec.label} is evaluated to {spec.value_error:.3g}, not within "
            f"half the value tolerance {tol_u:.3g} of the level {c:g}"
        )

    if spec.measure.is_rotation_invariant() and abs(spec.min_point) < 1e-14:
        # the level is a circle: one solve along the positive real axis
        ur = lambda r: float(spec._evaluate(np.array([r + 0j]))[0])
        rc = brentq(lambda r: ur(r) - c,
                    1e-14, 1.0 - 1e-14, xtol=1e-15, rtol=8.9e-16)
        ang = 2.0 * math.pi * np.arange(samples) / samples
        uv = ur(rc)
        return LevelSet(
            c=c, center=0.0, angles=ang,
            radii=np.full(samples, rc),
            u_values=np.full(samples, uv),
            spec_label=spec.label, is_circle=True,
            achieved_tolerance=abs(uv - c) + spec.value_error,
        )

    z0 = spec.min_point
    ang = 2.0 * math.pi * np.arange(samples) / samples
    ray = np.exp(1j * ang)
    full = _ray_lengths(z0, ang) * (1.0 - 1e-12)

    hi = full.copy()
    if math.isfinite(spec.min_value):
        # every ray starts at the minimum point: one evaluation serves all
        lo = np.zeros(samples)
        u_lo = np.full(samples, float(spec(np.array([z0]))[0]) - c)
    else:
        lo = 1e-12 * full
        u_lo = spec(z0 + lo * ray) - c
    u_hi = spec(z0 + hi * ray) - c
    if np.any(u_lo >= 0.0) or np.any(u_hi <= 0.0):
        raise UnsupportedRegion(
            f"could not bracket the level {c:g} along every ray from the "
            f"minimum of {spec.label}"
        )

    # Root finding on every ray, to 1e-6 tol_u where the steps allow:
    # vertices then sit as closely as 30 bisections would place them.
    radii, ut = _illinois(lambda idx, tt: spec(z0 + tt * ray[idx]) - c,
                          lo, u_lo, hi, u_hi, 1e-6 * tol_u, need)
    uvals = ut + c
    worst = float(np.abs(ut).max()) + spec.value_error
    if worst > 0.5 * tol_u:
        raise UnsupportedRegion(
            f"trace of the level {c:g} did not meet the value tolerance"
        )

    ratios = radii / np.roll(radii, 1)
    if np.max(np.abs(np.log(ratios))) > 0.5:
        raise UnsupportedRegion(
            f"the level boundary {c:g} of {spec.label} is not star-shaped "
            "about the minimum at the traced resolution"
        )

    do_grid = grid_check is True
    if grid_check == "auto":
        do_grid = not getattr(spec, "_grid_checked", False)
    if do_grid:
        n_comp = _connected_components_of_sublevel(spec, c)
        spec._grid_checked = True
        if n_comp > 1:
            raise UnsupportedRegion(
                f"the sublevel set at {c:g} has {n_comp} components"
            )

    return LevelSet(
        c=c, center=z0, angles=ang, radii=radii, u_values=uvals,
        spec_label=spec.label, achieved_tolerance=worst,
    )


# ---------------------------------------------------------------------------
# Integrals over sublevel regions.
# ---------------------------------------------------------------------------


def _disk_exit_lengths(z0, phi, c0, r0):
    """Distance from z0 inside |w - c0| < r0 to that circle along e^{i phi}."""
    rel = z0 - c0
    b = np.real(np.conj(np.exp(1j * np.asarray(phi, dtype=float))) * rel)
    disc = b * b + r0 * r0 - abs(rel) ** 2
    return -b + np.sqrt(np.maximum(disc, 0.0))


def _clipped_ray_fraction(level, measure):
    """Level-set ray fractions, additionally clipped at the density support.

    When the measure declares a support disk containing the star center,
    rays stop at whichever comes first: the level curve or the support
    edge.  The quadrature then never crosses the density jump mid-ray.
    """
    cut = level.ray_fraction()
    sd = measure.support_disk
    if sd is None:
        return cut
    c0, r0 = complex(sd[0]), float(sd[1])
    if not abs(level.center - c0) < r0:
        return cut

    def clipped(phi):
        phi = np.asarray(phi, dtype=float)
        full = _ray_lengths(level.center, phi)
        exit_t = _disk_exit_lengths(level.center, phi, c0, r0)
        return np.minimum(cut(phi), np.clip(exit_t / full, 0.0, 1.0))

    return clipped


def pair_over_sublevel(measure, h, level, *, tol_abs=1e-10, tol_rel=1e-8):
    """Integral of h against the Riesz measure restricted to B_c.

    Atoms inside the region contribute exactly; the area part integrates
    over the star region bounded by the traced curve (clipped at the
    declared density support), so no discontinuous indicator enters the
    quadrature.
    """
    total = 0.0
    err = 0.0
    status = "CONVERGED"
    for loc, mass in measure.atoms:
        if bool(level.contains(loc)):
            total += mass * float(np.real(h(np.asarray([loc], dtype=complex))[0]))
    if measure.has_area_part():
        dens = measure.density

        def integrand(w):
            w = np.asarray(w, dtype=complex)
            return dens(w) * np.real(h(w))

        interior = [level.center]
        for s in measure.interior_singularities:
            if s != level.center and bool(level.contains(s)):
                interior.append(s)
        res = integrate_disk_area(
            integrand,
            interior_singularities=interior,
            radial_cut=_clipped_ray_fraction(level, measure),
            tol_abs=tol_abs, tol_rel=tol_rel,
        )
        total += res.value
        err = res.error
        status = res.status
    return QuadratureResult(value=total, error=err, status=status, depth=0)


def area_integral_over_sublevel(fn, level, *, singularities=(),
                                tol_abs=1e-10, tol_rel=1e-8):
    """Plain area integral of fn over the traced star region."""
    interior = [level.center]
    for s in singularities:
        if s != level.center and bool(level.contains(s)):
            interior.append(complex(s))
    return integrate_disk_area(
        lambda w: np.real(fn(np.asarray(w, dtype=complex))),
        interior_singularities=interior,
        radial_cut=level.ray_fraction(),
        tol_abs=tol_abs, tol_rel=tol_rel,
    )


# ---------------------------------------------------------------------------
# The swept boundary measure.
# ---------------------------------------------------------------------------


class DemaillyMeasure:
    """The boundary measure mu_c of an exhaustion at level c.

    mu_c is the harmonic-measure sweep onto S_c of the Riesz mass inside
    B_c.  It is represented through a conformal chart F of B_c and the
    Fourier moments M_k of the chart pullback of the mass, which give the
    density W(t) = M_0 + 2 Re sum M_k e^{-ikt} against dt/(2 pi) and hence
    the density U_c against normalized arclength.
    """

    def __init__(self, *, spec_label, c, level, disk_map, moments,
                 mass_direct, mass_error, boundary_points, f_prime_abs,
                 w_values, u_c_values, t_grid):
        self.spec_label = spec_label
        self.c = float(c)
        self.level = level
        self.disk_map = disk_map
        self.moments = np.asarray(moments, dtype=complex)
        self.total_mass = float(mass_direct)
        self.mass_error = float(mass_error)
        self.boundary_points = np.asarray(boundary_points, dtype=complex)
        self.f_prime_abs = np.asarray(f_prime_abs, dtype=float)
        self.w_values = np.asarray(w_values, dtype=float)
        self.u_c_values = np.asarray(u_c_values, dtype=float)
        self.t_grid = np.asarray(t_grid, dtype=float)

    @property
    def n_harmonics(self):
        return self.moments.size - 1

    def _segment_weights(self):
        pts = self.boundary_points
        seg_next = np.abs(np.roll(pts, -1) - pts)
        return 0.5 * (seg_next + np.roll(seg_next, 1))

    def curve_length(self):
        return float(np.sum(np.abs(np.roll(self.boundary_points, -1)
                                   - self.boundary_points)))

    def mass_from_curve(self):
        """Total mass re-integrated from the sampled boundary density.

        Uses polyline arclength weights on the chart samples, so it is an
        independent discretization from the area quadrature behind
        total_mass; the difference is the honest consistency residual.
        """
        dens_plain = self.w_values / (2.0 * math.pi * self.f_prime_abs)
        return float(np.sum(dens_plain * self._segment_weights()))

    def mass_balance_residual(self):
        return abs(self.mass_from_curve() - self.total_mass)

    def pair_spectral(self, fn):
        """Integral of fn against mu_c through the chart trapezoid rule."""
        vals = np.real(fn(self.boundary_points))
        return float(np.mean(vals * self.w_values))

    def to_json_dict(self):
        return {
            "exhaustion": self.spec_label,
            "c": self.c,
            "total_mass": self.total_mass,
            "mass_quadrature_error": self.mass_error,
            "mass_from_curve": self.mass_from_curve(),
            "mass_balance_residual": self.mass_balance_residual(),
            "curve_length": self.curve_length(),
            "samples": int(self.t_grid.size),
            "n_harmonics": int(self.n_harmonics),
            "level_tolerance": self.level.level_tolerance,
            "achieved_tolerance": self.level.achieved_tolerance,
            "paper_refs": [
                "demailly-monge-ampere-boundary-measure",
                "jensen-lelong-two-sided-identity",
            ],
        }


def _chart_moments(disk_map, measure, level, *, n_theta=2048, k_max=256):
    """Fourier moments M_k of the chart pullback of the area Riesz mass.

    M_k = int_{B_c} Phi(w)^k dLambda u(w) computed in chart coordinates,
    where the angular integral collapses to one FFT per radius and all
    moments come out of a single tensor pass.  Atoms add Phi(a)^k exactly.
    """
    k_max = int(min(k_max, n_theta // 2 - 1))
    mom = np.zeros(k_max + 1, dtype=complex)
    for loc, mass in measure.atoms:
        if bool(level.contains(loc)):
            a = complex(disk_map.inverse(loc))
            mom += mass * a ** np.arange(k_max + 1)
    if measure.has_area_part():
        # The integrand is bounded up to rho = 1 (the density is evaluated
        # on the closed region B_c-bar, away from any boundary blow-up of
        # the measure), but it steepens where the chart compresses, so the
        # panels grade geometrically toward the rim.
        dens = measure.density
        glx, glw = np.polynomial.legendre.leggauss(8)
        edges = [0.0]
        while 1.0 - edges[-1] > 2.0e-4:
            edges.append(edges[-1] + 0.5 * (1.0 - edges[-1]))
        edges.append(1.0)
        edges = np.asarray(edges)
        rho_nodes = []
        rho_wts = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            rho_nodes.append(mid + half * glx)
            rho_wts.append(half * glw)
        rho = np.concatenate(rho_nodes)
        wts = np.concatenate(rho_wts)
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        zeta = rho[:, None] * np.exp(1j * theta[None, :])
        wpts = disk_map.forward(zeta)
        dvals = dens(wpts) * np.abs(disk_map.derivative(zeta)) ** 2
        hat = np.fft.ifft(dvals, axis=1)[:, : k_max + 1]
        powers = rho[:, None] ** (np.arange(k_max + 1)[None, :] + 1)
        mom += 2.0 * math.pi * np.sum(
            (wts[:, None] * powers) * hat, axis=0
        )
    return mom


def demailly_measure(spec, c, *, samples=512, n_theta=2048, k_max=256):
    """Assemble the boundary measure mu_c of an exhaustion at level c.

    Traces the level curve, builds the conformal chart of B_c, computes
    the chart moments of the interior Riesz mass, and evaluates the
    boundary density on the chart grid.  total_mass comes from a direct
    area quadrature of the mass over B_c, independently of the moment
    route, so mass_balance_residual is a genuine consistency check.
    """
    if not spec.measure.complete:
        raise InvalidParameter(
            f"the Riesz measure of {spec.label} is incomplete; the swept "
            "boundary measure would be missing mass (INCOMPLETE_RIESZ_MEASURE)"
        )
    level = spec.sublevel(c, samples=samples)
    try:
        disk_map = JordanDiskMap(level.center, level.radius_fn(), n=samples)
    except ValueError as exc:
        raise UnsupportedRegion(
            f"conformal chart of the sublevel region failed: {exc}"
        ) from exc
    mom = _chart_moments(disk_map, spec.measure, level,
                         n_theta=n_theta, k_max=k_max)
    # Truncate at the noise floor so the boundary density does not carry
    # aliasing wiggle from harmonics the tensor pass cannot resolve.
    mags = np.abs(mom)
    scale = max(mags.max(), 1e-300)
    keep = mom.size
    run = 0
    for k in range(1, mom.size):
        run = run + 1 if mags[k] < 1e-9 * scale else 0
        if run >= 3:
            keep = k - 2
            break
    mom = mom[:keep]

    ones = lambda w: np.ones(np.shape(w))
    direct = pair_over_sublevel(spec.measure, ones, level,
                                tol_abs=1e-10, tol_rel=1e-8)

    t_grid = 2.0 * math.pi * np.arange(samples) / samples
    circle = np.exp(1j * t_grid)
    boundary_points = disk_map.forward(circle)
    f_prime_abs = np.abs(disk_map.derivative(circle))
    series = np.concatenate((mom[:1], 2.0 * mom[1:]))
    w_vals = np.real(polyval(np.exp(-1j * t_grid), series))
    seg = np.abs(np.roll(boundary_points, -1) - boundary_points)
    length = float(np.sum(seg))
    u_c_vals = length * w_vals / (2.0 * math.pi * f_prime_abs)

    return DemaillyMeasure(
        spec_label=spec.label, c=c, level=level, disk_map=disk_map,
        moments=mom, mass_direct=direct.value, mass_error=direct.error,
        boundary_points=boundary_points, f_prime_abs=f_prime_abs,
        w_values=w_vals, u_c_values=u_c_vals, t_grid=t_grid,
    )


def density_uc(spec, c, *, samples=512):
    """Boundary density U_c of mu_c against normalized arclength on S_c.

    Returns (points, values, measure): the chart samples of S_c, U_c at
    those samples, and the assembled DemaillyMeasure for further use.
    """
    dm = spec.demailly(c, samples=samples)
    return dm.boundary_points, dm.u_c_values, dm


def djl_both_sides(spec, v, lap_v, c, *, samples=512, v_singularities=(),
                   tol_abs=1e-9, tol_rel=1e-7):
    """Evaluate both sides of the two-sided level identity at one level.

    Left side: integral of v against mu_c, the trapezoid rule on the chart
    grid (``DemaillyMeasure.pair_spectral``).  Right side: the area
    bookkeeping int_{B_c} (v dLambda u - u Lambda v dA) + c int_{B_c} Lambda v dA.
    ``lap_v`` is the (1/2 pi)-normalized Laplacian of v.  Returns a dict
    with both sides, the pieces, and the residual.
    """
    dm = spec.demailly(c, samples=samples)
    level = dm.level
    lhs = dm.pair_spectral(v)

    v_mass = pair_over_sublevel(spec.measure, v, level,
                                tol_abs=tol_abs, tol_rel=tol_rel)

    sing = [complex(s) for s in v_singularities]
    for loc, _ in spec.measure.atoms:
        if bool(level.contains(loc)) and loc not in sing:
            sing.append(complex(loc))

    def u_lap(w):
        return np.real(spec(w)) * np.real(lap_v(w))

    u_lap_int = area_integral_over_sublevel(
        u_lap, level, singularities=sing, tol_abs=tol_abs, tol_rel=tol_rel
    )
    lap_int = area_integral_over_sublevel(
        lap_v, level, singularities=sing, tol_abs=tol_abs, tol_rel=tol_rel
    )
    rhs = v_mass.value - u_lap_int.value + c * lap_int.value
    return {
        "c": float(c),
        "lhs": lhs,
        "rhs": rhs,
        "residual": lhs - rhs,
        "mass_pairing": v_mass.value,
        "u_lap_integral": u_lap_int.value,
        "lap_integral": lap_int.value,
        "rhs_error": v_mass.error + u_lap_int.error + abs(c) * lap_int.error,
        "statuses": (v_mass.status, u_lap_int.status, lap_int.status),
    }
