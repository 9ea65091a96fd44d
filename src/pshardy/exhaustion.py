"""Exhaustion functions on the unit disk and their sublevel machinery.

An exhaustion here is a negative subharmonic function u on the disk whose
sublevel sets B_c = {u < c} are compactly contained for every c < 0.  The
module builds the standard families (logarithm, radial profiles, Green
potentials, the one-parameter power examples), traces sublevel boundaries
S_c = {u = c}, and assembles the boundary measure mu_c swept onto S_c by
the Riesz mass of u.  The measure is the normal flux of u through S_c,
read on the traced rays, which makes the two-sided Jensen-Lelong
bookkeeping checkable at desk scale.
"""

import functools
import math
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .geometry import (
    MoebiusAutomorphism,
    QuadratureResult,
    _ray_lengths,
    integrate_disk_area,
    integrate_interval,
)
from .potential import (
    InvalidParameter,
    LensPowerDensity,
    RieszMeasure,
    _lens_mass,
    _spectral_derivative,
    green_function,
    green_potential,
    poisson_balayage,
    poisson_extension,
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
    "djl_both_sides",
]


class EmptyLevel(ValueError):
    """The requested sublevel set {u < c} is empty."""


class UnsupportedRegion(RuntimeError):
    """The sublevel region is not a single star-shaped Jordan domain."""


def _lens_measure(m):
    """Riesz measure of the lens power example in unit-mass normalization.

    Its density m(1-m)(1-x)^{m-2} dA/2pi on |w - 1/2| < 1/2 has a polar
    form in shell coordinates about the boundary point 1, where
    1 - x = -rho cos(phi) exactly.
    """
    pref = m * (1.0 - m) / (2.0 * math.pi)

    def dens(w):
        w = np.asarray(w, dtype=complex)
        good = np.abs(w - 0.5) < 0.5
        safe = np.where(good, 1.0 - w.real, 1.0)
        return np.where(good, pref * safe ** (m - 2.0), 0.0)

    def dens_polar(center, rho, phi):
        omx = -rho * np.cos(phi)
        good = omx > 0.0
        return np.where(good, pref * np.where(good, omx, 1.0) ** (m - 2.0), 0.0)

    return RieszMeasure(
        density=dens,
        density_polar=dens_polar,
        boundary_singularities=(1.0 + 0.0j,),
        radial_cut=lambda phi: np.full(np.shape(phi), 0.5),
        total_mass_hint=_lens_mass(m),
        label=f"lens-power:{m:g}",
        support_disk=(0.5 + 0.0j, 0.5),
    )


def _vm_point(z, m):
    """The glued example: the power profile on the lens, harmonic outside.

    Outside the lens the value is the harmonic extension of the profile's
    lens-boundary trace with zero data on the unit circle.  The crescent
    between the two circles maps to a vertical strip under 1/(1-z) and on
    to a half plane, where the extension is a single rapidly converging
    Poisson integral, taken to 1e-12.
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

    res = integrate_interval(g, psi0, 0.5 * math.pi, tol_abs=1e-12,
                             tol_rel=1e-12, singular_left=True,
                             singular_right=True)
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

    ``gradient``, where given, maps z to the pair (u, G) in one pass, with
    G = 2 d_z u = u_x - i u_y and u what ``evaluate`` returns; d_r u along
    the ray at angle phi is Re(G e^{i phi}).  ``sublevel_set`` takes Newton
    steps on it and starts each level from the deeper one below it, and
    ``demailly_measure`` reads the flux off it.  Exhaustions without one
    (the adaptive area-density Green potential, the glued example, the
    radial profiles) trace by regula falsi alone and difference the flux.

    Everything else reads ``measure``: the boundary weight (derived
    exhaustions a * u and u composed with a disk automorphism, and the
    lens example, carry what it needs on their Riesz measure; see
    ``potential.poisson_balayage``), and rotation invariance, which the
    measure states (``RieszMeasure.is_rotation_invariant``) and which turns
    a level about min_point = 0 into one circle, and its support, which
    ``sublevel_set`` checks every level against (u on it cached per spec).
    """

    def __init__(self, label, evaluate, measure, *, min_value, min_point,
                 value_error, gradient=None):
        self.label = label
        self._evaluate = evaluate
        self.gradient = gradient
        self.measure = measure
        self.min_value = float(min_value)
        self.min_point = complex(min_point)
        self.value_error = float(value_error)
        self._levels = {}
        self._demailly = {}
        self._rims = {}  # u at the ends of the rays from min_point, by count
        self._weight = None  # the boundary weight, built on first use
        self._probes = None  # grid points on supp Lambda u, with u there

    def __call__(self, z):
        return self._evaluate(np.asarray(z, dtype=complex))

    def __repr__(self):
        return f"ExhaustionSpec({self.label!r})"

    def sublevel(self, c, samples=512):
        key = (round(float(c), 15), int(samples))
        if key not in self._levels:
            self._levels[key] = sublevel_set(self, c, samples=samples)
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

    def grad(z):
        z = np.asarray(z, dtype=complex)
        inside = (np.abs(z) < 1.0) & (z != 0.0)
        return ev(z), np.where(inside, 1.0 / np.where(inside, z, 1.0), 0.0)

    return ExhaustionSpec(
        "log", ev, measure,
        min_value=-math.inf, min_point=0.0,
        value_error=0.0, gradient=grad,
    )


def radial_smooth(profile, label):
    """Rotation-invariant exhaustion from a plain radial Laplacian profile.

    ``profile(s)`` is the ordinary Laplacian on radius s (vectorized,
    integrable near both endpoints after the s ds weight).  The potential
    is recovered from the exact one-dimensional reduction
    u(r) = M(r) log r + T(r) with M the cumulative (2 pi-normalized) mass
    and T the outer log moment, both tabulated once on 400 12-point Gauss
    panels and interpolated with splines.
    """
    from scipy.interpolate import CubicSpline

    glx, glw = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, 1.0, 401)
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

        def grad(z):
            # 2 d_z g(z, a) = 1/(z - a) + conj(a)/(1 - conj(a) z)
            z = np.asarray(z, dtype=complex)
            G = np.zeros(z.shape, dtype=complex)
            with np.errstate(divide="ignore", invalid="ignore"):
                for loc, mass in zip(locs, masses):
                    G = G + mass * (1.0 / (z - loc)
                                    + np.conj(loc) / (1.0 - np.conj(loc) * z))
            return ev(z), np.where(np.abs(z) >= 1.0, 0.0, G)

        center = complex(locs[0])
        err = 0.0
    else:
        grad = None

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
        value_error=err,
        gradient=grad,
    )


def scaled_exhaustion(a, inner):
    """a * u for a > 0; sublevels obey B_{c, a u} = B_{c/a, u}."""
    a = float(a)
    if not a > 0.0 or not math.isfinite(a):
        raise InvalidParameter("scale factor must be positive and finite")

    inner_ev = inner._evaluate

    def ev(z):
        return a * inner_ev(np.asarray(z, dtype=complex))

    grad, inner_grad = None, inner.gradient
    if inner_grad is not None:
        def grad(z):
            u, G = inner_grad(z)
            return a * u, a * G

    return ExhaustionSpec(
        f"scaled:{a:g}:{inner.label}", ev, inner.measure.scaled(a),
        min_value=a * inner.min_value, min_point=inner.min_point,
        value_error=a * inner.value_error, gradient=grad,
    )


def pullback_exhaustion(automorphism, inner):
    """u composed with a disk automorphism.

    The Riesz mass transforms with the Jacobian |phi'|^2 on densities and
    by preimages on atoms, so norms built on the pullback match the inner
    exhaustion's norms composed with the map.  A pulled area part carries
    the transported balayage V(phi(e^{it})) |phi'(e^{it})| of the inner
    measure, whose mass it keeps; atoms alone just move, and so does a
    declared support disk, to its image disk.
    """
    if not isinstance(automorphism, MoebiusAutomorphism):
        raise InvalidParameter("pullback needs a MoebiusAutomorphism")
    mob = automorphism

    inner_ev = inner._evaluate

    def ev(z):
        return inner_ev(mob.forward(np.asarray(z, dtype=complex)))

    grad, inner_grad = None, inner.gradient
    if inner_grad is not None:
        def grad(z):
            # the chain rule: phi is holomorphic, so d_z (u o phi) = u_w phi'
            z = np.asarray(z, dtype=complex)
            u, G = inner_grad(mob.forward(z))
            return u, G * mob.derivative(z)

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
    support = inner.measure.support_disk
    if support is not None:
        # mob.inverse sends its pole to infinity and the mirror of the pole
        # in the circle, by symmetry, to the center of the image circle
        c0, r0 = complex(support[0]), float(support[1])
        center = complex(mob.inverse(
            c0 - r0 * r0 * mob.a / (np.exp(-1j * mob.rot) + mob.a * np.conj(c0))))
        support = (center, float(abs(mob.inverse(c0 + r0) - center)))
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
        support_disk=support,
        balayage=swept,
    )
    return ExhaustionSpec(
        f"pullback:{mob.a.real:g}{mob.a.imag:+g}i:{inner.label}",
        ev, measure,
        min_value=inner.min_value,
        min_point=complex(mob.inverse(inner.min_point)),
        value_error=inner.value_error,
        gradient=grad,
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

    kind selects among the lens-restricted Riesz measure of the power
    profile -(1 - Re z)^m ("sigma_m", a RieszMeasure), the glued exhaustion
    ("v_m") and the Green potential of the lens measure ("u_m"), both
    ExhaustionSpecs.
    """
    norm = str(kind).replace("_", "").replace("-", "").lower()
    if norm not in {"sigmam", "vm", "um"}:
        raise InvalidParameter(f"unknown example kind: {kind!r}")
    m = float(m)
    if not 0.0 < m <= 1.0:
        raise InvalidParameter("power parameter must lie in (0, 1]")

    if norm == "sigmam":
        return _lens_measure(m)

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
        value_error=density.value_error, gradient=density.green_gradient,
    )


# ---------------------------------------------------------------------------
# Sublevel sets.
# ---------------------------------------------------------------------------


class LevelSet:
    """Traced boundary of a sublevel set {u < c}, star-shaped about center.

    Vertices sit on the curve to within level_tolerance in u-value.
    ``radius_at`` is r(phi) at any angle: the trigonometric interpolant of
    the traced radii, the boundary value of their ``poisson_extension``.
    ``u_values`` holds the value of the exhaustion's evaluator at each
    vertex.  ``achieved_tolerance`` is the largest |u_values - c| plus the
    evaluator's ``value_error``, so it bounds the distance of the true u
    from c at every vertex.  ``du_dr`` holds d_r u = Re(G e^{i phi}) at each
    vertex for an exhaustion with a ``gradient``, from the same evaluation
    as ``u_values``; it is None for the others and on circles.
    """

    def __init__(self, *, c, center, angles, radii, u_values, spec_label,
                 is_circle=False, achieved_tolerance=0.0, du_dr=None):
        self.c = float(c)
        self.center = complex(center)
        self.angles = np.asarray(angles, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.u_values = np.asarray(u_values, dtype=float)
        self.du_dr = None if du_dr is None else np.asarray(du_dr, dtype=float)
        self.spec_label = spec_label
        self.is_circle = bool(is_circle)
        self.level_tolerance = 1e-4 * abs(self.c)
        self.achieved_tolerance = float(achieved_tolerance)
        self.vertices = self.center + self.radii * np.exp(1j * self.angles)
        self._radius = poisson_extension(self.radii)

    @property
    def samples(self):
        return self.angles.size

    def radius_at(self, phi):
        return self._radius(np.exp(1j * np.asarray(phi, dtype=float)))

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


def _support_probes(spec):
    """The points of a 96 x 96 grid in the ``support_disk`` of the area part
    of Lambda u (in |z| < 0.999 when it declares none) with u there,
    evaluated once per spec.  Atoms alone have no probes."""
    if spec._probes is None:
        z = np.empty(0, dtype=complex)
        if spec.measure.has_area_part():
            ax = np.linspace(-0.999, 0.999, 96)
            z = (ax[None, :] + 1j * ax[:, None]).ravel()
            c0, r0 = spec.measure.support_disk or (0.0, 0.999)
            z = z[(np.abs(z) < 0.999) & (np.abs(z - c0) < r0)]
        spec._probes = (z, spec(z) if z.size else np.empty(0))
    return spec._probes


_BATCH_STEPS = 12  # evaluations a ray gets toward its target
_EXTRA_STEPS = 24  # further evaluations for a ray that still misses


def _bracketed_roots(f, lo, f_lo, hi, f_hi, slope_lo, target, need):
    """Roots on the brackets lo < t < hi, f_lo < 0 < f_hi, all rays at once.

    ``f(idx, t)`` evaluates the rays idx at t in one batch and returns the
    values with their slopes df/dt, or with None where there is no
    gradient.  Given ``slope_lo``, the slopes at lo, the first iterate is
    lo itself and each step is Newton's from the last iterate where the
    Newton point lies inside the bracket; every other step is regula falsi
    with the Illinois step (Dowell and Jarratt, "A modified regula falsi
    method", BIT 11, 1971): an end kept twice in a row has its value
    halved, so both ends close in and the order is about 1.44.  Without
    ``slope_lo`` every step is regula falsi from the end with the smaller
    |f|.  A ray stops once |f| <= target, or its bracket is down to
    rounding.  After _BATCH_STEPS evaluations only the rays with
    |f| > need go on, for up to _EXTRA_STEPS more.  Returns the last
    iterate on each ray with its value and slope (nan without a gradient).
    """
    lo, hi, g_lo, g_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    newton = slope_lo is not None
    if newton:
        t, ft, slope = lo.copy(), f_lo.copy(), slope_lo.copy()
    else:
        nearer_lo = -f_lo < f_hi
        t = np.where(nearer_lo, lo, hi)
        ft = np.where(nearer_lo, f_lo, f_hi)
        slope = np.full(lo.size, np.nan)
    kept = np.zeros(lo.size)  # +1: the last step kept hi, -1: it kept lo
    for step in range(_BATCH_STEPS + _EXTRA_STEPS):
        goal = target if step < _BATCH_STEPS else need
        active = np.flatnonzero((np.abs(ft) > goal) & (hi - lo > 4e-16 * hi))
        if not active.size:
            break
        a, b, ga, gb = lo[active], hi[active], g_lo[active], g_hi[active]
        x = (a * gb - b * ga) / (gb - ga)
        if newton:
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = t[active] - ft[active] / slope[active]
            x = np.where((xn > a) & (xn < b), xn, x)
        fx, sx = f(active, x)
        t[active], ft[active] = x, fx
        if sx is not None:
            slope[active] = sx
        below = fx < 0.0
        up, dn = active[below], active[~below]
        lo[up], g_lo[up] = x[below], fx[below]
        g_hi[up] *= np.where(kept[up] > 0, 0.5, 1.0)
        kept[up] = 1.0
        hi[dn], g_hi[dn] = x[~below], fx[~below]
        g_lo[dn] *= np.where(kept[dn] < 0, 0.5, 1.0)
        kept[dn] = -1.0
    return t, ft, slope


def _deeper_level(spec, c, samples):
    """The traced level of spec nearest below c at the same ray count."""
    keys = [key for key, lv in spec._levels.items()
            if key[1] == samples and key[0] < c and lv.du_dr is not None]
    return spec._levels[max(keys)] if keys else None


def sublevel_set(spec, c, *, samples=512):
    """Trace S_c = {u = c} as a star-shaped polyline about the minimum.

    Rotation-invariant exhaustions solve one radius.  Otherwise every ray
    from the minimum is bracketed and solved on the exhaustion's evaluator
    (``_bracketed_roots``), to 1e-6 of tol_u = 1e-4 |c| where its steps
    allow; a ray whose |u - c| plus ``spec.value_error`` is still above
    tol_u/2 gets further steps, and one that misses after those fails the
    trace.  The outer end of each ray sits just inside the unit circle; u
    there is the same on every level, so it is evaluated once per spec and
    ray count.

    An exhaustion with a ``gradient`` records d_r u at the vertices
    (``LevelSet.du_dr``).  A level with a deeper one already traced at the
    same ray count starts from it: that level's radii and recorded values
    are the inner ends of the brackets (no evaluation; the sign is checked
    on each ray), the first iterate is the predictor r + (c - u)/d_r u at
    its vertices, and the steps are Newton's on d_r u wherever they stay
    inside the bracket.  A level with no deeper one brackets every ray
    from the minimum and takes regula falsi steps only, as an exhaustion
    without a gradient does on every level: from a bracket that wide,
    Newton's steps go to whichever crossing lies nearest, which on a ray
    through a second island of {u < c} (two atoms of the Green potential
    at +-0.4, c = -2.5) is the first island's edge on every ray, so the
    trace would return one star-shaped island of a two-component set.

    Every component of {u < c} meets the support of Lambda u: on one with
    no Riesz mass u would be harmonic with boundary values c, so constant
    (the minimum principle).  So a level off a circle must enclose every
    atom, and every probe of the area part (``_support_probes``) with
    u < c - tol_u up to how far r(phi) may stray between the rays; this is
    exact for atoms and costs nothing, and a sampling check on area parts.

    Raises EmptyLevel when c is at or below the minimum of u, and
    UnsupportedRegion when the sublevel set is not a single star-shaped
    Jordan domain (several components, or a failed trace), or when the
    evaluator is not accurate enough to place the level at all.
    """
    c = float(c)
    if not (math.isfinite(c) and c < 0.0):
        raise InvalidParameter("the level must be a negative real number")
    if math.isfinite(spec.min_value) and c <= spec.min_value:
        raise EmptyLevel(
            f"level {c:g} is at or below the minimum {spec.min_value:.6g} "
            f"of {spec.label}"
        )
    tol_u = 1e-4 * abs(c)
    need = 0.5 * tol_u - spec.value_error
    if not need > 0.0:
        raise UnsupportedRegion(
            f"{spec.label} is evaluated to {spec.value_error:.3g}, not within "
            f"half the value tolerance {tol_u:.3g} of the level {c:g}"
        )

    if spec.measure.is_rotation_invariant() and abs(spec.min_point) < 1e-14:
        # the level is a circle: one solve along the positive real axis.
        # brentq's wrapper refers to itself, so its cycle would keep alive
        # what ur holds until the next full garbage collection: the
        # evaluator, not the spec with every level it caches
        evaluate = spec._evaluate
        ur = lambda r: float(evaluate(np.array([r + 0j]))[0])
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
    if samples not in spec._rims:
        spec._rims[samples] = spec(z0 + hi * ray)
    u_hi = spec._rims[samples] - c
    slope_lo = None
    below = _deeper_level(spec, c, samples) if spec.gradient else None
    if below is not None and np.all(below.u_values < c):
        lo, u_lo, slope_lo = below.radii, below.u_values - c, below.du_dr
    elif math.isfinite(spec.min_value):
        # every ray starts at the minimum point: one evaluation serves all
        lo = np.zeros(samples)
        u_lo = np.full(samples, float(spec(np.array([z0]))[0]) - c)
    else:
        lo = 1e-12 * full
        u_lo = spec(z0 + lo * ray) - c
    if np.any(u_lo >= 0.0) or np.any(u_hi <= 0.0):
        raise UnsupportedRegion(
            f"could not bracket the level {c:g} along every ray from the "
            f"minimum of {spec.label}"
        )

    def f(idx, tt):
        z = z0 + tt * ray[idx]
        if spec.gradient is None:
            return spec(z) - c, None
        u, G = spec.gradient(z)
        return u - c, np.real(G * ray[idx])

    # Root finding on every ray, to 1e-6 tol_u where the steps allow:
    # vertices then sit as closely as 30 bisections would place them.
    radii, ut, du_dr = _bracketed_roots(f, lo, u_lo, hi, u_hi, slope_lo,
                                        1e-6 * tol_u, need)
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

    level = LevelSet(
        c=c, center=z0, angles=ang, radii=radii, u_values=uvals,
        spec_label=spec.label, achieved_tolerance=worst,
        du_dr=du_dr if spec.gradient else None,
    )
    pz, pu = _support_probes(spec)
    held = np.concatenate([[loc for loc, mass in spec.measure.atoms if mass > 0],
                           pz[pu < c - tol_u]]) - z0
    # between the rays r(phi) strays from the curve by about the upper
    # half of the spectrum of the radii
    slack = np.abs(np.fft.rfft(radii))[samples // 4:].sum() * 2.0 / samples
    if np.any(np.abs(held) >= level.radius_at(np.angle(held)) + slack):
        raise UnsupportedRegion(
            f"the sublevel set at {c:g} of {spec.label} has a component "
            "the traced level does not enclose"
        )
    return level


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


def _mass_over_sublevel(measure, level):
    return pair_over_sublevel(measure, lambda w: np.ones(np.shape(w)), level,
                              tol_abs=1e-10, tol_rel=1e-8)


# ---------------------------------------------------------------------------
# The swept boundary measure.
# ---------------------------------------------------------------------------


class DemaillyMeasure:
    """The boundary measure mu_c of an exhaustion at level c.

    mu_c is the harmonic-measure sweep onto S_c of the Riesz mass inside
    B_c.  On a C^1 level it is the normal flux (1/2 pi) d_n u ds (Demailly,
    Math. Z. 194, 1987; Poletsky-Stessin, Indiana Univ. Math. J. 57, 2008),
    read on the traced rays: ``w_values`` is its density against
    d phi/(2 pi) at the level's vertices (``boundary_points``), and
    ``u_c_values`` its density against normalized arclength.  ``speed``
    is |dz/d phi| = sqrt(r^2 + r'^2) there.  d_r u in the flux is exact
    where the exhaustion has a ``gradient`` (the level's ``du_dr``) and a
    central difference otherwise.

    ``total_mass`` and ``mass_error`` are the Riesz mass of B_c by area
    quadrature (``pair_over_sublevel``), independent of the flux.  No norm
    route reads them, so they are computed on first read unless passed in.
    """

    def __init__(self, *, spec_label, c, level, measure, w_values, speed,
                 direct=None):
        self.spec_label = spec_label
        self.c = float(c)
        self.level = level
        self._measure = measure
        if direct is not None:
            self._direct = direct
        self.boundary_points = level.vertices
        self.w_values = np.asarray(w_values, dtype=float)
        self.speed = np.asarray(speed, dtype=float)
        self.u_c_values = (self.curve_length() * self.w_values
                           / (2.0 * math.pi * self.speed))

    @functools.cached_property
    def _direct(self):
        return _mass_over_sublevel(self._measure, self.level)

    total_mass = property(lambda self: float(self._direct.value))
    mass_error = property(lambda self: float(self._direct.error))

    def curve_length(self):
        """Length of S_c, the trapezoid rule on |dz/d phi|."""
        return float(2.0 * math.pi * np.mean(self.speed))

    def mass_from_curve(self):
        """Total mass of mu_c, the mean of the flux density over the rays.

        The flux reads the gradient of u on the level and the direct
        total_mass integrates the Riesz density over B_c, so the two are
        independent; their difference is the honest consistency residual.
        """
        return float(np.mean(self.w_values))

    def mass_balance_residual(self):
        return abs(self.mass_from_curve() - self.total_mass)

    def pair_spectral(self, fn):
        """Integral of fn against mu_c, the trapezoid rule over the rays."""
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
            "samples": int(self.level.samples),
            "level_tolerance": self.level.level_tolerance,
            "achieved_tolerance": self.level.achieved_tolerance,
            "paper_refs": [
                "demailly-monge-ampere-boundary-measure",
                "jensen-lelong-two-sided-identity",
            ],
        }


def demailly_measure(spec, c, *, samples=512):
    """Assemble the boundary measure mu_c of an exhaustion at level c.

    Traces the level curve and reads the flux density on its rays: on the
    ray at angle phi with radius r(phi) the density against d phi/(2 pi)
    is w = d_r u (r^2 + r'^2)/r, with r' the spectral derivative of the
    traced radii and d_r u the exact one the trace recorded
    (``LevelSet.du_dr``), or, for an exhaustion without a ``gradient``, a
    central difference of its evaluator.  A circular level about the
    center of a rotation-invariant measure carries the uniform density,
    its mass, so a circle computes the direct mass of B_c at once; other
    levels compute it (``DemaillyMeasure.total_mass``, an area quadrature
    independent of the flux, so mass_balance_residual is a genuine
    consistency check) on first read.
    """
    if not spec.measure.complete:
        raise InvalidParameter(
            f"the Riesz measure of {spec.label} is incomplete; the swept "
            "boundary measure would be missing mass (INCOMPLETE_RIESZ_MEASURE)"
        )
    level = spec.sublevel(c, samples=samples)
    direct = None
    r = level.radii
    if level.is_circle:
        # exact, where a difference quotient of log|z| spreads by 1e-11
        direct = _mass_over_sublevel(spec.measure, level)
        w_vals = np.full(r.size, direct.value)
        speed = r
    else:
        dr = _spectral_derivative(r)
        speed2 = r * r + dr * dr
        du = level.du_dr
        if du is None:
            # The step balances the O(h^2) truncation of the central
            # difference against rounding in u, O(eps/h).  gap/20 keeps
            # both nodes inside the disk, where the evaluator is u and not
            # its zero extension.
            gap = _ray_lengths(level.center, level.angles) - r
            h = np.minimum(1e-5, gap / 20.0)
            ray = np.exp(1j * level.angles)
            du = (spec(level.center + (r + h) * ray)
                  - spec(level.center + (r - h) * ray)) / (2.0 * h)
        w_vals = du * speed2 / r
        speed = np.sqrt(speed2)

    return DemaillyMeasure(
        spec_label=spec.label, c=c, level=level, measure=spec.measure,
        w_values=w_vals, speed=speed, direct=direct,
    )


def djl_both_sides(spec, v, lap_v, c, *, samples=512, v_singularities=(),
                   tol_abs=1e-9, tol_rel=1e-7):
    """Evaluate both sides of the two-sided level identity at one level.

    Left side: integral of v against mu_c, the trapezoid rule over the
    traced rays (``DemaillyMeasure.pair_spectral``).  Right side: the area
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
