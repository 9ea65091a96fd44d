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

import copy
import functools
import math
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from .geometry import (
    MoebiusAutomorphism,
    _mirrored,
    _ray_lengths,
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
    "LevelLadder",
    "radial_log",
    "radial_smooth",
    "green_exhaustion",
    "scaled_exhaustion",
    "pullback_exhaustion",
    "make_example",
    "sublevel_set",
    "demailly_measure",
    "djl_both_sides",
]


class EmptyLevel(ValueError):
    """The requested sublevel set {u < c} is empty."""


class UnsupportedRegion(RuntimeError):
    """The sublevel region is not a single star-shaped Jordan domain."""


def _lens_measure(m):
    """Riesz measure of the lens power example in unit-mass normalization.

    Its density m(1-m)(1-x)^{m-2} dA/2pi lives on the support disk
    |w - 1/2| < 1/2, where y^2 < x (1 - x).  It reads 1 - x as
    (1 - Re center) - Re offset and y as Im center + Im offset: about the
    boundary point 1 that is -rho cos(phi) to the last bit, with no
    cancellation against the center.  It declares V ~ C t^{2m-2} at the tip,
    and that the lens and the density are mirror-symmetric about the real axis.
    """
    pref = m * (1.0 - m) / (2.0 * math.pi)

    def dens(offset, center):
        center = complex(center)
        omx = (1.0 - center.real) - np.real(offset)
        y = center.imag + np.imag(offset)
        good = y * y < omx * (1.0 - omx)
        return np.where(good, pref * np.where(good, omx, 1.0) ** (m - 2.0), 0.0)

    return RieszMeasure(
        density=dens,
        boundary_singularities={1.0 + 0.0j: 2.0 * m - 2.0},
        total_mass_hint=_lens_mass(m),
        label=f"lens-power:{m:g}",
        support_disk=(0.5 + 0.0j, 0.5),
        mirror_symmetric=True,
    )


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
    ``demailly_measure`` reads the flux off it.  An exhaustion without one
    (the adaptive area-density Green potential) traces by regula falsi
    alone and has no swept measure.

    Everything else reads ``measure``: the boundary weight (derived
    exhaustions a * u and u composed with a disk automorphism, and the
    lens example, carry what it needs on their Riesz measure; see
    ``potential.poisson_balayage``), and rotation invariance, which the
    measure states (``RieszMeasure.is_rotation_invariant``) and which turns
    a level about min_point = 0 into one circle, mirror symmetry
    (``RieszMeasure.is_mirror_symmetric``), which halves the rays of a level
    about a real min_point, and its support, which ``sublevel_set`` checks
    every level against (u on it cached per spec).

    The spec keeps what it traces: its levels and swept measures by the
    exact level c and ray count (``sublevel``, ``demailly``), and one
    ``LevelLadder`` per ray count and depth (``ladder``), the rungs the
    level-sup norm pairs every |f|^p with.  The exhaustion a * u of
    ``scaled_exhaustion`` reads its levels from u's.
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
        self._ladders = {}
        self._scale = None  # (a, inner) when this is a * inner, whose levels it reads
        self._rims = {}  # u at the ends of the rays from min_point, by count
        self._weight = None  # the boundary weight, built on first use
        self._probes = None  # grid points on supp Lambda u, with u there

    def __call__(self, z):
        return self._evaluate(np.asarray(z, dtype=complex))

    def __repr__(self):
        return f"ExhaustionSpec({self.label!r})"

    def _cached(self, cache, build, c, samples):
        key = (float(c), int(samples))
        if key not in cache:
            cache[key] = build(self, c, samples=samples)
        return cache[key]

    def sublevel(self, c, samples=512):
        return self._cached(self._levels, sublevel_set, c, samples)

    def demailly(self, c, samples=512):
        return self._cached(self._demailly, demailly_measure, c, samples)

    def ladder(self, samples, deepest):
        """The ``LevelLadder`` of rungs c_k = -2^{-k}, k = 0 ... deepest."""
        key = (int(samples), int(deepest))
        if key not in self._ladders:
            self._ladders[key] = _dyadic_ladder(self, *key)
        return self._ladders[key]


def radial_log():
    """u = log|z|, the Green potential of the unit point mass at the origin."""
    return green_exhaustion(RieszMeasure(atoms=((0j, 1.0),), label="log"),
                            label="log")


def _radial_rule():
    """The profile-independent tables of ``radial_smooth``: the edges of 400
    panels on [0, 1], their 12-point Gauss-Legendre nodes, weights and log
    nodes, and the 12-point rule on [0, 1] with its x dx and xy dx dy weights
    (x, wx and the flattened products xy, wxy)."""
    glx, glw = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, 1.0, 401)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halfs[:, None] * glx[None, :]
    with np.errstate(divide="ignore"):
        logs = np.where(nodes > 0, np.log(np.where(nodes > 0, nodes, 1.0)), 0.0)
    x = 0.5 * (glx + 1.0)
    wx = 0.5 * glw * x
    return (edges, nodes, halfs[:, None] * glw[None, :], logs, x, wx,
            np.outer(x, x).ravel(), np.outer(wx, wx).ravel())


_RADIAL_RULE = _radial_rule()


def radial_smooth(profile, label):
    """Rotation-invariant exhaustion from a plain radial Laplacian profile.

    ``profile(s)`` is the ordinary Laplacian on radius s (vectorized,
    integrable near both endpoints after the s ds weight).  The potential
    is recovered from the exact one-dimensional reduction
    u(r) = M(r) log r + T(r) with M the cumulative (2 pi-normalized) mass
    and T the outer log moment, both tabulated once on 400 12-point Gauss
    panels and interpolated with splines.  Its ``gradient`` is G = M(r)/z.
    Below r = 0.02, where M_sp log r would carry the spline's error in M,
    M(r) = r^2 int_0^1 x profile(rx) dx and u(r) - u(0) = int_0^r M(t)/t dt
    = r^2 int_0^1 int_0^1 xy profile(rxy) dx dy take 12-point Gauss rules.
    """
    from scipy.interpolate import CubicSpline

    edges, nodes, wts, logs, x, wx, xy, wxy = _RADIAL_RULE
    svals = profile(nodes.ravel()).reshape(nodes.shape)
    m_pan = np.sum(nodes * svals * wts, axis=1)
    t_pan = np.sum(nodes * svals * logs * wts, axis=1)
    M_edges = np.concatenate([[0.0], np.cumsum(m_pan)])
    T_edges = np.concatenate([[np.sum(t_pan)], np.sum(t_pan) - np.cumsum(t_pan)])
    M_sp = CubicSpline(edges, M_edges)
    T_sp = CubicSpline(edges, T_edges)
    total = M_edges[-1]

    def near_origin(r, out, nodes, weights, base=0.0):
        # out at r < 0.02 set to base + r^2 sum_i weights_i profile(r nodes_i)
        low = r < 0.02
        s = r[low][:, None] * nodes
        out[low] = base + r[low] ** 2 * (profile(s.ravel()).reshape(s.shape) @ weights)
        return out

    def u_r(r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, 1.0)
        safe = np.maximum(rc, 1e-300)
        out = np.where(r >= 1.0, 0.0, M_sp(rc) * np.log(safe) + T_sp(rc))
        return near_origin(rc, out, xy, wxy, T_edges[0])

    def ev(z):
        z = np.asarray(z, dtype=complex)
        return u_r(np.abs(z))

    def grad(z):
        # u' = M/r, as M' log r + T' = 0, so G = u' conj(z)/r = M(r)/z
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        inside = (r > 0.0) & (r < 1.0)
        rc = np.minimum(r, 1.0)
        G = near_origin(rc, np.array(M_sp(rc)), x, wx) / np.where(inside, z, 1.0)
        return u_r(r), np.where(inside, G, 0.0)

    def lam(s):
        s = np.asarray(s, dtype=float)
        return profile(s) / (2.0 * math.pi)

    measure = RieszMeasure(
        density=lambda d, c: lam(np.abs(c + d)),
        radial_profile=lam,
        interior_singularities=(0.0 + 0.0j,),
        total_mass_hint=total,
        label=label,
    )
    return ExhaustionSpec(
        label, ev, measure,
        min_value=float(T_edges[0]), min_point=0.0,
        value_error=1e-10, gradient=grad,
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
    ``value_error`` is _AREA_VALUE_ERROR, and it has no ``gradient``.
    """
    if not isinstance(measure, RieszMeasure):
        raise InvalidParameter("green_exhaustion expects a RieszMeasure")
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
    """a * u for a > 0; sublevels obey B_{c, a u} = B_{c/a, u}.

    So its level at c is the inner level at c/a, read from the inner
    exhaustion (and traced there if it is not yet): the same radii and
    vertices, with ``u_values``, ``du_dr`` and ``achieved_tolerance`` times a.
    """
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

    spec = ExhaustionSpec(
        f"scaled:{a:g}:{inner.label}", ev, inner.measure.scaled(a),
        min_value=a * inner.min_value, min_point=inner.min_point,
        value_error=a * inner.value_error, gradient=grad,
    )
    spec._scale = (a, inner)
    return spec


def pullback_exhaustion(automorphism, inner):
    """u composed with a disk automorphism.

    The Riesz mass transforms with the Jacobian |phi'|^2 on densities and
    by preimages on atoms, so norms built on the pullback match the inner
    exhaustion's norms composed with the map.  The pulled density at
    center + offset is the inner one at phi(center) + shift, where the
    shift phi(center + offset) - phi(center) is the exact Moebius
    difference, so a density that reads its offset keeps its precision;
    a declared boundary point maps to its inner point exactly, with its
    exponent.  A pulled area part carries the transported balayage
    V(phi(e^{it})) |phi'(e^{it})| of the inner measure, whose mass it keeps;
    atoms alone just move, and so does a declared support disk, to its image
    disk.  It declares no ``moments``, so the bulk route pairs on it by
    quadrature.  A map with real a and no rotation commutes with conjugation,
    phi(conj z) = conj phi(z), so the pulled measure is mirror-symmetric
    when the inner one is.
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
    interior = tuple(
        complex(mob.inverse(s)) for s in inner.measure.interior_singularities
    )
    boundary = {complex(mob.inverse(s)): alpha
                for s, alpha in inner.measure.boundary_singularities.items()}
    dens = inner.measure.density
    new_dens = None
    if dens is not None:
        # phi(phi^-1(s)) is s only up to rounding, which would swamp the
        # offsets of the deep shells about a boundary center; the keys are
        # the centers integrate_disk_area makes of the declared points
        exact = {b / abs(b): s / abs(s) for b, s in
                 zip(boundary, inner.measure.boundary_singularities)}
        a = mob.a
        scale = np.exp(1j * mob.rot) * (1.0 - abs(a) ** 2)

        def new_dens(d, c):
            z = c + d
            shift = scale * d / ((1.0 - np.conj(a) * z) * (1.0 - np.conj(a) * c))
            inner_c = exact[c] if c in exact else complex(mob.forward(c))
            return dens(shift, inner_c) * np.abs(mob.derivative(z)) ** 2

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
        label=f"pullback:{inner.measure.label}",
        support_disk=support,
        balayage=swept,
        mirror_symmetric=(complex(mob.a).imag == 0.0 and mob.rot == 0.0
                          and inner.measure.is_mirror_symmetric()),
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
    """The lens density of u_m with the minimum value and point of u_m.

    u_m is flat to 1e-17 about its minimum, so the point is the root of Re G
    on the real axis in [1e-6, 1 - 1e-9], or where u_m still falls there
    (m < 0.04) in [1 - 1e-9, 1 - 2e-15], that end if it falls throughout.
    """
    key = round(float(m), 12)
    if key not in _POWER_CACHE:
        density = LensPowerDensity(m)
        if m == 1.0:
            minval, minpt = 0.0, 0.0
        else:
            def slope(x):
                return float(density.green_gradient(np.array([x + 0j]))[1][0].real)

            lo, hi = 1e-6, 1.0 - 1e-9
            if slope(hi) <= 0.0:
                lo, hi = hi, 1.0 - 2e-15
            minpt = (hi if slope(hi) <= 0.0
                     else brentq(slope, lo, hi, xtol=1e-16, rtol=8.9e-16))
            minval = float(density.green_potential(np.array([minpt + 0j]))[0])
        _POWER_CACHE[key] = (density, minval, minpt)
    return _POWER_CACHE[key]


def make_example(kind, m):
    """The worked one-parameter family on the disk.

    kind selects between the lens-restricted Riesz measure of the power
    profile -(1 - Re z)^m ("sigma_m", a RieszMeasure) and the Green
    potential of the lens measure ("u_m", an ExhaustionSpec).
    """
    norm = str(kind).replace("_", "").replace("-", "").lower()
    if norm not in {"sigmam", "um"}:
        raise InvalidParameter(f"unknown example kind: {kind!r}")
    m = float(m)
    if not 0.0 < m <= 1.0:
        raise InvalidParameter("power parameter must lie in (0, 1]")

    if norm == "sigmam":
        return _lens_measure(m)

    density, min_value, min_point = _power_state(m)
    return ExhaustionSpec(
        f"um:{m:g}", density.green_potential,
        replace(_lens_measure(m), balayage=density.balayage,
                moments=density.moments),
        min_value=min_value, min_point=min_point,
        value_error=density.value_error, gradient=density.green_gradient,
    )


# ---------------------------------------------------------------------------
# Sublevel sets.
# ---------------------------------------------------------------------------


# the value tolerance of a traced level, relative to |c|
_LEVEL_TOL = 1e-4


class LevelSet:
    """Traced boundary of a sublevel set {u < c}, star-shaped about center.

    Vertices sit on the curve to within level_tolerance in u-value.
    ``radius_at`` is r(phi) at any angle: the trigonometric interpolant of
    the traced radii, the boundary value of their ``poisson_extension``.
    ``u_values`` holds the value of the exhaustion's evaluator at each
    vertex.  ``achieved_tolerance`` is the largest |u_values - c| plus the
    evaluator's ``value_error``, so it bounds the distance of the true u
    from c at every vertex.  ``du_dr`` holds d_r u = Re(G e^{i phi}) at each
    vertex for an exhaustion with a ``gradient``, circles included; it is
    None for the others, which have no swept measure.
    """

    def __init__(self, *, c, center, angles, radii, u_values, spec_label,
                 is_circle=False, achieved_tolerance=0.0, du_dr=None):
        self.c = float(c)
        self.center = complex(center)
        self.angles = np.asarray(angles, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.u_values = np.asarray(u_values, dtype=float)
        # a copy: a view of Re(G e^{i phi}) would keep the complex product alive
        self.du_dr = None if du_dr is None else np.array(du_dr, dtype=float)
        self.spec_label = spec_label
        self.is_circle = bool(is_circle)
        self.level_tolerance = _LEVEL_TOL * abs(self.c)
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

    def _scaled(self, a, c, spec_label):
        """This level as the level c of a * u: the same curve, its radii and
        vertices shared, with u_values, du_dr and achieved_tolerance times a."""
        out = copy.copy(self)
        out.c, out.spec_label = float(c), spec_label
        out.level_tolerance = _LEVEL_TOL * abs(out.c)
        out.u_values = a * self.u_values
        out.du_dr = None if self.du_dr is None else a * self.du_dr
        out.achieved_tolerance = a * self.achieved_tolerance
        return out


def _support_probes(spec):
    """The points of a 96 x 96 grid in the ``support_disk`` of the area part
    of Lambda u (in |z| < 0.999 when it declares none) with u there,
    evaluated once per spec.  The grid is mirror-symmetric to the last bit;
    when u is (``RieszMeasure.is_mirror_symmetric``), u is evaluated on the
    probes in the upper half-plane and read for their conjugates.  Atoms
    alone have no probes."""
    if spec._probes is None:
        z = np.empty(0, dtype=complex)
        if spec.measure.has_area_part():
            pos = np.linspace(-0.999, 0.999, 96)[48:]
            ax = np.concatenate([-pos[::-1], pos])
            z = (ax[None, :] + 1j * ax[:, None]).ravel()
            c0, r0 = spec.measure.support_disk or (0.0, 0.999)
            z = z[(np.abs(z) < 0.999) & (np.abs(z - c0) < r0)]
        mirror = spec.measure.is_mirror_symmetric()
        if mirror:
            z = z[z.imag > 0.0]
        u = spec(z) if z.size else np.empty(0)
        spec._probes = ((np.concatenate([z, z.conj()]), np.concatenate([u, u]))
                        if mirror else (z, u))
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
    keys = [key for key in spec._levels if key[1] == samples and key[0] < c]
    return spec._levels[max(keys)] if keys else None


def _level_tolerance(spec, c):
    """tol_u = 1e-4 |c| of the level c and ``need``, the slack a vertex's
    |u - c| must meet, after refusing before any evaluation a level that is
    not negative, that lies at or below the minimum of u (EmptyLevel), or
    that the evaluator is not accurate enough to place (UnsupportedRegion)."""
    if not (math.isfinite(c) and c < 0.0):
        raise InvalidParameter("the level must be a negative real number")
    if math.isfinite(spec.min_value) and c <= spec.min_value:
        raise EmptyLevel(
            f"level {c:g} is at or below the minimum {spec.min_value:.6g} "
            f"of {spec.label}"
        )
    tol_u = _LEVEL_TOL * abs(c)
    need = 0.5 * tol_u - spec.value_error
    if not need > 0.0:
        raise UnsupportedRegion(
            f"{spec.label} is evaluated to {spec.value_error:.3g}, not within "
            f"half the value tolerance {tol_u:.3g} of the level {c:g}"
        )
    return tol_u, need


def _is_circular(spec):
    """Whether every level of spec is a circle about 0."""
    return spec.measure.is_rotation_invariant() and abs(spec.min_point) < 1e-14


_CIRCLE_ENDS = np.array([1e-14, 1.0 - 1e-14])  # the bracket of every circle radius
_CIRCLE_STEPS = 100  # evaluations a circle radius gets


def _circle_levels(spec, cs, samples):
    """The circle levels {u = c} of a rotation-invariant u about 0, solved
    together, one for each c in cs.

    u(r) increases and is convex in s = log r (Hadamard's three-circles
    theorem), so Newton's steps in s, s <- s - (u - c)/d_s u with
    d_s u = r Re G(r) (G is real on the positive axis), taken from the outer
    end of the bracket [1e-14, 1 - 1e-14], stay above the root and fall
    onto it; a step that leaves the bracket, which only rounding or the
    evaluator's error can make, bisects it in s instead.  Without a ``gradient``, d_s u is the secant
    slope through the last two iterates (the bracket's ends at first).
    Every radius takes its steps in the same evaluations and stops once its
    step is at most one ulp, or its bracket is at rounding.  Then one
    ``gradient`` call on the vertices of every circle gives d_r u there.

    Returns, for each c, its LevelSet or the UnsupportedRegion of a level
    that u at the ends of the bracket does not bracket, or whose radius has
    not settled in _CIRCLE_STEPS steps.
    """
    cs = np.asarray(cs, dtype=float)
    if not cs.size:
        return []
    evaluate, grad = spec._evaluate, spec.gradient

    def at(r):
        # u and d_s u = r d_r u on the positive axis, nan without a gradient
        if grad is None:
            return evaluate(r + 0j), np.full(r.size, np.nan)
        u, G = grad(r + 0j)
        return u, r * G.real

    u_ends, slope_ends = at(_CIRCLE_ENDS)
    if grad is None:
        slope_ends[1] = (u_ends[1] - u_ends[0]) / math.log(_CIRCLE_ENDS[1] / _CIRCLE_ENDS[0])
    lo, hi = (np.full(cs.size, end) for end in _CIRCLE_ENDS)
    r, u, slope = hi.copy(), np.full(cs.size, u_ends[1]), np.full(cs.size, slope_ends[1])
    bracketed = (u_ends[0] < cs) & (cs < u_ends[1])
    live = bracketed.copy()
    for _ in range(_CIRCLE_STEPS):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        ri, fi, a, b = r[idx], u[idx] - cs[idx], lo[idx], hi[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = ri * np.exp(-fi / slope[idx])
        done = (np.abs(step - ri) <= np.spacing(ri)) | (fi == 0.0) | (b - a <= 4e-16 * b)
        step = np.where((step > a) & (step < b), step, np.sqrt(a * b))
        live[idx[done]] = False
        idx, ri, fi, step = idx[~done], ri[~done], fi[~done], step[~done]
        if not idx.size:
            break
        u_new, s_new = at(step)
        f_new = u_new - cs[idx]
        if grad is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                s_new = (f_new - fi) / np.log(step / ri)
        below = f_new < 0.0
        lo[idx] = np.where(below, step, lo[idx])
        hi[idx] = np.where(below, hi[idx], step)
        r[idx], u[idx], slope[idx] = step, u_new, s_new

    worst = np.abs(u - cs) + spec.value_error
    good = bracketed & ~live
    ang = 2.0 * math.pi * np.arange(samples) / samples
    ray = np.exp(1j * ang)
    du_dr = None
    if grad is not None and good.any():
        du_dr = np.real(grad(r[good, None] * ray)[1] * ray)
    row = np.cumsum(good) - 1
    levels = []
    for k, c in enumerate(cs.tolist()):
        if not bracketed[k]:
            levels.append(UnsupportedRegion(
                f"could not bracket the level {c:g} on the radius of {spec.label}: "
                f"u is {u_ends[0]:.6g} at r = 1e-14 and {u_ends[1]:.3g} at the rim "
                "r = 1 - 1e-14"))
        elif not good[k]:
            levels.append(UnsupportedRegion(
                f"the radius of the level {c:g} of {spec.label} did not settle "
                f"in {_CIRCLE_STEPS} steps"))
        else:
            levels.append(LevelSet(
                c=c, center=0.0, angles=ang, radii=np.full(samples, r[k]),
                u_values=np.full(samples, u[k]), spec_label=spec.label,
                is_circle=True, achieved_tolerance=worst[k],
                du_dr=None if du_dr is None else du_dr[row[k]]))
    return levels


def sublevel_set(spec, c, *, samples=512):
    """Trace S_c = {u = c} as a star-shaped polyline about the minimum.

    A rotation-invariant exhaustion about 0 has circles for levels, solved
    by ``_circle_levels`` (which solves every circle rung of a ladder in one
    batch), and the level of a * u (``scaled_exhaustion``) is the inner
    level at c/a.  Otherwise every ray
    from the minimum is bracketed and solved on the exhaustion's evaluator
    (``_bracketed_roots``), to 1e-6 of tol_u = 1e-4 |c| where its steps
    allow; a ray whose |u - c| plus ``spec.value_error`` is still above
    tol_u/2 gets further steps, and one that misses after those fails the
    trace.  The outer end of each ray sits just inside the unit circle; u
    there is the same on every level, so it is evaluated once per spec and
    ray count.  When the measure is mirror-symmetric
    (``RieszMeasure.is_mirror_symmetric``), the minimum is real and the ray
    count n even, u(conj z) = u(z) makes ray n - j the mirror image of ray
    j: rays 0 ... n/2 are solved (and their ends evaluated), and the radii,
    values and d_r u of the others are theirs.

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
    tol_u, need = _level_tolerance(spec, c)
    if spec._scale is not None:
        a, inner = spec._scale
        return inner.sublevel(c / a, samples=samples)._scaled(a, c, spec.label)
    if _is_circular(spec):
        level, = _circle_levels(spec, [c], samples)
        if isinstance(level, UnsupportedRegion):
            raise level
        return level

    ang = 2.0 * math.pi * np.arange(samples) / samples
    ray = np.exp(1j * ang)
    z0 = spec.min_point
    # about a real minimum of a mirror-symmetric u, u(conj z) = u(z): the
    # rays 0 ... n/2 are solved, the others are their mirror images
    rays = samples
    if spec.measure.is_mirror_symmetric() and z0.imag == 0.0 and samples % 2 == 0:
        rays = samples // 2 + 1
    ray = ray[:rays]
    full = _ray_lengths(z0, ang[:rays]) * (1.0 - 1e-12)

    hi = full.copy()
    if samples not in spec._rims:
        spec._rims[samples] = spec(z0 + hi * ray)
    u_hi = spec._rims[samples] - c
    slope_lo = None
    below = _deeper_level(spec, c, samples) if spec.gradient else None
    if below is not None and np.all(below.u_values < c):
        lo, u_lo = below.radii[:rays], below.u_values[:rays] - c
        slope_lo = below.du_dr[:rays]
    elif math.isfinite(spec.min_value):
        # every ray starts at the minimum point: one evaluation serves all
        lo = np.zeros(rays)
        u_lo = np.full(rays, float(spec(np.array([z0]))[0]) - c)
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
    if rays < samples:
        radii, ut, du_dr = _mirrored(radii), _mirrored(ut), _mirrored(du_dr)
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
    is |dz/d phi| = sqrt(r^2 + r'^2) there.  d_r u in the flux is the
    exact one of the exhaustion's ``gradient`` (the level's ``du_dr``).
    A circle is no exception: its flux is uniform, and it is read the same
    way.

    ``total_mass`` and ``mass_error`` are the Riesz mass of B_c by area
    quadrature (``RieszMeasure.total_mass`` restricted to the level, at
    1e-10 abs, 1e-8 rel), independent of the flux.  No norm route reads
    them, so they are computed on first read, on every level.
    """

    def __init__(self, *, spec_label, c, level, measure, w_values, speed):
        self.spec_label = spec_label
        self.c = float(c)
        self.level = level
        self._measure = measure
        self.boundary_points = level.vertices
        self.w_values = np.asarray(w_values, dtype=float)
        self.speed = np.asarray(speed, dtype=float)
        self.u_c_values = (self.curve_length() * self.w_values
                           / (2.0 * math.pi * self.speed))

    @functools.cached_property
    def _direct(self):
        return self._measure.total_mass(level=self.level, tol_abs=1e-10,
                                        tol_rel=1e-8)

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
        return float(np.mean(np.real(fn(self.boundary_points)) * self.w_values))

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
    (``LevelSet.du_dr``).  That is the one rule, on every level: on a
    circle r' vanishes and w is the uniform d_r u r.  An exhaustion that
    has no ``gradient``, and so no flux to read, is refused before any
    tracing.  The direct mass of B_c
    (``DemaillyMeasure.total_mass``, an area quadrature independent of
    the flux, so mass_balance_residual is a genuine consistency check) is
    computed on first read.
    """
    if spec.gradient is None:
        raise InvalidParameter(
            f"{spec.label} has no gradient, so no flux through its levels"
        )
    level = spec.sublevel(c, samples=samples)
    r = level.radii
    dr = _spectral_derivative(r)
    speed2 = r * r + dr * dr
    return DemaillyMeasure(
        spec_label=spec.label, c=c, level=level, measure=spec.measure,
        w_values=level.du_dr * speed2 / r, speed=np.sqrt(speed2),
    )


# ---------------------------------------------------------------------------
# The dyadic level ladder.
# ---------------------------------------------------------------------------


class LevelLadder:
    """The swept measures mu_c of one exhaustion at c_k = -2^{-k}, k <= deepest.

    ``measures`` are the rungs in the order of k, and ``levels`` their c.
    A level at or below the minimum of u is no rung.  ``skipped`` holds the
    levels before the first rung that did not trace; a level that does not
    trace past it ends the ladder, so the rungs stay contiguous, and
    ``stop`` is its note (None when the ladder reaches k = deepest).
    ``points`` and ``weights`` stack the rungs' boundary points and flux
    densities against d phi/(2 pi) as rungs x samples arrays; each rung's
    ``boundary_points`` (its level's ``vertices``) and ``w_values`` are rows
    of them, so the ladder is stored once, and the pairings of h with every
    rung are one product: mean(h(points) * weights, axis=1).
    """

    def __init__(self, measures, skipped, stop, samples):
        self.measures = tuple(measures)
        self.levels = np.array([mu.c for mu in self.measures])
        self.skipped = tuple(skipped)
        self.stop = stop
        self.points = np.empty((len(self.measures), samples), dtype=complex)
        self.weights = np.empty((len(self.measures), samples))
        for mu, z, w in zip(self.measures, self.points, self.weights):
            z[:], w[:] = mu.boundary_points, mu.w_values
            mu.boundary_points = mu.level.vertices = z
            mu.w_values = w


def _trace_circles(spec, cs, samples):
    """Trace in one batch the circle levels among cs that spec has not
    cached, on the inner exhaustion at c/a when spec is a * inner."""
    while spec._scale is not None:
        a, spec = spec._scale
        cs = [c / a for c in cs]
    if not _is_circular(spec):
        return
    todo = []
    for c in cs:
        try:
            _level_tolerance(spec, c)
        except (ValueError, UnsupportedRegion):
            continue
        if (c, samples) not in spec._levels:
            todo.append(c)
    for c, level in zip(todo, _circle_levels(spec, todo, samples)):
        if isinstance(level, LevelSet):
            spec._levels[(c, samples)] = level


def _dyadic_ladder(spec, samples, deepest):
    """Build the ``LevelLadder`` of spec: its circle rungs traced together
    (``_trace_circles``), then each rung's swept measure, in the order of k,
    from the spec's caches (``ExhaustionSpec.demailly``)."""
    cs = [c for c in (-(2.0 ** -k) for k in range(deepest + 1)) if c > spec.min_value]
    _trace_circles(spec, cs, samples)
    measures, skipped, stop = [], [], None
    for c in cs:
        try:
            mu = spec.demailly(c, samples=samples)
        except EmptyLevel:
            continue
        except (UnsupportedRegion, ValueError) as exc:
            # deep levels may not trace (several components, not star-
            # shaped); past the first traced rung a failure ends the
            # ladder so the rungs of the Richardson step stay contiguous
            if not measures:
                skipped.append(c)
                continue
            stop = f"ladder stopped at c={c:g}: {exc}"
            break
        measures.append(mu)
    return LevelLadder(measures, skipped, stop, samples)


def djl_both_sides(spec, v, lap_v, c, *, samples=512, v_singularities=(),
                   tol_abs=1e-9, tol_rel=1e-7):
    """Evaluate both sides of the two-sided level identity at one level.

    Left side: integral of v against mu_c, the trapezoid rule over the
    traced rays (``DemaillyMeasure.pair_spectral``).  Right side: the area
    bookkeeping int_{B_c} (v dLambda u - u Lambda v dA) + c int_{B_c} Lambda v dA,
    each term a ``RieszMeasure.pair`` restricted to the level: the first
    against Lambda u, the last two against plain area, a unit density that
    declares ``v_singularities`` and the atoms of Lambda u as its singular
    points (the pairing keeps those B_c contains).  ``lap_v`` is the
    (1/2 pi)-normalized Laplacian of v.  Returns a dict with both sides,
    the pieces, and the residual.
    """
    dm = spec.demailly(c, samples=samples)
    level = dm.level
    lhs = dm.pair_spectral(v)

    v_mass = spec.measure.pair(v, level=level, tol_abs=tol_abs, tol_rel=tol_rel)

    sing = [complex(s) for s in v_singularities]
    for loc, _ in spec.measure.atoms:
        if loc not in sing:
            sing.append(complex(loc))

    def u_lap(w):
        return np.real(spec(w)) * np.real(lap_v(w))

    area = RieszMeasure(density=lambda d, c: np.ones(np.shape(d)),
                        interior_singularities=tuple(sing), label="area")
    u_lap_int = area.pair(u_lap, level=level, tol_abs=tol_abs, tol_rel=tol_rel)
    lap_int = area.pair(lap_v, level=level, tol_abs=tol_abs, tol_rel=tol_rel)
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
