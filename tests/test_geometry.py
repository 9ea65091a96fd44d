import json
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from pshardy import geometry as G


# ---------------------------------------------------------------------------
# interval integrals
# ---------------------------------------------------------------------------


def test_smooth_interval():
    res = G.integrate_interval(lambda x: np.sin(x), 0.0, math.pi)
    assert res.status == "CONVERGED"
    assert abs(res.value - 2.0) < 1e-9
    assert res.error < 1e-6


def test_left_endpoint_power_singularity():
    res = G.integrate_interval(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_left=True)
    assert res.status == "CONVERGED"
    assert abs(res.value - 2.0) < 1e-6


def test_log_singularity():
    res = G.integrate_interval(lambda x: np.log(x), 0.0, 1.0, singular_left=True)
    assert res.status == "CONVERGED"
    assert abs(res.value + 1.0) < 1e-6


def test_interior_singularity():
    res = G.integrate_interval(
        lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, interior_singularities=[0.3]
    )
    want = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    assert res.status == "CONVERGED"
    assert abs(res.value - want) < 1e-6


def test_nonintegrable_pole_is_divergent():
    res = G.integrate_interval(lambda x: 1.0 / x, 0.0, 1.0, singular_left=True)
    assert res.status == "DIVERGENT"
    assert math.isinf(res.error)


def test_right_endpoint_divergence():
    res = G.integrate_interval(
        lambda x: (1.0 - x) ** -1.2, 0.0, 1.0, singular_right=True
    )
    assert res.status == "DIVERGENT"


def test_power_family_dichotomy():
    # x^-q on (0, 1]: integrable iff q < 1
    rng = np.random.default_rng(7)
    for _ in range(8):
        q = float(rng.uniform(0.05, 0.9))
        res = G.integrate_interval(lambda x: x ** -q, 0.0, 1.0, singular_left=True)
        assert res.status == "CONVERGED"
        assert abs(res.value - 1.0 / (1.0 - q)) < 1e-5 / (1.0 - q)
    for _ in range(4):
        q = float(rng.uniform(1.0, 1.8))
        res = G.integrate_interval(lambda x: x ** -q, 0.0, 1.0, singular_left=True)
        assert res.status == "DIVERGENT"


def test_linearity_and_additivity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.standard_normal(4)

        def f(x):
            return c[0] + c[1] * x + c[2] * np.sin(3 * x) + c[3] * np.exp(-x)

        def g(x):
            return np.cos(2 * x) - 0.5 * x * x

        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        if b - a < 0.1:
            b = a + 0.5
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        lhs = G.integrate_interval(lambda x: alpha * f(x) + beta * g(x), a, b)
        rf = G.integrate_interval(f, a, b)
        rg = G.integrate_interval(g, a, b)
        assert lhs.status == "CONVERGED"
        assert abs(lhs.value - (alpha * rf.value + beta * rg.value)) < 1e-7
        mid = 0.5 * (a + b)
        left = G.integrate_interval(f, a, mid)
        right = G.integrate_interval(f, mid, b)
        assert abs(rf.value - (left.value + right.value)) < 1e-7


@pytest.mark.parametrize("s, delta", [
    *((s, d) for s in (-0.9, -0.7, -0.5) for d in (1e-2, 1e-3, 1e-5)),
    *((s, d) for s in (0.0, 0.5) for d in (1e-3, 1e-5)),
    (-1.0, 1e-3), (-1.2, 1e-3),
])
def test_pre_asymptotic_growth_is_not_divergence(s, delta):
    # x^s/(x + delta)^2 grows like x^(s-2) down to x ~ delta and only then
    # settles to x^s: six shell ratios >= 0.96 there are no divergence
    res = G.integrate_interval(lambda x: x ** s / (x + delta) ** 2, 0.0, 1.0,
                               singular_left=True)
    if s <= -1.0:
        assert res.status == "DIVERGENT"
        return
    # int_0^1 x^s (x + d)^-2 dx = d^-2/(s + 1) 2F1(2, s + 1; s + 2; -1/d)
    mpmath.mp.dps = 30
    ref = float(mpmath.hyp2f1(2, s + 1, s + 2, -1 / mpmath.mpf(delta))
                / (delta ** 2 * (s + 1)))
    assert res.status == "CONVERGED"
    assert abs(res.value - ref) <= res.error


def test_near_pole_power_integral_is_inside_its_error():
    # int_0^1 x^(1/2)/(x + 1e-7)^2 dx = 4965.29413303 (mpmath 1.3, 30
    # digits, from the 2F1 form above and from mpmath.quad split at 1e-7;
    # pi/(2 sqrt(1e-7)) - 2 agrees to 1.4e-7)
    res = G.integrate_interval(lambda x: x ** 0.5 / (x + 1e-7) ** 2, 0.0, 1.0,
                               singular_left=True)
    assert res.status == "CONVERGED"
    assert abs(4965.29413303 - res.value) <= res.error


_ZERO_FROM = 0.0625 + 1e-9  # just above 1/16: the first three dyadic shells are zero


def test_zero_shells_next_to_a_singular_point_are_no_zero_tail():
    # int_0^1 x^(-1/2) [x < s] dx = 2 sqrt(s): the shells outside s are
    # exactly zero, and they resolved a tail of 0 +- 0 before the jump
    res = G.integrate_interval(
        lambda x: np.where(x < _ZERO_FROM, x ** -0.5, 0.0), 0.0, 1.0,
        singular_left=True)
    assert res.status == "CONVERGED"
    assert abs(res.value - 2.0 * math.sqrt(_ZERO_FROM)) <= res.error
    zero = G.integrate_interval(np.zeros_like, 0.0, 1.0, singular_left=True)
    assert (zero.value, zero.error, zero.status, zero.depth) == (0.0, 0.0, "CONVERGED", 0)


def test_zero_shells_about_an_interior_singularity_are_no_zero_tail():
    # |w|^(-1/2) on |w| < R integrates to (4 pi / 3) R^(3/2); each ray of
    # the radial batch starts with zero shells
    def density(d, c):
        r = np.abs(c + d)
        with np.errstate(divide="ignore"):
            return np.where(r < _ZERO_FROM, r ** -0.5, 0.0)

    res = G.integrate_disk_area(density, interior_singularities=[0.0])
    assert res.status == "CONVERGED"
    assert abs(res.value - 4.0 * math.pi / 3.0 * _ZERO_FROM ** 1.5) <= res.error


def test_budget_exhaustion_is_inconclusive(monkeypatch):
    monkeypatch.setattr(G, "DEFAULT_BUDGET", 400)
    res = G.integrate_interval(
        lambda x: np.sin(1000.0 * x * x),
        0.0,
        10.0,
        tol_abs=1e-13,
        tol_rel=1e-13,
    )
    assert res.status == "INCONCLUSIVE"
    assert math.isfinite(res.value)


# ---------------------------------------------------------------------------
# boundary arcs (unit-mass measure on the circle)
# ---------------------------------------------------------------------------


def test_boundary_constant_has_unit_mean():
    res = G.integrate_boundary_arc(lambda th: np.ones_like(th))
    assert res.status == "CONVERGED"
    assert abs(res.value - 1.0) < 1e-12


def test_boundary_mean_of_abs_one_minus_zeta_squared():
    res = G.integrate_boundary_arc(lambda th: np.abs(1.0 - np.exp(1j * th)) ** 2)
    assert res.status == "CONVERGED"
    assert abs(res.value - 2.0) < 1e-7


def test_boundary_singular_arc():
    # mean of |sin t|^-0.6 = Gamma(0.2)*... frozen from a direct quadrature
    res = G.integrate_boundary_arc(
        lambda th: np.abs(np.sin(th)) ** -0.6, singular_points=[0.0, math.pi]
    )
    assert res.status == "CONVERGED"
    assert abs(res.value - 1.9953742624534898) < 2e-5


def test_boundary_divergent_arc():
    res = G.integrate_boundary_arc(
        lambda th: np.abs(1.0 - np.exp(1j * th)) ** -1.1, singular_points=[0.0]
    )
    assert res.status == "DIVERGENT"


def test_poisson_kernel_mean_is_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)

        def pk(th):
            zeta = np.exp(1j * th)
            return (1.0 - abs(w) ** 2) / np.abs(zeta - w) ** 2

        res = G.integrate_boundary_arc(pk)
        assert res.status == "CONVERGED"
        assert abs(res.value - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# area integrals over the disk
# ---------------------------------------------------------------------------


def test_disk_area_constant():
    res = G.integrate_disk_area(lambda d, c: np.ones(np.shape(d)))
    assert res.status == "CONVERGED"
    assert abs(res.value - math.pi) < 1e-8


def test_disk_area_radial_moment():
    res = G.integrate_disk_area(lambda d, c: np.abs(c + d) ** 2)
    assert res.status == "CONVERGED"
    assert abs(res.value - math.pi / 2.0) < 1e-8


def test_disk_area_log_at_declared_center():
    res = G.integrate_disk_area(
        lambda d, c: np.log(np.abs(c + d)), interior_singularities=[0.0]
    )
    assert res.status == "CONVERGED"
    assert abs(res.value + math.pi / 2.0) < 1e-6


def test_disk_area_log_shifted_center():
    # integral of log|z - a| over the disk equals pi (|a|^2 - 1) / 2
    rng = np.random.default_rng(19)
    for _ in range(4):
        a = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        res = G.integrate_disk_area(
            lambda d, c: np.log(np.abs(c + d - a)), interior_singularities=[a]
        )
        want = math.pi * (abs(a) ** 2 - 1.0) / 2.0
        assert res.status == "CONVERGED"
        assert abs(res.value - want) < 2e-6


def test_disk_area_lens_support():
    # constant density on the disk {|z - 1/2| < 1/2}, swept from its
    # boundary contact point: the support circle cuts each chord in half
    res = G.integrate_disk_area(
        lambda d, c: np.ones(np.shape(d)),
        boundary_singularities=[1.0],
        support_disk=(0.5, 0.5),
    )
    assert res.status == "CONVERGED"
    assert abs(res.value - math.pi / 4.0) < 1e-7


def _small_disk(d, c):
    # the indicator of |z - (0.3 + 0.1i)| < 0.2, area 0.04 pi
    return np.where(np.abs(c + d - (0.3 + 0.1j)) < 0.2, 1.0, 0.0)


def test_disk_area_support_about_an_inner_center():
    # rays from a center inside the support disk stop where they leave it,
    # so no ray crosses the jump of the indicator
    res = G.integrate_disk_area(_small_disk, support_disk=(0.3 + 0.1j, 0.2),
                                interior_singularities=[0.35 + 0.05j])
    assert res.status == "CONVERGED"
    assert abs(res.value - math.pi * 0.04) < 1e-12


@pytest.mark.parametrize("center", [
    {"boundary_singularities": [1.0]},
    {"interior_singularities": [-0.5]},
    {},
])
def test_disk_area_support_from_an_outer_center(center):
    # from a center off the support disk a ray runs through the whole disk
    # and stops where it leaves it: the jump where it enters stays, and so
    # does every bit of the mass
    res = G.integrate_disk_area(_small_disk, support_disk=(0.3 + 0.1j, 0.2),
                                **center)
    assert abs(res.value - math.pi * 0.04) <= min(res.error, 1e-2 * math.pi * 0.04)


def _lens_power_density(m):
    # m(1-m)(1-x)^(m-2), reading 1 - x off the offset from the center
    def dens(d, c):
        w = np.clip((1.0 - complex(c).real) - np.real(d), 1e-300, None)
        with np.errstate(over="ignore"):
            v = m * (1.0 - m) * np.power(w, m - 2.0)
        return np.where(np.isfinite(v), v, 0.0)

    return dens


@pytest.mark.parametrize(
    "m", [0.6, 0.75, 0.9]
)
def test_lens_power_mass_finite(m):
    # mass of m(1-m)(1-x)^(m-2) over the lens = 2 m (1-m) B(3/2, m-1/2)
    res = G.integrate_disk_area(
        _lens_power_density(m),
        boundary_singularities=[1.0],
        support_disk=(0.5, 0.5),
        tol_abs=1e-9,
        tol_rel=1e-7,
    )
    want = 2.0 * m * (1.0 - m) * special.beta(1.5, m - 0.5)
    assert res.status == "CONVERGED"
    assert abs(res.value / want - 1.0) < 1e-4


@pytest.mark.parametrize("m", [0.5, 0.49, 0.3])
def test_lens_power_mass_divergent(m):
    res = G.integrate_disk_area(
        _lens_power_density(m),
        boundary_singularities=[1.0],
        support_disk=(0.5, 0.5),
    )
    assert res.status == "DIVERGENT"


@pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
def test_tangent_support_cuts_every_chord_at_its_radius(m):
    # the lens disk touches the circle at the polar center 1, so it cuts
    # each chord at the fraction 1/2: the same integral, bit for bit, as
    # the radial cut of one half
    dens = _lens_power_density(m)
    kw = dict(boundary_singularities=[1.0], tol_abs=1e-9, tol_rel=1e-7)
    by_disk = G.integrate_disk_area(dens, support_disk=(0.5, 0.5), **kw)
    by_cut = G.integrate_disk_area(dens, radial_cut=lambda phi: 0.5, **kw)
    assert by_disk == by_cut


def test_offset_form_matches_plain_form():
    # a density that reads the offset from the center 1 agrees with one
    # that reads the point center + offset
    def plain(d, c):
        z = c + d
        return np.exp(-np.abs(z - 1.0)) * (2.0 + np.cos(3.0 * np.angle(z - 1.0 + 1e-300)))

    def offset(d, c):
        return np.exp(-np.abs(d)) * (2.0 + np.cos(3.0 * np.angle(d)))

    r1 = G.integrate_disk_area(plain, boundary_singularities=[1.0])
    r2 = G.integrate_disk_area(offset, boundary_singularities=[1.0])
    assert r1.status == "CONVERGED" and r2.status == "CONVERGED"
    assert abs(r1.value - r2.value) < 1e-6


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def test_result_json_round_trip():
    res = G.integrate_interval(lambda x: np.exp(x), 0.0, 1.0)
    d = res.to_json_dict()
    s = json.dumps(d)
    back = json.loads(s)
    assert back["status"] == "CONVERGED"
    assert abs(back["value"] - (math.e - 1.0)) < 1e-10
    assert back["error"] >= 0.0


def test_divergent_json_has_null_error():
    res = G.integrate_interval(lambda x: 1.0 / x, 0.0, 1.0, singular_left=True)
    d = res.to_json_dict()
    assert d["status"] == "DIVERGENT"
    assert d["error"] is None
    json.dumps(d)


# ---------------------------------------------------------------------------
# disk automorphisms
# ---------------------------------------------------------------------------


def test_moebius_round_trip():
    t = np.linspace(-0.999, 0.999, 64)
    z = (t[:, None] + 1j * t[None, :]).ravel()
    z = z[np.abs(z) < 0.999]
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.8, 0.8)
        rot = float(rng.uniform(0.0, 2.0 * math.pi))
        phi = G.MoebiusAutomorphism(a, rot)
        assert np.max(np.abs(phi.inverse(phi.forward(z)) - z)) < 1e-11


def test_moebius_derivative_matches_difference_quotient():
    phi = G.MoebiusAutomorphism(0.3 + 0.4j, 0.7)
    z = np.array([0.1 + 0.2j, -0.5j, 0.6, -0.3 - 0.3j])
    h = 1e-6
    num = (phi.forward(z + h) - phi.forward(z - h)) / (2.0 * h)
    assert np.max(np.abs(num - phi.derivative(z))) < 1e-7
