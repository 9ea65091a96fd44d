import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval

from pshardy import potential as P
from pshardy.geometry import CONVERGED, integrate_boundary_arc


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_green_function_values():
    assert abs(P.green_function(0.5, 0.0) - math.log(0.5)) < 1e-15
    # |0.5 - 0.25| / |1 - 0.5*0.25| = (1/4) / (7/8) = 2/7
    assert abs(P.green_function(0.5, 0.25) - math.log(2.0 / 7.0)) < 1e-15
    assert P.green_function(1.0 + 0.0j, 0.3) == 0.0  # boundary values vanish


def test_green_function_symmetry_and_sign():
    rng = np.random.default_rng(21)
    for _ in range(40):
        z = complex(*rng.uniform(-0.7, 0.7, 2))
        w = complex(*rng.uniform(-0.7, 0.7, 2))
        if abs(z - w) < 1e-3:
            continue
        a = P.green_function(z, w)
        b = P.green_function(w, z)
        assert abs(a - b) < 1e-13
        assert a < 0.0


def test_green_function_pole_handling():
    with pytest.raises(P.SingularEvaluation):
        P.green_function(0.3 + 0.0j, 0.3)
    vals = P.green_function(np.array([0.3 + 0.0j, 0.5 + 0.0j]), 0.3)
    assert vals[0] == -math.inf
    assert math.isfinite(vals[1])
    with pytest.raises(ValueError):
        P.green_function(0.5, 1.2)


def test_poisson_kernel_values():
    rng = np.random.default_rng(4)
    for _ in range(20):
        zeta = np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(P.poisson_kernel(0.0, zeta) - 1.0) < 1e-14
    assert abs(P.poisson_kernel(0.5, 1.0) - 3.0) < 1e-14
    # broadcasting over boundary arrays
    th = np.linspace(0, 2 * math.pi, 7, endpoint=False)
    vals = P.poisson_kernel(0.2 + 0.1j, np.exp(1j * th))
    assert vals.shape == th.shape
    assert np.all(vals > 0)


def test_poisson_kernel_pole():
    with pytest.raises(P.SingularEvaluation):
        P.poisson_kernel(1.0 + 0.0j, 1.0)
    vals = P.poisson_kernel(np.array([1.0 + 0.0j, 0.0j]), 1.0)
    assert vals[0] == math.inf and vals[1] == 1.0


def test_poisson_kernel_mean_is_one():
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        got = integrate_boundary_arc(
            lambda th: P.poisson_kernel(z, np.exp(1j * th)),
            tol_abs=1e-10, tol_rel=1e-8)
        assert got.status == CONVERGED
        assert abs(got.value - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# spectral extension
# ---------------------------------------------------------------------------


def _grid(n):
    return 2.0 * math.pi * np.arange(n) / n


def test_poisson_integral_reproduces_harmonic_data():
    t = _grid(256)
    rng = np.random.default_rng(13)
    z = rng.uniform(-0.6, 0.6, 6) + 1j * rng.uniform(-0.6, 0.6, 6)
    assert np.max(np.abs(P.poisson_extension(np.cos(t))(z) - z.real)) < 1e-13
    assert np.max(np.abs(P.poisson_extension(np.sin(t))(z) - z.imag)) < 1e-13


def test_poisson_integral_center_mean():
    # P[phi](0) is the mean of the samples; for |1 - e^{it}| on n nodes
    # that is (2/n) cot(pi/2n), which tends to 4/pi
    n = 8192
    values = np.abs(1.0 - np.exp(1j * _grid(n)))
    got = P.poisson_extension(values)(0.0)
    assert abs(got - np.mean(values)) < 1e-15
    assert abs(got - 2.0 / (n * math.tan(math.pi / (2 * n)))) < 1e-14


def test_spectral_extension_matches_harmonic_oracle():
    h = P.poisson_extension(np.cos(_grid(256)))
    rng = np.random.default_rng(17)
    z = rng.uniform(-0.7, 0.7, 30) + 1j * rng.uniform(-0.7, 0.7, 30)
    z = z[np.abs(z) < 0.95]
    assert np.max(np.abs(h(z) - z.real)) < 1e-13
    # constant data extends to the constant
    one = P.poisson_extension(np.ones(256))
    assert np.max(np.abs(one(z) - 1.0)) < 1e-13
    with pytest.raises(ValueError):
        h(1.5)


def test_spectral_extension_matches_samples_on_boundary():
    t = _grid(512)
    values = np.exp(np.cos(t))
    h = P.poisson_extension(values)
    assert np.max(np.abs(h(np.exp(1j * t)) - values)) < 1e-11


def test_periodic_interpolant():
    # on the circle the extension is the trigonometric interpolant of the
    # samples, exact between the nodes for band-limited data
    vals = np.cos(3.0 * _grid(512)) + 0.25
    h = P.poisson_extension(vals)
    th = np.array([0.1, 1.7, 4.0])
    assert np.max(np.abs(h(np.exp(1j * th)) - (np.cos(3 * th) + 0.25))) < 1e-12
    assert abs(h(1.0) - vals[0]) < 1e-12


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(n=st.integers(1, 4097), seed=st.integers(0, 2 ** 32 - 1),
       z=st.complex_numbers(max_magnitude=1.0))
def test_series_kernel_matches_horner(n, seed, z):
    # the blocked kernel sums the same series as numpy's Horner, to within
    # 128 eps sum|a_k| on the closed disk, the circle included
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r = np.sqrt(rng.uniform(0.0, 1.0, 300))
    r[:100] = 1.0
    pts = np.append(r * np.exp(1j * rng.uniform(-math.pi, math.pi, 300)),
                    [z, 0.0, 1.0, -1.0, 1j])
    got = P._series(pts, a)
    bound = 128.0 * np.finfo(float).eps * np.abs(a).sum()
    assert np.max(np.abs(got - polyval(pts, a))) <= bound


def test_series_kernel_shapes_and_mpmath_reference():
    # the 4,097-term series of 8,192 samples of |1 - e^{it}|^(1/2), near
    # and on the circle by z = 1, against a 30-digit mpmath Horner sum
    t = 2.0 * math.pi * np.arange(8192) / 8192
    a = P._analytic_coefficients(np.abs(2.0 * np.sin(t / 2.0)) ** 0.5)
    assert a.size == 4097
    pts = np.array([0.999 * np.exp(0.001j), np.exp(0.01j), 0.9999])
    got = P._series(pts, a)
    bound = 128.0 * np.finfo(float).eps * np.abs(a).sum()
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in a[::-1]]
        for z, g in zip(pts, got):
            ref = mpmath.polyval(coeffs, mpmath.mpc(z.real, z.imag))
            assert abs(complex(ref) - g) <= bound
    # any shape in, the same shape out; a 0-d point stays 0-d
    grid = pts.reshape(3, 1) * np.array([[1.0, 0.5]])
    assert np.array_equal(P._series(grid, a), P._series(grid.ravel(), a).reshape(3, 2))
    assert P._series(0.5, a).shape == ()


# ---------------------------------------------------------------------------
# Riesz measures and Green potentials
# ---------------------------------------------------------------------------


def _radial_2r():
    # Delta u = 2r  =>  Lambda-density |z| / pi, u = (2/9)(r^3 - 1)
    return P.RieszMeasure(
        density=lambda z: np.abs(z) / math.pi,
        radial_profile=lambda s: s / math.pi,
        total_mass_hint=2.0 / 3.0,
        label="radial:2r",
    )


def test_measure_total_mass():
    mu = _radial_2r()
    res = mu.total_mass()
    assert res.status == "CONVERGED"
    assert abs(res.value - 2.0 / 3.0) < 1e-10
    atom = P.RieszMeasure(atoms=((0.3 + 0.0j, 1.5),))
    assert atom.total_mass().value == 1.5


def test_measure_pair():
    mu = _radial_2r()
    res = mu.pair(lambda z: np.abs(z) ** 2, tol_abs=1e-10, tol_rel=1e-9)
    # int |z|^2 dLambda u = 2 int_0^1 s^4 ds = 2/5
    assert res.status == "CONVERGED"
    assert abs(res.value - 0.4) < 1e-8
    atom = P.RieszMeasure(atoms=((0.2 + 0.1j, 2.0),))
    res = atom.pair(lambda z: np.real(z) + 1.0)
    assert abs(res.value - 2.0 * 1.2) < 1e-14


def test_measure_pair_complex():
    mu = _radial_2r()
    val, err, status = mu.pair_complex(lambda z: z * z, tol_abs=1e-10)
    # odd angular moments of a radial measure vanish
    assert abs(val) < 1e-8
    assert status == "CONVERGED"


def test_measure_scaling():
    mu = _radial_2r().scaled(2.5)
    assert abs(mu.total_mass().value - 2.5 * 2.0 / 3.0) < 1e-9
    assert mu.total_mass_hint == pytest.approx(2.5 * 2.0 / 3.0)
    with pytest.raises(ValueError):
        _radial_2r().scaled(-1.0)


def test_green_potential_of_atom_is_green_function():
    mu = P.RieszMeasure(atoms=((0.3 + 0.0j, 1.0),), label="green:0.3")
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(z - 0.3) < 1e-2:
            continue
        assert abs(P.green_potential(mu, z) - P.green_function(z, 0.3)) < 1e-14
    assert P.green_potential(mu, 0.3) == -math.inf


def test_green_potential_radial_closed_form():
    mu = _radial_2r()
    for z in (0.0, 0.5, 0.3 + 0.4j, 0.99, -0.2 - 0.7j):
        want = (2.0 / 9.0) * (abs(z) ** 3 - 1.0)
        got = P.green_potential(mu, z, tol_abs=1e-12, tol_rel=1e-12)
        assert abs(got - want) < 1e-10
    assert P.green_potential(mu, 1.0 + 0.0j) == 0.0
    with pytest.raises(ValueError):
        P.green_potential(mu, 1.5)


def test_green_potential_infinite_mass_is_minus_infinity():
    mu = P.RieszMeasure(
        density=lambda z: 1.0 / (math.pi * (1.0 - np.abs(z)) ** 2),
        radial_profile=lambda s: 1.0 / (math.pi * (1.0 - s) ** 2),
    )
    assert mu.total_mass().status == "DIVERGENT"
    assert P.green_potential(mu, 0.3) == -math.inf


def _laplacian_probe(u, z, h=1e-4):
    """Five-point estimate of (Delta u)/(2 pi) at z, the Riesz density.

    ``u`` must accept a complex array.  The truncation error is O(h^2);
    with the default step the roundoff amplification stays near 1e-8.
    """
    pts = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z], dtype=complex)
    vals = np.asarray(u(pts), dtype=float)
    lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4.0 * vals[4]) / (h * h)
    return float(lap / (2.0 * math.pi))


def test_riesz_density_recovery():
    # build a potential by quadrature from a smooth bump, then probe its
    # Laplacian with the five-point stencil: the declared density must
    # come back
    bump = lambda z: np.exp(-8.0 * np.abs(z - (0.2 + 0.1j)) ** 2)
    mu = P.RieszMeasure(density=bump, label="bump")

    def u(points):
        return np.array(
            [P.green_potential(mu, p, tol_abs=1e-10, tol_rel=1e-9) for p in np.atleast_1d(points)]
        )

    # step chosen to balance the O(h^2) truncation against the ~1e-9
    # quadrature noise the stencil amplifies by 1/h^2
    for zp in (0.4 + 0.25j, -0.1 + 0.3j):
        got = _laplacian_probe(u, zp, h=3e-3)
        want = float(bump(np.array([zp]))[0])
        assert abs(got - want) <= 1e-3 * max(1.0, abs(want))


def test_laplacian_probe_polynomial():
    # the oracle itself: Delta |z|^4 = 16 |z|^2
    zp = 0.3 - 0.2j
    got = _laplacian_probe(lambda pts: np.abs(pts) ** 4, zp)
    assert abs(got - 8.0 * abs(zp) ** 2 / math.pi) < 1e-6


def test_lens_potential_has_no_overflow_at_the_tip():
    # (1 - x)^(m - 2) is huge at the nodes by x = 1, and the chord terms
    # meet a vanishing chord there; points by the tip, on the axes and at
    # the origin take no warning and stay finite
    lens = P.LensPowerDensity(0.5)
    rng = np.random.default_rng(0)
    z = 1.0 - 10.0 ** rng.uniform(-6, -1, 40) * np.exp(
        1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 40))
    z = np.concatenate([z[np.abs(z) < 1.0], [0.0, 0.3j, -0.3, 0.5, 1.0 - 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = lens.green_potential(z)
        same, G = lens.green_gradient(z)
    assert np.all(np.isfinite(vals))
    assert np.all(vals < 0.0)
    assert np.array_equal(same, vals)
    assert np.all(np.isfinite(G))


# ---------------------------------------------------------------------------
# u_m off the lens: the multipole series
# ---------------------------------------------------------------------------


def _rho(z):
    # the rate of the far-field series at z: its own and its reflection's
    return np.maximum(1.0 / np.abs(2.0 * z - 1.0), np.abs(z) / np.abs(2.0 - z))


def test_lens_far_field_gradient_matches_reference():
    # a vertex of the k = 12 rung of u_{3/4} (rho = 0.906), against a
    # 30-digit reference; the chord grid alone was 8.1e-11 off here
    z = 0.9441251476731228 + 0.32739895976309524j
    want = 0.320593673868761874 - 0.112150492838888604j
    u, G = P.LensPowerDensity(0.75).green_gradient(np.array([z]))
    assert _rho(z) < 0.99
    assert abs(G[0] - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
def test_lens_moments_match_gamma_ratios(m):
    # A_k = 2^k int (w - 1/2)^k dsigma_m against the Gamma ratio
    # M_0 Gamma(k+2-m) Gamma(1+m)/(Gamma(2-m) Gamma(k+1+m)), and the mass
    # M_0 against the chord integral of the density, in sigma = sqrt(x)
    # below x = 1/2 and lambda = -log(1 - x) above
    A = P.LensPowerDensity(m)._moments
    assert A.size == 4001
    with mpmath.workdps(30):
        mm = mpmath.mpf(m)
        pref = mm * (1 - mm) / (2 * mpmath.pi)

        def chord(x, omx):
            return 2 * mpmath.sqrt(x * omx) * omx ** (mm - 2)

        left = mpmath.quad(lambda s: chord(s * s, 1 - s * s) * 2 * s,
                           [0, 1 / mpmath.sqrt(2)])
        right = mpmath.quad(lambda lam: chord(1 - mpmath.exp(-lam), mpmath.exp(-lam))
                            * mpmath.exp(-lam), [mpmath.log(2), mpmath.inf])
        M0 = pref * (left + right)
        assert abs(A[0] - M0) <= 1e-14 * M0
        for k in (0, 1, 5, 100, 400, 4000):
            want = (M0 * mpmath.gamma(k + 2 - mm) * mpmath.gamma(1 + mm)
                    / (mpmath.gamma(2 - mm) * mpmath.gamma(k + 1 + mm)))
            assert abs(A[k] - want) <= 1e-14 * want, k


def test_lens_far_field_meets_the_grid_at_the_switch():
    # just inside rho = 0.99 the evaluators take the series, just outside
    # the grid; on 12 angles the two agree on both sides
    lens = P.LensPowerDensity(0.75)
    th = np.linspace(0.25, math.pi, 12)
    th[1::2] *= -1.0
    for d, side in ((-1e-9, 0), (1e-9, 1)):
        z = 0.5 + np.exp(1j * th) / (2.0 * (0.99 + d))
        assert np.all(np.abs(z) < 1.0) and np.all(np.abs(_rho(z) - 0.99 - d) < 1e-15)
        far = lens._far_field(z, True)
        grid = lens._green_block(z, True)
        u, G = lens.green_gradient(z)
        assert np.array_equal(lens.green_potential(z), u)
        assert np.array_equal(np.stack([u, G.real, G.imag]), (far, grid)[side])
        G_far, G_grid = far[1] + 1j * far[2], grid[1] + 1j * grid[2]
        assert np.max(np.abs(far[0] - grid[0])) <= 1e-14
        assert np.max(np.abs(G_far - G_grid) / np.abs(G_grid)) <= 1e-11


@pytest.mark.parametrize("m", [0.5, 0.25])
def test_lens_at_or_below_half_stays_on_the_grid(m):
    # the mass diverges at the tip for m <= 1/2, so there is no series:
    # every point, far ones included, is the chord grid's, bit for bit
    lens = P.LensPowerDensity(m)
    rng = np.random.default_rng(3)
    z = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(2j * math.pi * rng.uniform(size=200))
    assert np.mean(_rho(z) < 0.99) > 0.5
    u, gx, gy = lens._green_block(z, True)
    assert np.array_equal(lens.green_potential(z), u)
    same, G = lens.green_gradient(z)
    assert np.array_equal(same, u)
    assert np.array_equal(G, gx + 1j * gy)
