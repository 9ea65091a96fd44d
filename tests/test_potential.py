import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.special import beta

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
        density=lambda d, c: np.abs(c + d) / math.pi,
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


def test_measure_pair_reads_the_real_part_of_h():
    # a complex h is paired through its real part, with or without a
    # level, atoms included, bit for bit as its real part
    from pshardy.exhaustion import radial_smooth

    level = radial_smooth(lambda r: 2.0 * r, "2r").sublevel(-0.15)
    atoms = P.RieszMeasure(atoms=((0.2 + 0.1j, 2.0),))
    for mu in (_radial_2r(), atoms):
        for lev in (None, level):
            whole = mu.pair(lambda w: w ** 2, level=lev)
            real = mu.pair(lambda w: (w ** 2).real, level=lev)
            assert whole == real


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


@pytest.mark.parametrize("declared", [(1.0 + 0.0j,), [1.0], {1.0: math.inf},
                                      {1.0: math.nan}, {1.0: 1j}])
def test_measure_refuses_a_declaration_that_is_not_an_exponent_mapping(declared):
    # boundary points map to the exponent of V there; a bare tuple of
    # points (the older format) is refused at construction
    with pytest.raises(P.InvalidParameter, match="mapping"):
        P.RieszMeasure(density=lambda d, c: np.zeros(np.shape(d)),
                       boundary_singularities=declared)
    measure = P.RieszMeasure(boundary_singularities={1.0 + 0.0j: -0.5})
    assert measure.scaled(2.0).boundary_singularities == {1.0 + 0.0j: -0.5}


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
        density=lambda d, c: 1.0 / (math.pi * (1.0 - np.abs(c + d)) ** 2),
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
    bump = lambda d, c: np.exp(-8.0 * np.abs(c + d - (0.2 + 0.1j)) ** 2)
    mu = P.RieszMeasure(density=bump, label="bump")

    def u(points):
        return np.array(
            [P.green_potential(mu, p, tol_abs=1e-10, tol_rel=1e-9) for p in np.atleast_1d(points)]
        )

    # step chosen to balance the O(h^2) truncation against the ~1e-9
    # quadrature noise the stencil amplifies by 1/h^2
    for zp in (0.4 + 0.25j, -0.1 + 0.3j):
        got = _laplacian_probe(u, zp, h=3e-3)
        want = float(bump(np.array([zp]), 0.0)[0])
        assert abs(got - want) <= 1e-3 * max(1.0, abs(want))


def test_laplacian_probe_polynomial():
    # the oracle itself: Delta |z|^4 = 16 |z|^2
    zp = 0.3 - 0.2j
    got = _laplacian_probe(lambda pts: np.abs(pts) ** 4, zp)
    assert abs(got - 8.0 * abs(zp) ** 2 / math.pi) < 1e-6


def test_lens_potential_has_no_overflow_at_the_tip():
    # S^(m-1) is huge on the tip panels and the kernels' poles close in on
    # the tip with the point; points by the tip, on the axes and at the
    # origin take no warning and stay finite
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
    # 30-digit reference; the lens-circle rule alone is within 3e-15 here
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
    A = (P._lens_mass(m) * P._lens_ratios(m, 4001)).astype(float)
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


@pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
def test_lens_plain_moments_match_beta_closed_forms(m):
    # M_k = int w^k dsigma_m: M_0 is the lens mass and M_1 the Beta value
    # m(1-m) B(5/2, m - 1/2)/pi of the benchmark's references
    M = P.LensPowerDensity(m).moments(2)
    assert M[0] == P._lens_mass(m)
    want = m * (1.0 - m) * beta(2.5, m - 0.5) / math.pi
    assert abs(M[1] - want) <= P._MOMENT_ERROR * want


@pytest.mark.parametrize("m", [0.25, 0.4, 0.5, 0.75])
def test_lens_first_finite_moment_matches_its_closed_form(m):
    # nu_1 = int (w - 1) dsigma_m = -m(1-m) B(3/2, m + 1/2)/pi, finite for
    # every m; for m <= 1/2 the table holds nu_k itself, else M_k = M_0 + nu_k
    M = P.LensPowerDensity(m).moments(2)
    nu = M[1] - M[0] if m > 0.5 else M[1]
    if m <= 0.5:
        assert M[0] == 0.0
    want = -m * (1.0 - m) * beta(1.5, m + 0.5) / math.pi
    assert abs(nu - want) <= P._MOMENT_ERROR * abs(want)


# nu_k = int (w^k - 1) dsigma_m to 30 digits, by m and k
_NU_REFERENCE = {
    0.25: {2: "-0.108057633162756868308829513970", 7: "-0.305882851047802723706108099289",
           50: "-1.14902190620469631473200065381", 300: "-3.17897660883747839798186812101"},
    0.5: {2: "-0.0954929658551372014613302580235", 7: "-0.226063970893676265360522165570",
          50: "-0.511230595478998089385499897316", 300: "-0.792454561462312970268238865247"},
    0.75: {2: "-0.0514867207526213978550232627376", 7: "-0.104995560444329133376247355191",
           50: "-0.166865092216852434951465310147", 300: "-0.191417918726111221589200039878"},
}


def test_lens_moments_match_mpmath_quadrature():
    """The moment table against 30-digit quadratures of nu_k.

    Recipe (mpmath 1.3, mp.dps = 40): with x = cos^2(phi) the chord of the
    lens at x runs from cos(phi) e^{-i phi} to cos(phi) e^{i phi}, so its
    integral of w^k - 1 over y is b(phi) = 2 cos^(k+1)(phi) sin((k+1) phi)/(k+1)
    - 2 cos(phi) sin(phi), and nu_k = m(1-m)/(2 pi) times the integral over
    0 < phi < pi/2 of sin^(2m-4)(phi) b(phi) 2 cos(phi) sin(phi), which is
    like phi^(2m) at the tip phi = 0.  mp.quad splits [0, pi/2] at every
    pi/(8(k+1)) and, below the first of these, by the tip at 2^-j for j = 1
    to 40.  At mp.dps = 55 every value moved by less than 1e-34; nu_1 is
    the closed form of the test above to 1e-32.  For m = 3/4 the table holds
    M_k, held against M_0 + nu_k with M_0 from mpmath's Beta function.
    """
    with mpmath.workdps(30):
        for m, refs in _NU_REFERENCE.items():
            M = P.LensPowerDensity(m).moments(301)
            mm = mpmath.mpf(m)
            M0 = mm * (1 - mm) * mpmath.beta(1.5, mm - 0.5) / mpmath.pi if m > 0.5 else 0
            for k, nu in refs.items():
                want = M0 + mpmath.mpf(nu)
                assert abs(M[k] - want) <= P._MOMENT_ERROR * abs(want), (m, k)


@pytest.mark.parametrize("m", [0.5, 0.75])
def test_lens_balayage_fourier_coefficients_are_the_moments(m):
    # V from its series and closed form and M_k on the Gamma ratios are two
    # implementations: int V cos(kt) dsigma = M_k, and for the infinite
    # mass of m = 1/2 the finite parts int V (cos(kt) - 1) dsigma = nu_k
    lens = P.LensPowerDensity(m)
    M = lens.moments(51)
    shift = 0.0 if m > 0.5 else 1.0
    for k in (1, 7, 50):
        res = integrate_boundary_arc(
            lambda t: lens.balayage(t) * (np.cos(k * t) - shift),
            tol_abs=1e-13, tol_rel=1e-12, singular_points=(0.0,))
        assert res.status == CONVERGED, k
        assert abs(res.value - M[k]) <= 1e-10 * abs(M[k]), k


@pytest.mark.parametrize("m", [0.25, 0.4, 0.5, 0.75, 0.9])
def test_lens_moments_keep_their_digits_to_the_majorant_length(m):
    # the k rounds of averages round k times: at k = 1000 and 4096 (the
    # longest far series of the bulk route) the table stays within
    # _MOMENT_ERROR of the same binomial sums of A_j (B_j) at 30 digits
    n = 4097
    with mpmath.workdps(30):
        mm = mpmath.mpf(m)
        r = [mpmath.mpf(1)]
        for i in range(n - 1):
            r.append(r[-1] * (i + 2 - mm) / (i + 1 + mm))
        if m > 0.5:
            M0 = mm * (1 - mm) * mpmath.beta(1.5, mm - 0.5) / mpmath.pi
            terms = [M0 * x for x in r]
        else:
            K = -2 * mm * (1 - mm) * (1 + mm) * mpmath.beta(1.5, mm + 0.5) / mpmath.pi
            terms = [mpmath.mpf(0)]
            for i in range(n - 1):
                terms.append(terms[-1] + K * r[i] / (i + 1 + mm))
        M = P.LensPowerDensity(m).moments(n)
        for k in (1000, 4096):
            c, want = mpmath.mpf(1), mpmath.mpf(0)
            for j in range(k + 1):
                want += c * terms[j]
                c = c * (k - j) / (j + 1)
            want /= mpmath.mpf(2) ** k
            assert abs(M[k] - want) <= P._MOMENT_ERROR * abs(want), k


def test_lens_moments_do_not_depend_on_how_many_are_asked_for():
    for m in (0.25, 0.75):
        lens = P.LensPowerDensity(m)
        short = lens.moments(7)
        full = lens.moments(4097)
        assert full.size == 4097
        assert np.array_equal(full[:7], short)
        assert np.array_equal(lens.moments(7), short)
        assert np.array_equal(P.LensPowerDensity(m).moments(300), full[:300])
        full[0] = -1.0  # a copy: the table keeps its values
        assert lens.moments(1)[0] == short[0]


def _regions(z):
    # each point's evaluator by its region, as _evaluate picks them
    rate, tip = np.abs(2.0 * z - 1.0), np.abs(1.0 - z) < 0.2
    lens, far = ~tip & (rate < 0.99), ~tip & (0.99 * rate > 1.0)
    return np.select([tip, lens, far], ["_tip_field", "_inner_field", "_far_field"],
                     "_seam_field")


def _meet_at_a_switch(lens, pairs):
    # pairs of points just inside and just outside a switch, on Im z >= 0:
    # each is its region's evaluator bit for bit, and at both the evaluators
    # of the two sides agree, u within 1e-15 and G within 1e-13 relative
    for near, far in pairs:
        names = _regions(np.array([near, far]))
        assert names[0] != names[1], names
        for z, name in ((near, names[0]), (far, names[1])):
            z = np.array([z])
            u, G = lens.green_gradient(z)
            assert np.array_equal(lens.green_potential(z), u)
            assert np.array_equal(np.stack([u, G.real, G.imag]),
                                  getattr(lens, name)(z, True))
            a, b = (getattr(lens, n)(z, True) for n in names)
            assert abs(a[0, 0] - b[0, 0]) <= 1e-15, (name, z)
            Ga, Gb = a[1, 0] + 1j * a[2, 0], b[1, 0] + 1j * b[2, 0]
            assert abs(Ga - Gb) <= 1e-13 * abs(Gb), (name, z)


@pytest.mark.parametrize("m", [0.25, 0.5, 0.75, 0.9])
def test_lens_far_field_meets_the_seam_at_the_switch(m):
    # just outside |2z - 1| = 1/0.99 the evaluators take the series off the
    # lens, just inside it the seam's Euler integral; on 12 angles off the
    # tip cap the two agree on both sides
    th = np.linspace(0.45, math.pi, 12)
    pairs = [0.5 + np.exp(1j * th) / (2.0 * (0.99 + d)) for d in (1e-9, -1e-9)]
    assert np.all(np.abs(pairs[1]) < 1.0)
    _meet_at_a_switch(P.LensPowerDensity(m), zip(*pairs))


@pytest.mark.parametrize("m", [0.25, 0.5, 0.6, 0.75, 0.9])
def test_lens_inner_series_meets_the_seam_at_the_switch(m):
    # just inside |2z - 1| = 0.99 the evaluators take the series inside the
    # lens, just outside it the seam's Euler integral; on 12 angles off the
    # tip cap the two agree on both sides
    th = np.linspace(0.45, math.pi, 12)
    pairs = [0.5 + 0.5 * (0.99 + d) * np.exp(1j * th) for d in (-1e-9, 1e-9)]
    _meet_at_a_switch(P.LensPowerDensity(m), zip(*pairs))


@pytest.mark.parametrize("m", [0.25, 0.5, 0.75, 0.9])
def test_lens_tip_cap_meets_its_neighbours_at_the_switch(m):
    # just inside |1 - z| = 0.2 the evaluators take the closed forms by the
    # tip, just outside the series inside the lens, the seam's Euler
    # integral or the series off the lens; the two agree on both sides
    phi = np.append(np.linspace(0.1, 1.4, 12), 1.369)  # 1.369: the seam
    pairs = [1.0 - (0.2 + d) * np.exp(-1j * phi) for d in (-1e-9, 1e-9)]
    names = set(_regions(pairs[1]))
    assert names == {"_inner_field", "_seam_field", "_far_field"}
    assert np.all(np.abs(pairs[1]) < 1.0)
    _meet_at_a_switch(P.LensPowerDensity(m), zip(*pairs))


@pytest.mark.parametrize("m", [0.25, 0.5, 0.75])
def test_lens_balayage_series_meets_the_tip_form_at_the_switch(m):
    # |y| = |2 (e^{it} - 1)| = 4 |sin(t/2)| = 1/2 at |t| = 0.2507: beyond it
    # V takes the series of the finite parts, below it the tip's closed
    # form; at 1e-9 to either side the two agree
    lens = P.LensPowerDensity(m)
    switch = 2.0 * math.asin(0.125)
    assert abs(switch - 0.2507) < 1e-4
    for d, side in ((1e-9, 0), (-1e-9, 1)):
        t = np.array([switch + d, -switch - d])
        series = lens._far_balayage(np.exp(1j * t))
        tip = lens._tip_balayage(t)
        assert np.array_equal(lens.balayage(t), (series, tip)[side])
        assert np.max(np.abs(series - tip) / tip) <= 1e-14


@pytest.mark.parametrize("m", [0.6, 0.75])
def test_lens_inner_coefficients_match_mpmath_quadrature(m):
    """The coefficients of the series inside the lens against quadratures.

    J_k(a) = int sin^(2a)(psi/2) cos(k psi) dpsi over one turn is 4 int
    sin^(2a)(phi) cos(2k phi) dphi over [0, pi/2], by mp.quad (mpmath 1.3,
    mp.dps = 30) split at every pi/(2(k + 1)); on the first piece phi =
    w^(1/(2a + 1)) takes the tip's phi^(2a) out of the integrand.  With
    I_k = J_k(m - 1) - 2 J_k(m), Green's identity gives kappa_0 = (2 J_0(m)
    - m log 2 I_0)/(4 pi) and kappa_k = (2 J_k(m) - (m/k) I_k)/(4 pi).  The
    mass m I_0/(4 pi) is M_0 from mpmath's Beta function; u takes lambda_k
    = kappa_k + M_0/k (lambda_0 = kappa_0 + M_0 log 2) and G takes
    k lambda_k.  The largest gap is 8.4e-16 relative in lambda_k (k = 7,
    m = 3/4), and k lambda_k has the same; each is held at about twice that.
    """
    lens = P.LensPowerDensity(m)
    lam, slope = lens._inner_terms
    assert lam.size == 4001 and slope.size == 4000
    with mpmath.workdps(30):
        mm = mpmath.mpf(m)

        def J(a, k):
            p, first = 2 * a + 1, mpmath.pi / (2 * (k + 1))

            def tip(w):
                phi = w ** (1 / p)
                return (mpmath.sin(phi) / phi) ** (2 * a) * mpmath.cos(2 * k * phi) / p

            rest = mpmath.quad(
                lambda phi: mpmath.sin(phi) ** (2 * a) * mpmath.cos(2 * k * phi),
                [first * j for j in range(1, k + 2)])
            return 4 * (mpmath.quad(tip, [0, first ** p]) + rest)

        M0 = mm * (1 - mm) * mpmath.beta(1.5, mm - 0.5) / mpmath.pi
        for k in (0, 1, 7, 50):
            Jm = J(mm, k)
            I = J(mm - 1, k) - 2 * Jm
            if k == 0:
                assert abs(mm * I / (4 * mpmath.pi) - M0) <= 1e-25 * M0
                kappa = (2 * Jm - mm * mpmath.log(2) * I) / (4 * mpmath.pi)
                want = kappa + M0 * mpmath.log(2)
            else:
                kappa = (2 * Jm - mm / k * I) / (4 * mpmath.pi)
                want = kappa + M0 / k
                assert abs(slope[k - 1] - k * want) <= 2e-15 * abs(k * want), k
            assert abs(lam[k] - want) <= 2e-15 * abs(want), k


@pytest.mark.parametrize("m", [0.25, 0.5, 0.75, 0.9])
def test_lens_kernel_is_exactly_mirror_symmetric(m):
    # the lens and its density are fixed by w -> conj(w), and the kernel
    # keeps that to the last bit: V(-t) = V(t), by the tip (the closed form)
    # and off it (the series of the finite parts), and u(conj z) =
    # u(z) with G(conj z) = conj G(z), inside the lens, off it and by its
    # circle.  The boundary weight, the level trace and the support probes
    # of u_m evaluate one half and mirror it
    lens = P.LensPowerDensity(m)
    rng = np.random.default_rng(61)
    t = np.concatenate([np.geomspace(1e-14, math.pi, 2000),
                        rng.uniform(0.0, math.pi, 300)])
    assert np.any(t < 0.2507) and np.any(t > 0.2507)
    V = lens.balayage(t)
    assert np.all(np.isfinite(V))
    assert np.array_equal(lens.balayage(-t), V)
    disk = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(
        1j * rng.uniform(0.0, math.pi, 400))
    inner = 0.5 + 0.5 * np.sqrt(rng.uniform(0.0, 1.0, 100)) * np.exp(
        1j * rng.uniform(0.0, math.pi, 100))
    rim = 0.5 + 0.5 * (1.0 + np.array([-1e-9, 1e-9])[:, None]) * np.exp(
        1j * np.linspace(0.1, 3.0, 20))
    z = np.concatenate([disk, inner, rim.ravel()])
    rate = np.abs(2.0 * z - 1.0)
    assert np.any(rate < 0.99) and np.any(0.99 * rate > 1.0)
    u, G = lens.green_gradient(z)
    u_c, G_c = lens.green_gradient(z.conj())
    assert np.array_equal(u_c, u)
    assert np.array_equal(G_c, G.conj())


@pytest.mark.parametrize("m", [0.5, 0.25])
def test_lens_at_or_below_half_takes_the_same_regions(m):
    # the mass diverges at the tip for m <= 1/2, but u and G take the same
    # evaluators as for every m: each point is its region's, bit for bit,
    # far ones by the series off the lens.  V takes the series of the
    # finite parts off the tip and the closed form by it all the same
    lens = P.LensPowerDensity(m)
    rng = np.random.default_rng(3)
    z = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(1j * math.pi * rng.uniform(size=200))
    names = _regions(z)
    assert np.mean(names == "_far_field") > 0.5
    assert set(names) == {"_tip_field", "_inner_field", "_far_field", "_seam_field"}
    u, G = lens.green_gradient(z)
    assert np.array_equal(lens.green_potential(z), u)
    for name in set(names):
        part = names == name
        assert np.array_equal(np.stack([u[part], G[part].real, G[part].imag]),
                              getattr(lens, name)(z[part], True)), name
    t = np.linspace(-math.pi, math.pi, 401)
    off = np.abs(t) > 0.2507
    assert 0 < np.count_nonzero(~off) < 401
    V = lens.balayage(t)
    assert np.array_equal(V[off], lens._far_balayage(np.exp(1j * t[off])))
    assert np.array_equal(V[~off], lens._tip_balayage(t[~off]))


# seeded points of u_m by region, and (u, G) at them to 17 digits of the
# 40-digit references of the test below, by m
_LENS_POINTS = (
    ("inside", (0.7342879986633961+0.23389948572804595j)),
    ("inside", (0.3345405756378636+0.3676400135475667j)),
    ("off", (0.009769315635496115+0.9137805444886214j)),
    ("off", (0.03204213830746874+0.6611539797918892j)),
    ("seam", (0.7924524862280817+0.4030825514693159j)),
    ("seam", (0.8543938998402516+0.35554038273593863j)),
    ("tip", (0.9999999999990447+2.9552020666133955e-13j)),
    ("tip", (0.9999999994596976+8.414709848078965e-10j)),
    ("tip", (0.9999992351578127+6.44217687237691e-07j)),
    ("tip", (0.9997325011713755+0.000963558185417193j)),
    ("tip", (0.9539469502998558+0.01947091711543253j)),
    ("tip", (0.8818941060285738+0.14883211282922185j)),
    ("cusp", (0.99999925+0.0009999997187499605j)),
    ("cusp", (0.999999999925+9.99999999971875e-06j)),
)
_LENS_REFERENCE = {
    0.25: (
        (-0.130182280908613, (0.009172834683373718-0.3279546762265644j)),
        (-0.07654450771539563, (-0.08572159915421995-0.14786481256862508j)),
        (-0.005470746085129414, (-0.00520757120333915-0.06614667831185761j)),
        (-0.0246579595963579, (-0.03135003812487792-0.08207154011352688j)),
        (-0.055815689876165656, (0.32330953894353837-0.41632598695822726j)),
        (-0.05143372048484672, (0.5292454797413552-0.4827197565452463j)),
        (-0.0009874212288143273, (258101785.4884329-92458.72465101747j)),
        (-0.004786904566128913, (2213638.914807767-9380.245306851162j)),
        (-0.028410784938725633, (9085.588283013092-212.15703549035467j)),
        (-0.09686743948130366, (104.41152747028531-11.83239638456395j)),
        (-0.2115275547615144, (0.19607706940333916-0.5359706716209575j)),
        (-0.15051068486607455, (0.3034550040856617-0.573253934739463j)),
        (-0.00197308257231878, (7892.322762981921-10.855234797349793j)),
        (-0.00019763895598155247, (7905556.276182619-108.70175025375978j)),
    ),
    0.5: (
        (-0.10830805891724435, (0.06227934545193381-0.23813918850953347j)),
        (-0.07302663866239963, (-0.07161783043688144-0.13887961813450794j)),
        (-0.00526673660586066, (-0.004878368667470869-0.06369405752859027j)),
        (-0.023774346632131946, (-0.029522768673734934-0.07950013587237761j)),
        (-0.04792104025464934, (0.29392116384571504-0.34427340530155737j)),
        (-0.04244565561005311, (0.4533585905061782-0.3795716409822216j)),
        (-9.774052278049968e-07, (511538.24094377947-0.1432379780234168j)),
        (-2.3238306220460146e-05, (21500.48643287438-0.4774648001542888j)),
        (-0.0008687954448369871, (564.9526999509187-0.3342214297149203j)),
        (-0.014702690045182461, (27.099490721892945-0.6177542315561612j)),
        (-0.1135059441984326, (0.657971833899291-0.17055554871142073j)),
        (-0.10787641216422303, (0.33601576109863485-0.3323661218818836j)),
        (-0.000124132436595992, (496.5293524272406-0.6214103748154375j)),
        (-1.249858589793796e-06, (49994.33117814528-0.6249421491857817j)),
    ),
    0.5001: (
        (-0.10828932814882532, (0.06229083564528122-0.2380863866653542j)),
        (-0.07301795032163338, (-0.0716051496056239-0.13886245832220154j)),
        (-0.0052661295542102094, (-0.0048777489675504064-0.06368672197866167j)),
        (-0.023771621459177057, (-0.02951908412717304-0.07949117912989467j)),
        (-0.047913220184525165, (0.29387984133549105-0.3442117495467984j)),
        (-0.042438044608706364, (0.453283912783837-0.37949582635174867j)),
        (-9.747038317032777e-07, (510226.45443297224-0.1424675926374513j)),
        (-2.3188771219312034e-05, (21458.94628944845-0.47555336643892726j)),
        (-0.0008675725430762056, (564.2704662296967-0.3333436501540291j)),
        (-0.014690761307052104, (27.08222134955052-0.6169811490827886j)),
        (-0.11346797550626106, (0.6579596711242371-0.17046575520283636j)),
        (-0.10785149645396548, (0.3359875245896745-0.3322635523078679j)),
        (-0.00012398525798193815, (495.94063846862804-0.6206492296653172j)),
        (-1.247233230833071e-06, (49889.31684579168-0.6236045113667329j)),
    ),
    0.75: (
        (-0.05430266112329886, (0.05906481948533732-0.1070007421144667j)),
        (-0.04178623207649934, (-0.034953463586481624-0.07880828970026747j)),
        (-0.0030424830839193427, (-0.0027321471168333038-0.036803493136291936j)),
        (-0.013756264234051187, (-0.016629945891452374-0.046232608457009196j)),
        (-0.02449163776500827, (0.158634385315837-0.16882348722226467j)),
        (-0.020839078697400426, (0.2304916954191209-0.17675324600514744j)),
        (-9.64924312694855e-10, (757.1536385015603-1.9812737984313597e-07j)),
        (-1.1127781251080836e-07, (154.10091310198763-2.009929724553148e-05j)),
        (-2.4746312074638924e-05, (23.901760096714497-0.00045368305251799324j)),
        (-0.0016912120993196026, (4.436868613027429-0.024013552316393537j)),
        (-0.03920693748351447, (0.3942517254181276-0.0383238671861201j)),
        (-0.04703675251758667, (0.2005297127319087-0.1214391266318257j)),
        (-5.5715309798557605e-06, (22.28610944555163-0.025247055982046615j)),
        (-5.892831266900848e-09, (235.7131921519222-0.0026535918201316066j)),
    ),
    0.9: (
        (-0.020961665378290997, (0.029103889777977177-0.039096129186578274j)),
        (-0.017407154578369183, (-0.013038539583872383-0.03274502209458j)),
        (-0.0012749647970697862, (-0.0011224873290216594-0.015424903507021057j)),
        (-0.005770324525627764, (-0.006856876913651028-0.01945309006205046j)),
        (-0.00952556025381298, (0.0635941051765246-0.06397847340805872j)),
        (-0.007916884633232226, (0.08925807269871901-0.06497644423614261j)),
        (-1.4147693503609594e-11, (13.216809590191351-6.182419980086994e-11j)),
        (-3.963182857200393e-09, (6.490354689663436-4.617931586704554e-08j)),
        (-2.2767120029068016e-06, (2.5677935723836836-8.046765053926044e-06j)),
        (-0.000310232696706798, (0.9381108606413683-0.002505249846487269j)),
        (-0.012454375021565017, (0.1529378459375639-0.009906272059779883j)),
        (-0.0167979303524563, (0.08286957353634748-0.03965062262845022j)),
        (-6.179267282112085e-07, (2.471705480249103-0.0026505994731821424j)),
        (-1.9718741844514475e-10, (7.8874947795191845-8.337488458392471e-05j)),
    ),
}


@pytest.mark.parametrize("m", [0.25, 0.5, 0.5001, 0.75, 0.9])
def test_lens_potential_matches_frozen_mpmath_reference(m):
    """u and G at seeded points of every region against 40-digit references.

    Recipe (mpmath 1.3, mp.dps = 40, on Im z >= 0): K = -2m(1-m)(1+m)
    B(3/2, m + 1/2)/pi and L(w) = hyp2f1(2 - m, 1, 2 + m, w)/(1 + m), the
    analytic continuation of Euler's integral int_0^1 (1 - s)^m (1 - ws)^(m-2)
    ds.  G off the lens is K/(z - 1) [L(q)/(2z - 1) - L(q')/(2 - z)], q = 1/(2z
    - 1), q' = z/(2 - z); inside it G adds m(1 - x)^(m-1) - m (1 - z)^(2m-2)
    (2z - 1)^(1-m) e^{i pi (m - 1)}.  u off the lens is -Re int K L(w)/(1 - w)
    dw by mp.quad along the segments from q' to p = max(0, 1 - 3|1 - q'|) and
    on to q, which keep away from w = 1; inside it, u at the point of the lens
    circle on the ray from 1/2 through z, plus Re int G dz along the ray.  At
    mp.dps = 60 the references at m = 1/4 and 0.5001 of six of the points
    (inside, off, seam, tip at 1e-12 and 0.19, cusp at 1e-5) round to the
    same doubles.  The points: two inside the lens and two off it,
    two 0.004 to either side of the lens circle, six of the tip cap inside
    the lens at |1 - z| = 1e-12 to 0.19, and two in the cusp between the lens
    circle and the unit circle at |1 - z| = 1e-3 and 1e-5, where 1 - |z|^2
    is far below |1 - z|.  The largest gaps are 2.9e-16 in u and 1.0e-15 in G.
    """
    lens = P.LensPowerDensity(m)
    z = np.array([p for _, p in _LENS_POINTS])
    want_u, want_G = (np.array(v) for v in zip(*_LENS_REFERENCE[m]))
    u, G = lens.green_gradient(z)
    assert np.array_equal(lens.green_potential(z), u)
    assert np.max(np.abs(u - want_u)) <= lens.value_error
    assert np.max(np.abs(G - want_G) / np.maximum(1.0, np.abs(want_G))) <= 1e-13
    u_c, G_c = lens.green_gradient(z.conj())  # the lower half, mirrored
    assert np.array_equal(u_c, u) and np.array_equal(G_c, G.conj())
    assert np.all(lens.green_gradient(z.real)[1].imag == 0.0)  # u_y = 0 on the axis


# ---------------------------------------------------------------------------
# u_m on and by the lens circle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0.75, 0.5, 0.25])
def test_lens_points_on_the_circle(m):
    # points of the lens circle take half of each jump term and the
    # principal value: finite, without warnings, and within 1e-11 of the
    # values 1e-12 inside and outside along the normal, u and G alike; the
    # centre, the angle opposite the tip and the deep shells' angles by it
    # start no unbounded refinement.  By the tip V ~ m |t|^(2m - 2): at
    # 1e-100 it reads that to 1e-14, and at 1e-300 for m = 1/4 (2.5e449) it
    # leaves the doubles as inf, without a warning; V(0) is inf
    lens = P.LensPowerDensity(m)
    on = np.array([0.5 + 0.5j, 0.5 - 0.5j, 0.0, 0.5 + 0.5 * np.exp(2j)])
    normal = np.array([1j, -1j, -1.0, np.exp(2j)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, G = lens.green_gradient(on)
        assert np.array_equal(lens.green_potential(on), u)
        for step in (-1e-12, 1e-12):
            u_near, G_near = lens.green_gradient(on + step * normal)
            assert np.max(np.abs(u_near - u)) <= 1e-11, step
            assert np.max(np.abs(G_near - G)) <= 1e-11, step
        centre = lens.green_gradient(np.array([0.5]))
        V = lens.balayage(np.array([math.pi, -math.pi, -1.4e-16, 1e-30, 1e-100, 0.0, 1e-300]))
    assert np.all(np.isfinite(u)) and np.all(u < 0.0) and np.all(np.isfinite(G))
    assert np.isfinite(centre[0][0]) and np.isfinite(centre[1][0])
    assert abs(centre[1][0].imag) <= 1e-15  # real on the axis
    assert np.all(np.isfinite(V[:4])) and np.all(V[:4] > 0.0)
    assert abs(V[0] - V[1]) <= 1e-15 * V[0]
    assert abs(V[4] / (m * 1e-100 ** (2.0 * m - 2.0)) - 1.0) <= 1e-14
    assert math.isinf(V[5])
    assert math.isinf(V[6]) == (m == 0.25)


def test_lens_gradient_just_outside_the_lens():
    # where 0.99 < rho < 0.999 the far-field series converges too slowly to
    # be the evaluator, but 60,000 of its terms (tail below 1e-26) still
    # give G; the lens-circle rule is within 1e-12 relative of it.  The
    # moments come from their ratio A_(k+1)/A_k = (k + 2 - m)/(k + 1 + m)
    # in extended precision, as does the sum
    m = 0.75
    rng = np.random.default_rng(58)
    th = rng.uniform(-math.pi, math.pi, 400)
    z = 0.5 + np.exp(1j * th) / (2.0 * rng.uniform(0.99, 0.999, 400))
    z = z[(np.abs(z) < 1.0) & (_rho(z) > 0.99) & (_rho(z) < 0.999)][:58]
    assert z.size == 58
    k = np.arange(60000, dtype=np.longdouble)
    A = P._lens_mass(m) * np.concatenate([[1.0], np.cumprod((k + 2 - m) / (k + 1 + m))])
    q = np.concatenate([1.0 / (2.0 * z - 1.0), z / (2.0 - z)]).astype(np.clongdouble)
    R = np.zeros_like(q)  # sum_k A_(k+1) q^k by Horner
    for a in A[:0:-1]:
        R = R * q + a
    n, rz = z.size, 1.0 / (2.0 - z.astype(np.clongdouble))
    want = 2.0 * q[:n] * (A[0] + q[:n] * R[:n]) + (A[0] + 2.0 * rz * R[n:]) * rz
    _, G = P.LensPowerDensity(m).green_gradient(z)
    assert np.max(np.abs(G - want) / np.abs(want)) <= 1e-12
