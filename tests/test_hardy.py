import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as scipy_beta

from pshardy import exhaustion as X
from pshardy import hardy as H
from pshardy import potential as P
from pshardy.exhaustion import InvalidParameter
from pshardy.factorization import AffinePower, BlaschkeProduct, Poly, Product
from pshardy.geometry import (CONVERGED, DIVERGENT, MoebiusAutomorphism,
                              QuadratureResult, integrate_boundary_arc)
from pshardy.potential import (LensPowerDensity, RieszMeasure, poisson_balayage,
                               poisson_kernel)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# boundary weights
# ---------------------------------------------------------------------------


def test_weight_log_is_constant_one(ulog):
    w = H.boundary_weight(ulog)
    assert np.max(np.abs(w.values - 1.0)) < 1e-12
    assert w.constancy() < 1e-12
    assert abs(w.mass_of_laplacian - 1.0) == 0.0
    assert w.log_mean.status == CONVERGED
    assert w.log_mean.value == 0.0
    assert w.singular_thetas == {}
    assert abs(w.at(1.234) - 1.0) < 1e-12


def test_weight_um_frozen_values(u075):
    w = H.boundary_weight(u075)
    assert abs(w.at(math.pi) - 0.01735290655272462) < 1e-9
    assert abs(w.at(math.pi / 2.0) - 0.033508405528991064) < 1e-9
    assert abs(w.at(0.2) - 0.614814105615494) < 1e-9
    assert abs(w.mass_of_laplacian - 0.20865671041851824) < 1e-12
    assert w.singular_thetas == {0.0: -0.5}  # V ~ 0.75 t^{2m - 2} at the tip
    assert math.isinf(w.at(0.0))
    assert math.isinf(w.values[0])
    # int log V dnu, against an adaptive value at 1e-12
    assert w.log_mean.status == CONVERGED
    assert abs(w.log_mean.value + 2.9149151669092737) <= 2e-8


def test_weight_um_half_diverges_at_one(u05):
    w = H.boundary_weight(u05)
    assert abs(w.at(math.pi) - 0.02963475158897719) < 1e-9
    assert math.isinf(w.mass_of_laplacian)
    assert w.fubini_residual is None
    # V ~ 1/t near the singular angle: log V is still integrable (an
    # adaptive value at 1e-12)
    assert w.log_mean.status == CONVERGED
    assert abs(w.log_mean.value + 2.294030108763964) <= 2e-8


def test_weight_log_mean_of_a_poisson_kernel():
    # int log P(a, .) dnu = log(1 - |a|^2)
    w = H.boundary_weight(X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),))))
    assert w.log_mean.status == CONVERGED
    assert abs(w.log_mean.value - math.log(1.0 - 0.3 ** 2)) <= 1e-12


def test_weight_integrates_to_the_mass_at_tight_tolerance(u075):
    # at tol_rel 1e-10 the quadrature grades to within 1e-20 of the
    # singular angle, and V must stay the exact balayage down there
    w = H.boundary_weight(u075)
    assert math.isfinite(w.at(2.0 ** -40))
    res = integrate_boundary_arc(w.at, tol_abs=1e-12, tol_rel=1e-10,
                                 singular_points=(0.0,))
    assert res.status == CONVERGED
    assert abs(res.value - w.mass_of_laplacian) <= 1e-8 * w.mass_of_laplacian


def test_weight_mass_identity(u075):
    # integrating V over the circle recovers the Riesz mass
    w = H.boundary_weight(u075)
    assert w.fubini_residual is not None
    assert w.fubini_residual < 1e-6


def test_weight_radial_density_is_constant():
    u = X.radial_smooth(lambda s: 2.0 * s, "radial-cubic")
    w = H.boundary_weight(u)
    assert np.max(np.abs(w.values - 2.0 / 3.0)) < 1e-6
    assert w.constancy() < 1e-6
    assert w.fubini_residual == 0.0


def test_weight_scaled_and_pullback(ulog):
    w2 = H.boundary_weight(X.scaled_exhaustion(2.0, ulog))
    assert np.max(np.abs(w2.values - 2.0)) < 1e-12
    assert abs(w2.mass_of_laplacian - 2.0) < 1e-12

    mob = MoebiusAutomorphism(a=0.3)
    wp = H.boundary_weight(X.pullback_exhaustion(mob, ulog))
    # the swept mass of the pulled-back atom is the Poisson kernel at the
    # preimage of 0, equivalently |phi'| on the circle
    t = wp.thetas
    expected = np.abs(mob.derivative(np.exp(1j * t)))
    assert np.max(np.abs(wp.values - expected)) < 1e-12
    assert abs(wp.mass_of_laplacian - 1.0) < 1e-12
    assert wp.fubini_residual < 1e-7


def test_weight_pullback_of_area_mass():
    # the rotation-invariant mass 2/3 swept through phi: (2/3) |phi'|
    mob = MoebiusAutomorphism(a=0.3)
    inner = X.radial_smooth(lambda s: 2.0 * s, "radial-cubic")
    wp = H.boundary_weight(X.pullback_exhaustion(mob, inner))
    t = np.concatenate([wp.thetas, np.linspace(-4.0, 4.0, 1001)])
    expected = 2.0 / 3.0 * np.abs(mob.derivative(np.exp(1j * t)))
    got = np.concatenate([wp.values, wp.at(t[wp.samples:])])
    assert np.max(np.abs(got - expected)) < 1e-12
    assert abs(wp.mass_of_laplacian - 2.0 / 3.0) < 1e-12
    assert wp.fubini_residual < 1e-7


def test_weight_scaled_green_atom_is_exactly_twice():
    u = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),)))
    w = H.boundary_weight(u)
    w2 = H.boundary_weight(X.scaled_exhaustion(2.0, u))
    assert np.array_equal(w2.values, 2.0 * w.values)
    t = np.linspace(-4.0, 4.0, 1001)
    assert np.array_equal(w2.at(t), 2.0 * w.at(t))
    assert w2.mass_of_laplacian == 2.0 * w.mass_of_laplacian


def test_weight_from_moments_matches_poisson_balayage():
    # an area mass with no worked family goes through the Fourier moments
    def bump(d, c):
        return np.exp(-np.abs(c + d - 0.4) ** 2 / 0.02) / TWO_PI

    measure = RieszMeasure(density=bump, label="bump")
    w = H.boundary_weight(X.green_exhaustion(measure))
    for t in (0.0, 0.7, 2.0, math.pi):
        zeta = np.exp(1j * t)
        ref = measure.pair(lambda z: poisson_kernel(z, zeta),
                           tol_abs=1e-12, tol_rel=1e-10)
        assert ref.status == CONVERGED
        assert abs(w.at(t) - ref.value) < 1e-9
    assert w.fubini_residual < 1e-9


def test_weight_arc_mass_additivity(u075):
    w = H.boundary_weight(u075)
    full = w.arc_mass(0.0, TWO_PI)
    assert abs(full - w.mass_of_laplacian) < 1e-7
    left = w.arc_mass(0.0, math.pi)
    right = w.arc_mass(math.pi, TWO_PI)
    assert abs(left + right - full) < 1e-6
    # absolute continuity: arcs away from the spike carry o(1) mass
    tiny = w.arc_mass(2.0, 2.0 + 1e-3)
    assert tiny < 1e-4
    assert tiny > 0.0


def test_weight_arc_mass_about_the_singular_angle(u075):
    # the singular angle t = 0 is an end of the two halves, interior to
    # their union, and interior again through its copy at 2 pi
    w = H.boundary_weight(u075)
    whole = w.arc_mass(-0.3, 0.3)
    assert abs(w.arc_mass(-0.3, 0.0) + w.arc_mass(0.0, 0.3) - whole) <= 1e-8 * whole
    assert abs(w.arc_mass(TWO_PI - 0.3, TWO_PI + 0.3) - whole) <= 1e-8 * whole


def test_weight_cache_and_validation(ulog):
    w1 = H.boundary_weight(ulog)
    w2 = H.boundary_weight(ulog)
    assert w1 is w2
    with pytest.raises(InvalidParameter):
        H.boundary_weight("um")


def test_weight_near_spike_is_independent_of_batch_size(u075):
    # more angles than two evaluation blocks, all near the singular angle
    w = H.boundary_weight(u075)
    t = np.linspace(-0.049, 0.049, 2600)
    whole = w.at(t)
    sliced = np.concatenate([w.at(t[i:i + 100]) for i in range(0, t.size, 100)])
    assert np.all(np.isfinite(whole))
    np.testing.assert_allclose(whole, sliced, rtol=1e-13, atol=0.0)


def _lens_balayage_reference(t, m):
    """V(e^{it}) of the lens density m(1-m)/(2 pi) (1-x)^(m-2) dA by quad.

    The chord integral of the Poisson kernel is closed form; the x-integral
    runs in sigma = sqrt(x) on x < 1/2 and in lambda = -log(1-x) beyond,
    split at the crossing lambda* where the chord half-width passes |sin t|
    and at lambda* -+ 10^-k, since the chord integral steps there over a
    lambda-width of about t.  Past the crossing the integrand decays like
    e^{-(m+1/2)(lambda - lambda*)}, and the closed form loses every digit to
    cancellation beyond lambda* + 25, so the integral stops at lambda* + 20.
    """
    b, c = math.sin(t), math.cos(t)

    def chord(omx):
        x = 1.0 - omx
        Y = math.sqrt(x * omx)
        A = omx - 2.0 * math.sin(0.5 * t) ** 2

        def F(y):
            s = y - b
            return 2.0 * c * math.atan(s / A) - s - b * math.log(A * A + s * s)

        return F(Y) - F(-Y)

    star = -math.log(2.0 * b * b / (1.0 + math.sqrt(1.0 - 4.0 * b * b)))
    # the lambda-integrand is about 2 pi e^{(1-m) lambda} below the crossing,
    # so its integral is about 25 e^{(1-m) lambda*}
    kw = dict(epsabs=1e-12 * math.exp((1.0 - m) * star), epsrel=1e-12, limit=200)
    total = quad(lambda g: chord(1.0 - g * g) * (1.0 - g * g) ** (m - 2.0) * 2.0 * g,
                 0.0, math.sqrt(0.5), points=[abs(b)], **kw)[0]
    edges = {math.log(2.0), star, star + 5.0, star + 12.0, star + 20.0}
    edges.update(star + s * 10.0 ** -k for k in range(11) for s in (-1.0, 1.0))
    edges = sorted(e for e in edges if e >= math.log(2.0))
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += quad(lambda lam: chord(math.exp(-lam)) * math.exp((1.0 - m) * lam),
                      lo, hi, **kw)[0]
    return m * (1.0 - m) / TWO_PI * total


def test_lens_balayage_matches_adaptive_reference():
    lens = LensPowerDensity(0.75)
    for t in (1e-2, 1e-5, 1e-8):
        ref = _lens_balayage_reference(t, 0.75)
        got = float(lens.balayage(np.array([t]))[0])
        assert abs(got - ref) <= 1e-9 * ref, (t, got, ref)


_LENS_BALAYAGE_REFERENCE = {
    0.75: {0.05: 2.09979916745437444635108945180,
           0.3: 0.387384797676579531491873942551,
           1.0: 0.0677749241114309916739498538454,
           1.865: 0.0263798362646041446970393887575,
           2.5: 0.019191423556793304406476308639,
           4.109: 0.0219218412209280589744585781591},
    0.5: {0.05: 8.38407501062924318451121611410,
          0.3: 0.848363272646308000891594716032,
          1.0: 0.120566052965029072036345518776,
          1.865: 0.0453911427889296929943840009087,
          2.5: 0.0328250830741805105976397353476,
          4.109: 0.0375808566685709100105689685215},
}


def test_lens_balayage_matches_frozen_mpmath_reference():
    """V of the lens density is within 1.7e-15 relative of 30-digit references.

    The largest gap is 7.5e-16 off the tip, where V is the series of the
    finite parts, and 2.1e-16 at t = 0.05 by it, in the tip's closed form
    (8.5e-16 on the lens-circle rule); the bound is about twice that.
    Recipe (mpmath 1.3, mp.dps = 30): V(t) = m(1-m)/(2 pi) times the
    integral over 0 < x < 1 of (1 - x)^(m-2) C(x), where C(x) is the
    integral of the Poisson kernel at e^{it} over the chord |y| < Y, Y = sqrt(x(1 - x)).  Where |sin t| >= 1/2 or
    cos t < 0, C is the closed form F(Y) - F(-Y) of
    ``_lens_balayage_reference`` with A = cos t - x; elsewhere it is an
    mp.quad over y on the chord, split at y = sin t.  mp.quad integrates
    sigma = sqrt(x) over [0, sqrt(1/2)] and lambda = -log(1 - x) over
    [log 2, 70], split at 1, 2, 4, 8, 16, 30 and 50, and at t = 0.05 also
    at the crossing lambda* of ``_lens_balayage_reference`` and at
    lambda* -+ 10^-k, k = 0 ... 10.  An mp.quad over y on every chord at
    dps 40, with lambda split at seventeen points, agreed to 4e-27
    relative; at t = 0.05, the lens-circle integral of V by mp.quad at
    dps 40, split at the tip and at the angle of 2 e^{it} - 1, agreed to
    1.1e-29.
    """
    for m, ref in _LENS_BALAYAGE_REFERENCE.items():
        t = np.array(list(ref))
        want = np.array(list(ref.values()))
        gap = np.abs(LensPowerDensity(m).balayage(t) - want) / want
        assert np.all(gap <= 1.7e-15), (m, t[np.argmax(gap)], gap.max())


# (V, twice the measured relative error of LensPowerDensity(m).balayage)
_LENS_BALAYAGE_BELOW_HALF = {
    0.25: {1.0: (0.128402843776574618263314749692726867, 1.0e-15),
           2.5: (0.0337287327651124337491271434471984408, 4.4e-16),
           4.109: (0.0386948523645179925348223534635933308, 6.4e-16)},
    0.4: {1.0: (0.131939329111925898833461682517103172, 5.5e-16),
          2.5: (0.0353904697823408847990436944032235267, 5.3e-16),
          4.109: (0.0405526980461225564837475500434897436, 1.1e-15)},
}


def test_lens_balayage_below_half_matches_frozen_mpmath_reference():
    """V of the lens density for m < 1/2 holds its declared accuracy.

    Off the tip V is the series of the finite parts: 6.9e-17 to 5.0e-16
    relative off for m = 1/4 and 2.7e-16 to 5.4e-16 for m = 0.4; each value
    is held at twice its gap, and at least two ulps.  Recipe (mpmath 1.3,
    mp.dps = 70, t the float angle): V(t) = m(1-m)/(2 pi) times the
    integral over 0 < x < 1 of (1 - x)^(m-2) C(x), with the chord integral
    of the Poisson kernel in closed form (|sin t| > 1/2 > Y at these angles,
    Y = sqrt(x(1 - x)), A = (1 - x) - 2 sin^2(t/2), b = sin t):
    C = 2 cos t atan(2YA / (A^2 + b^2 - Y^2)) - 2Y
    - b log1p(-4bY / (A^2 + (Y + b)^2)), the log1p keeping the digits that
    the ratio of the two distances loses as x -> 1.  mp.quad integrates
    sigma = sqrt(x) over [0, sqrt(1/2)] and lambda = -log(1 - x) over
    [log 2, 240], split at every integer to 20 and every 5 beyond, where
    the integrand has decayed like e^{-(m + 1/2) lambda}.  At mp.dps = 90,
    split every 3 beyond 20, it agreed to 2.5e-45 relative.  The same
    recipe gives the frozen m = 3/4 and 1/2 references above to 8e-23 at
    t = 1.0 and 2.5, and to 7e-18 at 4.109, the gap between the float
    angle and 4.109 itself.
    """
    for m, ref in _LENS_BALAYAGE_BELOW_HALF.items():
        t = np.array(list(ref))
        want, bound = np.array(list(ref.values())).T
        gap = np.abs(LensPowerDensity(m).balayage(t) - want) / want
        assert np.all(gap <= bound), (m, gap)


# V at t = 1e-9, 1e-3 and 0.1 by the tip, where V is the tip's closed form
_LENS_BALAYAGE_TIP = {
    0.1: (1584893191482683.4231318104381, 25103.4578351569283987593497701,
          5.98946510199512414697613467858),
    0.25: (7905694136586.45954736172577878, 7892.33023000386957521811259327,
           6.94344941666467381025916217654),
    0.499: (520116387.007594863869385008549, 502.454193054684687682009827061,
            3.71535058900943588862064410822),
    0.5: (499999989.93357092655818107981, 496.529700319234983994006139422,
          3.7023198454998378147921895186),
    0.5001: (498031538.371815559083280061256, 495.940985901368925787311565882,
             3.70101790698309670594945194409),
    0.75: (23715.6218839362676753202694815, 22.2861201374952579420230134832,
           1.19906573276726516353200404094),
    0.9: (55.6736236366590352423337602121, 2.47170640083473344178948467813,
          0.362055411864378498926405151988),
}


def test_lens_balayage_by_the_tip_matches_frozen_mpmath_reference():
    """V by the tip is within 4e-15 relative of 30-digit references, for m
    on both sides of 1/2 and within 1e-3 of it.

    The largest gap is 2.6e-15 (m = 0.1, t = 1e-9); the others are within
    1.6e-15.  Recipe (mpmath 1.3, mp.dps = 40, t the float angle): with
    zeta = e^{it}, q = 1/(2 zeta - 1) and K = -2m(1-m)(1+m) B(3/2, m + 1/2)/pi,
    L(q) = hyp2f1(2 - m, 1, 2 + m, q)/(1 + m) and V = K Re[2 zeta q L(q)/(zeta - 1)];
    at mp.dps = 70 the values agree to 1.8e-27.
    """
    t = np.array([1e-9, 1e-3, 0.1])
    for m, want in _LENS_BALAYAGE_TIP.items():
        gap = np.abs(LensPowerDensity(m).balayage(t) - want) / np.array(want)
        assert np.all(gap <= 4e-15), (m, gap)


@pytest.mark.parametrize("m", [0.75, 0.5])
def test_lens_weight_is_the_exact_balayage(m, u075, u05):
    # the weight's memo holds the balayage itself at the folded angle |t|,
    # evaluated in the batches the weight was asked for, and is inf only at
    # the singular angle; the nodes are the upper half, mirrored
    w = H.boundary_weight(u075 if m == 0.75 else u05)
    rng = np.random.default_rng(31)
    t = np.concatenate([rng.uniform(-math.pi, math.pi, 1000),
                        np.geomspace(1e-12, 0.5, 200) * rng.choice([-1, 1], 200)])
    assert np.array_equal(w.at(t), LensPowerDensity(m).balayage(np.abs(t)))
    half = w.thetas.size // 2
    samples = LensPowerDensity(m).balayage(w.thetas[:half + 1])
    samples[0] = math.inf
    assert np.array_equal(w.values[:half + 1], samples)
    assert np.array_equal(w.values[:half:-1], w.values[1:half])
    assert math.isinf(w.at(0.0))


def _counted(u):
    """A copy of u whose measure records the angles its balayage is asked
    for; the copy caches its own weight."""
    asked = []
    raw = u.measure.balayage

    def balayage(t):
        asked.extend(np.ravel(t).tolist())
        return raw(t)

    spec = X.ExhaustionSpec(
        u.label, u._evaluate, replace(u.measure, balayage=balayage),
        min_value=u.min_value, min_point=u.min_point,
        value_error=u.value_error, gradient=u.gradient)
    return spec, asked


@pytest.mark.parametrize("case", ["um:0.75", "um:0.5", "pullback:um:0.75"])
def test_weight_memo_matches_raw_balayage(case, u075, u05):
    # a V with no closed form is evaluated once per exact float angle; the
    # stored values are the raw balayage up to the rounding of their batch
    u = {"um:0.75": u075, "um:0.5": u05}.get(case)
    if u is None:
        u = X.pullback_exhaustion(MoebiusAutomorphism(a=0.3 + 0.1j, rot=0.7), u075)
    spec, asked = _counted(u)
    w = H.boundary_weight(spec)
    raw = poisson_balayage(u.measure)[1]
    (s,) = w.singular_thetas
    rng = np.random.default_rng(47)
    near = 10.0 ** -np.arange(1.0, 10.0)
    t = np.concatenate([rng.uniform(-math.pi, math.pi, 500), s + near, s - near])
    got = w.at(t)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, raw(t), rtol=1e-14, atol=0.0)
    # one angle at a time, against values stored from a batch
    for x in t[::25]:
        one = raw(np.array([x]))[0]
        assert abs(w.at(float(x)) - one) <= 1e-14 * one
    assert math.isinf(w.at(s))
    # shapes: a scalar or 0-d input gives a float, arrays keep their shape
    assert type(w.at(1.3)) is float and type(w.at(np.array(1.3))) is float
    assert w.at(t[:1]).shape == (1,)
    grid = t[:60].reshape(3, 4, 5)
    assert np.array_equal(w.at(grid), got[:60].reshape(3, 4, 5))
    # a repeated call is bit-identical and evaluates nothing
    before = len(asked)
    assert np.array_equal(w.at(t), got)
    assert len(asked) == before


def test_weight_memo_lives_with_its_exhaustion(monkeypatch):
    # make_example shares one lens density between its u_{3/4} objects, but
    # the memo sits on each weight: every exhaustion starts cold.  V is
    # even, so the build asks for the 1,025 nodes on [0, pi] first, and
    # for no angle outside [0, pi]
    a, b = X.make_example("um", 0.75), X.make_example("um", 0.75)
    density = a.measure.balayage.__self__
    assert b.measure.balayage.__self__ is density
    asked = []
    block = density.balayage

    def counted(t):
        asked.extend(t.tolist())
        return block(t)

    for u in (a, b):
        monkeypatch.setattr(u.measure, "balayage", counted)
    for u in (a, b):
        asked.clear()
        w = H.boundary_weight(u)
        half = w.thetas[:w.thetas.size // 2 + 1]
        assert asked[:half.size] == half.tolist()
        assert len(asked) == len(set(asked))
        assert 0.0 <= min(asked) and max(asked) <= math.pi
    f = Poly([1.0, -1.0])
    asked.clear()
    first = H.hardy_norm(f, 2.0, a, level_samples=256)
    assert asked
    asked.clear()
    second = H.hardy_norm(f, 2.0, a, level_samples=256)
    assert asked == []
    assert second.value == first.value
    w = H.boundary_weight(a)
    mass = w.arc_mass(2.0, 2.5)
    asked.clear()
    assert w.arc_mass(2.0, 2.5) == mass
    assert asked == []


def test_weight_build_fills_the_memo_near_the_singular_angle(monkeypatch):
    # u_{1/2} has infinite mass, so the Fubini check integrates nothing and
    # the build's log mean is the one set-up pass that evaluates V near the
    # tip; the queries then find those angles in the memo (34 batches to
    # the tip's closed form when the build reads no log mean)
    u = X.make_example("um", 0.5)
    H.boundary_weight(u)
    density = u.measure.balayage.__self__
    batches = []
    block = density._tip_balayage

    def counted(t):
        batches.append(t.size)
        return block(t)

    monkeypatch.setattr(density, "_tip_balayage", counted)
    for f in (Poly([0.25, -0.5, 0.25]), Poly([1.0])):
        H.hardy_norm(f, 1.0, u, level_samples=256)
    assert len(batches) <= 10, batches


def test_weight_rejects_non_finite_declared_balayage():
    # a declared balayage that is nan on an arc away from its boundary
    # singularity is not a weight
    def bump(d, c):
        return np.exp(-np.abs(c + d - 0.4) ** 2 / 0.02) / TWO_PI

    def broken(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - 2.0) < 0.01, np.nan, 1.0)

    measure = RieszMeasure(density=bump, total_mass_hint=1.0, balayage=broken,
                           boundary_singularities={1.0 + 0.0j: -0.5}, label="broken")
    with pytest.raises(H.UnsupportedRegion, match="non-finite"):
        H.boundary_weight(X.green_exhaustion(measure))


def test_lens_balayage_is_continuous_near_its_singular_angle():
    # V ~ t^(-1/2) at the tip, so V sqrt(t) varies slowly; a rule that does
    # not follow the integrand's spike, t^2 wide at psi = 2t, makes it jump
    t = np.geomspace(1e-9, 1e-3, 4001)
    g = LensPowerDensity(0.75).balayage(t) * np.sqrt(t)
    assert np.max(np.abs(np.diff(g))) < 1e-4
    assert np.max(np.abs(np.diff(g, 2))) < 1e-6


def test_weight_json(u075, ulog):
    w = H.boundary_weight(u075)
    blob = w.to_json_dict()
    assert blob["mass_of_laplacian"] == w.mass_of_laplacian
    assert blob["log_mean"]["status"] == "CONVERGED"
    assert "paper_refs" in blob
    # each singular angle with the exponent alpha of V there
    assert blob["singular_thetas"] == [[0.0, -0.5]]
    assert H.boundary_weight(ulog).to_json_dict()["singular_thetas"] == []
    json.dumps(blob, allow_nan=False)


# ---------------------------------------------------------------------------
# classical norms
# ---------------------------------------------------------------------------


def test_classical_norms():
    assert abs(H.classical_hardy_norm(Poly([1.0]), 2.0) - 1.0) < 1e-12
    assert abs(H.classical_hardy_norm(Poly([0.0, 1.0]), 2.0) - 1.0) < 1e-10
    # ||1 - z||_2^2 = 2
    assert abs(H.classical_hardy_norm(Poly([1.0, -1.0]), 2.0)
               - math.sqrt(2.0)) < 1e-10
    # (1-z)^{-0.6} leaves H^2: the trace power ~ t^{-1.2} diverges
    assert H.classical_hardy_norm(AffinePower(1.0, -0.6), 2.0) == math.inf
    with pytest.raises(InvalidParameter):
        H.classical_hardy_norm(Poly([1.0]), 0.0)


# ---------------------------------------------------------------------------
# the three routes and verdicts
# ---------------------------------------------------------------------------


def test_constant_under_log_all_routes_one(ulog):
    rep = H.hardy_norm(Poly([1.0]), 2.0, ulog)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - 1.0) < 1e-9
    for name, val in rep.route_values().items():
        assert abs(val - 1.0) < 1e-9, name
    assert rep.agreement < 1e-9
    assert abs(rep.classical_norm - 1.0) < 1e-9
    assert rep.routes_run == ("level-sup", "bulk", "boundary")


def test_z_under_log_ladder_diagnostics(ulog):
    rep = H.hardy_norm(Poly([0.0, 1.0]), 2.0, ulog)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - 1.0) < 1e-6
    assert rep.monotone
    assert rep.ladder_uncertainty < 1e-6
    # the rungs are exactly e^{2c}, so their decay exponent -log2 rho is 1
    assert abs(rep.fitted_exponent - 1.0) < 1e-3
    cs, vals = zip(*rep.ladder)
    assert len(vals) >= 15
    # successive rung ratios drop toward 1 as the levels fill the disk
    ratios = np.asarray(vals[1:]) / np.asarray(vals[:-1])
    assert np.all(ratios > 1.0)
    assert np.all(np.diff(ratios) < 0.0)
    assert abs(ratios[-1] - 1.0) < 1e-5


def test_ladder_skips_untraceable_deep_rungs():
    # the level c = -1 of equal atoms at +-0.3 is one star-shaped region
    # and a rung; at +-0.45 it splits around the atoms, so that ladder
    # starts at the next rung and climbs contiguously from there
    near = X.green_exhaustion(RieszMeasure(atoms=((0.3, 0.5), (-0.3, 0.5))))
    rep = H.hardy_norm(Poly([0.0, 1.0]), 2.0, near)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - 1.0) < 1e-6
    assert rep.ladder[0][0] == -1.0
    far = X.green_exhaustion(RieszMeasure(atoms=((0.45, 0.5), (-0.45, 0.5))))
    rep = H.hardy_norm(Poly([0.0, 1.0]), 2.0, far)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - 1.0) < 1e-6
    assert rep.monotone
    cs, _ = zip(*rep.ladder)
    assert cs[0] > -1.0
    assert np.allclose(np.diff(np.log2(-np.asarray(cs))), -1.0)
    assert "c=-1" in " ".join(rep.notes)


@pytest.mark.parametrize("rays", [384, 200])
def test_ladder_traces_any_ray_count(rays):
    # the swept measure takes the traced rays as they are, so a ray count
    # that is not a power of two keeps every rung of the ladder
    u = X.green_exhaustion(RieszMeasure(atoms=((0.3, 1.0),)))
    rep = H.hardy_norm(Poly([1.0, 0.5]), 2.0, u, level_samples=rays)
    assert len(rep.ladder) == 13
    assert rep.statuses["level-sup"] == CONVERGED
    assert not any("untraceable" in note for note in rep.notes)


def test_um_triple_route_agreement(u075):
    # the three routes must agree to half a percent on the battery
    for f in (Poly([0.0, 1.0, -1.0]), AffinePower(1.0, 0.5)):
        rep = H.hardy_norm(f, 2.0, u075)
        assert rep.verdict == "MEMBER", f.label
        assert rep.statuses["level-sup"] == "CONVERGED"
        assert rep.agreement is not None
        assert rep.agreement <= 5e-3, (f.label, rep.agreement)


def _tight_boundary_power(f, p, u):
    # the boundary route at tol_abs 1e-14, tol_rel 1e-12
    w = H.boundary_weight(u)

    def integrand(t):
        return np.abs(f.boundary_trace(t)) ** p * np.asarray(w.at(t), dtype=float)

    res = integrate_boundary_arc(integrand, tol_abs=1e-14, tol_rel=1e-12,
                                 singular_points=tuple(w.singular_thetas))
    assert res.status == CONVERGED
    return res.value


def test_level_route_uncertainty_covers_the_truth(ulog, u075):
    # the Richardson step's error bar covers the true norm power, on
    # log|z|, a Green atom and the u_{3/4} lens (|z| = 1 on the circle, so
    # z(1 - z) and 1 - z have one norm there; f = 1 pairs to the mass)
    green = X.green_exhaustion(RieszMeasure(atoms=((0.3, 1.0),)))
    lens = 0.059616203246372616
    cases = [
        (Poly([1.0, 0.5]), 2.0, ulog, 1.25),
        (Poly([0.0, 1.0]), 2.0, ulog, 1.0),
        (Poly([1.0, 0.5]), 2.0, green, None),
        (Poly([0.0, 1.0, -1.0]), 3.0, green, None),
        (Poly([1.0, -1.0]), 2.0, u075, lens),
        (Poly([0.0, 1.0, -1.0]), 2.0, u075, lens),
        (Poly([1.0]), 2.0, u075, 0.20865671041851824),
    ]
    for f, p, u, truth in cases:
        if truth is None:
            truth = _tight_boundary_power(f, p, u)
        rep = H.hardy_norm(f, p, u)
        assert rep.statuses["level-sup"] == CONVERGED, (f.label, u.label)
        err = abs(rep.route_level_sup - truth)
        assert err <= rep.ladder_uncertainty, (f.label, u.label, err)


def test_nonconvex_ladder_is_left_to_the_other_routes(ulog):
    # the deep circle rungs of (1 - z)^{3/4} under log|z| miss its boundary
    # singularity, so their chord slopes fall where convexity in c wants
    # them to rise; the ladder then says INCONCLUSIVE, and bulk and
    # boundary give Gamma(1.75) / Gamma(1.375)^2
    rep = H.hardy_norm(AffinePower(1.0, 0.75), 1.0, ulog)
    assert rep.statuses["level-sup"] == "INCONCLUSIVE"
    assert any("not convex in c" in note for note in rep.notes)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - 1.1631239206755093) <= 1e-8


def test_um_frozen_norm_value(u075):
    rep = H.hardy_norm(Poly([0.0, 1.0, -1.0]), 2.0, u075)
    truth = 0.059616203246372616
    assert abs(rep.route_bulk - truth) / truth < 1e-5
    assert abs(rep.route_boundary - truth) / truth < 1e-5
    assert abs(rep.value - math.sqrt(truth)) / math.sqrt(truth) < 5e-3
    # the ladder's Richardson step stays inside its own error bar
    assert abs(rep.route_level_sup - truth) <= rep.ladder_uncertainty


def test_cold_ladder_computes_no_direct_mass(monkeypatch):
    # no route reads the direct mass of a rung, so a cold ladder computes
    # none; read afterwards on one rung, it and the report built on it
    # have the values frozen below (a snapshot of the INCONCLUSIVE area
    # quadrature, not an oracle).  The ladder traces the 129 rays of the
    # upper half of each level, 5,972 points, and u_m takes its series off
    # the lens and inside it and its closed forms by the tip, so it sends
    # 78 of them to the seam about the lens circle (Euler's integral on
    # Gauss-Jacobi points), to the same norm
    calls, rows = [], []
    original = RieszMeasure.pair

    def counted(measure, h, *, level=None, **kwargs):
        if level is not None:
            calls.append(level.c)
        return original(measure, h, level=level, **kwargs)

    seam = LensPowerDensity._seam_field

    def seam_rows(self, zz, gradient):
        rows.append(zz.size)
        return seam(self, zz, gradient)

    monkeypatch.setattr(RieszMeasure, "pair", counted)
    u = X.make_example("um", 0.75)
    monkeypatch.setattr(LensPowerDensity, "_seam_field", seam_rows)
    rep = H.hardy_norm(Poly([1.0, -1.0]), 2.0, u, level_samples=256)
    assert rep.value == 0.2441642941996277
    M0, M1 = (0.1875 * scipy_beta(b, 0.25) / math.pi for b in (1.5, 2.5))
    truth = math.sqrt(2.0 * (M0 - M1))  # ||1 - z|| by the lens moments
    assert abs(rep.value - truth) <= 3.5e-9 * truth
    assert sum(rows) <= 500
    assert rep.verdict == "MEMBER"
    assert len(rep.ladder) == 9
    assert calls == []
    dm = u.demailly(-(2.0 ** -8), samples=256)
    assert abs(dm.total_mass - 0.1611151401257101) <= 1e-15
    assert abs(dm.mass_balance_residual() - 1.8292086528814977e-05) <= 1e-15
    frozen = {
        "exhaustion": "um:0.75", "c": -0.00390625,
        "total_mass": 0.1611151401257101,
        "mass_quadrature_error": 0.015731300021111085,
        "mass_from_curve": 0.16109684803918153,
        "mass_balance_residual": 1.8292086528814977e-05,
        "curve_length": 5.627406029468058, "samples": 256,
        "level_tolerance": 3.90625e-07,
        "achieved_tolerance": 3.625102831324305e-13,
        "paper_refs": ["demailly-monge-ampere-boundary-measure",
                       "jensen-lelong-two-sided-identity"],
    }
    doc = dm.to_json_dict()
    assert doc.keys() == frozen.keys()
    for key, want in frozen.items():
        if isinstance(want, float):
            assert abs(doc[key] - want) <= 1e-15, key
        else:
            assert doc[key] == want, key
    assert calls == [dm.c]  # once, on the first read


@pytest.mark.parametrize("name, samples, rungs", [("log", 512, 21), ("um", 256, 9)])
def test_level_route_reads_the_modulus_once_per_ladder(monkeypatch, name, samples, rungs):
    # the ladder traces its rungs, then evaluates |f| once on the points of
    # all of them; each rung is still the trapezoid pairing on its own level
    u = X.radial_log() if name == "log" else X.make_example("um", 0.75)
    f, p = AffinePower(0.8, 1.25), 2.0
    weight = H.boundary_weight(u)
    sizes = []
    original = AffinePower._modulus

    def counted(self, z):
        sizes.append(z.size)
        return original(self, z)

    monkeypatch.setattr(AffinePower, "_modulus", counted)
    _, info = H._route_level(f, p, u, weight, samples=samples)
    monkeypatch.undo()
    assert len(info["ladder"]) == rungs
    points = 0
    for c, val in info["ladder"]:
        mu = u.demailly(c, samples=samples)
        points += mu.boundary_points.size
        assert val == mu.pair_spectral(lambda w: f.modulus(w) ** p), c
    assert sizes == [points]


@pytest.mark.parametrize("name", ["half-pair", "log"])
def test_second_query_reads_the_kept_ladder(monkeypatch, name):
    # the first query traces the ladder, and skips the level c = -1 on
    # which the half atoms at +-0.4 are two islands; a second query on the
    # same exhaustion evaluates neither u nor its gradient in the level route
    if name == "log":
        u = X.radial_log()
    else:
        u = X.green_exhaustion(RieszMeasure(
            atoms=((0.4 + 0.0j, 0.5), (-0.4 + 0.0j, 0.5)), label="half-pair"))
    calls, inside = [], []
    value, gradient = u._evaluate, u.gradient

    def spied(fn):
        def call(z):
            if inside:
                calls.append(np.size(z))
            return fn(z)
        return call

    def level_route(*args, **kwargs):
        inside.append(True)
        try:
            return route(*args, **kwargs)
        finally:
            inside.pop()

    route = H._route_level
    monkeypatch.setattr(H, "_route_level", level_route)
    u._evaluate, u.gradient = spied(value), spied(gradient)
    first = H.hardy_norm(Poly([0.0, 1.0]), 2.0, u)
    assert calls
    calls.clear()
    second = H.hardy_norm(Poly([0.5, 1.0]), 2.0, u)
    assert calls == []
    assert len(second.ladder) == len(first.ladder) == (12 if name != "log" else 21)


def test_scaled_exhaustion_ladder_is_twice_the_inner_one():
    # 2u's rung at c pairs |f|^p on u's level at c/2 with twice its flux
    inner = X.radial_log()
    sc = X.scaled_exhaustion(2.0, inner)
    f, p = AffinePower(0.8, 1.25), 2.0
    _, info = H._route_level(f, p, inner, H.boundary_weight(inner))
    _, scaled = H._route_level(f, p, sc, H.boundary_weight(sc))
    assert len(info["ladder"]) == len(scaled["ladder"]) == 21
    for (c, val), (c2, val2) in zip(scaled["ladder"], info["ladder"][1:]):
        assert c2 == c / 2.0
        assert val == 2.0 * val2, c
        assert np.array_equal(sc.sublevel(c).radii, inner.sublevel(c2).radii)


def test_blaschke_factor_is_an_isometry_under_um(u075):
    # |B| = 1 on the circle, so multiplying by B keeps every boundary norm
    B = BlaschkeProduct([0.5, 0.3j])
    for f in (Poly([1.0]), Poly([1.0, -1.0])):
        direct = H.hardy_norm(f, 2.0, u075)
        times_b = H.hardy_norm(Product(B, f), 2.0, u075)
        assert direct.verdict == times_b.verdict == "MEMBER", f.label
        assert abs(times_b.value - direct.value) <= 1e-5 * direct.value, f.label


def test_level_measures_converge_weak_star_to_the_weight(u075):
    # int Re w dmu_c -> int cos t V dnu = int Re z dLambda u, the first
    # moment of the lens density: m(1-m)/pi * B(5/2, m - 1/2)
    m = 0.75
    beta = math.exp(math.lgamma(2.5) + math.lgamma(m - 0.5) - math.lgamma(m + 2.0))
    first_moment = m * (1.0 - m) / math.pi * beta
    assert abs(first_moment - 0.1788486089) < 1e-10
    gaps = []
    for k in (6, 8, 10):
        c = -(2.0 ** -k)
        mu = u075.demailly(c, samples=512)
        pairing = mu.pair_spectral(lambda z: np.real(np.asarray(z, dtype=complex)))
        gaps.append(abs(pairing - first_moment))
        assert gaps[-1] / abs(c) ** (1.0 / 3.0) <= 0.4, (c, gaps[-1])
    assert gaps[0] > gaps[1] > gaps[2]


def test_membership_infinite_mass(u05):
    # V ~ t^{-1} at the tip of u_{1/2}: f = 1 is not a member, and the
    # ladder is skipped for the infinite mass
    rep = H.hardy_norm(Poly([1.0]), 2.0, u05)
    assert rep.verdict == "NOT_MEMBER"
    assert rep.value is None
    assert rep.statuses["level-sup"] is None
    assert rep.route_bulk == rep.route_boundary == math.inf
    assert math.isfinite(rep.classical_norm)

    rep = H.hardy_norm(AffinePower(0.5, 1.0), 2.0, u05)
    assert rep.verdict == "MEMBER"
    assert rep.value is not None
    assert rep.statuses["level-sup"] is None
    assert "infinite Riesz mass" in " ".join(rep.notes)


@pytest.mark.parametrize("neighbour", [0.9995, 1.0005])
def test_close_distinct_roots_keep_the_boundary_zero(u05, neighbour):
    # (1 - z)(c - z) has |f*|^2 V ~ t^{2 - 1} at the tip of u_{1/2}: a
    # member, which it stays only if the zero at 1 is not merged with c
    f = Poly(np.poly([1.0, neighbour])[::-1])
    assert f.boundary_singularities == {0.0: 1.0}
    rep = H.hardy_norm(f, 2.0, u05)
    assert rep.verdict != "NOT_MEMBER"


def test_membership_boundary_power(u075):
    # (1-z)^{-0.3} is classical-H^2 but its square against V ~ t^{-1.1}
    # diverges at the singular angle
    rep = H.hardy_norm(AffinePower(1.0, -0.3), 2.0, u075)
    assert rep.verdict == "NOT_MEMBER"
    assert math.isfinite(rep.classical_norm)
    assert rep.statuses["boundary"] == "DIVERGENT"
    assert rep.statuses["bulk"] == "DIVERGENT"


def test_divergent_ladder_outvoted_by_agreeing_routes(u075):
    # (1-z)^{-0.1}, p = 2: beta p = -0.2 > 1 - 2m, so f is a member.  The
    # ladder's rungs still rise at c = -2^-12 and it reads DIVERGENT, a
    # defect the verdict leaves out; the bulk and boundary routes converge
    # and agree, and they decide
    rep = H.hardy_norm(AffinePower(1.0, -0.1), 2.0, u075)
    assert rep.statuses["bulk"] == rep.statuses["boundary"] == CONVERGED
    assert rep.verdict == "MEMBER"
    ref = _chord_power_reference(-0.2, 0.75)
    assert abs(rep.value ** 2 - ref) <= 1e-5 * ref
    if rep.statuses["level-sup"] == "DIVERGENT":
        assert ("level-sup route DIVERGENT where the declared exponents are "
                "integrable: a defect, left out of the verdict") in rep.notes
        lo, hi = sorted((rep.route_bulk, rep.route_boundary))
        assert lo * (1.0 - 1e-12) <= rep.value ** 2 <= hi * (1.0 + 1e-12)


@pytest.mark.parametrize("divergent", ["level-sup", "bulk", "boundary"])
def test_single_divergent_route_verdicts(u075, monkeypatch, divergent):
    # one route DIVERGENT, one CONVERGED, one not run: the routes decide
    # nothing.  (1-z)^{-0.3} at p = 2 has 2 beta + alpha = -1.1 at t = 0,
    # so it is not a member whatever they say; 1 - z/2 declares nothing,
    # so its divergent route is a defect and one finite route is too few
    others = [n for n in ("level-sup", "bulk", "boundary") if n != divergent]
    res = {divergent: QuadratureResult(math.inf, math.inf, DIVERGENT, 0),
           others[0]: QuadratureResult(0.25, 1e-9, CONVERGED, 0),
           others[1]: None}
    info = {"ladder": (), "exponent": None, "monotone": None, "note": None}
    monkeypatch.setattr(H, "_route_level", lambda *a, **k: (res["level-sup"], info))
    monkeypatch.setattr(H, "_route_bulk", lambda *a, **k: res["bulk"])
    monkeypatch.setattr(H, "_route_boundary", lambda *a, **k: res["boundary"])

    rep = H.hardy_norm(AffinePower(1.0, -0.3), 2.0, u075)
    assert rep.verdict == "NOT_MEMBER" and rep.value is None
    assert ("|f*|^p V ~ |t - t0|^-1.1 at t0 = 0: not integrable there "
            "(p beta + alpha <= -1)") in rep.notes

    rep = H.hardy_norm(Poly([1.0, -0.5]), 2.0, u075)
    assert rep.verdict == "INCONCLUSIVE" and rep.value == 0.5
    assert (f"{divergent} route DIVERGENT where the declared exponents are "
            "integrable: a defect, left out of the verdict") in rep.notes


_DEFECT = "route DIVERGENT where the declared exponents are integrable"


@pytest.mark.parametrize("beta, p", [(-0.21, 2.0), (-0.22, 2.0), (-0.24, 2.0),
                                     (-0.48, 1.0)])
def test_members_near_the_threshold_are_not_refused(u075, beta, p):
    # p beta - 1/2 lies in (-1, -0.9): (1-z)^beta is a member under u_{3/4}
    # (||f||^p is 3.42 at beta = -0.22, 11.3 at -0.24), though its routes
    # may diverge or not certify so near the threshold; a divergence there
    # is a defect the verdict names and leaves out
    rep = H.hardy_norm(AffinePower(1.0, beta), p, u075)
    assert rep.verdict != "NOT_MEMBER"
    for name, status in rep.statuses.items():
        if status == DIVERGENT:
            assert f"{name} {_DEFECT}: a defect, left out of the verdict" in rep.notes


@pytest.mark.parametrize("beta, p", [(-0.25, 2.0), (-0.3, 2.0), (-0.6, 1.0)])
def test_non_members_are_refused_by_their_exponent(u075, beta, p):
    rep = H.hardy_norm(AffinePower(1.0, beta), p, u075)
    assert rep.verdict == "NOT_MEMBER" and rep.value is None
    exponent = beta * p - 0.5
    assert (f"|f*|^p V ~ |t - t0|^{exponent:.6g} at t0 = 0: not integrable "
            "there (p beta + alpha <= -1)") in rep.notes
    assert not any(_DEFECT in note for note in rep.notes)


def test_member_below_the_threshold_band_keeps_its_value(u075):
    rep = H.hardy_norm(AffinePower(1.0, -0.2), 2.0, u075)
    assert rep.verdict == "MEMBER"
    ref = _chord_power_reference(-0.4, 0.75)  # 1.873762...
    assert abs(rep.value ** 2 - ref) <= 1e-6 * ref


@pytest.mark.parametrize("beta, want_not_member", [(-0.24, False), (-0.25, True)])
def test_pulled_back_verdicts_read_the_moved_exponents(u075, beta, want_not_member):
    # the Moebius map moves the angles of f and of V alike and keeps their
    # exponents, so the pullback gives the direct verdict
    rep = H.conformal_pullback_norm(AffinePower(1.0, beta), u075,
                                    MoebiusAutomorphism(0.3), 2.0)
    assert rep.weight.singular_thetas == {0.0: -0.5}
    assert (rep.verdict == "NOT_MEMBER") == want_not_member


def _chord_power_reference(s, m):
    """int |1 - e^{it}|^s V dnu by scipy quad on the exact lens balayage."""
    lens = LensPowerDensity(m)

    def g(t):
        return (2.0 * math.sin(0.5 * t)) ** s * float(lens.balayage(np.array([t]))[0])

    edges = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, math.pi]
    return sum(quad(g, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:])) / math.pi


@pytest.mark.parametrize("bp", [-0.8, -0.6, -0.3, -0.2, 0.2, 0.5, 0.9])
def test_um_membership_rule_at_p_one(u075, bp):
    # (1-z)^beta is in H^1_{u_m} exactly when beta > 1 - 2m = -1/2, and
    # the bulk route's value must lie within its own error of the truth
    f = AffinePower(1.0, bp)
    rep = H.hardy_norm(f, 1.0, u075)
    if bp < -0.5:
        assert rep.verdict == "NOT_MEMBER"
        return
    ref = _chord_power_reference(bp, 0.75)
    assert rep.verdict == "MEMBER"
    assert abs(rep.value - ref) <= 1e-5 * ref
    bulk = H._route_bulk(f, 1.0, u075, rep.weight,
                         H.least_harmonic_majorant(f, 1.0).values)
    assert bulk.status == CONVERGED
    assert abs(bulk.value - ref) <= bulk.error


def test_bulk_route_within_its_error_for_zeros_near_the_atom():
    # two zeros of f close together, one next to the atom at 0.3; the
    # reference is int |f*|^2 P(0.3, .) dnu on 65,536 nodes (exact here)
    coeffs = np.poly([-1.328 + 1.224j, -0.042 + 0.034j, 0.321 - 0.014j])[::-1]
    u = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),)))
    zeta = np.exp(1j * np.arange(65536) * (TWO_PI / 65536))
    ref = float(np.mean(np.abs(np.polynomial.polynomial.polyval(zeta, coeffs)) ** 2
                        * poisson_kernel(0.3, zeta)))
    f = Poly(coeffs)
    bulk = H._route_bulk(f, 2.0, u, H.boundary_weight(u),
                         H.least_harmonic_majorant(f, 2.0).values)
    assert bulk.status == CONVERGED
    assert abs(bulk.value - ref) <= bulk.error


@pytest.mark.parametrize("beta, p", [(2.0, 1.0), (1.0, 2.0)])
def test_lens_bulk_route_matches_frozen_value(u05, beta, p):
    """The u_{1/2} bulk route of |(1 - z)/2|^2 gives its closed form.

    ||(1 - z)/2||_2^2 = m(1-m) B(3/2, m + 1/2)/(2 pi) at m = 1/2, the
    benchmark's reference.  The mass is infinite, so the far part pairs the
    whole 4,097-term series with the finite parts of the lens moments; the
    value is within 1.8e-13 of the closed form, where the disk quadrature
    of the series read 1.46e-9 off.
    """
    f = AffinePower(0.5, beta)
    bulk = H._route_bulk(f, p, u05, H.boundary_weight(u05),
                         H.least_harmonic_majorant(f, p).values)
    m = 0.5
    truth = 0.5 * m * (1.0 - m) * scipy_beta(1.5, m + 0.5) / math.pi
    assert bulk.status == CONVERGED
    assert abs(bulk.value - truth) <= 1e-12 * truth


def test_lens_bulk_route_matches_the_lens_moments(u075):
    # ||z(1 - z)||^2 = 2 (M_0 - M_1) under u_{3/4}, and so is the norm of
    # B z(1 - z) for a Blaschke product B.  Both bulk values sit 5.7e-11
    # relative from it (the window part's quadrature; the far part is two
    # moments); the disk quadrature of the far series was 1.2e-9 off
    m = 0.75
    M0, M1 = (m * (1.0 - m) * scipy_beta(a, m - 0.5) / math.pi for a in (1.5, 2.5))
    truth = 2.0 * (M0 - M1)
    for f in (Poly([0.0, 1.0, -1.0]),
              Product(BlaschkeProduct([0.5, 0.3j]), Poly([0.0, 1.0, -1.0]))):
        bulk = H._route_bulk(f, 2.0, u075, H.boundary_weight(u075),
                             H.least_harmonic_majorant(f, 2.0).values)
        assert bulk.status == CONVERGED
        assert abs(bulk.value - truth) <= 2e-10 * truth, f.label
        assert abs(bulk.value - truth) <= bulk.error, f.label


def test_lens_bulk_route_pairs_with_moments_not_disk_quadrature(u075, u05, monkeypatch):
    # u_{3/4} and u_{1/2} declare their moments: no norm on them calls the
    # disk quadrature.  Their Moebius pullback declares none and pairs, and
    # 2u scales the moments, so its bulk route is exactly twice u's
    calls = []
    original = P.integrate_disk_area

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(P, "integrate_disk_area", counted)
    f = Poly([0.0, 1.0, -1.0])
    for u, g, p in ((u075, f, 2.0), (u05, AffinePower(0.5, 2.0), 1.0)):
        H.hardy_norm(g, p, u, level_samples=256)
        assert calls == [], u.label
    mob = MoebiusAutomorphism(a=0.3 + 0.1j, rot=0.7)
    pulled = X.pullback_exhaustion(mob, u075)
    assert pulled.measure.moments is None
    composed = H._ComposedExpr(f, mob)
    H._route_bulk(composed, 2.0, pulled, H.boundary_weight(pulled),
                  H.least_harmonic_majorant(composed, 2.0).values)
    assert calls
    calls.clear()
    twice = X.scaled_exhaustion(2.0, u075)
    assert np.array_equal(twice.measure.moments(9), 2.0 * u075.measure.moments(9))
    maj = H.least_harmonic_majorant(f, 2.0).values
    one = H._route_bulk(f, 2.0, u075, H.boundary_weight(u075), maj)
    two = H._route_bulk(f, 2.0, twice, H.boundary_weight(twice), maj)
    assert (two.value, two.error) == (2.0 * one.value, 2.0 * one.error)
    assert calls == []


def test_majorant_far_share_is_built_once_per_angles():
    # 1 - chi on the majorant grid, the far part of the bulk route, is
    # built once per tuple of singular angles: bit for bit a fresh cutoff,
    # read-only, and the same array when the angles come again
    angles = (0.0, 2.5)
    share = H._majorant_far_share(angles)
    fresh = 1.0 - H._cutoff(H._MAJORANT_THETAS, angles)
    assert share.tobytes() == fresh.tobytes()
    assert not share.flags.writeable
    with pytest.raises(ValueError):
        share[0] = 0.5
    assert H._majorant_far_share(angles) is share
    assert np.all(H._majorant_far_share(()) == 1.0)


def test_small_p_skips_level_route(u075):
    rep = H.hardy_norm(Poly([1.0]), 0.7, u075)
    assert "level-sup" not in rep.routes_run
    assert rep.statuses["level-sup"] is None
    assert "level route skipped" in " ".join(rep.notes)
    assert set(rep.routes_run) == {"bulk", "boundary"}


def test_membership_bundle_and_json(ulog):
    blob = H.hardy_norm(Poly([1.0]), 2.0, ulog).to_json_dict()
    assert blob["verdict"] == "MEMBER"
    assert abs(blob["value"] - 1.0) < 1e-9
    assert math.isfinite(blob["classical_norm"])
    assert set(blob["routes"]) == {"level-sup", "bulk", "boundary"}
    assert blob["paper_refs"]
    text = json.dumps(blob)
    assert "Infinity" not in text


def test_json_of_divergent_and_unresolved_reports(ulog, u05, monkeypatch):
    # (1 - z)^{-1/2} is not in H^2: every route and the classical norm
    # diverge, and the JSON spells the infinities out
    blob = H.hardy_norm(AffinePower(1.0, -0.5), 2.0, ulog).to_json_dict()
    assert blob["verdict"] == "NOT_MEMBER"
    for name in ("level-sup", "bulk", "boundary"):
        assert blob["routes"][name] == {
            "value": "INFINITE", "status": DIVERGENT, "error": "INFINITE"}
    assert blob["classical_norm"] == "INFINITE"
    json.dumps(blob, allow_nan=False)
    weight = H.boundary_weight(u05).to_json_dict()
    assert weight["mass_of_laplacian"] == "INFINITE"
    json.dumps(weight, allow_nan=False)

    # a ladder of two rungs is INCONCLUSIVE with no bar; the other routes
    # report their own errors
    status, limit, unc, _, _ = H._ladder_estimate([0.9, 0.95])
    info = {"ladder": ((-1.0, 0.9), (-0.5, 0.95)), "exponent": None,
            "monotone": True, "note": None}
    monkeypatch.setattr(H, "_route_level", lambda *a, **k: (
        QuadratureResult(limit, unc, status, 2), info))
    rep = H.hardy_norm(Poly([1.0]), 2.0, ulog)
    assert math.isnan(rep.ladder_uncertainty)
    blob = rep.to_json_dict()
    assert blob["ladder_uncertainty"] == "NAN"
    assert blob["routes"]["level-sup"]["error"] == "NAN"
    for name in ("bulk", "boundary"):
        assert 0.0 <= blob["routes"][name]["error"] <= 1e-9
    json.dumps(blob, allow_nan=False)


def test_hardy_norm_input_validation(ulog):
    with pytest.raises(InvalidParameter):
        H.hardy_norm(Poly([1.0]), -2.0, ulog)
    with pytest.raises(InvalidParameter, match="hardy_norm expects"):
        H.hardy_norm(Poly([1.0]), 2.0, "log")
    with pytest.raises(InvalidParameter):
        H.least_harmonic_majorant(Poly([1.0]), 0.0)


def test_hardy_norm_computes_the_classical_power_once(ulog, monkeypatch):
    # the bulk route takes its majorant from the classical power that
    # hardy_norm already has, also where there is no majorant
    calls = []
    original = H._classical_power

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(H, "_classical_power", counted)
    for f in (Poly([1.0, -1.0]), AffinePower(1.0, -0.6)):
        calls.clear()
        H.hardy_norm(f, 2.0, ulog)
        assert len(calls) == 1, f.label


# ---------------------------------------------------------------------------
# harmonic majorants
# ---------------------------------------------------------------------------


def test_majorant_of_one_minus_z():
    maj = H.least_harmonic_majorant(Poly([1.0, -1.0]), 2.0)
    # |1-z|^2 = 1 - 2 Re z + |z|^2 <= 2 - 2 Re z, harmonic, equality a.e.
    assert abs(maj(0) - 2.0) < 1e-12
    assert abs(maj(0.3 + 0.4j) - (2.0 - 0.6)) < 1e-9
    zs = 0.8 * np.exp(1j * np.arange(16) * (TWO_PI / 16))
    assert np.min(maj(zs) - np.abs(1.0 - zs) ** 2) > 0.0


def test_majorant_h0_matches_classical_power():
    f = Poly([0.5, 0.0, 1.0])
    maj = H.least_harmonic_majorant(f, 2.0)
    assert abs(maj(0) - H.classical_hardy_norm(f, 2.0) ** 2) < 1e-10


def test_majorant_is_finite_at_a_singular_angle():
    # |f*|^2 = |1 - e^{it}|^(-0.6) is infinite at t = 0, an integrable
    # blowup: the sample there is 0 and the majorant stays finite
    maj = H.least_harmonic_majorant(AffinePower(1.0, -0.3), 2.0)
    assert maj.values[0] == 0.0
    assert np.all(np.isfinite(maj.values))
    assert math.isfinite(maj(1.0))
    assert math.isfinite(maj(1.0 - 1e-9))


def test_majorant_refuses_divergent_power():
    with pytest.raises(H.NoMajorant):
        H.least_harmonic_majorant(AffinePower(1.0, -0.6), 2.0)


# ---------------------------------------------------------------------------
# conformal pullback
# ---------------------------------------------------------------------------


def test_pullback_norm_is_invariant(ulog):
    mob = MoebiusAutomorphism(a=0.3)
    direct = H.hardy_norm(Poly([0.0, 1.0]), 2.0, ulog)
    pulled = H.conformal_pullback_norm(Poly([0.0, 1.0]), ulog, mob, 2.0)
    assert pulled.verdict == "MEMBER"
    assert abs(pulled.value - direct.value) / direct.value < 5e-3
    assert pulled.agreement < 5e-3


def test_pulled_back_lens_bulk_route(u075):
    # the norm is invariant under the automorphism: the bulk route of the
    # pullback pairs the majorant against the pulled lens density and
    # gives ||z(1 - z)||^2 = 2 (M0 - M1) of test_um_frozen_norm_value
    mob = MoebiusAutomorphism(a=0.3 + 0.1j, rot=0.7)
    rep = H.conformal_pullback_norm(Poly([0.0, 1.0, -1.0]), u075, mob, 2.0)
    truth = 0.059616203246372616
    assert rep.statuses["bulk"] == CONVERGED
    assert abs(rep.route_bulk - truth) / truth < 1e-7


def test_pullback_rejects_non_automorphism(ulog):
    class Junk:
        forward = staticmethod(lambda z: z * z)

    with pytest.raises(H.InvalidMap):
        H.conformal_pullback_norm(Poly([0.0, 1.0]), ulog, Junk(), 2.0)


# ---------------------------------------------------------------------------
# comparison propositions
# ---------------------------------------------------------------------------


def test_comparison_scaled_log(ulog):
    # V = 2 against V = 1: both constants are exact, and every function,
    # the battery and both bumps, meets them with equality
    u2 = X.scaled_exhaustion(2.0, ulog)
    rep = H.comparison_checks(u2, ulog)
    assert rep["ok"]
    assert rep["C_uv"]["value"] == 2.0
    assert rep["C_vu"]["value"] == 0.5
    assert rep["C_uv"]["bump_ratio"] == 2.0
    assert rep["C_vu"]["bump_ratio"] == 0.5
    for row in rep["rows"]:
        assert row["ok"], row["f"]
        assert abs(row["pairing_u"] - 2.0 * row["pairing_v"]) \
            <= 1e-12 * row["pairing_u"]
    # V = 1 for the log weight and P(0, .) = 1, so the sharp constant is 1
    assert abs(rep["point_bound"]["s"] - 1.0) < 1e-12
    assert rep["point_bound"]["ok"]


def test_comparison_builds_one_weight_per_exhaustion(monkeypatch):
    # the point bound reads s off the cached weight of v, which the
    # majorant pairings already built, and the weight of log|z|
    built = []
    original = H._build_weight

    def counted(u):
        built.append(u.label)
        return original(u)

    monkeypatch.setattr(H, "_build_weight", counted)
    u = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),)))
    v = X.scaled_exhaustion(0.5, X.radial_log())
    H.comparison_checks(u, v)
    assert sorted(built) == sorted([u.label, v.label, "log"])


def test_comparison_green_atom_reads_the_poisson_maximum(ulog):
    # V_u = P(a, .) against V_v = 1: sup P(a, .) = (1 + |a|)/(1 - |a|) at
    # arg a, and sup 1/P(a, .) is the same value at arg a + pi
    a = 0.3 + 0.1j
    sharp = (1.0 + abs(a)) / (1.0 - abs(a))
    u = X.green_exhaustion(RieszMeasure(atoms=((a, 1.0),)))
    rep = H.comparison_checks(u, ulog)
    assert rep["ok"]
    for key, t in (("C_uv", np.angle(a)), ("C_vu", np.angle(a) + math.pi)):
        assert abs(rep[key]["value"] - sharp) < 1e-12, key
        assert abs(rep[key]["theta"] - t) < 1e-6, key
        assert abs(rep[key]["bump_ratio"] - 1.9236) < 1e-4, key
        assert rep[key]["bump_ratio"] <= rep[key]["value"]


def test_comparison_point_bound_is_sharp_between_the_nodes(ulog):
    # s = sup P(0, .)/P(a, .) = (1 + |a|)/(1 - |a|), reached at arg a + pi,
    # between the weight's nodes: their minimum of V_v read 2.7e-8 low
    a = 0.3 + 0.1j
    sharp = (1.0 + abs(a)) / (1.0 - abs(a))
    v = X.green_exhaustion(RieszMeasure(atoms=((a, 1.0),)))
    rep = H.comparison_checks(ulog, v)
    assert rep["point_bound"]["ok"]
    assert abs(rep["point_bound"]["s"] - sharp) <= 1e-12 * sharp
    assert rep["point_bound"]["s"] == rep["C_uv"]["value"]


def test_comparison_log_against_lens(ulog, u075):
    # V_{3/4} has its minimum at pi and blows up like t^{-1/2} at 0: the
    # log norm is at most 1/min V times the lens norm, and no constant
    # bounds the lens norm by the log norm
    rep = H.comparison_checks(ulog, u075)
    assert rep["ok"]
    c_uv = rep["C_uv"]
    assert abs(c_uv["value"] - 57.627233625761676) < 1e-12
    assert abs(c_uv["theta"] - math.pi) < 1e-6
    assert abs(c_uv["bump_ratio"] - c_uv["value"]) < 0.01 * c_uv["value"]
    assert c_uv["bump_ratio"] <= c_uv["value"]
    for row in rep["rows"]:
        assert row["ok"], row["f"]
        assert row["pairing_u"] <= c_uv["value"] * row["pairing_v"], row["f"]
    c_vu = rep["C_vu"]
    assert math.isinf(c_vu["value"]) and c_vu["theta"] == 0.0
    # the bump at the tip is above every battery ratio
    reverse = [row["pairing_v"] / row["pairing_u"] for row in rep["rows"]]
    assert abs(max(reverse) - 0.283) < 1e-3
    assert abs(c_vu["bump_ratio"] - 32.1) < 0.1


def test_lens_balayage_is_smooth_at_its_last_digits():
    # V is smooth in t to its last digits: two angles two ulps apart agree
    t = np.array([-0.6983815371744435, -0.6983815371744437])
    V = LensPowerDensity(0.75).balayage(t)
    assert abs(V[0] - V[1]) <= 1e-14 * V[0]
