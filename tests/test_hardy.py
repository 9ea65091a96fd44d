import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from pshardy import exhaustion as X
from pshardy import hardy as H
from pshardy.exhaustion import InvalidParameter
from pshardy.factorization import AffinePower, BlaschkeProduct, Poly, Product
from pshardy.geometry import CONVERGED, MoebiusAutomorphism, integrate_boundary_arc
from pshardy.potential import LensPowerDensity, RieszMeasure, poisson_kernel

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# boundary weights
# ---------------------------------------------------------------------------


def test_weight_log_is_constant_one(ulog):
    w = H.boundary_weight(ulog)
    assert np.max(np.abs(w.values - 1.0)) < 1e-12
    assert w.constancy() < 1e-12
    assert abs(w.mass_of_laplacian - 1.0) == 0.0
    assert w.log_integrable
    assert w.singular_thetas == ()
    assert abs(w.at(1.234) - 1.0) < 1e-12


def test_weight_um_frozen_values(u075):
    w = H.boundary_weight(u075)
    assert abs(w.at(math.pi) - 0.01735290655272462) < 1e-9
    assert abs(w.at(math.pi / 2.0) - 0.033508405528991064) < 1e-9
    assert abs(w.at(0.2) - 0.614814105615494) < 1e-9
    assert abs(w.mass_of_laplacian - 0.20865671041851824) < 1e-12
    assert w.singular_thetas == (0.0,)
    assert math.isinf(w.at(0.0))
    assert math.isinf(w.values[0])
    assert w.log_integrable


def test_weight_um_half_diverges_at_one(u05):
    w = H.boundary_weight(u05)
    assert abs(w.at(math.pi) - 0.02963475158897719) < 1e-9
    assert math.isinf(w.mass_of_laplacian)
    assert w.fubini_residual is None
    # V ~ 1/t near the singular angle: log V is still integrable
    assert w.log_integrable


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
    def bump(w):
        return np.exp(-np.abs(np.asarray(w) - 0.4) ** 2 / 0.02) / TWO_PI

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


def test_weight_cache_and_validation(ulog):
    w1 = H.boundary_weight(ulog)
    w2 = H.boundary_weight(ulog)
    assert w1 is w2
    with pytest.raises(InvalidParameter):
        H.boundary_weight("um")
    with pytest.raises(InvalidParameter):
        # the glued family carries an undeclared singular mass component
        H.boundary_weight(X.make_example("vm", 0.75))


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
    0.75: {0.3: 0.387384797676579531491873942551,
           1.0: 0.0677749241114309916739498538454,
           1.865: 0.0263798362646041446970393887575,
           2.5: 0.019191423556793304406476308639,
           4.109: 0.0219218412209280589744585781591},
    0.5: {0.3: 0.848363272646308000891594716032,
          1.0: 0.120566052965029072036345518776,
          1.865: 0.0453911427889296929943840009087,
          2.5: 0.0328250830741805105976397353476,
          4.109: 0.0375808566685709100105689685215},
}


def test_lens_balayage_matches_frozen_mpmath_reference():
    """V of the lens density is within 2e-10 relative of a 30-digit reference.

    Recipe (mpmath 1.3, mp.dps = 30): V(t) = m(1-m)/(2 pi) times the
    integral over 0 < x < 1 of (1 - x)^(m-2) C(x), where C(x) is the
    integral of the Poisson kernel at e^{it} over the chord |y| < Y,
    Y = sqrt(x(1 - x)).  Where |sin t| >= 1/2 or cos t < 0, C is the closed
    form F(Y) - F(-Y) of ``_lens_balayage_reference`` with A = cos t - x;
    elsewhere it is an mp.quad over y on the chord, split at y = sin t.
    mp.quad integrates sigma = sqrt(x) over [0, sqrt(1/2)] and
    lambda = -log(1 - x) over [log 2, 70], split at 1, 2, 4, 8, 16, 30 and
    50.  An mp.quad over y on every chord at dps 40, with lambda split at
    seventeen points, agreed to 4e-27 relative.
    """
    for m, ref in _LENS_BALAYAGE_REFERENCE.items():
        t = np.array(list(ref))
        want = np.array(list(ref.values()))
        gap = np.abs(LensPowerDensity(m).balayage(t) - want) / want
        assert np.all(gap <= 2e-10), (m, t[np.argmax(gap)], gap.max())


@pytest.mark.parametrize("m", [0.75, 0.5])
def test_lens_weight_is_the_exact_balayage(m, u075, u05):
    # the weight evaluates the balayage itself at every angle, and is inf
    # only at the singular angle
    w = H.boundary_weight(u075 if m == 0.75 else u05)
    rng = np.random.default_rng(31)
    t = np.concatenate([rng.uniform(-math.pi, math.pi, 1000),
                        np.geomspace(1e-12, 0.5, 200) * rng.choice([-1, 1], 200)])
    assert np.array_equal(w.at(t), LensPowerDensity(m).balayage(t))
    samples = LensPowerDensity(m).balayage(w.thetas)
    samples[0] = math.inf
    assert np.array_equal(w.values, samples)
    assert math.isinf(w.at(0.0))


def test_weight_rejects_non_finite_declared_balayage():
    # a declared balayage that is nan on an arc away from its boundary
    # singularity is not a weight
    def bump(w):
        return np.exp(-np.abs(np.asarray(w) - 0.4) ** 2 / 0.02) / TWO_PI

    def broken(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - 2.0) < 0.01, np.nan, 1.0)

    measure = RieszMeasure(density=bump, total_mass_hint=1.0, balayage=broken,
                           boundary_singularities=(1.0 + 0.0j,), label="broken")
    with pytest.raises(H.UnsupportedRegion, match="non-finite"):
        H.boundary_weight(X.green_exhaustion(measure))


def test_lens_balayage_is_continuous_near_its_singular_angle():
    # V ~ t^(-1/2) at the tip, so V sqrt(t) varies slowly; a fixed lambda
    # panel across the chord crossing makes it jump by up to 1e-2
    t = np.geomspace(1e-9, 1e-3, 4001)
    g = LensPowerDensity(0.75).balayage(t) * np.sqrt(t)
    assert np.max(np.abs(np.diff(g))) < 1e-4
    assert np.max(np.abs(np.diff(g, 2))) < 1e-6


def test_weight_json(u075):
    w = H.boundary_weight(u075)
    blob = w.to_json_dict()
    assert blob["mass_of_laplacian"] == w.mass_of_laplacian
    assert blob["log_integrable"] is True
    assert "paper_refs" in blob
    json.dumps(blob)


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
    # the rungs are exactly e^{2c}, so the fitted decay exponent is 1
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


def test_um_frozen_norm_value(u075):
    rep = H.hardy_norm(Poly([0.0, 1.0, -1.0]), 2.0, u075)
    truth = 0.059616203246372616
    assert abs(rep.route_bulk - truth) / truth < 1e-5
    assert abs(rep.route_boundary - truth) / truth < 1e-5
    assert abs(rep.value - math.sqrt(truth)) / math.sqrt(truth) < 5e-3
    # the ladder extrapolation stays inside its own error bar
    assert abs(rep.route_level_sup - truth) <= 3.0 * rep.ladder_uncertainty


def test_cold_ladder_computes_no_direct_mass(monkeypatch):
    # no route reads the direct mass of a rung, so a cold ladder computes
    # none; read afterwards on one rung, it and the report built on it
    # have the values frozen below.  Off the lens u_m takes its multipole
    # series, so the ladder evaluates fewer than half of the 11,853 grid
    # rows it takes on the chord grid alone, to the same norm
    calls, rows = [], []
    original = X.pair_over_sublevel

    def counted(measure, h, level, **kwargs):
        calls.append(level.c)
        return original(measure, h, level, **kwargs)

    grid = LensPowerDensity._green_block

    def grid_rows(self, zz, gradient):
        rows.append(zz.size)
        return grid(self, zz, gradient)

    monkeypatch.setattr(X, "pair_over_sublevel", counted)
    u = X.make_example("um", 0.75)
    monkeypatch.setattr(LensPowerDensity, "_green_block", grid_rows)
    rep = H.hardy_norm(Poly([1.0, -1.0]), 2.0, u, level_samples=256)
    assert rep.value == 0.24416429377347493
    assert sum(rows) <= 6000
    assert len(rep.ladder) == 9
    assert calls == []
    dm = u.demailly(-(2.0 ** -8), samples=256)
    assert abs(dm.total_mass - 0.16111514012566655) <= 1e-15
    assert abs(dm.mass_balance_residual() - 1.8292086679777553e-05) <= 1e-15
    frozen = {
        "exhaustion": "um:0.75", "c": -0.00390625,
        "total_mass": 0.16111514012566655,
        "mass_quadrature_error": 0.015731300043901997,
        "mass_from_curve": 0.16109684803898677,
        "mass_balance_residual": 1.8292086679777553e-05,
        "curve_length": 5.627406029468058, "samples": 256,
        "level_tolerance": 3.90625e-07,
        "achieved_tolerance": 1.034854064079326e-11,
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
    rep = H.hardy_norm(Poly([1.0]), 2.0, u05)
    assert rep.verdict == "NOT_MEMBER"
    assert rep.value is None
    assert all(v == math.inf for v in rep.route_values().values())
    assert math.isfinite(rep.classical_norm)

    rep = H.hardy_norm(AffinePower(0.5, 1.0), 2.0, u05)
    assert rep.verdict == "MEMBER"
    assert rep.value is not None
    assert rep.statuses["level-sup"] is None
    assert "infinite Riesz mass" in " ".join(rep.notes)


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
    # ladder's rungs still rise at c = -2^-12 and it reads DIVERGENT; the
    # bulk and boundary routes converge and agree, and they decide
    rep = H.hardy_norm(AffinePower(1.0, -0.1), 2.0, u075)
    assert rep.statuses["bulk"] == rep.statuses["boundary"] == CONVERGED
    assert rep.verdict == "MEMBER"
    ref = _chord_power_reference(-0.2, 0.75)
    assert abs(rep.value ** 2 - ref) <= 1e-5 * ref
    if rep.statuses["level-sup"] == "DIVERGENT":
        assert "outvoted" in " ".join(rep.notes)
        lo, hi = sorted((rep.route_bulk, rep.route_boundary))
        assert lo * (1.0 - 1e-12) <= rep.value ** 2 <= hi * (1.0 + 1e-12)


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
                         H.least_harmonic_majorant(f, 1.0))
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
                         H.least_harmonic_majorant(f, 2.0))
    assert bulk.status == CONVERGED
    assert abs(bulk.value - ref) <= bulk.error


@pytest.mark.parametrize("beta, p", [(2.0, 1.0), (1.0, 2.0)])
def test_lens_bulk_route_matches_frozen_value(u05, beta, p):
    """The u_{1/2} bulk route of |(1 - z)/2|^2 holds its value.

    Recipe: ``H._route_bulk(f, p, u, H.boundary_weight(u),
    H.least_harmonic_majorant(f, p))`` with f = AffinePower(0.5, beta) and
    u = make_example("um", 0.5), run with the series summed by numpy's
    Horner (``polyval``): 0.026525823887283185 for ((1 - z)/2)^2, p = 1 and
    0.026525823887283178 for (1 - z)/2, p = 2.  The mass is infinite, so
    the far part pairs the whole 4,097-term series with the lens density.
    """
    f = AffinePower(0.5, beta)
    bulk = H._route_bulk(f, p, u05, H.boundary_weight(u05),
                         H.least_harmonic_majorant(f, p))
    assert bulk.status == CONVERGED
    assert abs(bulk.value - 0.0265258238872832) <= 1e-12 * 0.0265258238872832


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


def test_hardy_norm_input_validation(ulog):
    with pytest.raises(InvalidParameter):
        H.hardy_norm(Poly([1.0]), -2.0, ulog)
    with pytest.raises(InvalidParameter, match="hardy_norm expects"):
        H.hardy_norm(Poly([1.0]), 2.0, "log")


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


def test_pullback_rejects_non_automorphism(ulog):
    class Junk:
        forward = staticmethod(lambda z: z * z)

    with pytest.raises(H.InvalidMap):
        H.conformal_pullback_norm(Poly([0.0, 1.0]), ulog, Junk(), 2.0)


# ---------------------------------------------------------------------------
# comparison propositions
# ---------------------------------------------------------------------------


def test_comparison_scaled_log(ulog):
    u2 = X.scaled_exhaustion(2.0, ulog)
    rep = H.comparison_checks(u2, ulog, 2.0)
    assert rep["ok"]
    assert rep["hypothesis"]["status"] == "OK"
    for row in rep["order"]["rows"]:
        assert row["ok"], row["f"]
        assert abs(row["pairing_u"] - 2.0 * row["pairing_v"]) \
            <= 1e-5 * row["pairing_u"]
    # V = 1 for the log weight and P(0, .) = 1, so the sharp constant is 1
    assert abs(rep["point_bound"]["s"] - 1.0) < 1e-12
    assert rep["point_bound"]["ok"]
    assert rep["reverse"]["ok"]
    assert abs(rep["reverse"]["fitted_c"] - 0.5) < 1e-5


def test_comparison_builds_one_weight_per_exhaustion(monkeypatch):
    # the point bound reads s off the cached weight of v, which the
    # majorant pairings already built
    built = []
    original = H._build_weight

    def counted(u):
        built.append(u.label)
        return original(u)

    monkeypatch.setattr(H, "_build_weight", counted)
    u = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),)))
    v = X.scaled_exhaustion(0.5, X.radial_log())
    H.comparison_checks(u, v, 1.0)
    assert sorted(built) == sorted([u.label, v.label])


def test_comparison_detects_false_hypothesis(ulog):
    # b*v <= u reads 0.5*log <= 2*log, false everywhere inside the disk
    # (both sides are negative), and the order conclusion would be false
    # too: the pairings scale by 2, not by 0.5
    u2 = X.scaled_exhaustion(2.0, ulog)
    rep = H.comparison_checks(u2, ulog, 0.5)
    assert rep["hypothesis"]["status"] == "HYPOTHESIS_FAILED"
    assert rep["hypothesis"]["margin"] < 0.0
    assert rep["order"]["ok"] is None
    assert all(row["ok"] is None for row in rep["order"]["rows"])
    assert not rep["ok"]
