import math

import numpy as np
import pytest

from pshardy import exhaustion as X
from pshardy.geometry import MoebiusAutomorphism
from pshardy.potential import (
    DIVERGENT,
    RieszMeasure,
    green_function,
    green_potential,
    poisson_extension,
)


@pytest.fixture(scope="module")
def um():
    return X.make_example("um", 0.75)


@pytest.fixture(scope="module")
def um_half():
    return X.make_example("um", 0.5)


# ---------------------------------------------------------------------------
# example construction and validation
# ---------------------------------------------------------------------------


def test_make_example_validation():
    with pytest.raises(X.InvalidParameter):
        X.make_example("um", 1.5)
    with pytest.raises(X.InvalidParameter):
        X.make_example("um", 0.0)
    with pytest.raises(X.InvalidParameter):
        X.make_example("nope", 0.5)
    # kind spelling is forgiving about separators and case
    a = X.make_example("u_m", 0.75)
    b = X.make_example("U-M", 0.75)
    assert a.label == b.label == "um:0.75"


def test_sublevel_level_validation(um):
    with pytest.raises(X.InvalidParameter):
        um.sublevel(0.1)
    with pytest.raises(X.InvalidParameter):
        um.sublevel(0.0)
    with pytest.raises(X.InvalidParameter):
        um.sublevel(math.nan)


# ---------------------------------------------------------------------------
# radial exhaustions
# ---------------------------------------------------------------------------


def test_radial_log_values_and_measure():
    rl = X.radial_log()
    zs = np.array([0.5 + 0.0j, 0.3j, -0.8 + 0.1j])
    assert np.allclose(rl(zs), np.log(np.abs(zs)), atol=1e-14)
    assert rl.measure.atoms == ((0.0 + 0.0j, 1.0),)
    assert rl.min_value == -math.inf


def test_radial_log_levels_are_circles():
    rl = X.radial_log()
    for c in (-2.0, -1.0, -0.3):
        lv = rl.sublevel(c)
        r = math.exp(c)
        assert lv.is_circle
        assert abs(lv.radii.min() - r) < 1e-12
        assert abs(lv.radii.max() - r) < 1e-12


def test_radial_log_swept_measure_is_uniform():
    rl = X.radial_log()
    dm = rl.demailly(-0.7)
    vals = dm.u_c_values
    assert abs(dm.total_mass - 1.0) < 1e-9
    assert vals.max() - vals.min() < 1e-12  # constant density
    assert abs(vals[0] - 1.0) < 1e-4
    assert dm.mass_balance_residual() < 1e-4


def test_radial_log_two_sided_identity():
    # int_{S_c} |z|^2 dmu_c = e^{2c}, and the area bookkeeping agrees
    rl = X.radial_log()

    def v(w):
        return np.abs(np.asarray(w, dtype=complex)) ** 2

    def lap_v(w):
        return np.full(np.shape(w), 2.0 / math.pi)

    for c in (-1.5, -1.0, -0.5, -0.1):
        out = X.djl_both_sides(rl, v, lap_v, c, samples=2048)
        assert abs(out["lhs"] - math.exp(2.0 * c)) < 1e-12
        assert abs(out["residual"]) < 1e-9


def test_radial_smooth_cubic_density():
    # radial density 2r: u(r) = (2/9)(r^3 - 1), total mass 2/3
    rs = X.radial_smooth(lambda r: 2.0 * r, "2r")
    zs = np.array([0.25 + 0.0j, 0.5j, -0.75 + 0.0j, 0.9 + 0.1j])
    exact = (2.0 / 9.0) * (np.abs(zs) ** 3 - 1.0)
    assert np.abs(rs(zs) - exact).max() < 1e-9
    assert abs(rs.min_value + 2.0 / 9.0) < 1e-9

    mass = rs.measure.total_mass()
    assert mass.status == "CONVERGED"
    assert abs(mass.value - 2.0 / 3.0) < 1e-9
    # second moment of the density
    moment = rs.measure.pair(lambda w: np.abs(w) ** 2)
    assert abs(moment.value - 2.0 / 5.0) < 1e-8

    lv = rs.sublevel(-0.1)
    r_exact = (1.0 + 4.5 * (-0.1)) ** (1.0 / 3.0)
    assert abs(lv.radii.max() - r_exact) < 1e-9
    assert abs(lv.radii.min() - r_exact) < 1e-9


def test_radial_smooth_empty_below_minimum():
    rs = X.radial_smooth(lambda r: 2.0 * r, "2r")
    with pytest.raises(X.EmptyLevel):
        rs.sublevel(-0.3)


# ---------------------------------------------------------------------------
# green potentials of atomic measures
# ---------------------------------------------------------------------------


def test_green_atom_levels_are_disk_automorph_circles():
    # level sets of g(., a) are circles; frozen center/radius for a=0.3, c=-0.5
    ga = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),), label="atom:0.3"))
    lv = ga.sublevel(-0.5)
    zc, rc = 0.1961298605636751, 0.5708430275975237
    assert np.abs(np.abs(lv.vertices - zc) - rc).max() < 1e-8
    assert lv.contains(np.array([0.3 + 0.0j]))[0]
    assert not lv.contains(np.array([0.9 + 0.0j]))[0]


def test_green_atom_swept_density_oracle():
    # mu_c of g(., a) is harmonic measure of the level disk seen from a
    ga = X.green_exhaustion(RieszMeasure(atoms=((0.3 + 0.0j, 1.0),), label="atom:0.3"))
    dm = ga.demailly(-0.5)
    zc, rc = 0.1961298605636751, 0.5708430275975237
    oracle = (rc * rc - abs(0.3 - zc) ** 2) / np.abs(dm.boundary_points - 0.3) ** 2
    assert np.abs(dm.u_c_values / oracle - 1.0).max() < 1e-8
    assert abs(dm.total_mass - 1.0) < 1e-6
    assert dm.mass_balance_residual() < 1e-4


def test_green_two_atoms_disconnect_at_deep_levels():
    two = X.green_exhaustion(
        RieszMeasure(atoms=((0.4 + 0.0j, 1.0), (-0.4 + 0.0j, 1.0)), label="pair")
    )
    lv = two.sublevel(-0.2)  # shallow: one connected region
    assert lv.radii.min() > 0.0
    with pytest.raises(X.UnsupportedRegion):
        two.sublevel(-2.5)  # two islands around the atoms


def test_green_half_atoms_refused_at_deep_levels():
    # u(0) = -0.916, so {u < -2.5} is two islands around the atoms; every
    # ray from the first atom finds its own island's edge, and only the
    # second atom, outside the traced level, shows the other one
    def two():
        return X.green_exhaustion(RieszMeasure(
            atoms=((0.4 + 0.0j, 0.5), (-0.4 + 0.0j, 0.5)), label="half-pair"))

    with pytest.raises(X.UnsupportedRegion, match="component"):
        two().demailly(-2.5)
    warm = two()
    assert warm.sublevel(-0.2).contains(np.array([0.4, -0.4])).all()
    with pytest.raises(X.UnsupportedRegion, match="component"):
        warm.demailly(-2.5)


def test_support_probes_are_evaluated_once_per_spec(monkeypatch):
    # u is evaluated once per spec on the grid points of the support of
    # its Riesz measure: the 1,774 on the lens disk for u_{3/4}, none for
    # atoms alone; every later level reuses them
    calls = []
    original = X.ExhaustionSpec.__call__

    def counted(self, z):
        calls.append(np.size(z))
        return original(self, z)

    monkeypatch.setattr(X.ExhaustionSpec, "__call__", counted)
    spec = X.make_example("um", 0.75)
    spec.sublevel(-(2.0 ** -4), samples=256)
    assert calls == [256, 1, 1774]  # the ray ends, the minimum, the probes
    spec.sublevel(-(2.0 ** -5), samples=256)
    assert calls == [256, 1, 1774]
    calls.clear()
    atom = RieszMeasure(atoms=((0.3 + 0.0j, 1.0),), label="atom:0.3")
    ga = X.green_exhaustion(atom)
    ga.sublevel(-1.0, samples=256)
    ga.sublevel(-0.5, samples=256)
    assert calls == [256, 256]  # the ray ends and the inner bracket ends
    assert ga._probes[0].size == 0


def test_probes_by_the_curve_do_not_refuse_a_connected_level():
    # at 200 rays, the fewest any test traces, r(phi) strays from the
    # curve of u_{3/4} between the rays by more than the gap between
    # {u = c} and {u = c - tol_u}; probes on the inner edge of that gap,
    # at the mid-angles, still pass the check
    spec = X.make_example("um", 0.75)
    c = -(2.0 ** -8)
    lv = spec.sublevel(c, samples=200)
    mid = lv.angles + math.pi / 200
    ray = np.exp(1j * mid)
    r = lv.radius_at(mid)
    for _ in range(6):  # Newton's steps onto u = c - 1.01 tol_u
        u, G = spec.gradient(lv.center + r * ray)
        r = r - (u - c + 1.01e-4 * abs(c)) / np.real(G * ray)
    near = lv.center + r * ray
    u_near = spec(near)
    assert np.all(u_near < c - 1e-4 * abs(c))
    assert not lv.contains(near).all()
    pz, pu = spec._probes
    spec._probes = (np.concatenate([pz, near]), np.concatenate([pu, u_near]))
    again = X.sublevel_set(spec, c, samples=200)
    assert np.array_equal(again.radii, lv.radii)


def test_green_requires_complete_measure():
    vm = X.make_example("vm", 0.75)
    assert not vm.measure.complete
    with pytest.raises(X.InvalidParameter):
        X.green_exhaustion(vm.measure)


# ---------------------------------------------------------------------------
# the power-profile family
# ---------------------------------------------------------------------------


def test_um_frozen_point_values(um, um_half):
    frozen = {
        0.75: {
            0.0 + 0.0j: -0.03514579740442226,
            0.5 + 0.0j: -0.06464126806092778,
            -0.3 + 0.4j: -0.014001184264726317,
        },
        0.5: {
            0.0 + 0.0j: -0.05972976848157944,
            0.5 + 0.0j: -0.11904726264149745,
            -0.3 + 0.4j: -0.023955920996092554,
        },
    }
    for spec, m in ((um, 0.75), (um_half, 0.5)):
        for z, val in frozen[m].items():
            assert abs(float(spec([z])[0]) - val) < 1e-9


def test_um_minimum_location(um, um_half):
    assert abs(um.min_value + 0.06835845097593192) < 1e-9
    assert abs(um.min_point - 0.6754355455729693) < 1e-5
    assert abs(um_half.min_value + 0.14166616075110203) < 1e-9
    assert abs(um_half.min_point - 0.8049728459290004) < 1e-5


def test_um_empty_levels(um):
    with pytest.raises(X.EmptyLevel):
        um.sublevel(-0.2)
    with pytest.raises(X.EmptyLevel):
        um.sublevel(um.min_value)


def test_um_level_trace(um):
    lv = um.sublevel(-0.02)
    assert lv.achieved_tolerance <= lv.level_tolerance
    # real-axis crossings of {u < -0.02}
    right = lv.center.real + float(lv.radius_at(np.array([0.0]))[0])
    left = lv.center.real - float(lv.radius_at(np.array([math.pi]))[0])
    assert abs(left - (-0.2706988121751168)) < 1e-6
    assert abs(right - 0.9877794517122959) < 5e-6
    assert lv.contains(np.array([um.min_point]))[0]
    assert not lv.contains(np.array([0.995 + 0.0j]))[0]
    # vertices really sit on the level curve
    assert np.abs(um(lv.vertices) - lv.c).max() <= lv.level_tolerance


# u_m to 20 digits.  The leading points of each m (29 for m = 3/4, then
# 30 for m = 1/2, from one np.random.default_rng(2024) stream) are six
# draws inside the lens, twelve 1e-6..1e-1 outside it, six by the tip
# z = 1 and six by the circle, less those outside the disk; the last seven,
# the same for both m, lie by the left tip z = 0, the tip and the rim.
_UM_REFERENCE = {
    0.75: (
        ((0.13822454912933202-0.1951316418283958j), -0.041360097172056492752),
        ((0.40252806351155634-0.2099524277229421j), -0.054820227654746508655),
        ((0.6768185055788818-0.21470496921420767j), -0.058504431653775590008),
        ((0.28368849862294726-0.3912491004024336j), -0.038053151445098403935),
        ((0.9233482255351781+0.26405833569986503j), -0.016994800083415848976),
        ((0.6400217406485897+0.1263006966162579j), -0.064959236942662854186),
        ((0.3852855893166286-0.4866661777377042j), -0.032094459006868950685),
        ((0.5759759506551121-0.49487584502093634j), -0.02939765089009875596),
        ((0.32419713256137106+0.4680752146271674j), -0.032723908478314451956),
        ((0.5575927833041218-0.4968850523478956j), -0.029769197051956843152),
        ((0.5651779568421498-0.5718259472703797j), -0.020474187179765358398),
        ((0.039807555921351434-0.21967252796309983j), -0.034116327194782998582),
        ((0.9903687656744027-0.10248648858962282j), -0.0050774313577336179422),
        ((0.5445722487440462-0.49805186093738735j), -0.030000775453745558706),
        ((0.1168622284650811+0.32127279038560785j), -0.034409869612607747738),
        ((0.6131466868010651-0.48719749122766715j), -0.028793463206230874382),
        ((0.42560752832848014+0.49445962378501007j), -0.031631983161335071879),
        ((0.9999240677834077-0.00020522744380133408j), -0.00070183004911637649625),
        ((0.9340882513147388-0.010738007487604657j), -0.046101692418017204057),
        ((0.9712843993918457+0.01163696463895932j), -0.031407784268878514932),
        ((0.9999986613641089-2.092576906018756e-06j), -0.000037399752376547549632),
        ((0.9999848747198645+7.375157247021757e-06j), -0.00022049211628465341687),
        ((0.9999928224516987-4.3509934562446234e-06j), -0.00012820103907721781353),
        ((0.008442773558061344-0.9999561666275147j), -2.7668839216713396969e-7),
        ((0.9045434105895421+0.4263786187490335j), -2.9331016948161770004e-7),
        ((0.5025364051244479-0.8638517977911984j), -0.000038526712067202198234),
        ((0.8926855743748568-0.4506306220098042j), -4.8232984484003621476e-6),
        ((-0.2974557476110456-0.954711167200853j), -6.1216811779860378719e-7),
        ((0.9994618643076965+0.03241307900756588j), -0.000036435235653673605349),
        ((1e-07+1e-07j), -0.035145804640272197344),
        (1e-06j, -0.035145797428042994767),
        ((-1e-05+1e-05j), -0.035145076212897825553),
        ((-0.0004161468365471424+0.0009092974268256818j), -0.03511573344605624239),
        ((0.001+0j), -0.035217903095020135303),
        ((0.99999909+2e-06j), -0.000028133720084553913369),
        ((0.9988-0.03655j), -0.0014023631159564617346),
    ),
    0.5: (
        ((0.8798498531410608+0.04539709044284395j), -0.13442073891697269413),
        ((0.7640833317861904+0.18797615300131762j), -0.11715212838385949342),
        ((0.1935611456826688-0.08340830347426442j), -0.082073179577958381887),
        ((0.47332680958214435-0.4850507654734405j), -0.058314645882109248042),
        ((0.3965312737254708-0.03670582167188862j), -0.10708226057433761614),
        ((0.21482240072556458-0.013863062457735014j), -0.085776047649269390527),
        ((0.5336427848141608-0.4989077556122968j), -0.054351956763409850708),
        ((0.9606553254324206-0.19469225454962885j), -0.030075509834197379584),
        ((0.15583047480913143-0.3894891627178251j), -0.055816031033583285888),
        ((0.6458455245024224+0.4782575151747023j), -0.052041840915518287454),
        ((0.0934537702376631-0.29756833955494566j), -0.058606198371472785037),
        ((0.5922375531793574-0.49161460538519575j), -0.053203540404837431617),
        ((0.4015748629946967-0.49111615742543097j), -0.056125302396078667402),
        ((0.16146581251394743-0.3679673880819518j), -0.058634982398289661435),
        ((0.9861482173270242+0.15489553240152973j), -0.0037188832572061978992),
        ((0.33640301024199476-0.47256198433055935j), -0.05703193504842774575),
        ((0.4963249374421813+0.5000984607534659j), -0.054951363610975369374),
        ((0.593423712867499-0.4918812428545317j), -0.053054446448049181445),
        ((0.9557761940767644+0.05321135554521621j), -0.10267974981236614469),
        ((0.9994662905516606+0.00040373093887579675j), -0.020767865572127348077),
        ((0.9999974039228094-9.175946986710641e-07j), -0.0015935309337470987818),
        ((0.9987378830052533-2.0693639970858567e-05j), -0.030681637746648530219),
        ((0.999998565625165+1.100109181844471e-05j), -0.0011813394592212116729),
        ((0.9999756090017587-7.345580828636406e-05j), -0.0047688048642578367302),
        ((-0.559739012820501+0.8286572355179513j), -3.6672933550148069928e-7),
        ((0.7538579925653781+0.6569038574689461j), -0.000018591435396885685175),
        ((0.6671659788857606+0.7449047182795565j), -5.2750844815734231677e-7),
        ((-0.8273155683242962+0.5616765432553995j), -1.1071347412393044964e-6),
        ((0.9968065574673066+0.060702890758050236j), -0.0090219866415441744942),
        ((-0.6434205847537607-0.765501047401442j), -3.2476316711565952917e-7),
        ((1e-07+1e-07j), -0.059729780617932872437),
        (1e-06j, -0.059729768481653410374),
        ((-1e-05+1e-05j), -0.059728554866442199771),
        ((-0.0004161468365471424+0.0009092974268256818j), -0.059679181171531075705),
        ((0.001+0j), -0.059851132331944499943),
        ((0.99999909+2e-06j), -0.00094659544174751485752),
        ((0.9988-0.03655j), -0.0063299069697797268492),
    ),
}


def test_um_matches_frozen_mpmath_reference(um, um_half):
    """u_m is within its declared value_error of a 40-digit reference.

    Recipe (mpmath 1.3, mp.dps = 40): u_m(z) = m(1-m)/(2 pi) times the
    integral over 0 < x < 1 of (1 - x)^(m-2) C(x), where C(x) is the
    integral of g(z, x + iy) over |y| < Y = sqrt(x(1 - x)).  C is closed
    form: with F(s, A) = s log(A^2 + s^2) - 2s + 2A atan(s/A), the direct
    term is (F(Y - eta, xi - x) - F(-Y - eta, xi - x))/2 for z = xi + i eta,
    and log|1 - conj(z) w| = log|z| + log|z* - w| with z* = z/|z|^2 gives
    the reflected one the same way.  mp.quad integrates x over [0, 1/2]
    and lambda = -log(1 - x) over [log 2, 50], both split at x = Re z and
    where Y(x) = |eta|.  At dps 50 and lambda up to 70 the values moved by
    less than 1e-17.
    """
    for spec, m in ((um, 0.75), (um_half, 0.5)):
        z = np.array([p for p, _ in _UM_REFERENCE[m]])
        ref = np.array([v for _, v in _UM_REFERENCE[m]])
        gap = np.abs(spec(z) - ref)
        assert spec.value_error <= 1e-9
        assert np.all(gap <= spec.value_error), (spec.label, z[np.argmax(gap)])


def test_green_area_exhaustion_within_value_error():
    # the Gaussian bump of test_weight_from_moments_matches_poisson_balayage
    def bump(w):
        return np.exp(-np.abs(np.asarray(w) - 0.4) ** 2 / 0.02) / (2.0 * math.pi)

    measure = RieszMeasure(density=bump, label="bump")
    spec = X.green_exhaustion(measure)
    rng = np.random.default_rng(12)
    z = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 12)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 12))
    tight = np.array([green_potential(measure, zz, tol_abs=1e-14, tol_rel=1e-14)
                      for zz in z])
    assert spec.value_error <= 1e-9
    assert np.all(np.abs(spec(z) - tight) <= spec.value_error)


def test_um_ladder_trace_contract(u075):
    # the rungs of the level ladder at the default 512 rays, cached on the
    # session exhaustion: each meets its tolerance by its own account, and
    # the evaluator at every vertex agrees within the bound it declares
    rungs = 0
    for k in range(13):
        c = -(2.0 ** -k)
        if c <= u075.min_value:
            continue
        lv = u075.sublevel(c)
        assert lv.achieved_tolerance <= lv.level_tolerance, c
        gap = np.abs(u075(lv.vertices) - c).max() + u075.value_error
        assert gap <= lv.level_tolerance, c
        rungs += 1
    assert rungs == 9


@pytest.fixture(scope="module")
def ladder256():
    """A fresh u_{3/4} traced at 256 rays on k = 4..12, with its evaluator
    points counted: the value batches it was asked for and the gradient
    points of each rung."""
    spec = X.make_example("um", 0.75)
    value, gradient = spec._evaluate, spec.gradient
    calls = {"value": [], "gradient": 0}

    def counted_value(z):
        calls["value"].append(np.size(z))
        return value(z)

    def counted_gradient(z):
        calls["gradient"] += np.size(z)
        return gradient(z)

    spec._evaluate, spec.gradient = counted_value, counted_gradient
    rungs = {}
    for k in range(4, 13):
        before = calls["gradient"]
        rungs[k] = (spec.sublevel(-(2.0 ** -k), samples=256),
                    calls["gradient"] - before)
    return spec, rungs, calls


def _directional(u, z, e, h, one_sided):
    """Richardson-extrapolated derivative of u along e at z with step h."""
    def D(s):
        if one_sided:
            f = [u(z + j * s * e) for j in range(5)]
            return (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3]
                    - 3 * f[4]) / (12 * s)
        return (u(z + s * e) - u(z - s * e)) / (2 * s)

    order = 4 if one_sided else 2
    return (2 ** order * D(h / 2) - D(h)) / (2 ** order - 1)


def test_um_gradient_matches_richardson_differences(ladder256):
    # G = u_x - i u_y against differences of u along two directions e:
    # d_e u = Re(G e).  u bends on the scale of the distance d to the lens
    # circle and to the unit circle (the crescent between them is thin by
    # the tip z = 1), so central stencils step d/50 at most; by z = 0,
    # where the lens circle passes and the reflected term cancels,
    # one-sided stencils stay on the point's side of it
    u, rungs, _ = ladder256

    def gaps(z, dirs, h, one_sided):
        _, G = u.gradient(z)
        err = [np.abs(np.real(G * e) - _directional(u, z, e, h, one_sided))
               for e in dirs]
        return np.max(err, axis=0) / np.abs(G)

    def central(z):
        d = np.minimum(np.abs(np.abs(z - 0.5) - 0.5), 1.0 - np.abs(z))
        return gaps(z, (1.0, 1j), np.minimum(1e-3, d / 50.0), False)

    vertices = np.concatenate([lv.vertices[::8] for lv, _ in rungs.values()])
    ang = np.linspace(0.2, 2.0 * math.pi - 0.2, 12)
    lens = np.concatenate([0.5 + (0.5 + s) * np.exp(1j * ang)
                           for s in (1e-3, -1e-3, 1e-5, -1e-5)])
    t = np.linspace(-2.8, 2.8, 8)
    near0 = np.concatenate([1e-6 * np.exp(1j * t), 1e-8 * np.exp(1j * t), [0.0]])
    side = np.where(np.abs(near0 - 0.5) < 0.5, 1.0, -1.0)
    by0 = gaps(near0, (side * np.exp(0.25j * math.pi),
                       side * np.exp(-0.25j * math.pi)), 1e-3, True)
    rel = np.concatenate([central(vertices), central(lens), by0])
    assert np.median(rel) <= 1e-10
    assert rel.max() <= 1e-8
    assert np.median(by0) <= 1e-10


def test_closed_form_gradients(um):
    rng = np.random.default_rng(5)
    z = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 40))
    # an atom: g(., a) = log|phi_a|, phi_a = (z - a)/(1 - conj(a) z), so
    # G = phi_a'/phi_a = (1 - |a|^2)/((z - a)(1 - conj(a) z))
    a = 0.3 - 0.2j
    ga = X.green_exhaustion(RieszMeasure(atoms=((a, 0.7),), label="atom"))
    val, G = ga.gradient(z)
    want = 0.7 * (1 - abs(a) ** 2) / ((z - a) * (1 - np.conj(a) * z))
    assert np.array_equal(val, ga(z))
    assert np.max(np.abs(G - want) / np.abs(want)) <= 1e-12
    val, G = X.radial_log().gradient(z)
    assert np.max(np.abs(G - 1.0 / z) * np.abs(z)) <= 1e-15
    # a * u scales both
    val, G = X.scaled_exhaustion(2.5, um).gradient(z)
    u_in, G_in = um.gradient(z)
    assert np.array_equal(val, 2.5 * u_in) and np.array_equal(G, 2.5 * G_in)
    # u o phi by the chain rule: the pullback of log|z| is the atom at
    # phi^-1(0), and that of u_m reads G at phi(z) times phi'(z)
    mob = MoebiusAutomorphism(a=0.3 + 0.1j)
    val, G = X.pullback_exhaustion(mob, X.radial_log()).gradient(z)
    b = complex(mob.inverse(0.0))
    want = (1 - abs(b) ** 2) / ((z - b) * (1 - np.conj(b) * z))
    assert np.max(np.abs(G - want) / np.abs(want)) <= 1e-12
    val, G = X.pullback_exhaustion(mob, um).gradient(z)
    u_in, G_in = um.gradient(mob.forward(z))
    want = G_in * mob.derivative(z)
    assert np.array_equal(val, um(mob.forward(z)))
    assert np.max(np.abs(G - want) / np.abs(want)) <= 1e-12
    # no gradient where nothing gives one in closed form
    assert X.make_example("vm", 0.75).gradient is None
    bump = RieszMeasure(density=lambda w: np.ones(np.shape(w)), label="flat")
    assert X.green_exhaustion(bump).gradient is None


def test_warm_ladder_counts(ladder256):
    # rungs k >= 5 start from the rung below them and take Newton steps;
    # u at the ray ends is evaluated once for the whole ladder, and the
    # swept measure reads the recorded d_r u with no evaluation of its own
    u, rungs, calls = ladder256
    warm = [n for k, (_, n) in rungs.items() if k >= 5]
    assert sum(warm) / (256.0 * len(warm)) <= 4.0
    assert calls["value"].count(256) == 1
    before = (list(calls["value"]), calls["gradient"])
    for k in (5, 12):
        lv = rungs[k][0]
        assert lv.achieved_tolerance <= lv.level_tolerance
        dm = u.demailly(lv.c, samples=256)
        assert np.all(dm.w_values > 0.0)
    assert (calls["value"], calls["gradient"]) == before


def test_warm_rungs_match_cold_traces(ladder256):
    # u_m's evaluator without its gradient traces every level cold by
    # regula falsi, to the radii frozen below (on ray 128 within 1.7e-14
    # of 34-digit roots); the warm Newton rungs land within 1e-9 of them,
    # and the central-difference flux of the plain evaluator agrees with
    # the exact one where its stencil resolves u (1.7e-7 at k = 6; 1.5e-4
    # at k = 12)
    u, rungs, _ = ladder256
    plain = X.ExhaustionSpec("um-plain", u._evaluate, u.measure,
                             min_value=u.min_value, min_point=u.min_point,
                             value_error=u.value_error)
    frozen = {
        6: (0.31658936502598656, 0.559181253167471, 1.055603433054811,
            0.5591812531674714),
        9: (0.3242387103934039, 0.7095298373125597, 1.5688831125124885,
            0.7095298373125596),
        12: (0.32454682665251117, 0.7338145934237286, 1.661464903920527,
             0.7338145934237283),
    }
    for k, radii in frozen.items():
        cold = plain.sublevel(-(2.0 ** -k), samples=256)
        assert cold.du_dr is None
        assert np.abs(cold.radii[::64] - radii).max() <= 1e-15
        assert np.abs(rungs[k][0].radii - cold.radii).max() <= 1e-9
    exact = u.demailly(-(2.0 ** -6), samples=256).w_values
    differenced = plain.demailly(-(2.0 ** -6), samples=256).w_values
    assert np.max(np.abs(differenced / exact - 1.0)) <= 1e-6


def test_um_swept_measure_balance(um):
    # the flux mass against the direct area quadrature, on a level inside
    # the lens, one across its circle and the one the identity test uses
    for c in (-0.04, -(2.0 ** -5), -0.02):
        dm = um.demailly(c)
        assert abs(dm.mass_from_curve() - dm.total_mass) <= 1e-7, c
        assert np.all(dm.u_c_values > 0.0), c
        # mass at a shallow level stays below the full Riesz mass
        assert dm.total_mass < 0.20865671041851824, c


def test_um_two_sided_identity(um):
    def v(w):
        return np.abs(1.0 - np.asarray(w, dtype=complex))

    def lap_v(w):
        return 1.0 / (2.0 * math.pi * np.abs(1.0 - np.asarray(w, dtype=complex)))

    out = X.djl_both_sides(um, v, lap_v, -0.02, v_singularities=(1.0 + 0.0j,),
                           tol_abs=1e-6, tol_rel=1e-5)
    assert abs(out["residual"]) < 1e-5
    assert out["statuses"] == ("CONVERGED", "CONVERGED", "CONVERGED")


def test_vm_glued_continuity():
    vm = X.make_example("vm", 0.75)
    # on the closed lens the glued function is the power profile itself
    for z in (0.5 + 0.0j, 0.7 + 0.2j, 0.9 + 0.0j):
        assert abs(float(vm([z])[0]) + (1.0 - z.real) ** 0.75) < 1e-12
    # continuous across the lens boundary and vanishing at the unit circle
    for ang in (0.5, 1.2, 2.0, 2.8):
        z_in = 0.5 + 0.4999999 * np.exp(1j * ang)
        z_out = 0.5 + 0.5000001 * np.exp(1j * ang)
        assert abs(float(vm([z_in])[0]) - float(vm([z_out])[0])) < 5e-6
    assert abs(float(vm([0.999999 * np.exp(1.0j)])[0])) < 1e-5


def test_vm_rejected_by_swept_measure(um):
    vm = X.make_example("vm", 0.75)
    lv = vm.sublevel(-0.5)  # level sets themselves are fine
    assert lv.radii.max() < 1.0
    with pytest.raises(X.InvalidParameter, match="incomplete"):
        X.demailly_measure(vm, -0.5)


def test_demailly_measure_rejects_incomplete_measure_before_tracing(monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("the level was traced before the measure check")

    monkeypatch.setattr(X, "sublevel_set", no_trace)
    vm = X.make_example("vm", 0.75)
    with pytest.raises(X.InvalidParameter, match="incomplete"):
        X.demailly_measure(vm, -0.3)


def test_power_family_sandwich(um, um_half):
    # pointwise: profile <= glued <= green potential of the lens part < 0
    rng = np.random.default_rng(7)
    for spec, m in ((um, 0.75), (um_half, 0.5)):
        vm = X.make_example("vm", m)
        for _ in range(12):
            z = complex(*rng.uniform(-0.65, 0.65, 2))
            phi = -((1.0 - z.real) ** m)
            v_val = float(vm([z])[0])
            u_val = float(spec([z])[0])
            assert phi <= v_val + 1e-9
            assert v_val <= u_val + 1e-9
            assert u_val < 0.0


def test_sigma_mass_dichotomy():
    frozen = {0.9: 0.058554599308, 0.75: 0.20865671041851824, 0.6: 0.720850105266}
    for m, val in frozen.items():
        res = X.make_example("sigmam", m).total_mass()
        assert res.status == "CONVERGED"
        assert abs(res.value - val) < 1e-8
    for m in (0.5, 0.35):
        res = X.make_example("sigmam", m).total_mass()
        assert res.status == DIVERGENT


# ---------------------------------------------------------------------------
# composed exhaustions
# ---------------------------------------------------------------------------


def test_scaled_exhaustion_log():
    sc = X.scaled_exhaustion(2.0, X.radial_log())
    assert sc.label == "scaled:2:log"
    lv = sc.sublevel(-1.0)
    assert abs(lv.radii.max() - math.exp(-0.5)) < 1e-12
    assert abs(sc.measure.total_mass().value - 2.0) < 1e-12
    with pytest.raises(X.InvalidParameter):
        X.scaled_exhaustion(-1.0, X.radial_log())


def test_scaled_exhaustion_levels_match_rescaled_levels(um):
    # {2u < c} = {u < c/2}
    sc = X.scaled_exhaustion(2.0, um)
    lv_scaled = sc.sublevel(-0.04)
    lv_plain = um.sublevel(-0.02)
    ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    assert np.abs(lv_scaled.radius_at(ang) - lv_plain.radius_at(ang)).max() < 1e-9


def test_pullback_of_log_is_green_atom():
    phi = MoebiusAutomorphism(a=0.3)
    pb = X.pullback_exhaustion(phi, X.radial_log())
    assert pb.measure.atoms == ((0.3 + 0.0j, 1.0),)
    rng = np.random.default_rng(11)
    for _ in range(15):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(z - 0.3) < 1e-2:
            continue
        assert abs(float(pb([z])[0]) - green_function(z, 0.3)) < 1e-12
    # its levels are the same frozen circles as the green atom's
    lv = pb.sublevel(-0.5)
    zc, rc = 0.1961298605636751, 0.5708430275975237
    assert np.abs(np.abs(lv.vertices - zc) - rc).max() < 1e-8


def test_pullback_carries_the_support_disk(um):
    # the image of the lens disk under the inverse map is again a disk,
    # and the pulled u_m probes the grid on it alone, where its density
    # lives
    rim = 0.5 + 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 512,
                                              endpoint=False))
    for mob in (MoebiusAutomorphism(rot=1.1), MoebiusAutomorphism(a=-0.6j),
                MoebiusAutomorphism(a=0.3 + 0.1j, rot=0.7)):
        pb = X.pullback_exhaustion(mob, um)
        c1, r1 = pb.measure.support_disk
        assert np.max(np.abs(np.abs(mob.inverse(rim) - c1) - r1)) <= 1e-14
        assert abs(mob.inverse(0.5) - c1) < r1
    pz, _ = X._support_probes(pb)
    assert 0 < pz.size < 7080
    assert np.all(pb.measure.density(pz) > 0.0)


# ---------------------------------------------------------------------------
# level-set container
# ---------------------------------------------------------------------------


def test_levelset_interpolant_matches_samples(um):
    lv = um.sublevel(-0.02)
    assert np.abs(lv.radius_at(lv.angles) - lv.radii).max() < 1e-9


@pytest.mark.parametrize("n", [256, 384, 200, 201])
def test_levelset_dense_radii_are_the_interpolant(n):
    # r(phi) is the trigonometric interpolant of the radii at any angle,
    # off the sample grid too; a Nyquist term (even n) counts once
    rng = np.random.default_rng(n)
    phi = 2.0 * math.pi * np.arange(n) / n
    radii = (0.5 + 0.1 * np.cos(phi) + 0.02 * np.sin(3.0 * phi)
             + 1e-3 * rng.standard_normal(n))
    lv = X.LevelSet(c=-0.1, center=0.1, angles=phi, radii=radii,
                    u_values=np.full(n, -0.1), spec_label="test")
    knots = np.linspace(0.0, 2.0 * math.pi, max(8192, 8 * n) + 1)[:-1]
    want = poisson_extension(radii)(np.exp(1j * knots))
    assert np.max(np.abs(lv.radius_at(knots) - want)) <= 1e-14
    off = rng.uniform(-math.pi, 3.0 * math.pi, 2000)
    want = poisson_extension(radii)(np.exp(1j * off))
    assert np.max(np.abs(lv.radius_at(off) - want)) <= 1e-15


def test_swept_measure_report(um):
    dm = um.demailly(-0.02)
    doc = dm.to_json_dict()
    assert doc["paper_refs"] == [
        "demailly-monge-ampere-boundary-measure",
        "jensen-lelong-two-sided-identity",
    ]
    assert doc["c"] == -0.02
    assert doc["samples"] == dm.boundary_points.size
    assert abs(doc["total_mass"] - dm.total_mass) < 1e-15
    assert doc["mass_balance_residual"] < 1e-3
