import math
import os

import numpy as np
import pytest

from pshardy import exhaustion as X
from pshardy.geometry import MoebiusAutomorphism
from pshardy.potential import DIVERGENT, RieszMeasure, green_function


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


def test_phim_is_not_an_exhaustion():
    phim = X.make_example("phim", 0.75)
    assert not phim.is_exhaustion
    with pytest.raises(X.UnsupportedRegion):
        X.sublevel_set(phim, -0.5)


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
        # shoelace area of the traced polygon approaches the disk area
        assert abs(lv.area() - math.pi * r * r) < 1e-3 * r * r


def test_radial_log_swept_measure_is_uniform():
    rl = X.radial_log()
    pts, vals, dm = X.density_uc(rl, -0.7)
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
        assert abs(out["lhs"] - math.exp(2.0 * c)) < 1e-6
        assert abs(out["residual"]) < 1e-6


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
    pts, vals, dm = X.density_uc(ga, -0.5)
    zc, rc = 0.1961298605636751, 0.5708430275975237
    oracle = (rc * rc - abs(0.3 - zc) ** 2) / np.abs(pts - 0.3) ** 2
    assert np.abs(vals / oracle - 1.0).max() < 1e-4
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
            assert abs(spec.precise(z) - val) < 1e-9
            assert abs(float(spec([z])[0]) - val) < 1e-5


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
    sampled = np.array([um.precise(v) for v in lv.vertices[::37]])
    assert np.abs(sampled - lv.c).max() <= lv.level_tolerance


def _lens_probe_points(rng):
    """Inside the lens, 1e-6..1e-1 outside it, by z = 1, by the circle."""
    inside = 0.5 + 0.5 * np.sqrt(rng.uniform(0.0, 1.0, 6)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 6))
    outside = 0.5 + (0.5 + 10.0 ** rng.uniform(-6, -1, 12)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 12))
    tip = 1.0 - 10.0 ** rng.uniform(-6, -1, 6) * np.exp(1j * rng.uniform(-1.5, 1.5, 6))
    rim = (1.0 - 10.0 ** rng.uniform(-6, -2, 6)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 6))
    z = np.concatenate([inside, outside, tip, rim])
    return z[np.abs(z) < 1.0]


def test_lens_batch_potential_within_declared_error(um, um_half):
    rng = np.random.default_rng(2024)
    for spec in (um, um_half):
        z = _lens_probe_points(rng)
        if spec is um_half:
            # the batch grid is 1.8e-5 off here, above the old constant 6e-6
            z = np.append(z, 0.99880 - 0.03655j)
        gap = np.abs(spec(z) - np.array([spec.precise(zz) for zz in z]))
        bound = spec.batch_error(z)
        assert np.all(gap <= bound), (spec.label, z[np.argmax(gap / bound)])
        # far from the lens the batch values are exact enough to trace on
        far = np.abs(z - 0.5) - 0.5 > 2e-2
        assert np.all(bound[far] <= 1e-7)


def test_um_ladder_trace_contract(u075):
    # the rungs of the level ladder at the default 512 rays, cached on the
    # session exhaustion: each meets its tolerance by its own account, and
    # the precise values at every 8th vertex agree
    scalar = []
    for k in range(13):
        c = -(2.0 ** -k)
        if c <= u075.min_value:
            continue
        lv = u075.sublevel(c)
        assert lv.achieved_tolerance <= lv.level_tolerance, c
        sampled = np.array([u075.precise(v) for v in lv.vertices[::8]])
        assert np.abs(sampled - c).max() <= lv.level_tolerance, c
        assert u075.demailly(c).to_json_dict()["scalar_rays"] == lv.scalar_rays
        scalar.append(lv.scalar_rays)
    assert len(scalar) == 9
    # the rays near the lens go to the scalar polish, the rest stay batch
    assert sum(scalar) < 0.5 * 9 * 512


def test_um_swept_measure_balance(um):
    dm = um.demailly(-0.02)
    assert dm.mass_balance_residual() < 1e-3
    assert np.all(dm.u_c_values > 0.0)
    # two discretizations of the same pairing agree
    spectral = dm.pair_spectral(lambda w: np.real(w))
    polyline = dm.pair_polyline(np.real(dm.boundary_points))
    assert abs(spectral - polyline) < 1e-4
    # mass at a shallow level stays below the full Riesz mass
    assert dm.total_mass < 0.20865671041851824


def test_um_two_sided_identity(um):
    def v(w):
        return np.abs(1.0 - np.asarray(w, dtype=complex))

    def lap_v(w):
        return 1.0 / (2.0 * math.pi * np.abs(1.0 - np.asarray(w, dtype=complex)))

    out = X.djl_both_sides(um, v, lap_v, -0.02, v_singularities=(1.0 + 0.0j,),
                           tol_abs=1e-6, tol_rel=1e-5)
    assert abs(out["residual"]) < 1e-2
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
    # pointwise: profile <= glued <= green potential of the lens part <= 0
    rng = np.random.default_rng(7)
    for spec, m in ((um, 0.75), (um_half, 0.5)):
        vm = X.make_example("vm", m)
        for _ in range(12):
            z = complex(*rng.uniform(-0.65, 0.65, 2))
            phi = -((1.0 - z.real) ** m)
            v_val = float(vm([z])[0])
            u_val = spec.precise(z)
            g_val = X.phim_green_potential(z, m)
            assert phi <= v_val + 1e-9
            assert v_val <= u_val + 1e-9
            assert phi <= g_val + 1e-9
            assert g_val <= u_val + 1e-9
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


# ---------------------------------------------------------------------------
# level-set container
# ---------------------------------------------------------------------------


def test_levelset_interpolant_matches_samples(um):
    lv = um.sublevel(-0.02)
    assert np.abs(lv.radius_at(lv.angles) - lv.radii).max() < 1e-9
    assert lv.polyline_length() > 0.0
    assert lv.area() > 0.0


def test_levelset_csv_roundtrip(um, tmp_path):
    lv = um.sublevel(-0.02)
    path = os.path.join(tmp_path, "level.csv")
    lv.to_csv(path)
    back = X.LevelSet.from_csv(path)
    assert np.abs(back.vertices - lv.vertices).max() < 1e-12
    assert np.abs(np.asarray(back.u_values) - lv.u_values).max() == 0.0
    assert abs(back.c - lv.c) < 1e-9
    # row j lies on the ray at angle 2 pi j/n from the star center
    assert abs(back.center - lv.center) < 1e-12
    assert np.abs(back.radius_at(lv.angles) - lv.radii).max() < 1e-9
    grid = (np.linspace(-0.3, 1.0, 131)[:, None]
            + 1j * np.linspace(-0.65, 0.65, 131)[None, :]).ravel()
    assert np.array_equal(back.contains(grid), lv.contains(grid))
    with open(path) as fh:
        assert fh.readline().strip() == "x,y,u_value"


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
