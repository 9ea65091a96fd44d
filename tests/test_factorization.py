import math

import numpy as np
import pytest

from pshardy import exhaustion as X
from pshardy import factorization as F
from pshardy import hardy as H
from pshardy.factorization import (
    AffinePower,
    BlaschkeProduct,
    InvalidZero,
    NotLogIntegrable,
    OuterFunction,
    Poly,
    Product,
    Quotient,
    UnsupportedExpression,
)
from pshardy.geometry import MoebiusAutomorphism
from pshardy.hardy import classical_hardy_norm
from pshardy.potential import LensPowerDensity, RieszMeasure

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# expression family
# ---------------------------------------------------------------------------


def test_poly_eval_and_roots():
    f = Poly([1.0, -1.0])  # 1 - z
    zs = np.array([0.0, 0.5j, -0.3 + 0.2j])
    assert np.allclose(f(zs), 1.0 - zs)
    # the root at 1 is a boundary singularity, not an interior zero
    assert f.zeros == ()
    ((t0, k),) = f.boundary_singularities.items()
    assert abs(t0 % TWO_PI) < 1e-12 and k == 1.0

    g = Poly([0.0, 1.0, -1.0])  # z(1 - z)
    assert any(abs(loc) < 1e-12 for loc, _ in g.zeros)
    assert sum(m for _, m in g.zeros) == 1


def test_poly_multiple_roots_on_the_circle():
    # polyroots splits a k-fold root by about eps^(1/k); the cluster is one
    # zero of multiplicity k at its centroid, here the boundary point 1
    double = Poly([1.0, -2.0, 1.0])  # (1 - z)^2
    assert double.zeros == ()
    assert double.boundary_singularities == {0.0: 2.0}
    triple = Poly([1.0, -3.0, 3.0, -1.0])  # (1 - z)^3
    assert triple.zeros == ()
    ((t0, k),) = triple.boundary_singularities.items()
    assert abs(t0) < 1e-12 and k == 3.0
    # (1 - z)^3 / (1 - z)^2 is 1 - z, with the exponents subtracted
    q = Quotient(AffinePower(1.0, 3.0), double)
    assert q.boundary_singularities == {0.0: 1.0}
    zs = np.array([0.0, 0.5j, -0.3 + 0.2j])
    assert np.max(np.abs(q(zs) - (1.0 - zs))) < 1e-14


def test_poly_keeps_close_distinct_roots_apart():
    # roots 5e-4 apart are distinct: the simple zero at 1 stays on the
    # circle whether its neighbour is inside, outside or on the circle too
    inside = Poly(np.poly([1.0, 0.9995])[::-1])  # (1 - z)(0.9995 - z)
    ((a, k),) = inside.zeros
    assert abs(a - 0.9995) < 1e-9 and k == 1
    assert inside.boundary_singularities == {0.0: 1.0}
    outside = Poly(np.poly([1.0, 1.0005])[::-1])
    assert outside.zeros == () and outside.boundary_singularities == {0.0: 1.0}
    pair = Poly(np.poly(np.exp([2.5e-4j, -2.5e-4j]))[::-1])
    assert pair.zeros == ()
    assert sorted(pair.boundary_singularities.items()) == [
        (pytest.approx(-2.5e-4, abs=1e-12), 1.0),
        (pytest.approx(2.5e-4, abs=1e-12), 1.0)]
    # a double zero beside a simple one keeps its multiplicity
    mixed = Poly(np.poly([1.0, 1.0, 0.9995])[::-1])
    ((a, k),) = mixed.zeros
    assert abs(a - 0.9995) < 1e-8 and k == 1
    ((t0, k),) = mixed.boundary_singularities.items()
    assert abs(t0) < 1e-12 and k == 2.0


def test_product_adds_exponents_at_one_angle():
    # (1 - z)^-0.6 (1 - z) has |f*| ~ t^0.4 at t = 0
    f = Product(AffinePower(1.0, -0.6), Poly([1.0, -1.0]))
    assert f.boundary_singularities == {0.0: pytest.approx(0.4, abs=1e-15)}


def test_poly_rejects_zero_function():
    with pytest.raises(UnsupportedExpression):
        Poly([0.0])


def test_affine_power_values_and_branch_guard():
    f = AffinePower(1.0, 0.5)
    z = 0.3 + 0.1j
    assert abs(f(z) - np.sqrt(1.0 - z)) < 1e-14
    # |f*| on the circle is (2 sin(t/2))^{1/2}
    t = np.array([0.5, 1.0, 2.5])
    tr = np.abs(f.boundary_trace(t))
    assert np.allclose(tr, (2.0 * np.sin(t / 2.0)) ** 0.5, atol=1e-13)
    assert f.boundary_singularities == {0.0: 0.5}
    with pytest.raises(UnsupportedExpression):
        AffinePower(-1.0, 0.5)
    with pytest.raises(UnsupportedExpression):
        AffinePower(0.0, 0.5)


def test_affine_power_of_exponent_zero_is_one_at_one():
    # f = [a(1 - z)]^0 is 1, also at z = 1, where 0 log 0 is nan
    f = AffinePower(1.0, 0.0)
    assert f(1.0) == 1.0 and f.boundary_trace(0.0) == 1.0
    assert f.modulus(1.0) == 1.0 and f.boundary_modulus(0.0) == 1.0


def _modulus_nodes():
    """{name: (expr, its values in the disk, its boundary trace)}."""
    def log_modulus(t):
        with np.errstate(divide="ignore"):
            return np.cos(t) + 0.5 * np.log(np.abs(2.0 * np.sin(0.5 * t)))

    blaschke = BlaschkeProduct([0.5, -0.2 + 0.3j, 0.0])
    product = Product(blaschke, AffinePower(0.8, -0.3))
    nodes = {
        "poly": Poly([0.3 - 0.2j, 1.0, 0.5j, -0.4]),
        "power+": AffinePower(0.8, 1.25), "power-": AffinePower(1.0 + 0.5j, -0.4),
        "blaschke": blaschke,
        "outer": OuterFunction(log_modulus, boundary_singularities={0.0: 0.5}),
        "product": product,
        "quotient": Quotient(AffinePower(0.5, 0.7), Poly([2.0, -1.0])),
    }
    nodes = {name: (f, f, f.boundary_trace) for name, f in nodes.items()}
    mob = MoebiusAutomorphism(0.3)
    nodes["composed"] = (
        H._ComposedExpr(product, mob), lambda z: product(mob.forward(z)),
        lambda t: product.boundary_trace(np.angle(mob.forward(np.exp(1j * t)))))
    return nodes


def test_modulus_matches_the_modulus_of_the_value():
    # |f| in real arithmetic is within 4e-15 relative of np.abs of the
    # complex value, inside the disk and on the circle, at every node
    # (measured 6.3e-16); Poly and BlaschkeProduct take np.abs of their value
    rng = np.random.default_rng(37)
    z = np.sqrt(rng.uniform(0.0, 0.998, 500)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 500))
    t = rng.uniform(-math.pi, math.pi, 500)
    for name, (f, value, trace) in _modulus_nodes().items():
        for got, want in ((f.modulus(z), np.abs(value(z))),
                          (f.boundary_modulus(t), np.abs(trace(t)))):
            assert got.dtype == float, name
            assert np.max(np.abs(got - want) / want) <= 4e-15, name
            if name in ("poly", "blaschke"):
                assert np.array_equal(got, want), name
    assert AffinePower(0.8, 1.25).modulus(1.0) == 0.0
    assert AffinePower(0.8, -0.3).modulus(1.0) == math.inf
    assert AffinePower(0.8, -0.3).boundary_modulus(0.0) == math.inf


def test_blaschke_modulus_and_zeros():
    B = BlaschkeProduct([0.5, 0.5, -0.2 + 0.3j])
    t = np.arange(64) * (TWO_PI / 64)
    on_circle = np.abs(B.boundary_trace(t))
    assert np.max(np.abs(on_circle - 1.0)) < 1e-12
    inside = B(np.array([0.0, 0.3j, -0.4 + 0.2j]))
    assert np.all(np.abs(inside) < 1.0)
    # zeros are grouped with multiplicity
    zd = dict(B.zeros)
    assert zd[0.5 + 0.0j] == 2
    # and the product vanishes there
    assert abs(B(np.array([0.5]))[0]) < 1e-14


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(InvalidZero):
        BlaschkeProduct([1.0])
    with pytest.raises(InvalidZero):
        BlaschkeProduct([0.3, 0.9999999999999])


def test_quotient_needs_zero_free_denominator():
    with pytest.raises(UnsupportedExpression):
        Quotient(Poly([1.0]), Poly([0.0, 1.0]))


def test_quotient_and_product_operators():
    # 1/(2 - z) = sum z^k / 2^(k+1): classical H^2 norm^2 sum 4^(-k-1) = 1/3
    f, g = Poly([1.0]), Poly([2.0, -1.0])
    q = f / g
    assert isinstance(q, Quotient)
    assert q.zeros == () and q.boundary_singularities == {}
    rng = np.random.default_rng(20)
    zs = np.sqrt(rng.uniform(0.0, 1.0, 64)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 64))
    assert np.array_equal(q(zs), f(zs) / g(zs))
    ts = rng.uniform(0.0, TWO_PI, 64)
    assert np.array_equal(q.boundary_trace(ts),
                          f.boundary_trace(ts) / g.boundary_trace(ts))
    assert abs(classical_hardy_norm(q, 2.0) - 1.0 / math.sqrt(3.0)) <= 1e-12
    prod = f * g
    assert isinstance(prod, Product)
    assert np.array_equal(prod(zs), f(zs) * g(zs))


# ---------------------------------------------------------------------------
# outer functions
# ---------------------------------------------------------------------------


def test_outer_reconstructs_one_minus_z():
    def log_mod(theta):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(1.0 - np.exp(1j * theta)))

    h = OuterFunction(log_mod, boundary_singularities={0.0: 1.0})
    zs = np.array([0.0, 0.5, 0.3 - 0.4j, -0.8j])
    assert np.max(np.abs(h(zs) - (1.0 - zs))) < 1e-10


@pytest.mark.parametrize("declared", [(0.0,), [0.0], {0.0: math.inf},
                                      {0.0: math.nan}])
def test_outer_refuses_a_declaration_that_is_not_an_exponent_mapping(declared):
    with pytest.raises(UnsupportedExpression, match="mapping"):
        OuterFunction(lambda t: np.zeros_like(t), boundary_singularities=declared)


def test_outer_probes_a_callable_log_modulus_at_its_declared_angles():
    # the samples hide a singularity that is not log-integrable: only the
    # function, integrated toward the declared angle, shows it
    def spike(theta):
        with np.errstate(divide="ignore"):
            return -np.abs(2.0 * np.sin(0.5 * theta)) ** -1.5

    with pytest.raises(NotLogIntegrable, match="theta=0"):
        OuterFunction(spike, boundary_singularities={0.0: 1.0})

    # half the log of |1 - e^{it}| is integrable: the outer function of
    # (1 - z)^{1/2}
    def root(theta):
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(np.abs(2.0 * np.sin(0.5 * theta)))

    h = OuterFunction(root, boundary_singularities={0.0: 0.5})
    zs = np.array([0.0, 0.5, 0.3 - 0.4j, -0.8j])
    assert np.max(np.abs(h(zs) - np.sqrt(1.0 - zs))) < 1e-10


def test_outer_of_constant():
    h = OuterFunction(lambda t: np.full_like(t, math.log(3.0)))
    assert abs(h(np.array([0.2 + 0.1j]))[0] - 3.0) < 1e-12


def test_outer_rejects_non_integrable_data():
    # an arc of -inf log-modulus (trace vanishing on a set of positive
    # measure) admits no outer function
    def log_mod(theta):
        out = np.zeros_like(theta)
        out[np.abs(theta - math.pi) < 0.5] = -np.inf
        return out

    with pytest.raises(NotLogIntegrable):
        OuterFunction(log_mod)


# ---------------------------------------------------------------------------
# Blaschke division
# ---------------------------------------------------------------------------


def test_divide_by_blaschke_preserves_norm(ulog):
    h, rep = F.divide_by_blaschke(Poly([0.0, 1.0]), 2.0, ulog)
    assert rep["n_zeros"] == 1
    assert rep["preserved"]
    assert rep["relative_gap"] < 1e-6
    assert h.zeros == ()
    # the quotient of z by its Blaschke factor is unimodular times 1
    assert abs(rep["norm_h"] - 1.0) < 1e-9


def test_divide_by_blaschke_mixed_zero(ulog):
    h, rep = F.divide_by_blaschke(Poly([0.0, 1.0, -1.0]), 2.0, ulog)
    assert rep["n_zeros"] == 1
    assert rep["preserved"]
    # under the log exhaustion the weighted norm is the classical one
    assert abs(rep["norm_f"] - math.sqrt(2.0)) < 1e-6


def test_divide_by_blaschke_no_zeros(ulog):
    h, rep = F.divide_by_blaschke(Poly([1.0, 0.5]), 2.0, ulog)
    assert rep["n_zeros"] == 0
    assert rep["preserved"]


def test_divide_by_blaschke_at_the_singular_angle_of_v(u075):
    # z (1 - z)^{1/2}: h^{2/p} carries the declared t^{1/2} at the lens tip
    # exactly, where a fitted coefficient left a gap of 7e-6
    f = Product(Poly([0.0, 1.0]), AffinePower(1.0, 0.5))
    h, rep = F.divide_by_blaschke(f, 2.0, u075)
    assert rep["n_zeros"] == 1
    assert h.boundary_singularities == {0.0: 0.5}
    assert rep["relative_gap"] <= 1e-7


# ---------------------------------------------------------------------------
# the unit-norm outer multiplier
# ---------------------------------------------------------------------------


def test_u_inner_log_is_constant_one(ulog):
    cand = F.u_inner(ulog)
    # V = 1, so the multiplier is the constant 1, between the nodes too
    assert abs(cand.norm_value - 1.0) < 1e-9
    t = np.linspace(0.001, TWO_PI - 0.001, 3001)
    assert float(np.max(np.abs(np.abs(cand.outer_part.boundary_trace(t)) - 1.0))) < 1e-12


def test_u_inner_um_takes_the_declared_exponent(u075):
    # V ~ 0.75 t^{-1/2} at the tip, so phi carries exactly t^{1/4} there;
    # the least-squares fit it replaces read 0.3458 and a norm of 0.9999086
    cand = F.u_inner(u075)
    assert cand.outer_part.boundary_singularities == {0.0: 0.25}
    assert abs(cand.norm_value - 1.0) <= 1e-6
    assert cand.norm_report.verdict == "MEMBER"


def _levinson_limit(m):
    """Szego's limit of V's prediction errors, from the lens moments alone.

    E_n = min int |q|^2 V dnu over deg q <= n, q(0) = 1, by the
    Levinson-Durbin recursion on the Toeplitz moments r_k; E_n - E_inf
    falls like 1/n, so one Richardson step 2 E_4096 - E_2048.  Reads
    neither phi nor V.
    """
    r = np.asarray(LensPowerDensity(m).moments(4097), dtype=float)
    a, err = np.zeros(4097), r[0]
    a[0] = 1.0
    for k in range(1, 4097):
        refl = -(r[k] + a[1:k] @ r[k - 1:0:-1]) / err
        a[1:k + 1] += refl * a[k - 1::-1]
        err *= 1.0 - refl * refl
        if k == 2048:
            half = err
    return 2.0 * err - half


@pytest.mark.parametrize("m, norm_bound", [(0.6, 1e-7), (0.75, 1e-6), (0.9, 1e-5)])
def test_u_inner_um_meets_szego(m, norm_bound):
    # 1/phi(0)^2 = exp int log V dnu, the limit of V's prediction errors
    # (Grenander-Szego); a trapezoid mean of log V on the nodes missed it
    # by 1.2e-5 to 8.4e-5
    limit = _levinson_limit(m)
    cand = F.u_inner(X.make_example("um", m))
    phi0 = abs(complex(cand.outer_part(0.0)))
    assert abs(1.0 / phi0 ** 2 / limit - 1.0) <= 1e-6
    assert abs(math.exp(cand.weight.log_mean.value) / limit - 1.0) <= 1e-6
    assert abs(cand.norm_value - 1.0) <= norm_bound


def test_beurling_isometry_log(ulog):
    cand = F.u_inner(ulog)
    chk = F.beurling_isometry_check(cand, ulog)
    assert chk["ok"]
    assert chk["flatness"]["ok"]
    assert chk["flatness"]["max"] == 0.0
    for entry in chk["entries"]:
        assert entry["relative_gap"] < 1e-6, entry["label"]


@pytest.mark.parametrize("atoms", [((0.3 + 0.0j, 1.0),),
                                   ((0.3 + 0.0j, 0.5), (-0.3 + 0.0j, 0.5))])
def test_beurling_isometry_probes_off_the_nodes(atoms):
    # V = sum m P(a, .) has an outer multiplier with a closed form, and
    # |phi*|^2 V is flat between the weight's nodes as well
    u = X.green_exhaustion(RieszMeasure(atoms=atoms))
    chk = F.beurling_isometry_check(F.u_inner(u), u)
    assert chk["ok"]
    assert chk["flatness"]["max"] <= 1e-12
