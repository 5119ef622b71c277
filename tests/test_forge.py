"""Generator emission: delta_V, kappa, normal ordering, ideal_generators."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from battery import (cubic_minus_x, cubic_plus_one, fourier_points, full_battery,
                     hyper_points, line_points, torus_points)
from cmforge.cli import _ideal_json
from cmforge.cmspace import (CMPoint, commutant_dim, generic_point, lambda_act,
                             tangent_dim, verify_relations)
from cmforge.curve import affine_line, hyperelliptic, plane_curve, torus
from cmforge.diffop import CoeffRing, DiffOp, FractionalIdeal, coeff_ring_for
from cmforge.errors import PreconditionError
from cmforge.exact import BiPoly, Mat, QQ, UniPoly, char_poly
from cmforge.forge import (OrderedProduct, _coeff_in, _lift, _resolvent, delta_V,
                           ideal_generators, kappa, normal_order)
from cmforge.lattice import clearing_for, codim, module_equal, span_filtration
from generalroute import RF, general_correction, oracle_ideal, oracle_zrow


def _parabola_point():
    f = BiPoly({(0, 1): Fraction(1), (2, 0): Fraction(-1)})  # y = x^2
    return generic_point(plane_curve(f), [(1, 1), (2, 4)])


def test_ordered_product_rejects_adjacent_same_symbol():
    m = Mat.identity(RF, 1)
    with pytest.raises(ValueError):
        OrderedProduct([("x", m), ("x", m)])
    OrderedProduct([("x", m), (None, Mat.identity(QQ, 1)), ("x", m)])


def test_ordered_product_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        OrderedProduct([(None, Mat.zeros(QQ, 1, 2)), (None, Mat.zeros(QQ, 1, 1))])


def test_delta_v_line_n1():
    # nu = 1/(inner x - outer x) closed with v w: a single simple pole at 0
    p = line_points()[0]
    dv = delta_V(p)
    assert dv.symbols() == ("x", None)
    res = dv.factors[0][1].entry(0, 0)
    assert res.a == UniPoly.const("x", -1)
    assert res.den == UniPoly.x("x")  # (X^t - x)^{-1} at X = 0 is -1/x
    assert dv.factors[1][1].entry(0, 0) == Fraction(-1)


def test_kappa_line_n1():
    # kappa(v) = 1 + (1/z) (-1/x) (-1) at the origin point
    prod = kappa(line_points()[0])
    assert prod.symbols() == ("z", "x", None)
    zf = prod.factors[0][1].entry(0, 0)
    assert zf.a == UniPoly.const("z", 1) and zf.den == UniPoly.x("z")
    xf = prod.factors[1][1].entry(0, 0)
    assert xf.a == UniPoly.const("x", -1) and xf.den == UniPoly.x("x")
    assert prod.factors[2][1].entry(0, 0) == Fraction(-1)


def test_resolvent_matches_gauss_jordan_inverse():
    # adj(A - t Id) / det(A - t Id) against the generic Gauss-Jordan inverse
    # over Q(t), for the transposed X, Y, Z of the battery and random matrices
    rng = random.Random(4)
    mats = [m.transpose() for p in full_battery()
            for m in (p.Xmat, p.Ymat, p.Zmat) if m is not None]
    mats += [Mat(QQ, n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n * n)])
             for n in range(1, 6) for _ in range(2)]
    for A in mats:
        for t in "xyz":
            shifted = _lift(A, RF).sub(
                Mat.identity(RF, A.rows).scalar_mul(RF.from_poly(UniPoly.x(t))))
            assert _resolvent(A, t) == shifted.inv(), (A, t)


def _factor_fields(op):
    """An ordered product as [symbol, rows, cols, entries] per factor; a
    rational function entry as its numerator and denominator coefficient
    strings, in the factor's own variable."""
    out = []
    for sym, m in op.factors:
        entries = []
        for e in m.entries:
            if isinstance(e, Fraction):
                entries.append(str(e))
                continue
            assert all(q.degree() < 1 or q.var == sym for q in (e.a, e.den))
            entries.append([[str(c) for c in e.a.coeffs], [str(c) for c in e.den.coeffs]])
        out.append([sym, m.rows, m.cols, entries])
    return out


def test_general_route_pinned_values():
    # delta_V, kappa and the general-plane correction, pinned entry by entry
    pins = json.loads((Path(__file__).parent / "general_route_pins.json").read_text())
    pts = [("battery[%d]" % i, p) for i, p in enumerate(full_battery())]
    pts.append(("parabola", _parabola_point()))
    assert sorted(pins) == sorted(name for name, _ in pts)
    for name, p in pts:
        assert _factor_fields(delta_V(p)) == pins[name]["delta_V"], name
        assert _factor_fields(kappa(p)) == pins[name]["kappa"], name
    correction = general_correction(_parabola_point())
    assert _factor_fields(correction) == pins["parabola"]["correction"]


def test_kappa_index_bounds():
    with pytest.raises(ValueError):
        kappa(line_points()[0], 1)


def test_kappa_rank_zero_has_no_correction():
    empty = Mat(QQ, 0, 0, [])
    p = CMPoint(affine_line(), empty, None, empty, Mat(QQ, 0, 1, []), Mat(QQ, 1, 0, []))
    assert kappa(p) is None


def test_normal_order_plain_z_polynomial():
    # a bare 1x1 factor z^2 + 3 collapses to d^2 + 3
    m = Mat(RF, 1, 1, [RF.from_poly(UniPoly("z", [3, 0, 1]))])
    op = normal_order(OrderedProduct([("z", m)]), RF)
    d = DiffOp.partial(RF)
    assert op == d.mul(d).add(DiffOp(RF, [3]))


def test_normal_order_rejects_residual_pole():
    m = Mat(RF, 1, 1, [RF.from_poly(UniPoly.x("z")).inv()])  # 1/z
    with pytest.raises(ValueError, match="residual z-denominator"):
        normal_order(OrderedProduct([("z", m)]), RF)


def test_ideal_generators_line_n1():
    ideal = ideal_generators(line_points()[0])
    assert isinstance(ideal, FractionalIdeal)
    gx, gz = ideal.generators
    ring = gx.ring
    x = UniPoly.x("x")
    assert gx == DiffOp(ring, [ring.from_poly(-x)])  # char poly of X = [[0]]
    # det(Z - z) kappa normal-orders to -d - 1/x
    assert gz.order() == 1
    assert gz.coeff(1) == ring.from_frac(-1)
    assert gz.coeff(0) == ring.coeff(UniPoly.const("x", -1), den=x)


def test_ideal_generators_hyper_n1():
    # y^2 = x^3 - x at (0, 0): generators (-x, -y, -d - (y+1)/x) up to the
    # recorded orientation
    p = generic_point(cubic_minus_x(), [(0, 0)])
    ideal = ideal_generators(p)
    gx, gy, gz = ideal.generators
    ring = gx.ring
    x = UniPoly.x("x")
    assert gx == DiffOp(ring, [ring.from_poly(-x)])
    assert gy == DiffOp(ring, [ring.coeff(UniPoly("x", []), UniPoly.const("x", -1))])
    assert gz.order() == 1
    assert gz.coeff(1) == ring.from_frac(-1)


def test_ideal_generators_hyper_frozen_cubic_plus_one():
    # y^2 = x^3 + 1 at (0, 1): gz = -d - (1 + y)/x, gy = 1 - y
    p = generic_point(cubic_plus_one(), [(0, 1)])
    gx, gy, gz = ideal_generators(p).generators
    ring = gx.ring
    x = UniPoly.x("x")
    one = UniPoly.const("x", 1)
    assert gy == DiffOp(ring, [ring.coeff(one, -one)])
    assert gz.coeff(1) == ring.from_frac(-1)
    assert gz.coeff(0) == ring.coeff(-one, -one, den=x)


def test_ideal_generators_cover_battery():
    # every battery point emits without residual z-denominators
    for p in full_battery():
        ideal = ideal_generators(p)
        orders = sorted(g.order() for g in ideal.generators)
        assert orders[-1] == p.n  # the z-generator has order n
        assert all(o == 0 for o in orders[:-1])


def test_ideal_generators_requires_verified_point():
    # doubling the framing column breaks zx-commutator and framing-trace
    good = generic_point(affine_line(), [0])
    broken = CMPoint(good.curve, good.Xmat, None, good.Zmat,
                     Mat(QQ, 1, 1, [Fraction(2)]), good.W)
    with pytest.raises(PreconditionError) as exc:
        ideal_generators(broken)
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_ideal_generators_rank_zero_unit():
    p0 = CMPoint(affine_line(), Mat(QQ, 0, 0, []), None, Mat(QQ, 0, 0, []),
                 Mat(QQ, 0, 1, []), Mat(QQ, 1, 0, []))
    assert verify_relations(p0).ok
    ideal = ideal_generators(p0)
    assert len(ideal.generators) == 1
    assert ideal.generators[0].order() == 0


def test_ideal_generators_needs_single_framing_pair():
    # a zero second framing pair keeps every relation intact
    p = line_points()[0]
    doubled = CMPoint(p.curve, p.Xmat, None, p.Zmat,
                      Mat(QQ, 1, 2, p.V.entries + (Fraction(0),)),
                      Mat(QQ, 2, 1, p.W.entries + (Fraction(0),)))
    assert verify_relations(doubled).ok
    with pytest.raises(ValueError, match="trivial-ideal tier"):
        ideal_generators(doubled)


def test_general_plane_has_no_generators():
    # no coefficient ring on a general plane model: forge stops there, while
    # kappa still builds its ordered product
    p = _parabola_point()
    with pytest.raises(PreconditionError, match="general plane models have no operator coefficient ring"):
        ideal_generators(p)
    assert kappa(p).symbols() == ("z", "x", "y", None)


def test_torus_generators_live_in_laurent_ring():
    p = torus_points()[0]
    ideal = ideal_generators(p)
    ring = ideal.generators[0].ring
    assert ring == coeff_ring_for(torus())
    for g in ideal.generators:
        for c in g.coeffs:
            assert c.ring == ring


# ---------------------------------------------------------------------------
# the closed-form z-generator against the general construction
# ---------------------------------------------------------------------------


def _conjugate(p, g):
    """g.p.g^-1: X, Y, Z conjugated, v -> g v, w -> w g^-1."""
    gi = g.inv()

    def conj(m):
        return None if m is None else g.mul(m).mul(gi)

    return CMPoint(p.curve, conj(p.Xmat), conj(p.Ymat), conj(p.Zmat),
                   g.mul(p.V), p.W.mul(gi))


def _random_gl(rng, n):
    while True:
        g = Mat(QQ, n, n, [Fraction(rng.randint(-3, 3)) for _ in range(n * n)])
        if g.det() != 0:
            return g


def _forge_bytes(p):
    return json.dumps(_ideal_json(ideal_generators(p)), sort_keys=True, indent=2)


def test_fourier_points_are_collisions():
    # non-semisimple or irrational spectra of X, unlike any generic_point
    x = UniPoly.x("x")
    want = [x * x, (x - 2) * (x - 2), -(x * x * x) - x * Fraction(9, 4)]
    for p, gx in zip(fourier_points(), want):
        assert char_poly(p.Xmat, "x") == gx


def test_z_generator_matches_general_construction():
    rng = random.Random(8)
    pts = list(full_battery())
    for c in (affine_line(), torus()):
        for n in range(1, 6):
            alphas = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
            p = generic_point(c, rng.sample(range(1, 10), n), alphas)
            pts += [p, _conjugate(p, _random_gl(rng, n))]
    pts += fourier_points()
    pts += [lambda_act(p, r) for p in torus_points() for r in (1, -1)]
    pts += [_conjugate(p, _random_gl(rng, p.n)) for p in hyper_points()]
    for p in pts:
        assert ideal_generators(p) == oracle_ideal(p), (p, p.Xmat, p.Zmat)
    # on a general plane model the z-row of the correction has the sign +
    for p in (_parabola_point(), _conjugate(_parabola_point(), _random_gl(rng, 2))):
        zrow = general_correction(p).factors[0][1]
        assert zrow == oracle_zrow(p, 1)


def test_forge_is_gauge_invariant():
    # forge is a function on the Calogero-Moser space: the JSON is the same
    # for every point of a GL_n orbit and under (v, w) -> (c v, w / c)
    rng = random.Random(11)
    for p in full_battery():
        want = _forge_bytes(p)
        assert _forge_bytes(_conjugate(p, _random_gl(rng, p.n))) == want
        scaled = CMPoint(p.curve, p.Xmat, p.Ymat, p.Zmat,
                         p.V.scalar_mul(Fraction(3, 7)), p.W.scalar_mul(Fraction(7, 3)))
        assert _forge_bytes(scaled) == want


def test_fourier_collision_points():
    for p in fourier_points():
        n = p.n
        assert verify_relations(p).ok
        ideal = ideal_generators(p)
        assert codim(ideal, 3 * n + 2).stabilized == n
        assert tangent_dim(p) == n * n + 2 * n
        assert commutant_dim(p) == 1


def test_y_factor_entries_reduce_by_the_curve_equation():
    ring = coeff_ring_for(cubic_plus_one())  # y^2 = x^3 + 1
    y = ring.y()
    rf = RF.from_poly(UniPoly("y", [2, 3, 5, 7]))  # 2 + 3y + 5y^2 + 7y^3
    assert _coeff_in(rf, ring, "y") == y * y * y * 7 + y * y * 5 + y * 3 + 2
    with pytest.raises(ValueError):
        _coeff_in(rf, RF, "y")


# ---------------------------------------------------------------------------
# cross-model oracle: on y^2 = x the derivation z = 2y d/dx + d/dy is d/dt at
# (x, y) = (t^2, t), so a hyperelliptic ideal maps to a line ideal in t
# ---------------------------------------------------------------------------


def _in_t_squared(q, shift=0):
    """q(t^2) * t^shift, as a polynomial in the line's variable."""
    cs = [0] * shift
    for c in q.coeffs:
        cs += [c, 0]
    return UniPoly("x", cs)


def _to_line(ideal, sign=1):
    """Each coefficient (a(x) + b(x) y) / den(x) as (a(t^2) + sign b(t^2) t) / den(t^2)."""
    ring = CoeffRing()
    return FractionalIdeal(affine_line(), [
        DiffOp(ring, [ring.coeff(_in_t_squared(c.a) + _in_t_squared(c.b, 1) * sign,
                                 None, _in_t_squared(c.den)) for c in g.coeffs])
        for g in ideal.generators])


@pytest.mark.parametrize("ts, alphas", [((1, 2), (0, 3)), ((1, -2, 3), (1, 0, -1))],
                         ids=["rank2", "rank3"])
def test_hyperelliptic_ideal_on_y2_eq_x_is_the_line_ideal(ts, alphas):
    # the hyperelliptic point at (t_i^2, t_i) has the Z of the line point at
    # t_i, so the two ideals agree under x = t^2, y = t; b -> -b (t -> -t in
    # the y-part only) is the control that must read unequal
    n = len(ts)
    hyper = ideal_generators(generic_point(hyperelliptic(UniPoly("x", [0, 1])),
                                           [(t * t, t) for t in ts], alphas))
    line = ideal_generators(generic_point(affine_line(), ts, alphas))
    k = 2 * n + 4
    mapped, flipped = _to_line(hyper), _to_line(hyper, -1)
    for other, want in ((mapped, True), (flipped, False)):
        cl = clearing_for(other, line)
        assert module_equal(span_filtration(other, k, cl),
                            span_filtration(line, k, cl)) is want
    assert codim(mapped, k).stabilized == n
