"""Operator coefficient rings and normal-form differential operators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.curve import affine_line, hyperelliptic, torus
from cmforge.diffop import Coeff, CoeffRing, DiffOp, FractionalIdeal, coeff_ring_for
from cmforge.exact import UniPoly

PR = CoeffRing()
LR = coeff_ring_for(torus())  # the same field Q(x): the torus is the line with x inverted
HR = CoeffRing(UniPoly("x", [1, 0, 0, 1]))  # y^2 = x^3 + 1

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def poly_coeffs(ring):
    return st.lists(fracs, min_size=0, max_size=4).map(
        lambda cs: ring.from_poly(UniPoly("x", cs)))


def test_ring_for_curve():
    assert coeff_ring_for(affine_line()) == coeff_ring_for(torus()) == CoeffRing()
    assert CoeffRing().P is None
    r = coeff_ring_for(hyperelliptic(UniPoly("x", [1, 0, 0, 1])))
    assert r == HR and r.P == UniPoly("x", [1, 0, 0, 1]) and r != PR


def test_coeff_normalization_cancels_content():
    x = UniPoly.x("x")
    c = PR.coeff(x * x - x, den=x)  # (x^2 - x)/x = x - 1
    assert c.a == x - 1 and c.den.degree() == 0


def test_laurent_shift_normalization():
    x = UniPoly.x("x")
    c = LR.coeff(x * x * 3, den=x ** 4)
    assert c.a == UniPoly.const("x", 3)
    assert c.den == x * x


def test_y_outside_hyper_rejected():
    with pytest.raises(ValueError):
        PR.coeff(UniPoly("x", []), UniPoly.const("x", 1))
    with pytest.raises(ValueError):
        PR.y()


def test_hyper_mult_uses_curve_relation():
    y = HR.y()
    prod = y * y  # y^2 = x^3 + 1
    assert prod.a == UniPoly("x", [1, 0, 0, 1])
    assert prod.b.is_zero


def test_coeff_inverse():
    x = PR.x()
    assert x * x.inv() == PR.one()
    u = LR.x()
    assert u * u.inv() == LR.one()  # x is a unit on the torus
    x3 = UniPoly("x", [0, 0, 0, 2])
    assert LR.coeff(x3).inv() == LR.coeff(UniPoly.const("x", 1), den=x3)


def test_hyper_inverse_via_norm():
    c = HR.y() + HR.one()  # 1 + y, norm 1 - (x^3 + 1) = -x^3
    assert c * c.inv() == HR.one()


def test_derive_poly_and_laurent():
    assert PR.x().derive() == PR.one()
    # d/dx x^(-1) = -x^(-2)
    x = UniPoly.x("x")
    c = LR.coeff(UniPoly.const("x", 1), den=x)
    d = c.derive()
    assert d.den == x * x and d.a == UniPoly.const("x", -1)


def test_derive_hyper_generators():
    # z(x) = 2y, z(y) = P'(x) = 3x^2 on y^2 = x^3 + 1
    zx = HR.x().derive()
    assert zx.a.is_zero and zx.b == UniPoly.const("x", 2)
    zy = HR.y().derive()
    assert zy.a == UniPoly("x", [0, 0, 3]) and zy.b.is_zero


@given(poly_coeffs(HR), poly_coeffs(HR))
@settings(max_examples=40)
def test_hyper_derive_is_a_derivation(f, g):
    fy = f + HR.y() * g
    gy = HR.y() + f
    assert (fy * gy).derive() == fy.derive() * gy + fy * gy.derive()


def test_diffop_normal_order_dx():
    # d * x = x d + 1
    d = DiffOp.partial(PR)
    x = DiffOp.from_coeff(PR.x())
    prod = d.mul(x)
    assert prod.coeff(0) == PR.one()
    assert prod.coeff(1) == PR.x()
    assert prod.order() == 1


def test_diffop_hyper_leibniz_frozen():
    # with z the curve derivation: z * x = x z + 2y and z * y = y z + 3x^2
    d = DiffOp.partial(HR)
    x = DiffOp.from_coeff(HR.x())
    y = DiffOp.from_coeff(HR.y())
    px = d.mul(x)
    assert px.coeff(1) == HR.x() and px.coeff(0) == HR.y() * 2
    py = d.mul(y)
    assert py.coeff(1) == HR.y() and py.coeff(0) == HR.coeff(UniPoly("x", [0, 0, 3]))


def test_diffop_mul_matches_apply():
    d = DiffOp.partial(PR)
    x = UniPoly.x("x")
    op = d.mul(d).add(DiffOp.from_coeff(PR.x()).mul(d))  # d^2 + x d
    f = PR.from_poly(x ** 3)
    assert op.apply(f) == PR.from_poly(x * 6 + x ** 3 * 3)


@given(st.integers(0, 3), st.integers(0, 3))
def test_order_additivity(i, j):
    d = DiffOp.partial(PR)
    a = DiffOp.from_coeff(PR.x())
    for _ in range(i):
        a = a.mul(d)
    b = DiffOp.from_coeff(PR.from_frac(2))
    for _ in range(j):
        b = b.mul(d)
    assert a.mul(b).order() == i + j


@given(poly_coeffs(PR), poly_coeffs(PR), poly_coeffs(PR))
@settings(max_examples=30)
def test_diffop_mul_associative(f, g, h):
    d = DiffOp.partial(PR)
    a = DiffOp(PR, [f, g])
    b = DiffOp(PR, [g, h]).mul(d)
    c = DiffOp(PR, [h]).add(d)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_zero_operator_contract():
    z = DiffOp.zero(PR)
    assert z.is_zero
    with pytest.raises(ValueError):
        z.order()
    with pytest.raises(ValueError):
        z.principal_symbol()


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        DiffOp.partial(PR).mul(DiffOp.partial(HR))


def test_fractional_ideal_needs_nonzero_generator():
    with pytest.raises(ValueError):
        FractionalIdeal(affine_line(), [DiffOp.zero(PR)])
    ideal = FractionalIdeal(affine_line(), [DiffOp.partial(PR)])
    assert len(ideal.generators) == 1


# --- sympy oracle for coefficient arithmetic (sympy is test-only) -----------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _expr(sympy, p):
    x = sympy.Symbol("x")
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _check(sympy, c, want):
    """c equals the rational function want and is in canonical form: den monic
    and coprime to the numerator."""
    x = sympy.Symbol("x")
    a, den = _expr(sympy, c.a), _expr(sympy, c.den)
    assert c.den.lc() == 1
    assert sympy.Poly(a, x, domain=sympy.QQ).gcd(sympy.Poly(den, x, domain=sympy.QQ)).degree() == 0
    assert sympy.cancel(a / den - want) == 0


def localized_elements(ring):
    """Elements p(x) / (x^k q(x)) of ring as (Coeff, (p, k, q)); p often
    carries an x-power of its own."""
    return st.tuples(
        st.builds(UniPoly.mul_xk, st.lists(fracs, max_size=4).map(lambda cs: UniPoly("x", cs)),
                  st.integers(0, 3)),
        st.integers(0, 3),
        st.lists(fracs, min_size=1, max_size=3).filter(any).map(lambda cs: UniPoly("x", cs)),
    ).map(lambda t: (ring.coeff(t[0], den=t[2].mul_xk(t[1])), t))


@pytest.mark.parametrize("ring", [PR, LR], ids=["line-localized", "torus-localized"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_coeff_arithmetic_matches_sympy(sympy, ring, data):
    (f, fraw), (g, graw) = data.draw(localized_elements(ring)), data.draw(localized_elements(ring))
    x = sympy.Symbol("x")
    sf, sg = [_expr(sympy, p) / (x ** k * _expr(sympy, q)) for p, k, q in (fraw, graw)]
    _check(sympy, f, sympy.cancel(sf))
    _check(sympy, g, sympy.cancel(sg))
    _check(sympy, f + g, sympy.cancel(sf + sg))
    _check(sympy, f - g, sympy.cancel(sf - sg))
    _check(sympy, f * g, sympy.cancel(sf * sg))
    _check(sympy, f.derive(), sympy.cancel(sympy.diff(sf, x)))
    if f.is_zero:
        with pytest.raises(ZeroDivisionError):
            f.inv()
        return
    _check(sympy, f.inv(), sympy.cancel(1 / sf))
