"""Exact arithmetic layer: polynomials, bivariate polynomials, matrices."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.diffop import CoeffRing
from cmforge.exact import (BiPoly, Mat, PolyRing, QQ, UniPoly, char_poly, rat,
                           rational_rank, resultant)

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def upoly(var="x", maxdeg=5):
    return st.lists(fracs, min_size=0, max_size=maxdeg + 1).map(
        lambda cs: UniPoly(var, cs))


def test_rat_accepts_ints_and_strings():
    assert rat(3) == Fraction(3)
    assert rat("2/5") == Fraction(2, 5)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_unipoly_basic_arithmetic():
    x = UniPoly.x("x")
    p = x * x - 1
    assert p.coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert p.degree() == 2
    assert p.evaluate(Fraction(3)) == 8
    assert (p - p).is_zero
    assert p.derivative() == UniPoly("x", [0, 2])


def test_unipoly_divmod_and_gcd():
    x = UniPoly.x("x")
    num = x ** 3 - x
    q, r = num.divmod_(x - 1)
    assert q * (x - 1) + r == num
    assert r.is_zero
    g = (x * x - 1).gcd(x * x - x)
    assert g == x - 1


def test_unipoly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        UniPoly.x("x").divmod_(UniPoly("x", []))


def test_unipoly_x_valuation_and_mul_xk():
    p = UniPoly("x", [0, 0, 3, 1])
    assert p.x_valuation() == 2
    assert p.mul_xk(2) == UniPoly("x", [0, 0, 0, 0, 3, 1])
    assert p.div_xk(2) == UniPoly("x", [3, 1])
    assert p.mul_xk(3).div_xk(3) == p
    with pytest.raises(ValueError):
        p.div_xk(3)


def test_unipoly_constant_hash_agrees_with_eq():
    c = UniPoly.const("x", 3)
    assert c == 3 and 3 in {c} and c in {3}
    assert Fraction(1, 2) in {UniPoly.const("t", Fraction(1, 2))}
    assert 0 in {UniPoly("x", [])}
    assert UniPoly.const("y", 5) in {c + 2}
    assert {UniPoly("x", [1, "1/2"]): 1}[UniPoly("x", [Fraction(3, 3), Fraction(2, 4)])] == 1


@given(upoly(), upoly(), upoly())
def test_unipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(upoly(), upoly())
def test_unipoly_divmod_invariant(a, b):
    if b.is_zero:
        return
    q, r = a.divmod_(b)
    assert q * b + r == a
    assert r.is_zero or r.degree() < b.degree()


@given(upoly())
def test_unipoly_derivative_leibniz(p):
    q = UniPoly("x", [1, 2, 1])
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_bipoly_partials_and_eval():
    f = BiPoly({(2, 0): Fraction(1), (0, 1): Fraction(-3)})  # x^2 - 3y
    assert f.partial_x() == BiPoly({(1, 0): Fraction(2)})
    assert f.partial_y() == BiPoly.const(-3)
    assert f.eval_frac(2, 1) == 1


def test_bipoly_coeff_rows():
    f = BiPoly({(0, 2): Fraction(1), (3, 0): Fraction(-1), (1, 1): Fraction(2)})
    rows = f.coeffs_in_y("x")
    assert rows[0] == UniPoly("x", [0, 0, 0, -1])
    assert rows[1] == UniPoly("x", [0, 2])
    assert rows[2] == UniPoly("x", [1])


def test_bipoly_second_shift():
    # y^2 -> (x + e)^2 = x^2 + 2 x e + e^2
    f = BiPoly({(0, 2): Fraction(1)})
    shifted = f.subs_second_shift()
    assert shifted == BiPoly({(2, 0): Fraction(1), (1, 1): Fraction(2),
                              (0, 2): Fraction(1)})


def test_ratfunc_normalizes_monic():
    # a rational function of one variable is a Coeff of the line's ring
    x = UniPoly.x("x")
    r = CoeffRing().coeff(x * 2, den=x * x * 2 - 2)
    assert r.den.lc() == 1
    assert r.a * (x * x - 1) == r.den * x  # equals x/(x^2-1)


def test_mat_mul_and_det():
    m = Mat(QQ, 2, 2, [Fraction(v) for v in (1, 2, 3, 4)])
    assert m.det() == -2
    assert m.mul(m.inv()) == Mat.identity(QQ, 2)
    assert rational_rank([m.row(i) for i in range(m.rows)]) == 2


def test_mat_det_polynomial_ring():
    pr = PolyRing("x")
    x = pr.gen()
    m = Mat.from_rows(pr, [[x, pr.one()], [pr.one(), x]])
    assert m.det() == x * x - 1


def qmat(n):
    return st.lists(fracs, min_size=n * n, max_size=n * n).map(
        lambda es: Mat(QQ, n, n, es))


@given(qmat(3))
@settings(max_examples=40)
def test_adjugate_identity(m):
    d = m.det()
    prod = m.mul(m.adjugate())
    assert prod == Mat.identity(QQ, 3).scalar_mul(d)


@given(st.integers(2, 4).flatmap(qmat))
@settings(max_examples=30)
def test_cayley_hamilton(m):
    p = char_poly(m, "t")
    acc = Mat.zeros(QQ, m.rows, m.rows)
    power = Mat.identity(QQ, m.rows)
    for c in p.coeffs:
        acc = acc.add(power.scalar_mul(c))
        power = power.mul(m)
    assert acc.is_zero()


def test_char_poly_convention():
    # det(m - t Id), not det(t Id - m)
    m = Mat(QQ, 2, 2, [Fraction(v) for v in (1, 0, 0, 2)])
    assert char_poly(m, "t") == UniPoly("t", [2, -3, 1])


def test_resultant_common_root():
    x = UniPoly.x("x")
    assert resultant(x * x - 1, x - 1) == 0
    assert resultant(x * x - 1, x - 2) != 0


def _ring_and_elements(name, rng):
    """A Mat coefficient ring and a maker of small random elements of it."""
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def poly():
        return UniPoly("x", [frac() for _ in range(rng.randint(0, 2))])

    if name == "rationals":
        return QQ, frac
    if name == "polynomials":
        return PolyRing("x"), poly
    ring = CoeffRing() if name == "line" else CoeffRing(UniPoly("x", [1, 0, 0, 1]))

    def coeff():
        den = UniPoly("x", [rng.randint(1, 3), rng.randint(0, 1)])
        return ring.coeff(poly(), poly() if ring.P is not None else None, den)

    return ring, coeff


@pytest.mark.parametrize("name", ["rationals", "polynomials", "line", "hyperelliptic"])
def test_mat_over_each_ring(name):
    """Mat arithmetic runs on the entries' operators; the ring object only
    supplies constants and division.  Field rings also invert and row-reduce."""
    rng = random.Random(11)
    ring, elem = _ring_and_elements(name, rng)

    def invertible():
        while True:
            m = Mat(ring, 3, 3, [elem() for _ in range(9)])
            if m.det() != 0:
                return m

    a, b = invertible(), invertible()
    ident, zero = Mat.identity(ring, 3), Mat.zeros(ring, 3, 3)
    assert zero.is_zero() and a.sub(a).is_zero() and a.sub(a) == zero
    assert not a.is_zero() and a != b and a.add(zero) == a == a.neg().neg()
    assert a.mul(b).det() == a.det() * b.det()
    assert a.mul(a.adjugate()) == ident.scalar_mul(a.det())
    assert ring.is_field == (name != "polynomials")
    if ring.is_field:
        assert a.mul(a.inv()) == ident == a.inv().mul(a)
        rows, pivots = a.rref()
        assert pivots == [0, 1, 2] and Mat.from_rows(ring, rows) == ident
    else:
        with pytest.raises(ValueError):
            a.inv()
    if name in ("rationals", "polynomials"):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(e):
            cs = e.coeffs if isinstance(e, UniPoly) else (e,)
            return sum((sympy.Rational(c.numerator, c.denominator) * x ** i
                        for i, c in enumerate(cs)), sympy.Integer(0))

        want = sympy.Matrix(3, 3, [to_sympy(e) for e in a.entries]).det()
        got = a.det()
        assert _same(got if name == "polynomials" else UniPoly("x", [got]),
                     sympy.Poly(want, x, domain=sympy.QQ))


def test_mat_inv_singular_rejected():
    m = Mat(QQ, 2, 2, [Fraction(v) for v in (1, 2, 2, 4)])
    with pytest.raises(ZeroDivisionError):
        m.inv()


# --- sympy oracle (sympy is a test-only dependency) ---------------------------

big_fracs = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))


def big_poly(maxdeg=12):
    return st.lists(big_fracs, max_size=maxdeg + 1).map(lambda cs: UniPoly("x", cs))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _canonical(p):
    """Assert the integer-numerator invariant of p."""
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    if p.num:
        assert p.num[-1] != 0 and gcd(p.den, *p.num) == 1
    else:
        assert p.den == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.num)


def _to_sympy(sympy, p):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(cs or [0], sympy.Symbol("x"), domain=sympy.QQ)


def _same(p, poly):
    """p (a UniPoly) has exactly the coefficients of the sympy Poly poly."""
    _canonical(p)
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while want and want[-1] == 0:
        want.pop()
    return p.coeffs == tuple(want)


@given(big_poly(), big_poly())
@settings(max_examples=60, deadline=None)
def test_divmod_matches_sympy(sympy, a, b):
    for p in (a, b):
        _canonical(p)
    if b.is_zero:
        return
    q, r = a.divmod_(b)
    sq, sr = _to_sympy(sympy, a).div(_to_sympy(sympy, b))
    assert _same(q, sq) and _same(r, sr)


@given(big_poly(4), big_poly(8), big_poly(8))
@settings(max_examples=60, deadline=None)
def test_gcd_lcm_monic_match_sympy(sympy, f, g, h):
    a, b = f * g, f * h
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    assert _same(a.gcd(b), sa.gcd(sb))
    if not a.is_zero:
        assert _same(a.monic(), sa.monic())
    if not a.is_zero and not b.is_zero:
        assert _same(a.lcm(b), sa.lcm(sb))


@given(big_poly(6), big_poly(6))
@settings(max_examples=30, deadline=None)
def test_resultant_matches_sympy(sympy, a, b):
    if a.is_zero or b.is_zero:
        if not (a.is_zero and b.is_zero):
            assert resultant(a, b) == 0
        return
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    # sympy 1.14's resultant drops the sign (-1)^(deg a * deg b) when deg a <
    # deg b (resultant(x + 1, x**3) gives 1, its own Sylvester determinant
    # -1), so ask it with the larger degree first.
    if a.degree() < b.degree():
        want = sb.resultant(sa) * (-1) ** (a.degree() * b.degree())
    else:
        want = sa.resultant(sb)
    assert resultant(a, b) == Fraction(int(want.p), int(want.q))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3)),
    min_size=n * n, max_size=n * n).map(lambda es: Mat(QQ, n, n, es))))
@settings(max_examples=30, deadline=None)
def test_char_poly_matches_sympy(sympy, m):
    rows = [[sympy.Rational(e.numerator, e.denominator) for e in m.row(i)]
            for i in range(m.rows)]
    t = sympy.Symbol("x")
    want = sympy.Matrix(rows).charpoly(t).as_poly(t, domain=sympy.QQ)
    # char_poly is det(m - t Id), sympy's charpoly det(t Id - m)
    assert _same(char_poly(m, "x") * (-1) ** m.rows, want)



@st.composite
def deficient_vectors(draw):
    """Rows of A * B, of rank at most the inner size r, with zero rows mixed in."""
    m, r, c = draw(st.integers(0, 6)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    entries = st.one_of(st.integers(-5, 5), big_fracs)
    a = Mat(QQ, m, r, draw(st.lists(entries, min_size=m * r, max_size=m * r)))
    b = Mat(QQ, r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))
    ab = a.mul(b)
    rows = [ab.row(i) for i in range(ab.rows)]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * c)
    return rows, c


@given(deficient_vectors())
@settings(max_examples=80, deadline=None)
def test_rational_rank_matches_sympy(sympy, drawn):
    rows, c = drawn
    want = sympy.Matrix(len(rows), c, [sympy.Rational(e.numerator, e.denominator)
                                       for row in rows for e in row]).rank()
    assert rational_rank(rows) == want
    assert rational_rank([list(col) for col in zip(*rows)]) == want


def test_rational_rank_empty_and_zero():
    assert rational_rank([]) == 0
    assert rational_rank([[], []]) == 0
    assert rational_rank([[0, Fraction(0)], [0, 0]]) == 0
    assert rational_rank([[Fraction(1, 3), 2], [1, 6], [0, 0]]) == 1
