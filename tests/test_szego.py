"""Diagonal-pole kernels, residue actions, half-form coordinate check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.exact import BiPoly, UniPoly
from cmforge.szego import (HalfFormOp, LocalKernel, _diagonal_row, extract_operator,
                           gamma_skew_check, residue_action)

Z = UniPoly.x("z")
fracs = st.fractions(min_value=-12, max_value=12, max_denominator=5)


def zpoly(maxdeg=4):
    return st.lists(fracs, min_size=0, max_size=maxdeg + 1).map(
        lambda cs: UniPoly("z", cs))


def _kernel(terms, m=2):
    return LocalKernel(BiPoly({k: Fraction(v) for k, v in terms.items()}), m)


def test_diagonal_row_matches_sympy_expansion():
    # row j of p(z, z + e) against sympy's expansion, for every j up to one
    # past the degree in e, on seeded random p with rational coefficients
    sympy = pytest.importorskip("sympy")
    z, e = sympy.symbols("z e")
    rng = random.Random(25)
    for _ in range(30):
        p = BiPoly({(rng.randint(0, 4), rng.randint(0, 5)):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))})
        expr = sum((sympy.Rational(c.numerator, c.denominator) * z ** r * (z + e) ** s
                    for (r, s), c in p.terms.items()), sympy.Integer(0))
        rows = {}
        for (j, i), c in sympy.Poly(expr, e, z).terms():
            rows.setdefault(j, {})[i] = Fraction(int(c.p), int(c.q))
        for j in range(p.degree_y() + 2):
            cs = rows.get(j, {})
            want = UniPoly("z", [cs.get(i, 0) for i in range(max(cs, default=-1) + 1)])
            assert _diagonal_row(p, j) == want, (p, j)


def test_kernel_pole_order_validation():
    with pytest.raises(ValueError):
        LocalKernel(BiPoly.const(1), 0)


def test_extract_constant_kernel():
    # phi = 1: pure multiplication, no derivative part
    op = extract_operator(_kernel({(0, 0): 1}))
    assert op == HalfFormOp(UniPoly.const("z", 1), UniPoly("z", []))


def test_extract_z1_kernel():
    # phi = z1: a = z, b = 0
    op = extract_operator(_kernel({(1, 0): 1}))
    assert op == HalfFormOp(Z, UniPoly("z", []))


def test_extract_z2_kernel():
    # phi = z2 = z1 + (z2 - z1): a = z, b = 1
    op = extract_operator(_kernel({(0, 1): 1}))
    assert op == HalfFormOp(Z, UniPoly.const("z", 1))


def test_extract_rejects_wrong_pole_order():
    with pytest.raises(ValueError, match="wrong pole order"):
        extract_operator(_kernel({(0, 0): 1}, m=1))
    with pytest.raises(ValueError, match="wrong pole order"):
        extract_operator(_kernel({(0, 0): 1}, m=3))


def test_residue_action_simple_pole_is_multiplication():
    # phi/(z1 - z2): action f -> phi(z, z) f(z)
    k = _kernel({(1, 0): 2}, m=1)  # phi = 2 z1
    f = Z * Z + 1
    assert residue_action(k, f) == (Z * 2) * f


def test_residue_action_order2_matches_operator():
    k = _kernel({(1, 1): 1, (0, 0): 3})  # phi = z1 z2 + 3
    op = extract_operator(k)
    for f in (UniPoly.const("z", 1), Z, Z * Z, Z * Z * Z - Z):
        assert residue_action(k, f) == op.apply(f)


def test_roundtrip_operator_kernel():
    op = HalfFormOp(Z * Z - 1, Z * 3 + 2)
    assert extract_operator(op.to_kernel()) == op


@given(zpoly(3), zpoly(3))
@settings(max_examples=40)
def test_roundtrip_random(a, b):
    op = HalfFormOp(a, b)
    back = extract_operator(op.to_kernel())
    assert back.a == a and back.b == b


@given(zpoly(3), zpoly(3), st.fractions(min_value=-5, max_value=5, max_denominator=3))
@settings(max_examples=40)
def test_residue_action_linear(f, g, c):
    k = _kernel({(2, 1): 1, (0, 2): -2, (1, 0): 5})
    lhs = residue_action(k, f + g * c)
    assert lhs == residue_action(k, f) + residue_action(k, g) * c


def test_random_kernels_extract_equals_residue():
    rng = random.Random(0)
    basis = [Z ** j for j in range(6)]
    for _ in range(25):
        terms = {}
        for r in range(6):
            for s in range(2):
                v = rng.randint(-5, 5)
                if v:
                    terms[(r, s)] = Fraction(v)
        k = LocalKernel(BiPoly(terms), 2)
        op = extract_operator(k)
        for f in basis:
            assert residue_action(k, f) == op.apply(f)


def test_gamma_skew_identity():
    assert gamma_skew_check(Z)


def test_gamma_skew_scaling():
    assert gamma_skew_check(Z * 2)


def test_gamma_skew_quadratic():
    assert gamma_skew_check(Z + Z * Z)


def test_gamma_skew_rejects_degenerate():
    with pytest.raises(ValueError, match="vanishing derivative"):
        gamma_skew_check(Z * Z)
    with pytest.raises(ValueError, match="vanishing derivative"):
        gamma_skew_check(UniPoly.const("z", 5))


def test_gamma_skew_fails_off_square_scaling():
    # w = 3z needs sqrt(9) = 3: fine; w = z scaled by a non-square constant
    # keeps w'(0)^2 square, so stays computable and true
    assert gamma_skew_check(Z * 3)
    assert gamma_skew_check(Z * Fraction(5, 7))


def test_gamma_skew_higher_order_truncation():
    # the check is exact in Q[z]: w of degree above two needs no order
    assert gamma_skew_check(Z + Z * Z)
    assert gamma_skew_check(Z + Z * Z * Z)


def test_gamma_skew_orientation_reversing():
    # S = 1 + O((z1 - z2)^2) for every w with w'(0) != 0: the half-form
    # factors multiply to w'(0) on the diagonal, so the root of w'(0)^2 is
    # w'(0), negative here, not |w'(0)|
    one = UniPoly.const("z", 1)
    for w in (-Z, Z * Z - Z * 2, one - Z * 3 + Z * Z * Z * 2,
              Z * Z * 3 - Z * Fraction(5, 7)):
        assert gamma_skew_check(w), w
