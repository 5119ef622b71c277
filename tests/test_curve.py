"""Curve models, derivation data, nu kernels, smoothness."""

from fractions import Fraction

import pytest

from cmforge.curve import (CurveModel, affine_line, derivation_data,
                           hyperelliptic, nu_kernel, plane_curve,
                           smoothness_check, torus)
from cmforge.exact import BiPoly, UniPoly


def _hyper_cubic():
    return hyperelliptic(UniPoly("x", [1, 0, 0, 1]))  # y^2 = x^3 + 1


def test_affine_line_shape():
    c = affine_line()
    assert c.kind == "AffineLine"
    assert not c.has_y
    assert c.F is None


def test_torus_shape():
    c = torus()
    assert c.kind == "Torus"
    assert not c.has_y


def test_hyperelliptic_detection():
    f = BiPoly({(0, 2): Fraction(1), (3, 0): Fraction(-1), (0, 0): Fraction(-1)})
    c = plane_curve(f)
    assert c.kind == "PlaneCurve"
    assert c.is_hyperelliptic
    assert c.hyperelliptic_P == UniPoly("x", [1, 0, 0, 1])
    assert c == _hyper_cubic()


def test_parabola_not_hyperelliptic():
    f = BiPoly({(0, 1): Fraction(1), (2, 0): Fraction(-1)})  # y - x^2
    c = plane_curve(f)
    assert not c.is_hyperelliptic
    assert c.has_y


def test_cuspidal_p_rejected_as_hyperelliptic():
    # y^2 = x^3: P has a repeated root, so the special form is refused
    with pytest.raises(ValueError):
        hyperelliptic(UniPoly("x", [0, 0, 0, 1]))
    # ... but the same F is still a valid general plane curve
    f = BiPoly({(0, 2): Fraction(1), (3, 0): Fraction(-1)})
    assert not plane_curve(f).is_hyperelliptic


def test_constant_f_rejected():
    with pytest.raises(ValueError):
        plane_curve(BiPoly.const(1))
    with pytest.raises(ValueError):
        CurveModel("AffineLine", F=BiPoly.monomial(1, 0))


def test_derivation_line():
    zx_words, zy_words = derivation_data(affine_line())
    assert zx_words == ((Fraction(1), ("D",)),)
    assert zy_words is None


def test_derivation_hyper():
    # z(x) = F'_y = 2y, z(y) = -F'_x = 3x^2 on y^2 = x^3 + 1
    zx_words, zy_words = derivation_data(_hyper_cubic())
    assert set(zx_words) == {(Fraction(1), ("y", "D")), (Fraction(1), ("D", "y"))}
    assert set(zy_words) == {
        (Fraction(1), ("x", "x", "D")),
        (Fraction(1), ("x", "D", "x")),
        (Fraction(1), ("D", "x", "x")),
    }


def test_nu_kernel_line_and_torus():
    for c in (affine_line(), torus()):
        terms, denom_factors = nu_kernel(c)
        assert terms == ((Fraction(1), (0, 0), (0, 0)),)
        assert denom_factors == ("x",)


def test_nu_kernel_hyper():
    terms, denom_factors = nu_kernel(_hyper_cubic())
    assert set(terms) == {(Fraction(1), (0, 1), (0, 0)), (Fraction(1), (0, 0), (0, 1))}
    assert denom_factors == ("x",)


def test_nu_kernel_general_plane():
    f = BiPoly({(0, 1): Fraction(1), (2, 0): Fraction(-1)})  # y - x^2
    terms, denom_factors = nu_kernel(plane_curve(f))
    assert set(terms) == {(Fraction(-1), (0, 1), (0, 0)), (Fraction(1), (0, 0), (2, 0))}
    assert denom_factors == ("x", "y")


def test_smoothness_smooth_cubic():
    ok, witness = smoothness_check(_hyper_cubic())
    assert ok and witness is None


def test_smoothness_cusp_detected():
    f = BiPoly({(0, 2): Fraction(1), (3, 0): Fraction(-1)})  # y^2 = x^3
    ok, witness = smoothness_check(plane_curve(f))
    assert not ok
    assert witness


def test_smoothness_node_detected():
    # y^2 = x^2 (x + 1) has a node at the origin
    f = BiPoly({(0, 2): Fraction(1), (3, 0): Fraction(-1), (2, 0): Fraction(-1)})
    ok, _ = smoothness_check(plane_curve(f))
    assert not ok


@pytest.mark.parametrize("terms, want", [
    ({(2, 0): 1, (0, 0): -1}, (True, None)),                     # x^2 - 1
    ({(2, 0): 1, (1, 0): -2, (0, 0): 1}, (False, "-1 + 1*x")),   # (x - 1)^2
    ({(0, 3): 1, (0, 1): -1}, (True, None)),                     # y^3 - y
    ({(0, 3): 1, (0, 2): -4, (0, 1): 4}, (False, "-2 + 1*y")),   # (y - 2)^2 y
], ids=["x2-1", "x-1-squared", "y3-y", "y-2-squared-y"])
def test_smoothness_of_univariate_curves(terms, want):
    # F in one variable: squarefree exactly when coprime to its derivative,
    # the witness being that gcd in F's own variable
    assert smoothness_check(plane_curve(BiPoly(terms))) == want


def test_smoothness_rejects_line():
    with pytest.raises(ValueError):
        smoothness_check(affine_line())
