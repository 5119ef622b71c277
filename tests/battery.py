"""Shared battery of small verified points used across the test modules."""

from fractions import Fraction

from cmforge.cmspace import CMPoint, generic_point
from cmforge.curve import affine_line, hyperelliptic, torus
from cmforge.exact import UniPoly


def cubic_plus_one():
    return hyperelliptic(UniPoly("x", [1, 0, 0, 1]))  # y^2 = x^3 + 1


def cubic_minus_x():
    return hyperelliptic(UniPoly("x", [0, -1, 0, 1]))  # y^2 = x^3 - x


def line_points():
    c = affine_line()
    return [generic_point(c, xs) for xs in ((0,), (0, 1), (0, 1, 2))]


def torus_points():
    c = torus()
    return [generic_point(c, xs) for xs in ((1,), (1, 2), (1, 2, 3))]


def hyper_points():
    pts = [generic_point(cubic_plus_one(), [(0, 1), (2, 3)])]
    pts.append(generic_point(cubic_plus_one(), [(0, 1), (2, 3), (-1, 0)]))
    pts.append(generic_point(cubic_minus_x(), [(0, 0)]))
    pts.append(generic_point(cubic_minus_x(), [(1, 0)]))
    pts.append(generic_point(cubic_minus_x(), [(-1, 0)]))
    return pts


def fourier(p):
    """(X, Z, v, w) -> (Z, -X, v, w) on a line point; keeps [Z, X] - I = v w."""
    return CMPoint(p.curve, p.n, p.Zmat, None, p.Xmat.neg(), p.vs, p.ws)


def fourier_points():
    """Fourier images of line points: X non-semisimple or with irrational
    eigenvalues (char polys x^2, (x - 2)^2 and x^3 + 9/4 x)."""
    line = affine_line()
    return [fourier(generic_point(line, [0, 1], [1, -1])),
            fourier(generic_point(line, [0, 1], [3, 1])),
            fourier(generic_point(line, [0, 1, 2]))]


def full_battery():
    return line_points() + torus_points() + hyper_points()


def q(v):
    return Fraction(v)
