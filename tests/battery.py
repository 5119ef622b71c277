"""Shared battery of small verified points used across the test modules."""

from fractions import Fraction

from cmforge.cmspace import CMPoint, generic_point
from cmforge.curve import affine_line, hyperelliptic, torus
from cmforge.exact import Mat, QQ, UniPoly


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
    return CMPoint(p.curve, p.Zmat, None, p.Xmat.neg(), p.V, p.W)


def fourier_points():
    """Fourier images of line points: X non-semisimple or with irrational
    eigenvalues (char polys x^2, (x - 2)^2 and x^3 + 9/4 x)."""
    line = affine_line()
    return [fourier(generic_point(line, [0, 1], [1, -1])),
            fourier(generic_point(line, [0, 1], [3, 1])),
            fourier(generic_point(line, [0, 1, 2]))]


def full_battery():
    return line_points() + torus_points() + hyper_points()


def framed_module(X, Z, V, W, Y=None, curve=None):
    """The point on curve (default the line) with vertex actions X, [Y,] Z
    and framing arrows V (n x n_inf, the v_i as columns) and W (n_inf x n,
    the w_i as rows)."""
    return CMPoint(curve or affine_line(), X, Y, Z, V, W)


def direct_sum(a, b):
    """The framed module a (+) b: block-diagonal actions and framing arrows."""
    if a.curve != b.curve:
        raise ValueError("summands must share the curve")

    def block(m1, m2):
        r1, c1, r2, c2 = m1.rows, m1.cols, m2.rows, m2.cols
        ent = []
        for i in range(r1 + r2):
            for j in range(c1 + c2):
                if i < r1 and j < c1:
                    ent.append(m1.entry(i, j))
                elif i >= r1 and j >= c1:
                    ent.append(m2.entry(i - r1, j - c1))
                else:
                    ent.append(Fraction(0))
        return Mat(QQ, r1 + r2, c1 + c2, ent)

    Y = None if a.Ymat is None else block(a.Ymat, b.Ymat)
    return framed_module(block(a.Xmat, b.Xmat), block(a.Zmat, b.Zmat),
                         block(a.V, b.V), block(a.W, b.W), Y, a.curve)


def q(v):
    return Fraction(v)
