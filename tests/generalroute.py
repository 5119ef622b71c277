"""The general ordered-product route, as the closed form's test-side oracle.

ideal_generators writes the z-generator in closed form.  These builders take
the long way: the z-row from cofactor determinants, the x- and y-factors
from forge's ordered-product factors, and normal_order to collapse them.
"""

from cmforge.diffop import Coeff, CoeffRing, DiffOp, FractionalIdeal, coeff_ring_for
from cmforge.exact import Mat, UniPoly, char_poly
from cmforge.forge import (OrderedProduct, _correction_factors, _ypoly_to_coeff,
                           _z_rows, normal_order)
from polyoracle import bareiss_det

# rational functions of one variable: Coeffs of the line's ring, which is
# also the ring of the Mats that hold them
RF = CoeffRing()


def oracle_zrow(p, sign):
    """sign * vbar^t adj(Z^t - z Id), each adjugate entry a cofactor
    determinant over Q[z] by the test-side Bareiss oracle."""
    n, z = p.n, UniPoly.x("z")
    shifted = [[UniPoly.const("z", p.Zmat.entry(j, i)) - (z if i == j else 0)
                for j in range(n)] for i in range(n)]

    def adj(i, j):  # the cofactor of entry (j, i)
        minor = [[e for c, e in enumerate(row) if c != i]
                 for r, row in enumerate(shifted) if r != j]
        return bareiss_det(minor, "z") * (-1) ** (i + j)

    vbar = p.V.transpose()
    return Mat(RF, vbar.rows, n, [
        RF.from_poly(sum((adj(i, j) * vbar.entry(r, i) for i in range(n)), UniPoly("z", [])) * sign)
        for r in range(vbar.rows) for j in range(n)])


def oracle_ideal(p):
    """ideal_generators the general way: the z-row -vbar^t adj(Z^t - z Id)
    from cofactor determinants, then det(Z - z Id) plus the normal-ordered
    product (X^t - x Id)^{-1} [(Y^t + y Id)] w^t through DiffOp.mul."""
    c = p.curve
    ring = coeff_ring_for(c)
    zrow = oracle_zrow(p, -1)
    det_z = char_poly(p.Zmat, "z")
    gens = [DiffOp(ring, [ring.from_poly(char_poly(p.Xmat, "x"))])]
    if c.is_hyperelliptic:
        gens.append(DiffOp(ring, [_ypoly_to_coeff(char_poly(p.Ymat, "y"), ring)]))
    base = DiffOp(ring, [ring.from_frac(cc) for cc in det_z.coeffs])
    gens.append(base.add(normal_order(
        OrderedProduct(_correction_factors(p, 0, zrow)), ring)))
    return FractionalIdeal(c, gens)


def general_correction(p):
    """The correction of det(Z - z Id) * kappa(v) on a general plane model,
    left as an ordered product: the z-row from _z_rows (sign +), then the
    x-resolvent, the y-factor and the framing covector."""
    det_z = char_poly(p.Zmat, "z")
    zrow = Mat(RF, 1, p.n, [Coeff(RF, UniPoly("z", col))
                            for col in zip(*_z_rows(p, det_z))])
    return OrderedProduct(_correction_factors(p, 0, zrow))
