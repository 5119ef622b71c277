"""Local kernels with a diagonal pole and their residue action on half-forms.

Everything lives on one coordinate patch: a kernel phi(z1, z2)/(z1 - z2)^m
acts on a polynomial f through the coefficient of (z2 - z1)^(m-1) in the
expansion of f(z2) phi(z1, z2) about the diagonal, and each calculation
reads only the rows of that expansion it needs.  Half-form weights are
purely formal (the dz^(1/2) tag never materializes), and the root of
w'(z1) w'(z2) in a coordinate change is never taken: the check squares it
away, and its branch is w'(0), not |w'(0)|, the product of the two
half-form factors on the diagonal at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import BiPoly, UniPoly


@dataclass(frozen=True, slots=True, repr=False)
class LocalKernel:
    """Kernel phi(z1, z2)/(z1 - z2)^m; phi polynomial, pole order m >= 1."""

    phi: BiPoly
    pole_order: int

    def __post_init__(self):
        if self.pole_order < 1:
            raise ValueError("pole order must be at least 1")
        object.__setattr__(self, "pole_order", int(self.pole_order))

    def __repr__(self):
        return "LocalKernel(%r, pole_order=%d)" % (self.phi, self.pole_order)


@dataclass(frozen=True, slots=True, repr=False)
class HalfFormOp:
    """First-order operator f -> a f' + b f on half-form coefficients."""

    a: UniPoly
    b: UniPoly

    def apply(self, f: UniPoly) -> UniPoly:
        return self.a * f.derivative() + self.b * f

    def to_kernel(self) -> LocalKernel:
        """Order-2 kernel phi = a(z1) + b(z1)(z2 - z1) with the same action."""
        terms = {}
        for i, c in enumerate(self.a.coeffs):
            terms[(i, 0)] = terms.get((i, 0), Fraction(0)) + c
        for i, c in enumerate(self.b.coeffs):
            terms[(i, 1)] = terms.get((i, 1), Fraction(0)) + c
            terms[(i + 1, 0)] = terms.get((i + 1, 0), Fraction(0)) - c
        return LocalKernel(BiPoly(terms), 2)

    def __repr__(self):
        return "HalfFormOp(a=%r, b=%r)" % (self.a, self.b)


def _diagonal_row(p: BiPoly, j: int) -> UniPoly:
    """Coefficient of e^j in p(z, z + e), a polynomial in z: the sum of
    c C(s, j) z^(r + s - j) over the terms c z1^r z2^s of p with s >= j."""
    cs = {}
    for (r, s), c in p.terms.items():
        if s >= j:
            cs[r + s - j] = cs.get(r + s - j, 0) + c * comb(s, j)
    return UniPoly("z", [cs.get(i, 0) for i in range(max(cs, default=-1) + 1)])


def residue_action(kernel: LocalKernel, f: UniPoly) -> UniPoly:
    """Coefficient of (z2 - z1)^(m-1) in f(z2) phi(z1, z2) about z2 = z1."""
    lifted = BiPoly({(0, s): c for s, c in enumerate(f.coeffs)})
    return _diagonal_row(lifted * kernel.phi, kernel.pole_order - 1)


def extract_operator(kernel: LocalKernel) -> HalfFormOp:
    """Read off f -> a f' + b f from an order-2 kernel: a is the diagonal
    value of phi, b the first off-diagonal Taylor coefficient."""
    if kernel.pole_order != 2:
        raise ValueError("wrong pole order: %d (need 2)" % kernel.pole_order)
    return HalfFormOp(_diagonal_row(kernel.phi, 0), _diagonal_row(kernel.phi, 1))


def gamma_skew_check(param_change: UniPoly) -> bool:
    """Check that the diagonal pole kernel transforms as a half-form pairing.

    For the substitution z -> w(z) and z2 = z1 + e, the ratio
        S = w'(z1)^(1/2) w'(z2)^(1/2) (z1 - z2) / (w(z1) - w(z2)) = A^(1/2) / q,
    with A = w'(z) w'(z + e) and q = (w(z + e) - w(z)) / e, must equal
    1 + O(e^2): the constant row 1 says the transformed kernel has the same
    diagonal singularity, the vanishing linear row says the correction is
    symmetric and vanishes on the diagonal.  The root is the branch with
    constant term w'(0), so S(0, 0) = 1 and S + 1 is a unit of Q[[z, e]]:
    S = 1 + O(e^2) exactly when S^2 = A / q^2 = 1 + O(e^2), that is (q^2 is
    a unit too) when A - q^2 = O(e^2).  In the rows A0, A1 of A and q0, q1
    of q in powers of e, that is A0 = q0^2 and A1 q0 = 2 A0 q1 (q0 != 0):
    two exact identities in Q[z], with no truncation, which hold for a w
    that reverses orientation too.
    """
    w = param_change
    wp = w.derivative()
    if wp.is_zero or wp.coeffs[0] == 0:
        raise ValueError("parameter change has vanishing derivative at the origin")
    a = BiPoly({(r, s): c * d for r, c in enumerate(wp.coeffs) for s, d in enumerate(wp.coeffs)})
    a0, a1 = _diagonal_row(a, 0), _diagonal_row(a, 1)
    # row j of q is row j + 1 of w(z + e)
    w2 = BiPoly({(0, s): c for s, c in enumerate(w.coeffs)})
    q0, q1 = _diagonal_row(w2, 1), _diagonal_row(w2, 2)
    return a0 == q0 * q0 and a1 * q0 == a0 * q1 * 2
