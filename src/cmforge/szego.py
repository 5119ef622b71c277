"""Local kernels with a diagonal pole and their residue action on half-forms.

Everything lives on one coordinate patch: a kernel phi(z1, z2)/(z1 - z2)^m
acts on a polynomial f through the coefficient of (z2 - z1)^(m-1) in the
expansion of f(z2) phi(z1, z2) about the diagonal.  Half-form weights are
purely formal (the dz^(1/2) tag never materializes); the square root of a
coordinate change only ever appears through the product w'(z1) w'(z2),
whose constant term w'(0)^2 is an exact rational square.  Its root is taken
as w'(0), not |w'(0)|: the product of the two half-form factors is w'(0) on
the diagonal at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def residue_action(kernel: LocalKernel, f: UniPoly) -> UniPoly:
    """Coefficient of (z2 - z1)^(m-1) in f(z2) phi(z1, z2) about z2 = z1."""
    lifted = BiPoly({(0, s): c for s, c in enumerate(f.coeffs)})
    expanded = (lifted * kernel.phi).subs_second_shift()
    rows = expanded.coeffs_in_y("z")
    m = kernel.pole_order
    return rows[m - 1] if m - 1 < len(rows) else UniPoly("z", [])


def extract_operator(kernel: LocalKernel) -> HalfFormOp:
    """Read off f -> a f' + b f from an order-2 kernel: a is the diagonal
    value of phi, b the first off-diagonal Taylor coefficient."""
    if kernel.pole_order != 2:
        raise ValueError("wrong pole order: %d (need 2)" % kernel.pole_order)
    rows = kernel.phi.subs_second_shift().coeffs_in_y("z")
    a = rows[0] if rows else UniPoly("z", [])
    b = rows[1] if len(rows) > 1 else UniPoly("z", [])
    return HalfFormOp(a, b)


# -- coordinate-change check for the diagonal pole ---------------------------
#
# Truncated bivariate series in (z, e), z2 = z1 + e, kept to z-degree <= dz
# and e-degree <= de.  BiPoly's first slot is z, second is e.


def _trunc(p: BiPoly, dz: int, de: int) -> BiPoly:
    return BiPoly({k: c for k, c in p.terms.items() if k[0] <= dz and k[1] <= de})


def _power_series(u: BiPoly, alpha: Fraction, lead: Fraction, dz: int, de: int) -> BiPoly:
    """The power u**alpha with constant term lead (lead**(1/alpha) that of u):
    lead * (1 + t)**alpha with t = u/u(0) - 1, by the binomial series."""
    t = _trunc(u * BiPoly.const(1 / u.terms[(0, 0)]) - BiPoly.const(1), dz, de)
    out = power = BiPoly.const(1)
    coeff = Fraction(1)
    for j in range(1, dz + de + 1):
        coeff = coeff * (alpha - j + 1) / j
        power = _trunc(power * t, dz, de)
        if power.is_zero:
            break
        out = out + power * BiPoly.const(coeff)
    return _trunc(out * BiPoly.const(lead), dz, de)


def gamma_skew_check(param_change: UniPoly, order: int = 6) -> bool:
    """Check that the diagonal pole kernel transforms as a half-form pairing.

    For the substitution z -> w(z) the ratio
        S = w'(z1)^(1/2) w'(z2)^(1/2) (z1 - z2) / (w(z1) - w(z2))
    must equal 1 + O((z1 - z2)^2): the constant row 1 says the transformed
    kernel has the same diagonal singularity, the vanishing linear row says
    the correction is symmetric and vanishes on the diagonal.  The square
    root is the branch with constant term w'(0), so S holds for a w that
    reverses orientation too.  Computed in the series ring truncated at
    z-degree `order`, e-degree 2.
    """
    w = param_change
    wp = w.derivative()
    if wp.is_zero or wp.coeffs[0] == 0:
        raise ValueError("parameter change has vanishing derivative at the origin")
    dz, de = order, 2
    a = BiPoly({(i, 0): c for i, c in enumerate(wp.coeffs)})
    # w'(z + e): w' in the second slot, shifted by the first
    b = _trunc(BiPoly({(0, i): c for i, c in enumerate(wp.coeffs)}).subs_second_shift(), dz, de)
    s = _power_series(_trunc(a * b, dz, de), Fraction(1, 2), wp.coeffs[0], dz, de)
    # (z1 - z2)/(w(z1) - w(z2)) = 1/q with q = (w(z + e) - w(z))/e, q(0) = w'(0)
    diff = (BiPoly({(0, i): c for i, c in enumerate(w.coeffs)}).subs_second_shift()
            - BiPoly({(i, 0): c for i, c in enumerate(w.coeffs)}))
    q = _trunc(BiPoly({(r, t - 1): c for (r, t), c in diff.terms.items()}), dz, de)
    ratio = _trunc(s * _power_series(q, Fraction(-1), 1 / wp.coeffs[0], dz, de), dz, de)
    rows = ratio.coeffs_in_y("z")
    const_ok = rows and rows[0] == UniPoly("z", [1])
    linear_ok = len(rows) < 2 or rows[1].is_zero
    return bool(const_ok and linear_ok)
