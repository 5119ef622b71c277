"""Differential operator arithmetic.

Normal-form operators sum(c_i * d^i) with coefficients in the coordinate ring
of a supported curve model (affine line, torus, hyperelliptic) with every
nonzero polynomial in x inverted: the ideals are fractional, so there is no
polynomial-only variant.  The normal form keeps coefficients on the left and
derivative powers on the right.

Every coefficient is stored as (a + b y) / den with den monic and coprime to
the numerator; a torus coefficient is a line coefficient, so its negative
x-powers sit in den, as they do in the JSON wire format.  Away from the
hyperelliptic ring a Coeff is a rational function of one variable, and it
may be held in any variable name (forge keeps its x-, y- and z-resolvents so).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import UniPoly, rat
from . import curve as curvemod


@dataclass(frozen=True, slots=True, repr=False)
class CoeffRing:
    """The curve's coefficient field, as a Mat field.

    CoeffRing() is Q(x), for the line and the torus; CoeffRing(P) is
    Q(x)[y] / (y^2 - P(x)), elements (a(x) + b(x) y) / den(x), a field too
    because P is squarefree and nonconstant, so the norm a^2 - b^2 P only
    vanishes at 0.  The model derivation z is d/dx on Q(x); on the
    hyperelliptic ring z(x) = 2y and z(y) = P'(x), so z(y^2 - P) = 0.
    """

    P: UniPoly | None = None

    # element constructors -------------------------------------------------

    def coeff(self, a: UniPoly, b: UniPoly | None = None,
              den: UniPoly | None = None) -> "Coeff":
        return Coeff(self, a, b, den)

    def zero(self) -> "Coeff":
        return self.coeff(UniPoly("x", []))

    def one(self) -> "Coeff":
        return self.coeff(UniPoly.const("x", 1))

    def from_frac(self, c) -> "Coeff":
        return self.coeff(UniPoly.const("x", rat(c)))

    def from_poly(self, p: UniPoly) -> "Coeff":
        return self.coeff(p)

    def x(self) -> "Coeff":
        return self.coeff(UniPoly.x("x"))

    def y(self) -> "Coeff":
        if self.P is None:
            raise ValueError("y exists only in the hyperelliptic ring")
        return self.coeff(UniPoly("x", []), UniPoly.const("x", 1))

    # the model derivation ---------------------------------------------------

    def derivation(self, a: UniPoly, b: UniPoly | None):
        """z(a + b y) and (a + b y) * z(x), each as a pair (a-part, y-part).

        The quotient rule takes both: z(N / g) = (z(N) g - g' N z(x)) / g^2
        for a polynomial g in x, since z(g) = g' z(x).
        """
        P = self.P
        if P is None:
            return (a.derivative(), None), (a, None)
        return ((b.derivative() * P * 2 + b * P.derivative(), a.derivative() * 2),
                (b * P * 2, a * 2))

    # the inverse for Mat ----------------------------------------------------

    def inv(self, a: "Coeff") -> "Coeff":
        return a.inv()

    def __repr__(self):
        return "CoeffRing()" if self.P is None else "CoeffRing(%r)" % (self.P,)


def coeff_ring_for(c: "curvemod.CurveModel") -> CoeffRing:
    """Operator coefficient ring attached to a curve model."""
    if c.has_y and not c.is_hyperelliptic:
        raise ValueError("full operator arithmetic supports the line, the torus, "
                         "and hyperelliptic curves only")
    return CoeffRing(c.hyperelliptic_P)


_ZERO = UniPoly("x", [])
_ONE = UniPoly.const("x", 1)


class Coeff:
    """Coefficient ring element (a(x) + b(x) y) / den(x).

    b is None away from the hyperelliptic ring; den is monic and coprime to
    the numerator content (on the torus it may hold powers of x).
    """

    __slots__ = ("ring", "a", "b", "den")

    def __init__(self, ring: CoeffRing, a: UniPoly, b: UniPoly | None = None,
                 den: UniPoly | None = None):
        if den is None:
            den = _ONE
        if ring.P is None:
            if b is not None and not b.is_zero:
                raise ValueError("y component outside the hyperelliptic ring")
            b = None
        elif b is None:
            b = _ZERO
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        a, b, den = _normalize(a, b, den)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Coeff is immutable")

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and (self.b is None or self.b.is_zero)

    def _pair(self, other) -> "Coeff":
        if isinstance(other, Coeff):
            if self.ring != other.ring:
                raise ValueError("coefficient ring mismatch")
            return other
        if isinstance(other, UniPoly):
            return Coeff(self.ring, other)
        return Coeff(self.ring, UniPoly.const("x", rat(other)))

    def __add__(self, other):
        o = self._pair(other)
        num_a = self.a * o.den + o.a * self.den
        num_b = None
        if self.b is not None:
            num_b = self.b * o.den + o.b * self.den
        return Coeff(self.ring, num_a, num_b, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Coeff(self.ring, -self.a, None if self.b is None else -self.b,
                     self.den)

    def __sub__(self, other):
        return self + (-self._pair(other))

    def __rsub__(self, other):
        return self._pair(other) - self

    def __mul__(self, other):
        o = self._pair(other)
        if self.b is not None:
            P = self.ring.P
            na = self.a * o.a + self.b * o.b * P
            nb = self.a * o.b + self.b * o.a
        else:
            na = self.a * o.a
            nb = None
        return Coeff(self.ring, na, nb, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "Coeff":
        """Multiplicative inverse."""
        if self.is_zero:
            raise ZeroDivisionError("inverting zero coefficient")
        if self.b is not None:
            q = self.a * self.a - self.b * self.b * self.ring.P
            if q.is_zero:
                raise ZeroDivisionError("norm vanishes; element is a zero divisor")
            return Coeff(self.ring, self.den * self.a, -(self.den * self.b), q)
        return Coeff(self.ring, self.den, None, self.a)

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            try:
                other = self._pair(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self.ring != other.ring:
            return False
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        return hash((self.a, self.b, self.den))

    def derive(self) -> "Coeff":
        """Image under the model derivation (d/dx, or the hyperelliptic one)."""
        (za, zb), (wa, wb) = self.ring.derivation(self.a, self.b)
        d = self.den
        dd = d.derivative()
        return Coeff(self.ring, za * d - wa * dd,
                     None if zb is None else zb * d - wb * dd, d * d)

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def as_poly(self) -> UniPoly:
        """Collapse to a plain polynomial in x (line/torus, polynomial case)."""
        if self.b is not None and not self.b.is_zero:
            raise ValueError("element has a y component")
        if not self.is_polynomial():
            raise ValueError("element has a denominator: %r" % (self,))
        return self.a

    def __repr__(self):
        core = repr(self.a)
        if self.b is not None and not self.b.is_zero:
            core = "(%s) + (%s)*y" % (self.a, self.b)
        if self.den.degree() > 0:
            core = "(%s)/(%s)" % (core, self.den)
        return core


def _normalize(a, b, den):
    if a.is_zero and (b is None or b.is_zero):
        return _ZERO, (None if b is None else _ZERO), _ONE
    # reduce the common polynomial content
    g = a.gcd(den) if b is None else a.gcd(b).gcd(den)
    if not g.is_zero and g.degree() > 0:
        a = a.divmod_(g)[0]
        den = den.divmod_(g)[0]
        if b is not None:
            b = b.divmod_(g)[0]
    c = den.lc()
    if c != 1:
        inv = 1 / c
        a = a * inv
        den = den * inv
        if b is not None:
            b = b * inv
    return a, b, den


class DiffOp:
    """Normal-form differential operator sum(c_i d^i), derivative powers rightmost."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs):
        cs = list(coeffs)
        for i, c in enumerate(cs):
            if not isinstance(c, Coeff):
                cs[i] = ring.from_frac(c) if isinstance(c, (int, Fraction)) else ring.from_poly(c)
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def zero(cls, ring: CoeffRing) -> "DiffOp":
        return cls(ring, [])

    @classmethod
    def from_coeff(cls, c: Coeff) -> "DiffOp":
        return cls(c.ring, [c])

    @classmethod
    def partial(cls, ring: CoeffRing) -> "DiffOp":
        return cls(ring, [ring.zero(), ring.one()])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Coeff:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def order(self) -> int:
        if self.is_zero:
            raise ValueError("zero operator has no order")
        return len(self.coeffs) - 1

    def add(self, other: "DiffOp") -> "DiffOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def scalar_mul(self, c) -> "DiffOp":
        return DiffOp(self.ring, [c * ci for ci in self.coeffs])

    def mul(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product: d^i * c = sum_k C(i,k) c^(k) d^(i-k)."""
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")
        out = {}
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero:
                continue
            for j, dj in enumerate(other.coeffs):
                if dj.is_zero:
                    continue
                der = dj
                for k in range(i + 1):
                    if not der.is_zero:
                        key = i - k + j
                        term = ci * der * math.comb(i, k)
                        out[key] = out.get(key, self.ring.zero()) + term
                    if k < i:
                        der = der.derive()
        if not out:
            return DiffOp.zero(self.ring)
        top = max(out)
        return DiffOp(self.ring, [out.get(i, self.ring.zero()) for i in range(top + 1)])

    def apply(self, f: Coeff) -> Coeff:
        """Evaluate sum(c_i d^i) on a coefficient ring element."""
        if not isinstance(f, Coeff):
            f = self.ring.from_poly(f) if isinstance(f, UniPoly) else self.ring.from_frac(f)
        out = self.ring.zero()
        der = f
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                out = out + c * der
            if i + 1 < len(self.coeffs):
                der = der.derive()
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if i == 0:
                parts.append("(%r)" % (c,))
            elif i == 1:
                parts.append("(%r)*d" % (c,))
            else:
                parts.append("(%r)*d^%d" % (c, i))
        return " + ".join(parts)


def clearing_denominator(ops) -> UniPoly:
    """Least monic D(x) with c * D polynomial for every coefficient c of ops:
    the lcm of all coefficient denominators (on the torus these hold the
    x-powers too)."""
    dens = {c.den for op in ops for c in op.coeffs if c.den.degree() > 0}
    den = dens.pop() if dens else _ONE
    for d in dens:
        den = den.lcm(d)
    return den


@dataclass(frozen=True, slots=True, repr=False)
class FractionalIdeal:
    """Finite generator list of operators over the curve's coefficient ring."""

    curve: curvemod.CurveModel
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not any(not g.is_zero for g in gens):
            raise ValueError("a fractional ideal needs at least one nonzero generator")
        object.__setattr__(self, "generators", gens)

    def __repr__(self):
        return "FractionalIdeal(%r, %d generators)" % (self.curve, len(self.generators))
