"""Exact arithmetic kernel.

Arbitrary-precision rationals, univariate and bivariate polynomials, and
matrices with fraction-free determinants.  A matrix computes with its
entries' own operators; its ring object (QQ, PolyRing, diffop.CoeffRing)
supplies only the constants and the division that elimination needs.
Rational functions are not a type of their own here: a quotient p/q of
polynomials is a ``diffop.Coeff``.  Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub


def rat(v) -> Fraction:
    """Coerce ints, "p/q" strings, and Fractions to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("not a rational value: %r" % (v,))


class UniPoly:
    """Dense univariate polynomial over Q: integer numerators over one denominator.

    ``num`` is a tuple of int numerators, lowest degree first, and ``den`` one
    positive int, so the coefficient of var**i is num[i] / den.  The form is
    canonical: no trailing zero numerator, gcd(den, *num) == 1, and zero is
    ``((), 1)``, so equal polynomials have equal fields.  Sums and products
    run on ints with one gcd per result; division is pseudo-division and
    ``gcd`` is Euclid on primitive parts.  ``coeffs`` gives the coefficients
    as Fractions.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, coeffs):
        cs = [rat(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        p = _poly(var, [c.numerator * (den // c.denominator) for c in cs], den)
        _SET_VAR(self, var)
        _SET_NUM(self, p.num)
        _SET_DEN(self, p.den)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, var: str, c) -> "UniPoly":
        c = rat(c)
        return _raw(var, (c.numerator,) if c else (), c.denominator)

    @classmethod
    def x(cls, var: str) -> "UniPoly":
        return cls(var, [0, 1])

    @classmethod
    def monomial(cls, var: str, k: int, c=1) -> "UniPoly":
        return cls(var, [0] * k + [rat(c)])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.num) - 1

    def lc(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            if other.var != self.var:
                if len(other.num) > 1 and len(self.num) > 1:
                    raise ValueError("variable mismatch: %s vs %s" % (self.var, other.var))
                # one side is constant; rename to the non-constant side's variable
                return _raw(self._var_with(other), other.num, other.den)
            return other
        return UniPoly.const(self.var, other)

    def _var_with(self, o: "UniPoly") -> str:
        """Variable of a sum or product: the non-constant side's."""
        return self.var if len(self.num) > 1 or len(o.num) <= 1 else o.var

    def _plus(self, o: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * o for a coerced o."""
        a, b, den = self.num, o.num, self.den
        if not b:
            return self
        if den != o.den:
            a = [c * o.den for c in a]
            b = [c * den for c in b]
            den *= o.den
        n = min(len(a), len(b))
        if sign > 0:
            num = [x + y for x, y in zip(a, b)]
            num += b[n:] if len(b) > n else a[n:]
        else:
            num = [x - y for x, y in zip(a, b)]
            num += [-y for y in b[n:]] if len(b) > n else a[n:]
        return _poly(self._var_with(o), num, den)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.var, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly(self.var, [c * other.numerator for c in self.num],
                         self.den * other.denominator)
        o = self._coerce(other)
        a, b = self.num, o.num
        if not a or not b:
            return _raw(self.var, (), 1)
        if len(a) < len(b):
            a, b = b, a
        la = len(a)
        if len(b) == 1:
            y = b[0]
            return _poly(self._var_with(o), [x * y for x in a], self.den * o.den)
        out = [0] * (la + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                out[i:i + la] = [u + x * y for u, x in zip(out[i:i + la], a)]
        return _poly(self._var_with(o), out, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.const(self.var, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def mul_xk(self, k: int) -> "UniPoly":
        """Multiply by var**k, k >= 0."""
        if not self.num or not k:
            return self
        return _raw(self.var, (0,) * k + self.num, self.den)

    def div_xk(self, k: int) -> "UniPoly":
        """Divide by var**k, k >= 0: the inverse of mul_xk."""
        if any(self.num[:k]):
            raise ValueError("%r is not divisible by %s^%d" % (self, self.var, k))
        if not k:
            return self
        return _raw(self.var, self.num[k:], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(self.var, other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den and (
            self.var == other.var or len(self.num) <= 1 or len(other.num) <= 1
        )

    def __hash__(self):
        # a constant equals its value (and ignores var), so it hashes as one
        if len(self.num) > 1:
            return hash((self.var, self.num, self.den))
        return hash(Fraction(self.num[0], self.den)) if self.num else 0

    def evaluate(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.num):
            acc = acc * v + c
        return acc / self.den

    def derivative(self) -> "UniPoly":
        return _poly(self.var, [i * c for i, c in enumerate(self.num)][1:], self.den)

    def divmod_(self, other: "UniPoly"):
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.num) < len(o.num):
            return _raw(self.var, (), 1), self
        # s*num = q*o.num + r, so self = (q*o.den / (s*den)) * o + r / (s*den)
        q, r, s = _pseudo_divmod(self.num, o.num)
        den = s * self.den
        if o.den != 1:
            q = [c * o.den for c in q]
        return _poly(self.var, q, den), _poly(self.var, r, den)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        o = self._coerce(other)
        a, b = _primitive(list(self.num)), _primitive(list(o.num))
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if not a:
            return self
        if a[-1] < 0:
            a = [-c for c in a]
        # a is primitive, so a / lc(a) is already canonical
        return _raw(self._var_with(o), tuple(a), a[-1])

    def lcm(self, other: "UniPoly") -> "UniPoly":
        """Monic least common multiple of two nonzero polynomials."""
        return (self * other).divmod_(self.gcd(other))[0].monic()

    def monic(self) -> "UniPoly":
        num = self.num
        if not num:
            return self
        if num[-1] < 0:
            return _poly(self.var, [-c for c in num], -num[-1])
        return _poly(self.var, list(num), num[-1])

    def x_valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (0 for the zero polynomial)."""
        return next((i for i, c in enumerate(self.num) if c), 0)

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*%s" % (c, self.var))
            else:
                parts.append("%s*%s^%d" % (c, self.var, i))
        return " + ".join(parts)


_NEW = object.__new__
_SET_VAR = UniPoly.var.__set__
_SET_NUM = UniPoly.num.__set__
_SET_DEN = UniPoly.den.__set__


def _raw(var: str, num: tuple, den: int) -> UniPoly:
    """UniPoly from fields that are already canonical."""
    p = _NEW(UniPoly)
    _SET_VAR(p, var)
    _SET_NUM(p, num)
    _SET_DEN(p, den)
    return p


def _poly(var: str, num: list, den: int) -> UniPoly:
    """UniPoly with coefficients num[i] / den (den > 0), made canonical."""
    while num and not num[-1]:
        num.pop()
    p = _NEW(UniPoly)
    _SET_VAR(p, var)
    if not num:
        _SET_NUM(p, ())
        _SET_DEN(p, 1)
        return p
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    # a tuple built from a list comes from the free list it returns to
    _SET_NUM(p, tuple(num))
    _SET_DEN(p, den)
    return p


def _primitive(num: list) -> list:
    """num without trailing zeros, divided by the gcd of its entries."""
    while num and not num[-1]:
        num.pop()
    g = gcd(*num)
    return [c // g for c in num] if g > 1 else num


def _pseudo_divmod(a, b) -> tuple[list, list, int]:
    """Pseudo-division of int coefficient sequences, lowest degree first.

    Returns (q, r, s) with s > 0, s*a == q*b + r and len(r) < len(b) (r may
    end in zeros).  A step whose top coefficient t is not a multiple of
    lc(b) first scales the remainder, the quotient so far and s by
    |lc(b)| / gcd(t, lc(b)); for lc(b) = +-1 no step scales.
    """
    n = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(r) - n)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        t = r[k + n]
        if not t:
            continue
        if t % lb:
            m = abs(lb) // gcd(t, lb)
            r[:k + n] = [c * m for c in r[:k + n]]
            q[k + 1:] = [c * m for c in q[k + 1:]]
            s *= m
            t *= m
        c = t // lb
        q[k] = c
        if n:
            r[k:k + n] = [x - c * y for x, y in zip(r[k:k + n], b)]
    return q, r[:n], s


class BiPoly:
    """Bivariate polynomial: map (r, s) -> coefficient, no zero entries stored.

    The first exponent indexes the x-like variable, the second the y-like one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        d = {}
        for (r, s), c in dict(terms).items():
            c = rat(c)
            if c:
                d[(int(r), int(s))] = c
        object.__setattr__(self, "terms", d)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls({(0, 0): rat(c)})

    @classmethod
    def monomial(cls, r: int, s: int, c=1) -> "BiPoly":
        return cls({(r, s): rat(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, Fraction(0)) + c
        return BiPoly(d)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return BiPoly({k: v * c for k, v in self.terms.items()})
        d = {}
        for (r1, s1), c1 in self.terms.items():
            for (r2, s2), c2 in other.terms.items():
                k = (r1 + r2, s1 + s2)
                d[k] = d.get(k, Fraction(0)) + c1 * c2
        return BiPoly(d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree_x(self) -> int:
        return max((r for (r, _s) in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((s for (_r, s) in self.terms), default=-1)

    def partial_x(self) -> "BiPoly":
        return BiPoly({(r - 1, s): r * c for (r, s), c in self.terms.items() if r})

    def partial_y(self) -> "BiPoly":
        return BiPoly({(r, s - 1): s * c for (r, s), c in self.terms.items() if s})

    def eval_frac(self, xv, yv) -> Fraction:
        xv, yv = rat(xv), rat(yv)
        return sum((c * xv ** r * yv ** s for (r, s), c in self.terms.items()), Fraction(0))

    def coeffs_in_y(self, xvar: str = "x"):
        """Coefficient list in the second variable, entries UniPoly in the first."""
        n = self.degree_y()
        out = []
        for s in range(n + 1):
            cs = {}
            for (r, t), c in self.terms.items():
                if t == s:
                    cs[r] = c
            deg = max(cs, default=-1)
            out.append(UniPoly(xvar, [cs.get(i, 0) for i in range(deg + 1)]))
        return out

    def as_unipoly(self, which: str, var: str) -> UniPoly:
        """Collapse to a univariate polynomial when the other variable is absent."""
        if which == "x":
            if self.degree_y() > 0:
                raise ValueError("second variable present")
            deg = self.degree_x()
            return UniPoly(var, [self.terms.get((i, 0), 0) for i in range(deg + 1)])
        if which == "y":
            if self.degree_x() > 0:
                raise ValueError("first variable present")
            deg = self.degree_y()
            return UniPoly(var, [self.terms.get((0, i), 0) for i in range(deg + 1)])
        raise ValueError("which must be 'x' or 'y'")

    def subs_second_shift(self) -> "BiPoly":
        """Substitute second variable -> first + eps; result is in (first, eps)."""
        from math import comb

        d = {}
        for (r, s), c in self.terms.items():
            for j in range(s + 1):
                k = (r + s - j, j)
                d[k] = d.get(k, Fraction(0)) + c * comb(s, j)
        return BiPoly(d)

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(
            "%s*x^%d*y^%d" % (c, r, s) for (r, s), c in self.items_sorted()
        )


def bipoly_apply(f: BiPoly, a: "Mat", b: "Mat | None" = None) -> "Mat":
    """Evaluate f at a pair of commuting square matrices over the same ring.

    b may be omitted when f does not involve the second variable.
    """
    if b is None:
        if f.degree_y() > 0:
            raise ValueError("second matrix required for a y-dependent polynomial")
        b = Mat.identity(a.ring, a.rows)
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("expected square matrices of equal size")
    ring = a.ring
    n = a.rows
    pow_a = {0: Mat.identity(ring, n)}
    pow_b = {0: Mat.identity(ring, n)}

    def power(cache, m, k):
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top].mul(m)
        return cache[k]

    out = Mat.zeros(ring, n, n)
    for (r, s), c in f.items_sorted():
        term = power(pow_a, a, r).mul(power(pow_b, b, s))
        out = out.add(term.scalar_mul(ring.from_frac(c)))
    return out


class RationalRing:
    """The rationals as a Mat coefficient ring."""

    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_frac(self, c: Fraction):
        return rat(c)

    def exact_div(self, a, b):
        return a / b

    def inv(self, a):
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("QQ")


class PolyRing:
    """Ring of UniPoly in a fixed variable."""

    is_field = False

    def __init__(self, var: str):
        self.var = var

    def zero(self):
        return UniPoly(self.var, [])

    def one(self):
        return UniPoly.const(self.var, 1)

    def gen(self):
        return UniPoly.x(self.var)

    def from_frac(self, c):
        return UniPoly.const(self.var, rat(c))

    def exact_div(self, a, b):
        q, r = a.divmod_(b)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.var == self.var

    def __hash__(self):
        return hash(("poly", self.var))


QQ = RationalRing()


class Mat:
    """Immutable row-major matrix over a declared coefficient ring.

    Entry arithmetic and zero tests use the entries' own operators; the ring
    object supplies only the constants zero(), one() and from_frac(), and
    the division that det, inv and rref need: exact_div(), plus inv() and a
    true is_field for fields.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d" % (len(entries), rows, cols))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_rows(cls, ring, rows) -> "Mat":
        rows = [list(r) for r in rows]
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(ring, r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        return cls(ring, n, n, [ring.one() if i == j else ring.zero() for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring, rows: int, cols: int) -> "Mat":
        z = ring.zero()
        return cls(ring, rows, cols, [z] * (rows * cols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int):
        return list(self.entries[j::self.cols])

    def add(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(self.ring, self.rows, self.cols, map(add, self.entries, other.entries))

    def sub(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(self.ring, self.rows, self.cols, map(sub, self.entries, other.entries))

    def neg(self) -> "Mat":
        return Mat(self.ring, self.rows, self.cols, [-a for a in self.entries])

    def scalar_mul(self, c) -> "Mat":
        return Mat(self.ring, self.rows, self.cols, [c * a for a in self.entries])

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch for mul: %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        zero = self.ring.zero()
        cols = [other.col(j) for j in range(other.cols)]
        return Mat(self.ring, self.rows, other.cols,
                   [sum(map(mul, self.row(i), c), zero) for i in range(self.rows) for c in cols])

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.cols, self.rows,
                   [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def map_entries(self, f, ring=None) -> "Mat":
        return Mat(ring if ring is not None else self.ring, self.rows, self.cols,
                   [f(e) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def _check_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def det(self):
        """Fraction-free Bareiss determinant over an integral domain."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rg = self.ring
        if n == 0:
            return rg.one()
        a = [self.row(i) for i in range(n)]
        sign = 1
        prev = rg.one()
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return rg.zero()
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = rg.exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                a[i][k] = rg.zero()
            prev = a[k][k]
        d = a[n - 1][n - 1]
        return -d if sign < 0 else d

    def _gauss_jordan(self, a: list, stop: int) -> list:
        """Gauss-Jordan over a field on the rows a, pivoting in the first
        stop columns; returns the pivot columns."""
        rg = self.ring
        if not rg.is_field:
            raise ValueError("elimination requires a field coefficient ring")
        pivots = []
        for col in range(stop):
            r = len(pivots)
            piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            c = rg.inv(a[r][col])
            a[r] = [c * e for e in a[r]]
            for i in range(len(a)):
                if i != r and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [e - f * p for e, p in zip(a[i], a[r])]
            pivots.append(col)
            if len(pivots) == len(a):
                break
        return pivots

    def inv(self) -> "Mat":
        """Gauss-Jordan inverse over a field."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        ident = Mat.identity(self.ring, n)
        a = [self.row(i) + ident.row(i) for i in range(n)]
        if len(self._gauss_jordan(a, n)) < n:
            raise ZeroDivisionError("singular matrix (determinant vanishes)")
        return Mat.from_rows(self.ring, [row[n:] for row in a])

    def rref(self):
        """Reduced row echelon form over a field; returns (rows, pivot column list)."""
        a = [self.row(i) for i in range(self.rows)]
        return a, self._gauss_jordan(a, self.cols)

    def adjugate(self) -> "Mat":
        """Adjugate by cofactor expansion (intended for small matrices)."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = Mat.from_rows(self.ring, [
                    [self.entry(r, c) for c in range(n) if c != j]
                    for r in range(n) if r != i
                ])
                d = minor.det()
                row.append(-d if (i + j) % 2 else d)
            cof.append(row)
        return Mat.from_rows(self.ring, cof).transpose()


def rational_rank(vectors) -> int:
    """Rank over Q of equal-length vectors of ints and Fractions.

    Fraction-free: each vector is scaled to ints by the lcm of its
    denominators (rank over Q equals rank over Z of the scaled vectors) and
    reduced against an echelon of primitive int rows keyed by pivot column,
    cross-multiplying by the gcd-reduced pivot ratio at each step.
    """
    echelon = {}
    for v in vectors:
        den = lcm(*[e.denominator for e in v])
        row = [e.numerator * (den // e.denominator) for e in v]
        j, width = 0, len(row)
        while True:
            while j < width and not row[j]:
                j += 1
            if j == width:
                break
            piv = echelon.get(j)
            if piv is None:
                g = gcd(*row)
                echelon[j] = [c // g for c in row] if g > 1 else row
                break
            a, b = row[j], piv[j]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = [b * x - a * y for x, y in zip(row, piv)]
    return len(echelon)


def char_poly(m: Mat, var: str) -> UniPoly:
    """det(m - t*Id) as a UniPoly in var, for a matrix over the rationals."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    ring = PolyRing(var)
    t = ring.gen()
    lifted = []
    for i in range(m.rows):
        for j in range(m.cols):
            e = ring.from_frac(m.entry(i, j))
            if i == j:
                e = e - t
            lifted.append(e)
    return Mat(ring, m.rows, m.cols, lifted).det()


def sylvester_det(pc, qc, ring):
    """Resultant via the Sylvester matrix.

    pc, qc are coefficient lists highest degree first, entries in ring.
    """
    pc = list(pc)
    qc = list(qc)
    while pc and pc[0] == 0:
        pc.pop(0)
    while qc and qc[0] == 0:
        qc.pop(0)
    if not pc and not qc:
        raise ValueError("resultant of two zero polynomials")
    if not pc or not qc:
        return ring.zero()
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    if size == 0:
        return ring.one()
    rows = []
    for i in range(n):
        rows.append([ring.zero()] * i + pc + [ring.zero()] * (size - i - m - 1))
    for i in range(m):
        rows.append([ring.zero()] * i + qc + [ring.zero()] * (size - i - n - 1))
    return Mat.from_rows(ring, rows).det()


def resultant(p: UniPoly, q: UniPoly):
    """Resultant of two rational-coefficient polynomials in the same variable."""
    if p.is_zero and q.is_zero:
        raise ValueError("resultant of two zero polynomials")
    if p.degree() > 0 and q.degree() > 0 and p.var != q.var:
        raise ValueError("variable mismatch: %s vs %s" % (p.var, q.var))
    return sylvester_det(list(reversed(p.coeffs)), list(reversed(q.coeffs)), QQ)
