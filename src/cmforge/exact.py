"""Exact arithmetic kernel.

Arbitrary-precision rationals, univariate and bivariate polynomials, and
matrices over a field.  A matrix computes with its entries' own operators;
its field object (QQ or diffop.CoeffRing) supplies only the constants and
the inverse that elimination needs.  Work over Q[x] stays off Mat: the
characteristic polynomial comes from a Hessenberg form over Q, and the
resultant from a subresultant sequence on coefficient lists.  Each quantity
has one algorithm: the determinant is the constant term of the
characteristic polynomial, and the adjugate comes from the same recurrence
as forge's resolvents (_adjugate_times).  Rational
functions are not a type of their own here: a quotient p/q of polynomials
is a ``diffop.Coeff``.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def coeffs_in_y(self):
        """Coefficient list in the second variable, entries UniPoly in x."""
        rows = [{} for _ in range(self.degree_y() + 1)]
        for (r, s), c in self.terms.items():
            rows[s][r] = c
        return [UniPoly("x", [cs.get(i, 0) for i in range(max(cs, default=-1) + 1)]) for cs in rows]

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(
            "%s*x^%d*y^%d" % (c, r, s) for (r, s), c in self.items_sorted()
        )


def bipoly_apply(f: BiPoly, a: "Mat", b: "Mat | None" = None) -> "Mat":
    """Evaluate f at a pair of commuting square matrices over the same ring.

    b may be omitted when f does not involve the second variable.  Horner's
    rule in b over Horner's rule in a, on pairs (M, c) that stand for M + c Id
    (M None for zero), so that no product has an identity factor.
    """
    if b is None and f.degree_y() > 0:
        raise ValueError("second matrix required for a y-dependent polynomial")
    if a.rows != a.cols or b is not None and (b.rows != b.cols or b.rows != a.rows):
        raise ValueError("expected square matrices of equal size")

    def step(v, m, w):  # v m + w
        (mat, c), (out, c2) = v, w
        for t in (mat and mat.mul(m), c and m.scalar_mul(a.ring.from_frac(c))):
            if t:
                out = t if out is None else out.add(t)
        return out, c2

    mat, c = None, 0
    for s in range(f.degree_y(), -1, -1):
        row = None, 0
        for r in range(f.degree_x(), -1, -1):
            row = step(row, a, (None, f.terms.get((r, s), 0)))
        mat, c = step((mat, c), b, row)
    cid = Mat.identity(a.ring, a.rows).scalar_mul(a.ring.from_frac(c))
    return cid if mat is None else mat.add(cid) if c else mat


# frozen without slots: with slots=True, Python 3.10 and 3.11 raise a
# TypeError from super() on assigning a name that is not a field, and QQ has
# no fields
@dataclass(frozen=True)
class RationalRing:
    """The rationals as a Mat field."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_frac(self, c: Fraction):
        return rat(c)

    def inv(self, a):
        return Fraction(1) / a


QQ = RationalRing()


class Mat:
    """Immutable row-major matrix over a declared field (QQ or a
    diffop.CoeffRing).

    Entry arithmetic and zero tests use the entries' own operators; the field
    object supplies only the constants zero(), one() and from_frac(), and
    inv(), the one division that Gauss-Jordan (inv and rref) needs.  det and
    adjugate read char_poly, so they take matrices over Q only: over a
    CoeffRing, rat raises TypeError.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape %dx%d" % (rows, cols))
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

    def det(self) -> Fraction:
        """det(m - 0 Id): the constant term of char_poly, for a matrix over Q."""
        return char_poly(self, "t").coeff(0)

    def _gauss_jordan(self, a: list, stop: int) -> list:
        """Gauss-Jordan on the rows a, pivoting in the first stop columns;
        returns the pivot columns."""
        rg = self.ring
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
        """Gauss-Jordan inverse."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        ident = Mat.identity(self.ring, n)
        a = [self.row(i) + ident.row(i) for i in range(n)]
        if len(self._gauss_jordan(a, n)) < n:
            raise ZeroDivisionError("singular matrix (determinant vanishes)")
        return Mat.from_rows(self.ring, [row[n:] for row in a])

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        a = [self.row(i) for i in range(self.rows)]
        return a, self._gauss_jordan(a, self.cols)

    def adjugate(self) -> "Mat":
        """adj(m) for a matrix over Q: column j is the t^0 vector of
        adj(m - t Id) e_j from _adjugate_times."""
        n = self.rows
        f = char_poly(self, "t")
        cols = [_adjugate_times(self, f, [int(i == j) for i in range(n)])[0]
                for j in range(n)]
        return Mat(self.ring, n, n, [c[i] for i in range(n) for c in cols])


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
    """det(m - t*Id) as a UniPoly in var, for a matrix over the rationals.

    A similarity reduces m to upper Hessenberg form h over Q (Gaussian
    elimination below the subdiagonal, each row operation undone on the
    columns).  The leading principal minors p_k = det(t*Id - h_k) then obey
    p_(k+1) = (t - h_kk) p_k - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) p_i,
    the expansion along the last column (the Hessenberg method of Cohen, "A
    course in computational algebraic number theory", section 2.2).  The
    recurrence runs on ints, for d*h with d the lcm of h's denominators,
    since det(t*Id - h) = d**-n det(d*t*Id - d*h).
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    h = [[rat(e) for e in m.row(i)] for i in range(n)]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        r = j + 1
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            for row in h:
                row[r], row[piv] = row[piv], row[r]
        pinv = 1 / h[r][j]
        for i in range(r + 1, n):
            u = h[i][j] * pinv
            if u:
                h[i] = [a - u * b for a, b in zip(h[i], h[r])]
                for row in h:
                    row[r] += u * row[i]
    d = lcm(*[e.denominator for row in h for e in row])
    g = [[e.numerator * (d // e.denominator) for e in row] for row in h]
    ps = [[1]]
    for k in range(n):
        p = [0] + ps[k]
        for i, c in enumerate(ps[k]):
            p[i] -= g[k][k] * c
        sub = 1
        for i in range(k - 1, -1, -1):
            sub *= g[i + 1][i]
            if not sub:
                break
            c = g[i][k] * sub
            for j, e in enumerate(ps[i]):
                p[j] -= c * e
        ps.append(p)
    sign = -1 if n % 2 else 1
    return _poly(var, [sign * c * d ** j for j, c in enumerate(ps[n])], d ** n)


def _adjugate_times(A: Mat, f: UniPoly, v) -> list:
    """Vectors c_0..c_{n-1} over Q with adj(A - t Id) * v = sum_k t^k c_k.

    f = det(A - t Id) = sum_k f_k t^k.  Comparing coefficients of t in
    (A - t Id) * adj(A - t Id) = f * Id gives c_{n-1} = -f_n v and
    c_{k-1} = A c_k - f_k v: n - 1 matrix-vector products over Q.
    """
    n = A.rows
    fk = f.coeffs
    rows = [A.row(i) for i in range(n)]
    c = [-fk[n] * e for e in v]
    out = [c]
    for k in range(n - 1, 0, -1):
        c = [sum(a * e for a, e in zip(r, c)) - fk[k] * ve
             for r, ve in zip(rows, v)]
        out.append(c)
    out.reverse()
    return out


def resultant(p, q) -> UniPoly:
    """Resultant in the main variable of two polynomials with coefficients in
    Q[x]: the determinant of their Sylvester matrix, p's rows first.

    p and q are coefficient sequences, lowest degree first, with entries
    UniPoly in one variable or rationals (the constant case: a resultant over
    Q, returned as a constant).  A zero polynomial gives 0.  One subresultant
    remainder sequence (Collins 1967; Cohen, "A course in computational
    algebraic number theory", section 3.3): every division in it is exact.
    """
    a, b = (_trim([c if isinstance(c, UniPoly) else UniPoly.const("x", c) for c in f])
            for f in (p, q))
    if not a or not b:
        return UniPoly("x", [])
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = UniPoly.const("x", 1)
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return UniPoly("x", [])
        a, b = b, [c.divmod_(g * h ** delta)[0] for c in r]
        g = a[-1]
        if delta:  # h <- g**delta / h**(delta - 1)
            h = (g ** delta).divmod_(h ** (delta - 1))[0]
    # lc(b)**deg(a) / h**(deg(a) - 1); deg(a) = 0 only for two constants
    return (b[-1] ** (len(a) - 1)).divmod_(h ** max(len(a) - 2, 0))[0] * sign


def _trim(cs: list) -> list:
    """A coefficient list without its trailing zeros."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of coefficient lists, lowest degree first: r with
    lc(b)**(len(a) - len(b) + 1) * a = q * b + r, len(r) < len(b), trimmed."""
    n = len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(len(a) - 1 - n, -1, -1):
        t = r.pop()
        r = [c * lb for c in r]
        if t != 0:
            for i in range(n):
                r[k + i] = r[k + i] - t * b[i]
    return _trim(r)
