"""Calogero-Moser matrix data attached to a curve model.

A point of the n-th Calogero-Moser space is a tuple of matrices (X, [Y,] Z)
with framing matrices V and W (columns v_i, rows w_i) satisfying the deformed
commutation relations of the curve, taken up to simultaneous conjugation.
This module builds such points, verifies the relations, computes
linear-algebra invariants (commutant, tangent space, Hom/Ext dimensions) and
applies the symmetry actions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exact import BiPoly, Mat, QQ, rat, bipoly_apply, rational_rank
from .errors import PreconditionError
from . import curve as curvemod


# ---------------------------------------------------------------------------
# relations as words
#
# A relation is a sum of coefficient-weighted words in the alphabet
#   "X", "Y", "Z", ("v", i), ("w", i)
# evaluating to a matrix (shape "mat": n x n, shape "scalar": 1 x 1); the
# empty word is the identity of its shape.  Keeping relations in word form
# lets verification and tangent-space linearization share one table of word
# products (_word_products).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, repr=False)
class Relation:
    """A named sum of coefficient-weighted words of one shape."""

    name: str
    shape: str
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((rat(c), tuple(w)) for c, w in self.terms))

    def __repr__(self):
        return "Relation(%s, %d terms)" % (self.name, len(self.terms))


def _delta_slots(n_pairs):
    """Expansions of the slot Delta = I + sum_i v_i w_i; I is the empty word."""
    return [()] + [(("v", i), ("w", i)) for i in range(n_pairs)]


def _map_word(word, delta):
    out = []
    for s in word:
        if s == "x":
            out.append("X")
        elif s == "y":
            out.append("Y")
        elif s == "D":
            out.extend(delta)
        else:
            raise ValueError("unknown derivation word symbol %r" % (s,))
    return tuple(out)


def relation_set(c: "curvemod.CurveModel", n: int, n_pairs: int):
    """Defining relations for rank-n data with n_pairs framing vector pairs."""
    zx_words, zy_words = curvemod.derivation_data(c)
    rels = []
    if c.has_y:
        rels.append(Relation("xy-commutator", "mat",
                             [(1, ("X", "Y")), (-1, ("Y", "X"))]))
        eq = [(coeff, ("X",) * r + ("Y",) * s) for (r, s), coeff in c.F.items_sorted()]
        rels.append(Relation("curve-equation", "mat", eq))
    tables = [("zx-commutator", "X", zx_words)]
    if zy_words is not None:
        tables.append(("zy-commutator", "Y", zy_words))
    for name, t, words in tables:
        terms = [(1, ("Z", t)), (-1, (t, "Z"))]
        for coeff, word in words:
            for delta in _delta_slots(n_pairs):
                terms.append((-coeff, _map_word(word, delta)))
        rels.append(Relation(name, "mat", terms))
    scalar = [(1, (("w", i), ("v", i))) for i in range(n_pairs)]
    scalar.append((n, ()))
    rels.append(Relation("framing-trace", "scalar", scalar))
    return rels


@dataclass(frozen=True, slots=True, repr=False)
class CMPoint:
    """Framed module (X, [Y,] Z, V, W) over Q for a curve model.

    A point is a representation of the framed quiver: X, [Y,] Z act on the
    vertex space Q^n, and the framing space Q^n_inf maps in by V (n x n_inf,
    the columns v_i) and out by W (n_inf x n, the rows w_i); n and n_inf are
    read off the shapes.  Y is present exactly for plane models; the framing
    may be empty.  Construction checks shapes only; use verify_relations for
    the defining equations.
    """

    curve: curvemod.CurveModel
    Xmat: Mat
    Ymat: Mat | None
    Zmat: Mat
    V: Mat
    W: Mat

    def __post_init__(self):
        n = self.n
        if self.Xmat.cols != n or (self.Zmat.rows, self.Zmat.cols) != (n, n):
            raise ValueError("X and Z must be square of one size")
        if self.curve.has_y:
            if self.Ymat is None or (self.Ymat.rows, self.Ymat.cols) != (n, n):
                raise ValueError("plane models need an n x n Y matrix")
        elif self.Ymat is not None:
            raise ValueError("Y is only defined for plane models")
        if self.V.cols != self.W.rows:
            raise ValueError("need matching framing vector lists")
        if self.V.rows != n or self.W.cols != n:
            raise ValueError("V must be n x n_inf and W n_inf x n")

    @property
    def n(self) -> int:
        return self.Xmat.rows

    @property
    def n_inf(self) -> int:
        return self.V.cols

    @property
    def weight(self):
        return (Fraction(1), Fraction(-self.n))

    def vertex_actions(self):
        """X, [Y,] Z: the actions on the vertex space."""
        acts = [self.Xmat, self.Zmat]
        if self.Ymat is not None:
            acts.insert(1, self.Ymat)
        return acts

    def symbol_value(self, sym):
        if sym == "X":
            return self.Xmat
        if sym == "Y":
            if self.Ymat is None:
                raise ValueError("point has no Y matrix")
            return self.Ymat
        if sym == "Z":
            return self.Zmat
        kind, i = sym
        if kind == "v":
            return Mat(QQ, self.n, 1, self.V.col(i))
        return Mat(QQ, 1, self.n, self.W.row(i))

    def __repr__(self):
        return "CMPoint(%r, n=%d)" % (self.curve, self.n)


def _int_form(m: Mat):
    """m as (N, d): integer rows N over one positive denominator d, m = N / d."""
    d = lcm(*[e.denominator for e in m.entries])
    return [[e.numerator * (d // e.denominator) for e in m.row(i)] for i in range(m.rows)], d


def _word_products(p: CMPoint):
    """One memoised word-product table per relation shape, as a function of
    (shape, word): () is the identity of the shape, a one-symbol word its
    symbol's matrix, and a longer word (its prefix) times (its last symbol).
    Products are in integer form (N, d): the rows and the denominators
    multiply, then their common gcd is divided out."""
    tables = {shape: {(): _int_form(Mat.identity(QQ, k))}
              for shape, k in (("mat", p.n), ("scalar", 1))}
    symbols = {}

    def product(shape, word):
        table = tables[shape]
        k = len(word)
        while word[:k] not in table:
            k -= 1
        N, d = table[word[:k]]
        for j in range(k, len(word)):
            if word[j] not in symbols:
                m = p.symbol_value(word[j])
                S, e = _int_form(m)
                symbols[word[j]] = S, e, [[r[b] for r in S] for b in range(m.cols)]
            S, e, cols = symbols[word[j]]
            if j:
                N = [[sum(map(mul, r, c)) for c in cols] for r in N]
                d *= e
                g = gcd(d, *[x for r in N for x in r])
                if g > 1:
                    N, d = [[x // g for x in r] for r in N], d // g
            else:
                N, d = S, e
            table[word[:j + 1]] = N, d
        return N, d

    return product


@dataclass(frozen=True, slots=True, repr=False)
class VerifyReport:
    """Named residual checks; ok iff every residual vanishes."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(name, res) for name, ok, res in self.entries if not ok]

    def __repr__(self):
        bits = ", ".join("%s=%s" % (name, "ok" if ok else "FAIL")
                         for name, ok, _ in self.entries)
        return "VerifyReport(%s)" % bits


def verify_relations(p: CMPoint) -> VerifyReport:
    """Evaluate every defining relation at the point; residuals must vanish."""
    entries = []
    if p.curve.kind == curvemod.TORUS:
        ok = p.n == 0 or p.Xmat.det() != 0
        entries.append(("x-invertible", ok, None))
    product = _word_products(p)
    for rel in relation_set(p.curve, p.n, p.n_inf):
        size = 1 if rel.shape == "scalar" else p.n
        terms = [(coeff, product(rel.shape, word)) for coeff, word in rel.terms]
        den = lcm(*[coeff.denominator * d for coeff, (_, d) in terms])
        acc = [0] * (size * size)
        for coeff, (N, d) in terms:
            f = coeff.numerator * (den // (coeff.denominator * d))
            for i, row in enumerate(N):
                for j, x in enumerate(row):
                    acc[i * size + j] += f * x
        res = Mat(QQ, size, size, [Fraction(e, den) for e in acc])
        entries.append((rel.name, not any(acc), res))
    return VerifyReport(entries)


# ---------------------------------------------------------------------------
# generic points
# ---------------------------------------------------------------------------


def generic_point(c: "curvemod.CurveModel", pts, alphas=None) -> CMPoint:
    """Rank-n point built from n distinct curve points and diagonal parameters.

    Line/torus: pts is a list of x-values (torus: nonzero), pairwise distinct.
    Plane models: pts is a list of (x, y) on the curve with the x-values
    pairwise distinct and the y-values pairwise distinct.
    """
    pts = list(pts)
    n = len(pts)
    if n == 0:
        raise PreconditionError("need at least one point")
    if alphas is None:
        alphas = [Fraction(0)] * n
    alphas = [rat(a) for a in alphas]
    if len(alphas) != n:
        raise PreconditionError("need one diagonal parameter per point")

    if not c.has_y:
        xs = [rat(x) for x in pts]
        ys = None
    else:
        xs = [rat(x) for x, _ in pts]
        ys = [rat(y) for _, y in pts]
        for x, y in zip(xs, ys):
            if c.F.eval_frac(x, y) != 0:
                raise PreconditionError("point (%s, %s) does not lie on the curve" % (x, y))
        for i in range(n):
            for j in range(i + 1, n):
                if ys[i] == ys[j]:
                    raise PreconditionError(
                        "y-values must be pairwise distinct (got %s twice)" % (ys[i],))
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise PreconditionError(
                    "x-values must be pairwise distinct (got %s twice)" % (xs[i],))
    if c.kind == curvemod.TORUS and any(x == 0 for x in xs):
        raise PreconditionError("torus points need nonzero x-values")

    def zentry(i, j):
        if i == j:
            return alphas[i]
        if ys is None:
            return 1 / (xs[i] - xs[j])
        num = c.F.eval_frac(xs[j], ys[i])
        return num / ((xs[i] - xs[j]) * (ys[i] - ys[j]))

    X = Mat(QQ, n, n, [xs[i] if i == j else Fraction(0)
                       for i in range(n) for j in range(n)])
    Y = None
    if ys is not None:
        Y = Mat(QQ, n, n, [ys[i] if i == j else Fraction(0)
                           for i in range(n) for j in range(n)])
    Z = Mat(QQ, n, n, [zentry(i, j) for i in range(n) for j in range(n)])
    return CMPoint(c, X, Y, Z, Mat(QQ, n, 1, [Fraction(1)] * n),
                   Mat(QQ, 1, n, [Fraction(-1)] * n))


# ---------------------------------------------------------------------------
# homological invariants of framed modules
# ---------------------------------------------------------------------------


def _linear_cols(blocks, shapes):
    """Columns of a linear system in matrix unknowns.

    ``shapes`` lists (unknown, rows, cols) in column order; entry (a, b) of an
    unknown owns one column, row-major.  Each block (height, width, terms) is
    one matrix equation sum(coeff * L * U * R) over its terms (U, coeff, L, R),
    with L and R in the integer form of _int_form, contributing its entries
    row-major as rows.  L * E_ab * R is the outer product of column a of L and
    row b of R, so each column is written from those, skipping zero factors,
    on integers over one denominator per block; nonzero entries leave as
    Fractions.
    """
    first, ncols = {}, 0
    for u, r, c in shapes:
        first[u] = ncols
        ncols += r * c
    cols = [[] for _ in range(ncols)]
    for height, width, terms in blocks:
        den = lcm(*[coeff.denominator * dl * dr for _, coeff, (_, dl), (_, dr) in terms])
        part = [[0] * (height * width) for _ in range(ncols)]
        for u, coeff, (L, dl), (R, dr) in terms:
            f = coeff.numerator * (den // (coeff.denominator * dl * dr))
            for a, lcol in enumerate(zip(*L)):
                for b, rrow in enumerate(R):
                    acc = part[first[u] + a * len(R) + b]
                    for i, li in enumerate(lcol):
                        if li:
                            fl = f * li
                            for j, rj in enumerate(rrow):
                                if rj:
                                    acc[i * width + j] += fl * rj
        for col, rows in zip(cols, part):
            col.extend([Fraction(e, den) if e else 0 for e in rows])
    return cols


def _nullspace_dim(columns) -> int:
    return len(columns) - rational_rank(columns)


def commutant_dim(p: CMPoint) -> int:
    """Dimension of the endomorphism space Hom(p, p): pairs (M, C) with M
    commuting with every vertex action, M V = V C and C W = W M.  Value 1
    certifies End = Q (a brick), not that the module is simple."""
    return hom_dim(p, p)


def hom_dim(p: CMPoint, q: CMPoint) -> int:
    """dim Hom(p, q) of framed modules: pairs (f0, finf) intertwining every
    action and both framing arrows."""
    if (p.Ymat is None) != (q.Ymat is None):
        raise ValueError("modules must share the model shape")
    ip, iq, jp, jq = (_int_form(Mat.identity(QQ, k)) for k in (p.n, q.n, p.n_inf, q.n_inf))
    # f0 x - y f0 for each pair of vertex actions (x of p, y of q)
    blocks = [(q.n, p.n, [("f0", 1, iq, _int_form(x)), ("f0", -1, _int_form(y), ip)])
              for x, y in zip(p.vertex_actions(), q.vertex_actions())]
    blocks.append((q.n, p.n_inf, [("f0", 1, iq, _int_form(p.V)),
                                  ("finf", -1, _int_form(q.V), jp)]))
    blocks.append((q.n_inf, p.n, [("finf", 1, jq, _int_form(p.W)),
                                  ("f0", -1, _int_form(q.W), ip)]))
    shapes = [("f0", q.n, p.n), ("finf", q.n_inf, p.n_inf)]
    return _nullspace_dim(_linear_cols(blocks, shapes))


def ext1_dim(p: CMPoint, q: CMPoint) -> int:
    """dim Ext^1 of framed modules, assembled from the five-term exact sequence

        0 -> Hom(p,q) -> Hom_vx(p,q) (+) Hom(p_inf, q_inf)
          -> Hom(p_inf, C^{dim q}) -> Ext^1(p,q) -> Ext^1_vx(p,q) -> 0

    with Ext^1_vx taken equal to Hom_vx (the unframed theory's Euler form
    vanishes), so the two vertex terms cancel and
    ext1 = hom + n_inf(p) * (n(q) - n_inf(q)).  Hence hom - ext1 = euler_char
    holds by construction, for every input: no check built on it can fail.
    ROADMAP item 1 replaces this with the rank of the explicit complex.
    """
    return hom_dim(p, q) + p.n_inf * (q.n - q.n_inf)


def euler_char(p: CMPoint, q: CMPoint) -> int:
    """Euler form dim Hom - dim Ext^1; depends only on the dimension vectors."""
    return p.n_inf * (q.n_inf - q.n)


def trace_lift_check(p: CMPoint) -> bool:
    """Weight compatibility: (1, -n) paired with (n, n_inf) must vanish."""
    return Fraction(1) * p.n + Fraction(-p.n) * p.n_inf == 0


# ---------------------------------------------------------------------------
# tangent space
# ---------------------------------------------------------------------------


def tangent_dim(p: CMPoint) -> int:
    """Dimension of the solution space of the linearized relations at p.

    Gauge directions are not quotiented out: for a smooth point of the n-th
    space this is n^2 + 2n (moduli dimension 2n plus the gauge orbit n^2).
    """
    shapes = [("X", p.n, p.n), ("Z", p.n, p.n)]
    if p.Ymat is not None:
        shapes.append(("Y", p.n, p.n))
    for i in range(p.n_inf):
        shapes += [(("v", i), p.n, 1), (("w", i), 1, p.n)]
    product = _word_products(p)
    blocks = []
    for rel in relation_set(p.curve, p.n, p.n_inf):
        size = 1 if rel.shape == "scalar" else p.n
        blocks.append((size, size, [(sym, coeff, product(rel.shape, word[:pos]),
                                     product(rel.shape, word[pos + 1:]))
                                    for coeff, word in rel.terms
                                    for pos, sym in enumerate(word)]))
    return _nullspace_dim(_linear_cols(blocks, shapes))


# ---------------------------------------------------------------------------
# symmetry actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OneForm:
    """Regular one-form datum g(x, y): the twist sends Z to Z + g(X, Y).

    x_shift < 0 represents a Laurent coefficient x^x_shift * g (torus only).
    """

    curve: curvemod.CurveModel
    coefficient: BiPoly
    x_shift: int = 0

    def __post_init__(self):
        if self.x_shift < 0 and self.curve.kind != curvemod.TORUS:
            raise PreconditionError("negative x-powers need the torus model")
        if self.coefficient.degree_y() > 0 and not self.curve.has_y:
            raise PreconditionError("y-dependent coefficient needs a plane model")
        object.__setattr__(self, "x_shift", int(self.x_shift))


def lambda_act(p: CMPoint, r) -> CMPoint:
    """Torus symmetry with parameter r: Z -> Z + r X^{-1}.

    It is the twist by the logarithmic form r dx/x of x^r, so omega_twist
    computes it; defined on the torus only, at points where X is invertible.
    """
    if p.curve.kind != curvemod.TORUS:
        raise PreconditionError("the one-parameter action is defined on the torus only")
    return omega_twist(p, OneForm(p.curve, BiPoly.const(r), -1))


def omega_twist(p: CMPoint, form: OneForm) -> CMPoint:
    """Twist by a one-form coefficient: Z -> Z + g(X, Y)."""
    if form.curve != p.curve:
        raise ValueError("one-form belongs to a different curve")
    f, k = form.coefficient, form.x_shift
    if not k:
        return replace(p, Zmat=p.Zmat.add(bipoly_apply(f, p.Xmat, p.Ymat)))
    # X**k by repeated squaring, X**-1 in place of X for k < 0
    try:
        base = p.Xmat if k > 0 else p.Xmat.inv()
    except ZeroDivisionError:
        raise PreconditionError("X is singular: the point is not x-invertible") from None
    k, Xk = abs(k), None
    while k:
        if k & 1:
            Xk = base if Xk is None else Xk.mul(base)
        k >>= 1
        if k:
            base = base.mul(base)
    if set(f.terms) <= {(0, 0)}:  # a constant form scales X**k
        G = Xk.scalar_mul(p.Xmat.ring.from_frac(f.terms.get((0, 0), 0)))
    else:
        G = bipoly_apply(f, p.Xmat, p.Ymat).mul(Xk)
    return replace(p, Zmat=p.Zmat.add(G))
