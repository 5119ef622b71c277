"""Calogero-Moser matrix data attached to a curve model.

A point of the n-th Calogero-Moser space is a tuple of matrices (X, [Y,] Z)
with framing vectors (v_i, w_i) satisfying the deformed commutation relations
of the curve, taken up to simultaneous conjugation.  This module builds such
points, verifies the relations, computes linear-algebra invariants (commutant,
tangent space, Hom/Ext dimensions) and applies the symmetry actions.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Mat, QQ, rat, bipoly_apply, rational_rank
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


class Relation:
    __slots__ = ("name", "shape", "terms")

    def __init__(self, name, shape, terms):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", tuple((rat(c), tuple(w)) for c, w in terms))

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

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
    dd = curvemod.derivation_data(c)
    rels = []
    if c.has_y:
        rels.append(Relation("xy-commutator", "mat",
                             [(1, ("X", "Y")), (-1, ("Y", "X"))]))
        eq = [(coeff, ("X",) * r + ("Y",) * s) for (r, s), coeff in c.F.items_sorted()]
        rels.append(Relation("curve-equation", "mat", eq))
    tables = [("zx-commutator", "X", dd.zx_words)]
    if dd.zy_words is not None:
        tables.append(("zy-commutator", "Y", dd.zy_words))
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


class CMPoint:
    """Matrix tuple (X, [Y,] Z, v_i, w_i) over Q for a curve model.

    Y is present exactly for plane models.  Construction checks shapes only;
    use verify_relations for the defining equations.
    """

    __slots__ = ("curve", "n", "Xmat", "Ymat", "Zmat", "vs", "ws")

    def __init__(self, curve_model, n, Xmat, Ymat, Zmat, vs, ws):
        if n < 0:
            raise ValueError("negative rank")
        vs = tuple(vs)
        ws = tuple(ws)
        if len(vs) != len(ws) or not vs:
            raise ValueError("need matching nonempty framing vector lists")
        for m, label in ((Xmat, "X"), (Zmat, "Z")):
            if m.rows != n or m.cols != n:
                raise ValueError("%s must be %d x %d" % (label, n, n))
        if curve_model.has_y:
            if Ymat is None or Ymat.rows != n or Ymat.cols != n:
                raise ValueError("plane models need an n x n Y matrix")
        elif Ymat is not None:
            raise ValueError("Y is only defined for plane models")
        for v in vs:
            if v.rows != n or v.cols != 1:
                raise ValueError("framing columns must be n x 1")
        for w in ws:
            if w.rows != 1 or w.cols != n:
                raise ValueError("framing rows must be 1 x n")
        object.__setattr__(self, "curve", curve_model)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "Xmat", Xmat)
        object.__setattr__(self, "Ymat", Ymat)
        object.__setattr__(self, "Zmat", Zmat)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "ws", ws)

    def __setattr__(self, name, value):
        raise AttributeError("CMPoint is immutable")

    @property
    def n_inf(self) -> int:
        return len(self.vs)

    @property
    def weight(self):
        return (Fraction(1), Fraction(-self.n))

    def with_z(self, newZ) -> "CMPoint":
        return CMPoint(self.curve, self.n, self.Xmat, self.Ymat, newZ, self.vs, self.ws)

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
        return self.vs[i] if kind == "v" else self.ws[i]

    def __eq__(self, other):
        if not isinstance(other, CMPoint):
            return NotImplemented
        return (self.curve == other.curve and self.n == other.n
                and self.Xmat == other.Xmat and self.Ymat == other.Ymat
                and self.Zmat == other.Zmat and self.vs == other.vs
                and self.ws == other.ws)

    def __repr__(self):
        return "CMPoint(%r, n=%d)" % (self.curve, self.n)


def _word_products(p: CMPoint):
    """One memoised word-product table per relation shape, as a function of
    (shape, word): () is the identity of the shape, a one-symbol word its
    symbol's matrix, and a longer word (its prefix) times (its last symbol)."""
    tables = {"mat": {(): Mat.identity(QQ, p.n)}, "scalar": {(): Mat.identity(QQ, 1)}}

    def product(shape, word):
        table = tables[shape]
        k = len(word)
        while word[:k] not in table:
            k -= 1
        m = table[word[:k]]
        for j in range(k, len(word)):
            sym = p.symbol_value(word[j])
            m = table[word[:j + 1]] = m.mul(sym) if j else sym
        return m

    return product


class VerifyReport:
    """Named residual checks; ok iff every residual vanishes."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("VerifyReport is immutable")

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
        res = Mat.zeros(QQ, size, size)
        for coeff, word in rel.terms:
            res = res.add(product(rel.shape, word).scalar_mul(coeff))
        entries.append((rel.name, res.is_zero(), res))
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
    v = Mat(QQ, n, 1, [Fraction(1)] * n)
    w = Mat(QQ, 1, n, [Fraction(-1)] * n)
    return CMPoint(c, n, X, Y, Z, [v], [w])


# ---------------------------------------------------------------------------
# framed modules and homological invariants
# ---------------------------------------------------------------------------


class BModule:
    """Framed module: vertex space of dim n, framing space of dim n_inf,
    actions X, [Y,] Z on the vertex space, arrows V: framing -> vertex and
    W: vertex -> framing (aggregated as n x n_inf and n_inf x n matrices)."""

    __slots__ = ("n", "n_inf", "Xmat", "Ymat", "Zmat", "V", "W")

    def __init__(self, n, n_inf, Xmat, Ymat, Zmat, V, W):
        if Xmat.rows != n or Xmat.cols != n or Zmat.rows != n or Zmat.cols != n:
            raise ValueError("vertex actions must be n x n")
        if Ymat is not None and (Ymat.rows != n or Ymat.cols != n):
            raise ValueError("Y action must be n x n")
        if V.rows != n or V.cols != n_inf or W.rows != n_inf or W.cols != n:
            raise ValueError("framing arrows must be n x n_inf and n_inf x n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_inf", n_inf)
        object.__setattr__(self, "Xmat", Xmat)
        object.__setattr__(self, "Ymat", Ymat)
        object.__setattr__(self, "Zmat", Zmat)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)

    def __setattr__(self, name, value):
        raise AttributeError("BModule is immutable")

    @classmethod
    def from_point(cls, p: CMPoint) -> "BModule":
        k = p.n_inf
        V = Mat(QQ, p.n, k, [p.vs[j].entry(i, 0) for i in range(p.n) for j in range(k)])
        W = Mat(QQ, k, p.n, [p.ws[i].entry(0, j) for i in range(k) for j in range(p.n)])
        return cls(p.n, k, p.Xmat, p.Ymat, p.Zmat, V, W)

    @classmethod
    def direct_sum(cls, a: "BModule", b: "BModule") -> "BModule":
        if (a.Ymat is None) != (b.Ymat is None):
            raise ValueError("summands must share the model shape")

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
        return cls(a.n + b.n, a.n_inf + b.n_inf, block(a.Xmat, b.Xmat), Y,
                   block(a.Zmat, b.Zmat), block(a.V, b.V), block(a.W, b.W))

    def vertex_actions(self):
        acts = [self.Xmat, self.Zmat]
        if self.Ymat is not None:
            acts.insert(1, self.Ymat)
        return acts

    def __repr__(self):
        return "BModule(n=%d, n_inf=%d)" % (self.n, self.n_inf)


def _as_module(m) -> BModule:
    if isinstance(m, CMPoint):
        return BModule.from_point(m)
    return m


def _linear_cols(blocks, shapes):
    """Columns of a linear system in matrix unknowns.

    ``shapes`` lists (unknown, rows, cols) in column order; entry (a, b) of an
    unknown owns one column, row-major.  Each block is one matrix equation
    sum(coeff * L * U * R) over its terms (U, coeff, L, R), contributing its
    entries row-major as rows.  L * E_ab * R is the outer product of column a
    of L and row b of R, so each column is written from those, skipping zero
    factors.
    """
    first, ncols = {}, 0
    for u, r, c in shapes:
        first[u] = ncols
        ncols += r * c
    cols = [[] for _ in range(ncols)]
    for terms in blocks:
        height, width = terms[0][2].rows, terms[0][3].cols
        part = [[0] * (height * width) for _ in range(ncols)]
        for u, coeff, L, R in terms:
            rrows = [R.row(b) for b in range(R.rows)]
            for a in range(L.cols):
                lcol = L.col(a)
                for b, rrow in enumerate(rrows):
                    acc = part[first[u] + a * R.rows + b]
                    for i, li in enumerate(lcol):
                        if li:
                            f = coeff * li
                            for j, rj in enumerate(rrow):
                                if rj:
                                    acc[i * width + j] += f * rj
        for col, rows in zip(cols, part):
            col.extend(rows)
    return cols


def _nullspace_dim(columns) -> int:
    return len(columns) - rational_rank(columns)


def commutant_dim(m) -> int:
    """Dimension of the endomorphism space Hom(m, m): pairs (M, C) with M
    commuting with every vertex action, M V = V C and C W = W M.  Value 1
    certifies that the module is simple."""
    mod = _as_module(m)
    return hom_dim(mod, mod)


def hom_dim(U, V) -> int:
    """dim Hom of framed modules: pairs (f0, finf) intertwining every action
    and both framing arrows."""
    mu, mv = _as_module(U), _as_module(V)
    if (mu.Ymat is None) != (mv.Ymat is None):
        raise ValueError("modules must share the model shape")
    iu, iv = Mat.identity(QQ, mu.n), Mat.identity(QQ, mv.n)
    # f0 x - y f0 for each pair of vertex actions (x of mu, y of mv)
    blocks = [[("f0", 1, iv, x), ("f0", -1, y, iu)]
              for x, y in zip(mu.vertex_actions(), mv.vertex_actions())]
    blocks.append([("f0", 1, iv, mu.V),
                   ("finf", -1, mv.V, Mat.identity(QQ, mu.n_inf))])
    blocks.append([("finf", 1, Mat.identity(QQ, mv.n_inf), mu.W),
                   ("f0", -1, mv.W, iu)])
    shapes = [("f0", mv.n, mu.n), ("finf", mv.n_inf, mu.n_inf)]
    return _nullspace_dim(_linear_cols(blocks, shapes))


def ext1_dim(U, V) -> int:
    """dim Ext^1 of framed modules, assembled from the five-term exact sequence

        0 -> Hom(U,V) -> Hom_vx(U,V) (+) Hom(U_inf, V_inf)
          -> Hom(U_inf, C^{dim V}) -> Ext^1(U,V) -> Ext^1_vx(U,V) -> 0

    with Ext^1_vx taken equal to Hom_vx (the unframed theory's Euler form
    vanishes), so the two vertex terms cancel and
    ext1 = hom + n_inf(U) * (n(V) - n_inf(V)).  Hence hom - ext1 = euler_char
    holds by construction, for every input: no check built on it can fail.
    ROADMAP item 1 replaces this with the rank of the explicit complex.
    """
    mu, mv = _as_module(U), _as_module(V)
    return hom_dim(mu, mv) + mu.n_inf * (mv.n - mv.n_inf)


def euler_char(U, V) -> int:
    """Euler form dim Hom - dim Ext^1; depends only on the dimension vectors."""
    mu, mv = _as_module(U), _as_module(V)
    return mu.n_inf * (mv.n_inf - mv.n)


def trace_lift_check(m) -> bool:
    """Weight compatibility: (1, -n) paired with (n, n_inf) must vanish."""
    mod = _as_module(m)
    return Fraction(1) * mod.n + Fraction(-mod.n) * mod.n_inf == 0


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
        blocks.append([(sym, coeff, product(rel.shape, word[:pos]),
                        product(rel.shape, word[pos + 1:]))
                       for coeff, word in rel.terms for pos, sym in enumerate(word)])
    return _nullspace_dim(_linear_cols(blocks, shapes))


# ---------------------------------------------------------------------------
# symmetry actions
# ---------------------------------------------------------------------------


class OneForm:
    """Regular one-form datum g(x, y): the twist sends Z to Z + g(X, Y).

    x_shift < 0 represents a Laurent coefficient x^x_shift * g (torus only).
    """

    __slots__ = ("curve", "coefficient", "x_shift")

    def __init__(self, curve_model, coefficient, x_shift=0):
        if x_shift < 0 and curve_model.kind != curvemod.TORUS:
            raise ValueError("negative x-powers need the torus model")
        if coefficient.degree_y() > 0 and not curve_model.has_y:
            raise ValueError("y-dependent coefficient needs a plane model")
        object.__setattr__(self, "curve", curve_model)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "x_shift", int(x_shift))

    def __setattr__(self, name, value):
        raise AttributeError("OneForm is immutable")


def lambda_act(p: CMPoint, r) -> CMPoint:
    """Torus symmetry with parameter r: Z -> Z + r X^{-1}.

    Matches the twist by the logarithmic form of x^r; defined on the torus
    only, at points where X is invertible.
    """
    if p.curve.kind != curvemod.TORUS:
        raise ValueError("the one-parameter action is defined on the torus only")
    r = rat(r)
    return p.with_z(p.Zmat.add(_x_inverse(p).scalar_mul(r)))


def _x_inverse(p: CMPoint) -> Mat:
    try:
        return p.Xmat.inv()
    except ZeroDivisionError:
        raise PreconditionError("X is singular: the point is not x-invertible") from None


def omega_twist(p: CMPoint, form: OneForm) -> CMPoint:
    """Twist by a one-form coefficient: Z -> Z + g(X, Y)."""
    if form.curve != p.curve:
        raise ValueError("one-form belongs to a different curve")
    G = bipoly_apply(form.coefficient, p.Xmat, p.Ymat)
    if form.x_shift:
        k = form.x_shift
        step = p.Xmat if k > 0 else _x_inverse(p)
        for _ in range(abs(k)):
            G = G.mul(step)
    return p.with_z(p.Zmat.add(G))
