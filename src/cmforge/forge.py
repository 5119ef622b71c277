"""Fractional-ideal generators from Calogero-Moser matrix data.

Implements the correspondence at the level of formulas: the substitution map
delta_V, the correction element kappa, and the generator emission

    det(X - x Id) * v_i,   det(Y - y Id) * v_i  (plane models),
    det(Z - z Id) * kappa(v_i)   (normal-ordered where supported).

kappa and delta_V are ordered products: each matrix factor is univariate in
one operator symbol (x, y, or the derivation symbol z), the written
left-to-right order is the operator order, and normal_order resolves the
noncommutativity across factors once.  A factor's entries are rational
functions of its symbol, held as Coeffs of the line's ring in the symbol's
own variable; a resolvent (A - t Id)^{-1} is adj(A - t Id) / det(A - t Id),
its adjugate columns from _adjugate_times.

ideal_generators does not go through them on the line, the torus and
hyperelliptic curves.  There the z-generator is written in closed form:
adj(A - t Id) * v comes from a recurrence over Q (_adjugate_times), so the
z^k coefficient of det(Z - z Id) * kappa(v) is e_k = N_k / gx with N_k a
polynomial (gx the characteristic polynomial of X), and d^k * e_k is
normal-ordered by sum_m C(k, m) e_k^(k-m) d^m, each derivative kept as a
numerator over a power of gx.  No z-denominator can arise on that path; it
can only in kappa and normal_order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Mat, QQ, UniPoly, char_poly, bipoly_apply
from .errors import PreconditionError
from . import curve as curvemod
from .cmspace import CMPoint, verify_relations
from .diffop import Coeff, CoeffRing, DiffOp, FractionalIdeal, coeff_ring_for

_SYMBOLS = (None, "x", "y", "z")
# entries of the x-, y- and z-factors: rational functions of one variable
_RF = CoeffRing()


class OrderedProduct:
    """Left-to-right product of matrix factors.

    Each factor is a pair (symbol, m): symbol None for a scalar-entried
    matrix over Q, otherwise "x", "y" or "z" with m over the rational
    function field in that symbol (entries Coeffs of _RF in that variable).
    Adjacent factors carry distinct symbols unless one is scalar.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        fs = tuple((sym, m) for sym, m in factors)
        for sym, _ in fs:
            if sym not in _SYMBOLS:
                raise ValueError("unknown factor symbol %r" % (sym,))
        for (s1, _), (s2, _) in zip(fs, fs[1:]):
            if s1 is not None and s1 == s2:
                raise ValueError("adjacent factors share the symbol %r" % (s1,))
        for (_, m1), (_, m2) in zip(fs, fs[1:]):
            if m1.cols != m2.rows:
                raise ValueError("factor shapes do not chain")
        object.__setattr__(self, "factors", fs)

    def __setattr__(self, name, value):
        raise AttributeError("OrderedProduct is immutable")

    @property
    def rows(self) -> int:
        return self.factors[0][1].rows if self.factors else 0

    @property
    def cols(self) -> int:
        return self.factors[-1][1].cols if self.factors else 0

    def symbols(self):
        return tuple(sym for sym, _ in self.factors)

    def __repr__(self):
        return "OrderedProduct(%s)" % " * ".join(
            "%s[%dx%d]" % (sym or "const", m.rows, m.cols) for sym, m in self.factors)


class KappaElement:
    """kappa(v_i): a leading scalar plus a sum of ordered-product corrections.

    Multiplying by det(Z - z Id) and normal ordering clears every
    z-denominator on the supported models.
    """

    __slots__ = ("curve", "index", "leading", "products")

    def __init__(self, curve_model, index, leading, products):
        object.__setattr__(self, "curve", curve_model)
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "leading", Fraction(leading))
        object.__setattr__(self, "products", tuple(products))

    def __setattr__(self, name, value):
        raise AttributeError("KappaElement is immutable")

    def __repr__(self):
        return "KappaElement(%r, i=%d, %d correction terms)" % (
            self.curve, self.index, len(self.products))


class SymbolicGenerators:
    """Generator emission for a general plane model, kept symbolic.

    gen_x and gen_y are the characteristic polynomials (order-0 operators);
    the z-generator is det_z plus the ordered-product correction, not
    normal-ordered: general plane models carry no operator coefficient ring
    here (documented limitation).
    """

    __slots__ = ("curve", "gen_x", "gen_y", "det_z", "correction")

    def __init__(self, curve_model, gen_x, gen_y, det_z, correction):
        object.__setattr__(self, "curve", curve_model)
        object.__setattr__(self, "gen_x", gen_x)
        object.__setattr__(self, "gen_y", gen_y)
        object.__setattr__(self, "det_z", det_z)
        object.__setattr__(self, "correction", correction)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicGenerators is immutable")


# ---------------------------------------------------------------------------
# factor construction
# ---------------------------------------------------------------------------


def _lift(m: Mat, ring) -> Mat:
    return Mat(ring, m.rows, m.cols, [ring.from_frac(e) for e in m.entries])


def _resolvent(A: Mat, t: str) -> Mat:
    """(A - t Id)^{-1} = adj(A - t Id) / det(A - t Id) for A over Q.

    Column j of the adjugate is adj(A - t Id) e_j from _adjugate_times; the
    determinant is the characteristic polynomial, never zero over Q(t)."""
    n = A.rows
    f = char_poly(A, t)
    cols = [_adjugate_times(A, f, [int(i == j) for i in range(n)]) for j in range(n)]
    return Mat(_RF, n, n, [Coeff(_RF, UniPoly(t, [c[i] for c in cols[j]]), None, f)
                           for i in range(n) for j in range(n)])


def _framing_sum(p: CMPoint) -> Mat:
    acc = Mat.zeros(QQ, p.n, p.n)
    for v, w in zip(p.vs, p.ws):
        acc = acc.add(v.mul(w))
    return acc.transpose()


def _vbar_t(p: CMPoint) -> Mat:
    """Aggregated framing columns, transposed: n_inf x n."""
    return Mat(QQ, p.n_inf, p.n,
               [p.vs[a].entry(b, 0) for a in range(p.n_inf) for b in range(p.n)])


def _numerator_factor(p: CMPoint, ker) -> Mat | None:
    """Numerator legs of the nu kernel, substituted: a Mat over Q(y) (or Q)."""
    n = p.n
    uses_y = any(j or l for _, (_, j), (_, l) in ker.terms) or "y" in ker.denom_factors
    ring = _RF if uses_y else QQ
    Xt = p.Xmat.transpose()
    Yt = p.Ymat.transpose() if p.Ymat is not None else None
    acc = Mat.zeros(ring, n, n)
    trivial = True
    for coeff, (i, j), (k, l) in ker.terms:
        if i:
            raise ValueError("left-leg x powers are not produced by any model")
        term = Mat.identity(QQ, n)
        for _ in range(k):
            term = term.mul(Xt)
        for _ in range(l):
            term = term.mul(Yt)
        term = _lift(term, ring) if uses_y else term
        scale = ring.from_frac(coeff)
        if j:
            y = _RF.from_poly(UniPoly.x("y"))
            for _ in range(j):
                scale = scale * y
        acc = acc.add(term.scalar_mul(scale))
        trivial = trivial and not (j or k or l) and coeff == 1
    if trivial and len(ker.terms) == 1:
        return None
    return acc


def delta_V(p: CMPoint) -> OrderedProduct:
    """Substitute the transposed representation into the nu kernel and close
    with the framing matrix: delta_V(d) = nu_V(d)[sum_i v_i w_i]."""
    ker = curvemod.nu_kernel(p.curve)
    factors = []
    if "x" in ker.denom_factors:
        factors.append(("x", _resolvent(p.Xmat.transpose(), "x")))
    num = _numerator_factor(p, ker)
    if "y" in ker.denom_factors:
        res_y = _resolvent(p.Ymat.transpose(), "y")
        factors.append(("y", res_y.mul(num) if num is not None else res_y))
    elif num is not None:
        factors.append((None if num.ring == QQ else "y", num))
    factors.append((None, _framing_sum(p)))
    return OrderedProduct(factors)


def _correction_factors(p: CMPoint, i: int, z_factor: Mat) -> list:
    """Shared tail of the kappa correction: x-resolvent, optional y-factor,
    framing covector.  z_factor already carries the sign and v-bar row."""
    c = p.curve
    factors = [("z", z_factor), ("x", _resolvent(p.Xmat.transpose(), "x"))]
    if c.has_y:
        Yt = p.Ymat.transpose()
        ydiag = Mat.identity(_RF, p.n).scalar_mul(_RF.from_poly(UniPoly.x("y")))
        if c.is_hyperelliptic:
            yfac = _lift(Yt, _RF).add(ydiag)
        else:
            liftX = _lift(p.Xmat.transpose(), _RF)
            yfac = _resolvent(Yt, "y").mul(bipoly_apply(c.F, liftX, ydiag))
        factors.append(("y", yfac))
    factors.append((None, p.ws[i].transpose()))
    return factors


def _kappa_sign(c) -> int:
    # plus in the general plane closed form; minus once the y-pole is folded
    # (hyperelliptic) and in the line/torus form
    return 1 if (c.has_y and not c.is_hyperelliptic) else -1


def kappa(p: CMPoint, i: int = 0) -> KappaElement:
    """Correction element kappa(v_i) in closed form for the curve model."""
    if not 0 <= i < p.n_inf:
        raise ValueError("framing index out of range")
    if p.n == 0:
        return KappaElement(p.curve, i, 1, ())
    zfac = _lift(_vbar_t(p), _RF).mul(_resolvent(p.Zmat.transpose(), "z"))
    zfac = zfac.scalar_mul(_RF.from_frac(_kappa_sign(p.curve)))
    return KappaElement(p.curve, i, 1,
                        (OrderedProduct(_correction_factors(p, i, zfac)),))


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


def _coeff_in(rf: Coeff, ring: CoeffRing, sym: str) -> Coeff:
    """A rational function of the factor symbol x or y, as an element of ring."""
    if sym == "x":
        return Coeff(ring, rf.a, None, rf.den)
    if sym == "y":
        if ring.P is None:
            raise ValueError("y-dependent factor needs the hyperelliptic ring")
        if rf.den.degree() > 0:
            raise ValueError("rational y-dependence cannot be normal-ordered")
        return _ypoly_to_coeff(rf.a, ring)
    raise ValueError("unsupported factor symbol %r" % (sym,))


def normal_order(expr: OrderedProduct, ring: CoeffRing) -> DiffOp:
    """Collapse an ordered product into a normal-form operator.

    The z-dependence must be polynomial (it is, once the det(Z - z Id) prefix
    has been folded into an adjugate) and must precede every x/y factor; the
    product must collapse to 1 x 1.  z-powers are moved rightmost by the
    Leibniz rule through DiffOp multiplication.
    """
    zpart = None
    rest = None
    for sym, m in expr.factors:
        if sym == "z" or (sym is None and rest is None):
            if rest is not None:
                raise ValueError("z-factor appears right of a coefficient factor")
            lifted = _lift(m, _RF) if sym is None else m
            zpart = lifted if zpart is None else zpart.mul(lifted)
            continue
        if sym is None:
            conv = _lift(m, ring)
        else:
            conv = m.map_entries(lambda rf: _coeff_in(rf, ring, sym), ring)
        rest = conv if rest is None else rest.mul(conv)

    if zpart is None:
        zpart = Mat.identity(_RF, rest.rows if rest is not None else 1)
    degree = 0
    for e in zpart.entries:
        if e.den.degree() > 0:
            raise ValueError("residual z-denominator: %r" % (e.den,))
        degree = max(degree, e.a.degree())
    out = DiffOp.zero(ring)
    partial = DiffOp.partial(ring)
    power = DiffOp(ring, [ring.one()])
    for k in range(degree + 1):
        Ak = Mat(ring, zpart.rows, zpart.cols,
                 [ring.from_frac(e.a.coeff(k)) for e in zpart.entries])
        ck = Ak.mul(rest) if rest is not None else Ak
        if ck.rows != 1 or ck.cols != 1:
            raise ValueError("ordered product does not collapse to a scalar operator")
        out = out.add(power.mul(DiffOp.from_coeff(ck.entry(0, 0))))
        power = power.mul(partial)
    return out


# ---------------------------------------------------------------------------
# generator emission
# ---------------------------------------------------------------------------


def _ypoly_to_coeff(q: UniPoly, ring: CoeffRing) -> Coeff:
    """Reduce a polynomial in y modulo y^2 = P(x) into a coefficient element."""
    P = ring.P
    a = UniPoly("x", [])
    b = UniPoly("x", [])
    pm = UniPoly.const("x", 1)
    for s, cc in enumerate(q.coeffs):
        if s and s % 2 == 0:
            pm = pm * P
        if cc == 0:
            continue
        if s % 2 == 0:
            a = a + pm * cc
        else:
            b = b + pm * cc
    return Coeff(ring, a, b)


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


def _z_rows(p: CMPoint, det_z: UniPoly) -> list:
    """Rows u_k over Q with sign * vbar^t * adj(Z^t - z Id) = sum_k z^k u_k
    (one framing pair).  adj(Z^t - z Id) = adj(Z - z Id)^t, so u_k is sign
    times the z^k vector of adj(Z - z Id) * vbar."""
    sign = _kappa_sign(p.curve)
    return [[sign * e for e in c]
            for c in _adjugate_times(p.Zmat, det_z, p.vs[0].col(0))]


def _x_numerators(us: list, cols: list) -> list:
    """N_k = sum_m x^m (u_k . c_m): u_k times sum_m x^m c_m, as a polynomial."""
    return [UniPoly("x", [sum(a * b for a, b in zip(u, c)) for c in cols])
            for u in us]


def _z_generator(p: CMPoint, ring: CoeffRing, gx: UniPoly, det_z: UniPoly) -> DiffOp:
    """det(Z - z Id) + sum_k d^k e_k, normal-ordered, for a line, torus or
    hyperelliptic point with one framing pair.

    e_k = u_k (X^t - x Id)^{-1} [(Y^t + y Id)] w^t, and (X^t - x Id)^{-1} is
    adj(X^t - x Id) / gx, so e_k = (A_k + B_k y) / gx: A_k from the column
    adj(X^t - x Id) w^t (Y^t w^t on the hyperelliptic curve, whose B_k comes
    from w^t).  d^k e_k = sum_m C(k, m) e_k^(k-m) d^m; the j-th derivative
    of (A + B y) / gx is kept as its numerator over gx^(j+1), and each
    coefficient of d^m is built once over gx^(n-m).
    """
    n = p.n
    us = _z_rows(p, det_z)
    Xt = p.Xmat.transpose()
    w = p.ws[0].row(0)
    if ring.P is not None:
        # (Y^t + y Id) w^t = (w Y)^t + y w^t
        As = _x_numerators(us, _adjugate_times(Xt, gx, p.ws[0].mul(p.Ymat).row(0)))
        Bs = _x_numerators(us, _adjugate_times(Xt, gx, w))
    else:
        As = _x_numerators(us, _adjugate_times(Xt, gx, w))
        Bs = [None] * n
    dg = gx.derivative()

    def derive(a, b, j):
        # numerator over gx^(j+2) of the derivative of (a + b y) / gx^(j+1)
        (za, zb), (wa, wb) = ring.derivation(a, b)
        s = dg * (j + 1)
        return za * gx - wa * s, None if zb is None else zb * gx - wb * s

    gpow = [UniPoly.const("x", 1)]
    for _ in range(n):
        gpow.append(gpow[-1] * gx)
    # numerators of the d^m coefficient over gx^(n-m), seeded with det_z
    num_a = [gpow[n - m] * det_z.coeff(m) for m in range(n + 1)]
    num_b = [UniPoly("x", [])] * (n + 1)
    for k, (a, b) in enumerate(zip(As, Bs)):
        # e_k^(j) sits over gx^(j+1) = gx^(k-m+1); lift it to gx^(n-m)
        lift = gpow[n - 1 - k]
        for j in range(k + 1):
            m = k - j
            scale = lift * math.comb(k, m)
            num_a[m] = num_a[m] + a * scale
            if b is not None:
                num_b[m] = num_b[m] + b * scale
            if j < k:
                a, b = derive(a, b, j)
    return DiffOp(ring, [Coeff(ring, num_a[m], num_b[m], gpow[n - m])
                         for m in range(n + 1)])


def ideal_generators(p: CMPoint):
    """Emit the fractional-ideal generators for a verified point.

    Returns a FractionalIdeal over the curve's coefficient ring for the
    line, torus and hyperelliptic models; a SymbolicGenerators container for
    a general plane model.  Requires the trivial-ideal tier (one framing
    pair); the general tier stays at the kappa level.
    """
    report = verify_relations(p)
    if not report.ok:
        raise PreconditionError("point fails the defining relations: %r" % (report,),
                                report)
    c = p.curve
    general_plane = c.has_y and not c.is_hyperelliptic
    ring = None if general_plane else coeff_ring_for(c)

    if p.n == 0:
        one_x = UniPoly.const("x", 1)
        if general_plane:
            return SymbolicGenerators(c, one_x, UniPoly.const("y", 1),
                                      UniPoly.const("z", 1), None)
        return FractionalIdeal(c, [DiffOp(ring, [ring.one()])])
    if p.n_inf != 1:
        raise ValueError("generator emission needs the trivial-ideal tier "
                         "(one framing pair); use kappa for the general tier")

    gx = char_poly(p.Xmat, "x")
    det_z = char_poly(p.Zmat, "z")

    if general_plane:
        zrow = Mat(_RF, 1, p.n, [Coeff(_RF, UniPoly("z", col))
                                 for col in zip(*_z_rows(p, det_z))])
        correction = OrderedProduct(_correction_factors(p, 0, zrow))
        gy = char_poly(p.Ymat, "y")
        return SymbolicGenerators(c, gx, gy, det_z, correction)

    gens = [DiffOp(ring, [ring.from_poly(gx)])]
    if c.is_hyperelliptic:
        gens.append(DiffOp(ring, [_ypoly_to_coeff(char_poly(p.Ymat, "y"), ring)]))
    gens.append(_z_generator(p, ring, gx, det_z))
    return FractionalIdeal(c, gens)
