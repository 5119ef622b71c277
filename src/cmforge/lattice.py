"""Hermite forms and filtration lattices for operator ideals on the line and torus.

Operators are compared through their coefficient rows over Q[x]: every
generator is cleared to polynomial form by one recorded right multiplier
s**M (``clearing_for``: s squarefree, M read off the pole orders by a
valuation argument; degree n**2 on forge output).  The rows are computed on
ints from the generators' numerators, one exact division by the generator's
denominator D per entry (``_cleared_rows``), ``_levels`` yields the
derivative rows of the level k span level by level, and codimensions reduce
to Hermite forms, which ``codim`` keeps in the descent's integer rows.
Right multiplication by a polynomial f is triangular on the rows with f on
the diagonal, so it scales every Hermite pivot by f: the codimensions do not
depend on the multiplier, and ``codim``'s ambient pivot is that of the s**M
span.  One descent (``_descend``) gives the Hermite form over Q[x] (``hnf``)
and, on the torus, over Q[x, 1/x] (``x_saturate``), where x is a unit: there
pivots are normalised in their row's own frame (the row over the pivot's
x-power) and entries above a pivot are reduced into a residue window of
that frame.  Equality of spans (``module_equal``) builds no canonical form:
it compares the pivots of the echelon half of the descent (``_echelon``)
and tests containment.  Rows are tuples of UniPoly in x, and a Hermite form
is the tuple of its nonzero rows.  ``twist_ideal`` applies the twist by a
one-form (d -> d - g) to an ideal's generators; ``unit_conjugate`` is its
r dx/x case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, gcd, lcm

from .cmspace import OneForm
from .curve import AFFINE_LINE, TORUS
from .diffop import DiffOp, FractionalIdeal, clearing_denominator
from .errors import PreconditionError
from .exact import BiPoly, UniPoly, _poly, _pseudo_divmod


def hnf(rows) -> tuple:
    """Row Hermite form over Q[x] of rows of UniPoly: its nonzero rows.

    Pivots are monic and entries above a pivot have strictly lower degree,
    so equal row spans produce identical forms; the rank is the number of
    rows returned.  No unimodular factor is built.  This is the Q[x] case of
    the Hermite descent ``_descend``.
    """
    ints = _int_rows(rows)
    return _poly_rows(ints[:_descend(ints, len(rows[0]) if rows else 0, laurent=False)])


def x_saturate(rows) -> tuple:
    """Canonical form of the row span over Q[x, 1/x] of rows of UniPoly, one
    row per rank.

    Clearing a torus ideal multiplies generators by x-power units, which can
    change the Q[x] row span but not the Laurent span; this form depends
    only on the Laurent span.  It is the Laurent case of ``_descend``, with
    no call to ``hnf``: each row has a pivot that is monic with a nonzero
    constant term in the row's own frame (the row divided by the pivot's
    x-power), and an entry above a pivot of Laurent length L lies in the
    window [0, L) of its row's frame.  Each row is returned shifted to
    x-valuation 0, as a row over Q[x].
    """
    ints = [_strip(row) for row in _int_rows(rows)]
    return _poly_rows(ints[:_descend(ints, len(rows[0]) if rows else 0, laurent=True)])


def _int_rows(rows) -> list:
    """Rows of UniPoly as int coefficient lists, each row over the lcm of its
    denominators and made primitive."""
    if not all(isinstance(e, UniPoly) for row in rows for e in row):
        raise ValueError("a Hermite form needs rows of polynomials")
    dens = [lcm(*[e.den for e in row]) for row in rows]
    return [_primitive([[c * (den // e.den) for c in e.num] for e in row])
            for den, row in zip(dens, rows)]


def _poly_rows(rows: list) -> tuple:
    """Nonzero int rows as UniPoly rows in x with monic pivots."""
    out = []
    for row in rows:
        den = next(e for e in row if e)[-1]  # the pivot's, positive by _primitive
        out.append(tuple([_poly("x", e, den) for e in row]))
    return tuple(out)


def _descend(rows: list, ncols: int, laurent: bool) -> int:
    """Hermite descent in place on primitive int rows; returns the rank.

    Over Q[x] (laurent false) every valuation below is taken as 0, which
    leaves the Euclidean descent.  Over Q[x, 1/x] each row is kept divided
    by its x-content, an entry's length is its degree minus its valuation,
    and entries are divided with their x-powers stripped, the valuation
    difference moved onto the quotient or onto the row being reduced.

    First the echelon descent (``_echelon``).  Then, pivot by pivot, each
    entry above the pivot (stripped pivot p0, length L) is reduced into the
    window [v_i, v_i + L), v_i the valuation of its row's pivot: a bottom
    pseudo-division clears the exponents below v_i with multiples x^j*p0, a
    top one those from v_i + L on.  The residues mod p0 have exactly one
    representative in any window of L consecutive exponents, because p0(0)
    != 0 makes x invertible mod p0.  The echelon descent never touches the
    rows above a pivot, so this is the arithmetic of reducing above each
    pivot as soon as it is found.
    """
    val = _val if laurent else lambda e: 0
    pcols = _echelon(rows, ncols, laurent)
    for r, c in enumerate(pcols):
        p = rows[r][c]
        vp = val(p)
        p0 = p[vp:]
        for i in range(r):
            vi = val(rows[i][pcols[i]])
            e = rows[i][c]
            ve = val(e) if e else vi
            if ve < vi:
                q, s = _low_pseudo_divmod(e[ve:], p0, vi - ve)
                rows[i] = _reduce(rows[i], s, q, rows[r], ve - vp, laurent)
                vi = val(rows[i][pcols[i]])
                e = rows[i][c]
            if len(e) - vi >= len(p0):
                q, _, s = _pseudo_divmod(e[vi:] if vi else e, p0)
                rows[i] = _reduce(rows[i], s, q, rows[r], vi - vp, laurent)
    return len(pcols)


def _echelon(rows: list, ncols: int, laurent: bool) -> list[int]:
    """Echelon descent in place on primitive int rows (valuations as in
    ``_descend``); returns the pivot columns, pivot r in row r.

    Per column: the entry of least length becomes the pivot and every entry
    below it is pseudo-divided by it, row_i <- s*row_i - q*row_r, until only
    the pivot survives.  Rows from the rank on end zero.
    """
    val = _val if laurent else lambda e: 0
    nrows = len(rows)
    pcols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # descent on column c until a single entry survives at r
        while True:
            live = [i for i in range(r, nrows) if rows[i][c]]
            if not live:
                break
            piv = min(live, key=lambda i: len(rows[i][c]) - val(rows[i][c]))
            rows[r], rows[piv] = rows[piv], rows[r]
            b = rows[r][c]
            vb = val(b)
            b0 = b[vb:] if vb else b
            done = True
            for i in range(r + 1, nrows):
                a = rows[i][c]
                if a:
                    va = val(a)
                    q, rem, s = _pseudo_divmod(a[va:] if va else a, b0)
                    rows[i] = _reduce(rows[i], s, q, rows[r], va - vb, laurent)
                    done = done and not any(rem)
            if done:
                break
        if rows[r][c]:
            pcols.append(c)
            r += 1
    return pcols


def _low_pseudo_divmod(a: list, b: list, n: int) -> tuple[list, int]:
    """(q, s) with s > 0, len(q) == n and s*a - q*b divisible by x^n, for b
    with a nonzero constant term: the pseudo-division of the coefficient
    sequences reversed, a cut to its first n."""
    low = a[:n] + [0] * (n - len(a))
    q, _, s = _pseudo_divmod([0] * (len(b) - 1) + low[::-1], b[::-1])
    return q[::-1], s


def _val(e: list) -> int:
    """x-valuation of a nonzero int coefficient list."""
    return next(i for i, c in enumerate(e) if c)


def _strip(row: list) -> list:
    """An int row divided by its x-content, the least valuation of its entries."""
    v = min((_val(e) for e in row if e), default=0)
    return [e[v:] for e in row] if v else row


def _primitive(row: list) -> list:
    """An int row over its content, signed so that its first nonzero entry
    has a positive leading coefficient; a zero row is returned as is."""
    g = 0
    for e in row:
        g = gcd(g, *e)
        if g == 1:
            break
    if not g:
        return row
    if next(e for e in row if e)[-1] < 0:
        g = -g
    return row if g == 1 else [[c // g for c in e] for e in row]


def _reduce(row: list, s: int, q: list, prow: list, shift: int, laurent: bool) -> list:
    """s*row - x^shift*q*prow for int rows and an int polynomial q, made
    primitive; a negative shift multiplies row by x^-shift instead.  With
    laurent the result is divided by its x-content."""
    if shift < 0:
        row = [[0] * -shift + a if a else a for a in row]
        shift = 0
    n = len(q) + shift
    out = []
    for a, b in zip(row, prow):
        e = [s * c for c in a]
        if b:
            e += [0] * (n + len(b) - 1 - len(e))
            for i, y in enumerate(q, shift):
                if y:
                    e[i:i + len(b)] = [u - y * z for u, z in zip(e[i:i + len(b)], b)]
        while e and not e[-1]:
            e.pop()
        out.append(e)
    out = _primitive(out)
    return _strip(out) if laurent else out


@dataclass(frozen=True, slots=True)
class ClearingData:
    """Right multiplier den**power clearing every generator to Q[x] rows.

    As built by ``clearing_for``, den is the monic squarefree part of the
    generators' common denominator and power is read off their pole orders.
    For torus ideals den holds x as well when a denominator does; that
    part of the multiplier is a unit there, which leaves codimensions and
    span comparisons unchanged as long as both sides of a comparison are
    cleared with the same data.
    """

    den: UniPoly
    power: int

    def multiplier(self) -> UniPoly:
        return self.den ** self.power


def clearing_for(*ideals: FractionalIdeal) -> ClearingData:
    """Common clearing for one or more ideals over the same model: (s, M).

    s is the monic squarefree part of diffop.clearing_denominator over all
    generators (the lcm of their coefficient denominators, x-powers included
    on the torus), and M = max_j (v_j + j) over the coefficients c_j of d^j
    with a nonconstant denominator, v_j the least v with c_j.den | s**v
    (M = 0 when there is none).  The coefficient of d^i in g * s**M is
    sum_j C(j, i) c_j (s**M)^(j - i), the t-th derivative of s**M has
    valuation at least M - t at every prime of the squarefree s, so each
    term has valuation at least -v_j + M - (j - i) >= i >= 0 there: s**M
    clears every generator.  It divides den**(maxorder + 1), the frame of the
    CLI's ambient pivot; on forge output s**M = gx**n has degree n**2, and
    den**(maxorder + 1) degree n**2 (n + 1).
    """
    if not ideals:
        raise ValueError("clearing_for needs at least one ideal")
    gens = [g for ideal in ideals for g in ideal.generators if not g.is_zero]
    if any(c.b is not None for g in gens for c in g.coeffs):
        raise PreconditionError("lattice clearing handles line and torus coefficients only")
    den = clearing_denominator(gens)
    top: dict[UniPoly, int] = {}  # each nonconstant denominator, its highest d^j
    for g in gens:
        for j, c in enumerate(g.coeffs):
            if c.den.degree() > 0 and top.get(c.den, -1) < j:
                top[c.den] = j
    s = den.divmod_(den.gcd(den.derivative()))[0].monic()
    power = 0
    for d, j in top.items():
        v = 0
        while d.degree() > 0:  # each step divides out one power of every prime
            d = d.divmod_(d.gcd(s))[0]
            v += 1
        power = max(power, v + j)
    return ClearingData(s, power)


@dataclass(frozen=True, slots=True)
class FiltrationModule:
    """Level-k span of an ideal: derivative rows over Q[x].

    rows is a tuple of rows, each a tuple of k + 1 UniPoly.  Columns run
    from d^k down to d^0 so that Hermite pivots line up with principal
    symbols.
    """

    kind: str
    k: int
    rows: tuple
    clearing: ClearingData


def _cleared_rows(gens: FractionalIdeal, clearing: ClearingData) -> list[tuple]:
    """(order, den, row) for each nonzero generator g, in order: the row of
    g * m, m = clearing.multiplier(), in the columns d^order .. d^0 as int
    coefficient lists over one positive int den.

    With c_j = a_j / den_j the coefficient of d^j in g and D =
    clearing_denominator([g]), the coefficient of d^i in g * m is
    (sum_{j >= i} C(j, i) a_j (D / den_j) m^(j - i)) / D, m^(t) the t-th
    derivative of m.  The sum runs on int numerators and is divided once by
    D's numerator, which is primitive (D is monic), so an exact quotient has
    int coefficients (Gauss's lemma); a remainder is a pole left by clearing.
    """
    if gens.curve.kind not in (AFFINE_LINE, TORUS):
        raise ValueError("only the affine line and the torus carry the lattice filtration")
    mult = clearing.multiplier()
    out = []
    for g in [g for g in gens.generators if not g.is_zero]:
        dm = [list(mult.num)]  # numerators of m, m', m'', ... over mult.den
        while len(dm) <= g.order():
            dm.append([i * c for i, c in enumerate(dm[-1])][1:])
        big = clearing_denominator([g])
        terms = [(j, c.a * big.divmod_(c.den)[0]) for j, c in enumerate(g.coeffs)
                 if not c.is_zero]
        den = lcm(*[t.den for _, t in terms])
        row = []
        for i in range(g.order(), -1, -1):
            acc = [0] * (len(mult.num) + max(len(t.num) for _, t in terms))
            for j, t in terms:
                if j >= i:
                    f, b = comb(j, i) * (den // t.den), dm[j - i]
                    for a, y in enumerate(t.num):
                        if y:
                            y *= f
                            acc[a:a + len(b)] = [u + y * z for u, z in zip(acc[a:a + len(b)], b)]
            while acc and not acc[-1]:
                acc.pop()
            q, r, _ = _pseudo_divmod(acc, big.num)
            if any(r):
                raise ValueError("clearing left a non-polynomial coefficient in d^%d" % i)
            row.append([c * big.den for c in q])
        out.append((g.order(), den * mult.den, row))
    return out


def _d_row(row: list) -> list:
    """The int row of d * op from that of op, one column (d^(k+1)) longer and
    over the same denominator: the coefficient of d^i in d * op is c_i' + c_(i-1)."""
    out = [row[0]]
    for a, b in zip(row[1:] + [[]], row):
        db = [i * c for i, c in enumerate(b)][1:]
        e = [u + v for u, v in zip(a, db)] + (a[len(db):] if len(a) > len(db) else db[len(a):])
        while e and not e[-1]:
            e.pop()
        out.append(e)
    return out


def _levels(cleared: list, kmax: int):
    """For k = 0..kmax, the (den, row) pairs that enter the span at level k,
    in generator order, each an int row over its generator's int den.

    The row d^s * (g * m) has order order(g) + s, so it enters at exactly one
    level: at k = order(g) the row of ``_cleared_rows``, and at each later
    level the row of one more left multiplication by d (``_d_row``).  A row
    that enters at level k has the k + 1 columns d^k .. d^0.
    """
    current: list = [None] * len(cleared)  # each generator's row, once it has entered
    for k in range(kmax + 1):
        rows = []
        for j, (order, den, row) in enumerate(cleared):
            if current[j] is not None:
                current[j] = _d_row(current[j])
            elif order == k:
                current[j] = row
            else:
                continue
            rows.append((den, current[j]))
        yield rows


def span_filtration(gens: FractionalIdeal, k: int,
                    clearing: ClearingData | None = None) -> FiltrationModule:
    """Rows d^s * (g * multiplier) for each generator g and s <= k - order(g),
    level by level (``_levels``) on ints; each entry becomes a UniPoly once,
    the coefficient that DiffOp.mul gives for the same product."""
    if k < 0:
        raise ValueError("negative filtration level")
    if clearing is None:
        clearing = clearing_for(gens)
    zero = UniPoly("x", [])
    rows = tuple(tuple([zero] * (k + 1 - len(row)) + [_poly("x", e, den) for e in row])
                 for level in _levels(_cleared_rows(gens, clearing), k) for den, row in level)
    return FiltrationModule(gens.curve.kind, k, rows, clearing)


@dataclass(frozen=True, slots=True)
class CodimReport:
    """Codimension of the span inside the ambient rank-one lattice, per level.

    ambient_pivot belongs to the span cleared by clearing.multiplier(), with
    clearing = clearing_for(gens); a span cleared by that multiplier times f
    instead has the ambient pivot ambient_pivot * f.
    """

    entries: tuple
    stabilized: int | None
    ambient_pivot: UniPoly | None
    clearing: ClearingData


def codim(gens: FractionalIdeal, kmax: int) -> CodimReport:
    """Codimension dim(ambient_k / span_k) for k = 0..kmax.

    The level-k span is span_filtration's, built incrementally from the rows
    that ``_levels`` yields.  The level-k Hermite form is the Hermite form of
    the new rows stacked on the nonzero rows of the level-(k-1) form, padded
    with a zero in the new d^k column.  That is exact: the previous form is U
    times the previous span with U unimodular, so the stacked rows span the
    level-k module, and a Hermite form depends only on the row module.  The
    form stays in the descent's integer rows (``_descend``), each its Hermite
    row made primitive with a positive pivot lead, and new rows enter as
    ``_levels``' int rows made primitive: no entry is a UniPoly until the end.

    The ambient pivot is the pivot of least degree at level kmax, made monic
    (on the torus it keeps its x-power); each level contributes the sum of
    pivot degree excesses over it.  On the torus degrees are Laurent degrees
    (degree minus x-valuation), which makes the count independent of the
    unit clearing.  A pivot that is not a multiple of the ambient pivot
    (x-powers dropped on the torus) means the span is not a sublattice of a
    rank-one module and is reported as an error.
    """
    if kmax < 0:
        raise ValueError("negative kmax")
    clearing = clearing_for(gens)
    val = _val if gens.curve.kind == TORUS else lambda e: 0
    per_k = []
    basis: list = []  # int rows of the previous level's Hermite form
    for k, new in enumerate(_levels(_cleared_rows(gens, clearing), kmax)):
        rows = [_primitive(row) for _, row in new] + [[[]] + row for row in basis]
        basis = rows[:_descend(rows, k + 1, laurent=False)]
        per_k.append([next(e for e in row if e) for row in basis]
                     if len(basis) == k + 1 else None)
    if per_k[-1] is None:
        return CodimReport(tuple((k, None) for k in range(kmax + 1)), None, None, clearing)

    def deg(p: list) -> int:  # one more than the (Laurent) degree
        return len(p) - val(p)

    def monic(p: list) -> UniPoly:
        return _poly("x", list(p), p[-1])

    ambient = min(per_k[-1], key=deg)
    ambient0 = ambient[val(ambient):]
    values: list[int | None] = []
    for pivots in per_k:
        for p in pivots or ():
            if any(_pseudo_divmod(p[val(p):], ambient0)[1]):
                raise PreconditionError(
                    "non-nested modules: pivot %r is not a multiple of the "
                    "ambient pivot %r" % (monic(p), monic(ambient)))
        values.append(None if pivots is None
                      else sum(deg(p) for p in pivots) - len(pivots) * deg(ambient))
    stabilized = values[-1] if kmax >= 2 and len(set(values[-3:])) == 1 else None
    return CodimReport(tuple(zip(range(kmax + 1), values)), stabilized, monic(ambient),
                       clearing)


def module_equal(a: FiltrationModule, b: FiltrationModule) -> bool:
    """Equality of row spans, over Q[x] on the line and over Q[x, 1/x] on the
    torus, where the clearing is only canonical up to x-power units.

    No canonical form is built: each side gets the echelon descent only
    (``_echelon``).  Over a PID the pivot of each column generates an
    invariant of the row module, the ideal of that column's entries among
    the elements that vanish left of it, so spans with different pivot
    columns or pivot lengths (degree on the line, degree minus x-valuation
    on the torus) differ.  Otherwise each echelon row of b must lie in the
    span of a's (``_member``).  Then b is a submodule of a whose pivots, on
    the same columns, have the lengths of a's, so dim a/b, the sum of the
    pivot length differences (as in ``codim``), is 0 and the spans are equal.
    """
    if a.k != b.k:
        raise ValueError("modules at different filtration levels")
    if a.kind != b.kind:
        raise ValueError("modules over different curve models")
    if a.clearing != b.clearing:
        raise ValueError("modules cleared differently; build both with a common clearing")

    laurent = a.kind == TORUS
    val = _val if laurent else lambda e: 0
    bases = []  # per side, pivot column -> echelon row
    for rows in (a.rows, b.rows):
        ints = _int_rows(rows)
        if laurent:
            ints = [_strip(row) for row in ints]
        bases.append(dict(zip(_echelon(ints, len(rows[0]) if rows else 0, laurent), ints)))
    pivots = [[(c, len(row[c]) - val(row[c])) for c, row in basis.items()] for basis in bases]
    if pivots[0] != pivots[1]:
        return False
    return all(_member(row, bases[0], laurent) for row in bases[1].values())


def _member(row: list, basis: dict, laurent: bool) -> bool:
    """Whether an int row lies in the span of echelon rows, given as a map
    from pivot column to row: column by column, a nonzero entry must sit on a
    pivot column and be divisible by that pivot (x-powers stripped with
    laurent), and the row less that multiple of the pivot row goes on."""
    val = _val if laurent else lambda e: 0
    for c in range(len(row)):
        e = row[c]
        if not e:
            continue
        prow = basis.get(c)
        if prow is None:
            return False
        p = prow[c]
        ve, vp = val(e), val(p)
        q, rem, s = _pseudo_divmod(e[ve:], p[vp:])
        if any(rem):
            return False
        row = _reduce(row, s, q, prow, ve - vp, laurent)
    return True


def twist_ideal(gens: FractionalIdeal, form: OneForm) -> FractionalIdeal:
    """theta_g on each generator, g = form.coefficient * x**x_shift: sum c_i d^i
    goes to sum c_i (d - g)^i, as theta_g fixes the coefficients and sends d to
    d - g.  It maps forge(p) onto the module of forge(omega_twist(p, form)).
    Line and torus only: the hyperelliptic rule z -> z - g(x, y) is unprobed."""
    if gens.curve.kind not in (AFFINE_LINE, TORUS) or form.curve != gens.curve:
        raise ValueError("the twist needs a form on the ideal's own curve, the line or the torus")
    ring = gens.generators[0].ring
    xk = ring.coeff(UniPoly.monomial("x", abs(form.x_shift)))
    g = sum(form.coefficient.coeffs_in_y(), ring.zero())  # no y on the line or torus
    d_g = DiffOp(ring, [-g * (xk if form.x_shift >= 0 else xk.inv()), ring.one()])
    powers = [DiffOp.from_coeff(ring.one())]  # (d - g)^i, each built once
    while len(powers) < max(len(op.coeffs) for op in gens.generators):
        powers.append(d_g.mul(powers[-1]))
    return FractionalIdeal(gens.curve, tuple(
        reduce(DiffOp.add, map(DiffOp.scalar_mul, powers, op.coeffs), DiffOp.zero(ring))
        for op in gens.generators))


def unit_conjugate(gens: FractionalIdeal, r: int) -> FractionalIdeal:
    """Conjugate every generator by the unit x**r (torus only): the twist by r dx/x."""
    if gens.curve.kind != TORUS:
        raise ValueError("unit conjugation needs x invertible (torus model)")
    return twist_ideal(gens, OneForm(gens.curve, BiPoly.const(r), -1))
