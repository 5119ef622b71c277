"""Hermite forms, clearings, filtration spans, codimension, saturation."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battery import fourier_points, hyper_points, line_points, torus_points
from cmforge.cmspace import OneForm, generic_point, lambda_act, omega_twist
from cmforge.curve import AFFINE_LINE, TORUS, affine_line, torus
from cmforge.diffop import (CoeffRing, DiffOp, FractionalIdeal, clearing_denominator,
                            coeff_ring_for)
from cmforge.errors import PreconditionError
from cmforge.exact import BiPoly, UniPoly, char_poly
from cmforge.forge import ideal_generators
from cmforge.lattice import (ClearingData, FiltrationModule, _cleared_ops, _d_row, _echelon,
                             _int_rows, _row, _strip, _val, clearing_for,
                             codim, hnf, module_equal, span_filtration,
                             twist_ideal, unit_conjugate, x_saturate)
from polyoracle import bareiss_det, div_xk, mul_xk, x_valuation

X = UniPoly.x("x")
ONE = UniPoly.const("x", 1)
ZERO = UniPoly("x", [])


def _pm(rows):
    """Rows of UniPoly as the lattice functions take and return them."""
    return tuple(tuple(r) for r in rows)


def _nonzero_rows(m):
    return [list(r) for r in m if any(not e.is_zero for e in r)]


def _matmul(a, b):
    return _pm([[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
                for row in a])


small_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=3), min_size=0, max_size=3
).map(lambda cs: UniPoly("x", cs))


def _hnf_oracle(m):
    # the (H, U) descent on UniPoly entries that the integer-row kernel
    # replaced: U is unimodular with U*m = H, and H keeps m's zero rows
    nrows, ncols = len(m), len(m[0]) if m else 0
    rows = [list(r) for r in m]
    uni = [[ONE if i == j else ZERO for j in range(nrows)] for i in range(nrows)]

    def submul(i, j, q):
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        uni[i] = [a - q * b for a, b in zip(uni[i], uni[j])]

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            live = [i for i in range(r, nrows) if not rows[i][c].is_zero]
            if not live:
                break
            piv = min(live, key=lambda i: rows[i][c].degree())
            rows[r], rows[piv] = rows[piv], rows[r]
            uni[r], uni[piv] = uni[piv], uni[r]
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c].is_zero:
                    continue
                q, rem = rows[i][c].divmod_(rows[r][c])
                submul(i, r, q)
                done = done and rem.is_zero
            if done:
                break
        if rows[r][c].is_zero:
            continue
        inv = 1 / rows[r][c].lc()
        rows[r] = [p * inv for p in rows[r]]
        uni[r] = [p * inv for p in uni[r]]
        for i in range(r):
            if not rows[i][c].is_zero and rows[i][c].degree() >= rows[r][c].degree():
                submul(i, r, rows[i][c].divmod_(rows[r][c])[0])
        r += 1
    return _pm(rows), _pm(uni)


def _check_hnf(m):
    # hnf(m) against the oracle, and the oracle against its own certificate
    h = hnf(m)
    h_o, u_o = _hnf_oracle(m)
    assert h == _pm(_nonzero_rows(h_o))
    assert _matmul(u_o, m) == h_o
    d = bareiss_det(u_o)
    assert not d.is_zero and d.degree() == 0  # unit of Q[x]
    return h


def test_hnf_identity_fixed():
    m = _pm([[ONE if i == j else ZERO for j in range(3)] for i in range(3)])
    assert _check_hnf(m) == m
    assert _hnf_oracle(m)[1] == m


def test_hnf_reduces_above_pivot():
    # span{(x^2, 0), (x, 1)} contains x(x,1) - (x^2,0) = (0, x)
    h = _check_hnf(_pm([[X * X, ZERO], [X, ONE]]))
    assert h == _pm([[X, ONE], [ZERO, X]])


def test_hnf_monic_pivots():
    h = _check_hnf(_pm([[X * 2, UniPoly.const("x", 4)]]))
    assert h == _pm([[X, UniPoly.const("x", 2)]])
    # a negative leading coefficient is divided out with its sign
    h = _check_hnf(_pm([[X * -2, UniPoly.const("x", 4)]]))
    assert h == _pm([[X, UniPoly.const("x", -2)]])


def test_hnf_rejects_rational_matrix():
    with pytest.raises(ValueError):
        hnf([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])


@given(st.lists(st.lists(small_polys, min_size=2, max_size=2),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_hnf_idempotent_and_unimodular(rows):
    h = _check_hnf(_pm(rows))
    assert hnf(h) == h


big_rats = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
big_polys = st.tuples(st.lists(big_rats, max_size=3), st.integers(0, 2)).map(
    lambda t: mul_xk(UniPoly("x", t[0]), t[1]))


@st.composite
def deficient_mats(draw):
    # base rows with large rationals, plus Q[x]-combinations of them, shuffled,
    # each row times a power of x.  Triangular base rows keep non-unit pivots
    # with x-power factors in the Hermite form, where x-saturation has to
    # eliminate against the rows below before it can divide by x.
    c = draw(st.integers(1, 3))
    base = draw(st.lists(st.lists(big_polys, min_size=c, max_size=c),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        base = [[ZERO if j < i else e for j, e in enumerate(row)]
                for i, row in enumerate(base)]
    mixes = draw(st.lists(st.lists(small_polys, min_size=len(base), max_size=len(base)),
                          min_size=1, max_size=2))
    extra = [[sum((f * row[j] for f, row in zip(mix, base)), ZERO) for j in range(c)]
             for mix in mixes]
    rows = draw(st.permutations(base + extra))
    shifts = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    return _pm([[mul_xk(e, k) for e in row] for row, k in zip(rows, shifts)])


@given(deficient_mats())
@settings(max_examples=60, deadline=None)
def test_hnf_oracle_rank_deficient_large_rationals(m):
    h = _check_hnf(m)
    assert len(h) < len(m)


def test_clearing_line_n1():
    # generators -x and -d - 1/x: v = 1 at d^0, so M = 1
    ideal = ideal_generators(line_points()[0])
    cl = clearing_for(ideal)
    assert cl.den == X and cl.power == 1
    assert cl.multiplier() == X


def _ideal(curve, *ops):
    """Generators from (numerator, denominator) pairs, d^0 first."""
    ring = coeff_ring_for(curve)
    return FractionalIdeal(curve, [DiffOp(ring, [ring.coeff(a, den=d) for a, d in op])
                                   for op in ops])


def _least_power_oracle(ideal, s):
    # max_j (v_j + j), v_j the least v with c_j.den | s**v, by trial division
    power = 0
    for g in ideal.generators:
        for j, c in enumerate(g.coeffs):
            if c.den.degree() > 0:
                v = 0
                while not (s ** v).divmod_(c.den)[1].is_zero:
                    v += 1
                power = max(power, v + j)
    return power


def _clears(ideal, mult):
    ring = ideal.generators[0].ring
    m = DiffOp.from_coeff(ring.from_poly(mult))
    return all(c.is_polynomial() for g in ideal.generators for c in g.mul(m).coeffs)


_X1 = X - ONE
# (curve, generators, s, M); in each case s**(M - 1) leaves a pole
_POLE_IDEALS = [
    # x^-1 d^3 + d: the d^0 coefficient of g x^3 is 6/x + 3x^2
    (affine_line(), [[(ZERO, ONE), (ONE, ONE), (ZERO, ONE), (ONE, X)]], X, 4),
    # x^-2 d^2 + 1
    (affine_line(), [[(ONE, ONE), (ZERO, ONE), (ONE, X * X)]], X, 4),
    (torus(), [[(ONE, ONE), (ZERO, ONE), (ONE, X * X)]], X, 4),
    # x^-1 d^3 + d and (x - 1)^-3: the pole of order 3 at d^0 sets v = 3
    (affine_line(), [[(ZERO, ONE), (ONE, ONE), (ZERO, ONE), (ONE, X)],
                     [(ONE, _X1 ** 3)]], X * _X1, 4),
    # (x - 1)^-2 + x^-2 (x - 1)^-1 d, and x^2
    (torus(), [[(ONE, _X1 * _X1), (ONE, X * X * _X1)], [(X * X, ONE)]], X * _X1, 3),
]


@pytest.mark.parametrize("curve, ops, s, power", _POLE_IDEALS,
                         ids=["x-1d3+d", "x-2d2+1-line", "x-2d2+1-torus",
                              "two-poles", "torus-mixed"])
def test_clearing_high_order_pole(curve, ops, s, power):
    ideal = _ideal(curve, *ops)
    cl = clearing_for(ideal)
    assert (cl.den, cl.power) == (s, power)
    assert power == _least_power_oracle(ideal, s)
    for op in _cleared_ops(ideal, cl):
        assert all(c.is_polynomial() for c in op.coeffs), op
    assert not _clears(ideal, s ** (power - 1))


def test_clearing_fourier_point_needs_more_than_den():
    # the common denominator x alone leaves (2 + 2x)/x in d^0 of the
    # order-2 generator; s = x, M = 2 clears it
    ideal = ideal_generators(fourier_points()[0])
    ring = ideal.generators[0].ring
    naive = DiffOp.from_coeff(ring.from_poly(clearing_denominator(ideal.generators)))
    left = [c for g in ideal.generators for c in g.mul(naive).coeffs
            if not c.is_polynomial()]
    assert left == [ring.coeff(X * 2 + 2, den=X)]
    cl = clearing_for(ideal)
    assert (cl.den, cl.power) == (X, 2)
    for op in _cleared_ops(ideal, cl):
        assert all(c.is_polynomial() for c in op.coeffs), op


_LADDER_XS = ((affine_line(), [0, 1, 3, -2]), (torus(), [1, 2, -3, 5]))


def _ladder_points():
    """Line and torus points of ranks 1-4."""
    return [generic_point(c, xs[:n]) for c, xs in _LADDER_XS for n in range(1, 5)]


def test_clearing_multiplier_degree_is_n_squared():
    # forge output has common denominator gx^n; the multiplier is gx^n
    for p in _ladder_points():
        cl = clearing_for(ideal_generators(p))
        assert cl.den == char_poly(p.Xmat, "x").monic()
        assert cl.multiplier().degree() == p.n * p.n


def test_clearing_common_across_ideals():
    a = ideal_generators(torus_points()[0])
    b = ideal_generators(lambda_act(torus_points()[0], 1))
    cl = clearing_for(a, b)
    for ideal in (a, b):
        fm = span_filtration(ideal, 3, cl)
        assert fm.clearing == cl  # both clear with the shared data


def test_span_filtration_row_count():
    ideal = ideal_generators(line_points()[1])  # orders 0 and 2
    fm = span_filtration(ideal, 4, clearing_for(ideal))
    # order-0 generator contributes 5 rows, order-2 generator 3 rows
    assert len(fm.rows) == 8
    assert all(len(row) == 5 for row in fm.rows)


def test_wrong_clearing_is_not_a_precondition():
    # clearing_for's multiplier clears every generator, so only a caller's
    # own ClearingData can leave a pole: a caller bug, not a precondition
    ideal = ideal_generators(generic_point(affine_line(), [0, 1]))
    with pytest.raises(ValueError) as exc:
        span_filtration(ideal, 4, ClearingData(UniPoly.const("x", 1), 0))
    assert not isinstance(exc.value, PreconditionError)


def test_d_row_is_left_multiplication_by_d():
    for p in line_points() + torus_points():
        ideal = ideal_generators(p)
        partial = DiffOp.partial(ideal.generators[0].ring)
        for op in _cleared_ops(ideal, clearing_for(ideal)):
            k = op.order()
            row = _row(op, k)
            for _ in range(3):
                op, k, row = partial.mul(op), k + 1, _d_row(row)
                assert row == _row(op, k)


def test_clearing_rejects_hyper_coefficients():
    ideal = ideal_generators(hyper_points()[2])
    with pytest.raises(ValueError):
        clearing_for(ideal)


def test_codim_stabilizes_line():
    for i, p in enumerate(line_points() + [generic_point(affine_line(), [0, 1, 2, 3])]):
        n = i + 1
        rep = codim(ideal_generators(p), 2 * n + 6)
        assert rep.stabilized == n
        assert rep.ambient_pivot is not None


def test_codim_stabilizes_torus():
    for i, p in enumerate(torus_points()):
        n = i + 1
        rep = codim(ideal_generators(p), 2 * n + 6)
        assert rep.stabilized == n


def test_codim_handmade_oracle():
    # <x^2, x d + 2>: index-1 sublattice of the x^0-ambient at every level
    ring = CoeffRing()
    g1 = DiffOp(ring, [ring.from_poly(X * X)])
    g2 = DiffOp(ring, [ring.from_frac(2), ring.x()])
    rep = codim(FractionalIdeal(line_points()[0].curve, [g1, g2]), 6)
    assert rep.stabilized == 1


def test_codim_unit_ideal_is_zero():
    ring = CoeffRing()
    one = DiffOp(ring, [ring.one()])
    rep = codim(FractionalIdeal(line_points()[0].curve, [one]), 4)
    assert rep.stabilized == 0
    assert all(v == 0 for _, v in rep.entries)


def test_codim_not_full_rank_reported():
    # a single order-2 generator spans nothing below level 2
    ring = CoeffRing()
    d = DiffOp.partial(ring)
    rep = codim(FractionalIdeal(line_points()[0].curve, [d.mul(d)]), 1)
    assert rep.stabilized is None
    assert rep.ambient_pivot is None
    assert all(v is None for _, v in rep.entries)


def test_codim_non_nested_error():
    # at k=1 the pivots are x^2 (d^1 column) and x(x+1) (d^0 column):
    # same degree, neither a multiple of the other
    ring = CoeffRing()
    g1 = DiffOp(ring, [ring.from_poly(X * X * (X + ONE) * (X + ONE))])
    g2 = DiffOp(ring, [ring.from_poly(X), ring.from_poly(X * X)])
    with pytest.raises(PreconditionError, match="non-nested"):
        codim(FractionalIdeal(line_points()[0].curve, [g1, g2]), 1)


def _codim_per_level_oracle(gens, kmax):
    # codim recomputed the direct way: a fresh Hermite form of the whole
    # level-k span at every level, pivot-degree excess over the level-kmax
    # ambient pivot, Laurent degrees on the torus
    cl = clearing_for(gens)
    laurent = gens.curve.kind == TORUS

    def deg(p):
        return p.degree() - (x_valuation(p) if laurent else 0)

    per_k = []
    for k in range(kmax + 1):
        rows = hnf(span_filtration(gens, k, cl).rows)
        pivots = [next(e for e in r if not e.is_zero) for r in rows]
        per_k.append(pivots if len(pivots) == k + 1 else None)
    if per_k[-1] is None:
        return tuple((k, None) for k in range(kmax + 1)), None, None
    ambient = min(per_k[-1], key=deg)
    values = [None if p is None else sum(deg(q) - deg(ambient) for q in p)
              for p in per_k]
    tail = values[-3:]
    stabilized = values[-1] if kmax >= 2 and len(set(tail)) == 1 else None
    return tuple(enumerate(values)), stabilized, ambient


def test_codim_per_level_oracle():
    ring = CoeffRing()
    d = DiffOp.partial(ring)
    line = line_points()[0].curve
    ideals = [
        FractionalIdeal(line, [DiffOp(ring, [ring.from_poly(X * X)]),
                               DiffOp(ring, [ring.from_frac(2), ring.x()])]),
        FractionalIdeal(line, [d.mul(d)]),
        # not full rank at levels 0 and 1, full rank from level 2 on
        FractionalIdeal(line, [d.mul(d), DiffOp(ring, [ring.from_frac(2), ring.x()])]),
    ]
    rng = random.Random(5)
    for _ in range(4):
        c = rng.choice([affine_line(), torus()])
        pool = [v for v in range(-3, 4) if v or c.kind != TORUS]
        ideals.append(ideal_generators(generic_point(c, rng.sample(pool, rng.randint(1, 2)))))
    # unit-conjugated torus ideals: their Q[x] pivots carry x-powers, which
    # the Laurent degrees and the nesting check must drop
    ideals += [unit_conjugate(ideal_generators(p), r) for p in torus_points() for r in (1, -1)]
    ideals += [ideal_generators(p) for p in fourier_points()]
    for gens in ideals:
        for kmax in (0, 1, 5):
            rep = codim(gens, kmax)
            assert (rep.entries, rep.stabilized, rep.ambient_pivot) == \
                _codim_per_level_oracle(gens, kmax)


def _fitting_product(gens, kmax):
    # prod (pivot_i / ambient) over the level-kmax Hermite pivots, each
    # division exact; on the torus the x-power, a unit there, is dropped
    laurent = gens.curve.kind == TORUS
    pivots = [next(e for e in r if not e.is_zero)
              for r in hnf(span_filtration(gens, kmax).rows)]
    assert len(pivots) == kmax + 1
    ambient = min(pivots, key=lambda p: p.degree() - (x_valuation(p) if laurent else 0))
    prod = ONE
    for p in pivots:
        q, rem = p.divmod_(ambient)
        assert rem.is_zero
        prod = prod * q
    return div_xk(prod, x_valuation(prod)) if laurent else prod


def test_fitting_identity():
    # at stabilisation the quotient ambient_k / span_k is Q^n with x acting
    # as X, so its Fitting ideal is generated by the monic char_poly(X)
    for p in _ladder_points() + fourier_points():
        assert _fitting_product(ideal_generators(p), 2 * p.n + 6) == \
            char_poly(p.Xmat, "x").monic(), p


def test_order0_pivot_is_gx_times_multiplier():
    """Neither codim nor the Fitting identity sees forge's order-0 generator
    gx = prod (x - x_i); the last Hermite row of the span does: it is the
    order-0 part, its pivot gx * s**M (x-powers, units on the torus, dropped).

    This covers semisimple X only: a generic_point's X is diagonal with
    distinct eigenvalues, so gx is squarefree.  At the Fourier points of
    tests/battery.py the order-0 pivot over s**M is the squarefree part of
    char_poly(X) (x, x - 2 and x^3 + 9/4 x against x^2, (x - 2)^2 and
    x^3 + 9/4 x), which this test does not assert.
    """
    for c, xs in _LADDER_XS:
        for n in range(1, 5):
            p = generic_point(c, xs[:n])
            gens = ideal_generators(p)
            *above, pivot = hnf(span_filtration(gens, 2 * n + 6).rows)[-1]
            assert all(e.is_zero for e in above), p
            want = clearing_for(gens).multiplier()
            for xi in xs[:n]:
                want = want * (X - xi)
            if c.kind == TORUS:
                pivot, want = (div_xk(f, x_valuation(f)) for f in (pivot, want))
            assert pivot == want, p


def test_x_saturate_divides_out_content():
    # Laurent span of (x^2 - x, x) meets Q[x]^2 in Q[x] (x - 1, 1)
    sat = x_saturate(_pm([[X * X - X, X]]))
    assert sat == _pm([[X - ONE, ONE]])


def test_x_saturate_x_power_determinant_fills_lattice():
    # det = x^2 is a Laurent unit, so the saturation is the full lattice
    sat = x_saturate(_pm([[X, ONE], [ZERO, X]]))
    assert sat == _pm([[ONE, ZERO], [ZERO, ONE]])


def test_x_saturate_fixpoint_on_saturated():
    m = _pm([[ONE, ZERO], [ZERO, ONE]])
    assert x_saturate(m) == m


def test_x_saturate_keeps_pivot_x_without_later_column():
    # (x, 1) has constant terms (0, 1): no Q[x] combination divides by x
    m = _pm([[X, ONE]])
    assert x_saturate(m) == m


def test_x_saturate_residue_window_in_row_frame():
    # the d^1 column has no pivot, so the first row keeps its x-power pivot
    # (x-valuation 1 in its frame); the entry 3 above the pivot x - 2 is
    # reduced into the window [1, 2) of that frame, not into [0, 1)
    sat = x_saturate(_pm([[X, ONE, UniPoly.const("x", 3)], [ZERO, ZERO, X - ONE * 2]]))
    assert sat == _pm([[X, ONE, X * Fraction(3, 2)], [ZERO, ZERO, X - ONE * 2]])


def _check_laurent_form(s):
    # the pivot normal form over Q[x, 1/x]: each row has x-valuation 0 and a
    # monic pivot; the pivot's x-valuation v fixes the row's frame, so the
    # pivot divided by x^v has a nonzero constant term; zeros below each
    # pivot, and an entry above a pivot of Laurent length L lies in the
    # window [v_i, v_i + L) of its row's frame
    rows = _nonzero_rows(s)
    assert len(rows) == len(s)
    frames = []  # (pivot column, x-valuation, Laurent length) per row
    for row in rows:
        assert min(x_valuation(e) for e in row if not e.is_zero) == 0
        c = next(j for j, e in enumerate(row) if not e.is_zero)
        v = x_valuation(row[c])
        assert row[c].lc() == 1
        frames.append((c, v, row[c].degree() - v))
    assert all(a[0] < b[0] for a, b in zip(frames, frames[1:]))
    for r, (c, _, length) in enumerate(frames):
        for i, row in enumerate(rows[:r]):
            e = row[c]
            vi = frames[i][1]
            assert e.is_zero or vi <= x_valuation(e) and e.degree() < vi + length
        assert all(row[c].is_zero for row in rows[r + 1:])


def _laurent_unimodular(rows, rng, steps=6):
    # rows after random Laurent-unimodular row operations: c*x^k scalings
    # (k < 0 as far as the row's x-content allows), row_i <- x*row_i +
    # f*row_j, and shuffles; the Laurent span is unchanged
    rows = [list(r) for r in rows]
    for _ in range(steps):
        i = rng.randrange(len(rows))
        op = rng.choice(("scale", "mix", "shuffle"))
        if op == "scale":
            content = min((x_valuation(e) for e in rows[i] if not e.is_zero), default=0)
            k = rng.randint(-content, 2)
            c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 7)))
            rows[i] = [(mul_xk(e, k) if k >= 0 else div_xk(e, -k)) * c for e in rows[i]]
        elif op == "mix" and len(rows) > 1:
            j = rng.choice([j for j in range(len(rows)) if j != i])
            f = UniPoly("x", [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
            rows[i] = [X * a + f * b for a, b in zip(rows[i], rows[j])]
        else:
            rng.shuffle(rows)
    return rows


def _check_x_saturate(rows, rng):
    # S = x_saturate(m) against the Q[x] saturation loop kept here as the
    # oracle: (a) S has the Laurent span of m, (b) S is unchanged under
    # Laurent-unimodular transforms of m, (c) S is in pivot normal form.
    # (a) and (c) determine S, because that form is unique for a span.
    m = _pm(rows)
    s = x_saturate(m)
    assert _x_saturate_oracle(s) == _x_saturate_oracle(m)
    assert x_saturate(_pm(_laurent_unimodular(rows, rng))) == s
    _check_laurent_form(s)
    return s


x_polys = st.tuples(small_polys, st.integers(0, 2)).map(lambda t: mul_xk(t[0], t[1]))


@given(st.integers(1, 3).flatmap(lambda c: st.lists(
    st.lists(x_polys, min_size=c, max_size=c), min_size=1, max_size=3)),
    st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_x_saturate_oracle(rows, rng):
    _check_x_saturate(rows, rng)


def _x_saturate_oracle(m):
    # x-saturation as it was before the Laurent descent: the Hermite form of
    # (Laurent span) cap Q[x]^cols, by the bottom-up saturation loop on
    # Fraction-coefficient UniPoly rows with the oracle's Hermite forms.  It
    # is canonical for the Laurent span too, so equal outputs mean equal
    # Laurent spans.
    h, _ = _hnf_oracle(m)
    echelon = {}
    for i in range(len(h) - 1, -1, -1):
        row = list(h[i])
        if all(e.is_zero for e in row):
            continue
        while True:
            for p in sorted(echelon):
                c = row[p].coeff(0)
                if c:
                    q = c / echelon[p][p].coeff(0)
                    row = [a - b * q for a, b in zip(row, echelon[p])]
            lead = next((j for j, e in enumerate(row) if e.coeff(0)), None)
            if lead is not None:
                break
            row = [div_xk(e, 1) for e in row]
        echelon[lead] = row
    return _hnf_oracle(_pm(list(echelon.values())[::-1]))[0]


def test_x_saturate_matches_oracle_on_torus_spans():
    # the inputs of criterion 8 and the torus-equivariance benchmark: spans
    # of x^r g x^-r and of the lambda-acted ideal, matched (act r) and
    # mismatched (act -r), at k = 2n + 6
    rng = random.Random(9)
    for i, p in enumerate(torus_points()):
        n = i + 1
        base = ideal_generators(p)
        for r in (1, -1):
            conj = unit_conjugate(base, r)
            for act_r in (r, -r):
                acted = ideal_generators(lambda_act(p, act_r))
                cl = clearing_for(conj, acted)
                sats = []
                for gens in (conj, acted):
                    rows = [list(r) for r in span_filtration(gens, 2 * n + 6, cl).rows]
                    sats.append(_check_x_saturate(rows, rng))
                assert (sats[0] == sats[1]) == (act_r == r)


@given(deficient_mats(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_x_saturate_matches_oracle_large_denominators(m, rng):
    _check_x_saturate([list(r) for r in m], rng)


def test_module_equal_same_ideal():
    ideal = ideal_generators(torus_points()[0])
    cl = clearing_for(ideal)
    a = span_filtration(ideal, 5, cl)
    b = span_filtration(ideal, 5, cl)
    assert module_equal(a, b)


def test_module_equal_guards():
    ideal = ideal_generators(line_points()[0])
    cl = clearing_for(ideal)
    a = span_filtration(ideal, 3, cl)
    b = span_filtration(ideal, 4, cl)
    with pytest.raises(ValueError):
        module_equal(a, b)
    other = span_filtration(ideal, 3, ClearingData(X * X * X, 2))
    with pytest.raises(ValueError):
        module_equal(a, other)


def _canon(m):
    # the canonical form that module_equal avoids building: equal forms are
    # equal spans (hnf on the line, x_saturate on the torus)
    return x_saturate(m.rows) if m.kind == TORUS else hnf(m.rows)


def _recombined(rows, rng):
    # rows after seeded unimodular row operations over Q[x]:
    # row_i <- c*(row_i + f*row_j) with c a nonzero rational and f = c' or c'*x
    rows = [list(r) for r in rows]
    for _ in range(4):
        i, j = rng.sample(range(len(rows)), 2)
        f = UniPoly("x", [0] * rng.randint(0, 1) + [rng.choice((-2, -1, 1, 3))])
        c = Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 3)))
        rows[i] = [c * (a + f * b) for a, b in zip(rows[i], rows[j])]
    return rows


def _perturbed(rows, rng):
    # one row times x - c, or 1 or -1 added to one entry, or nothing
    rows = [list(r) for r in rows]
    i = rng.randrange(len(rows))
    how = rng.choice(("none", "times", "stray"))
    if how == "times":
        rows[i] = [(X - rng.randint(-2, 2)) * e for e in rows[i]]
    elif how == "stray":
        j = rng.randrange(len(rows[i]))
        rows[i][j] = rows[i][j] + rng.choice((-1, 1))
    return rows


def test_module_equal_matches_canonical_forms():
    # oracle: module_equal(a, b) is the equality of the canonical forms, for
    # b a recombination of a's rows, sometimes perturbed; line ranks 1-4 and
    # the torus points, at k = n + 1 and 2n + 2
    rng = random.Random(24)
    line = [generic_point(affine_line(), [0, 1, 3, -2][:n]) for n in range(1, 5)]
    seen = {True: 0, False: 0}
    for p in line + torus_points():
        ideal = ideal_generators(p)
        cl = clearing_for(ideal)
        for k in (p.n + 1, 2 * p.n + 2):
            a = span_filtration(ideal, k, cl)
            for _ in range(6):
                b = replace(a, rows=_pm(_perturbed(_recombined(a.rows, rng), rng)))
                got = module_equal(a, b)
                assert got == (_canon(a) == _canon(b)), (p, k, b.rows)
                assert module_equal(b, a) == got
                seen[got] += 1
    assert min(seen.values()) >= 10, seen


def _echelon_invariants(m):
    # the pivot columns and pivot lengths of the echelon descent alone
    laurent = m.kind == TORUS
    rows = _int_rows(m.rows)
    rows = [_strip(r) for r in rows] if laurent else rows
    pcols = _echelon(rows, m.k + 1, laurent)
    return pcols, [len(r[c]) - (_val(r[c]) if laurent else 0) for r, c in zip(rows, pcols)]


def test_module_equal_needs_containment():
    # the mismatched twist at the torus point (1, 2), kmax 10: both echelon
    # forms have the same pivot columns and lengths, yet the spans differ
    p = torus_points()[1]
    conj = unit_conjugate(ideal_generators(p), 1)
    acted = ideal_generators(lambda_act(p, -1))
    cl = clearing_for(conj, acted)
    a, b = span_filtration(conj, 10, cl), span_filtration(acted, 10, cl)
    assert _echelon_invariants(a) == _echelon_invariants(b)
    assert _canon(a) != _canon(b)
    assert not module_equal(a, b) and not module_equal(b, a)


def test_module_equal_entry_off_the_pivots():
    # span{(1, x)} and span{(1, 0)}: one pivot each, on column 0 with length
    # 1, but (1, x) less its multiple of (1, 0) leaves x on a column that has
    # no pivot
    cl = ClearingData(ONE, 0)
    a = FiltrationModule(AFFINE_LINE, 1, ((ONE, ZERO),), cl)
    b = FiltrationModule(AFFINE_LINE, 1, ((ONE, X),), cl)
    assert _echelon_invariants(a) == _echelon_invariants(b)
    assert not module_equal(a, b) and not module_equal(b, a)


def test_module_equal_x_is_a_unit_on_the_torus_only():
    # the last row times x: the same Laurent span at the torus point (1, 2),
    # a smaller Q[x] span at the line point (0, 1)
    for p, equal in ((torus_points()[1], True), (line_points()[1], False)):
        ideal = ideal_generators(p)
        a = span_filtration(ideal, 2 * p.n + 6, clearing_for(ideal))
        b = replace(a, rows=a.rows[:-1] + (tuple(X * e for e in a.rows[-1]),))
        assert (_canon(a) == _canon(b)) == equal
        assert module_equal(a, b) == equal and module_equal(b, a) == equal


def test_unit_conjugate_matches_twist_span():
    # x^r g x^{-r} spans the same Laurent lattice as the twisted-point ideal
    p = torus_points()[0]
    base = ideal_generators(p)
    for r in (1, -1):
        conj = unit_conjugate(base, r)
        twisted = ideal_generators(lambda_act(p, r))
        cl = clearing_for(conj, twisted)
        k = 8
        assert module_equal(span_filtration(conj, k, cl),
                            span_filtration(twisted, k, cl))


def test_unit_conjugate_negative_control():
    p = torus_points()[0]
    base = ideal_generators(p)
    conj = unit_conjugate(base, 1)
    twisted = ideal_generators(lambda_act(p, -1))
    cl = clearing_for(conj, twisted)
    assert not module_equal(span_filtration(conj, 8, cl),
                            span_filtration(twisted, 8, cl))


def test_unit_conjugate_needs_torus():
    with pytest.raises(ValueError):
        unit_conjugate(ideal_generators(line_points()[0]), 1)


def _substitute_d(gens, g):
    # every generator sum a_i d^i rewritten as sum a_i (d + g)^i
    ring = gens.generators[0].ring
    shifted = DiffOp.partial(ring).add(DiffOp.from_coeff(ring.from_poly(g)))
    out = []
    for op in gens.generators:
        acc, power = DiffOp.zero(ring), DiffOp.from_coeff(ring.one())
        for i in range(op.order() + 1):
            acc = acc.add(DiffOp.from_coeff(op.coeff(i)).mul(power))
            power = power.mul(shifted)
        out.append(acc)
    return FractionalIdeal(gens.curve, tuple(out))


# forms that vanish at no point of the battery: at a zero of g on spec X both
# signs of the twist can give the same ideal (rank 1 at x = 0 with g = 2x)
_LINE_FORMS = ((BiPoly({(1, 0): 2, (0, 0): 1}), 0), (BiPoly({(0, 0): 3, (2, 0): -1}), 0),
               (BiPoly.const(3), 0))
_TORUS_FORMS = ((BiPoly({(1, 0): 2, (0, 0): 3}), -2), (BiPoly({(0, 0): 3, (2, 0): -1}), 0))


def _twist_cases():
    line = [generic_point(affine_line(), [0, 1, 3, -2][:n]) for n in range(1, 5)]
    return ([(p, OneForm(p.curve, f, k)) for p in line for f, k in _LINE_FORMS]
            + [(p, OneForm(p.curve, f, k)) for p in torus_points() for f, k in _TORUS_FORMS])


def test_twist_ideal_equivariance():
    # theta_g(forge(p)) spans the module of forge(omega_twist(p, g)) at kmax
    # 2n + 6 under one clearing of both; the sign mutant d -> d + g and the
    # untwisted forge(p) do not
    for p, form in _twist_cases():
        base = ideal_generators(p)
        twisted = ideal_generators(omega_twist(p, form))
        mutant = twist_ideal(base, OneForm(p.curve, -form.coefficient, form.x_shift))
        for image, equal in ((twist_ideal(base, form), True), (mutant, False), (base, False)):
            cl = clearing_for(image, twisted)
            assert module_equal(span_filtration(image, 2 * p.n + 6, cl),
                                span_filtration(twisted, 2 * p.n + 6, cl)) == equal, \
                (p, form, equal)


def test_twist_ideal_matches_substitution():
    # on the line, d -> d - g generator by generator, as _substitute_d builds it
    for p, form in _twist_cases():
        if p.curve.kind != TORUS:
            base = ideal_generators(p)
            g = form.coefficient.coeffs_in_y()[0]
            assert twist_ideal(base, form).generators == _substitute_d(base, -g).generators


def test_twist_ideal_group_laws():
    # theta_0 = id, theta_g1 theta_g2 = theta_(g1 + g2) and theta_g theta_-g =
    # id on generator tuples; on the torus both forms carry the shift -2
    g1 = BiPoly({(1, 0): 2, (0, 0): 3})
    g2 = BiPoly({(0, 0): 3, (2, 0): -1})
    for p in line_points() + torus_points():
        base = ideal_generators(p)
        k = -2 if p.curve.kind == TORUS else 0

        def theta(gens, g):
            return twist_ideal(gens, OneForm(p.curve, g, k))

        assert theta(base, BiPoly({})).generators == base.generators
        assert theta(theta(base, g2), g1).generators == theta(base, g1 + g2).generators
        assert theta(theta(base, g1), -g1).generators == base.generators


def test_twist_ideal_needs_line_or_torus_form():
    p = hyper_points()[0]
    with pytest.raises(ValueError):
        twist_ideal(ideal_generators(p), OneForm(p.curve, BiPoly.const(1)))
    with pytest.raises(ValueError):
        twist_ideal(ideal_generators(line_points()[0]), OneForm(torus(), BiPoly.const(1)))
