"""Acceptance gate: one test per criterion, each printing a PASS line with its
runtime against the stated budget.

The codimension criterion is cross-checked against a brute-force rank oracle
that never touches the Hermite-form code: cleared generator rows are shifted
across a truncated monomial window and ranked by fraction-free sparse integer
elimination; the codimension falls out of window counting at three
consecutive levels, and two window sizes must agree.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

from battery import (cubic_plus_one, framed_module, full_battery, hyper_points,
                     line_points, torus_points)
from cmforge.cli import main
from cmforge.cmspace import (OneForm, commutant_dim, euler_char,
                             ext1_dim, hom_dim, lambda_act, omega_twist,
                             tangent_dim, trace_lift_check, verify_relations)
from cmforge.curve import TORUS, torus
from cmforge.diffop import DiffOp
from cmforge.exact import BiPoly, Mat, QQ, UniPoly
from cmforge.forge import ideal_generators
from cmforge.lattice import (clearing_for, codim, module_equal,
                             span_filtration, unit_conjugate)
from cmforge.szego import (LocalKernel, extract_operator, gamma_skew_check,
                           residue_action)
from generalroute import oracle_ideal


def _report(num, slug, t0, budget):
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE %d (%s): PASS (%.2fs < %ds)" % (num, slug, elapsed, budget))
    assert elapsed < budget, "%s exceeded its %ds budget (%.2fs)" % (slug, budget, elapsed)


def test_criterion_01_relations_exact():
    t0 = time.perf_counter()
    battery = full_battery()
    assert len(battery) == 11
    for p in battery:
        rep = verify_relations(p)
        assert rep.ok, "%r fails: %r" % (p, rep.failures())
        for _, _, res in rep.entries:
            assert res is None or res.is_zero()
    _report(1, "relations-exact", t0, 5)


def test_criterion_02_commutant_simple():
    t0 = time.perf_counter()
    for p in full_battery():
        assert commutant_dim(p) == 1, repr(p)
    _report(2, "commutant-simple", t0, 5)


def test_criterion_03_tangent_dimension():
    t0 = time.perf_counter()
    for p in full_battery():
        assert tangent_dim(p) == p.n * p.n + 2 * p.n, repr(p)
    _report(3, "tangent-dimension", t0, 30)


def _random_module(rng):
    n = rng.randint(0, 3)
    k = rng.randint(0, 3)

    def m(r, c):
        return Mat(QQ, r, c, [Fraction(rng.randint(-3, 3)) for _ in range(r * c)])

    return framed_module(m(n, n), m(n, n), m(n, k), m(k, n))


def test_criterion_04_euler_characteristic():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(100):
        u = _random_module(rng)
        v = _random_module(rng)
        assert hom_dim(u, v) - ext1_dim(u, v) == euler_char(u, v)
    _report(4, "euler-characteristic", t0, 30)


def test_criterion_05_trace_lifting():
    t0 = time.perf_counter()
    for p in full_battery():
        assert trace_lift_check(p)  # dims (n, 1) at weight (1, -n)
    for n in (1, 2, 3):
        zero = Mat.zeros(QQ, n, n)
        bare = framed_module(zero, zero, Mat(QQ, n, 0, []), Mat(QQ, 0, n, []))
        assert not trace_lift_check(bare)  # dims (n, 0) must fail
    _report(5, "trace-lifting", t0, 1)


def test_criterion_06_kappa_regularity():
    # det(Z - z Id) * kappa(v), with the z-row from cofactor determinants,
    # normal-orders with no z-residue (normal_order raises on one) to the
    # closed-form generators
    t0 = time.perf_counter()
    for p in full_battery():
        assert ideal_generators(p) == oracle_ideal(p), p
    _report(6, "kappa-regularity", t0, 10)


# -- criterion 7: brute-force window oracle -----------------------------------


def _oracle_rows(ideal, kmax):
    """Cleared derivative rows as sparse {(j, t): c} dicts tagged by operator
    order, built with operator arithmetic only (no Hermite-form code)."""
    ring = ideal.generators[0].ring
    den = UniPoly.const("x", 1)
    maxo = max(g.order() for g in ideal.generators)
    for g in ideal.generators:
        for i in range(g.order() + 1):
            c = g.coeff(i)
            if c.is_zero:
                continue
            common = den.gcd(c.den)
            den = (den * c.den).divmod_(common)[0].monic()
    mult = den ** (maxo + 1)
    mop = DiffOp.from_coeff(ring.from_poly(mult))
    partial = DiffOp.partial(ring)
    rows = []
    for g in ideal.generators:
        op = g.mul(mop)
        for s in range(kmax - g.order() + 1):
            vec = {}
            for j in range(op.order() + 1):
                c = op.coeff(j)
                if c.is_zero:
                    continue
                assert c.is_polynomial(), "oracle clearing failed"
                for t, cc in enumerate(c.as_poly().coeffs):
                    if cc:
                        vec[(j, t)] = cc
            rows.append((g.order() + s, vec))
            op = partial.mul(op)
    return rows


def _rank_by_level(tagged, levels):
    """Fraction-free sparse integer elimination, rows processed in tag order;
    rank after each level.  Each row is scaled to integers by the lcm of its
    own denominators, and its content is removed after every step."""
    pivots = {}
    rank = 0
    out = {}
    level_iter = iter(sorted(levels))
    next_level = next(level_iter, None)
    for tag, row in sorted(tagged, key=lambda tr: tr[0]):
        while next_level is not None and tag > next_level:
            out[next_level] = rank
            next_level = next(level_iter, None)
        den = lcm(*[c.denominator for c in row.values()])
        r = _primitive({k: c.numerator * (den // c.denominator) for k, c in row.items()})
        while r:
            key = min(r)
            piv = pivots.get(key)
            if piv is None:
                pivots[key] = r
                rank += 1
                break
            # b * r - a * piv cancels the entry at key
            g = gcd(r[key], piv[key])
            a, b = r[key] // g, piv[key] // g
            if b != 1:
                r = {k: b * v for k, v in r.items()}
            for k, v in piv.items():
                nv = r.get(k, 0) - a * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
            r = _primitive(r)
    while next_level is not None:
        out[next_level] = rank
        next_level = next(level_iter, None)
    return out


def _primitive(row):
    """A sparse int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _oracle_stabilized(ideal, kmax, extra):
    """Stabilized codimension via window counting at kmax-2 .. kmax.

    c(k) counts dim(window ambient)/span; when the profile has stabilized the
    increments equal the ambient pivot degree d, and the codimension is
    c(kmax) - (kmax+1) d.  Returns None if the increments disagree.
    """
    laurent = ideal.curve.kind == TORUS
    base = _oracle_rows(ideal, kmax)
    maxdeg = max((t for _, vec in base for (_, t) in vec), default=0)
    T = maxdeg + extra
    lo = -T if laurent else 0
    tagged = []
    for tag, vec in base:
        if not vec:
            continue
        ts = [t for (_, t) in vec]
        # polynomial spans only admit nonnegative shifts; Laurent spans
        # shift freely within the window
        u_lo = lo - min(ts) if laurent else 0
        for u in range(u_lo, T - max(ts) + 1):
            tagged.append((tag, {(j, t + u): c for (j, t), c in vec.items()}))
    levels = [kmax - 2, kmax - 1, kmax]
    ranks = _rank_by_level(tagged, levels)
    window = T - lo + 1
    c = {k: (k + 1) * window - ranks[k] for k in levels}
    d1 = c[kmax] - c[kmax - 1]
    d2 = c[kmax - 1] - c[kmax - 2]
    if d1 != d2:
        return None
    return c[kmax] - (kmax + 1) * d1


def test_criterion_07_codimension_stabilizes():
    t0 = time.perf_counter()
    cases = [(line_points()[0], 1), (line_points()[1], 2),
             (torus_points()[0], 1), (torus_points()[1], 2)]
    for p, n in cases:
        ideal = ideal_generators(p)
        kmax = 2 * n + 6
        rep = codim(ideal, kmax)
        assert rep.stabilized == n, "%r: inferred %r" % (p, rep.stabilized)
        near = _oracle_stabilized(ideal, kmax, 3)
        far = _oracle_stabilized(ideal, kmax, 6)
        assert near == far == n, \
            "%r: oracle windows gave %r / %r, expected %d" % (p, near, far, n)
    _report(7, "codimension-stabilizes", t0, 120)


def test_criterion_08_unit_conjugation_equivariance():
    t0 = time.perf_counter()
    for i, p in enumerate(torus_points()):
        n = i + 1
        kmax = 2 * n + 6
        base = ideal_generators(p)
        for r in (-1, 1):
            conj = unit_conjugate(base, r)
            # the matched twist gives the same module, the opposite one not
            for act_r, want in ((r, True), (-r, False)):
                twisted = ideal_generators(lambda_act(p, act_r))
                cl = clearing_for(conj, twisted)
                assert module_equal(span_filtration(conj, kmax, cl),
                                    span_filtration(twisted, kmax, cl)) == want, \
                    "n=%d r=%d act_r=%d" % (n, r, act_r)
    _report(8, "unit-conjugation-equivariance", t0, 60)


def test_criterion_09_action_group_laws():
    t0 = time.perf_counter()
    for p in torus_points():
        assert lambda_act(p, 0) == p
        assert lambda_act(lambda_act(p, 2), 3) == lambda_act(p, 5)
        assert lambda_act(lambda_act(p, 2), -2) == p
        form = OneForm(torus(), BiPoly.const(Fraction(7)), x_shift=-1)
        assert omega_twist(p, form) == lambda_act(p, 7)
    g1 = BiPoly({(1, 0): Fraction(2)})
    g2 = BiPoly({(2, 0): Fraction(-1), (0, 0): Fraction(3)})
    for p in line_points():
        c = p.curve
        assert omega_twist(p, OneForm(c, BiPoly.const(0))) == p
        once = omega_twist(omega_twist(p, OneForm(c, g1)), OneForm(c, g2))
        assert once == omega_twist(p, OneForm(c, g1 + g2))
        assert omega_twist(omega_twist(p, OneForm(c, g1)), OneForm(c, -g1)) == p
    yform = OneForm(cubic_plus_one(), BiPoly.monomial(0, 1))
    hp = hyper_points()[0]
    assert omega_twist(omega_twist(hp, yform), OneForm(cubic_plus_one(),
                                                       -BiPoly.monomial(0, 1))) == hp
    _report(9, "action-group-laws", t0, 5)


def test_criterion_10_residue_calculus():
    t0 = time.perf_counter()
    rng = random.Random(0)
    basis = [UniPoly("z", [0] * j + [1]) for j in range(6)]
    for _ in range(50):
        terms = {}
        for r in range(6):
            for s in range(6):
                v = rng.randint(-5, 5)
                if v:
                    terms[(r, s)] = Fraction(v)
        kernel = LocalKernel(BiPoly(terms), 2)
        op = extract_operator(kernel)
        for f in basis:
            assert residue_action(kernel, f) == op.apply(f)
    assert gamma_skew_check(UniPoly("z", [0, 1]))
    assert gamma_skew_check(UniPoly("z", [0, 2]))
    assert gamma_skew_check(UniPoly("z", [0, 1, 1]))
    _report(10, "residue-calculus", t0, 10)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_suite(tag):
        d = tmp_path / tag
        d.mkdir()
        req = d / "req.json"
        req.write_text(json.dumps({"curve": {"kind": "Torus"},
                                   "points": ["1", "2"]}))
        pt, ideal, rep = str(d / "p.json"), str(d / "i.json"), str(d / "c.json")
        acted, ver = str(d / "a.json"), str(d / "v.json")
        eul, sz = str(d / "e.json"), str(d / "s.json")
        assert main(["make-point", str(req), "-o", pt]) == 0
        assert main(["verify", pt, "-o", ver]) == 0
        assert main(["forge", pt, "-o", ideal]) == 0
        assert main(["codim", ideal, "-o", rep, "--kmax", "8"]) == 0
        assert main(["act", pt, "--unit-power", "1", "-o", acted]) == 0
        assert main(["euler", "--seed", "0", "--trials", "40", "-o", eul]) == 0
        assert main(["szego-demo", "--seed", "0", "--trials", "10", "-o", sz]) == 0
        return [open(f, "rb").read() for f in (pt, ver, ideal, rep, acted, eul, sz)]

    first = run_suite("one")
    second = run_suite("two")
    assert first == second  # byte-identical reports
    _report(11, "determinism", t0, 120)
