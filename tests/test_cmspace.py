"""Points, relation verification, homological invariants, symmetry actions."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from battery import (cubic_plus_one, direct_sum, framed_module, full_battery,
                     hyper_points, line_points, q, torus_points)
from cmforge import cmspace
from cmforge.cli import _random_module as cli_random_module
from cmforge.cmspace import (CMPoint, commutant_dim, euler_char,
                             ext1_dim, generic_point, hom_dim, lambda_act,
                             omega_twist, OneForm, relation_set, tangent_dim,
                             trace_lift_check, verify_relations)
from cmforge.curve import affine_line, torus
from cmforge.errors import PreconditionError
from cmforge.exact import BiPoly, Mat, QQ


def test_relation_names_line():
    names = [r.name for r in relation_set(affine_line(), 1, 1)]
    assert names == ["zx-commutator", "framing-trace"]


def test_relation_names_plane():
    names = [r.name for r in relation_set(cubic_plus_one(), 2, 1)]
    assert names == ["xy-commutator", "curve-equation", "zx-commutator",
                     "zy-commutator", "framing-trace"]


def test_battery_verifies():
    for p in full_battery():
        rep = verify_relations(p)
        assert rep.ok, "%r: %r" % (p, rep.failures())


def test_known_z_matrix():
    # y^2 = x^3 + 1 at (0,1), (2,3): off-diagonal Z entries are
    # F(x_j, y_i) / ((x_i - x_j)(y_i - y_j)) and the diagonal is free
    p = generic_point(cubic_plus_one(), [(0, 1), (2, 3)])
    assert p.Zmat == Mat(QQ, 2, 2, [Fraction(v) for v in (0, -2, 2, 0)])


def test_verify_flags_broken_point():
    # Z + Id still satisfies the commutator (Id commutes with X); doubling
    # Z scales the left side while the right side stays fixed.
    p = line_points()[1]
    bad = replace(p, Zmat=p.Zmat.add(p.Zmat))
    rep = verify_relations(bad)
    assert not rep.ok
    assert any(name == "zx-commutator" for name, _ in rep.failures())


def test_torus_x_invertible_entry():
    rep = verify_relations(torus_points()[0])
    assert rep.entries[0][0] == "x-invertible"
    assert rep.entries[0][1]


def test_generic_point_preconditions():
    with pytest.raises(PreconditionError):
        generic_point(affine_line(), [0, 0])  # repeated x
    with pytest.raises(PreconditionError):
        generic_point(torus(), [0, 1])  # torus needs x != 0
    with pytest.raises(PreconditionError):
        generic_point(cubic_plus_one(), [(0, 2)])  # off the curve
    with pytest.raises(PreconditionError):
        generic_point(cubic_plus_one(), [(0, 1), (2, 1)])  # repeated y
    with pytest.raises(PreconditionError):
        generic_point(affine_line(), [])
    with pytest.raises(PreconditionError):
        generic_point(affine_line(), [0, 1], alphas=[1])


def test_alphas_shift_diagonal():
    p = generic_point(affine_line(), [0, 1], alphas=[5, 7])
    assert p.Zmat.entry(0, 0) == 5 and p.Zmat.entry(1, 1) == 7
    assert verify_relations(p).ok


def test_point_shape_validation():
    p = line_points()[0]
    with pytest.raises(ValueError):
        CMPoint(affine_line(), p.Xmat, Mat.identity(QQ, 1), p.Zmat, p.V, p.W)
    with pytest.raises(ValueError):
        CMPoint(affine_line(), p.Xmat, None, Mat.identity(QQ, 2), p.V, p.W)
    with pytest.raises(ValueError, match="V must be"):
        CMPoint(affine_line(), p.Xmat, None, p.Zmat, Mat(QQ, 2, 1, [q(1), q(0)]), p.W)
    with pytest.raises(ValueError, match="V must be"):
        CMPoint(affine_line(), p.Xmat, None, p.Zmat, p.V, Mat(QQ, 1, 2, [q(-1), q(0)]))
    with pytest.raises(ValueError, match="matching framing"):
        CMPoint(affine_line(), p.Xmat, None, p.Zmat, p.V, Mat(QQ, 2, 1, [q(-1), q(0)]))
    # n is X.rows, so a negative rank is a negative matrix shape
    with pytest.raises(ValueError, match="negative matrix shape"):
        Mat(QQ, -1, -1, [q(1)])


def test_weight_and_ninf():
    p = line_points()[2]
    assert p.weight == (Fraction(1), Fraction(-3))
    assert p.n_inf == 1


def test_commutant_battery_simple():
    for p in full_battery():
        assert commutant_dim(p) == 1, repr(p)


def test_commutant_direct_sum():
    a = line_points()[0]
    s = direct_sum(a, a)
    assert commutant_dim(s) > 1


def test_hom_self_equals_commutant():
    for p in (line_points()[0], torus_points()[1]):
        assert hom_dim(p, p) == commutant_dim(p)


def test_euler_identity_random_modules():
    rng = random.Random(7)
    for _ in range(25):
        u = _random_module(rng)
        v = _random_module(rng)
        assert hom_dim(u, v) - ext1_dim(u, v) == euler_char(u, v)


def _random_module(rng, kmax=2):
    n = rng.randint(0, 3)
    k = rng.randint(0, kmax)

    def m(r, c):
        return Mat(QQ, r, c, [Fraction(rng.randint(-3, 3)) for _ in range(r * c)])

    return framed_module(m(n, n), m(n, n), m(n, k), m(k, n))


def test_euler_draws_pinned():
    # hom_dim and ext1_dim of the 100 module pairs that `cmforge euler`
    # draws at seeds 0, 1 and 7; the euler JSON cannot show a changed draw
    # order, because its mismatch list is empty for every input
    pins = json.loads((Path(__file__).parent / "euler_pins.json").read_text())
    assert sorted(pins) == ["0", "1", "7"]
    for seed, want in pins.items():
        rng = random.Random(int(seed))
        got = []
        for _ in range(100):
            u = cli_random_module(rng)
            v = cli_random_module(rng)
            got.append([hom_dim(u, v), ext1_dim(u, v)])
        assert got == want, seed


def test_framing_matrices():
    p = line_points()[2]
    assert p.V == Mat(QQ, 3, 1, [Fraction(1)] * 3)
    assert p.W == Mat(QQ, 1, 3, [Fraction(-1)] * 3)
    # v_i as the columns of V, w_i as the rows of W
    s = direct_sum(p, line_points()[1])
    assert s.V == Mat.from_rows(QQ, [[q(1), q(0)]] * 3 + [[q(0), q(1)]] * 2)
    assert s.W == Mat.from_rows(QQ, [[q(-1)] * 3 + [q(0)] * 2, [q(0)] * 3 + [q(-1)] * 2])
    empty = framed_module(p.Xmat, p.Zmat, Mat(QQ, 3, 0, []), Mat(QQ, 0, 3, []))
    assert (empty.n_inf, empty.V, empty.W) == (0, Mat(QQ, 3, 0, []), Mat(QQ, 0, 3, []))


def test_hom_shape_mismatch():
    u = _random_module(random.Random(1))
    y = hyper_points()[2]  # rank 1, with a Y action
    with pytest.raises(ValueError):
        hom_dim(u, y)


def test_trace_lift():
    for p in full_battery():
        assert trace_lift_check(p)
    a = line_points()[0]
    assert not trace_lift_check(direct_sum(a, a))  # n_inf = 2
    bare = framed_module(Mat.identity(QQ, 1), Mat.identity(QQ, 1),
                         Mat(QQ, 1, 0, []), Mat(QQ, 0, 1, []))
    assert not trace_lift_check(bare)  # n_inf = 0


def test_tangent_dimension():
    assert tangent_dim(line_points()[0]) == 3  # n^2 + 2n at n = 1


def test_tangent_dimension_higher_rank():
    # y^2 = x^3 + 1 at rank 2 and 3, and the torus at rank 3
    for p in (hyper_points()[0], hyper_points()[1], torus_points()[2]):
        assert tangent_dim(p) == p.n * p.n + 2 * p.n, repr(p)


# --- the linear systems against the matrix-unit construction ---------------
#
# The reference pushes each matrix unit E_ab of each unknown (the others held
# at zero) through the equations with Mat.mul, one column per unit.


def _unit(r, c, a, b):
    return Mat(QQ, r, c, [Fraction(int((i, j) == (a, b)))
                          for i in range(r) for j in range(c)])


def _unit_columns(shapes, equations):
    zeros = [Mat.zeros(QQ, r, c) for r, c in shapes]
    cols = []
    for k, (r, c) in enumerate(shapes):
        for a in range(r):
            for b in range(c):
                args = list(zeros)
                args[k] = _unit(r, c, a, b)
                cols.append([e for m in equations(*args) for e in m.entries])
    return cols


def _tangent_reference(p):
    syms = ["X", "Z"] + (["Y"] if p.Ymat is not None else [])
    for i in range(p.n_inf):
        syms += [("v", i), ("w", i)]
    rels = relation_set(p.curve, p.n, p.n_inf)

    def equations(*deltas):
        delta = dict(zip(syms, deltas))
        out = []
        for rel in rels:
            size = 1 if rel.shape == "scalar" else p.n
            acc = Mat.zeros(QQ, size, size)
            for coeff, word in rel.terms:
                for pos, sym in enumerate(word):
                    term = Mat.identity(QQ, size)
                    for k, s in enumerate(word):
                        term = term.mul(delta[s] if k == pos else p.symbol_value(s))
                    acc = acc.add(term.scalar_mul(coeff))
            out.append(acc)
        return out

    shapes = [(p.symbol_value(s).rows, p.symbol_value(s).cols) for s in syms]
    return _unit_columns(shapes, equations)


def _hom_reference(mu, mv, framed=True):
    au, av = mu.vertex_actions(), mv.vertex_actions()

    def equations(f0, finf=None):
        eqs = [f0.mul(x).sub(y.mul(f0)) for x, y in zip(au, av)]
        if framed:
            eqs.append(f0.mul(mu.V).sub(mv.V.mul(finf)))
            eqs.append(finf.mul(mu.W).sub(mv.W.mul(f0)))
        return eqs

    shapes = [(mv.n, mu.n)] + ([(mv.n_inf, mu.n_inf)] if framed else [])
    return _unit_columns(shapes, equations)


def _ranked_columns(monkeypatch, fn, *args):
    """The columns fn hands to _nullspace_dim."""
    seen = []
    real = cmspace._nullspace_dim
    with monkeypatch.context() as m:
        m.setattr(cmspace, "_nullspace_dim", lambda cols: seen.append(cols) or real(cols))
        fn(*args)
    assert len(seen) == 1
    return seen[0]


def test_tangent_columns_match_unit_construction(monkeypatch):
    for p in line_points() + torus_points() + hyper_points():
        cols = _ranked_columns(monkeypatch, tangent_dim, p)
        assert cols == _tangent_reference(p), repr(p)


def test_commutant_columns_match_unit_construction(monkeypatch):
    a = line_points()[0]
    mods = full_battery()
    for m in mods + [direct_sum(a, a)]:
        cols = _ranked_columns(monkeypatch, commutant_dim, m)
        assert cols == _hom_reference(m, m), repr(m)


def test_hom_columns_match_unit_construction(monkeypatch):
    rng = random.Random(11)
    pairs = [(_random_module(rng, 3), _random_module(rng, 3)) for _ in range(40)]
    hyper = hyper_points()
    pairs += [(hyper[0], hyper[1]), (hyper[2], hyper[0])]
    mods = [u for pair in pairs for u in pair]
    assert {0, 3} <= {u.n for u in mods} and {0, 3} <= {u.n_inf for u in mods}
    for u, v in pairs:
        cols = _ranked_columns(monkeypatch, hom_dim, u, v)
        assert cols == _hom_reference(u, v), (u, v)


# --- dimensions against sympy's rank of the reference columns ---------------


def _sympy_nullity(sympy, cols):
    """Column count minus sympy's rank of the columns."""
    if not cols or not cols[0]:
        return len(cols)
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in c] for c in cols])
    return len(cols) - m.rank()


def _random_rational_module(rng, curve=None):
    """A framed module with entries num/den, |num| <= 9 and den <= 9; rank
    0-3 and 0-2 framing pairs, on the line or (curve given) with a Y action."""
    n, k = rng.randint(0, 3), rng.randint(0, 2)

    def m(r, c):
        return Mat(QQ, r, c, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(r * c)])

    return framed_module(m(n, n), m(n, n), m(n, k), m(k, n),
                         None if curve is None else m(n, n), curve)


def test_hom_dim_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(26)
    pairs = [(_random_rational_module(rng), _random_rational_module(rng)) for _ in range(30)]
    c = cubic_plus_one()
    pairs += [(_random_rational_module(rng, c), _random_rational_module(rng, c)) for _ in range(6)]
    empty = framed_module(Mat(QQ, 0, 0, []), Mat(QQ, 0, 0, []), Mat(QQ, 0, 0, []),
                          Mat(QQ, 0, 0, []))
    pairs += [(empty, empty), (empty, pairs[0][0]), (pairs[0][1], empty)]
    mods = [u for pair in pairs for u in pair]
    assert {0, 3} <= {u.n for u in mods} and {0, 2} <= {u.n_inf for u in mods}
    assert any(u.n == 0 and u.n_inf > 0 for u in mods)
    assert any(u.n > 0 and u.n_inf == 0 for u in mods)
    for u, v in pairs:
        assert hom_dim(u, v) == _sympy_nullity(sympy, _hom_reference(u, v)), (u, v)


def test_tangent_dim_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    twisted = [lambda_act(p, r) for p in torus_points() for r in (1, Fraction(-3, 2))]
    a = line_points()[1]
    bare = framed_module(a.Xmat, a.Zmat, Mat(QQ, 2, 0, []), Mat(QQ, 0, 2, []))
    for p in full_battery() + twisted + [bare]:
        assert tangent_dim(p) == _sympy_nullity(sympy, _tangent_reference(p)), repr(p)


# --- verify residuals against the Mat algorithm ------------------------------


def _residual_reference(p):
    """(name, ok, residual) per relation: every word a chain of Mat.mul from
    the identity of its shape, scaled by its coefficient and summed with
    Mat.add."""
    out = []
    for rel in relation_set(p.curve, p.n, p.n_inf):
        size = 1 if rel.shape == "scalar" else p.n
        res = Mat.zeros(QQ, size, size)
        for coeff, word in rel.terms:
            term = Mat.identity(QQ, size)
            for s in word:
                term = term.mul(p.symbol_value(s))
            res = res.add(term.scalar_mul(coeff))
        out.append((rel.name, res.is_zero(), res))
    return out


def _shift_z(p, i, j, c):
    z = list(p.Zmat.entries)
    z[i * p.n + j] += c
    return replace(p, Zmat=Mat(QQ, p.n, p.n, z))


def test_verify_residuals_exact_under_perturbation():
    for p in line_points() + torus_points() + hyper_points():
        n, last = p.n, p.n - 1
        for i, j, c in ((0, last, Fraction(1, 7)), (last, 0, Fraction(-3, 5))):
            bad = _shift_z(p, i, j, c)
            rep = verify_relations(bad)
            got = [e for e in rep.entries if e[0] != "x-invertible"]
            want = _residual_reference(bad)
            assert [e[:2] for e in got] == [e[:2] for e in want], (bad, i, j)
            for (name, _, res), (_, _, ref) in zip(got, want):
                assert res == ref, (bad, name)
                assert all(type(e) is Fraction for e in res.entries)
            # a diagonal shift commutes with the diagonal X and Y
            assert rep.ok == (n == 1), (bad, i, j)
            if p.curve.kind == "AffineLine":
                # [Z + c E_ij, X] - [Z, X] = c (x_j - x_i) E_ij
                x = p.Xmat
                zx = Mat(QQ, n, n, [c * (x.entry(j, j) - x.entry(i, i)) if (a, b) == (i, j)
                                    else Fraction(0) for a in range(n) for b in range(n)])
                assert dict((name, res) for name, _, res in got)["zx-commutator"] == zx


def test_lambda_action():
    p = torus_points()[1]
    q = lambda_act(p, 2)
    assert q.Xmat == p.Xmat
    assert q.Zmat == p.Zmat.add(p.Xmat.inv().scalar_mul(2))
    assert verify_relations(q).ok
    assert lambda_act(p, 0) == p
    assert lambda_act(lambda_act(p, 2), -2) == p
    assert lambda_act(lambda_act(p, 1), 1) == lambda_act(p, 2)


def test_lambda_needs_torus():
    with pytest.raises(ValueError):
        lambda_act(line_points()[0], 1)


def test_omega_twist_polynomial():
    p = line_points()[1]
    form = OneForm(affine_line(), BiPoly({(2, 0): Fraction(1)}))  # g = x^2
    q = omega_twist(p, form)
    assert q.Zmat == p.Zmat.add(p.Xmat.mul(p.Xmat))
    assert verify_relations(q).ok


def test_omega_matches_lambda_on_torus():
    p = torus_points()[2]
    form = OneForm(torus(), BiPoly.const(Fraction(3)), x_shift=-1)
    assert omega_twist(p, form) == lambda_act(p, 3)


def test_omega_twist_shift_matches_stepwise_product():
    # Z + g(X) X^k, the power by repeated squaring, against k factors of X
    # (of X^-1 for k < 0, torus only) multiplied one at a time
    form = BiPoly({(0, 0): Fraction(2), (1, 0): Fraction(-1, 3)})  # 2 - x/3
    for p in line_points() + torus_points():
        g = omega_twist(p, OneForm(p.curve, form)).Zmat.sub(p.Zmat)
        for k in range(-5 if p.curve.kind == "Torus" else 0, 6):
            want = g
            for _ in range(abs(k)):
                want = want.mul(p.Xmat if k > 0 else p.Xmat.inv())
            got = omega_twist(p, OneForm(p.curve, form, x_shift=k))
            assert got.Zmat == p.Zmat.add(want), (p, k)


def test_omega_twist_huge_shift_is_bounded():
    # the library takes any shift; X**k by repeated squaring makes a shift of
    # 10**6 at X = [[1]] some 40 products, not a million (stepping once per
    # unit took about 7 s per sign on a 2-core Xeon)
    code = ("from fractions import Fraction\n"
            "from cmforge.cmspace import CMPoint, OneForm, omega_twist\n"
            "from cmforge.curve import torus\n"
            "from cmforge.exact import BiPoly, Mat, QQ\n"
            "one = Mat(QQ, 1, 1, [Fraction(1)])\n"
            "p = CMPoint(torus(), one, None, Mat(QQ, 1, 1, [Fraction(0)]), one, one.neg())\n"
            "for k in (10 ** 6, -10 ** 6):\n"
            "    assert omega_twist(p, OneForm(torus(), BiPoly.const(1), x_shift=k)).Zmat == one\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=5)
    assert r.returncode == 0, r.stderr


def test_omega_form_validation():
    with pytest.raises(ValueError):
        OneForm(affine_line(), BiPoly.const(1), x_shift=-1)
    with pytest.raises(ValueError):
        OneForm(affine_line(), BiPoly.monomial(0, 1))  # y needs a plane model
    p = line_points()[0]
    with pytest.raises(ValueError):
        omega_twist(p, OneForm(torus(), BiPoly.const(1)))
