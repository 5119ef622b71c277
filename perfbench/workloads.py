"""Seeded inputs, job lists and known-answer checks for the three workloads.

A workload is a fixed list of jobs built from ``--seed``.  Each job calls the
package through its public functions (``point-sweep`` through ``cli.main``)
and returns what it observed; ``check(observed, expected, state)`` then
compares that with an answer the benchmark knows without asking the code
under test.  A job that raises, exits nonzero or does not match counts as
failed.  The expected answer lives in ``Job.expected`` so that the oracle
self-test can break it.

The generator hands the program only points, diagonal parameters ``alphas``
and the hyperelliptic polynomial ``P``.  A draw that breaks a documented
precondition of ``generic_point`` or ``hyperelliptic`` (repeated x or y,
x = 0 on the torus, ``gcd(P, P') != 1``) is drawn again, never dropped; the
number of redraws is reported with the run.

All package calls go through module attributes (``lattice.codim``, not a
name imported from it) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from cmforge import cli, cmspace, curve, exact, forge, lattice

LINE, TORUS, HYPER = "line", "torus", "hyper"

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "codim-ladder": "ideal_generators then lattice.codim at the CLI default kmax, line ranks 1-3 "
                    "and torus ranks 1-2: lattice.hnf and UniPoly divmod/gcd do most of the work",
    "torus-equivariance": "module_equal of unit-conjugated vs lambda-acted torus ideals, matched "
                          "and mismatched: x_saturate's repeated HNFs and rref kernels",
    "point-sweep": "cli.main on JSON files per seeded point (line, torus, hyperelliptic): forge, "
                   "diffop, Mat and tangent work plus the JSON codec; almost no lattice work",
}

# Jobs per pass.  On a shared 2-core Xeon with Python 3.11 a line rank-3
# codim job takes 7-9.5 s and a torus one 8.5-10 s, a rank-2 one 0.7-0.95 s
# and a rank-1 one 0.05-0.09 s; a rank-2 equivariance comparison takes
# 2.5-4.4 s (conjugation by x^-1 is the cheaper half), a rank-1 one
# 0.4-0.55 s.  The machine's speed drifts, at times by 2x, so these figures
# are indicative only.  A pass has to fit about three times into a 36 s run,
# so that wall_s and each job's time are medians over passes and the first
# pass can be compared with later ones.  That leaves room for one rank-3
# codim job: the line one, the cheaper of the two; torus rank 3 and line
# rank 4 (about 30 s per call) are left out.  Rank-1 jobs are many and
# cheap, so the median job and the tail percentile fall inside the rank-1
# block rather than on the edge between two blocks, where they would jump
# with the seed; the more of them, the less those two order statistics
# depend on the draw.  With the 14 jobs of a torus-equivariance pass, the
# highest percentile that has ten jobs above it is p29, below the median.
# The independent jobs run in a seeded random order: the speed of a shared
# machine drifts within a pass, and jobs of one kind run back to back would
# all see the same stretch of it.
CODIM_LADDER = {LINE: {1: 12, 2: 2, 3: 1}, TORUS: {1: 12, 2: 2}}
# rank -> (points, conjugating powers r); each r gets a matched and a
# mismatched pair.
TORUS_EQUIVARIANCE = {1: (3, (-1, 1)), 2: (1, (-1,))}
POINT_SWEEP = {LINE: (1, 2, 3, 4, 5), TORUS: (1, 2, 3, 4, 5), HYPER: (1, 2, 3, 4)}
SZEGO_TRIALS = 5


@dataclass
class Job:
    name: str
    run: object          # run(state) -> observation
    check: object        # check(observation, expected, state) -> bool
    expected: object


@dataclass
class Workload:
    name: str
    jobs: list
    inputs: list
    redraws: int
    state: dict = field(default_factory=dict)


def _equals(got, expected, state) -> bool:
    return got == expected


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


class Draws:
    """Seeded draws that count how often a precondition forced a redraw."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.redraws = 0

    def xs(self, n: int) -> list[int]:
        """n distinct x-values in 1..9 (nonzero, as the torus needs).

        Positive values only: with x in -6..6, pairs x, -x and mixed
        magnitudes made a rank-3 codim job's time vary by 14 % from draw to
        draw, against 5 % with 1..9 (same Xeon, Python 3.11), and the pass
        time should follow the code rather than the seed.
        """
        while True:
            xs = [self.rng.randint(1, 9) for _ in range(n)]
            if len(set(xs)) == n:
                return xs
            self.redraws += 1

    def alphas(self, n: int) -> list[int]:
        """n values in -2..2 without 0: a zero alpha makes a job 20-30 %
        cheaper than its neighbours (same Xeon), and which jobs drew one
        would then set the pass time more than the code does."""
        return [self.rng.choice((-2, -1, 1, 2)) for _ in range(n)]

    def hyper(self, n: int, span: int = 4):
        """n points of y^2 = P(x) with distinct x and distinct y, and P.

        P interpolates y_i^2 at x_i.  Below rank 4, extra nodes that are not
        handed to make-point bring P to degree at most 3.
        """
        nodes = max(n, 4)
        while True:
            xs = [self.rng.randint(-span, span) for _ in range(nodes)]
            ys = [self.rng.randint(-span, span) for _ in range(nodes)]
            if len(set(xs)) == nodes and len(set(ys[:n])) == n:
                P = interpolate(xs, [y * y for y in ys])
                g = P.gcd(P.derivative())
                if g.degree() == 0:
                    return [[xs[i], ys[i]] for i in range(n)], P
            self.redraws += 1


def interpolate(xs, vals) -> exact.UniPoly:
    """Lagrange interpolation over Q, written here rather than taken from
    the package so that P does not depend on the code under test."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, vi) in enumerate(zip(xs, vals)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += vi * b / denom
    return exact.UniPoly("x", coeffs)


def _curve(model: str):
    return curve.affine_line() if model == LINE else curve.torus()


# ---------------------------------------------------------------------------
# codim-ladder: known answer stabilized == n
# ---------------------------------------------------------------------------


def _codim_run(model, xs, alphas):
    def run(state):
        ideal = forge.ideal_generators(cmspace.generic_point(_curve(model), xs, alphas))
        order = max(g.order() for g in ideal.generators if not g.is_zero)
        return lattice.codim(ideal, 3 * order + 2).stabilized

    return run


def codim_ladder(seed: int, workdir: str) -> Workload:
    d = Draws(seed)
    jobs, inputs = [], []
    for model, counts in CODIM_LADDER.items():
        for n, count in counts.items():
            for _ in range(count):
                xs, al = d.xs(n), d.alphas(n)
                inputs.append({"model": model, "points": xs, "alphas": al})
                jobs.append(Job("codim %s-r%d %s %s" % (model, n, xs, al),
                                _codim_run(model, xs, al), _equals, n))
    d.rng.shuffle(jobs)
    return Workload("codim-ladder", jobs, inputs, d.redraws)


# ---------------------------------------------------------------------------
# torus-equivariance: matched pairs equal (True), mismatched pairs not (False)
# ---------------------------------------------------------------------------


def _equivariance_run(n, xs, alphas, r, act_r):
    kmax = 2 * n + 6

    def run(state):
        p = cmspace.generic_point(curve.torus(), xs, alphas)
        conj = lattice.unit_conjugate(forge.ideal_generators(p), r)
        acted = forge.ideal_generators(cmspace.lambda_act(p, act_r))
        cl = lattice.clearing_for(conj, acted)
        return lattice.module_equal(lattice.span_filtration(conj, kmax, cl),
                                    lattice.span_filtration(acted, kmax, cl))

    return run


def torus_equivariance(seed: int, workdir: str) -> Workload:
    d = Draws(seed)
    jobs, inputs = [], []
    for n, (count, powers) in TORUS_EQUIVARIANCE.items():
        for _ in range(count):
            xs, al = d.xs(n), d.alphas(n)
            inputs.append({"model": TORUS, "points": xs, "alphas": al})
            for r in powers:
                for matched in (True, False):
                    act_r = r if matched else -r
                    jobs.append(Job("equal torus-r%d %s %s conj %+d act %+d" % (n, xs, al, r, act_r),
                                    _equivariance_run(n, xs, al, r, act_r), _equals, matched))
    d.rng.shuffle(jobs)
    return Workload("torus-equivariance", jobs, inputs, d.redraws)


# ---------------------------------------------------------------------------
# point-sweep: cli.main in-process, one job per subcommand call
# ---------------------------------------------------------------------------


def _cli_run(argv):
    """Run cli.main in-process.  The observation is the exit code and the
    bytes it wrote: the -o file when there is one, else stdout."""
    out_path = argv[argv.index("-o") + 1] if "-o" in argv else None

    def run(state):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as e:   # argparse usage errors
                code = e.code if isinstance(e.code, int) else 1
        if code != 0:
            return code, b""
        if out_path is None:
            raw = out.getvalue().encode()
        else:
            with open(out_path, "rb") as fh:
                raw = fh.read()
        state["out_bytes"] = state.get("out_bytes", 0) + len(raw)
        return code, raw

    return run


def _cli_check(check):
    def checked(got, expected, state):
        code, raw = got
        return code == 0 and check(json.loads(raw), expected, state, raw)

    return checked


def _fracs(rows):
    return [[Fraction(e) for e in row] for row in rows]


def _point_ok(doc, inp, state, raw) -> bool:
    """X (and Y) carry the input coordinates on the diagonal and are zero
    elsewhere, Z carries alphas on its diagonal, and the framing is
    v = (1, ..., 1), w = (-1, ..., -1)."""
    n = len(inp["alphas"])
    if doc["n"] != n:
        return False
    pts = inp["points"]
    xs = [p[0] for p in pts] if inp["model"] == HYPER else pts
    diag = {"X": xs}
    if inp["model"] == HYPER:
        diag["Y"] = [p[1] for p in pts]
    for key, vals in diag.items():
        m = _fracs(doc[key])
        if any(m[i][j] != (vals[i] if i == j else 0) for i in range(n) for j in range(n)):
            return False
    z = _fracs(doc["Z"])
    return ([z[i][i] for i in range(n)] == inp["alphas"]
            and doc["vs"] == [["1"] * n] and doc["ws"] == [["-1"] * n])


def _sweep_point(workdir, k, inp, jobs):
    n = len(inp["alphas"])
    req, pt, ideal = (os.path.join(workdir, "%s%d.json" % (stem, k))
                      for stem in ("req", "point", "ideal"))
    with open(req, "w", encoding="utf-8") as fh:
        doc = {"curve": inp["curve"], "points": inp["points"], "alphas": inp["alphas"]}
        json.dump(doc, fh)
    label = "%s-r%d #%d" % (inp["model"], n, k)

    def add(name, argv, check, expected):
        jobs.append(Job("%s %s" % (name, label), _cli_run(argv), _cli_check(check), expected))

    add("make-point", ["make-point", req, "-o", pt], _point_ok, inp)
    add("verify", ["verify", pt],
        lambda doc, want, state, raw: doc["pass"] is want, True)
    add("forge", ["forge", pt, "-o", ideal],
        lambda doc, want, state, raw: _same_bytes(state, ideal, raw)
        and max(len(g["coeffs"]) for g in doc["generators"]) - 1 == want, n)
    add("tangent", ["tangent", pt],
        lambda doc, want, state, raw: doc["tangent_dim"] == want, n * n + 2 * n)
    add("commutant", ["commutant", pt],
        lambda doc, want, state, raw: doc["commutant_dim"] == want, 1)
    if inp["model"] == TORUS:
        # Z -> Z + X^-1: the diagonal gains 1/x_i, nothing else moves.
        acted = [Fraction(a) + Fraction(1, x) for a, x in zip(inp["alphas"], inp["points"])]
        add("act", ["act", pt, "--unit-power", "1"],
            lambda doc, want, state, raw: [_fracs(doc["Z"])[i][i] for i in range(n)] == want,
            acted)


def _same_bytes(state, key, raw) -> bool:
    return state.setdefault(("bytes", key), raw) == raw


def point_sweep(seed: int, workdir: str) -> Workload:
    d = Draws(seed)
    jobs, inputs = [], []
    for model, ranks in POINT_SWEEP.items():
        for n in ranks:
            if model == HYPER:
                pts, P = d.hyper(n)
                curve_doc = {"kind": "PlaneCurve", "P": [str(c) for c in P.coeffs]}
            else:
                pts = d.xs(n)
                curve_doc = {"kind": "AffineLine" if model == LINE else "Torus"}
            inp = {"model": model, "curve": curve_doc, "points": pts, "alphas": d.alphas(n)}
            inputs.append(inp)
            _sweep_point(workdir, len(inputs) - 1, inp, jobs)
    szego_seed = d.rng.randrange(2 ** 31)
    out = os.path.join(workdir, "szego.json")
    jobs.append(Job("szego-demo seed %d" % szego_seed,
                    _cli_run(["szego-demo", "--seed", str(szego_seed),
                              "--trials", str(SZEGO_TRIALS), "-o", out]),
                    _cli_check(lambda doc, want, state, raw: doc["pass"] is want), True))
    # forge bytes are compared across passes: run.MIN_PASSES is above 1.
    return Workload("point-sweep", jobs, inputs, d.redraws)


BUILDERS = {
    "codim-ladder": codim_ladder,
    "torus-equivariance": torus_equivariance,
    "point-sweep": point_sweep,
}
