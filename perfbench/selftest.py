"""Oracle self-test: every known-answer check of the benchmark can fail.

    python3 perfbench/selftest.py

For each workload it runs a small slice of the real job list clean (no
failures allowed), then breaks the expected answer of one job of every check
kind and asserts that exactly that job is counted as failed.  It also
corrupts one coefficient of every emitted generator (the leading
coefficient of the top-order operator gains 1) and asserts that every
codim-ladder job, every mismatched torus-equivariance pair (both sides are
corrupted alike, so matched pairs stay equal) and point-sweep's forge check
catch it, and that a raising job counts as failed.  Finally it checks that
BENCHMARK.json names the same workloads and per-layer metrics as the code,
and that predictions.json names only those.  Exits 1 on the first miss, 0
when every broken answer was caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import run


def broken(expected):
    """A wrong answer of the same shape as ``expected``."""
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return expected + 1
    if isinstance(expected, list):
        return [expected[0] + 1] + expected[1:]
    if isinstance(expected, dict):   # make-point: the request it was built from
        wrong = copy.deepcopy(expected)
        wrong["alphas"][0] += 1
        return wrong
    raise TypeError("no broken form for %r" % (expected,))


def kind(job) -> tuple:
    return job.name.split()[0], repr(job.expected) if isinstance(job.expected, bool) else ""


def _slice(wl, labels):
    """Keep the jobs whose name mentions one of labels (whole points, so
    jobs that read an earlier job's output keep their producer)."""
    wl.jobs = [j for j in wl.jobs if any(label in j.name for label in labels)]
    return wl


def _expect(what, failed, want):
    print("%-66s %d failed, want %d: %s" % (what, failed, want, "ok" if failed == want else "MISSED"))
    if failed != want:
        sys.exit(1)


class corrupt_generators:
    """Add 1 to the leading coefficient of the last (top-order) generator
    that ideal_generators returns, wherever the package or the benchmark
    calls it."""

    def __enter__(self):
        from cmforge import cli, diffop, forge
        self.original = original = forge.ideal_generators

        def corrupted(point):
            ideal = original(point)
            *rest, top = ideal.generators
            coeffs = list(top.coeffs)
            coeffs[-1] = coeffs[-1] + top.ring.from_frac(Fraction(1))
            return diffop.FractionalIdeal(ideal.curve, rest + [diffop.DiffOp(top.ring, coeffs)])

        self.owners = (forge, cli)
        for owner in self.owners:
            owner.ideal_generators = corrupted
        return self

    def __exit__(self, *exc):
        for owner in self.owners:
            owner.ideal_generators = self.original
        return False


def check_answers(name, labels, workdir):
    wl = _slice(run._build(name, 0, workdir), labels)
    _, _, bad = run.run_pass(wl)
    _expect("%s: clean slice (%d jobs)" % (name, len(wl.jobs)), bad, 0)
    seen = set()
    for job in wl.jobs:
        if kind(job) in seen:
            continue
        seen.add(kind(job))
        right = job.expected
        job.expected = broken(right)
        try:
            _, _, bad = run.run_pass(wl)
        finally:
            job.expected = right
        _expect("%s: wrong answer for %s" % (name, job.name), bad, 1)
    return wl


def main() -> int:
    run._import_package()
    import workloads
    from tracer import PER_LAYER
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        cl = check_answers("codim-ladder", ("line-r1 ", "torus-r1 ", "line-r2 "), workdir)
        te = check_answers("torus-equivariance", ("torus-r1 ",), workdir)
        ps = check_answers("point-sweep", ("line-r1 ", "torus-r1 ", "szego"), workdir)

        with corrupt_generators():
            _, _, bad = run.run_pass(cl)
        _expect("codim-ladder: corrupted generator coefficient", bad, len(cl.jobs))
        with corrupt_generators():
            _, _, bad = run.run_pass(te)
        _expect("torus-equivariance: corrupted generator coefficient",
                bad, sum(j.expected is False for j in te.jobs))
        forges = sum(j.name.startswith("forge ") for j in ps.jobs)
        with corrupt_generators():
            _, _, bad = run.run_pass(ps)
        _expect("point-sweep: corrupted generator coefficient (forge bytes)", bad, forges)

        job = cl.jobs[0]
        saved = job.run
        job.run = lambda state: 1 // 0
        try:
            _, _, bad = run.run_pass(cl)
        finally:
            job.run = saved
        _expect("codim-ladder: job that raises", bad, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    if listed != workloads.WHY:
        sys.exit("BENCHMARK.json workloads differ from workloads.WHY")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        sys.exit("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    print("BENCHMARK.json matches the workloads and per-layer metrics")

    with open(os.path.join(run.HERE, "predictions.json"), encoding="utf-8") as fh:
        pred = json.load(fh)
    metrics = {m["name"] for m in spec["end_to_end"]} | {"all"}
    named = set(listed) | {"all"}
    for entry in pred["layers"]:
        unknown = (set(entry["per_layer"]) - {n for n, _ in PER_LAYER}) \
            | (set(entry["moves"]["end_to_end"]) - metrics) \
            | (set(entry["moves"]["workloads"] + entry.get("unchanged", [])) - named)
        if unknown:
            sys.exit("predictions.json names unknown metrics or workloads: %s" % sorted(unknown))
    for item in pred["roadmap"]:
        for claim in item["moves"] + item.get("unchanged", []):
            if claim["workload"] not in named or claim["end_to_end"] not in metrics:
                sys.exit("predictions.json roadmap item %s: unknown %r" % (item["item"], claim))
    print("predictions.json names only known metrics and workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
