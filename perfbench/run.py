"""cmforge benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload codim-ladder --seed 1 --seconds 36 --trace 0

or, for every workload in turn, each in its own process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from site-packages.  The process is a
closed loop with one client: it runs the workload's fixed job list (a pass)
again and again, each job only after the previous one returned, until the
next pass would overrun ``--seconds`` (but at least MIN_PASSES passes).

``--trace 0`` reports the end-to-end metrics of untraced passes:
  wall_s       median time of one pass over the job list
  job_p50_s    median over jobs of each job's median time across passes
  job_tail_s   the highest percentile of those job times with at least ten
               jobs above it (percentile and sample count printed beside it)
  setup_s      median over fresh interpreters of the time from process start
               to the first job: interpreter start, ``import cmforge.cli``
               and input generation
  peak_rss_mb  peak resident memory of this process (getrusage)
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (tracer.PER_LAYER), with
``trace.overhead`` = traced pass time / untraced pass time.

Every job's output is checked against a known answer; ``failed`` /
``attempted`` in the last line is the failure fraction.  A human-readable
report goes to stdout first, the full record (environment included) to
``.perfbench_out/`` in the checkout, and the last stdout line is the JSON
result.  Each run is one single-threaded process; on the shared 2-core
machine the benchmark was written for, a scaling metric would mean nothing,
so none is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 11
# wall_s and each job's time are medians over passes, the first pass is
# compared with later ones, and point-sweep compares forge bytes across
# passes: a run makes at least this many, even if it overruns --seconds.
MIN_PASSES = 3
READY = "perfbench-ready"


def _import_package():
    """Import cmforge from this checkout's src/, or exit with status 1."""
    sys.path.insert(0, SRC)
    try:
        import cmforge.cli  # noqa: F401  (loads every module of the package)
    except ImportError as e:
        sys.exit("perfbench: cannot import cmforge from %s: %s" % (SRC, e))
    import cmforge
    if not os.path.abspath(cmforge.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: cmforge came from %s, not %s" % (cmforge.__file__, SRC))


def _parse(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print a ready line and exit")
    return p.parse_args(argv)


def _build(name, seed, workdir):
    import workloads
    return workloads.BUILDERS[name](seed, workdir)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Start fresh interpreters that set up and report ready; time each
    from spawn to the ready line, then wait for it to exit."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != READY or code != 0:
            raise RuntimeError("setup probe failed (exit %s, %r)" % (code, line))
        times.append(t1 - t0)
    return times


def run_pass(wl, tracer=None, errors=None):
    """Run every job once; returns (pass seconds, job seconds, failures)."""
    times, failed = [], 0
    clock = time.perf_counter
    start = clock()
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        try:
            got = job.run(wl.state)
            t1 = clock()
            ok = job.check(got, job.expected, wl.state)
        except Exception as e:  # a raising job is a failed job, not a crash
            t1 = clock()
            ok, got = False, "%s: %s" % (type(e).__name__, e)
        times.append(t1 - t0)
        if not ok:
            failed += 1
            if errors is not None:
                errors.append("%s: got %.200r, expected %.200r" % (job.name, got, job.expected))
    return clock() - start, times, failed


def tail(values):
    """(value, percentile, samples): the highest percentile, by nearest
    rank, that still has at least ten samples above it."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        raise ValueError("a tail needs at least 11 samples, got %d" % n)
    return s[n - 11], 100.0 * (n - 10) / n, n


def run_workload(wl, seconds, traced):
    """Closed loop of passes.  Untraced only, or alternating untraced and
    traced passes; stops before a pass that would overrun ``seconds``."""
    from tracer import Tracer
    plain, layered, errors = [], [], []
    job_times = [[] for _ in wl.jobs]
    attempted = failed = 0
    tracer = Tracer() if traced else None
    begin = time.perf_counter()
    while True:
        use_tracer = traced and len(layered) < len(plain)
        if use_tracer:
            tracer.reset()
            tracer.install()
        before = wl.state.get("out_bytes", 0)
        try:
            wall, times, bad = run_pass(wl, tracer if use_tracer else None, errors)
        finally:
            if use_tracer:
                tracer.uninstall()
        attempted += len(times)
        failed += bad
        if use_tracer:
            figures = tracer.summary()
            figures["cli.out_bytes"] = wl.state.get("out_bytes", 0) - before
            figures["bench.outside_spans_s"] = wall - tracer.top_level_s()
            layered.append((wall, figures))
        else:
            plain.append(wall)
            for slot, t in zip(job_times, times):
                slot.append(t)
        done = len(plain) + len(layered)
        elapsed = time.perf_counter() - begin
        enough = done >= MIN_PASSES and (not traced or layered)
        if enough and elapsed + elapsed / done > seconds:
            break
    return {"plain": plain, "layered": layered, "job_times": job_times,
            "attempted": attempted, "failed": failed, "errors": errors,
            "tracer": tracer}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": _git_commit(),
            "mode": "one single-threaded process, one client, closed loop; "
                    "shared 2-core box, so no scaling metric"}


def _git_commit():
    """HEAD of the checkout, read from .git without running git: a loose
    ref file, else the ref's line in packed-refs."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
        return "unknown (ref %s not found)" % ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(res, setup):
    per_job = [statistics.median(ts) for ts in res["job_times"]]
    value, pct, n = tail(per_job)
    metrics = {
        "wall_s": (statistics.median(res["plain"]), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"job_tail_percentile": pct, "job_samples": n, "passes": len(res["plain"]),
             "setup_probes": setup}
    if len(res["plain"]) > 1:
        notes["first_pass_over_later_median"] = (
            res["plain"][0] / statistics.median(res["plain"][1:]))
    return metrics, notes


def per_layer(res):
    from tracer import LAYERS, PER_LAYER
    untraced = statistics.median(res["plain"])
    traced = statistics.median(wall for wall, _ in res["layered"])
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            metrics[name] = (traced / untraced, unit)
        else:
            metrics[name] = (statistics.median(f[name] for _, f in res["layered"]), unit)
    shares = {layer: metrics[layer + ".self_s"][0] / traced for layer in LAYERS}
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": untraced,
                     "self_share_of_traced_wall": shares,
                     "traced_passes": len(res["layered"])}


def run_all(args) -> int:
    """Run every workload in its own process, one after another, passing
    their reports through; 1 if any of them failed or got a wrong answer."""
    import workloads
    bad = 0
    for name in workloads.BUILDERS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1:]
        bad += proc.returncode != 0 or not last or not json.loads(last[0])["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    _import_package()
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK)
    try:
        if args.setup_probe:
            _build(args.workload, args.seed, workdir)
            print(READY, flush=True)
            return 0
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        wl = _build(args.workload, args.seed, workdir)
        res = run_workload(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(res, setup)
    notes["fail_frac"] = res["failed"] / res["attempted"]
    notes["redraws"] = wl.redraws
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "inputs": wl.inputs,
              "attempted": res["attempted"], "failed": res["failed"],
              "errors": res["errors"][:20], "notes": notes,
              "job_seconds": [[job.name, times] for job, times in zip(wl.jobs, res["job_times"])],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        res["tracer"].dump(stem + ".spans.jsonl")

    print("# %s seed %d trace %d: %s" % (args.workload, args.seed, args.trace,
                                         json.dumps(record["env"], sort_keys=True)))
    for err in res["errors"][:5]:
        print("# FAILED %s" % err)
    beside = {"job_tail_s": "p%.1f of %d jobs" % (notes.get("job_tail_percentile", 0),
                                                  notes.get("job_samples", 0))}
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6g %-6s %s" % (name, value, unit, beside.get(name, "")))
    print("%-36s %16.6g %-6s %d of %d jobs" % ("fail_frac", notes["fail_frac"], "",
                                               res["failed"], res["attempted"]))
    print("# %s" % json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
