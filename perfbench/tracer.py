"""Span tracer that instruments cmforge from the outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces the
public functions and methods named in ``SPANS`` (and the cheap counters in
``COUNTERS``) with wrappers, everywhere the cmforge modules refer to them;
``uninstall`` puts the originals back.  Each span records its name, start,
end, parent span and the id of the job it ran in.  Spans stay in memory and
are turned into per-layer figures (calls, self time, sizes) once a traced
pass is over.

Self time of a span is its duration minus the durations of its direct
children and minus the size probes (``AFTER``) that ran inside it.  The
program is single-threaded, so children nest strictly inside their parent and
never overlap, and that difference is exactly the part of the interval that
neither a child nor a probe covers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# One name per module of the package: the layers the benchmark reports.
LAYERS = ("exact", "curve", "cmspace", "diffop", "forge", "lattice", "szego", "cli")

# (span name, module, owner) where owner is a class name for methods, or
# None for module-level functions.
SPANS = (
    ("exact.Mat.mul", "exact", "Mat"),
    ("exact.Mat.rref", "exact", "Mat"),
    ("exact.Mat.inv", "exact", "Mat"),
    ("exact.Mat.adjugate", "exact", "Mat"),
    ("exact.Mat.det", "exact", "Mat"),
    ("exact.char_poly", "exact", None),
    ("exact.UniPoly.divmod_", "exact", "UniPoly"),
    ("exact.UniPoly.gcd", "exact", "UniPoly"),
    ("curve.affine_line", "curve", None),
    ("curve.torus", "curve", None),
    ("curve.plane_curve", "curve", None),
    ("curve.hyperelliptic", "curve", None),
    ("curve.derivation_data", "curve", None),
    ("curve.nu_kernel", "curve", None),
    ("curve.smoothness_check", "curve", None),
    ("cmspace.verify_relations", "cmspace", None),
    ("cmspace.tangent_dim", "cmspace", None),
    ("cmspace.commutant_dim", "cmspace", None),
    ("cmspace.generic_point", "cmspace", None),
    ("cmspace.lambda_act", "cmspace", None),
    ("diffop.DiffOp.mul", "diffop", "DiffOp"),
    ("forge.ideal_generators", "forge", None),
    ("forge.normal_order", "forge", None),
    ("lattice.hnf", "lattice", None),
    ("lattice.clearing_for", "lattice", None),
    ("lattice.span_filtration", "lattice", None),
    ("lattice.codim", "lattice", None),
    ("lattice.x_saturate", "lattice", None),
    ("lattice.module_equal", "lattice", None),
    ("lattice.unit_conjugate", "lattice", None),
    ("szego.extract_operator", "szego", None),
    ("szego.residue_action", "szego", None),
    ("szego.gamma_skew_check", "szego", None),
    ("cli.main", "cli", None),
)

# Called too often to time without distorting the pass (a rank-2 equivariance
# job makes 36000 polynomial products): counted only, so their time stays in
# the self time of whichever span calls them.  The attribute is the one Python
# looks up for the operation (``p * q`` -> ``__mul__``).
COUNTERS = (
    ("exact.UniPoly.mul", "exact", "UniPoly", "__mul__"),
    ("diffop.Coeff.init", "diffop", "Coeff", "__init__"),
)


def _max_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _after_hnf(tracer, args, result):
    m = args[0]
    h = result[0]
    tracer.high("lattice.hnf.rows_max", m.rows)
    tracer.high("lattice.hnf.out_max_deg", max((e.degree() for e in h.entries), default=-1))
    tracer.high("lattice.hnf.out_max_bits", _max_bits(h.entries))


def _after_clearing(tracer, args, result):
    tracer.high("lattice.clearing_for.mult_deg", result.den.degree() * result.power)


# Size probes on returned objects, run after the span has closed.  Their time
# is taken out of the enclosing span's self time, so it never counts as the
# program's.
AFTER = {
    "lattice.hnf": _after_hnf,
    "lattice.clearing_for": _after_clearing,
}


class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self):
        # [name, start, end, parent index, job id, probe seconds run inside]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.highs: dict[str, int] = {}
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def high(self, name: str, value: int) -> None:
        """Keep the largest value seen under name."""
        if value > self.highs.get(name, 0):
            self.highs[name] = value

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.highs.clear()
        self._stack.clear()

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(self, args, result)
                if stack:
                    spans[stack[-1]][5] += clock() - t0
            return result

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in place; ``uninstall`` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules["cmforge." + layer] for layer in LAYERS]
        for name, mod, owner in SPANS:
            home = sys.modules["cmforge." + mod]
            attr = name.rsplit(".", 1)[1]
            if owner is None:
                original = getattr(home, attr)
                self._rebind(modules, original, self._span(name, original))
            else:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._rebind([cls], original, self._span(name, original))
        for name, mod, owner, attr in COUNTERS:
            cls = getattr(sys.modules["cmforge." + mod], owner)
            original = cls.__dict__[attr]
            self._rebind([cls], original, self._counter(name, original))

    def _rebind(self, owners, original, wrapped) -> None:
        """Point every name bound to ``original`` at ``wrapped``.

        Modules import functions under their own names (cli imports
        lattice.codim as lattice_codim) and classes alias methods
        (``__rmul__ = __mul__``), so one target can have several names.
        """
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span, in the order the spans were opened."""
        own = [rec[2] - rec[1] - rec[5] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def summary(self) -> dict[str, float]:
        """Every name in PER_LAYER except those the caller measures itself
        (cli.out_bytes, bench.outside_spans_s, trace.overhead)."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        layer_s = dict.fromkeys(LAYERS, 0.0)
        under_sat = 0
        spans = self.spans
        for rec, own in zip(spans, self.self_times()):
            name = rec[0]
            calls[name] += 1
            self_s[name] += own
            layer_s[name.split(".", 1)[0]] += own
            if name == "lattice.hnf":
                parent = rec[3]
                while parent >= 0 and spans[parent][0] != "lattice.x_saturate":
                    parent = spans[parent][3]
                under_sat += parent >= 0
        derived = {"lattice.x_saturate.hnf_calls": under_sat}
        derived.update({layer + ".self_s": t for layer, t in layer_s.items()})
        out = {}
        for name, _ in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif kind == "self_s":
                out[name] = self_s[stem]
            elif kind == "calls":
                out[name] = self.counts[stem] if stem in _COUNTED else calls[stem]
            elif name in _HIGHS:
                out[name] = self.highs.get(name, 0)
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span, less the probes."""
        return (sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)
                - sum(rec[5] for rec in self.spans))

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job and
        the seconds of size probes that ran inside the span."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[0], "start": rec[1], "end": rec[2],
                                     "parent": rec[3], "job": rec[4], "probe_s": rec[5]})
                         + "\n")


_COUNTED = {name for name, *_ in COUNTERS}
_HIGHS = ("lattice.hnf.rows_max", "lattice.hnf.out_max_deg", "lattice.hnf.out_max_bits",
          "lattice.clearing_for.mult_deg")

# The per-layer metrics of a traced pass, with units.  Each should move an
# end-to-end metric on a named workload (see "predictions" in BENCHMARK.json).
PER_LAYER = (
    [("lattice.hnf.calls", "count"), ("lattice.hnf.self_s", "s"),
     ("lattice.hnf.rows_max", "rows"), ("lattice.hnf.out_max_deg", "degree"),
     ("lattice.hnf.out_max_bits", "bits"),
     ("lattice.span_filtration.calls", "count"), ("lattice.span_filtration.self_s", "s"),
     ("lattice.codim.self_s", "s"), ("lattice.clearing_for.mult_deg", "degree"),
     ("lattice.x_saturate.calls", "count"), ("lattice.x_saturate.self_s", "s"),
     ("lattice.x_saturate.hnf_calls", "count"), ("lattice.module_equal.self_s", "s"),
     ("exact.UniPoly.mul.calls", "count"), ("exact.UniPoly.divmod_.calls", "count"),
     ("exact.UniPoly.divmod_.self_s", "s"), ("exact.UniPoly.gcd.calls", "count"),
     ("exact.UniPoly.gcd.self_s", "s")]
    + [("exact.Mat.%s.%s" % (op, kind), unit)
       for op in ("mul", "rref", "inv", "adjugate", "det")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("exact.char_poly.self_s", "s"),
       ("diffop.DiffOp.mul.calls", "count"), ("diffop.DiffOp.mul.self_s", "s"),
       ("diffop.Coeff.init.calls", "count"),
       ("forge.ideal_generators.self_s", "s"), ("forge.normal_order.self_s", "s")]
    + [("cmspace.%s.self_s" % fn, "s")
       for fn in ("verify_relations", "tangent_dim", "commutant_dim", "generic_point",
                  "lambda_act")]
    + [("szego.%s.self_s" % fn, "s")
       for fn in ("extract_operator", "residue_action", "gamma_skew_check")]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.out_bytes", "bytes")]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("bench.outside_spans_s", "s"), ("trace.overhead", "ratio")]
)
