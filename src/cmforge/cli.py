"""Command line front end.

JSON in, JSON out: subcommands wire the curve/point/forge/lattice/szego
layers together and emit deterministic reports (sorted keys, rationals as
"p/q" strings, atomic file writes).  Exit codes: 0 success, 1 schema
violation (usage errors included), 2 precondition failure, 3 internal error;
errors go to stderr as JSON.  Each subcommand is declared once, in
``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from functools import cache

from . import curve as curvemod
from .cmspace import (BModule, CMPoint, OneForm, commutant_dim, euler_char,
                      ext1_dim, generic_point, hom_dim, lambda_act,
                      omega_twist, tangent_dim, verify_relations)
from .diffop import DiffOp, FractionalIdeal, clearing_denominator, coeff_ring_for
from .errors import PreconditionError, SchemaError
from .exact import BiPoly, Mat, QQ, UniPoly, rat
from .forge import ideal_generators
from .lattice import clearing_for, codim as lattice_codim
from .szego import LocalKernel, extract_operator, gamma_skew_check, residue_action

# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------


def _frac_str(c) -> str:
    return str(rat(c))


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")
# Python's int-to-str digit limit, or its default where the interpreter has
# none or it is switched off
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _parse_frac(s) -> Fraction:
    """A rational from a JSON int or rational string.

    Its numerator and denominator may have at most _DIGITS decimal digits,
    as many as _frac_str can print.  A string of at most _DIGITS characters
    without an exponent meets that bound as it stands.  A decimal exponent
    beyond 4 * _DIGITS is rejected before the value is built: the digits of
    one string cannot cancel that many powers of 10, so a nonzero value
    would be rejected anyway, after 10**exponent had been computed.
    """
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise SchemaError("expected a rational string, got %.80r" % (s,))
    short = isinstance(s, str) and len(s) <= _DIGITS and "e" not in s and "E" not in s
    exp = None if short or isinstance(s, int) else _EXPONENT.search(s)
    try:
        v = None if exp and abs(int(exp.group(1))) > 4 * _DIGITS else Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise SchemaError("expected a rational string, got %.80r" % (s,)) from None
    # n < 2**bit_length, and 2**(3 * _DIGITS) < 10**_DIGITS
    if not short and (v is None or any(n.bit_length() > 3 * _DIGITS and n >= 10 ** _DIGITS
                                       for n in (abs(v.numerator), v.denominator))):
        raise SchemaError("a rational has more than %d digits in its numerator "
                          "or denominator" % _DIGITS)
    return v


def _poly_json(p: UniPoly) -> list:
    return [_frac_str(c) for c in p.coeffs]


def _parse_poly(lst, var="x") -> UniPoly:
    if not isinstance(lst, list):
        raise SchemaError("expected a coefficient list, got %r" % (lst,))
    return UniPoly(var, [_parse_frac(c) for c in lst])


def _parse_terms(items) -> BiPoly:
    """[[r, s, "c"], ...] as the sum of c x^r y^s; repeated (r, s) add up."""
    terms = {}
    for r, s, cc in items:
        k = (int(r), int(s))
        terms[k] = terms.get(k, Fraction(0)) + _parse_frac(cc)
    return BiPoly(terms)


def _curve_json(c: curvemod.CurveModel) -> dict:
    out = {"kind": c.kind}
    if c.F is not None:
        out["F"] = [[r, s, _frac_str(cc)] for (r, s), cc in c.F.items_sorted()]
    if c.hyperelliptic_P is not None:
        out["P"] = _poly_json(c.hyperelliptic_P)
    return out


def _parse_curve(d) -> curvemod.CurveModel:
    if not isinstance(d, dict) or "kind" not in d:
        raise SchemaError("curve model needs a 'kind' field")
    kind = d["kind"]
    if kind == curvemod.AFFINE_LINE:
        return curvemod.affine_line()
    if kind == curvemod.TORUS:
        return curvemod.torus()
    if kind == curvemod.PLANE_CURVE:
        try:
            if d.get("F") is not None:
                return curvemod.plane_curve(_parse_terms(d["F"]))
            if d.get("P") is not None:
                return curvemod.hyperelliptic(_parse_poly(d["P"]))
        except SchemaError:
            raise
        except Exception as e:
            raise SchemaError("bad plane curve data: %s" % (e,))
        raise SchemaError("plane curve needs 'F' or 'P'")
    raise SchemaError("unknown curve kind %r" % (kind,))


def _mat_json(m: Mat | None):
    if m is None:
        return None
    return [[_frac_str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _parse_mat(rows, nr, nc, label) -> Mat:
    if not isinstance(rows, list) or len(rows) != nr \
            or any(not isinstance(r, list) or len(r) != nc for r in rows):
        raise SchemaError("%s must be a %d x %d matrix" % (label, nr, nc))
    return Mat(QQ, nr, nc, [_parse_frac(e) for r in rows for e in r])


def _point_json(p: CMPoint) -> dict:
    return {
        "curve": _curve_json(p.curve),
        "n": p.n,
        "X": _mat_json(p.Xmat),
        "Y": _mat_json(p.Ymat),
        "Z": _mat_json(p.Zmat),
        "vs": [[_frac_str(v.entry(i, 0)) for i in range(p.n)] for v in p.vs],
        "ws": [[_frac_str(w.entry(0, j)) for j in range(p.n)] for w in p.ws],
    }


def _parse_point(d) -> CMPoint:
    if not isinstance(d, dict):
        raise SchemaError("point must be a JSON object")
    c = _parse_curve(d.get("curve"))
    try:
        n = int(d["n"])
    except Exception:
        raise SchemaError("point needs an integer 'n'")
    X = _parse_mat(d.get("X"), n, n, "X")
    Z = _parse_mat(d.get("Z"), n, n, "Z")
    Y = None
    if c.has_y:
        Y = _parse_mat(d.get("Y"), n, n, "Y")
    elif d.get("Y") is not None:
        raise SchemaError("Y is only defined for plane models")
    vs_raw, ws_raw = d.get("vs"), d.get("ws")
    if not isinstance(vs_raw, list) or not isinstance(ws_raw, list) or not vs_raw:
        raise SchemaError("point needs nonempty 'vs' and 'ws' lists")
    vs = [Mat(QQ, n, 1, [_parse_frac(e) for e in _expect_list(v, n, "vs entry")])
          for v in vs_raw]
    ws = [Mat(QQ, 1, n, [_parse_frac(e) for e in _expect_list(w, n, "ws entry")])
          for w in ws_raw]
    try:
        return CMPoint(c, n, X, Y, Z, vs, ws)
    except ValueError as e:
        raise SchemaError(str(e))


def _expect_list(v, length, label):
    if not isinstance(v, list) or len(v) != length:
        raise SchemaError("%s must be a list of length %d" % (label, length))
    return v


def _ideal_json(ideal: FractionalIdeal) -> dict:
    gens = []
    for g in ideal.generators:
        D = clearing_denominator([g])
        mult = g.ring.from_poly(D)
        coeffs = []
        for i in range(g.order() + 1):
            c = g.coeff(i) * mult
            if not c.is_polynomial():
                raise RuntimeError("denominator clearing failed for %r" % (c,))
            entry = [_poly_json(c.a)]
            if c.b is not None:
                entry.append(_poly_json(c.b))
            coeffs.append(entry)
        gens.append({"denominator_x": _poly_json(D), "coeffs": coeffs})
    return {"curve": _curve_json(ideal.curve), "generators": gens}


def _parse_ideal(d) -> FractionalIdeal:
    if not isinstance(d, dict):
        raise SchemaError("ideal must be a JSON object")
    c = _parse_curve(d.get("curve"))
    try:
        ring = coeff_ring_for(c)
    except ValueError as e:
        raise SchemaError(str(e))
    gens_raw = d.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise SchemaError("ideal needs a nonempty 'generators' list")
    gens = []
    for item in gens_raw:
        if not isinstance(item, dict):
            raise SchemaError("generator entries must be objects")
        D = _parse_poly(item.get("denominator_x", ["1"]))
        if D.is_zero:
            raise SchemaError("zero denominator")
        coeffs = []
        entries = item.get("coeffs", [])
        if not isinstance(entries, list):
            raise SchemaError("'coeffs' must be a list")
        for entry in entries:
            if not isinstance(entry, list) or not entry or len(entry) > 2:
                raise SchemaError("coefficient entries are [poly] or [poly, poly]")
            a = _parse_poly(entry[0])
            b = None
            if len(entry) == 2:
                if ring.P is None:
                    raise SchemaError("two-component coefficients need a hyperelliptic model")
                b = _parse_poly(entry[1])
            coeffs.append(ring.coeff(a, b, D))
        gens.append(DiffOp(ring, coeffs))
    try:
        return FractionalIdeal(c, gens)
    except ValueError as e:
        raise SchemaError(str(e))


def _verify_json(report) -> dict:
    rels = []
    for name, ok, res in report.entries:
        entry = {"name": name, "ok": bool(ok)}
        if not ok and res is not None:
            entry["residual"] = _mat_json(res)
        rels.append(entry)
    return {"pass": report.ok, "relations": rels}


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _handle_make_point(payload, ns):
    if not isinstance(payload, dict):
        raise SchemaError("expected an object with 'curve' and 'points'")
    c = _parse_curve(payload.get("curve"))
    raw_pts = payload.get("points")
    if not isinstance(raw_pts, list):
        raise SchemaError("'points' must be a list")
    if c.has_y:
        pts = [(_parse_frac(p[0]), _parse_frac(p[1]))
               for p in (_expect_list(p, 2, "plane point") for p in raw_pts)]
    else:
        pts = [_parse_frac(p) for p in raw_pts]
    alphas = payload.get("alphas")
    if alphas is not None:
        alphas = [_parse_frac(a) for a in _expect_list(alphas, len(pts), "'alphas'")]
    return _point_json(generic_point(c, pts, alphas))


def _handle_verify(payload, ns):
    return _verify_json(verify_relations(_parse_point(payload)))


def _handle_forge(payload, ns):
    p = _parse_point(payload)
    out = ideal_generators(p)
    if not isinstance(out, FractionalIdeal):
        raise PreconditionError(
            "general plane models produce symbolic generators; the JSON "
            "schema covers the line, torus and hyperelliptic models")
    return _ideal_json(out)


def _handle_codim(payload, ns):
    ideal = _parse_ideal(payload)
    gens = [g for g in ideal.generators if not g.is_zero]
    max_order = max(g.order() for g in gens)
    kmax = 3 * max_order + 2 if ns.kmax is None else ns.kmax
    report = lattice_codim(ideal, kmax)
    ambient = report.ambient_pivot
    if ambient is not None:
        # the wire reports the ambient pivot of the span cleared by
        # den**(maxorder + 1), den the common denominator; that span is the
        # library's (cleared by m = clearing_for(ideal).multiplier()) times
        # the polynomial den**(maxorder + 1) / m, which scales every pivot
        wire = clearing_denominator(gens) ** (max_order + 1)
        ambient, rem = (ambient * wire).divmod_(clearing_for(ideal).multiplier())
        if not rem.is_zero:
            raise RuntimeError("the ambient pivot times den**(maxorder + 1) is not a "
                               "multiple of the clearing multiplier")
    return {
        "kmax": kmax,
        "entries": [[k, v] for k, v in report.entries],
        "stabilized": report.stabilized,
        "ambient_pivot": None if ambient is None else _poly_json(ambient),
    }


def _handle_act(payload, ns):
    p = _parse_point(payload)
    unit_power, omega = ns.unit_power, ns.omega
    if (unit_power is None) == (omega is None):
        raise SchemaError("act needs exactly one of --unit-power or --omega")
    if unit_power is not None:
        try:
            r = rat(Fraction(unit_power))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("--unit-power must be rational, got %r" % (unit_power,))
        return _point_json(lambda_act(p, r))
    try:
        g = _parse_terms(json.loads(omega))
    except SchemaError:
        raise
    except Exception as e:
        raise SchemaError("bad --omega coefficient: %s" % (e,))
    form = OneForm(p.curve, g, ns.x_shift)
    return _point_json(omega_twist(p, form))


def _handle_commutant(payload, ns):
    d = commutant_dim(_parse_point(payload))
    return {"commutant_dim": d, "simple": d == 1}


def _random_module(rng, nmax=3) -> BModule:
    n = rng.randint(0, nmax)
    k = rng.randint(0, nmax)

    def rmat(r, c):
        return Mat(QQ, r, c, [Fraction(rng.randint(-3, 3)) for _ in range(r * c)])

    return BModule(n, k, rmat(n, n), None, rmat(n, n), rmat(n, k), rmat(k, n))


def _handle_euler(payload, ns):
    seed, trials = ns.seed, ns.trials
    rng = random.Random(seed)
    mismatches = []
    for t in range(trials):
        U = _random_module(rng)
        V = _random_module(rng)
        h, e, chi = hom_dim(U, V), ext1_dim(U, V), euler_char(U, V)
        if h - e != chi:
            mismatches.append({"trial": t, "hom": h, "ext1": e, "euler": chi})
    return {"seed": seed, "trials": trials, "pass": not mismatches,
            "mismatches": mismatches}


def _handle_tangent(payload, ns):
    p = _parse_point(payload)
    d = tangent_dim(p)
    expected = p.n * p.n + 2 * p.n
    return {"tangent_dim": d, "expected": expected, "match": d == expected}


def _random_kernel(rng, degmax=5) -> LocalKernel:
    terms = {}
    for r in range(degmax + 1):
        for s in range(degmax + 1):
            terms[(r, s)] = Fraction(rng.randint(-5, 5))
    return LocalKernel(BiPoly(terms), 2)


def _handle_szego_demo(payload, ns):
    seed, trials = ns.seed, ns.trials
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        k = _random_kernel(rng)
        op = extract_operator(k)
        for j in range(6):
            f = UniPoly("z", [0] * j + [1])
            if residue_action(k, f) != op.apply(f):
                mismatches += 1
                break
    gamma = {
        "w=z": gamma_skew_check(UniPoly("z", [0, 1])),
        "w=2z": gamma_skew_check(UniPoly("z", [0, 2])),
        "w=z+z^2": gamma_skew_check(UniPoly("z", [0, 1, 1])),
    }
    return {"seed": seed, "trials": trials, "kernel_mismatches": mismatches,
            "gamma": gamma,
            "pass": mismatches == 0 and all(gamma.values())}


_SEED_TRIALS = ((("--seed",), {"type": int, "default": 0}),
                (("--trials",), {"type": int, "default": 100}))

# (name, handler, help, takes an input file, extra arguments)
_COMMANDS = (
    ("make-point", _handle_make_point, "build a rank-n point from curve points", True, ()),
    ("verify", _handle_verify, "check the defining relations at a point", True, ()),
    ("forge", _handle_forge, "emit fractional-ideal generators for a verified point", True, ()),
    ("codim", _handle_codim, "filtration codimension profile of an ideal", True,
     ((("--kmax",), {"type": int, "help": "top filtration level"}),)),
    ("act", _handle_act, "apply a symmetry action to a point", True,
     ((("--unit-power",), {"help": "rational r for Z -> Z + r X^-1"}),
      (("--omega",), {"help": "one-form coefficient as JSON [[r,s,\"c\"],...]"}),
      (("--x-shift",), {"type": int, "default": 0,
                        "help": "Laurent x-power on the coefficient"}))),
    ("commutant", _handle_commutant, "dimension of the commutant at a point", True, ()),
    ("euler", _handle_euler, "random check hom - ext1 = euler on module pairs", False,
     _SEED_TRIALS),
    ("tangent", _handle_tangent, "linearized-relation solution dimension at a point", True, ()),
    ("szego-demo", _handle_szego_demo,
     "random kernel extraction and coordinate-change checks", False, _SEED_TRIALS),
)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise SchemaError("cannot write %s: %s" % (path, e.strerror or e)) from None
        raise


def _emit_error(obj) -> None:
    sys.stderr.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON, or an int too long to read
        raise SchemaError("cannot read %s: %s" % (path, e))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are schema errors (exit 1);
    subparsers are built from the same class."""

    def error(self, message):
        raise SchemaError("%s: %s" % (self.prog, message))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parse_args keeps no state between calls)."""
    parser = _Parser(
        prog="cmforge",
        description="Exact computations on Calogero-Moser spaces over curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, needs_input, extra in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if needs_input:
            sp.add_argument("input", help="input JSON file")
        sp.add_argument("-o", "--output", help="output JSON file (default stdout)")
        for args, kwargs in extra:
            sp.add_argument(*args, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        payload = _load_json(ns.input) if "input" in ns else None
        _write_json(ns.handler(payload, ns), ns.output)
    except SchemaError as e:
        _emit_error({"error": "schema", "detail": str(e)})
        return 1
    except PreconditionError as e:
        report = {"error": "precondition", "detail": str(e)}
        if getattr(e, "report", None) is not None:
            report["report"] = _verify_json(e.report)
        _emit_error(report)
        return 2
    except ValueError as e:
        _emit_error({"error": "precondition", "detail": str(e)})
        return 2
    except Exception as e:
        _emit_error({"error": "internal", "detail": "%s: %s" % (type(e).__name__, e)})
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
