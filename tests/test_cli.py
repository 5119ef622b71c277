"""CLI: codecs, pipelines, exit codes, determinism, atomic output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from battery import cubic_plus_one, fourier_points, hyper_points, line_points, torus_points
from cmforge.cli import _ideal_json, _parse_frac, _parse_ideal, _parse_point, _point_json, main
from cmforge.cmspace import generic_point
from cmforge.curve import plane_curve
from cmforge.errors import SchemaError
from cmforge.exact import BiPoly, UniPoly
from cmforge.forge import ideal_generators


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _line_point_json(vs=None):
    return {
        "curve": {"kind": "AffineLine"},
        "n": 1,
        "X": [["0"]],
        "Y": None,
        "Z": [["0"]],
        "vs": vs or [["1"]],
        "ws": [["-1"]],
    }


# -- codec units --------------------------------------------------------------


def test_parse_frac_accepts_strings_and_ints():
    assert _parse_frac("3/4") == 0.75
    assert _parse_frac(2) == 2


def test_parse_frac_rejects_bool_and_float():
    with pytest.raises(SchemaError):
        _parse_frac(True)
    with pytest.raises(SchemaError):
        _parse_frac(1.5)


def test_point_roundtrip():
    for p in (line_points()[1], torus_points()[0]):
        assert _parse_point(_point_json(p)) == p


def test_point_roundtrip_plane():
    p = generic_point(cubic_plus_one(), [(0, 1), (2, 3)])
    assert _parse_point(_point_json(p)) == p


def test_parse_point_shape_errors():
    d = _line_point_json()
    d["X"] = [["0", "0"]]
    with pytest.raises(SchemaError):
        _parse_point(d)
    d = _line_point_json()
    d["Y"] = [["0"]]
    with pytest.raises(SchemaError):
        _parse_point(d)
    d = _line_point_json()
    del d["vs"]
    with pytest.raises(SchemaError):
        _parse_point(d)


def test_ideal_roundtrip():
    for p in (line_points()[1], torus_points()[1]):
        ideal = ideal_generators(p)
        back = _parse_ideal(_ideal_json(ideal))
        assert back.curve == ideal.curve
        assert tuple(back.generators) == tuple(ideal.generators)


def test_ideal_roundtrip_hyper():
    ideal = ideal_generators(generic_point(cubic_plus_one(), [(0, 1)]))
    back = _parse_ideal(_ideal_json(ideal))
    assert tuple(back.generators) == tuple(ideal.generators)


def test_parse_ideal_rejects_pair_coeff_on_line():
    d = {
        "curve": {"kind": "AffineLine"},
        "generators": [{"denominator_x": ["1"], "coeffs": [[["1"], ["1"]]]}],
    }
    with pytest.raises(SchemaError):
        _parse_ideal(d)


# -- torus ideals whose denominator_x holds powers of x -----------------------
# (generic torus points have x_i != 0, so forged ideals never have one)


def _torus_ideal(*gens):
    return {"curve": {"kind": "Torus"},
            "generators": [{"coeffs": c, "denominator_x": d} for d, c in gens]}


# (document, its ideal JSON, its codim report at --kmax 3)
_X_DENOMINATOR_IDEALS = [
    # 2x^3/x^2 keeps an x in the numerator, 1/x^2 keeps x^2 in the denominator
    (_torus_ideal((["0", "0", "1"], [[["0", "0", "0", "2"]], [["1"]]]),
                  (["1"], [[["1"]], [["0", "1"]], [["1"]]])),
     None,
     {"ambient_pivot": ["0", "0", "0", "0", "1"],
      "entries": [[0, None], [1, None], [2, 6], [3, 0]], "kmax": 3, "stabilized": None}),
    # x/x^3 = 1/x^2 and x^3/x^3 = 1: the shared denominator drops to x^2
    (_torus_ideal((["0", "0", "0", "1"], [[["0", "1"]], [["0", "0", "0", "1"]]]),
                  (["0", "1"], [[["0", "0", "3"]], [["-1"]]])),
     _torus_ideal((["0", "0", "1"], [[["1"]], [["0", "0", "1"]]]),
                  (["0", "1"], [[["0", "0", "3"]], [["-1"]]])),
     {"ambient_pivot": ["0", "0", "0", "1"],
      "entries": [[0, None], [1, 4], [2, 0], [3, 0]], "kmax": 3, "stabilized": None}),
    # the mixed denominator x(x - 1)
    (_torus_ideal((["0", "-1", "1"], [[["-1", "1"]], [["0", "2"]], [["5"]]]),
                  (["1"], [[["0", "1"]], [["1"]]])),
     None,
     {"ambient_pivot": ["0", "0", "1", "-2", "1"],
      "entries": [[0, None], [1, None], [2, 4], [3, 2]], "kmax": 3, "stabilized": None}),
]


@pytest.mark.parametrize("doc, ideal, report", _X_DENOMINATOR_IDEALS,
                         ids=["x-in-numerator", "x-cancels", "mixed"])
def test_x_denominator_ideal_bytes(tmp_path, doc, ideal, report):
    assert _ideal_json(_parse_ideal(doc)) == (ideal or doc)
    out = tmp_path / "c.json"
    assert main(["codim", _write(tmp_path, "i.json", doc), "--kmax", "3",
                 "-o", str(out)]) == 0
    assert out.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


_CODIM_PINS = json.loads((Path(__file__).parent / "codim_pins.json").read_text())


@pytest.mark.parametrize("name", sorted(_CODIM_PINS))
def test_codim_bytes_pinned(tmp_path, capsys, name):
    # make-point -> forge -> codim at the default kmax, stdout against the
    # bytes recorded when codim cleared with den**(maxorder + 1): line and
    # torus points 0..n-1 and 1..n for n = 1..7, and the Fourier points
    pin = _CODIM_PINS[name]
    point = str(tmp_path / "point.json")
    if "request" in pin:
        assert main(["make-point", _write(tmp_path, "req.json", pin["request"]),
                     "-o", point]) == 0
    else:
        point = _write(tmp_path, "point.json", pin["point"])
    ideal = str(tmp_path / "ideal.json")
    assert main(["forge", point, "-o", ideal]) == 0
    assert main(["codim", ideal]) == 0
    assert capsys.readouterr().out == pin["codim"]


def test_codim_rescale_remainder_is_internal_error(tmp_path, capsys, monkeypatch):
    # a multiplier that does not divide ambient * den**(maxorder + 1) is a
    # bug of the lattice layer: exit 3, not a precondition
    import dataclasses
    import cmforge.cli as cli
    from cmforge.lattice import ClearingData, codim
    bad = ClearingData(UniPoly("x", [5, 1]), 1)
    monkeypatch.setattr(cli, "lattice_codim",
                        lambda ideal, kmax: dataclasses.replace(codim(ideal, kmax), clearing=bad))
    doc = _ideal_json(ideal_generators(line_points()[1]))
    assert main(["codim", _write(tmp_path, "i.json", doc)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "internal"


def test_codim_pins_cover_the_fourier_points():
    pinned = [_CODIM_PINS["fourier-%d" % i]["point"] for i in range(3)]
    assert pinned == [_point_json(p) for p in fourier_points()]


def test_unit_conjugate_ideal_bytes():
    from cmforge.lattice import unit_conjugate
    base = ideal_generators(torus_points()[1])
    order0 = (["1"], [[["2", "-3", "1"]]])
    want = {
        -1: _torus_ideal(order0, (["0", "4", "-12", "13", "-6", "1"], [
            [["-6", "14", "-18", "14", "-6", "1"]], [["8", "-30", "39", "-21", "4"]],
            [["0", "4", "-12", "13", "-6", "1"]]])),
        1: _torus_ideal(order0, (["0", "0", "4", "-12", "13", "-6", "1"], [
            [["8", "-18", "14", "-12", "12", "-6", "1"]], [["0", "-8", "18", "-13", "3"]],
            [["0", "0", "4", "-12", "13", "-6", "1"]]])),
    }
    for r, doc in want.items():
        assert _ideal_json(unit_conjugate(base, r)) == doc

# -- pipelines through main() -------------------------------------------------


def test_make_point_verify_pipeline(tmp_path, capsys):
    inp = _write(tmp_path, "req.json", {"curve": {"kind": "Torus"},
                                        "points": ["1", "2"]})
    pt = str(tmp_path / "point.json")
    assert main(["make-point", inp, "-o", pt]) == 0
    out = str(tmp_path / "verify.json")
    assert main(["verify", pt, "-o", out]) == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    names = [r["name"] for r in report["relations"]]
    assert "x-invertible" in names and "zx-commutator" in names


def test_verify_reports_failure_without_erroring(tmp_path):
    bad = _write(tmp_path, "bad.json", _line_point_json(vs=[["2"]]))
    out = str(tmp_path / "v.json")
    assert main(["verify", bad, "-o", out]) == 0
    report = json.loads(open(out).read())
    assert report["pass"] is False
    failing = [r for r in report["relations"] if not r["ok"]]
    assert failing and all("residual" in r for r in failing)


def test_forge_codim_pipeline(tmp_path):
    inp = _write(tmp_path, "req.json", {"curve": {"kind": "AffineLine"},
                                        "points": ["0", "1"]})
    pt = str(tmp_path / "p.json")
    ideal = str(tmp_path / "ideal.json")
    rep = str(tmp_path / "codim.json")
    assert main(["make-point", inp, "-o", pt]) == 0
    assert main(["forge", pt, "-o", ideal]) == 0
    assert main(["codim", ideal, "-o", rep, "--kmax", "10"]) == 0
    data = json.loads(open(rep).read())
    assert data["stabilized"] == 2
    assert data["kmax"] == 10


def test_act_unit_power_keeps_relations(tmp_path):
    inp = _write(tmp_path, "req.json", {"curve": {"kind": "Torus"},
                                        "points": ["1"]})
    pt = str(tmp_path / "p.json")
    acted = str(tmp_path / "acted.json")
    out = str(tmp_path / "v.json")
    assert main(["make-point", inp, "-o", pt]) == 0
    assert main(["act", pt, "--unit-power", "1", "-o", acted]) == 0
    assert main(["verify", acted, "-o", out]) == 0
    assert json.loads(open(out).read())["pass"] is True
    moved = json.loads(open(acted).read())
    assert moved["Z"] == [["1"]]  # 0 + 1 * 1^(-1)


def test_act_omega_twist(tmp_path):
    inp = _write(tmp_path, "req.json", {"curve": {"kind": "AffineLine"},
                                        "points": ["2"]})
    pt = str(tmp_path / "p.json")
    acted = str(tmp_path / "acted.json")
    assert main(["make-point", inp, "-o", pt]) == 0
    assert main(["act", pt, "--omega", '[[2, 0, "1"]]', "-o", acted]) == 0
    assert json.loads(open(acted).read())["Z"] == [["4"]]  # 0 + x^2 at x = 2


def test_act_requires_exactly_one_action(tmp_path, capsys):
    pt = _write(tmp_path, "p.json", _line_point_json())
    assert main(["act", pt]) == 1
    assert main(["act", pt, "--unit-power", "1", "--omega", "[]"]) == 1
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_commutant_and_tangent_handlers(tmp_path):
    pt = _write(tmp_path, "p.json", _line_point_json())
    out = str(tmp_path / "c.json")
    assert main(["commutant", pt, "-o", out]) == 0
    assert json.loads(open(out).read()) == {"commutant_dim": 1, "simple": True}
    assert main(["tangent", pt, "-o", out]) == 0
    data = json.loads(open(out).read())
    assert data == {"tangent_dim": 3, "expected": 3, "match": True}


def test_euler_and_szego_demo(tmp_path):
    out = str(tmp_path / "e.json")
    assert main(["euler", "--seed", "3", "--trials", "20", "-o", out]) == 0
    data = json.loads(open(out).read())
    assert data["pass"] is True and data["mismatches"] == []
    assert main(["szego-demo", "--seed", "1", "--trials", "5", "-o", out]) == 0
    data = json.loads(open(out).read())
    assert data["pass"] is True
    assert set(data["gamma"]) == {"w=z", "w=2z", "w=z+z^2"}


# -- exit codes ---------------------------------------------------------------


def test_exit_1_on_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


_DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("command", ["verify", "make-point"])
def test_exit_1_on_deeply_nested_json(tmp_path, capsys, command):
    # json gives up on nesting this deep with a RecursionError: the file
    # cannot be read, a schema error like any other malformed JSON
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    assert main([command, str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema"
    assert err["detail"].startswith("cannot read %s: maximum recursion depth" % path)


def test_exit_1_on_deeply_nested_omega(tmp_path, capsys):
    pt = _write(tmp_path, "p.json", _line_point_json())
    assert main(["act", pt, "--omega", _DEEP]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema"
    assert err["detail"].startswith("bad --omega coefficient: maximum recursion depth")


_BAD_TERMS = [
    ('[[0, 1, "1"], [99999, 0, "-1"]]', "a term exponent must be an integer in 0..4300, got 99999"),
    ('[[0, 1], [2, 0, "-1"]]', "%s: not enough values to unpack (expected 3, got 2)"),
    ("5", "%s: 'int' object is not iterable"),
]


@pytest.mark.parametrize("terms, detail", _BAD_TERMS, ids=["exponent", "two-element-term", "int"])
def test_bad_terms_details_pinned(tmp_path, capsys, terms, detail):
    # the same malformed term list as a curve's F and as --omega: an
    # exponent error keeps its own message, anything else names its source
    doc = {"curve": {"kind": "PlaneCurve", "F": json.loads(terms)}, "points": [[1, 1]]}
    for argv, source in ((["make-point", _write(tmp_path, "f.json", doc)], "bad plane curve data"),
                         (["act", _write(tmp_path, "p.json", _line_point_json()), "--omega", terms],
                          "bad --omega coefficient")):
        assert main(argv) == 1
        assert capsys.readouterr().err == json.dumps(
            {"detail": detail.replace("%s", source), "error": "schema"},
            sort_keys=True, indent=2) + "\n"


def _raise_attribute_error(*args):
    raise AttributeError("boom")


def test_fault_in_curve_parsing_is_internal(tmp_path, capsys, monkeypatch):
    # an internal bug while building a curve from F is exit 3, not a schema error
    import cmforge.curve as curve
    monkeypatch.setattr(curve, "_squarefree", _raise_attribute_error)
    doc = {"curve": {"kind": "PlaneCurve", "F": [[0, 2, "1"], [3, 0, "-1"], [0, 0, "-1"]]},
           "points": [[0, 1]]}
    assert main(["make-point", _write(tmp_path, "f.json", doc)]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "internal",
                                                    "detail": "AttributeError: boom"}


def test_fault_in_omega_parsing_is_internal(tmp_path, capsys, monkeypatch):
    import cmforge.cli as cli
    monkeypatch.setattr(cli, "_parse_terms", _raise_attribute_error)
    pt = _write(tmp_path, "p.json", _line_point_json())
    assert main(["act", pt, "--omega", '[[0, 0, "1"]]']) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "internal",
                                                    "detail": "AttributeError: boom"}


def test_exit_1_on_unknown_curve(tmp_path, capsys):
    pt = _write(tmp_path, "p.json", {"curve": {"kind": "Sphere"}, "n": 1,
                                     "X": [["0"]], "Z": [["0"]],
                                     "vs": [["1"]], "ws": [["-1"]]})
    assert main(["verify", pt]) == 1


def test_exit_1_on_mismatched_framing(tmp_path, capsys):
    # two v columns against one w row: the only point shape check that the
    # codec leaves to CMPoint
    pt = _write(tmp_path, "p.json", _line_point_json(vs=[["1"], ["0"]]))
    assert main(["verify", pt]) == 1
    assert capsys.readouterr().err == json.dumps(
        {"detail": "need matching framing vector lists", "error": "schema"},
        sort_keys=True, indent=2) + "\n"


def test_exit_2_on_forge_precondition(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", _line_point_json(vs=[["2"]]))
    assert main(["forge", bad]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "precondition"
    failing = [r for r in err["report"]["relations"] if not r["ok"]]
    assert failing and all("residual" in r for r in failing)


def test_exit_2_on_make_point_precondition(tmp_path, capsys):
    inp = _write(tmp_path, "req.json", {"curve": {"kind": "Torus"},
                                        "points": ["0"]})
    assert main(["make-point", inp]) == 2


def _line_ideal_json(coeffs):
    return {"curve": {"kind": "AffineLine"},
            "generators": [{"denominator_x": ["1"], "coeffs": coeffs}]}


@pytest.mark.parametrize("command, doc, options", [
    ("make-point", {"curve": {"kind": "AffineLine"}, "points": ["1/0", 1]}, []),
    ("codim", _line_ideal_json([[["0", "1/0"]]]), []),
    ("make-point", {"curve": {"kind": "AffineLine"}, "points": ["x", 1]}, []),
    ("codim", _line_ideal_json(5), []),
    ("act", _line_point_json(), ["--unit-power", "1/0"]),
], ids=["zero-denominator-point", "zero-denominator-coeff", "non-number", "coeffs-not-list",
        "zero-denominator-unit-power"])
def test_exit_1_on_malformed_rational_data(tmp_path, capsys, command, doc, options):
    assert main([command, _write(tmp_path, "in.json", doc)] + options) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


@pytest.mark.parametrize("value", ["1e300000", "1e-300000"])
@pytest.mark.parametrize("command, doc", [
    ("make-point", lambda v: {"curve": {"kind": "AffineLine"}, "points": [v, 1, 2]}),
    ("codim", lambda v: _line_ideal_json([[["0", "1"]], [[v]]])),
], ids=["point", "coeff"])
def test_exit_1_on_oversized_rational(tmp_path, capsys, command, doc, value):
    # rejected as input: the value is neither printed nor worked on
    assert main([command, _write(tmp_path, "in.json", doc(value))]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema"
    assert "%d digits" % sys.get_int_max_str_digits() in err["detail"]
    assert len(err["detail"]) < 100


def test_parse_frac_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert _parse_frac("1e%d" % (limit - 1)) == 10 ** (limit - 1)
    assert _parse_frac("1e-%d" % (limit - 1)) == Fraction(1, 10 ** (limit - 1))
    assert _parse_frac("0.%s1e%d" % ("0" * (limit - 1), limit)) == 1
    assert _parse_frac("1/" + "9" * limit) == Fraction(1, 10 ** limit - 1)
    for s in ("1e%d" % limit, "1e-%d" % limit, "1e%d" % (10 ** 12), "0e%d" % (10 ** 12),
              "0.%s1" % ("0" * (limit - 1))):
        with pytest.raises(SchemaError, match="digits"):
            _parse_frac(s)


def _usage_error(capsys, argv):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


@pytest.mark.parametrize("options", [["--unit-power", "1"],
                                     ["--omega", '[[0, 0, "1"]]', "--x-shift", "-1"]],
                         ids=["unit-power", "omega-negative-shift"])
def test_exit_2_on_act_at_singular_torus_point(tmp_path, capsys, options):
    # both actions need X^-1; verify reports such a point as not x-invertible
    doc = dict(_line_point_json(), curve={"kind": "Torus"})
    pt = _write(tmp_path, "p.json", doc)
    assert main(["act", pt] + options) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "precondition" and "singular" in err["detail"]


def _cli_subprocess(argv):
    # a fresh interpreter with a timeout, so that an unbounded run fails the
    # test instead of hanging it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "cmforge.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=30)


_TORUS_POINT = dict(_line_point_json(), curve={"kind": "Torus"}, X=[["1"]])
_OMEGA_1 = ["--omega", '[[0, 0, "1"]]']


@pytest.mark.parametrize("command, doc, options", [
    ("act", _TORUS_POINT, ["--omega", '[[-1, 0, "1"]]']),
    ("act", _TORUS_POINT, ["--omega", '[[100000000, 0, "1"]]']),
    ("act", _TORUS_POINT, ["--omega", '[[1.5, 0, "1"]]']),
    ("act", _TORUS_POINT, ["--omega", '[[true, 0, "1"]]']),
    ("act", _TORUS_POINT, _OMEGA_1 + ["--x-shift", "4301"]),
    ("act", _TORUS_POINT, _OMEGA_1 + ["--x-shift", "-100000000"]),
    ("act", _TORUS_POINT, ["--unit-power", "1e300000"]),
    ("act", _TORUS_POINT, ["--unit-power", "7" * 5000]),
    ("make-point", {"curve": {"kind": "PlaneCurve", "F": [[0, 1, "1"], [-1, 0, "-1"]]},
                    "points": [[1, 1]]}, []),
    ("make-point", {"curve": {"kind": "PlaneCurve", "F": [[0, 1, "1"], [4301, 0, "-1"]]},
                    "points": [[1, 1]]}, []),
], ids=["omega-negative-exponent", "omega-huge-exponent", "omega-float-exponent",
        "omega-bool-exponent", "x-shift-above-bound", "x-shift-huge", "unit-power-huge-exponent",
        "unit-power-5000-digits", "F-negative-exponent", "F-exponent-above-bound"])
def test_exit_1_on_unbounded_input(tmp_path, command, doc, options):
    # exponents are JSON ints in 0..4300 and |--x-shift| <= 4300: anything
    # else is rejected before any matrix work, with a short message
    r = _cli_subprocess([command, _write(tmp_path, "in.json", doc)] + options)
    assert r.returncode == 1, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "schema" and len(err["detail"]) < 200


@pytest.mark.parametrize("options", [["--omega", '[[4300, 0, "1"]]'],
                                     _OMEGA_1 + ["--x-shift", "4300"],
                                     _OMEGA_1 + ["--x-shift", "-4300"]],
                         ids=["omega-exponent", "x-shift", "negative-x-shift"])
def test_act_at_the_exponent_bound(tmp_path, options):
    # X = [[1]] and Z = [[0]]: each twist adds 1 to Z
    acted = str(tmp_path / "acted.json")
    assert main(["act", _write(tmp_path, "p.json", _TORUS_POINT), "-o", acted] + options) == 0
    assert json.loads(open(acted).read())["Z"] == [["1"]]


@pytest.mark.parametrize("argv", [
    ["euler", "--trials", "-3"],
    ["euler", "--trials", "1001"],
    ["euler", "--trials", "100000000"],
    ["szego-demo", "--trials", "-1"],
    ["szego-demo", "--trials", "100000000"],
], ids=["euler-negative", "euler-above-bound", "euler-huge", "szego-negative", "szego-huge"])
def test_exit_1_on_trials_out_of_range(argv):
    # --trials lies in 0..1000; anything else is rejected before any trial
    r = _cli_subprocess(argv)
    assert r.returncode == 1, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "schema" and "--trials must lie in 0..1000" in err["detail"]


@pytest.mark.parametrize("argv", [["euler", "--trials", "1000"], ["szego-demo", "--trials", "0"]],
                         ids=["euler-1000", "szego-0"])
def test_trials_at_the_bound(tmp_path, argv):
    out = str(tmp_path / "out.json")
    assert main(argv + ["-o", out]) == 0
    assert json.loads(open(out).read())["trials"] == int(argv[-1])


def _rank1_ideal(tmp_path):
    # the rank-1 line ideal: order 1, so the default kmax is 5 and the
    # largest accepted 4 * 5 = 20
    ideal = str(tmp_path / "ideal.json")
    assert main(["forge", _write(tmp_path, "p.json", _line_point_json()), "-o", ideal]) == 0
    return ideal


@pytest.mark.parametrize("kmax", ["-1", "21", "1000000000"], ids=["negative", "above-bound", "huge"])
def test_exit_1_on_kmax_out_of_range(tmp_path, kmax):
    # 0 <= --kmax <= 4 * (3 * maxorder + 2), checked before any lattice work
    r = _cli_subprocess(["codim", _rank1_ideal(tmp_path), "--kmax", kmax])
    assert r.returncode == 1, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "schema" and "--kmax must lie in 0..20" in err["detail"]


@pytest.mark.parametrize("kmax", [0, 20])
def test_codim_at_the_kmax_bounds(tmp_path, kmax):
    out = str(tmp_path / "c.json")
    assert main(["codim", _rank1_ideal(tmp_path), "--kmax", str(kmax), "-o", out]) == 0
    assert json.loads(open(out).read())["kmax"] == kmax


@pytest.mark.parametrize("n", [True, 1.9, "1", -1, None],
                         ids=["bool", "float", "string", "negative", "null"])
def test_exit_1_on_non_integer_n(tmp_path, n):
    # n is a JSON int >= 0: true, 1.9 and "1" used to be read as n = 1
    r = _cli_subprocess(["verify", _write(tmp_path, "p.json", dict(_line_point_json(), n=n))])
    assert r.returncode == 1, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "schema" and "'n'" in err["detail"]


def _parabola_point_json(vs=(), ws=()):
    """A point of the parabola y = x^2 at (1, 1), (2, 4), with extra framing
    pairs appended."""
    d = _point_json(generic_point(plane_curve(BiPoly({(0, 1): 1, (2, 0): -1})),
                                  [(1, 1), (2, 4)]))
    return dict(d, vs=d["vs"] + list(vs), ws=d["ws"] + list(ws))


_GENERAL_PLANE = ("general plane models have no operator coefficient ring here; "
                  "generators cover the line, torus and hyperelliptic models")


def _hyper_ideal_json():
    return _ideal_json(ideal_generators(hyper_points()[0]))


# the documented preconditions, each with its detail; a fresh interpreter per
# case, as in the cases above.  A callable doc is built inside its case, so a
# forge bug fails that case, not the collection of this module
_DOCUMENTED_PRECONDITIONS = [
    ("act", _line_point_json(), ["--unit-power", "1"],
     "the one-parameter action is defined on the torus only"),
    ("act", _line_point_json(), ["--omega", '[[0, 1, "1"]]'],
     "y-dependent coefficient needs a plane model"),
    ("act", _line_point_json(), _OMEGA_1 + ["--x-shift", "-1"],
     "negative x-powers need the torus model"),
    ("forge", dict(_line_point_json(vs=[["1"], ["0"]]), ws=[["-1"], ["0"]]), [],
     "generator emission needs the trivial-ideal tier (one framing pair); "
     "use kappa for the general tier"),
    ("codim", _hyper_ideal_json, [],
     "lattice clearing handles line and torus coefficients only"),
    # a parabola point verifies, but forge has no generators for it
    ("forge", _parabola_point_json(), [], _GENERAL_PLANE),
    # ... at every rank, 0 included: the unit ideal is not emitted either
    ("forge", dict(_parabola_point_json(), n=0, X=[], Y=[], Z=[], vs=[[]], ws=[[]]), [],
     _GENERAL_PLANE),
    # a zero second framing pair: the tier check comes before the curve check
    ("forge", _parabola_point_json(vs=[["0", "0"]], ws=[["0", "0"]]), [],
     "generator emission needs the trivial-ideal tier (one framing pair); "
     "use kappa for the general tier"),
]


@pytest.mark.parametrize("command, doc, options, detail", _DOCUMENTED_PRECONDITIONS,
                         ids=["unit-power-on-line", "y-omega-on-line", "negative-x-shift-on-line",
                              "forge-two-framing-pairs", "codim-hyperelliptic",
                              "forge-general-plane", "forge-general-plane-rank-0",
                              "forge-general-plane-two-framing-pairs"])
def test_exit_2_on_documented_precondition(tmp_path, command, doc, options, detail):
    doc = doc() if callable(doc) else doc
    r = _cli_subprocess([command, _write(tmp_path, "in.json", doc)] + options)
    assert r.returncode == 2, r.stderr
    assert r.stderr == json.dumps({"detail": detail, "error": "precondition"},
                                  sort_keys=True, indent=2) + "\n"


def test_other_value_error_is_internal(tmp_path, capsys, monkeypatch):
    # only a PreconditionError exits 2: any other ValueError is a bug, exit 3
    import cmforge.cli as cli

    def broken(p):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "ideal_generators", broken)
    assert main(["forge", _write(tmp_path, "p.json", _line_point_json())]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "internal",
                                                    "detail": "ValueError: boom"}


def test_forge_at_constant_p_is_a_precondition(tmp_path, capsys):
    # y^2 = 9 is accepted as a curve, but Q(x)[y]/(y^2 - 9) is not a field
    req = _write(tmp_path, "req.json", {"curve": {"kind": "PlaneCurve", "P": ["9"]},
                                        "points": [[2, 3], [-3, -3]], "alphas": [-1, -1]})
    pt = str(tmp_path / "p.json")
    assert main(["make-point", req, "-o", pt]) == 0
    assert main(["verify", pt]) == 0
    capsys.readouterr()
    assert main(["forge", pt]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "precondition",
        "detail": "Q(x)[y]/(y^2 - P) is a field only for a nonconstant P; this curve has P = 9"}


def test_exit_1_on_unknown_command(capsys):
    _usage_error(capsys, ["bogus"])
    _usage_error(capsys, [])


def test_missing_input_is_schema_error(tmp_path, capsys):
    _usage_error(capsys, ["verify"])
    _usage_error(capsys, ["codim"])
    # an option that argparse cannot convert, or does not know, is a usage error too
    ideal = _write(tmp_path, "i.json", _ideal_json(ideal_generators(line_points()[1])))
    _usage_error(capsys, ["codim", ideal, "--kmax", "abc"])
    _usage_error(capsys, ["codim", ideal, "--seed", "1"])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["codim", "--help"])
    assert e.value.code == 0
    assert "--kmax" in capsys.readouterr().out


# -- determinism and environment ----------------------------------------------


def test_outputs_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(["euler", "--seed", "9", "--trials", "15", "-o", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_stdout_when_no_output_path(tmp_path, capsys):
    pt = _write(tmp_path, "p.json", _line_point_json())
    assert main(["verify", pt]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pass"] is True
    assert out.endswith("\n")


def test_default_kmax_from_order(tmp_path):
    pt = _write(tmp_path, "p.json", _line_point_json())
    ideal = str(tmp_path / "ideal.json")
    out = str(tmp_path / "c.json")
    assert main(["forge", pt, "-o", ideal]) == 0
    assert main(["codim", ideal, "-o", out]) == 0
    assert json.loads(open(out).read())["kmax"] == 5  # 3 * order(1) + 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    pt = _write(tmp_path, "p.json", _line_point_json())
    out = str(tmp_path / "v.json")
    assert main(["verify", pt, "-o", out]) == 0
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_unwritable_output_is_schema_error(tmp_path, capsys):
    # a missing directory fails before the temp file exists, a directory in
    # the output's place after it: both exit 1 and leave no temp file
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "missing" / "e.json", tmp_path / "taken"):
        assert main(["euler", "--trials", "1", "-o", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema" and str(out) in err["detail"]
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []
