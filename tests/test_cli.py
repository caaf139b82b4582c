import ast
import copy
import gc
import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError, validators

import gon.cli as cli
from gon.body import Body
from gon.cli import main
from gon.exactmath import current_width, working_width
from gon import schemas
from gon.schemas import validate_input, validate_output
from gon.verify import CheckReport


@pytest.fixture
def files(tmp_path):
    def w(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    return {
        "badjson": str(bad),
        "cube2": w("cube2.json", {"type": "box", "a": ["1", "1"]}),
        "t2": w("t2.json", {"type": "vpoly",
                            "vertices": [["-1", "-1"], ["2", "-1"], ["-1", "2"]]}),
        "z2": w("z2.json", {"basis": [["1", "0"], ["0", "1"]]}),
        "z3": w("z3.json", {"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        "skew": w("skew.json", {"basis": [[2, 1], [0, 1]]}),
        "mat": w("mat.json", {"rows": 1, "cols": 3, "data": [[1, 2, 3]]}),
        "mat3711": w("mat3711.json", {"rows": 1, "cols": 3, "data": [[3, 7, 11]]}),
        "badbody": w("badbody.json", {"type": "box", "sides": [1, 1]}),
        "badmat": w("badmat.json", {"rows": 2, "cols": 3, "data": [[1, 2, 3]]}),
    }


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, json.loads(cap.out), cap.err


def test_minima_output(files, capsys):
    rc, doc, _ = run(capsys, "minima", "--body", files["cube2"],
                     "--lattice", files["skew"])
    assert rc == 0
    assert doc["schema"] == "gon/1"
    assert doc["minima"] == ["1", "2"]
    assert doc["witnesses"][0] == ["0", "1"]
    validate_output("minima", doc)


def test_minima_count_flag(files, capsys):
    rc, doc, _ = run(capsys, "minima", "--body", files["cube2"],
                     "--lattice", files["z2"], "--count", "1")
    assert rc == 0 and doc["minima"] == ["1"] and doc["count"] == 1


def test_count_with_dilate(files, capsys):
    rc, doc, _ = run(capsys, "count", "--body", files["cube2"],
                     "--lattice", files["z2"], "--dilate", "2")
    assert rc == 0 and doc["count"] == 25 and doc["dilate"] == "2"
    rc, doc, _ = run(capsys, "count", "--body", files["cube2"],
                     "--lattice", files["z2"], "--interior")
    assert doc["count"] == 1 and doc["interior"] is True


def test_count_of_a_large_box(files, tmp_path, capsys):
    body = tmp_path / "box.json"
    body.write_text(json.dumps({"type": "box", "a": ["5/2", "5/2", "5/2"]}))
    args = ("count", "--body", str(body), "--lattice", files["z3"], "--dilate", "14")
    rc, doc, _ = run(capsys, *args)
    assert rc == 0 and doc["count"] == 71 ** 3
    rc, doc, _ = run(capsys, *args, "--interior")
    assert rc == 0 and doc["count"] == 69 ** 3 and doc["interior"] is True


def test_count_of_a_huge_box_is_guarded(files, tmp_path, capsys):
    # about 8e18 points, whose counting walk would visit about 4e12 nodes
    body = tmp_path / "box.json"
    body.write_text(json.dumps({"type": "box", "a": [1000000, 1000000, 1000000]}))
    start = time.perf_counter()
    expect_error(capsys, "guard", "count", "--body", str(body), "--lattice", files["z3"])
    assert time.perf_counter() - start < 10


def test_ehrhart_output(files, capsys):
    rc, doc, _ = run(capsys, "ehrhart", "--body", files["cube2"],
                     "--lattice", files["z2"], "--eval", "3")
    assert rc == 0
    assert doc["coefficients"] == ["1", "4", "4"]
    assert doc["eval_value"] == "49"


def test_polar_output(files, capsys):
    rc, doc, _ = run(capsys, "polar", "--body", files["cube2"])
    assert rc == 0
    k = Body.from_json(doc["body"])
    assert k.volume() == 2  # cross polytope in the plane


def test_width_output(files, capsys):
    rc, doc, _ = run(capsys, "width", "--body", files["t2"], "--lattice", files["z2"])
    assert rc == 0 and doc["width"] == "3"


def test_siegel_output(files, capsys):
    rc, doc, _ = run(capsys, "siegel", "--matrix", files["mat"])
    assert rc == 0
    assert doc["norms"] == [1, 2]
    assert doc["gram_det"] == 14 and doc["minor_gcd"] == 1
    assert doc["bv_bound"] == {"sqrt_of": "14"}
    assert doc["bv_satisfied"] is True and doc["classical_satisfied"] is True
    validate_output("siegel", doc)


def test_sigma_output(capsys):
    rc, doc, _ = run(capsys, "sigma", "--n", "4")
    assert rc == 0 and doc["sigma"] == "2/3"
    rc, doc, _ = run(capsys, "sigma", "--n", "3")
    assert doc["sigma"] == "3/4"


def test_whitworth_output(capsys):
    rc, doc, _ = run(capsys, "whitworth", "--beta", "1")
    assert rc == 0 and doc["delta"] == "19/27" and doc["variant"] == "slab"
    rc, doc, _ = run(capsys, "whitworth", "--beta", "1/4")
    assert doc["delta"] == "3/4"
    rc, doc, _ = run(capsys, "whitworth", "--hexagon")
    assert doc["delta"] == "3/4" and doc["beta"] is None


def test_scan_output(capsys):
    rc, doc, _ = run(capsys, "scan", "--n", "2", "--max", "8")
    assert rc == 0
    assert doc["record_count"] == len(doc["records"]) > 10
    assert doc["within_sqrt_n"] and doc["within_sigma_inv"] and doc["within_exact"]
    assert doc["exact_value"] == "1"
    validate_output("scan", doc)
    rc, doc2, _ = run(capsys, "scan", "--n", "2", "--max", "8", "--no-records")
    assert doc2["records"] is None and doc2["empirical_s"] == doc["empirical_s"]


def test_verify_output(files, capsys):
    rc, doc, _ = run(capsys, "verify", "--body", files["cube2"],
                     "--lattice", files["z2"])
    assert rc == 0
    assert doc["checks_run"] == 31
    assert sum(doc["status_counts"].values()) == 31
    assert doc["violations"] == [] and doc["candidates"] == []
    by_id = {r["check_id"]: r for r in doc["reports"]}
    assert by_id["minkowski_upper"]["status"] == "equality"
    validate_output("verify", doc)


def test_verify_selection(files, capsys):
    rc, doc, _ = run(capsys, "verify", "--body", files["cube2"],
                     "--lattice", files["z2"], "--checks", "mahler_conj,survol")
    assert [r["check_id"] for r in doc["reports"]] == ["mahler_conj", "survol"]
    assert doc["checks_run"] == 2


def test_verify_exit_two_on_violation(files, capsys, monkeypatch):
    fake = CheckReport("survol", "theorem", F(5), F(4), "violated", F(-1), {})
    monkeypatch.setattr(cli, "run_checks", lambda k, lat, sel=None: [fake])
    rc, doc, _ = run(capsys, "verify", "--body", files["cube2"],
                     "--lattice", files["z2"])
    assert rc == 2
    assert doc["violations"] == ["survol"]
    assert doc["candidates"] == []


def test_verify_exit_two_on_candidate(files, capsys, monkeypatch):
    fake = CheckReport("bhw_conj", "conjecture", F(9), F(8), "violated", F(-1), {})
    monkeypatch.setattr(cli, "run_checks", lambda k, lat, sel=None: [fake])
    rc, doc, _ = run(capsys, "verify", "--body", files["cube2"],
                     "--lattice", files["z2"])
    assert rc == 2
    assert doc["violations"] == ["bhw_conj"]
    assert doc["candidates"][0]["candidate"]["check_id"] == "bhw_conj"
    assert "body" in doc["candidates"][0]


def test_corpus_small(files, capsys):
    rc, doc, _ = run(capsys, "corpus", "--instances", "2", "--seed", "5")
    assert rc == 0
    assert doc["seed"] == 5 and doc["all_hold"] is True
    assert doc["random"]["instances"] == 2
    assert {f["name"] for f in doc["fixed"]} >= {"cube-2", "kernel-123"}
    validate_output("corpus", doc)


def test_corpus_jobs_byte_identical(capsys):
    rc1 = main(["corpus", "--instances", "3", "--seed", "9", "--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(["corpus", "--instances", "3", "--seed", "9", "--jobs", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_jobs_size_the_pool_to_the_tasks(capsys, inline_pool):
    # three corpus instances under --jobs 500 open three workers, one per instance
    rc = main(["corpus", "--instances", "3", "--seed", "9", "--jobs", "500"])
    pooled = capsys.readouterr().out
    assert rc == 0 and inline_pool == [3]
    assert main(["corpus", "--instances", "3", "--seed", "9", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == pooled and inline_pool == [3]
    # the 4 primitive rows of n = 2 up to height 3 are 4 chunks of one row
    rc, doc, _ = run(capsys, "scan", "--n", "2", "--max", "3", "--jobs", "500")
    assert rc == 0 and doc["record_count"] == 4 and inline_pool == [3, 4]


@pytest.mark.parametrize("command", [["scan", "--n", "2", "--max", "3"],
                                     ["corpus", "--instances", "1"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_are_a_usage_error(capsys, inline_pool, command, jobs):
    doc = expect_error(capsys, "usage", *command, "--jobs", jobs)
    assert doc["error"]["message"] == "--jobs must be at least 1" and inline_pool == []


def test_corpus_check_selection(files, capsys):
    rc, doc, _ = run(capsys, "corpus", "--instances", "1", "--seed", "0",
                     "--checks", "bhw_upper,bhw_conj")
    assert rc == 0
    assert set(doc["check_status_counts"]) <= {"bhw_upper", "bhw_conj"}


def test_pretty_goes_to_stderr(files, capsys):
    rc, doc, err = run(capsys, "minima", "--body", files["cube2"],
                       "--lattice", files["z2"], "--pretty")
    assert rc == 0
    assert "lambda_i" in err
    assert doc["command"] == "minima"


@pytest.mark.parametrize("argv, head", [
    (["verify", "--body", "cube2", "--lattice", "z2"], "check kind status margin note"),
    (["corpus", "--instances", "2"], "fixed instance holds equality skipped violated"),
    (["scan", "--n", "2", "--max", "8"], "n: 2"),
    (["siegel", "--matrix", "mat"], "i x_i sup norm"),
    (["count", "--body", "cube2", "--lattice", "z2"], "n: 2"),  # the generic key listing
])
def test_pretty_keeps_stdout_and_heads_its_table(files, capsys, argv, head):
    argv = [files.get(a, a) for a in argv]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--pretty"]) == 0
    pretty = capsys.readouterr()
    assert pretty.out == plain.out and plain.err == ""
    assert " ".join(pretty.err.splitlines()[0].split()) == head


# -- errors ----------------------------------------------------------------


def expect_error(capsys, code, *argv):
    rc, doc, _ = run(capsys, *argv)
    assert rc == 1
    assert doc["error"]["code"] == code
    validate_output("error", doc)
    return doc


def test_internal_fault_is_not_an_input_error(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("Ehrhart holdout failed at dilate 4")

    monkeypatch.setitem(cli._HANDLERS, "sigma", fail)
    rc, doc, _ = run(capsys, "sigma", "--n", "3")
    assert rc == 3
    assert doc["error"] == {"code": "internal", "message": "Ehrhart holdout failed at dilate 4"}
    validate_output("error", doc)


def test_unknown_command(capsys):
    expect_error(capsys, "usage", "nonsense")


def test_unknown_flag(files, capsys):
    expect_error(capsys, "usage", "sigma", "--n", "3", "--bogus")


def test_missing_file(files, capsys):
    expect_error(capsys, "input", "polar", "--body", "/does/not/exist.json")


def test_empty_hpoly_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    rows = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
    path.write_text(json.dumps({"type": "hpoly", "A": rows, "b": ["1", "-2", "1", "1"]}))
    doc = expect_error(capsys, "input", "polar", "--body", str(path))
    assert doc["error"]["message"] == "polyhedron is empty"


def test_malformed_json(files, capsys):
    expect_error(capsys, "bad-json", "polar", "--body", files["badjson"])


def test_schema_rejects_body(files, capsys):
    expect_error(capsys, "schema", "polar", "--body", files["badbody"])


def test_matrix_shape_mismatch(files, capsys):
    expect_error(capsys, "schema", "siegel", "--matrix", files["badmat"])


@pytest.mark.parametrize("entry", [1.0, True, "3"])
def test_matrix_entries_must_be_json_integers(tmp_path, capsys, entry):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"rows": 1, "cols": 3, "data": [[entry, 2, 5]]}))
    expect_error(capsys, "schema", "siegel", "--matrix", str(path))


def test_unknown_check_id(files, capsys):
    expect_error(capsys, "usage", "verify", "--body", files["cube2"],
                 "--lattice", files["z2"], "--checks", "nope")


def test_dimension_mismatch(files, capsys):
    expect_error(capsys, "input", "minima", "--body", files["cube2"],
                 "--lattice", files["z3"])


def test_scan_guard(capsys):
    expect_error(capsys, "guard", "scan", "--n", "3", "--max", "200")


def test_sigma_guard(capsys):
    expect_error(capsys, "input", "sigma", "--n", "0")


def test_bad_precision_flag(files, capsys):
    expect_error(capsys, "usage", "sigma", "--n", "3", "--precision", "1000")


def _classical_width(capsys, files, *extra):
    # the classical bound of (3, 7, 11) is irrational, so its enclosure has the working width
    rc, doc, _ = run(capsys, "siegel", "--matrix", files["mat3711"], *extra)
    assert rc == 0
    bound = doc["classical_bound"]
    return F(bound["hi"]) - F(bound["lo"])


def test_precision_env(files, capsys, monkeypatch):
    monkeypatch.setenv("GON_PRECISION", "100")
    assert _classical_width(capsys, files) == F(1, 2 ** 100)


def test_precision_flag_beats_env(files, capsys, monkeypatch):
    monkeypatch.setenv("GON_PRECISION", "100")
    assert _classical_width(capsys, files, "--precision", "80") == F(1, 2 ** 80)


def test_precision_holds_for_one_call(files, capsys):
    widths = [_classical_width(capsys, files),
              _classical_width(capsys, files, "--precision", "8"),
              _classical_width(capsys, files)]
    assert widths == [F(1, 2 ** 64), F(1, 2 ** 8), F(1, 2 ** 64)]
    assert current_width() == F(1, 2 ** 64)


def test_precision_inherits_the_callers_scope(files, capsys):
    with working_width(F(1, 2 ** 72)):
        assert _classical_width(capsys, files) == F(1, 2 ** 72)
        assert _classical_width(capsys, files, "--precision", "8") == F(1, 2 ** 8)
        assert current_width() == F(1, 2 ** 72)


def test_corpus_jobs_byte_identical_under_precision(capsys):
    rc1 = main(["corpus", "--instances", "2", "--precision", "100", "--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(["corpus", "--instances", "2", "--precision", "100", "--jobs", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


# -- schema units ------------------------------------------------------------


def test_input_schemas_accept_integers():
    validate_input("body", {"type": "box", "a": [1, "1/2"]})
    validate_input("lattice", {"basis": [[1, 0], [0, 1]]})
    validate_input("matrix", {"rows": 1, "cols": 2, "data": [[3, -4]]})


def test_input_schemas_reject():
    with pytest.raises(ValidationError):
        validate_input("body", {"type": "ball", "r": "1"})
    with pytest.raises(ValidationError):
        validate_input("lattice", {"basis": []})
    with pytest.raises(ValidationError):
        validate_input("matrix", {"rows": 1, "cols": 2, "data": [["x", "y"]]})


def test_output_schema_rejects_missing_field():
    with pytest.raises(ValidationError):
        validate_output("sigma", {"schema": "gon/1", "command": "sigma", "n": 3})


# -- one input contract: JSON integers only, and one document per call --------


def _one_doc(out):
    # json.loads rejects a second document after the first as extra data
    assert out.endswith("}\n")
    return json.loads(out)


def run_any(capsys, *argv):
    rc = main(list(argv))
    return rc, _one_doc(capsys.readouterr().out)


_BOX = {"type": "box", "a": [1, 1]}
_Z2 = {"basis": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("body, lattice", [
    ({"type": "box", "a": [1.0, 1]}, _Z2),
    ({"type": "cross", "dim": 2, "scale": 1.0}, _Z2),
    ({"type": "cross", "dim": 2.0, "scale": 1}, _Z2),
    ({"type": "hpoly", "A": [[1.0, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}, _Z2),
    (_BOX, {"basis": [[1.0, 0], [0, 1]]}),
])
def test_integral_floats_are_schema_errors(tmp_path, capsys, body, lattice):
    (tmp_path / "k.json").write_text(json.dumps(body))
    (tmp_path / "l.json").write_text(json.dumps(lattice))
    rc, doc = run_any(capsys, "count", "--body", str(tmp_path / "k.json"),
                      "--lattice", str(tmp_path / "l.json"))
    assert rc == 1 and doc["error"]["code"] == "schema"
    assert "is not of type" in doc["error"]["message"]
    validate_output("error", doc)


@pytest.mark.parametrize("exc", [TypeError("bad operand"), KeyError("type"), IndexError("list index"),
                                 AssertionError(), ValidationError("not a document")])
def test_every_program_fault_is_internal(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "sigma", fail)
    rc, doc = run_any(capsys, "sigma", "--n", "3")
    assert rc == 3 and doc["error"]["code"] == "internal"
    assert doc["error"]["message"].startswith(type(exc).__name__)
    validate_output("error", doc)


def test_an_output_that_fails_its_schema_is_internal(capsys, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "sigma", lambda args: ({"schema": "gon/1"}, 0))
    rc, doc = run_any(capsys, "sigma", "--n", "3")
    assert rc == 3 and doc["error"]["code"] == "internal"


_SQUARE = [[1, 0], [-1, 0], [0, 1], [0, -1]]


@pytest.mark.parametrize("body, lattice", [
    ({"type": "hpoly", "A": [[1, 0], [-1], [0, 1], [0, -1]], "b": [1, 1, 1, 1]}, _Z2),
    ({"type": "hpoly", "A": _SQUARE, "b": [1, 1, 1]}, _Z2),
    ({"type": "hpoly", "A": _SQUARE, "b": [1, -2, 1, 1]}, _Z2),
    ({"type": "hpoly", "A": _SQUARE[:3], "b": [1, 1, 1]}, _Z2),
    ({"type": "hpoly", "A": [[1, 1], [-1, -1]], "b": [1, 1]}, _Z2),
    ({"type": "ellipsoid", "Q": [[1, 0, 0], [0, 1, 0]]}, _Z2),
    ({"type": "vpoly", "vertices": [[0, 0], [1], [0, 1]]}, _Z2),
    (_BOX, {"basis": [[1, 2], [2, 4]]}),
    (_BOX, {"basis": [[1, 2], [2]]}),
    (_BOX, {"basis": [[1, 0, 0], [0, 1, 0]]}),
])
@pytest.mark.parametrize("command", ["count", "minima", "width", "polar"])
def test_inconsistent_input_gives_one_document(tmp_path, capsys, body, lattice, command):
    (tmp_path / "k.json").write_text(json.dumps(body))
    (tmp_path / "l.json").write_text(json.dumps(lattice))
    argv = [command, "--body", str(tmp_path / "k.json")]
    if command != "polar":
        argv += ["--lattice", str(tmp_path / "l.json")]
    rc, doc = run_any(capsys, *argv)
    assert rc in (0, 1, 3)
    if rc:
        validate_output("error", doc)
    else:
        assert body is _BOX and command == "polar"  # the lattice is never read


# -- the document writer -----------------------------------------------------

_json_leaf = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
              | st.text(st.characters(codec=None), max_size=12)
              | st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/', "\t\n\r"]))
_json_docs = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


@given(st.dictionaries(st.text(max_size=6), _json_docs, max_size=5))
@settings(max_examples=300)
def test_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_writer_accepts_tuples_and_rejects_other_objects():
    assert cli._json_text({"a": (1, ())}) == json.dumps({"a": [1, []]}, indent=2) + "\n"
    with pytest.raises(TypeError):
        cli._json_text({"a": F(1, 2)})
    with pytest.raises(TypeError):
        cli._json_text({"a": {1: 2}})


def test_emit_leaves_no_reference_cycles(capsys):
    doc = {"schema": "gon/1", "command": "x", "rows": [[str(i), {"k": [i, None, True]}] for i in range(20)],
           "empty": {}, "none": []}
    gc.collect()
    gc.disable()
    try:
        cli._emit(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# -- input schemas against the schemas they replaced -------------------------
# the reference: every variant of a body under one oneOf, and a rational entry a
# oneOf of an integer and a patterned string, under jsonschema's own "integer",
# which also admits integral floats such as 1.0

_REF_RAT = {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}
_REF_RAT_IN = {"oneOf": [{"type": "integer"}, _REF_RAT]}
_REF_VEC = {"type": "array", "items": _REF_RAT_IN, "minItems": 1}
_REF_MAT = {"type": "array", "items": _REF_VEC, "minItems": 1}
_REF_POS_INT = {"type": "integer", "minimum": 1}


def _ref_variant(type_name, fields):
    props = {"schema": {"const": "gon/1"}, "type": {"const": type_name}}
    props.update(fields)
    return {"type": "object", "properties": props, "required": ["type"] + list(fields),
            "additionalProperties": False}


_REF_VALIDATORS = {k: Draft202012Validator(v) for k, v in {
    "body": {"oneOf": [
        _ref_variant("box", {"a": _REF_VEC}),
        _ref_variant("cross", {"dim": _REF_POS_INT, "scale": _REF_RAT_IN}),
        _ref_variant("hpoly", {"A": _REF_MAT, "b": _REF_VEC}),
        _ref_variant("vpoly", {"vertices": _REF_MAT}),
        _ref_variant("ellipsoid", {"Q": _REF_MAT}),
    ]},
    "lattice": {"type": "object", "properties": {"schema": {"const": "gon/1"}, "basis": _REF_MAT},
                "required": ["basis"], "additionalProperties": False},
    "matrix": {"type": "object", "properties": {
        "schema": {"const": "gon/1"}, "rows": _REF_POS_INT, "cols": _REF_POS_INT,
        "data": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}, "minItems": 1}},
        "required": ["rows", "cols", "data"], "additionalProperties": False},
}.items()}

# each draw is a fresh copy: an "entry" mutation writes into the drawn list or dict, and a
# shared one would carry the write into later draws, or into itself
_entries = st.sampled_from([0, 1, -3, 2**70, True, False, None, 1.0, -2.0, 0.5, "3/4", "-2", "1/0",
                            "x", " 1", "", [1], {"a": 1}]).map(copy.deepcopy)
_rat = st.sampled_from([1, -2, "3/4", "-5", 7])


@st.composite
def input_documents(draw):
    """A valid body, lattice or matrix document, then mutated: a field dropped, added or
    retyped, a matrix entry replaced, the type changed, or the whole document replaced."""
    kind = draw(st.sampled_from(["body", "lattice", "matrix"]))
    vec = st.lists(_rat, min_size=1, max_size=3)
    mat = st.lists(vec, min_size=1, max_size=3)
    if kind == "body":
        t = draw(st.sampled_from(["box", "cross", "hpoly", "vpoly", "ellipsoid"]))
        fields = {"box": {"a": vec}, "cross": {"dim": st.integers(1, 4), "scale": _rat},
                  "hpoly": {"A": mat, "b": vec}, "vpoly": {"vertices": mat}, "ellipsoid": {"Q": mat}}[t]
        doc = {"type": t, **{k: draw(v) for k, v in fields.items()}}
    elif kind == "lattice":
        doc = {"basis": draw(mat)}
    else:
        doc = {"rows": 1, "cols": 2, "data": draw(st.lists(st.lists(st.integers(-5, 5), min_size=1,
                                                                  max_size=3), min_size=1, max_size=3))}
    if draw(st.booleans()):
        doc["schema"] = draw(st.sampled_from(["gon/1", "gon/2"]))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "retype", "entry", "type", "replace"]))
        keys = sorted(doc) if isinstance(doc, dict) else []
        if op == "drop" and keys:
            del doc[draw(st.sampled_from(keys))]
        elif op == "add" and isinstance(doc, dict):
            doc[draw(st.sampled_from(["extra", "a", "dim", "scale", "Q", "basis"]))] = draw(_entries)
        elif op == "retype" and keys:
            doc[draw(st.sampled_from(keys))] = draw(_entries)
        elif op == "entry" and keys:
            value = doc[draw(st.sampled_from(keys))]
            if isinstance(value, list) and value:
                row = value[draw(st.integers(0, len(value) - 1))]
                target = row if isinstance(row, list) and row else value
                target[draw(st.integers(0, len(target) - 1))] = draw(_entries)
        elif op == "type" and isinstance(doc, dict):
            doc["type"] = draw(st.sampled_from(["box", "cross", "hpoly", "ball", 3, None, ["box"]])
                               .map(copy.deepcopy))
        elif op == "replace":
            doc = draw(st.sampled_from([[], [1], "box", 3, None, {}]).map(copy.deepcopy))
    return kind, doc


def _integral_floats(doc):
    if isinstance(doc, float):
        return doc.is_integer()
    if isinstance(doc, dict):
        return any(_integral_floats(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_integral_floats(v) for v in doc)
    return False


def _verdict(validate):
    try:
        validate()
    except ValidationError as e:
        return e.message
    return None


@given(input_documents())
@settings(max_examples=600)
def test_input_schemas_agree_with_the_reference(case):
    kind, doc = case
    new = _verdict(lambda: validate_input(kind, doc))
    old = _verdict(lambda: _REF_VALIDATORS[kind].validate(doc))
    if _integral_floats(doc):
        assert new is not None  # 1.0 is no longer an integer
        return
    assert (new is None) == (old is None)
    if kind == "body" and not (isinstance(doc, dict) and doc.get("type") in
                               ("box", "cross", "hpoly", "vpoly", "ellipsoid")):
        assert new == old  # no variant named: the oneOf's message, as before


# -- the dict walk against jsonschema -----------------------------------------
# jsonschema's 2020-12 validator under the program's "integer", a Python int

_EXTENDED = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int),
)


@given(input_documents())
@example(("lattice", {"basis": []}))  # input_documents draws no empty array
@example(("body", {"type": "hpoly", "A": [[]], "b": [1]}))
@example(("matrix", {"rows": 1, "cols": 1, "data": []}))
@settings(max_examples=600)
def test_accepts_agrees_with_jsonschema_on_inputs(case):
    kind, doc = case
    variants = list(schemas._BODY_VARIANTS.values()) if kind == "body" else []
    for schema in [schemas.INPUT_SCHEMAS[kind]] + variants:
        assert schemas._accepts(schema, doc) == _EXTENDED(schema).is_valid(doc)


_REPORT = {"check_id": "mink2", "kind": "theorem", "lhs": "1", "rhs": {"sqrt_of": "2"},
           "status": "holds", "margin": None, "witnesses": {}, "reason": None}
_COUNTS = {"holds": 1, "equality": 0, "violated": 0, "skipped": 0, "undecided": 0}
_HEAD = {"schema": "gon/1"}

# one valid document per output schema
_VALID_OUTPUTS = {
    "minima": {"n": 2, "rank": 2, "count": 2, "minima": ["1", {"sqrt_of": "2"}, {"lo": "1", "hi": "2"}],
               "witnesses": [["1", "0"], ["0", "1/2"]]},
    "count": {"n": 2, "interior": False, "dilate": "1", "count": 9},
    "ehrhart": {"n": 2, "degree": 2, "coefficients": ["1", "2", "4"], "eval_at": 2, "eval_value": "25"},
    "polar": {"n": 2, "body": {"type": "box", "a": ["1", "1"]}},
    "width": {"n": 2, "width": "2", "direction": ["1", "0"]},
    "siegel": {"m": 1, "n": 3, "vectors": [[1, -2, 1], [2, -1, 0]], "norms": [2, 2], "product_norm": 4,
               "gram_det": 14, "minor_gcd": 1, "bv_bound": {"sqrt_of": "14"},
               "classical_bound": {"lo": "1", "hi": "10"}, "bv_satisfied": False,
               "classical_satisfied": True},
    "scan": {"n": 2, "a_max": 4, "dedupe": True, "record_count": 1, "empirical_c": "1/2",
             "empirical_s": "1/2", "witness_c": [1, 2], "witness_s": [1, 2],
             "bound_sqrt_n": {"sqrt_of": "2"}, "bound_sigma_inv": "1", "exact_value": "1",
             "within_sqrt_n": True, "within_sigma_inv": True, "within_exact": True,
             "sigma_inv_below_sqrt_n": True,
             "records": [{"a": [1, 2], "minima": [1], "minima_product": 1, "ratio_single": "1/2",
                          "ratio_product": "1/2", "bv_satisfied": True, "hexagon_bound": "2",
                          "hexagon_satisfied": True}]},
    "sigma": {"n": 3, "sigma": "3/4"},
    "whitworth": {"variant": "slab", "beta": "1/2", "delta": "3/4"},
    "verify": {"n": 2, "checks_run": 1, "status_counts": _COUNTS, "reports": [_REPORT],
               "violations": [], "candidates": [{"candidate": _REPORT, "body": {}, "lattice": {}}]},
    "corpus": {"seed": 0, "fixed": [{"name": "cube", "status_counts": _COUNTS, "violations": ["x"],
                                     "candidates": []}],
               "random": {"instances": 1, "status_counts": _COUNTS, "violations": [{}],
                          "candidates": [{"candidate": _REPORT, "body": {}, "lattice": {}}]},
               "status_counts": _COUNTS, "check_status_counts": {}, "all_hold": True},
}
_VALID_OUTPUTS = {k: {**_HEAD, "command": k, **v} for k, v in _VALID_OUTPUTS.items()}
_VALID_OUTPUTS["error"] = {**_HEAD, "error": {"code": "input", "message": "x"}}

_OUTPUT_ENTRIES = st.sampled_from([1.0, True, None, "1/0", (1, 2), {"k": 1}, 0, -1, 3, "3/4", "x",
                                   [], ["1"], {"sqrt_of": "2"}, {"lo": "0", "hi": "1"}])


def _containers(doc, out):
    # every dict and list reachable from doc, doc first
    if isinstance(doc, (dict, list)):
        out.append(doc)
        for v in doc.values() if isinstance(doc, dict) else doc:
            _containers(v, out)
    return out


@st.composite
def output_documents(draw):
    """A valid output document, then mutated anywhere inside: a field or entry dropped,
    added or retyped."""
    command = draw(st.sampled_from(sorted(_VALID_OUTPUTS)))
    doc = copy.deepcopy(_VALID_OUTPUTS[command])
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(_containers(doc, [])))
        op = draw(st.sampled_from(["drop", "add", "set"]))
        entry = copy.deepcopy(draw(_OUTPUT_ENTRIES))
        if isinstance(target, dict):
            keys = sorted(target)
            if op == "drop" and keys:
                del target[draw(st.sampled_from(keys))]
            elif op == "add":
                target[draw(st.sampled_from(["extra", "n", "hi", "sqrt_of", "reason"]))] = entry
            elif keys:
                target[draw(st.sampled_from(keys))] = entry
        elif op == "add" or not target:
            target.append(entry)
        else:
            i = draw(st.integers(0, len(target) - 1))
            if op == "drop":
                del target[i]
            else:
                target[i] = entry
    return command, doc


def test_valid_outputs_are_valid():
    for command, doc in _VALID_OUTPUTS.items():
        validate_output(command, doc)
        assert _EXTENDED(schemas.OUTPUT_SCHEMAS[command]).is_valid(doc)


@given(output_documents())
@settings(max_examples=600)
def test_accepts_agrees_with_jsonschema_on_outputs(case):
    command, doc = case
    schema = schemas.OUTPUT_SCHEMAS[command]
    assert schemas._accepts(schema, doc) == _EXTENDED(schema).is_valid(doc)


def _keywords_read():
    """The keywords _accepts reads: schema.get("k"), schema["k"] and "k" in schema."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(schemas._accepts)))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and ast.unparse(node.func.value) == "schema"):
            found.add(node.args[0].value)
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "schema":
            found.add(node.slice.value)
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and ast.unparse(node.comparators[0]) == "schema"):
            found.add(node.left.value)
    return found


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


def test_every_schema_keyword_is_read():
    read = _keywords_read()
    assert read == {"type", "const", "enum", "minimum", "minItems", "items", "properties",
                    "required", "additionalProperties", "pattern", "oneOf"}
    tops = [*schemas.INPUT_SCHEMAS.values(), *schemas._BODY_VARIANTS.values(),
            *schemas.OUTPUT_SCHEMAS.values()]
    for schema in (sub for top in tops for sub in _subschemas(top)):
        assert set(schema) <= read, schema
        # the shapes _accepts assumes: a closed object, string constants, known type names
        assert schema.get("additionalProperties", False) is False
        assert all(type(v) is str for v in [schema.get("const", "")] + schema.get("enum", []))
        types = schema.get("type", [])
        assert set([types] if type(types) is str else types) <= {
            "object", "array", "string", "integer", "boolean", "null"}


# -- a fresh interpreter: jsonschema is imported only to word a rejection ------

_SRC = str(Path(schemas.__file__).parents[1])


def _fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_importing_the_cli_leaves_jsonschema_unloaded():
    out = _fresh("import sys, gon, gon.cli; print('jsonschema' in sys.modules)")
    assert out.returncode == 0 and out.stdout == "False\n", out.stderr


def test_fresh_rejection_is_a_schema_error(tmp_path):
    (tmp_path / "k.json").write_text(json.dumps({"type": "box", "a": [1.0, 1]}))
    out = _fresh("import sys, gon.cli; sys.exit(gon.cli.main(sys.argv[1:]))",
                 "polar", "--body", str(tmp_path / "k.json"))
    assert out.returncode == 1, out.stderr
    doc = _one_doc(out.stdout)
    assert doc["error"]["code"] == "schema" and "is not of type" in doc["error"]["message"]


def test_a_walk_that_rejects_a_valid_document_is_internal(tmp_path):
    (tmp_path / "k.json").write_text(json.dumps(_BOX))
    out = _fresh("import sys, gon.cli, gon.schemas as s\n"
                 "walk, box = s._accepts, s._BODY_VARIANTS['box']\n"
                 "s._accepts = lambda schema, doc: schema is not box and walk(schema, doc)\n"
                 "sys.exit(gon.cli.main(sys.argv[1:]))",
                 "polar", "--body", str(tmp_path / "k.json"))
    assert out.returncode == 3, out.stderr
    assert _one_doc(out.stdout)["error"]["code"] == "internal"
