import json
from fractions import Fraction as F

import pytest
from jsonschema import ValidationError

import gon.cli as cli
import gon.exactmath as exactmath
from gon.body import Body
from gon.cli import main
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


@pytest.fixture(autouse=True)
def _restore_width():
    saved = exactmath.DEFAULT_WIDTH
    yield
    exactmath.DEFAULT_WIDTH = saved


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


# -- errors ----------------------------------------------------------------


def expect_error(capsys, code, *argv):
    rc, doc, _ = run(capsys, *argv)
    assert rc == 1
    assert doc["error"]["code"] == code
    validate_output("error", doc)
    return doc


def test_unknown_command(capsys):
    expect_error(capsys, "usage", "nonsense")


def test_unknown_flag(files, capsys):
    expect_error(capsys, "usage", "sigma", "--n", "3", "--bogus")


def test_missing_file(files, capsys):
    expect_error(capsys, "input", "polar", "--body", "/does/not/exist.json")


def test_malformed_json(files, capsys):
    expect_error(capsys, "bad-json", "polar", "--body", files["badjson"])


def test_schema_rejects_body(files, capsys):
    expect_error(capsys, "schema", "polar", "--body", files["badbody"])


def test_matrix_shape_mismatch(files, capsys):
    expect_error(capsys, "schema", "siegel", "--matrix", files["badmat"])


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
    assert exactmath.DEFAULT_WIDTH == F(1, 2 ** 64)


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
