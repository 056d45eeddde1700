import json
import os

import pytest
from click.testing import CliRunner

from phasetop import cli
from phasetop.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_hf_sum_phase():
    r = invoke("hf", "sum", "--field", "phase", "--elems", "0,1/2")
    assert r.exit_code == 0
    assert r.output.strip() == "{S^1, z}"


def test_hf_sum_sign():
    r = invoke("hf", "sum", "--field", "sign", "--elems", "+,-")
    assert r.exit_code == 0
    assert r.output.strip() == "{-1, 0, 1}"


def test_hf_sum_bad_input():
    r = invoke("hf", "sum", "--field", "phase", "--elems", "0,wat")
    assert r.exit_code == 1
    assert "Error" in r.output


def test_covector_check():
    r = invoke("covector", "check", "--v", "0,0,0", "--x", "0,1/3,2/3")
    assert r.exit_code == 0 and r.output.strip() == "true"
    r = invoke("covector", "check", "--v", "0,0,0", "--x", "0,0,1/4")
    assert r.exit_code == 0 and r.output.strip() == "false"


def test_covector_enumerate_sign():
    r = invoke("covector", "enumerate", "--field", "sign", "--n", "2")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["+,-", "-,+"]


def test_covector_enumerate_phase():
    r = invoke("covector", "enumerate", "--field", "phase", "--n", "2",
               "--m", "2")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["0,1/2", "1/2,0"]


def test_covector_enumerate_needs_m_for_phase():
    r = invoke("covector", "enumerate", "--field", "phase", "--n", "2")
    assert r.exit_code == 1


def test_delta_member():
    r = invoke("delta", "member", "--v", "0,0,0", "--z", "1@0;1@1/2;1@0")
    assert r.exit_code == 0 and r.output.strip() == "true"
    r = invoke("delta", "member", "--v", "0,0,0", "--z", "1@0;1@1/8;1@0")
    assert r.exit_code == 0 and r.output.strip() == "false"


def test_pn_list():
    r = invoke("pn", "list", "--n", "3")
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert len(lines) == 9
    assert "U,L,1" in lines


def test_pn_meet_and_nu():
    r = invoke("pn", "meet", "--n", "3", "--x", "U,L,1", "--y", "L,U,1")
    assert r.exit_code == 0 and r.output.strip() == "-1,-1,1"
    r = invoke("pn", "nu", "--n", "3", "--x", "U,L,1")
    assert r.exit_code == 0 and r.output.strip() == "2"


def test_pn_rejects_bad_labels():
    # a clean "Error: ..." line, not a swallowed traceback
    r = invoke("pn", "nu", "--n", "3", "--x", "U,L,L")
    assert r.exit_code == 1 and "Error:" in r.output
    r = invoke("pn", "nu", "--n", "4", "--x", "U,L,1")
    assert r.exit_code == 1 and "Error:" in r.output
    r = invoke("pn", "meet", "--n", "3", "--x", "1,U,-1", "--y", "U,U,F")
    assert r.exit_code == 1 and "Error:" in r.output
    assert "1,U,-1" in r.output


def test_glue_verify_slice():
    r = invoke("glue", "verify-slice", "--n", "3", "--samples", "10",
               "--seed", "2")
    assert r.exit_code == 0
    assert r.output.startswith("suite slice-claims: PASS")


def test_glue_verify_slice_rejects_small_n():
    r = invoke("glue", "verify-slice", "--n", "2")
    assert r.exit_code == 1


def test_mesh_and_homology_round_trip():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["mesh", "slice", "--n", "3", "--m", "2",
                                 "--out", "s.json"])
        assert r.exit_code == 0
        assert "16 top simplices" in r.output
        with open("s.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["n"] == 3 and doc["m"] == 2
        r = runner.invoke(main, ["homology", "--in", "s.json"])
        assert r.exit_code == 0
        assert r.output.strip() == "betti (1,0,0) euler 1 over Q"

        r = runner.invoke(main, ["mesh", "full", "--n", "3", "--m", "2",
                                 "--out", "f.json"])
        assert r.exit_code == 0
        r = runner.invoke(main, ["homology", "--in", "f.json",
                                 "--field", "f2"])
        assert r.exit_code == 0
        assert r.output.strip() == "betti (1,0,0,1) euler 0 over F2"


def test_mesh_rejects_odd_m():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["mesh", "slice", "--n", "3", "--m", "3",
                                 "--out", "s.json"])
        assert r.exit_code == 1


def test_mesh_stats_of_the_slice():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["mesh", "slice", "--n", "3", "--m", "2",
                                 "--out", "s.json"])
        assert r.exit_code == 0
        r = runner.invoke(main, ["mesh", "stats", "--in", "s.json"])
    assert r.exit_code == 0
    assert r.output.splitlines() == [
        "dimension: 2",
        "f-vector: (11, 26, 16)",
        "pure: yes",
        "closed pseudomanifold: no",
        "euler characteristic: 1",
        "boundary f-vector: (4, 4)",
    ]


def test_mesh_stats_rejects_a_bad_document():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("bad.json", "w", encoding="utf-8") as fh:
            json.dump({"n": 2, "m": 2, "vertices": [], "simplices": [[0]]},
                      fh)
        r = runner.invoke(main, ["mesh", "stats", "--in", "bad.json"])
    assert_clean_error(r, "bad simplex")


def test_homology_rejects_bad_documents():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("bad.json", "w", encoding="utf-8") as fh:
            fh.write("{not json")
        r = runner.invoke(main, ["homology", "--in", "bad.json"])
        assert r.exit_code == 1
        with open("halfbad.json", "w", encoding="utf-8") as fh:
            json.dump({"n": 2, "m": 2, "vertices": [], "simplices": [[0]]},
                      fh)
        r = runner.invoke(main, ["homology", "--in", "halfbad.json"])
        assert r.exit_code == 1
    r = invoke("homology", "--in", "no-such-file.json")
    assert r.exit_code == 2


def _homology_of(doc):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return runner.invoke(main, ["homology", "--in", "doc.json"])


def _good_doc():
    return {"n": 2, "m": 2, "vertices": [[["1", "0"], ["1", "1/2"]],
                                         [["1", "1/2"], ["1", "0"]]],
            "simplices": [[0, 1]]}


def assert_clean_error(r, fragment):
    assert r.exit_code == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Error:" in r.output and fragment in r.output
    assert "Traceback" not in r.output


def test_homology_accepts_the_good_doc():
    r = _homology_of(_good_doc())
    assert r.exit_code == 0
    assert r.output.strip() == "betti (1,0) euler 1 over Q"


def test_homology_of_vertices_without_simplices_is_empty():
    r = _homology_of({"n": 1, "m": 2, "vertices": [[["1", "0"]]],
                      "simplices": []})
    assert r.exit_code == 0
    assert r.output.strip() == "betti () euler 0 over Q"


def test_homology_rejects_non_object_document():
    assert_clean_error(_homology_of([1, 2, 3]), "JSON object")


@pytest.mark.parametrize("key", ["n", "m", "vertices", "simplices"])
def test_homology_rejects_missing_key(key):
    doc = _good_doc()
    del doc[key]
    assert_clean_error(_homology_of(doc), key)


def test_homology_rejects_non_list_simplices():
    doc = _good_doc()
    doc["simplices"] = {"0": [0, 1]}
    assert_clean_error(_homology_of(doc), "simplices must be a list")
    doc["simplices"] = [7]
    assert_clean_error(_homology_of(doc), "bad simplex")
    doc["simplices"] = [[0, 1], []]
    assert_clean_error(_homology_of(doc), "bad simplex")


def test_homology_rejects_coordinate_count_other_than_n():
    doc = _good_doc()
    doc["n"] = 3
    assert_clean_error(_homology_of(doc), "n=3 coordinates")


def test_homology_rejects_malformed_coordinates():
    doc = _good_doc()
    doc["vertices"][0][0] = [1, 0]
    assert_clean_error(_homology_of(doc), "pair of strings")
    doc["vertices"][0][0] = ["2", "0"]
    assert_clean_error(_homology_of(doc), "radius")


@pytest.mark.parametrize("m", [3, 0, -2, "2"])
def test_homology_rejects_odd_or_non_positive_m(m):
    doc = _good_doc()
    doc["m"] = m
    assert_clean_error(_homology_of(doc), "positive even integer")


def test_verify_passes_samples_through():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["verify", "gamma-roundtrip", "--max-n", "2",
                                 "--samples", "3", "--report", "rep.json"])
        assert r.exit_code == 0
        with open("rep.json", "rb") as fh:
            doc = json.loads(fh.read())
        assert doc["params"]["samples"] == 3
        assert all(c["params"]["samples"] == 3 for c in doc["checks"])
        r = runner.invoke(main, ["verify", "gamma-roundtrip", "--max-n", "2",
                                 "--report", "rep.json"])
        assert r.exit_code == 0
        with open("rep.json", "rb") as fh:
            doc = json.loads(fh.read())
        assert "samples" not in doc["params"]
    r = invoke("verify", "gamma-roundtrip", "--samples", "0")
    assert r.exit_code == 2


def test_verify_writes_report_and_is_deterministic():
    runner = CliRunner()
    with runner.isolated_filesystem():
        args = ["verify", "sign-spheres", "--max-n", "3", "--seed", "5",
                "--report", "rep.json"]
        r = runner.invoke(main, args)
        assert r.exit_code == 0
        assert "suite sign-spheres: PASS" in r.output
        with open("rep.json", "rb") as fh:
            first = fh.read()
        r = runner.invoke(main, args)
        assert r.exit_code == 0
        with open("rep.json", "rb") as fh:
            assert fh.read() == first
        doc = json.loads(first)
        assert doc["passed"] is True
        assert doc["seed"] == 5


def test_verify_rejects_unknown_suite_and_bad_params():
    r = invoke("verify", "no-such-suite")
    assert r.exit_code == 2
    r = invoke("verify", "sign-spheres", "--max-n", "1")
    assert r.exit_code == 1
    assert_clean_error(invoke("verify", "gamma-roundtrip", "--max-n", "1"),
                       "suite gamma-roundtrip needs max_n >= 2")


@pytest.mark.parametrize("kind", ["slice", "full"])
def test_mesh_out_in_missing_directory_is_a_clean_error(kind):
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["mesh", kind, "--n", "3", "--m", "2",
                                 "--out", "missing/x.json"])
        assert_clean_error(r, "No such file or directory")
        assert not os.path.exists("missing")


def test_verify_report_in_missing_directory_is_a_clean_error():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["verify", "sign-spheres", "--max-n", "3",
                                 "--report", "missing/r.json"])
        assert_clean_error(r, "missing/r.json")
        assert not os.path.exists("missing")


def test_verify_unwritable_report_fails_before_the_run(monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("the suite ran before the report path was opened")

    monkeypatch.setattr(cli, "run_suite", never)
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["verify", "sign-spheres", "--max-n", "3",
                                 "--report", "missing/r.json"])
        assert_clean_error(r, "missing/r.json")


def test_verify_bad_params_keep_an_existing_report():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("rep.json", "wb") as fh:
            fh.write(b"earlier report")
        r = runner.invoke(main, ["verify", "sign-spheres", "--m", "3",
                                 "--report", "rep.json"])
        assert_clean_error(r, "m must be an even number")
        with open("rep.json", "rb") as fh:
            assert fh.read() == b"earlier report"


def test_pn_list_rejects_small_n():
    assert_clean_error(invoke("pn", "list", "--n", "2"), "n >= 3")


def test_glue_verify_slice_rejects_samples_below_one():
    r = invoke("glue", "verify-slice", "--n", "3", "--samples", "0")
    assert r.exit_code == 2


def test_other_exceptions_keep_their_traceback(monkeypatch):
    # the boundary converts only bad input, so a real bug stays visible
    def boom(*args, **kwargs):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "nu", boom)
    r = invoke("pn", "nu", "--n", "3", "--x", "U,L,1")
    assert r.exit_code == 1
    assert isinstance(r.exception, ZeroDivisionError)
    assert "Error:" not in r.output
