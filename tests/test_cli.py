import json
import os
import pathlib
import re
import subprocess
import sys

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


@pytest.mark.parametrize("m", ["2", "3"])
def test_covector_enumerate_refuses_m_for_sign(m):
    # a grid density given to the sign field was once ignored silently
    r = invoke("covector", "enumerate", "--field", "sign", "--n", "2",
               "--m", m)
    assert r.exit_code == 2
    assert r.output.splitlines()[-1] == (
        "Error: --m is the phase field's grid density; "
        "--field sign takes none")
    assert "Traceback" not in r.output


def test_delta_member():
    r = invoke("delta", "member", "--v", "0,0,0", "--z", "1@0;1@1/2;1@0")
    assert r.exit_code == 0 and r.output.strip() == "true"
    r = invoke("delta", "member", "--v", "0,0,0", "--z", "1@0;1@1/8;1@0")
    assert r.exit_code == 0 and r.output.strip() == "false"


def test_delta_member_rejects_a_zero_unit_at_the_centre():
    for z in ("0@0;0@0", "1@0;1@1/2"):
        r = invoke("delta", "member", "--v", "z,0", "--z", z)
        assert r.exit_code == 1
        assert "Error: unit vector must have no zero entries" in r.output


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


def test_pn_counts_a_label_against_n():
    # a short label is counted against --n before it is built; only an
    # --n below 3 is refused as such
    for cmd in (["nu"], ["meet", "--y", "U,L,1"]):
        r = invoke("pn", *cmd, "--n", "3", "--x", "U,L")
        assert r.exit_code == 1
        assert r.output == ("Error: label 'U,L' has 2 coordinates,"
                            " expected 3\n")
    for x in ("U,1", "U,L,1"):
        r = invoke("pn", "nu", "--n", "2", "--x", x)
        assert r.exit_code == 1
        assert r.output == "Error: cell labels need n >= 3\n"


def test_pn_names_an_unknown_cell_symbol():
    # the message names the symbol and the symbols there are, not the
    # enum behind them
    for x, bad in (("Q,U,1", "Q"), ("U,l,1", "l"), ("U,,1", "")):
        r = invoke("pn", "nu", "--n", "3", "--x", x)
        assert r.exit_code == 1
        assert r.output == (f"Error: unknown cell symbol {bad!r}: "
                            "use 1, -1, U, L or F\n")


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
    # assemble_slice checks its own arguments; each refusal is one line
    runner = CliRunner()
    for n, m, msg in (("2", "2", "need n >= 3"),
                      ("3", "3", "resolution m must be an even integer >= 2")):
        with runner.isolated_filesystem():
            r = runner.invoke(main, ["mesh", "slice", "--n", n, "--m", m,
                                     "--out", "s.json"])
            assert r.exit_code == 1
            assert r.output == f"Error: {msg}\n"


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


def test_mesh_stats_of_a_complex_that_is_not_pure():
    # an edge and a point: the dimension and purity come off the face
    # table that reading the document built, and no boundary is asked for
    runner = CliRunner()
    points = [[["1", "0"], ["1", "1/2"]], [["1", "1/2"], ["1", "0"]],
              [["0", "0"], ["0", "0"]]]
    with runner.isolated_filesystem():
        with open("k.json", "w", encoding="utf-8") as fh:
            json.dump({"n": 2, "m": 2, "vertices": points,
                       "simplices": [[0, 1], [2]]}, fh)
        r = runner.invoke(main, ["mesh", "stats", "--in", "k.json"])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines() == [
        "dimension: 1",
        "f-vector: (3, 1)",
        "pure: no",
        "closed pseudomanifold: no",
        "euler characteristic: 2",
        "boundary f-vector: undefined (not pure)",
    ]


def test_mesh_stats_walks_the_tops_once_per_complex(monkeypatch):
    # once, for the document's own face table: the pseudomanifold and
    # boundary checks read that table, and the boundary builds its own
    # from its tops, which are their own keys
    import phasetop.mesh as mesh_module

    walked = []

    def counting(tops, listed):
        walked.append(len(tops))
        return top_keys(tops, listed)

    top_keys = mesh_module._top_keys
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["mesh", "slice", "--n", "4", "--m", "2",
                                 "--out", "s.json"])
        assert r.exit_code == 0
        monkeypatch.setattr(mesh_module, "_top_keys", counting)
        r = runner.invoke(main, ["mesh", "stats", "--in", "s.json"])
    assert r.exit_code == 0
    assert "closed pseudomanifold: no" in r.output
    assert walked == [864]


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


@pytest.mark.parametrize("command", [["mesh", "stats"], ["homology"]])
def test_deeply_nested_json_is_a_clean_error(command):
    # past the JSON decoder's recursion limit: no RecursionError traceback
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("deep.json", "w", encoding="utf-8") as fh:
            fh.write("[" * 100_000)
        r = runner.invoke(main, [*command, "--in", "deep.json"])
    assert_clean_error(r, "Error: not a JSON document")


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


def test_homology_of_the_empty_document_is_empty():
    r = _homology_of({"n": 1, "m": 2, "vertices": [], "simplices": []})
    assert r.exit_code == 0
    assert r.output.strip() == "betti () euler 0 over Q"


@pytest.mark.parametrize("command", [["mesh", "stats"], ["homology"]])
@pytest.mark.parametrize("simplices,first", [
    ([[0, 1], [3]], 2), ([], 0), ([[1], [0, 2]], 3)])
def test_vertex_in_no_simplex_is_one_error_line(command, simplices, first):
    # read back, the complex would leave it out of its f-vector and its
    # Betti numbers without a word
    doc = {"n": 1, "m": 2, "simplices": simplices,
           "vertices": [[[r, "0"]] for r in ("0", "1/3", "1/2", "1")]}
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        r = runner.invoke(main, [*command, "--in", "doc.json"])
    assert_clean_error(r, f"vertex {first} lies in no simplex")
    assert r.output.splitlines() == [r.output.strip()]


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


@pytest.mark.parametrize("command", [["mesh", "stats"], ["homology"]])
@pytest.mark.parametrize("simplices,positions", [
    ([[0, 1], [1, 0]], ("simplex 1 [1, 0]", "simplex 0 [0, 1]")),
    ([[0], [0, 1], [1], [0, 1]], ("simplex 3 [0, 1]", "simplex 1 [0, 1]")),
])
def test_repeated_simplex_is_refused(command, simplices, positions):
    # counted twice, one edge would pass as a closed pseudomanifold
    doc = _good_doc()
    doc["simplices"] = simplices
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        r = runner.invoke(main, [*command, "--in", "doc.json"])
    assert_clean_error(r, "repeats the vertices")
    for fragment in positions:
        assert fragment in r.output


@pytest.mark.parametrize("args", [
    ["hf", "sum", "--field", "phase", "--elems", "0,1e3000000"],
    ["covector", "check", "--v", "0,0,0", "--x", "0,1e3000000,z"],
    ["delta", "member", "--v", "0,0", "--z", "1@0;1@1e-3000000"],
    ["homology", "--in", "doc.json"],
])
def test_huge_decimal_exponent_is_one_error_line(args):
    runner = CliRunner()
    doc = _good_doc()
    doc["vertices"][0][1][1] = "1e3000000"
    with runner.isolated_filesystem():
        with open("doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        r = runner.invoke(main, args)
    assert_clean_error(r, "not a rational number: '1e")
    assert r.output.splitlines() == [r.output.strip()]


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


def test_verify_report_through_a_dangling_link():
    # a refused run leaves the link and makes no target; a passing run
    # writes the report through the link
    runner = CliRunner()
    with runner.isolated_filesystem():
        os.symlink("target.json", "r.json")
        r = runner.invoke(main, ["verify", "pieces", "--max-n", "2",
                                 "--report", "r.json"])
        assert r.exit_code == 1 and r.output.startswith("Error: ")
        assert os.path.islink("r.json") and not os.path.exists("target.json")
        r = runner.invoke(main, ["verify", "sign-spheres", "--max-n", "3",
                                 "--report", "r.json"])
        assert r.exit_code == 0, r.output
        assert os.path.islink("r.json")
        with open("target.json", encoding="utf-8") as fh:
            assert json.load(fh)["passed"] is True


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


@pytest.mark.parametrize("args", [
    ["verify", "pn-combinatorics", "--max-n", "5"],
    ["verify", "slice-claims", "--max-n", "3", "--samples", "50"],
], ids=["pn-combinatorics", "slice-claims"])
def test_report_bytes_do_not_depend_on_the_hash_seed(args, tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    reports = []
    for hash_seed in ("0", "1"):
        path = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(root / "src"))
        r = subprocess.run(
            [sys.executable, "-c", "from phasetop.cli import main; main()",
             *args, "--report", str(path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_verify_timings_reach_the_text_and_the_report():
    runner = CliRunner()
    with runner.isolated_filesystem():
        args = ["verify", "sign-spheres", "--max-n", "3", "--report", "rep.json"]
        plain = runner.invoke(main, args)
        assert plain.exit_code == 0
        with open("rep.json", "rb") as fh:
            canonical = fh.read()
        timed = runner.invoke(main, [*args, "--timings"])
        assert timed.exit_code == 0
        with open("rep.json", "rb") as fh:
            doc = json.loads(fh.read())
        again = runner.invoke(main, args)
        with open("rep.json", "rb") as fh:
            assert fh.read() == canonical
    assert again.output == plain.output
    assert "runtime_s" not in canonical.decode()
    assert all(c["runtime_s"] >= 0 for c in doc["checks"])
    total = sum(c["runtime_s"] for c in doc["checks"])
    for c in doc["checks"]:
        del c["runtime_s"]
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == canonical.decode()
    plain_lines = plain.output.splitlines()
    timed_lines = timed.output.splitlines()
    assert len(plain_lines) == len(doc["checks"]) + 2
    # one more line: the suite's total, just before "report written to"
    assert len(timed_lines) == len(plain_lines) + 1
    for p, t in zip(plain_lines[1:-1], timed_lines[1:-2]):
        assert re.fullmatch(re.escape(p) + r" \[\d+\.\d{3} s\]", t), t
    assert timed_lines[0] == plain_lines[0] and timed_lines[-1] == plain_lines[-1]
    assert timed_lines[-2] == f"suite sign-spheres {total:.3f} s"


def test_verify_all_timings_end_with_one_total_per_suite():
    runner = CliRunner()
    with runner.isolated_filesystem():
        args = ["verify", "all", "--max-n", "3", "--m", "2", "--samples", "5",
                "--report", "rep.json", "--timings"]
        timed = runner.invoke(main, args)
        assert timed.exit_code == 0
        with open("rep.json", "rb") as fh:
            doc = json.loads(fh.read())
    totals = {}
    for c in doc["checks"]:
        name = c["name"].split(":", 1)[0]
        totals[name] = totals.get(name, 0.0) + c["runtime_s"]
    assert list(totals) == list(cli.SUITES)
    lines = timed.output.splitlines()
    assert lines[-1] == "report written to rep.json"
    assert lines[-1 - len(totals):-1] == [
        f"suite {name} {t:.3f} s" for name, t in totals.items()]
    assert not lines[-2 - len(totals)].startswith("suite ")


@pytest.mark.parametrize("args", [
    ["verify", "pieces", "--max-n", "2"],
    ["verify", "slice-mesh", "--m", "3"],
])
def test_verify_refused_run_leaves_no_new_report(args):
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, [*args, "--report", "r.json"])
        assert r.exit_code == 1 and r.output.startswith("Error: ")
        assert not os.path.exists("r.json")
