"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    res = result(run(workload, trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_seeded_inputs_repeat():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    a = workloads.offgrid_vectors(7, 64, 6)
    assert a == workloads.offgrid_vectors(7, 64, 6)
    assert a != workloads.offgrid_vectors(8, 64, 6)
    # every fourth vector carries an exact antipodal pair or repeated angle
    for x in a[::4]:
        turns = [p.angle.turns for p in x if not p.is_zero]
        assert any((s - t) % 1 in (0, 0.5)
                   for i, s in enumerate(turns) for t in turns[:i])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
