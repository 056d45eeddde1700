import hashlib
import tracemalloc

import pytest

from phasetop import suites
from phasetop.mesh import MeshValidityError
from phasetop.suites import SUITES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_max_n_below_suite_floor_rejected():
    with pytest.raises(ValueError):
        run_suite("sign-spheres", max_n=2)
    with pytest.raises(ValueError):
        run_suite("slice-claims", max_n=1)
    with pytest.raises(ValueError, match="max_n >= 2"):
        run_suite("gamma-roundtrip", max_n=1)
    with pytest.raises(ValueError, match="max_n >= 3"):
        run_suite("pieces", max_n=2)


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_runs_at_its_floor(name):
    floor = SUITES[name].ns.start
    rep = run_suite(name, max_n=floor, m=2, samples=2)
    assert rep.passed and rep.checks
    with pytest.raises(ValueError, match=f"needs max_n >= {floor}"):
        run_suite(name, max_n=floor - 1, m=2, samples=2)


def test_odd_m_rejected():
    with pytest.raises(ValueError):
        run_suite("slice-mesh", m=3)


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_rejected(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_suite("gamma-roundtrip", max_n=2, samples=samples)


def test_caps_never_widen():
    rep = run_suite("full-sphere", max_n=9, m=2)
    assert rep.passed
    assert all(c.params.get("n", 0) <= 3 for c in rep.checks)


def test_zero_oracle_small():
    rep = run_suite("lemma-zero-oracle", max_n=2, m=4)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "oracle-agreement:m=2,n=1" in names
    assert "oracle-agreement:m=4,n=2" in names
    by_name = {c.name: c for c in rep.checks}
    assert by_name["oracle-agreement:m=4,n=2"].params["inputs"] == 25


def test_pieces_holds_one_covector_at_a_time():
    # the zero-triple check streams the grid: a list of the n = 5, m = 6
    # covectors alone would peak at about 1.9 MB
    tracemalloc.start()
    try:
        rep = run_suite("pieces", m=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 512 * 1024, peak


def test_reports_are_deterministic():
    a = run_suite("gamma-roundtrip", max_n=3, samples=50, seed=3)
    b = run_suite("gamma-roundtrip", max_n=3, samples=50, seed=3)
    assert a.to_bytes() == b.to_bytes()
    assert a.passed


def test_all_prefixes_and_covers_every_suite():
    rep = run_suite("all", max_n=3, m=2, samples=5, seed=1)
    assert rep.passed
    assert rep.suite == "all"
    for name in SUITES:
        assert any(c.name.startswith(name + ":") for c in rep.checks), name
    # the canonical bytes of a wider run are pinned
    wide = run_suite("all", max_n=4, m=2, samples=5, seed=1)
    assert len(wide.checks) == 78
    assert hashlib.sha256(wide.to_bytes()).hexdigest() == (
        "59666854e5afcc4ce900eaf2fb23ece8b50974ccdbcafbf9960c8895eceb6295")


def test_failed_full_assembly_is_reported_not_raised(monkeypatch):
    def broken(n, m):
        raise MeshValidityError("regions disagree")

    monkeypatch.setattr(suites, "assemble_full", broken)
    rep = run_suite("full-sphere", max_n=3, m=2)
    assert not rep.passed
    failed = {c.name: c for c in rep.checks if c.status == "fail"}
    assert "regions disagree" in failed["full-assembly:n=3,m=2"].witness
    assert not any(c.name.startswith("full-sphere:n=3") for c in rep.checks)


def test_report_carries_seed_and_params():
    rep = run_suite("pn-combinatorics", max_n=3, seed=11)
    assert rep.seed == 11
    assert rep.params == {"max_n": 3}
    assert rep.passed
