"""Acceptance suite: one test per certified claim, at full desk scale.

Each test drives the matching verification suite at the documented
ranges, asserts a clean pass, the pinned sha256 of the report bytes and
the stated runtime budget, and prints one summary line.
"""

import hashlib
import time

from phasetop.suites import run_suite

# sha256 of each suite's canonical report at the scale its criterion runs
REPORT_SHA256 = {
    "lemma-zero-oracle":
        "513ef6bb2d15e7c9c9d5f472bffdfdcd89e859010c0b3017d171978b362f23eb",
    "pieces":
        "6ccaa02be8644369ef69cd25ac63af3c620b4ce760f81b20338388105ebb7aa5",
    "sign-spheres":
        "8b2b5968775e64d80aeca3bc29045f7d9b3552308c5fb5f175cb1a9f31a9a3f1",
    "gamma-roundtrip":  # samples=10000
        "e0b822436ad0b82438464123ad013eef974adf2bc7e7b098a5fc63c220574e4e",
    "pn-combinatorics":
        "a6ade11aa36b0aee71bb780773922d1004701472196de391c3220d264e71a1fb",
    "slice-claims":  # samples=1000, seed=0
        "9deccad3514d91f9a7d2fd6b4feafa1f6bd4deb1fab9c7ab89f3b57d0d6ed8b0",
    "slice-mesh":
        "c5c0ada753f4bed3216899ce014efdeb0293f8182f4d6232d8aaae98dc1f35b9",
    "boundary-ident":
        "120ab0b40ae9656cf743e89c40daf0448bfd9405c49a996d5243826227b37b6b",
    "full-sphere":
        "584eb77761ad355c9dd89cec3148231aab7ce9b61f6b8425740179433a1cb038",
}


def _run(suite, budget_s=None, **kw):
    t0 = time.monotonic()
    rep = run_suite(suite, **kw)
    dt = time.monotonic() - t0
    failures = [c for c in rep.checks if c.status == "fail"]
    for c in failures:
        print(f"  FAIL {c.name}: {c.witness}")
    assert rep.passed, f"suite {suite} reported {len(failures)} failure(s)"
    assert hashlib.sha256(rep.to_bytes()).hexdigest() == REPORT_SHA256[suite]
    if budget_s is not None:
        assert dt < budget_s, f"suite {suite} took {dt:.1f}s > {budget_s}s"
    return rep, dt


def test_criterion_1_zero_sum_oracle_equivalence():
    rep, dt = _run("lemma-zero-oracle", budget_s=60)
    checks = {c.name: c for c in rep.checks}
    total = 0
    for m in (2, 4, 6, 8):
        for n in range(1, 6):
            c = checks[f"oracle-agreement:m={m},n={n}"]
            assert c.params["inputs"] == (m + 1) ** n
            total += c.params["inputs"]
    print(f"criterion 1 PASS: enclosing-arc criterion == fold oracle on all"
          f" {total} inputs, m in 2..8, n <= 5, {dt:.1f}s")


def test_criterion_2_zero_triples_for_big_support():
    rep, dt = _run("pieces", budget_s=60)
    assert len(rep.checks) == 4 * 3  # m in {2,4,6,8} x n in {3,4,5}
    print(f"criterion 2 PASS: every covector with support >= 3 splits off a"
          f" zero triple, exhaustive to n=5 m=8, {dt:.1f}s")


def test_criterion_3_sign_sphere_betti():
    rep, dt = _run("sign-spheres", budget_s=60)
    names = {c.name for c in rep.checks}
    for n in (3, 4, 5):
        for field in ("q", "f2"):
            assert f"sign-sphere:n={n},field={field}" in names
    print(f"criterion 3 PASS: sign covector order complexes have sphere"
          f" Betti (1,0,...,0,1) for n=3,4,5 over Q and F2, {dt:.1f}s")


def test_criterion_4_gamma_round_trips():
    rep, dt = _run("gamma-roundtrip", samples=10000)
    total = sum(c.params["samples"] for c in rep.checks)
    assert total >= 10000
    assert {c.params["n"] for c in rep.checks} == {2, 3, 4, 5, 6}
    print(f"criterion 4 PASS: {total} seeded join points and {total} model"
          f" points round trip exactly, n <= 6, {dt:.1f}s")


def test_criterion_5_cell_poset_combinatorics():
    rep, dt = _run("pn-combinatorics", budget_s=300)
    names = {c.name for c in rep.checks}
    for n in range(3, 8):
        assert f"family-gluing:n={n},j=1" in names
        assert f"cross-dim:n={n},J={{{','.join(str(j) for j in range(1, n))}}}" in names
    for n in (3, 4, 5):
        assert f"meet-glb:n={n}" in names
    print(f"criterion 5 PASS: cell dimensions and gluing hypotheses hold for"
          f" every chart subfamily to n=7, meets are greatest lower bounds"
          f" to n=5, {dt:.1f}s")


def test_criterion_6_sampled_geometry():
    rep, dt = _run("slice-claims", samples=1000, seed=0)
    sampled = [c for c in rep.checks if "sampled:" in c.name]
    assert {c.params["n"] for c in sampled} == {3, 4}
    assert all(c.status == "pass" for c in sampled)
    print(f"criterion 6 PASS: boundary, intersection, union, and dichotomy"
          f" claims hold on >= 1000 exact samples per claim, n <= 4,"
          f" {dt:.1f}s")


def test_criterion_7_slice_is_a_ball():
    rep, dt = _run("slice-mesh", budget_s=300)
    names = {c.name for c in rep.checks}
    for n, m in ((3, 2), (3, 4), (4, 2)):
        assert f"slice-validity:n={n},m={m}" in names
        assert f"slice-betti:n={n},m={m},field=q" in names
        assert f"slice-betti:n={n},m={m},field=f2" in names
        assert f"slice-euler:n={n},m={m}" in names
    print(f"criterion 7 PASS: glued slices mesh validly with Betti"
          f" (1,0,...,0) and Euler characteristic 1 for n=3 (m=2,4) and"
          f" n=4 (m=2), {dt:.1f}s")


def test_criterion_8_boundary_identification():
    rep, dt = _run("boundary-ident")
    names = {c.name for c in rep.checks}
    assert "boundary-circle:m=2" in names
    assert "boundary-circle:m=4" in names
    assert "boundary-sphere:n=4,m=2,field=q" in names
    assert "boundary-sphere:n=4,m=2,field=f2" in names
    print(f"criterion 8 PASS: slice boundaries match the one-rank-down full"
          f" space (combinatorial isomorphism for n=3, S^3 Betti for n=4),"
          f" {dt:.1f}s")


def test_criterion_9_full_space_sphere():
    rep, dt = _run("full-sphere", budget_s=600)
    checks = {c.name: c for c in rep.checks}
    assert checks["full-circle:n=2,m=2"].status == "pass"
    assert checks["full-circle:n=2,m=4"].status == "pass"
    route = checks["full-assembly:n=3,m=2"].params["route"]
    assert route == "direct"
    assert checks["full-pseudomanifold:n=3,m=2"].status == "pass"
    assert checks["full-sphere:n=3,m=2,field=q"].status == "pass"
    assert checks["full-sphere:n=3,m=2,field=f2"].status == "pass"
    assert checks["full-sphere-mv-cross-check:n=3,m=2"].status == "pass"
    # the desk-scale limit: nothing above n=3 is ever meshed
    wide = run_suite("full-sphere", max_n=9, m=2)
    assert all(c.params.get("n", 0) <= 3 for c in wide.checks)
    print(f"criterion 9 PASS: full space has S^1 Betti at n=2 and S^3 Betti"
          f" over Q and F2 at n=3 (route: {route}, pseudomanifold closed);"
          f" n >= 4 stays out of scope, {dt:.1f}s")
