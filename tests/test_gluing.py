import hashlib
import inspect
import itertools
import random

import pytest

from phasetop import gluing
from phasetop.cells import (
    CellLabel,
    bx_member,
    bx_sample,
    format_cell_label,
    meet,
    meet_all,
    nu,
    ul_label,
)
from phasetop.gluing import (
    GluingFamily,
    chart_family,
    check_gluing,
    dimension_witness,
    lattice_family,
    random_slice_point,
    sample_charts_point,
    verify_slice_claims,
)
from phasetop.order_complex import random_join_point, random_model_point


def charts_row(j, n):
    return [ul_label(j, k, n) for k in range(1, n)]


def test_row_family_passes():
    fam = lattice_family(charts_row(1, 4), 4)
    rep = check_gluing(fam)
    assert rep.passed
    assert rep.violations == []
    assert rep.summary() is None


def test_row_families_pass_for_small_n():
    for n in (3, 4, 5):
        d = 2 * n - 4
        for j in range(1, n):
            assert check_gluing(lattice_family(charts_row(j, n), d)).passed


def test_chart_family_meets_over_j():
    fam = chart_family((1,), 4)
    assert fam.cells == charts_row(1, 4) and fam.ambient_dim == 4
    fam = chart_family((1, 2), 4)
    assert fam.cells == [meet(ul_label(1, k, 4), ul_label(2, k, 4))
                         for k in (1, 2, 3)]
    assert fam.ambient_dim == 3
    assert dimension_witness(fam) is None
    assert dimension_witness(lattice_family(fam.cells, 4)).startswith(
        "k=1: nu(")


def test_corrupted_dimension_oracle_flags_every_subset():
    cells = charts_row(1, 4)
    fam = GluingFamily(
        cells,
        4,
        dim_of=lambda c: nu(c) + 1,
        meet_of=lambda xs: meet_all(list(xs)),
        in_boundary=lambda a, b: a != b and nu(a) < nu(b),
    )
    rep = check_gluing(fam)
    assert not rep.passed
    flagged = {v[0] for v in rep.violations if v[1] in ("dim", "cell-dim")}
    singletons = {(i,) for i in range(1, 4)}
    bigger = {tuple(i + 1 for i in J)
              for size in (2, 3)
              for J in itertools.combinations(range(3), size)}
    assert singletons <= flagged
    assert bigger <= flagged


def test_wrong_meet_dimension_is_reported():
    # these two charts meet in a cell two dimensions down, not one
    cells = [ul_label(1, 2, 4), ul_label(2, 1, 4)]
    rep = check_gluing(lattice_family(cells, 4))
    assert not rep.passed
    assert any(v[0] == (1, 2) and v[1] == "dim" for v in rep.violations)


def test_oversized_family_reports_size_violation():
    cells = charts_row(1, 4) + [ul_label(2, 1, 4), ul_label(2, 3, 4),
                                ul_label(3, 1, 4)]
    assert len(cells) == 6  # d + 2
    rep = check_gluing(lattice_family(cells, 4))
    assert any(v[1] == "size" for v in rep.violations)


def test_duplicate_cells_reported():
    cells = [ul_label(1, 2, 4), ul_label(1, 2, 4)]
    rep = check_gluing(lattice_family(cells, 4))
    assert any(v[1] == "distinct" for v in rep.violations)


def test_missing_meet_reported_not_raised():
    cells = charts_row(1, 4)
    fam = GluingFamily(
        cells,
        4,
        dim_of=nu,
        meet_of=lambda xs: meet_all(list(xs)) if len(xs) < 2 else None,
        in_boundary=lambda a, b: True,
    )
    rep = check_gluing(fam)
    assert not rep.passed
    assert all(v[1] == "meet-undefined" for v in rep.violations)


def test_failed_boundary_oracle_reported():
    cells = charts_row(1, 4)
    fam = GluingFamily(
        cells,
        4,
        dim_of=nu,
        meet_of=lambda xs: meet_all(list(xs)),
        in_boundary=lambda a, b: False,
    )
    rep = check_gluing(fam)
    assert any(v[1].startswith("boundary-drop-") for v in rep.violations)


def reference_check_gluing(f):
    """check_gluing as it was before its meet memo: every sub-meet asked anew."""
    violations = []
    m = len(f.cells)
    d = f.ambient_dim
    if len(set(f.cells)) != m:
        violations.append(((), "distinct", "duplicate cells in family"))
    if m > d + 1:
        violations.append(((), "size", f"m={m} exceeds d+1={d + 1}"))
    for i, c in enumerate(f.cells):
        di = f.dim_of(c)
        if di != d:
            violations.append(((i + 1,), "cell-dim", f"dim={di}, expected {d}"))
    for size in range(2, m + 1):
        for J in itertools.combinations(range(m), size):
            tag = tuple(i + 1 for i in J)
            mt = f.meet_of(tuple(f.cells[i] for i in J))
            if mt is None:
                violations.append((tag, "meet-undefined", "no common lower bound"))
                continue
            want = d - size + 1
            got = f.dim_of(mt)
            if got != want:
                violations.append((tag, "dim", f"dim={got}, expected {want}"))
            for r in J:
                sub = f.meet_of(tuple(f.cells[i] for i in J if i != r))
                if sub is None:
                    violations.append(
                        (tag, f"boundary-drop-{r + 1}", "sub-meet undefined")
                    )
                elif not f.in_boundary(mt, sub):
                    violations.append(
                        (tag, f"boundary-drop-{r + 1}",
                         f"{mt} not in the boundary of {sub}")
                    )
    return violations


def _lattice_meet(xs):
    return meet_all(list(xs))


def _failing_families():
    row = charts_row(1, 4)
    yield "distinct", lattice_family([ul_label(1, 2, 4)] * 2, 4)
    yield "size", lattice_family(row + [ul_label(2, 1, 4), ul_label(2, 3, 4),
                                        ul_label(3, 1, 4)], 4)
    yield "cell-dim", lattice_family(row, 5)
    yield "meet-undefined", GluingFamily(
        row, 4, nu, lambda xs: _lattice_meet(xs) if len(xs) < 2 else None,
        lambda a, b: True)
    yield "dim", lattice_family([ul_label(1, 2, 4), ul_label(2, 1, 4)], 4)
    yield "boundary-drop", GluingFamily(  # sub-meets over pairs undefined
        row, 4, nu, lambda xs: None if len(xs) == 2 else _lattice_meet(xs),
        lambda a, b: True)
    yield "boundary-drop", GluingFamily(  # singletons undefined
        row, 4, nu, lambda xs: None if len(xs) == 1 else _lattice_meet(xs),
        lambda a, b: True)
    yield "boundary-drop", GluingFamily(row, 4, nu, _lattice_meet,
                                        lambda a, b: False)


def test_check_gluing_matches_the_reference_on_every_chart_family():
    for n in range(3, 7):
        for size in range(1, n):
            for J in itertools.combinations(range(1, n), size):
                fam = chart_family(J, n)
                assert check_gluing(fam).violations == reference_check_gluing(fam)
                # off by one in the ambient dimension: every subset fails
                off = lattice_family(fam.cells, fam.ambient_dim + 1)
                got = check_gluing(off).violations
                assert got and got == reference_check_gluing(off)


def test_check_gluing_matches_the_reference_on_failing_families():
    for kind, fam in _failing_families():
        want = reference_check_gluing(fam)
        assert any(v[1].startswith(kind) for v in want), kind
        assert check_gluing(fam).violations == want, kind


def test_check_gluing_asks_each_subset_meet_once():
    for n in (4, 5, 6):
        fam = chart_family((1,), n)
        calls = {}

        def counting(xs, meet_of=fam.meet_of):
            calls[xs] = calls.get(xs, 0) + 1
            return meet_of(xs)

        fam.meet_of = counting
        assert check_gluing(fam).passed
        m = len(fam.cells)
        subsets = {tuple(fam.cells[i] for i in J)
                   for size in range(1, m + 1)
                   for J in itertools.combinations(range(m), size)}
        assert set(calls) == subsets  # singletons are asked as sub-meets
        assert set(calls.values()) == {1}


def test_sample_charts_point_lands_in_all_charts():
    for n in (3, 4):
        charts = [ul_label(1, 2, n), ul_label(2, 1, n)]
        for seed in range(6):
            z = sample_charts_point(charts, seed)
            assert z is not None
            for c in charts:
                assert bx_member(c, z, "closed")


def test_sample_charts_point_three_charts():
    charts = [ul_label(1, 3, 4), ul_label(2, 3, 4), ul_label(3, 3, 4)]
    z = sample_charts_point(charts, 5)
    assert z is not None
    assert all(bx_member(c, z, "closed") for c in charts)
    assert bx_member(meet_all(charts), z, "closed")


def test_sample_charts_point_deterministic():
    charts = [ul_label(1, 2, 4), ul_label(2, 3, 4)]
    assert sample_charts_point(charts, 11) == sample_charts_point(charts, 11)


def test_sample_charts_point_is_total_on_chart_combinations():
    # every chart combination used by the slice claims has a point
    for n in (3, 4):
        charts = [ul_label(j, k, n) for j in range(1, n) for k in range(1, n)]
        for size in (1, 2, 3):
            for combo in itertools.combinations(charts, size):
                for seed in range(2):
                    z = sample_charts_point(list(combo), seed)
                    assert z is not None, combo
                    assert all(bx_member(c, z, "closed") for c in combo)


def test_sample_charts_point_rejects_length_mismatch():
    with pytest.raises(ValueError):
        sample_charts_point([ul_label(1, 2, 3), ul_label(1, 2, 4)], 0)


def test_random_slice_point_shape():
    rng = random.Random(3)
    for n in (2, 3, 5):
        z = random_slice_point(rng, n)
        assert len(z) == n
        assert z[n - 1].radius == 1 and z[n - 1].angle.turns == 0


def test_sample_charts_point_stream_is_pinned():
    # digest taken from the sampler when it still took den; every chart
    # combination of sizes 1 to 3 at n = 3 and 4, as the slice claims use
    lines = []
    for n in (3, 4):
        charts = [ul_label(j, k, n) for j in range(1, n) for k in range(1, n)]
        for size in (1, 2, 3):
            for combo in itertools.combinations(charts, size):
                for seed in range(3):
                    lines.append(str(sample_charts_point(list(combo), seed)))
    assert len(lines) == 429
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "75a6ae007523b422cc63fc0a7d970d058190757e8450428b7992dcf9838c32bf")


def recorded_draws(monkeypatch, n, seed):
    """(check name, label text, seed) of every bx_sample and
    sample_charts_point call made by verify_slice_claims(n, 1000, seed)."""
    calls = []
    check = [None]
    run_check = gluing.run_check

    def named(name, fn, **params):
        check[0] = name
        return run_check(name, fn, **params)

    def recording(draw, text_of):
        def recorded(cells, s):
            calls.append((check[0], text_of(cells), s))
            return draw(cells, s)
        return recorded

    monkeypatch.setattr(gluing, "run_check", named)
    monkeypatch.setattr(gluing, "bx_sample",
                        recording(bx_sample, format_cell_label))
    monkeypatch.setattr(gluing, "sample_charts_point", recording(
        sample_charts_point, lambda cs: ";".join(map(format_cell_label, cs))))
    assert verify_slice_claims(n, 1000, seed).passed
    return calls


DRAWS_PINNED = {  # (n, seed): distinct draws and the digest of their list
    (3, 0): (2971, "01b2a457e9c28ec73a80ed298124d71afa79797409323a5da4f43046514e0c7b"),
    (3, 1): (3227, "c2f5ca35008b35decd3d1078b4d982c58769956ffa7c87604758620f081cc9a6"),
    (4, 0): (2488, "1b087f78e03004adaef062d9d387e710dfa8e7904aa42de393b2ccfd9a5d1a83"),
    (4, 1): (2560, "6435cea92e02e342655e5380c6c36acd61c21d36e9626d2246ce4652a2356c2b"),
}


@pytest.mark.parametrize("n,seed", sorted(DRAWS_PINNED))
def test_slice_claims_draw_each_sample_once_per_check(monkeypatch, n, seed):
    # the distinct draws, in the order first asked for, are pinned (digests
    # taken when every check redrew its samples); no check asks twice
    calls = recorded_draws(monkeypatch, n, seed)
    assert len(set(calls)) == len(calls)
    distinct = list(dict.fromkeys((text, s) for _, text, s in calls))
    text = "\n".join(f"{t}@{s}" for t, s in distinct)
    assert (len(distinct), hashlib.sha256(text.encode()).hexdigest()) == (
        DRAWS_PINNED[n, seed])


def test_random_slice_point_stream_is_pinned():
    # digest taken from the sampler when it still took den
    lines = []
    for n in range(2, 7):
        rng = random.Random(f"slice-pin:{n}")
        for _ in range(200):
            lines.append(repr(random_slice_point(rng, n)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "bf33f87ae1d1d6667d15e63d95ed0cec68f8d5785b68baa036878f5801f94c12")


def test_verify_slice_claims_requires_n_at_least_3():
    with pytest.raises(ValueError):
        verify_slice_claims(2)


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_slice_claims_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_slice_claims(3, samples=samples)


def test_verify_slice_claims_n3():
    rep = verify_slice_claims(3, samples=80, seed=1)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "meets-stay-admissible" in names
    assert "family-gluing:j=1" in names
    assert "cross-gluing:J={1,2}" in names
    assert "sampled:dichotomy" in names
    assert all(c.status == "pass" for c in rep.checks)


def test_verify_slice_claims_n4():
    rep = verify_slice_claims(4, samples=60, seed=2)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["sampled:union-identity"].status == "pass"
    assert by_name["cross-dim:J={1,2,3}"].status == "pass"


def test_verify_slice_claims_skips_sampling_for_large_n():
    rep = verify_slice_claims(5, samples=10, seed=0)
    assert rep.passed
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["sampled:boundary-containment"] == "skip"
    assert statuses["sampled:dichotomy"] == "skip"
    assert statuses["family-gluing:j=4"] == "pass"


def test_verify_slice_claims_deterministic_bytes():
    a = verify_slice_claims(3, samples=40, seed=9)
    b = verify_slice_claims(3, samples=40, seed=9)
    assert a.to_bytes() == b.to_bytes()


@pytest.mark.parametrize("call, name", [
    (lambda: sample_charts_point([], 0), "charts"),
], ids=["charts-empty"])
def test_samplers_reject_bad_arguments_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_samplers_draw_on_one_fixed_grid():
    # no sampler takes a grid or an interior flag
    for f in (bx_sample, sample_charts_point, random_slice_point,
              random_model_point, random_join_point):
        assert list(inspect.signature(f).parameters) in (
            ["x", "seed"], ["charts", "seed"], ["rng", "n"]), f.__name__
