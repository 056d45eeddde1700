import itertools
import random

import pytest

from phasetop.cells import (
    CellLabel,
    bx_member,
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
