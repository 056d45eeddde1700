import hashlib
import itertools
from fractions import Fraction

import pytest

from phasetop.cells import (
    _POINTS,
    _region,
    CellLabel,
    PLabel,
    bx_member,
    bx_sample,
    cell_leq,
    format_cell_label,
    in_pn,
    lower_param,
    meet,
    meet_all,
    nu,
    p_leq,
    parse_cell_label,
    pn_elements,
    ul_label,
    upper_param,
    verify_meet_glb,
)
from phasetop.order_complex import DiscPoint, ModelPoint

F = Fraction


def L(text):
    return parse_cell_label(text)


def MP(*pairs):
    return ModelPoint.of(pairs)


def test_label_order_exact_relations():
    lows = {PLabel.ONE, PLabel.MINUS_ONE}
    mids = {PLabel.UPPER, PLabel.LOWER}
    for a in PLabel:
        assert p_leq(a, a)
    for a in lows:
        for b in mids | {PLabel.FULL}:
            assert p_leq(a, b)
            assert not p_leq(b, a)
    for a in mids:
        assert p_leq(a, PLabel.FULL)
    # incomparable pairs
    assert not p_leq(PLabel.ONE, PLabel.MINUS_ONE)
    assert not p_leq(PLabel.MINUS_ONE, PLabel.ONE)
    assert not p_leq(PLabel.UPPER, PLabel.LOWER)
    assert not p_leq(PLabel.LOWER, PLabel.UPPER)


def test_in_pn_examples():
    assert in_pn(L("U,L,F,1").labels)
    assert in_pn(L("U,U,-1,1").labels)
    assert not in_pn((PLabel.UPPER, PLabel.UPPER, PLabel.FULL, PLabel.ONE))
    # symbol 1 only at the end
    assert not in_pn((PLabel.ONE, PLabel.LOWER, PLabel.FULL, PLabel.ONE))
    assert not in_pn((PLabel.MINUS_ONE, PLabel.FULL, PLabel.FULL, PLabel.FULL))
    # all-F head is unconstrained
    assert not in_pn((PLabel.FULL, PLabel.FULL, PLabel.ONE))
    with pytest.raises(ValueError):
        in_pn((PLabel.MINUS_ONE, PLabel.ONE))


def test_cell_label_validates():
    with pytest.raises(ValueError):
        CellLabel.of(["U", "U", "F", "1"])
    with pytest.raises(ValueError):
        parse_cell_label("U,L,F,Q")
    x = L("U,L,F,1")
    assert format_cell_label(x) == "U,L,F,1"
    assert len(x) == 4


def test_ul_label_covers_reversed_pairs():
    assert ul_label(2, 1, 4) == L("L,U,F,1")
    assert ul_label(3, 3, 4) == L("F,F,-1,1")
    assert ul_label(1, 2, 4) == L("U,L,F,1")
    assert ul_label(1, 1, 4) == L("-1,F,F,1")
    assert ul_label(2, 3, 4) == L("F,U,L,1")
    with pytest.raises(ValueError):
        ul_label(0, 1, 4)
    with pytest.raises(ValueError):
        ul_label(1, 4, 4)


def test_meet_examples():
    assert meet(ul_label(1, 2, 4), ul_label(1, 3, 4)) == L("U,L,L,1")
    assert meet(ul_label(1, 2, 4), ul_label(2, 3, 4)) == L("U,-1,L,1")
    x = L("U,L,F,1")
    assert meet(x, x) == x
    assert meet_all([ul_label(1, k, 4) for k in (1, 2, 3)]) == L("-1,L,L,1")


def test_meet_is_glb_exhaustive_small():
    # direct cubic check at n = 3
    elems = pn_elements(3)
    for x in elems:
        for y in elems:
            m = meet(x, y)
            assert cell_leq(m, x) and cell_leq(m, y)
            for z in elems:
                if cell_leq(z, x) and cell_leq(z, y):
                    assert cell_leq(z, m)
    # bitmask certificate at n = 4
    ok, witness = verify_meet_glb(4)
    assert ok, witness


def test_pn_element_counts_stable():
    # frozen counts guard the admissibility predicate against regressions
    assert len(pn_elements(3)) == 9
    assert len(pn_elements(4)) == 49


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_pn_elements_rejects_small_n(n):
    with pytest.raises(ValueError, match="n >= 3"):
        pn_elements(n)


def test_nu_values():
    assert nu(L("U,L,F,1")) == 4
    assert nu(L("-1,F,F,1")) == 4
    assert nu(L("U,L,L,1")) == 3
    assert nu(L("-1,-1,-1,1")) == 0
    assert nu(meet_all([ul_label(1, k, 4) for k in (2, 3)])) == 3


def test_nu_strictly_monotone():
    for n in (3, 4):
        elems = pn_elements(n)
        for x in elems:
            for y in elems:
                if x != y and cell_leq(x, y):
                    assert nu(x) < nu(y)


def test_half_circle_params():
    assert upper_param(DiscPoint.of(1, "1/4")) == F(1, 2)
    assert upper_param(DiscPoint.of(1, 0)) == 0
    assert upper_param(DiscPoint.of(1, "1/2")) == 1
    assert upper_param(DiscPoint.of(1, "5/8")) is None
    assert upper_param(DiscPoint.of("1/2", "1/4")) is None
    assert lower_param(DiscPoint.of(1, "5/8")) == F(1, 4)
    assert lower_param(DiscPoint.of(1, "1/2")) == 0
    assert lower_param(DiscPoint.of(1, 0)) == 1
    assert lower_param(DiscPoint.of(1, "1/4")) is None


def test_bx_member_examples():
    x = L("U,L,1")
    z = MP((1, "1/4"), (1, "5/8"), (1, 0))
    assert bx_member(x, z, "closed")
    assert bx_member(x, z, "interior")
    z_bad = MP((1, "1/4"), (1, "7/8"), (1, 0))  # t2 = 3/4 > t1 = 1/2
    assert not bx_member(x, z_bad, "closed")
    z_edge = MP((1, "1/2"), (1, "5/8"), (1, 0))  # t1 = 1
    assert bx_member(x, z_edge, "closed")
    assert not bx_member(x, z_edge, "interior")
    with pytest.raises(ValueError):
        bx_member(x, z, "open")


def test_bx_member_fixed_and_disc_coords():
    x = L("-1,F,F,1")
    z = MP((1, "1/2"), ("1/2", "1/8"), (0, 0), (1, 0))
    assert bx_member(x, z, "closed")
    assert bx_member(x, z, "interior")
    z2 = MP((1, "1/2"), (1, "1/8"), (0, 0), (1, 0))
    assert bx_member(x, z2, "closed")
    assert not bx_member(x, z2, "interior")  # disc coord on the rim
    z3 = MP((1, "3/8"), ("1/2", "1/8"), (0, 0), (1, 0))
    assert not bx_member(x, z3, "closed")
    # last coordinate off its pin
    z4 = MP((1, "1/2"), ("1/2", "1/8"), (0, 0), (1, "1/8"))
    assert not bx_member(x, z4, "closed")


def test_bx_sample_satisfies_membership():
    for n in (3, 4):
        for x in pn_elements(n):
            for seed in range(5):
                z = bx_sample(x, seed)
                assert bx_member(x, z, "closed")
                zi = bx_sample(x, seed, interior=True)
                assert bx_member(x, zi, "closed")
                assert bx_member(x, zi, "interior")


def test_bx_sample_deterministic():
    x = L("U,L,F,1")
    assert bx_sample(x, 7) == bx_sample(x, 7)
    assert bx_sample(x, 7) != bx_sample(x, 8)


def test_boundary_containment_sampled():
    # strictly smaller labels land inside the bigger cell but never in
    # its interior
    for n in (3, 4):
        elems = pn_elements(n)
        for x in elems:
            for y in elems:
                if x == y or not cell_leq(x, y):
                    continue
                for seed in range(3):
                    z = bx_sample(x, seed)
                    assert bx_member(y, z, "closed")
                    assert not bx_member(y, z, "interior")


def test_intersection_of_charts_is_meet_sampled():
    # membership in every chart of a family equals membership in the meet
    n = 4
    for j in (1, 2, 3):
        for subset in ((1, 2), (2, 3), (1, 2, 3)):
            fam = [ul_label(j, k, n) for k in subset]
            m = meet_all(fam)
            for seed in range(40):
                z = bx_sample(m, seed)
                assert all(bx_member(g, z, "closed") for g in fam)
            for g in fam:
                for seed in range(40):
                    z = bx_sample(g, seed)
                    in_all = all(bx_member(h, z, "closed") for h in fam)
                    assert in_all == bx_member(m, z, "closed")


def reference_in_pn(labels):
    """Slow reference: admissibility by an index loop over the head."""
    n = len(labels)
    if labels[n - 1] != PLabel.ONE:
        return False
    if any(lab == PLabel.ONE for lab in labels[: n - 1]):
        return False
    head = labels[: n - 1]
    if all(lab == PLabel.FULL for lab in head):
        return False
    for i, lab in enumerate(head):
        if lab == PLabel.UPPER:
            wanted = {PLabel.LOWER, PLabel.MINUS_ONE}
        elif lab == PLabel.LOWER:
            wanted = {PLabel.UPPER, PLabel.MINUS_ONE}
        else:
            continue
        if not any(j != i and other in wanted for j, other in enumerate(head)):
            return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_in_pn_and_pn_elements_match_the_reference(n):
    for labs in itertools.product(PLabel, repeat=n):
        assert in_pn(labs) == reference_in_pn(labs), labs
    want = [CellLabel(head + (PLabel.ONE,))
            for head in itertools.product(PLabel, repeat=n - 1)
            if reference_in_pn(head + (PLabel.ONE,))]
    assert pn_elements(n) == want


def brute_symbol_meet(a, b):
    """The greatest common lower bound of two symbols under p_leq; failing
    that, the greatest one other than 1 (reserved for the last
    coordinate); None when the symbols have no common lower bound."""
    lower = [c for c in PLabel if p_leq(c, a) and p_leq(c, b)]
    for pool in (lower, [c for c in lower if c != PLabel.ONE]):
        top = [g for g in pool if all(p_leq(c, g) for c in pool)]
        if top:
            return top[0]
    return None


def test_meet_matches_brute_force_on_every_symbol_pair():
    tail = (PLabel.MINUS_ONE, PLabel.ONE)  # admissible after any head but 1
    for a, b in itertools.product(PLabel, repeat=2):
        want = brute_symbol_meet(a, b)
        if want is None:
            assert {a, b} == {PLabel.ONE, PLabel.MINUS_ONE}
            with pytest.raises(ValueError, match="no meet for symbols"):
                meet((a,) + tail, (b,) + tail)
        elif PLabel.ONE not in (a, b):
            got = meet(CellLabel((a,) + tail), CellLabel((b,) + tail))
            assert got == CellLabel((want,) + tail), (a, b)
        else:  # 1 meets only at the last coordinate, where both are 1
            assert want == PLabel.ONE


def brute_symbol_points(lab):
    """The points of a disc grid lying in the region a symbol names: the
    centre, plus radii 1/2 and 1 at angles k/16."""
    grid = [(F(0), F(0))] + [(r, F(k, 16)) for r in (F(1, 2), F(1))
                             for k in range(16)]
    return {(r, a) for r, a in grid if {
        PLabel.ONE: r == 1 and a == 0,
        PLabel.MINUS_ONE: r == 1 and a == F(1, 2),
        PLabel.UPPER: r == 1 and a <= F(1, 2),
        PLabel.LOWER: r == 1 and (a >= F(1, 2) or a == 0),
        PLabel.FULL: True,
    }[lab]}


def test_symbol_region_matches_brute_force_intersections():
    for size in range(1, len(PLabel) + 1):
        for labs in itertools.permutations(PLabel, size):
            want = set.intersection(*(brute_symbol_points(l) for l in labs))
            got = _region(labs)
            if got is None:
                assert not want, labs
            else:
                labs_of = got if got is _POINTS else (got,)
                got_points = set().union(*(brute_symbol_points(l)
                                           for l in labs_of))
                assert got_points == want, labs


def test_bx_sample_stream_is_pinned():
    text = "\n".join(str(bx_sample(x, s, i)) for n in (3, 4)
                     for x in pn_elements(n) for s in range(5)
                     for i in (False, True))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "06bc19d38526d0a00fb4808db5d8bca1a64fb8da3b0042c6d7a133115d2cec98")
