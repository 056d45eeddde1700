import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from phasetop import cells
from phasetop.cells import (
    _POINTS,
    _down_sets,
    _region,
    _upper,
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
    verify_meet_glb,
)
from phasetop.order_complex import DiscPoint, ModelPoint
from phasetop.phase import Angle

F = Fraction


def L(text):
    return parse_cell_label(text)


def MP(*pairs):
    return ModelPoint(tuple(DiscPoint.of(r, a) for r, a in pairs))


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


def reference_down_sets(elems):
    """Each principal down-set as a bitmask, built pair by pair with cell_leq."""
    down = []
    for x in elems:
        mask = 0
        for i, z in enumerate(elems):
            if cell_leq(z, x):
                mask |= 1 << i
        down.append(mask)
    return down


def reference_verify_meet_glb(n):
    """verify_meet_glb over the pairwise down-sets, calling cells.meet."""
    elems = pn_elements(n)
    index = {x: i for i, x in enumerate(elems)}
    down = reference_down_sets(elems)
    for i, x in enumerate(elems):
        for j in range(i, len(elems)):
            y = elems[j]
            if down[index[cells.meet(x, y)]] != down[i] & down[j]:
                return False, (x, y)
    return True, None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_down_set_masks_match_the_pairwise_reference(n):
    elems = pn_elements(n)
    assert _down_sets(elems) == reference_down_sets(elems)


def test_meet_glb_failures_match_the_reference(monkeypatch):
    real = cells.meet

    def too_low(x, y):  # a lower bound, but not the greatest once F repeats
        m = real(x, y)
        head = list(m.labels)
        if head.count(PLabel.FULL) >= 2:
            head[head.index(PLabel.FULL)] = PLabel.MINUS_ONE
        return CellLabel(tuple(head))

    def not_lower(x, y):  # an upper bound of x where x and y differ
        return x if PLabel.UPPER in y.labels else real(x, y)

    for fake in (too_low, not_lower):
        monkeypatch.setattr(cells, "meet", fake)
        for n in (4, 5):
            got = verify_meet_glb(n)
            assert not got[0] and got[1][0] != pn_elements(n)[0]
            assert got == reference_verify_meet_glb(n)
    monkeypatch.setattr(cells, "meet", real)
    assert verify_meet_glb(5) == reference_verify_meet_glb(5) == (True, None)


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
    assert F(*_upper(DiscPoint.of(1, "1/4"))) == F(1, 2)
    assert F(*_upper(DiscPoint.of(1, 0))) == 0
    assert F(*_upper(DiscPoint.of(1, "1/2"))) == 1
    assert _upper(DiscPoint.of(1, "5/8")) is None
    assert _upper(DiscPoint.of("1/2", "1/4")) is None
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


def reference_bx_sample(x, seed, interior=False, den=16):
    """The cell sampler as it was when it took the interior flag and the
    grid: the same seed text and rng calls.  interior draws every U and
    L parameter in (0, 1) and every F radius below 1."""
    rng = random.Random(f"bx:{format_cell_label(x)}:{seed}:{interior}:{den}")
    lo, hi = (1, den - 1) if interior else (0, den)
    ups = {i: rng.randint(lo, hi) for i, lab in enumerate(x)
           if lab is PLabel.UPPER}
    bound = min(ups.values(), default=den)  # L stays below every U
    coords = []
    for i, lab in enumerate(x):
        if lab is PLabel.ONE:
            coords.append(DiscPoint.of(1, 0))
        elif lab is PLabel.MINUS_ONE:
            coords.append(DiscPoint.of(1, F(1, 2)))
        elif lab is PLabel.UPPER:
            coords.append(DiscPoint.of(1, F(ups[i], 2 * den)))
        elif lab is PLabel.LOWER:
            t = bound * rng.randint(lo, hi)
            coords.append(DiscPoint.of(1, F(den * den + t, 2 * den * den)))
        else:
            coords.append(DiscPoint.of(F(rng.randint(0, hi), den),
                                       F(rng.randint(0, den - 1), den)))
    return ModelPoint(tuple(coords))


def test_bx_sample_satisfies_membership():
    for n in (3, 4):
        for x in pn_elements(n):
            for seed in range(5):
                z = bx_sample(x, seed)
                assert bx_member(x, z, "closed")
                zi = reference_bx_sample(x, seed, interior=True)
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
    # closed draws from bx_sample, interior ones from the reference form
    text = "\n".join(str(reference_bx_sample(x, s, True) if i else bx_sample(x, s))
                     for n in (3, 4) for x in pn_elements(n) for s in range(5)
                     for i in (False, True))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "06bc19d38526d0a00fb4808db5d8bca1a64fb8da3b0042c6d7a133115d2cec98")


def test_closed_bx_sample_stream_is_pinned():
    # digest taken from bx_sample when it still took interior and den
    points = [(x, s) for n in (3, 4) for x in pn_elements(n) for s in range(5)]
    text = "\n".join(str(bx_sample(x, s)) for x, s in points)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af81da3af95ba85ddf2396ab04ceea8dff47aadc1422a750f42943b90ad778ec")
    assert text == "\n".join(str(reference_bx_sample(x, s)) for x, s in points)


# ---------------------------------------------------------------------------
# Differential tests: the integer predicates against the Fraction reference
# ---------------------------------------------------------------------------


def reference_upper_param(c):
    if c.radius != 1 or c.angle.turns > F(1, 2):
        return None
    return 2 * c.angle.turns


def reference_lower_param(c):
    if c.radius != 1:
        return None
    if c.angle.turns == 0:
        return F(1)
    if c.angle.turns < F(1, 2):
        return None
    return 2 * (c.angle.turns - F(1, 2))


def reference_bx_member(x, z, mode="closed"):
    strict = mode == "interior"
    u_params, l_params = [], []
    for lab, c in zip(x, z.coords):
        if lab == PLabel.ONE:
            if (c.radius, c.angle.turns) != (1, 0):
                return False
        elif lab == PLabel.MINUS_ONE:
            if (c.radius, c.angle.turns) != (1, F(1, 2)):
                return False
        elif lab == PLabel.UPPER:
            t = reference_upper_param(c)
            if t is None or (strict and not 0 < t < 1):
                return False
            u_params.append(t)
        elif lab == PLabel.LOWER:
            t = reference_lower_param(c)
            if t is None or (strict and not 0 < t < 1):
                return False
            l_params.append(t)
        elif strict and c.radius >= 1:
            return False
    return all(tb < ta if strict else tb <= ta
               for ta in u_params for tb in l_params)


def _mixed_turns(rng):
    """Angles with small, large and prime denominators, and the points
    0, 1/2 where the half-circles meet."""
    q = rng.choice([2, rng.randint(1, 12), rng.randint(1, 10**6),
                    rng.choice([7919, 65_537, 999_983])])
    return rng.choice([F(0), F(1, 2), F(rng.randrange(q), q)])


def _mixed_disc_point(rng):
    q = rng.randint(1, 10**6)
    r = rng.choice([F(0), F(1), F(1), F(1), F(rng.randint(0, q), q)])
    return DiscPoint(r, Angle(_mixed_turns(rng)))


def test_half_circle_params_match_the_reference_on_mixed_denominators():
    rng = random.Random("half-circle-params")
    for _ in range(3000):
        c = _mixed_disc_point(rng)
        t = _upper(c)
        assert (t if t is None else F(*t)) == reference_upper_param(c), str(c)
        assert lower_param(c) == reference_lower_param(c), str(c)


@pytest.mark.parametrize("n", [3, 4])
def test_bx_member_matches_the_reference_on_mixed_denominators(n):
    rng = random.Random(f"bx-member-reference:{n}")
    elems = pn_elements(n)
    seen = set()
    for _ in range(1500):
        x = rng.choice(elems)
        # start from a point of the cell, then move a few coordinates
        coords = list(reference_bx_sample(
            x, rng.randrange(10**6), den=rng.choice([3, 16, 999_983])).coords)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(n)
            c = coords[i]
            coords[i] = rng.choice([
                _mixed_disc_point(rng),
                DiscPoint(c.radius, Angle(c.angle.turns + _mixed_turns(rng) / 10**6)),
                DiscPoint(c.radius, Angle(c.angle.turns - _mixed_turns(rng) / 10**6)),
            ])
        z = ModelPoint(tuple(coords))
        for mode in ("closed", "interior"):
            got = bx_member(x, z, mode)
            assert got == reference_bx_member(x, z, mode), (str(x), str(z), mode)
            seen.add((mode, got))
    assert len(seen) == 4


@pytest.mark.parametrize("n", [3, 4])
def test_bx_member_matches_the_reference_on_grid_points(n):
    # sampled points over 16ths, some coordinates swapped for equal copies
    # (the pinned points among them) that are not the shared objects, and
    # a few moved to other grid points
    rng = random.Random(f"bx-member-grid:{n}")
    elems = pn_elements(n)
    pool = ([cells._disc_at(r, a) for r in (0, 8, 15, 16) for a in range(16)]
            + [cells._lower_at(t) for t in range(0, 257, 32)])
    seen = set()
    for _ in range(1500):
        x = rng.choice(elems)
        coords = [DiscPoint(c.radius, Angle(c.angle.turns))
                  if rng.random() < 0.5 else c
                  for c in bx_sample(x, rng.randrange(10**6)).coords]
        for _ in range(rng.randint(0, 2)):
            coords[rng.randrange(n)] = rng.choice(pool)
        z = ModelPoint(tuple(coords))
        for mode in ("closed", "interior"):
            got = bx_member(x, z, mode)
            assert got == reference_bx_member(x, z, mode), (str(x), str(z), mode)
            seen.add((mode, got))
    assert len(seen) == 4


def test_bx_member_tie_between_lower_and_upper_params():
    # t_U = 2/6 and t_L = 1/3 as unreduced pairs: equal, so closed only
    x = L("U,L,F,1")
    z = MP((1, "1/6"), (1, "2/3"), ("1/2", "1/7"), (1, 0))
    assert bx_member(x, z, "closed") and reference_bx_member(x, z)
    assert not bx_member(x, z, "interior")
    assert not reference_bx_member(x, z, "interior")


# ---------------------------------------------------------------------------
# Differential tests: the lattice tables against symbol-by-symbol references
# ---------------------------------------------------------------------------


# the symbols strictly below each symbol, written out here so that the
# reference does not read the order it checks
REFERENCE_BELOW = {
    PLabel.ONE: set(),
    PLabel.MINUS_ONE: set(),
    PLabel.UPPER: {PLabel.ONE, PLabel.MINUS_ONE},
    PLabel.LOWER: {PLabel.ONE, PLabel.MINUS_ONE},
    PLabel.FULL: {PLabel.ONE, PLabel.MINUS_ONE, PLabel.UPPER, PLabel.LOWER},
}


def reference_symbol_meet(a, b):
    """The smaller of two comparable symbols, -1 for U and L, else None."""
    if a == b or a in REFERENCE_BELOW[b]:
        return a
    if b in REFERENCE_BELOW[a]:
        return b
    if {a, b} == {PLabel.UPPER, PLabel.LOWER}:
        return PLabel.MINUS_ONE
    return None


def reference_nu(x):
    return sum({PLabel.UPPER: 1, PLabel.LOWER: 1, PLabel.FULL: 2}.get(lab, 0)
               for lab in x)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lattice_tables_match_the_symbol_references_on_every_pair(n):
    elems = pn_elements(n)
    for x in elems:
        text = ",".join(lab.value for lab in x)
        assert format_cell_label(x) == format_cell_label(x.labels) == text
        assert parse_cell_label(text) == x
        assert nu(x) == nu(x.labels) == reference_nu(x)
        assert in_pn(x.labels)
    for x, y in itertools.product(elems, repeat=2):
        leq = all(a == b or a in REFERENCE_BELOW[b] for a, b in zip(x, y))
        assert cell_leq(x, y) == cell_leq(x.labels, y.labels) == leq, (x, y)
        want = CellLabel(tuple(map(reference_symbol_meet, x, y)))
        assert meet(x, y) == meet(x.labels, y.labels) == want, (x, y)


def test_lattice_tables_keep_the_errors_of_the_symbol_references():
    x, y = L("U,L,1"), L("U,L,F,1")
    for op in (meet, cell_leq):
        for a, b in ((x, y), (y, x), (x.labels, y.labels)):
            with pytest.raises(ValueError, match="^labels must share a length$"):
                op(a, b)
    one, minus = PLabel.ONE, PLabel.MINUS_ONE
    # the first coordinate without a meet is named, in argument order
    a = (one, minus, PLabel.UPPER, one)
    b = (minus, one, PLabel.UPPER, one)
    with pytest.raises(ValueError, match="^no meet for symbols 1, -1$"):
        meet(a, b)
    with pytest.raises(ValueError, match="^no meet for symbols -1, 1$"):
        meet(b, a)
    # a componentwise meet outside P_n is refused as CellLabel refuses it
    f = (PLabel.FULL, PLabel.FULL, one)
    with pytest.raises(ValueError, match="^not an admissible cell label: F,F,1$"):
        meet(f, f)
    assert not cell_leq((PLabel.UPPER, one), (PLabel.LOWER, one))
    assert cell_leq((minus, PLabel.UPPER, one), (PLabel.UPPER, PLabel.FULL, one))


# ---------------------------------------------------------------------------
# The shared grid points of the sampler
# ---------------------------------------------------------------------------


def test_shared_grid_points_equal_freshly_built_points():
    tables = (
        (cells._upper_at, [(u,) for u in range(17)],
         lambda u: DiscPoint.of(1, F(u, 32))),
        (cells._lower_at, [(t,) for t in range(257)],
         lambda t: DiscPoint.of(1, F(256 + t, 512))),
        (cells._disc_at, itertools.product(range(17), range(16)),
         lambda r, a: DiscPoint.of(F(r, 16), F(a, 16))),
    )
    for point_at, keys, fresh in tables:
        for key in keys:
            got, want = point_at(*key), fresh(*key)
            assert got == want and hash(got) == hash(want), key
            assert repr(got) == repr(want) and point_at(*key) is got
    assert cells._disc_at(0, 5) == DiscPoint.center()


def test_importing_cells_builds_no_grid_point():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from phasetop import cells; print(*(f.cache_info().currsize for f"
            " in (cells._upper_at, cells._lower_at, cells._disc_at)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                       check=True, timeout=60)
    assert r.stdout.split() == ["0", "0", "0"]
