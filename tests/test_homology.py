import contextlib
import faulthandler
import itertools
import json
import os
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetop.covectors import enumerate_covectors, sign_leq_vec
from phasetop.mesh import (
    MeshValidityError,
    SimplicialComplex,
    assemble_full,
    assemble_slice,
    boundary_subcomplex,
    complex_from_doc,
    complex_to_doc,
    full_space_pieces,
)
import phasetop.homology as homology_module
import phasetop.mesh as mesh_module
from phasetop.homology import (
    BettiReport,
    _Engine,
    _boundary_columns,
    _column,
    _eliminate,
    _reductions,
    betti,
    euler_characteristic,
    mayer_vietoris_assemble,
    order_complex_of_poset,
    vertex_inclusion_map,
)


# A hypothesis test here runs with deadline=None and normally ends in under
# 2 s; an engine defect can make it loop or shrink for many minutes.
WALL_CLOCK_CAP_S = 60


@pytest.fixture(autouse=True)
def wall_clock_cap(request):
    """End the whole run, with the traceback of every thread, when one test
    of this file runs past WALL_CLOCK_CAP_S, so a hang fails instead of
    stalling.  The traceback goes to the terminal's stderr, duplicated
    while output capture is suspended, because the capture file is lost
    when the process exits."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with (capman.global_and_fixture_disabled() if capman
          else contextlib.nullcontext()):
        fd = os.dup(2)
    faulthandler.dump_traceback_later(WALL_CLOCK_CAP_S, exit=True, file=fd)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(fd)


class FractionReducer:
    """Slow reference: column reduction over Fraction, largest-row pivots."""

    def __init__(self, f2: bool):
        self.f2 = f2
        self.pivots: dict = {}
        self.rank = 0

    def _reduce(self, col: dict) -> dict:
        while col:
            low = max(col)
            other = self.pivots.get(low)
            if other is None:
                return col
            if self.f2:
                for r in other:
                    if r in col:
                        del col[r]
                    else:
                        col[r] = 1
            else:
                factor = col[low] / other[low]
                for r, v in other.items():
                    nv = col.get(r, Fraction(0)) - factor * v
                    if nv:
                        col[r] = nv
                    else:
                        col.pop(r, None)
        return col

    def add(self, col: dict) -> bool:
        col = self._reduce(dict(col))
        if col:
            self.pivots[max(col)] = col
            self.rank += 1
            return True
        return False


class ReferenceEngine:
    """The engine before its heap low: every step rescans the column for
    its low and, over Q, divides it by its content."""

    def __init__(self, f2: bool):
        self.f2 = f2
        self.pivots: dict = {}

    def add(self, col) -> None:
        while col:
            low = max(col)
            other = self.pivots.get(low)
            if other is None:
                self.pivots[low] = col
                return
            if self.f2:
                col ^= other
            else:
                reference_eliminate(col, other, low)


def reference_eliminate(col: dict, other: dict, low) -> None:
    a, b = col[low], other[low]
    g = gcd(a, b)
    ka, kb = b // g, a // g
    if ka < 0:
        ka, kb = -ka, -kb
    if ka != 1:
        for r in col:
            col[r] *= ka
    for r, v in other.items():
        nv = col.get(r, 0) - kb * v
        if nv:
            col[r] = nv
        else:
            del col[r]
    g = gcd(*col.values())
    if g > 1:
        for r in col:
            col[r] //= g


def reference_chain_data(*complexes: SimplicialComplex):
    """Sorted faces by dimension of the disjoint union, with their indices.

    The chain data as it was built on every call before it was kept on
    the complex: vertex indices of each complex are shifted past those
    of the ones before it, so in every dimension the simplices of
    earlier complexes come first.
    """
    simp: dict = {}
    shift = 0
    for K in complexes:
        for d, fs in K.faces().items():
            if shift:
                fs = (tuple(v + shift for v in s) for s in fs)
            simp.setdefault(d, []).extend(sorted(fs))
        shift += len(K.vertices)
    idx = {d: {s: i for i, s in enumerate(ss)} for d, ss in simp.items()}
    return simp, idx


def reference_boundary_columns(simp, idx, d: int, f2: bool, skip=()):
    """Boundary columns with each face cut out of its simplex by slicing."""
    rows = idx.get(d - 1)
    signs = (1, -1) * (d // 2 + 1)
    for j, s in enumerate(simp.get(d, ())):
        if j in skip:
            continue
        faces = [rows[s[:i] + s[i + 1:]] for i in range(d + 1)] if d else ()
        yield j, set(faces) if f2 else dict(zip(faces, signs))


def reference_facet_row(simp, idx, d: int, j: int) -> tuple:
    """The facet row of the d-simplex j, by slicing: the indices of its
    faces that drop vertex d, d - 1, ..., 0 in turn."""
    s = simp[d][j]
    return tuple(idx[d - 1][s[:i] + s[i + 1:]] for i in range(d, -1, -1))


def reference_reductions(simp, idx, f2: bool, top: int):
    cleared: dict = {}
    for d in range(top, -1, -1):
        eng = ReferenceEngine(f2)
        for _, col in reference_boundary_columns(simp, idx, d, f2, cleared):
            eng.add(col)
        yield d, eng
        cleared = eng.pivots


def built(col, f2: bool):
    """A column in the reference form.  Over Q a tuple is a facet row: it
    lists the faces of its simplex that drop vertex d, d - 1, ..., 0 in
    turn, and the face without vertex i has sign (-1)^i.  Over F2 a
    tuple is the column's rows."""
    if type(col) is not tuple:
        return col
    d = len(col) - 1
    return set(col) if f2 else {r: (-1) ** (d - p) for p, r in enumerate(col)}


def assert_same_engine_state(eng, ref, row=None):
    """The engine equals the reference once each pivot it holds by its
    id is resolved by row(id) and its tuple pivots are built; over F2
    every other pivot is a tuple."""
    pivots = {low: row(col) if type(col) is int else col
              for low, col in eng.pivots.items()}
    if eng.f2:
        assert all(type(col) is tuple for col in pivots.values())
    assert {low: built(col, eng.f2) for low, col in pivots.items()} \
        == ref.pivots


def reference_betti(K: SimplicialComplex, f2: bool) -> tuple:
    faces = K.faces()
    simp = {d: sorted(faces[d]) for d in faces}
    idx = {d: {s: i for i, s in enumerate(ss)} for d, ss in simp.items()}
    ranks = {}
    for d in range(1, max(simp) + 1):
        red = FractionReducer(f2)
        for s in simp[d]:
            red.add({idx[d - 1][s[:i] + s[i + 1:]]:
                     1 if f2 else Fraction((-1) ** i) for i in range(len(s))})
        ranks[d] = red.rank
    return tuple(len(simp[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                 for d in range(max(simp) + 1))


@st.composite
def complexes(draw):
    """Small complexes: up to 8 top simplices of dimension <= 3 on 7 vertices.

    A drawn vertex set that repeats an earlier one is dropped, since a
    complex may not list one top twice.
    """
    tops = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                         min_size=1, max_size=8))
    tops = list(dict.fromkeys(map(frozenset, tops)))
    used = sorted(set().union(*tops))
    relabel = {v: i for i, v in enumerate(used)}
    return SimplicialComplex(used, [tuple(relabel[v] for v in sorted(t))
                                    for t in tops])


def rp2():
    """The 6-vertex real projective plane."""
    faces = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
             (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    return SimplicialComplex(list(range(1, 7)),
                             [tuple(v - 1 for v in f) for f in faces])


def klein_bottle():
    """The twisted 3 x 3 grid: 9 vertices, 18 triangles.  The square at
    (i, j) has corners (i, j) to (i + 1, j + 1), i taken mod 3, and a
    corner at j = 3 is the vertex (-i, 0)."""
    def v(i, j):
        if j == 3:
            i, j = -i, 0
        return i % 3 * 3 + j

    tops = []
    for i, j in itertools.product(range(3), repeat=2):
        a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
        tops += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    return SimplicialComplex(list(range(9)), tops)


def sub_complex(K: SimplicialComplex, tops) -> SimplicialComplex:
    """The subcomplex spanned by the given tops of K, on its own vertices."""
    used = sorted(set().union(*tops))
    return SimplicialComplex([K.vertices[v] for v in used],
                             [tuple(used.index(v) for v in t) for t in tops])


def circle():
    return SimplicialComplex(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])


def disc():
    return SimplicialComplex(["c", "r0", "r1", "r2"],
                             [(0, 1, 2), (0, 2, 3), (0, 1, 3)])


def test_point():
    K = SimplicialComplex(["a"], [(0,)])
    assert betti(K).betti == (1,)
    assert euler_characteristic(K) == 1


def test_empty_complex():
    K = SimplicialComplex([], [])
    assert betti(K).betti == ()
    assert euler_characteristic(K) == 0


def test_vertices_without_tops_have_no_homology():
    # vertices that no simplex uses are not faces, as in `mesh stats`
    K = SimplicialComplex(["a", "b"], [])
    assert betti(K) == BettiReport("q", (), 0)
    assert betti(K, "f2") == BettiReport("f2", (), 0)


def test_circle_and_disc():
    assert betti(circle()).betti == (1, 1)
    assert betti(circle(), "f2").betti == (1, 1)
    assert betti(disc()).betti == (1, 0, 0)
    assert euler_characteristic(circle()) == 0
    assert euler_characteristic(disc()) == 1


def test_field_tags():
    K = circle()
    assert betti(K, "q").field == "q"
    assert betti(K, "f2").field == "f2"
    # only the two tags: no aliases, no case folding
    for tag in ("f3", "rationals", "rational", "gf2", "z2", "Q", "F2", None):
        with pytest.raises(ValueError, match="unknown coefficient field"):
            betti(K, tag)
        with pytest.raises(ValueError, match="unknown coefficient field"):
            mayer_vietoris_assemble(K, K, K, {0: 0, 1: 1, 2: 2},
                                    {0: 0, 1: 1, 2: 2}, tag)


def test_report_rendering():
    r = betti(circle(), "f2")
    assert r == BettiReport("f2", (1, 1), 0)
    assert str(r) == "betti (1,1) euler 0 over F2"


def test_euler_matches_alternating_betti_sum():
    for K in (circle(), disc(), assemble_slice(3, 2), assemble_full(2, 4)):
        r = betti(K)
        alt = sum((-1) ** d * b for d, b in enumerate(r.betti))
        assert r.euler == alt == euler_characteristic(K)


def test_projective_plane_torsion_shows_only_mod_2():
    K = rp2()
    assert betti(K, "q").betti == (1, 0, 0)
    assert betti(K, "f2").betti == (1, 1, 1)
    for f2 in (False, True):
        assert reference_betti(K, f2) == betti(K, "f2" if f2 else "q").betti


def test_the_klein_bottle_is_a_surface():
    K = klein_bottle()
    assert K.f_vector() == (9, 27, 18) and K.is_closed_pseudomanifold()
    for x in range(9):  # every vertex link is one cycle
        link = [tuple(y for y in t if y != x) for t in K.tops if x in t]
        assert betti(SimplicialComplex(list(range(9)), link)).betti \
            == (1, 1)
        assert set(Counter(itertools.chain(*link)).values()) == {2}


def reductions_run(monkeypatch) -> list:
    """The field of every reduction betti runs from now on (True: F2)."""
    runs = []
    reductions = homology_module._reductions

    def logging(columns, f2, top):
        runs.append(f2)
        return reductions(columns, f2, top)

    monkeypatch.setattr(homology_module, "_reductions", logging)
    return runs


def unimodular(K: SimplicialComplex) -> list:
    """Whether each dimension's Q reduction of K is unimodular."""
    return [eng.unimodular for _, eng in _reductions(
        partial(_boundary_columns, (K,)), False, K.dim)]


@pytest.mark.parametrize("build,q,f2", [(rp2, (1, 0, 0), (1, 1, 1)),
                                        (klein_bottle, (1, 1, 0), (1, 2, 1))],
                         ids=["rp2", "klein-bottle"])
def test_torsion_refuses_the_certificate_and_f2_reduces(build, q, f2,
                                                         monkeypatch):
    # a pivot of the top dimension keeps 2 at its low, so the Q ranks are
    # not the F2 ranks, and F2 after Q runs its own reduction
    K = build()
    assert unimodular(K) == [False, True, True]
    runs = reductions_run(monkeypatch)
    assert betti(K, "q").betti == q == reference_betti(K, False)
    assert "f2" not in K._ranks
    assert betti(K, "f2").betti == f2 == reference_betti(K, True)
    assert betti(build(), "f2").betti == f2
    assert runs == [False, True, True]


@pytest.mark.parametrize("build", [
    circle, disc, lambda: assemble_full(2, 4),
    lambda: boundary_subcomplex(assemble_slice(4, 2)),
], ids=["circle", "disc", "full(2,4)", "boundary of slice(4,2)"])
def test_a_unimodular_q_reduction_gives_the_f2_ranks(build, monkeypatch):
    # F2 after Q reads the Q ranks, with no second reduction; F2 first,
    # on a fresh complex, runs the F2 engine to the same numbers
    K = build()
    assert all(unimodular(K))
    runs = reductions_run(monkeypatch)
    r = betti(K, "q")
    assert K._ranks["f2"] is K._ranks["q"]
    assert betti(K, "f2") == BettiReport("f2", r.betti, r.euler) \
        == betti(build(), "f2")
    assert runs == [False, True]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(complexes())
@example(rp2())
@example(klein_bottle())
def test_f2_after_q_is_the_f2_engine_alone(drawn):
    K = SimplicialComplex(drawn.vertices, drawn.tops)
    alone = SimplicialComplex(drawn.vertices, drawn.tops)
    betti(K, "q")
    assert betti(K, "f2") == betti(alone, "f2")


@pytest.mark.parametrize("cols,pivots,certified", [
    ([(0, 1)], {1: (0, 1)}, True),
    ([{1: 1}, {0: 1, 1: 3}], {1: {1: 1}, 0: {0: 1}}, True),
    # col - 2 other leaves {0: 2}: divided by its content, its low is 1
    ([{1: 1}, {0: 2, 1: 2}], {1: {1: 1}, 0: {0: 1}}, False),
    ([{0: 1, 1: 2}], {1: {0: 1, 1: 2}}, False),
], ids=["facet-row", "unit-steps", "content-divided", "low-of-two"])
def test_the_certificate_of_a_reduction(cols, pivots, certified):
    def columns(d, skip):
        # no facet rows: every column comes built, a tuple kept as it stands
        return (), (), [c if type(c) is tuple else dict(c) for c in cols]

    d, eng = next(_reductions(columns, False, 0))
    assert (d, eng.pivots, eng.unimodular) == (0, pivots, certified)
    assert not _Engine(True).unimodular  # F2 certifies nothing


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("field,want", [("q", (1, 0, 0)), ("f2", (1, 1, 1))])
def test_mv_projective_plane_from_moebius_band_and_disc(field, want, swap):
    K = rp2()
    # the star of vertex 1 is a disc; the other five triangles form a
    # Moebius band; they meet in the pentagon linking vertex 1
    disc_tops = [t for t in K.tops if 0 in t]
    band_tops = [t for t in K.tops if 0 not in t]
    pentagon = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    ka, kb = sub_complex(K, band_tops), sub_complex(K, disc_tops)
    kint = sub_complex(K, pentagon)
    assert betti(ka, field).betti == (1, 1, 0)
    assert betti(kint, field).betti == (1, 1)
    if swap:
        ka, kb = kb, ka
    r = mayer_vietoris_assemble(ka, kb, kint, vertex_inclusion_map(kint, ka),
                                vertex_inclusion_map(kint, kb), field)
    assert r.betti == betti(K, field).betti == want
    assert r.euler == euler_characteristic(K) == 1


def common_subcomplex(tops_a, tops_b) -> list:
    """The tops of the faces that lie in a top of each list: the maximal
    simplices of their common faces."""
    def closure(tops):
        return {s for t in tops for d in range(len(t))
                for s in itertools.combinations(t, d + 1)}

    common = closure(tops_a) & closure(tops_b)
    return [s for s in common
            if not any(len(t) > len(s) and set(s) <= set(t) for t in common)]


def shuffled_piece(K: SimplicialComplex, tops, rnd) -> SimplicialComplex:
    """sub_complex of the tops, its vertices listed in a drawn order, so
    the inclusion of the common subcomplex reverses some simplices."""
    used = sorted(set().union(*tops))
    rnd.shuffle(used)
    return SimplicialComplex([K.vertices[v] for v in used],
                             [tuple(used.index(v) for v in t) for t in tops])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes(), st.randoms(use_true_random=True))
def test_mv_of_a_drawn_split_is_the_betti_numbers_of_the_whole(K, rnd):
    # the tops go to A or B at random; A and B meet in their common
    # faces, and Mayer-Vietoris of the two gives the whole complex's
    # Betti numbers and Euler characteristic over both fields
    side = [rnd.random() < 0.5 for _ in K.tops]
    tops_a = [t for t, a in zip(K.tops, side) if a]
    tops_b = [t for t, a in zip(K.tops, side) if not a]
    ka, kb = shuffled_piece(K, tops_a, rnd), shuffled_piece(K, tops_b, rnd)
    kint = shuffled_piece(K, common_subcomplex(tops_a, tops_b), rnd)
    ma, mb = vertex_inclusion_map(kint, ka), vertex_inclusion_map(kint, kb)
    for field in ("q", "f2"):
        assert mayer_vietoris_assemble(ka, kb, kint, ma, mb, field) \
            == betti(K, field)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(complexes())
def test_engine_matches_fraction_reference(K):
    for field, f2 in (("q", False), ("f2", True)):
        r = betti(K, field)
        assert r.betti == reference_betti(K, f2)
        assert r.euler == sum((-1) ** d * b for d, b in enumerate(r.betti))
        assert r.euler == euler_characteristic(K)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5),
                                st.integers(-3, 3).filter(bool), max_size=6),
                max_size=8))
def test_engine_matches_fraction_reference_on_integer_columns(cols):
    for f2 in (False, True):
        eng, ref = _Engine(f2), FractionReducer(f2)
        for col in cols:
            eng.add(set(col) if f2 else dict(col))
            ref.add({r: 1 if f2 else Fraction(v) for r, v in col.items()})
        assert len(eng.pivots) == ref.rank


@st.composite
def chained_columns(draw):
    """Columns whose reduction runs long chains through non-unit pivots.

    Column j of a chain of 64 to 96 has its low at row j + 1 over an
    entry at row j and up to three rows below, so a later column with
    its low at the chain's top reduces through all of it.  Entries
    range over +-1..+-3, so some steps scale the column and some leave
    a common factor in it.  The chain comes in a drawn order, and a
    dense column over every row follows it, then a few sparse ones.
    The draws come from one seeded Random, which keeps 100-row
    examples cheap to make.
    """
    rnd = draw(st.randoms(use_true_random=True))
    n = rnd.randint(64, 96)

    def coef():
        return rnd.choice((-3, -2, -1, 1, 2, 3))

    chain = []
    for j in range(n):
        col = {r: coef() for r in rnd.sample(range(j + 1), min(j + 1, 3))
               if rnd.random() < 0.5}
        col[j + 1] = coef()
        chain.append(col)
    rnd.shuffle(chain)
    dense = {r: coef() for r in range(n + 1)}
    tail = [{r: coef() for r in rnd.sample(range(n + 1), rnd.randint(1, 8))}
            for _ in range(rnd.randint(0, 3))]
    return chain + [dense] + tail


def _run_both(cols, f2: bool):
    eng, ref = _Engine(f2), ReferenceEngine(f2)
    for col in cols:
        eng.add(set(col) if f2 else dict(col))
        ref.add(set(col) if f2 else dict(col))
    assert_same_engine_state(eng, ref)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7),
                                st.integers(-4, 4).filter(bool), max_size=8),
                max_size=10))
def test_engine_matches_reference_engine_on_integer_columns(cols):
    for f2 in (False, True):
        _run_both(cols, f2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chained_columns())
def test_engine_matches_reference_engine_on_long_chains(cols):
    for f2 in (False, True):
        _run_both(cols, f2)


@pytest.mark.parametrize("build", [
    lambda: assemble_full(3, 4),
    lambda: boundary_subcomplex(assemble_slice(4, 4)),
    lambda: full_space_pieces(3, 4).interface,
], ids=["full(3,4)", "boundary of slice(4,4)", "torus of full(3,4)"])
def test_engine_matches_reference_engine_on_meshes(build):
    _assert_same_reductions(build())


def _assert_same_reductions(*parts):
    """The engines on the face tables of parts, one dimension above
    their top, equal the reference engines on the parent's chain data of
    their disjoint union, each pivot held by its id read as the facet
    row of the simplex it names.  First, the engine must read every id
    as that same facet row, so a wrong row fails here, not in a
    reduction that no longer ends.  Each engine is compared when it is yielded,
    before the generator resumes and releases its pivots."""
    simp, idx = reference_chain_data(*parts)
    top = max(simp) + 1
    for d in range(1, top):
        assert list(map(tuple, facet_row_list(parts, d))) == [
            reference_facet_row(simp, idx, d, j) for j in range(len(simp[d]))]
    for f2 in (False, True):
        dims = []
        for (d, eng), (d_ref, ref) in zip(
                _reductions(partial(_boundary_columns, parts), f2, top),
                reference_reductions(simp, idx, f2, top)):
            assert d == d_ref
            assert_same_engine_state(
                eng, ref, partial(reference_facet_row, simp, idx, d))
            dims.append(d)
        assert dims == list(range(top, -1, -1))


@pytest.mark.parametrize("m", [2, 4])
def test_engine_matches_parent_chain_data_on_full_space_pieces(m):
    P = full_space_pieces(3, m)
    for parts in ((P.rotation,), (P.base,), (P.interface,),
                  (P.rotation, P.base)):
        _assert_same_reductions(*parts)


class RecordingEngine(_Engine):
    """The engine, logging, for each column whose low was a pivot held
    by its id or as a tuple, that low, the pivot as it was held, and
    the kind of the column (an id, a tuple or a dict); and logging each
    id whose facet row is read for a pivot held by that id.  Every
    such column reaches add; _reductions keeps a column whose low is
    free without calling add, so the columns an engine is given are
    logged from its stream (see logging_columns)."""

    runs: list = []

    def __init__(self, f2: bool, rows=(), d: int = 0):
        super().__init__(f2, rows, d)
        self.given: list = []
        self.hits: list = []
        self.read: list = []
        self.runs.append(self)

    def facets(self, j: int) -> tuple:
        """The facet row of id j, cut from rows here."""
        w = self.width
        return tuple(self.rows[j * w:j * w + w])

    def row(self, j: int):
        if self.pivots.get(self.facets(j)[-1]) == j:
            self.read.append(j)
        return super().row(j)

    def add(self, col) -> None:
        low = max(self.facets(col) if type(col) is int else col,
                  default=None)
        if type(self.pivots.get(low)) in (int, tuple):
            self.hits.append((low, self.pivots[low], type(col)))
        super().add(col)


def logging_columns(columns):
    """columns, with each column of the stream also logged (a copy of a
    built one) on the engine made last, which is the one that reduces
    it.  The engine is made after columns is called, so the ids and the
    rest are logged as they are drawn."""

    def logged(d, skip):
        rows, ids, rest = columns(d, skip)

        def log(cols):
            for col in cols:
                eng = RecordingEngine.runs[-1]
                eng.given.append(col if type(col) in (int, tuple)
                                 else col.copy())
                yield col

        return rows, log(ids), log(rest)

    return logged


def _run_betti_and_mayer_vietoris(field: str):
    """Direct Betti numbers of the boundary of slice(4, 2), then
    Mayer-Vietoris on full_space_pieces(3, 2): the reduction of the
    mapping cone of the interface's inclusion into the two pieces."""
    assert betti(boundary_subcomplex(assemble_slice(4, 2)), field).betti \
        == (1, 0, 0, 1)
    P = full_space_pieces(3, 2)
    got = mayer_vietoris_assemble(
        P.rotation, P.base, P.interface,
        vertex_inclusion_map(P.interface, P.rotation),
        vertex_inclusion_map(P.interface, P.base), field)
    assert got.betti == (1, 0, 0, 1)


@pytest.mark.parametrize("f2", [False, True])
def test_no_tuple_pivot_is_ever_built(f2, monkeypatch):
    # a column that meets a pivot reads it as it stands, over both
    # fields: a pivot held by its id stays that id, a tuple pivot stays
    # the very tuple it was kept as, and no pivot is ever a set.  Each
    # engine is checked when its caller resumes the generator, before
    # the pivots are released
    monkeypatch.setattr(RecordingEngine, "runs", [])
    monkeypatch.setattr(homology_module, "_Engine", RecordingEngine)
    kinds, checked = set(), []

    def check(eng):
        ref = ReferenceEngine(f2)
        for col in eng.given:
            ref.add(built(eng.facets(col) if type(col) is int else col, f2))
        assert_same_engine_state(eng, ref, eng.facets)
        for low, held, kind in eng.hits:
            assert eng.pivots[low] is held
            row = eng.facets(held) if type(held) is int else held
            assert built(row, f2) == _column(row, f2)
            kinds.add(kind)
        checked.append(eng)

    reductions = homology_module._reductions

    def checking(columns, f2, top):
        for d, eng in reductions(logging_columns(columns), f2, top):
            yield d, eng
            check(eng)

    monkeypatch.setattr(homology_module, "_reductions", checking)
    _run_betti_and_mayer_vietoris("f2" if f2 else "q")
    assert checked == RecordingEngine.runs
    # facet rows come as ids; over Q the cone's intersection columns are
    # dicts, and over F2 tuples, and both kinds meet kept pivots
    assert kinds == {int, tuple if f2 else dict}


class MeetLog(dict):
    """Pivots that count, for each low, the steps that meet its pivot."""

    def __init__(self):
        super().__init__()
        self.met = Counter()

    def get(self, low, default=None):
        other = super().get(low, default)
        if other is not None:
            self.met[low] += 1
        return other


@pytest.mark.parametrize("field", ["q", "f2"])
def test_an_id_held_pivot_is_read_each_time_a_later_column_meets_it(
        field, monkeypatch):
    # betti on the pieces of full(3, 2), then Mayer-Vietoris: the facet
    # rows read from ids are exactly those of the pivots kept by their
    # id, once for each step that meets one, as the reference engine
    # replaying the same columns counts them; no id becomes a tuple
    monkeypatch.setattr(RecordingEngine, "runs", [])
    monkeypatch.setattr(homology_module, "_Engine", RecordingEngine)
    reductions = homology_module._reductions
    counts = []

    def check(eng):
        ref = ReferenceEngine(eng.f2)
        ref.pivots = MeetLog()
        by_id = {}  # low -> the id kept as the pivot there
        for col in eng.given:
            if type(col) is int:
                row = eng.facets(col)
                if row[-1] not in ref.pivots:
                    by_id[row[-1]] = col
                col = row
            ref.add(built(col, eng.f2))
        want = Counter({j: ref.pivots.met[low] for low, j in by_id.items()
                        if low in ref.pivots.met})
        assert Counter(eng.read) == want
        assert all(type(eng.pivots[low]) is int for low in by_id)
        counts.append((len(want), len(by_id)))

    def checking(columns, f2, top):
        for d, eng in reductions(logging_columns(columns), f2, top):
            yield d, eng
            check(eng)

    monkeypatch.setattr(homology_module, "_reductions", checking)
    P = full_space_pieces(3, 2)
    for K in (P.rotation, P.base, P.interface):
        betti(K, field)
    got = mayer_vietoris_assemble(
        P.rotation, P.base, P.interface,
        vertex_inclusion_map(P.interface, P.rotation),
        vertex_inclusion_map(P.interface, P.base), field)
    assert got.betti == (1, 0, 0, 1)
    assert len(counts) == len(RecordingEngine.runs)
    met_n, kept_n = map(sum, zip(*counts))
    # most pivots kept by their id are never met, so never read
    assert 0 < met_n < kept_n / 2


def test_eliminating_a_facet_row_is_eliminating_its_column():
    # a facet row is read as it stands, +1 at its low, so its step is
    # unscaled; it must give the column and dirty flag its signed dict
    # gives.  Entries up to +-5 at the low reach a != +-1
    rnd = random.Random(20261020)
    for _ in range(2000):
        row = tuple(sorted(rnd.sample(range(12), rnd.randint(1, 8))))
        rows = rnd.sample(range(12), rnd.randint(0, 6)) + [row[-1]]
        col = {r: rnd.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
               for r in rows}
        got, want = dict(col), dict(col)
        assert _eliminate(got, row, row[-1]) \
            == _eliminate(want, _column(row, False), row[-1])
        assert got == want
        assert row[-1] not in got


@pytest.mark.parametrize("field", ["q", "f2"])
def test_only_pivot_rows_cross_to_the_next_dimension(field, monkeypatch):
    # when the engine for dimension d - 1 starts, the one for dimension d
    # holds no pivot columns, and the rows skipped by clearing are the
    # pivot rows it held when it was yielded, those of the cone's
    # intersection columns too
    monkeypatch.setattr(RecordingEngine, "runs", [])
    monkeypatch.setattr(homology_module, "_Engine", RecordingEngine)
    crossed = []
    reductions = homology_module._reductions

    def watching(columns, f2, top):
        above = []  # the engines of the dimensions above, and their rows

        def watched(d, skip):
            if not above:
                assert not skip
            else:
                eng, rows = above[-1]
                assert not eng.pivots
                assert skip == rows
                crossed.append((d, len(skip)))
            return columns(d, skip)

        for d, eng in reductions(watched, f2, top):
            above.append((eng, set(eng.pivots)))
            yield d, eng

    monkeypatch.setattr(homology_module, "_reductions", watching)
    _run_betti_and_mayer_vietoris(field)
    # betti from 3 down, the cone from 4 down.  A cone dimension d has
    # the pieces' rank with the interface's cycles mapped in (240, 274 and
    # 63) plus the interface's own rank in dimension d - 1 (31, 15, 0)
    assert crossed == [(2, 239), (1, 241), (0, 47),
                       (3, 0), (2, 271), (1, 289), (0, 63)]
    assert not any(eng.pivots for eng in RecordingEngine.runs)


@pytest.mark.parametrize("f2", [False, True])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes())
@example(None)
def test_boundary_columns_match_the_slicing_form(f2, drawn):
    # the 6-simplex's faces reach every d = 0..5; slice(4, 2) is a mesh
    # of dimension 4 and its boundary one of dimension 3.  They are the
    # one explicit example (None); a drawn complex is checked alone and
    # in a union after the 6-simplex
    six = SimplicialComplex(list(range(7)), [tuple(range(7))])
    if drawn is None:
        slice42 = assemble_slice(4, 2)
        bd = boundary_subcomplex(slice42)
        cases = ((six,), (slice42,), (bd,), (bd, six, slice42))
    else:
        cases = ((drawn,), (six, drawn))
    for parts in cases:
        for K in parts:
            _assert_table_is_the_reference(K)
        simp, idx = reference_chain_data(*parts)
        for d in range(min(max(simp), 5) + 1):
            _assert_same_boundary_columns(parts, simp, idx, d, f2)


def _assert_table_is_the_reference(K: SimplicialComplex):
    """K's faces are the sorted d-subsets of its tops, and each facet row
    entry indexes its face with one vertex dropped, the last first."""
    faces, rows = K.faces(), K.facet_rows()
    assert list(faces) == list(range(K.dim + 1))
    for d, fs in faces.items():
        assert fs == sorted({tuple(sorted(s)) for t in K.tops
                             for s in itertools.combinations(t, d + 1)})
    assert len(rows) == len(faces) and not rows[0]
    for d in range(1, len(faces)):
        assert len(rows[d]) == (d + 1) * len(faces[d])
        for p, s in enumerate(faces[d]):
            for i in range(d + 1):
                dropped = s[:d - i] + s[d - i + 1:]
                assert faces[d - 1][rows[d][p * (d + 1) + i]] == dropped


def test_the_top_faces_are_the_sorted_tops_themselves():
    # a top given as an ascending tuple is its own top face, in the table
    # and in the tops; another is sorted once, by validation
    K = SimplicialComplex(list(range(5)), [(0, 1, 2), (3, 2, 1), (3, 4)])
    assert K.faces()[2] == [(0, 1, 2), (1, 2, 3)]
    assert K.faces()[2][0] is K.tops[0]
    B = boundary_subcomplex(assemble_slice(4, 2))
    assert sorted(map(id, B.faces()[B.dim])) == sorted(map(id, B.tops))


def brute_ridge_count(tops) -> Counter:
    """Each top's codimension-1 vertex subsets, counted one by one; a
    0-dimensional top has one, the empty face."""
    return Counter(f for t in tops
                   for f in itertools.combinations(sorted(t), len(t) - 1))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes())
def test_closedness_matches_the_brute_force_ridge_count(K):
    # closedness and the boundary's tops, both read off the top facet
    # rows, on the drawn complex and on the pure complex of its d-faces
    # for d = 0..3, each top listed in descending vertex order so the
    # table must sort it
    skeleta = [sorted({s[::-1] for t in K.tops
                       for s in itertools.combinations(sorted(t), d + 1)})
               for d in range(4)]
    for L in [K] + [SimplicialComplex(K.vertices, t) for t in skeleta if t]:
        count = brute_ridge_count(L.tops)
        assert L.is_closed_pseudomanifold() == (
            L.is_pure() and all(c == 2 for c in count.values()))
        if not L.is_pure():
            with pytest.raises(MeshValidityError, match="non-pure"):
                boundary_subcomplex(L)
            continue
        B = boundary_subcomplex(L)
        assert {frozenset(map(B.vertices.__getitem__, t)) for t in B.tops} \
            == {frozenset(map(L.vertices.__getitem__, f))
                for f, c in count.items() if c == 1 and f}


def facet_row_list(parts, d: int) -> list:
    """The facet row of each d-simplex of the union of parts, as the
    engine reads its id."""
    rows, ids, _ = _boundary_columns(parts, d)
    return list(map(_Engine(False, rows, d).row, ids))


def _assert_same_boundary_columns(parts, simp, idx, d: int, f2: bool):
    skip = set(range(0, len(simp[d]), 3))
    for cut in ((), skip):
        rows, ids, rest = _boundary_columns(parts, d, cut)
        want = list(reference_boundary_columns(simp, idx, d, f2, cut))
        ids = list(ids)
        assert rest == () and len(want) == len(simp[d]) - len(cut)
        if not d:
            # a vertex's column is zero: nothing to reduce
            assert not rows and not ids and not any(c for _, c in want)
            continue
        assert len(rows) == (d + 1) * len(simp[d])
        # an id is the column's index, and the engine cuts its row out
        assert ids == [j for j, _ in want]
        eng = _Engine(f2, rows, d)
        for j, (_, col_ref) in zip(ids, want):
            col = tuple(eng.row(j))
            # the reduction reads a facet row's low as its last entry
            assert len(col) == d + 1 and list(col) == sorted(col)
            assert col[-1] == rows[j * (d + 1) + d]
            assert built(col, f2) == col_ref
            assert _column(eng.row(j), f2) == col_ref


@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes())
def test_boundary_of_boundary_is_zero(K):
    parts = (K,)
    for d in range(2, len(K.faces())):
        below = {j: _column(col, False)
                 for j, col in enumerate(facet_row_list(parts, d - 1))}
        below_f2 = {j: _column(col, True)
                    for j, col in enumerate(facet_row_list(parts, d - 1))}
        for col in facet_row_list(parts, d):
            col = _column(col, False)
            total: dict = {}
            for r, v in col.items():
                for q, w in below[r].items():
                    total[q] = total.get(q, 0) + v * w
            assert not any(total.values())
        for col in facet_row_list(parts, d):
            total = set()
            for r in _column(col, True):
                total ^= below_f2[r]
            assert not total


def test_betti_rejects_invalid_complex():
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "a"], [(0, 1)]))
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "b"], [(0, 5)]))
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "b"], [(0, 0)]))


def test_repeated_top_is_refused_naming_both_positions():
    # one edge listed twice, in both vertex orders
    K = SimplicialComplex([0, 1], [(0, 1), (1, 0)])
    msg = r"simplex 1 \(1, 0\) repeats the vertices of simplex 0 \(0, 1\)$"
    # the one validator raises the one type the pseudomanifold check raises
    for field in ("q", "f2"):
        with pytest.raises(MeshValidityError, match=msg):
            betti(K, field)
    with pytest.raises(MeshValidityError, match=msg):
        mayer_vietoris_assemble(K, circle(), SimplicialComplex([], []), {}, {})


def test_chain_data_is_built_once_per_complex(monkeypatch):
    # one face table per complex, whichever of Q, F2, Mayer-Vietoris,
    # the f-vector and the Euler characteristic asks first; a complex
    # read from a document gets its table on first use, from the keys
    # its validation returned.  The regions' tables are built once, on
    # their tick-key twins by the torus check, and carried to the
    # emitted pieces
    built = []

    def counting(keys):
        built.append(keys)
        return build(keys)

    build = mesh_module._face_table
    monkeypatch.setattr(mesh_module, "_face_table", counting)
    P = full_space_pieces(3, 2)
    doc = json.loads(json.dumps(complex_to_doc(P.interface, 3, 2)))
    torus = complex_from_doc(doc)[0]
    assert len(built) == 2 and torus._table is None
    keys = torus._keys
    pieces = (P.rotation, P.base, torus)
    for K in pieces:
        assert betti(K, "q").betti == betti(K, "f2").betti
        assert K.f_vector() and euler_characteristic(K) == 0
    ma = vertex_inclusion_map(torus, P.rotation)
    mb = vertex_inclusion_map(torus, P.base)
    for field in ("q", "f2"):
        r = mayer_vietoris_assemble(*pieces, ma, mb, field)
        assert r.betti == (1, 0, 0, 1)
    assert len(built) == 3 and built[2] is keys and torus._keys is None
    twins = mesh_module._build_regions(2)[:2]
    # each table was built from the keys of its own complex's tops
    assert [sorted(k) for k in built] == [
        sorted(tuple(sorted(t)) for t in K.tops) for K in (*twins, torus)]
    assert all(K._table is twin._table for K, twin in zip(pieces, twins))


@pytest.mark.parametrize("field", ["q", "f2"])
def test_mv_wedge_and_disjoint_union_of_circles(field):
    a = SimplicialComplex(["p", "a1", "a2"], [(0, 1), (1, 2), (0, 2)])
    b = SimplicialComplex(["p", "b1", "b2"], [(0, 1), (1, 2), (0, 2)])
    point = SimplicialComplex(["p"], [(0,)])
    wedge = mayer_vietoris_assemble(a, b, point, {0: 0}, {0: 0}, field)
    assert (wedge.betti, wedge.euler) == ((1, 2), -1)
    apart = mayer_vietoris_assemble(a, b, SimplicialComplex([], []), {}, {},
                                    field)
    assert (apart.betti, apart.euler) == ((2, 2), 0)


def test_order_complex_of_chain_is_a_simplex():
    K = order_complex_of_poset([1, 2, 3], lambda x, y: x <= y)
    assert len(K.tops) == 1
    assert K.dim == 2
    assert betti(K).betti == (1, 0, 0)


def test_order_complex_of_antichain():
    K = order_complex_of_poset(["a", "b", "c"], lambda x, y: x == y)
    assert betti(K).betti == (3,)


def test_order_complex_rejects_bad_oracles():
    with pytest.raises(ValueError):
        order_complex_of_poset([1, 2], lambda x, y: x < y)
    with pytest.raises(ValueError):
        order_complex_of_poset([1, 2], lambda x, y: True)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_face_poset_of_simplex_boundary_is_a_sphere(d):
    # proper nonempty faces of a d-simplex, ordered by inclusion
    verts = list(range(d + 1))
    elems = [frozenset(c) for size in range(1, d + 1)
             for c in itertools.combinations(verts, size)]
    K = order_complex_of_poset(elems, lambda x, y: x <= y)
    want = (1,) + (0,) * (d - 2) + (1,)
    assert betti(K).betti == want
    assert betti(K, "f2").betti == want


@pytest.mark.parametrize("n,want", [(3, (1, 1)), (4, (1, 0, 1)),
                                    (5, (1, 0, 0, 1))])
def test_sign_covector_order_complex_is_a_sphere(n, want):
    vs = enumerate_covectors("sign", n)
    K = order_complex_of_poset(vs, sign_leq_vec)
    assert betti(K, "q").betti == want
    assert betti(K, "f2").betti == want


def test_mv_two_discs_make_a_sphere():
    vmap = {0: 1, 1: 2, 2: 3}
    r = mayer_vietoris_assemble(disc(), disc(), circle(), vmap, vmap)
    assert r.betti == (1, 0, 1)
    assert r.euler == 2
    rf = mayer_vietoris_assemble(disc(), disc(), circle(), vmap, vmap, "f2")
    assert rf.betti == (1, 0, 1)


def test_mv_orients_images_of_reversed_simplices():
    # the twisted map reverses one edge of the circle; a sign slip in
    # either piece would map the circle to a chain that is no cycle
    vmap, twisted = {0: 1, 1: 2, 2: 3}, {0: 2, 1: 1, 2: 3}
    for ma, mb in ((vmap, twisted), (twisted, vmap)):
        r = mayer_vietoris_assemble(disc(), disc(), circle(), ma, mb)
        assert r.betti == (1, 0, 1)


def test_mv_identity_recovers_the_piece():
    K = assemble_slice(3, 2)
    vmap = {i: i for i in range(len(K.vertices))}
    assert mayer_vietoris_assemble(K, K, K, vmap, vmap).betti == betti(K).betti


def test_mv_disjoint_union():
    a = SimplicialComplex(["a"], [(0,)])
    b = SimplicialComplex(["b"], [(0,)])
    empty = SimplicialComplex([], [])
    assert mayer_vietoris_assemble(a, b, empty, {}, {}).betti == (2,)


def test_mv_matches_direct_homology_of_full_space():
    P = full_space_pieces(3, 2)
    ma = vertex_inclusion_map(P.interface, P.rotation)
    mb = vertex_inclusion_map(P.interface, P.base)
    for field in ("q", "f2"):
        r = mayer_vietoris_assemble(P.rotation, P.base, P.interface,
                                    ma, mb, field)
        assert r.betti == (1, 0, 0, 1)
        assert r.euler == 0
    direct = betti(assemble_full(3, 2))
    assert direct.betti == (1, 0, 0, 1)


def test_mv_interface_is_a_torus():
    P = full_space_pieces(3, 2)
    assert betti(P.interface).betti == (1, 2, 1)
    assert euler_characteristic(P.interface) == 0


def test_mv_rejects_non_simplicial_inclusion():
    # edge of the intersection maps to a non-adjacent vertex pair
    ka = SimplicialComplex(["a", "b", "c"], [(0, 1), (1, 2)])
    kint = SimplicialComplex(["a", "c"], [(0, 1)])
    kb = SimplicialComplex(["a", "c"], [(0, 1)])
    vmap_b = {0: 0, 1: 1}
    with pytest.raises(ValueError, match=r"^inclusion is not simplicial: "
                       r"image of \(0, 1\) is no simplex$"):
        mayer_vietoris_assemble(ka, kb, kint, {0: 0, 1: 2}, vmap_b)


def test_mv_rejects_bad_vertex_maps():
    K = circle()
    vmap = {i: i for i in range(3)}
    with pytest.raises(ValueError, match="must cover"):
        mayer_vietoris_assemble(K, K, K, {0: 0, 1: 1}, vmap)
    with pytest.raises(ValueError, match="not injective"):
        mayer_vietoris_assemble(K, K, K, {0: 0, 1: 0, 2: 2}, vmap)


def test_vertex_inclusion_map():
    S = assemble_slice(3, 2)
    B = boundary_subcomplex(S)
    vmap = vertex_inclusion_map(B, S)
    for i, j in vmap.items():
        assert B.vertices[i] == S.vertices[j]
    with pytest.raises(ValueError):
        vertex_inclusion_map(SimplicialComplex(["q"], [(0,)]), S)


def test_fields_agree_on_mesh_models():
    for K in (assemble_slice(3, 2), assemble_full(2, 2)):
        assert betti(K, "q").betti == betti(K, "f2").betti
        assert betti(K, "q").betti == reference_betti(K, False)
        assert betti(K, "f2").betti == reference_betti(K, True)
