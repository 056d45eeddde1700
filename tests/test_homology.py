import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetop.covectors import enumerate_covectors, sign_leq_vec, sign_support
from phasetop.mesh import (
    SimplicialComplex,
    assemble_full,
    assemble_slice,
    boundary_subcomplex,
    full_space_pieces,
)
from phasetop.homology import (
    BettiReport,
    _Engine,
    _boundary_columns,
    _chain_data,
    _reductions,
    betti,
    euler_characteristic,
    mayer_vietoris_assemble,
    order_complex_of_poset,
    vertex_inclusion_map,
)


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
    """Small complexes: up to 8 top simplices of dimension <= 3 on 7 vertices."""
    tops = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                         min_size=1, max_size=8))
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


def test_circle_and_disc():
    assert betti(circle()).betti == (1, 1)
    assert betti(circle(), "f2").betti == (1, 1)
    assert betti(disc()).betti == (1, 0, 0)
    assert euler_characteristic(circle()) == 0
    assert euler_characteristic(disc()) == 1


def test_field_tags():
    K = circle()
    assert betti(K, "rationals").field == "q"
    assert betti(K, "GF2").field == "f2"
    with pytest.raises(ValueError):
        betti(K, "f3")


def test_report_rendering():
    r = betti(circle(), "f2")
    assert r == BettiReport("f2", (1, 1), 0)
    assert str(r) == "betti (1,1) euler 0 over F2"
    assert r.to_doc() == {"field": "f2", "betti": [1, 1], "euler": 0}


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
        eng, ref = _Engine(f2, log=True), FractionReducer(f2)
        for j, col in enumerate(cols):
            eng.add(set(col) if f2 else dict(col), j)
            ref.add({r: 1 if f2 else Fraction(v) for r, v in col.items()})
        assert len(eng.pivots) == ref.rank
        assert len(eng.cycles) == len(cols) - ref.rank
        for cycle in eng.cycles:  # the logged combination sums to zero
            total: dict = {}
            for j, c in (dict.fromkeys(cycle, 1) if f2 else cycle).items():
                for r, v in cols[j].items():
                    total[r] = total.get(r, 0) + c * (1 if f2 else v)
            assert all(v % 2 == 0 if f2 else v == 0 for v in total.values())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes())
def test_boundary_of_boundary_is_zero(K):
    simp, idx = _chain_data(K)
    for d in range(2, max(simp) + 1):
        below = dict(_boundary_columns(simp, idx, d - 1, False))
        below_f2 = dict(_boundary_columns(simp, idx, d - 1, True))
        for j, col in _boundary_columns(simp, idx, d, False):
            total: dict = {}
            for r, v in col.items():
                for q, w in below[r].items():
                    total[q] = total.get(q, 0) + v * w
            assert not any(total.values())
        for j, col in _boundary_columns(simp, idx, d, True):
            total = set()
            for r in col:
                total ^= below_f2[r]
            assert not total


@settings(derandomize=True, max_examples=100, deadline=None)
@given(complexes())
def test_logged_cycles_are_cycles_one_per_betti_number(K):
    simp, idx = _chain_data(K)
    for field, f2 in (("q", False), ("f2", True)):
        bs = betti(K, field).betti
        for d, eng in _reductions(simp, idx, f2, max(simp), log=True):
            assert len(eng.cycles) == bs[d]
            cols = dict(_boundary_columns(simp, idx, d, False))
            for cycle in eng.cycles:
                total: dict = {}
                for j, c in (dict.fromkeys(cycle, 1) if f2 else cycle).items():
                    for r, v in cols[j].items():
                        total[r] = total.get(r, 0) + c * v
                assert all(v % 2 == 0 if f2 else v == 0
                           for v in total.values())


def test_betti_rejects_invalid_complex():
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "a"], [(0, 1)]))
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "b"], [(0, 5)]))
    with pytest.raises(ValueError):
        betti(SimplicialComplex(["a", "b"], [(0, 0)]))


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
    vs = [v for v in enumerate_covectors("sign", n)
          if len(sign_support(v)) >= 2]
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
    good = SimplicialComplex(["a", "c"], [(0, 1)])
    kb = SimplicialComplex(["a", "c"], [(0, 1)])
    vmap_b = {0: 0, 1: 1}
    with pytest.raises(ValueError):
        mayer_vietoris_assemble(ka, kb, kint, {0: 0, 1: 2}, vmap_b)


def test_mv_rejects_bad_vertex_maps():
    K = circle()
    vmap = {i: i for i in range(3)}
    with pytest.raises(ValueError):
        mayer_vietoris_assemble(K, K, K, {0: 0, 1: 1}, vmap)
    with pytest.raises(ValueError):
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
