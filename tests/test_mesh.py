import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter

import pytest
from fractions import Fraction

from phasetop.cells import bx_member, parse_cell_label, ul_label
from phasetop.covectors import PhaseVector
from phasetop.mesh import (
    FullSpacePieces,
    MeshValidityError,
    SimplicialComplex,
    _build_regions,
    _chart,
    _face_table,
    _factor_cells,
    _interface_faces,
    _keyed,
    _point_of,
    _slice,
    _union,
    assemble_full,
    assemble_slice,
    boundary_subcomplex,
    complex_from_doc,
    complex_isomorphic,
    complex_to_doc,
    drop_last_coordinate,
    full_space_pieces,
    mesh_chart,
    simplex_probe,
    slice_pieces,
)
from phasetop.order_complex import DiscPoint, ModelPoint, delta_member


@pytest.fixture(scope="module")
def slice32():
    return assemble_slice(3, 2)


@pytest.fixture(scope="module")
def slice42():
    return assemble_slice(4, 2)


@pytest.fixture(scope="module")
def full32():
    return assemble_full(3, 2)


def test_single_chart_counts():
    K = mesh_chart(ul_label(1, 2, 3), 2).complex
    assert K.f_vector() == (6, 9, 4)
    assert K.dim == 2
    assert K.is_pure()


def test_fan_counts():
    # disc coordinate meshed as a fan over the subdivided circle
    cell = parse_cell_label("-1,F,1")
    assert mesh_chart(cell, 4).complex.f_vector() == (9, 16, 8)
    assert mesh_chart(cell, 8).complex.f_vector() == (17, 32, 16)


def test_odd_or_tiny_m_rejected():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            mesh_chart(ul_label(1, 2, 3), bad)


def test_chart_vertices_lie_in_their_cell():
    for m in (2, 4):
        ch = mesh_chart(ul_label(2, 1, 3), m)
        for z in ch.complex.vertices:
            assert bx_member(ch.cell, z, "closed")


def test_slice_3_counts(slice32):
    assert len(slice32.tops) == 16
    assert slice32.f_vector() == (11, 26, 16)
    assert slice32.dim == 2
    assert slice32.is_pure()


def test_slice_pieces_cover_all_ordered_pairs():
    pieces = slice_pieces(3, 2)
    assert set(pieces) == set(itertools.product((1, 2), repeat=2))
    assert all(len(K.tops) > 0 for K in pieces.values())


@pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (4, 2)])
def test_the_slice_is_the_union_of_the_public_charts(n, m):
    # assemble_slice builds its charts on tick keys; mapped by vertex
    # equality, every top of every public chart is a slice top, in the
    # vertex order of the first chart that has it, and no other top is
    S = assemble_slice(n, m)
    index = {z: i for i, z in enumerate(S.vertices)}
    pieces = slice_pieces(n, m)
    first: dict = {}
    for jk in sorted(pieces):
        K = pieces[jk]
        for t in K.tops:
            top = tuple(index[K.vertices[i]] for i in t)
            first.setdefault(frozenset(top), top)
    assert [first[s] for s in sorted(first, key=sorted)] == S.tops


def test_slice_4_counts(slice42):
    assert len(slice42.tops) == 864
    assert slice42.dim == 4
    assert slice42.is_pure()


def test_slice_codim1_incidence(slice32, slice42):
    for K in (slice32, slice42):
        inc = K.codim1_incidence()
        assert max(inc.values()) == 2
        assert min(inc.values()) >= 1
        assert any(c == 1 for c in inc.values())  # the slice has boundary


def test_complex_caches_are_not_constructor_arguments():
    tri = SimplicialComplex(["a", "b", "c"], [(0, 1, 2)])
    assert tri._table is None
    assert repr(tri) == "SimplicialComplex(vertices=['a', 'b', 'c'], tops=[(0, 1, 2)])"
    with pytest.raises(TypeError):
        SimplicialComplex(["a"], [(0,)], ({0: [(0,)]}, []))
    with pytest.raises(TypeError):
        SimplicialComplex(["a"], [(0,)], _table=None)
    # filled on first use, and the one table holds faces and facet rows
    assert tri.faces() is tri._table[0]
    assert tri.facet_rows() is tri._table[1]
    assert repr(tri) == "SimplicialComplex(vertices=['a', 'b', 'c'], tops=[(0, 1, 2)])"


def test_boundary_of_triangle():
    tri = SimplicialComplex(["a", "b", "c"], [(0, 1, 2)])
    B = boundary_subcomplex(tri)
    assert B.f_vector() == (3, 3)
    assert B.is_closed_pseudomanifold()


def test_boundary_of_closed_cycle_is_empty():
    cyc = SimplicialComplex(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    B = boundary_subcomplex(cyc)
    assert B.f_vector() == ()


def test_boundary_of_a_boundary_is_empty(slice32, full32):
    cyc = SimplicialComplex(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    for K in (cyc, full32, slice32):
        BB = boundary_subcomplex(boundary_subcomplex(K))
        assert (BB.vertices, BB.tops, BB.f_vector()) == ([], [], ())
        assert not BB.is_pure() and not BB.is_closed_pseudomanifold()
    # a vertex table with no tops is empty too
    B = boundary_subcomplex(SimplicialComplex(["a", "b"], []))
    assert (B.vertices, B.tops) == ([], [])


def test_the_boundary_of_a_point_is_empty():
    # once SimplicialComplex([], [()]), whose checks raised KeyError: -2
    for K in (SimplicialComplex(["a"], [(0,)]),
              SimplicialComplex(["a", "b"], [(0,), (1,)])):
        B = boundary_subcomplex(K)
        assert (B.vertices, B.tops, B.f_vector()) == ([], [], ())
        assert not B.is_closed_pseudomanifold()


def test_an_empty_top_is_refused():
    # once read as a complex with f-vector (2, 1)
    K = SimplicialComplex(["a", "b"], [(0, 1), ()])
    for ask in (K.f_vector, K.codim1_incidence, K.is_closed_pseudomanifold,
                lambda: boundary_subcomplex(K)):
        with pytest.raises(MeshValidityError, match=r"bad simplex \(\)$"):
            ask()


def test_boundary_requires_pure():
    K = SimplicialComplex(["a", "b", "c", "d"], [(0, 1, 2), (2, 3)])
    with pytest.raises(MeshValidityError):
        boundary_subcomplex(K)


def test_slice_boundary_is_antipodal_circle(slice32):
    B = boundary_subcomplex(slice32)
    assert B.f_vector() == (4, 4)
    assert B.is_closed_pseudomanifold()
    half = Fraction(1, 2)
    for z in B.vertices:
        first, second = z.coords[0], z.coords[1]
        assert first.radius == second.radius == 1
        assert (second.angle.turns - first.angle.turns) % 1 == half


def test_boundary_matches_circle_after_dropping_pin():
    for m in (2, 4):
        B = boundary_subcomplex(assemble_slice(3, m))
        ok, vmap = complex_isomorphic(B, assemble_full(2, m),
                                      drop_last_coordinate)
        assert ok, vmap
        assert len(vmap) == len(B.vertices)


def _drawn_pure_complexes(seed: int, count: int):
    """Seeded pure complexes of dimension 0 to 3 on up to 7 vertices, not
    all of them used, each top listed in a shuffled vertex order; many
    have ridges in three or more tops."""
    rnd = random.Random(seed)
    for _ in range(count):
        nv = rnd.randint(1, 7)
        pool = list(itertools.combinations(range(nv),
                                           min(rnd.randint(1, 4), nv)))
        tops = [tuple(rnd.sample(t, len(t)))
                for t in rnd.sample(pool, rnd.randint(1, min(len(pool), 12)))]
        yield SimplicialComplex([f"v{i}" for i in range(nv)], tops)


def _assert_boundary_table_is_rebuilt_table(K):
    """The boundary's tops are K's ridges in exactly one top, on K's
    vertex objects in K's order, and the table read off K's equals the
    one _face_table builds from the boundary's vertices and tops."""
    count = Counter(f for t in K.tops
                    for f in itertools.combinations(sorted(t), len(t) - 1))
    B = boundary_subcomplex(K)
    want = {tuple(K.vertices[i] for i in f) for f, c in count.items()
            if c == 1 and f}
    assert {tuple(B.vertices[i] for i in t) for t in B.tops} == want
    used = {K.vertices[i] for f in count if count[f] == 1 for i in f}
    assert B.vertices == [v for v in K.vertices if v in used]
    faces, rows = _face_table(B.vertices, B.tops)
    assert B.faces() == faces
    assert B.facet_rows() == rows
    return B


def test_the_boundary_table_is_the_rebuilt_table(slice32, slice42):
    drawn = list(_drawn_pure_complexes(0, 300))
    # the draws reach ridges in three tops and boundaries of dimension 0
    assert any(max(Counter(K.facet_rows()[K.dim]).values(), default=0) > 2
               for K in drawn)
    assert any(boundary_subcomplex(K).dim == 0 for K in drawn)
    P = full_space_pieces(3, 2)
    for K in (*drawn, slice32, assemble_slice(3, 4), slice42, P.rotation,
              P.base):
        _assert_boundary_table_is_rebuilt_table(K)
    # closed, empty and 0-dimensional complexes give the empty complex
    for K in (SimplicialComplex(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)]),
              assemble_full(3, 2), SimplicialComplex([], []),
              SimplicialComplex(["a", "b"], []),
              SimplicialComplex(["a", "b"], [(1,), (0,)])):
        B = _assert_boundary_table_is_rebuilt_table(K)
        assert (B.vertices, B.tops, B.f_vector()) == ([], [], ())


def test_complex_isomorphic_rejects_mismatch():
    ok, why = complex_isomorphic(assemble_full(2, 2), assemble_full(2, 4))
    assert not ok
    assert why


def test_complex_isomorphic_names_the_smallest_disputed_top():
    # a square split along either diagonal: the same vertices, different
    # tops; the witness is the smallest top of the symmetric difference,
    # in the target's indices, named by the target's points
    k1 = SimplicialComplex(list("abcd"), [(0, 1, 2), (0, 2, 3)])
    k2 = SimplicialComplex(list("DCBA"), [(3, 2, 0), (2, 1, 0)])
    ok, why = complex_isomorphic(k1, k2, str.upper)
    assert not ok
    assert why == "top simplices differ near ['D', 'C', 'B']"
    ok, _ = complex_isomorphic(k1, SimplicialComplex(
        list("DCBA"), [(3, 2, 1), (3, 1, 0)]), str.upper)
    assert ok


def test_complex_isomorphic_identity(slice32):
    ok, _ = complex_isomorphic(slice32, slice32)
    assert ok


def test_full_circle_polygon():
    K = assemble_full(2, 4)
    assert K.f_vector() == (8, 8)
    assert K.is_closed_pseudomanifold()
    for z in K.vertices:
        assert z.coords[0].radius == z.coords[1].radius == 1
        gap = (z.coords[1].angle.turns - z.coords[0].angle.turns) % 1
        assert gap == Fraction(1, 2)


def test_full_3_sphere_mesh(full32):
    assert isinstance(full32, SimplicialComplex)
    assert len(full32.tops) == 240
    assert len(full32.vertices) == 48
    assert full32.dim == 3
    assert full32.is_closed_pseudomanifold()


def test_full_space_pieces_regions():
    P = full_space_pieces(3, 2)
    assert isinstance(P, FullSpacePieces)
    assert len(P.rotation.tops) == 192
    assert len(P.base.tops) == 48
    assert P.interface.dim == 2
    assert P.interface.is_closed_pseudomanifold()


def test_full_rejects_unmeshed_rank():
    with pytest.raises(ValueError):
        assemble_full(4, 2)


def _all_faces(K):
    for fs in K.faces().values():
        yield from fs


def test_probe_of_every_slice_face_stays_in_its_chart():
    for (j, k), K in slice_pieces(3, 2).items():
        cell = ul_label(j, k, 3)
        for face in _all_faces(K):
            probe = simplex_probe([K.vertices[i] for i in face])
            assert bx_member(cell, probe, "closed"), (j, k, face)


def test_probe_of_one_rank4_chart_stays_in_cell():
    ch = mesh_chart(ul_label(3, 1, 4), 2)
    for face in _all_faces(ch.complex):
        probe = simplex_probe([ch.complex.vertices[i] for i in face])
        assert bx_member(ch.cell, probe, "closed"), face


def test_probe_of_every_full_face_is_a_covector_point(full32):
    v3 = PhaseVector.of([0] * 3)
    for face in _all_faces(full32):
        probe = simplex_probe([full32.vertices[i] for i in face])
        assert delta_member(v3, probe), face
    v2 = PhaseVector.of([0] * 2)
    K2 = assemble_full(2, 4)
    for face in _all_faces(K2):
        probe = simplex_probe([K2.vertices[i] for i in face])
        assert delta_member(v2, probe), face


def test_simplex_probe_values():
    a = ModelPoint((DiscPoint.of(1, 0),))
    b = ModelPoint((DiscPoint.of(1, Fraction(1, 8)),))
    assert simplex_probe([a, b]).coords[0] == DiscPoint.of(1, Fraction(1, 16))
    c = ModelPoint((DiscPoint.center(),))
    mixed = simplex_probe([a, c]).coords[0]
    assert mixed == DiscPoint.of(Fraction(1, 2), 0)
    assert simplex_probe([c]).coords[0] == DiscPoint.center()


def test_probe_averages_across_the_wraparound():
    a = ModelPoint((DiscPoint.of(1, Fraction(15, 16)),))
    b = ModelPoint((DiscPoint.of(1, Fraction(1, 16)),))
    assert simplex_probe([a, b]).coords[0] == DiscPoint.of(1, 0)


def test_doc_round_trip(slice32):
    doc = complex_to_doc(slice32, 3, 2)
    doc = json.loads(json.dumps(doc))
    K, n, m = complex_from_doc(doc)
    assert (n, m) == (3, 2)
    assert K.vertices == slice32.vertices
    assert K.tops == slice32.tops


def test_doc_rejects_duplicates_and_bad_indices(slice32):
    doc = complex_to_doc(slice32, 3, 2)
    dup = json.loads(json.dumps(doc))
    dup["vertices"].append(dup["vertices"][0])
    want = (f"complex repeats a vertex: vertices 0 and {len(doc['vertices'])}"
            f" are both {slice32.vertices[0]}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        complex_from_doc(dup)
    # every radius-0 coordinate is the centre, whatever its angle
    centre = {"n": 1, "m": 2, "vertices": [[["1", "0"]], [["0", "0"]],
                                           [["0", "1/3"]]],
              "simplices": [[0, 1], [1, 2]]}
    with pytest.raises(ValueError, match=re.escape(
            "complex repeats a vertex: vertices 1 and 2 are both 0@0") + "$"):
        complex_from_doc(centre)
    bad = json.loads(json.dumps(doc))
    bad["simplices"][0] = [0, 10 ** 6]
    with pytest.raises(ValueError, match=re.escape("bad simplex [0, 1000000]")):
        complex_from_doc(bad)


def test_doc_round_trip_keeps_one_copy_of_the_top_faces(slice32):
    # the face table is built from the complex's own tops: an ascending top
    # is its own top face, as it is in the complex that was written
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    K, _, _ = complex_from_doc(doc)
    ascending = {id(t) for t in K.tops if list(t) == sorted(t)}
    assert 0 < len(ascending) < len(K.tops)
    assert {id(f) for f in K.faces()[K.dim]} & {id(t) for t in K.tops} == ascending
    assert K.faces() == slice32.faces()


@pytest.mark.parametrize("bad,msg", [
    (["1", "1/x"], "not a rational number: '1/x'"),
    (["2", "0"], "disc radius must lie in [0, 1]"),
    (["1", 0], "disc coordinate ['1', 0] is not a [radius, angle] pair "
               "of strings"),
    (["1", "0", "0"], "disc coordinate ['1', '0', '0'] is not a "
                      "[radius, angle] pair of strings"),
], ids=["unparsable", "radius", "not-a-string", "three-entries"])
def test_doc_bad_coordinate_after_a_repeated_good_one(slice32, bad, msg):
    # each distinct coordinate is parsed once per document; a bad one
    # after the good ones is still refused with its own message
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    good = doc["vertices"][0][0]
    assert sum(c == good for z in doc["vertices"] for c in z) > 1
    doc["vertices"][-1][-1] = bad
    with pytest.raises(ValueError, match=re.escape(msg) + "$"):
        complex_from_doc(doc)


def test_doc_refuses_a_vertex_in_no_simplex(slice32):
    # read back, the complex would leave it out of its f-vector and its
    # Betti numbers without a word
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    nv = len(doc["vertices"])
    doc["vertices"].append([["1", "1/3"], ["0", "0"], ["1/3", "0"]])
    with pytest.raises(ValueError, match=f"^vertex {nv} lies in no simplex$"):
        complex_from_doc(doc)
    # the first unused index is named, and a document with no simplices
    # uses none of its vertices
    doc = {"n": 1, "m": 2, "vertices": [[["0", "0"]], [["1", "0"]],
                                        [["1", "1/2"]]]}
    for simplices, first in (([[0, 1]], 2), ([[2], [0, 2]], 1), ([], 0)):
        with pytest.raises(ValueError,
                           match=f"^vertex {first} lies in no simplex$"):
            complex_from_doc(dict(doc, simplices=simplices))
    K, _, _ = complex_from_doc(dict(doc, simplices=[[2], [0, 1]]))
    assert K.f_vector() == (3, 1)


def test_doc_rejects_a_repeated_simplex(slice32):
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    doc["simplices"].append(doc["simplices"][5][::-1])
    last = len(doc["simplices"]) - 1
    # named as the document lists them
    want = (f"simplex {last} {doc['simplices'][last]!r} repeats the vertices"
            f" of simplex 5 {doc['simplices'][5]!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        complex_from_doc(doc)


def test_doc_requires_geometric_vertices():
    K = SimplicialComplex(["a", "b"], [(0, 1)])
    with pytest.raises(ValueError):
        complex_to_doc(K, 2, 2)


@pytest.mark.parametrize("n,m", [(4, 2), (3, 3), (3, 0), (True, 2)],
                         ids=["n-not-the-coordinates", "odd-m", "zero-m",
                              "bool-n"])
def test_doc_writer_refuses_what_the_reader_refuses(slice32, n, m):
    # the writer is refused on each shape the reader refuses
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    doc["n"], doc["m"] = n, m
    with pytest.raises(ValueError) as read:
        complex_from_doc(doc)
    with pytest.raises(ValueError) as write:
        complex_to_doc(slice32, n, m)
    assert str(write.value) == str(read.value)


# sha256 of the mesh documents (as `phasetop mesh` writes them) recorded
# before vertices were keyed by integer ticks inside the module
MESH_DOC_SHA256 = {
    (assemble_slice, 3, 4):
        "d144f9a4ffc56bef294df0d228e49557236b50fd6a29b117abf508502c382b89",
    (assemble_slice, 4, 2):
        "c9656a75fdf5240434e28332c13a9c7d97430af1d08578c2ff3d7ffc6ab9ca82",
    (assemble_full, 2, 4):
        "d51b788f66258830630ea04e16815e09f83302732b1c6a01515d584e85aff81c",
    (assemble_full, 3, 2):
        "afe0c4ae2404f93082feba93153413e6cbc88759e07a1066e6e91d4b7e9df3e8",
}


@pytest.mark.parametrize("build,n,m", sorted(
    MESH_DOC_SHA256, key=lambda k: (k[0].__name__, k[1], k[2])),
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_mesh_documents_are_pinned(build, n, m):
    doc = complex_to_doc(build(n, m), n, m)
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MESH_DOC_SHA256[
        (build, n, m)]


# sha256 of the documents of the two n = 3 regions, recorded while each
# region was still built by its own hand-written staircase loop
REGION_DOC_SHA256 = {
    (2, "rotation"):
        "224866d7bb51338abf290d273a50366132a3b13ce58e4c7298fddae1e8ba558e",
    (2, "base"):
        "587ddbbca775c2e95f868e5037676763e635937c4ccd9edcabd39030a499f470",
    (4, "rotation"):
        "cf07c5abab3fc31a5df6f0a43809bd1b1c96a71a33f5db0d5f4836916b19ec9e",
    (4, "base"):
        "78d932293eafde2f36755099ef32ee30f9c28afcc57e0143de466cc7c49220f9",
}


@pytest.mark.parametrize("m", [2, 4])
def test_region_documents_are_pinned(m):
    P = full_space_pieces(3, m)
    for region in ("rotation", "base"):
        doc = complex_to_doc(getattr(P, region), 3, m)
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REGION_DOC_SHA256[
            (m, region)], region


def _top_point_sets(K):
    return {frozenset(K.vertices[i] for i in t) for t in K.tops}


@pytest.mark.parametrize("m", [2, 4])
def test_interface_is_the_boundary_of_each_region(m):
    P = full_space_pieces(3, m)
    torus = _top_point_sets(P.interface)
    assert torus
    assert _top_point_sets(boundary_subcomplex(P.rotation)) == torus
    assert _top_point_sets(boundary_subcomplex(P.base)) == torus
    # boundary tops list their vertices in ascending order
    assert all(list(t) == sorted(t) for t in P.interface.tops)


def test_torus_mismatch_is_an_error_with_a_witness(monkeypatch):
    import phasetop.mesh as mesh_module

    S = _slice(3, 2)
    holed = SimplicialComplex(S.vertices, S.tops[1:])
    monkeypatch.setattr(mesh_module, "_slice", lambda n, m: holed)
    # the patched slice reaches only a fresh build: no m = 2 regions are
    # kept from another test (conftest clears them)
    assert mesh_module._build_regions.cache_info().currsize == 0
    with pytest.raises(MeshValidityError,
                       match=r"disagree on the interface torus: "
                             r"vertex counts differ: \d+ vs 16$"):
        full_space_pieces(3, 2)


def _count_slice_builds(monkeypatch, slice_of=None) -> list:
    """Record the m of each _slice call the region build makes."""
    import phasetop.mesh as mesh_module

    calls = []
    build = slice_of or mesh_module._slice

    def counting(n, m):
        calls.append(m)
        return build(n, m)

    monkeypatch.setattr(mesh_module, "_slice", counting)
    return calls


def test_regions_are_built_once_per_m(monkeypatch):
    calls = _count_slice_builds(monkeypatch)
    for m in (2, 4):
        K = assemble_full(3, m)
        P = full_space_pieces(3, m)
        assert P.interface.is_closed_pseudomanifold()
        assert K.is_closed_pseudomanifold()
    assert calls == [2, 4]
    full_space_pieces(3, 2)
    assert calls == [2, 4]


def test_a_region_build_that_raises_is_not_kept(monkeypatch):
    S = _slice(3, 2)
    holed = SimplicialComplex(S.vertices, S.tops[1:])
    calls = _count_slice_builds(monkeypatch, lambda n, m: holed)
    for build in (full_space_pieces, full_space_pieces, assemble_full):
        with pytest.raises(MeshValidityError, match="interface torus"):
            build(3, 2)
    assert calls == [2, 2, 2]


def test_mutating_a_returned_complex_leaves_the_next_call_alone():
    P = full_space_pieces(3, 2)
    fvecs = [K.f_vector() for K in (P.rotation, P.base, P.interface)]
    K = assemble_full(3, 2)
    for L in (P.rotation, P.base, P.interface, K):
        L.tops.pop()
        L.vertices.pop()
    P2 = full_space_pieces(3, 2)
    assert [K.f_vector() for K in (P2.rotation, P2.base, P2.interface)] \
        == fvecs
    for region in ("rotation", "base"):
        doc = complex_to_doc(getattr(P2, region), 3, 2)
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REGION_DOC_SHA256[
            (2, region)], region
    text = json.dumps(complex_to_doc(assemble_full(3, 2), 3, 2), indent=2,
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MESH_DOC_SHA256[
        (assemble_full, 3, 2)]


def test_ticks_round_trip(full32):
    # tick order is the vertex order of every emitted complex: the keys
    # are sorted, and their points are the emitted vertices
    for n, m in ((3, 2), (3, 4), (4, 2)):
        keys = _slice(n, m).vertices
        assert keys == sorted(keys)
        assert list(map(_point_of(m), keys)) == assemble_slice(n, m).vertices
    for m, K in ((2, full32), (4, assemble_full(3, 4))):
        regions = _build_regions(m)
        P = full_space_pieces(3, m)
        for R, E in zip(regions, (P.rotation, P.base, P.interface)):
            assert R.vertices == sorted(R.vertices)
            assert list(map(_point_of(m), R.vertices)) == E.vertices
        keys = sorted(set(regions[0].vertices) | set(regions[1].vertices))
        assert list(map(_point_of(m), keys)) == K.vertices
    centre = ModelPoint((DiscPoint.center(), DiscPoint.of(1, Fraction(3, 4))))
    assert _point_of(2)((-1, 3)) == centre
    assert _point_of(4)((-1, 6)) == centre


def _key_charts(n: int, m: int) -> dict:
    """The slice's charts as complexes on tick keys, keyed by their
    (j, k) pair."""
    return {(j, k): _keyed(_chart(ul_label(j, k, n), m)[0])
            for j in range(1, n) for k in range(1, n)}


def _key_tops(K: SimplicialComplex) -> list:
    """The tops of a complex on tick keys as key tuples."""
    return [tuple(K.vertices[i] for i in t) for t in K.tops]


def _patch_charts(monkeypatch, charts: dict, n: int):
    """Make the slice build read the key tops of the given key charts,
    each with the inside set of its cell's own chart build."""
    import phasetop.mesh as mesh_module

    by_label = {ul_label(j, k, n): _key_tops(K) for (j, k), K in charts.items()}
    build = mesh_module._chart
    monkeypatch.setattr(mesh_module, "_chart",
                        lambda x, m: (by_label[x], build(x, m)[1]))


def test_interface_mismatch_is_an_error_naming_points(monkeypatch):
    charts = _key_charts(3, 2)
    K, other = charts[(1, 2)], set(charts[(2, 1)].vertices)
    # drop every top of one chart at a vertex it shares with another
    v = next(i for i, key in enumerate(K.vertices) if key in other)
    charts[(1, 2)] = SimplicialComplex(
        K.vertices, [t for t in K.tops if v not in t])
    _patch_charts(monkeypatch, charts, 3)
    with pytest.raises(MeshValidityError,
                       match=r"charts \(\d, \d\) and \(\d, \d\) disagree "
                             r"on their overlap near \['1@"):
        assemble_slice(3, 2)


class ReferenceBuilder:
    """The accumulating key-complex builder that _keyed replaced, kept as
    its reference: keys are numbered as first seen and renumbered in
    sorted order, each top keeps the vertex order of its first copy, a
    repeated vertex set is merged into that copy, and the tops are
    sorted by vertex set."""

    def __init__(self):
        self._index: dict = {}
        self._tops: dict = {}

    def add(self, keys):
        index = self._index
        idxs = tuple(index.setdefault(k, len(index)) for k in keys)
        if len(set(idxs)) != len(idxs):
            raise MeshValidityError(f"degenerate simplex {keys}")
        self._tops.setdefault(tuple(sorted(idxs)), idxs)

    def complex(self) -> SimplicialComplex:
        keys = list(self._index)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        remap = [0] * len(keys)
        for new, old in enumerate(order):
            remap[old] = new
        tops = [tuple(remap[i] for i in t) for t in self._tops.values()]
        tops.sort(key=lambda t: tuple(sorted(t)))
        return SimplicialComplex([keys[i] for i in order], tops)


def _random_key_simplices(rnd: random.Random) -> list:
    """Simplices over random tick keys, in random vertex and list order,
    no two on one key set."""
    pool = sorted({tuple(rnd.randrange(-1, 8) for _ in range(rnd.randint(1, 3)))
                   for _ in range(rnd.randint(1, 12))})
    seen, out = set(), []
    for _ in range(rnd.randint(0, 20)):
        s = rnd.sample(pool, rnd.randint(1, min(4, len(pool))))
        if frozenset(s) not in seen:
            seen.add(frozenset(s))
            out.append(tuple(s))
    return out


def test_keyed_matches_the_reference_builder():
    rnd = random.Random(20261019)
    for _ in range(300):
        simplices = _random_key_simplices(rnd)
        b = ReferenceBuilder()
        for s in simplices:
            b.add(s)
        want, got = b.complex(), _keyed(simplices)
        assert got.vertices == want.vertices
        assert got.tops == want.tops
    for jk, K in _key_charts(4, 2).items():
        b = ReferenceBuilder()
        for s in _chart(ul_label(*jk, 4), 2)[0]:
            b.add(s)
        want = b.complex()
        assert (K.vertices, K.tops) == (want.vertices, want.tops)


def test_keyed_refuses_a_repeated_key_naming_the_simplex():
    simplices = [((0, 1), (1, 1)), ((1, 1), (2, 0), (1, 1))]
    with pytest.raises(MeshValidityError, match=re.escape(
            "simplex 1 ((1, 1), (2, 0), (1, 1)) repeats a key") + "$"):
        _keyed(simplices)


def test_keyed_refuses_a_repeated_key_set_naming_both_simplices():
    # the reference builder kept the first copy and dropped this one
    simplices = [((0,), (1,), (2,)), ((3,), (1,)), ((2,), (0,), (1,))]
    with pytest.raises(MeshValidityError, match=re.escape(
            "simplex 2 ((2,), (0,), (1,)) repeats the vertices of simplex 0 "
            "((0,), (1,), (2,))") + "$"):
        _keyed(simplices)


def test_full_space_regions_that_share_a_top_are_refused(monkeypatch):
    import phasetop.mesh as mesh_module

    region_a, region_b, torus = _build_regions(2)
    shared = _key_tops(region_a)[0]
    grown = _keyed(_key_tops(region_b) + [shared])
    monkeypatch.setattr(mesh_module, "_build_regions",
                        lambda m: (region_a, grown, torus))
    with pytest.raises(MeshValidityError, match=re.escape(
            f"{shared!r} repeats the vertices of simplex 0 {shared!r}") + "$"):
        assemble_full(3, 2)


def _assert_union_is_keyed(A: SimplicialComplex, B: SimplicialComplex):
    """_union of two key complexes is _keyed of their concatenated key
    tops, and carries the face table rebuilt from its own tops."""
    want, got = _keyed(_key_tops(A) + _key_tops(B)), _union(A, B)
    assert (got.vertices, got.tops) == (want.vertices, want.tops)
    assert got._table == _face_table(want.vertices, want.tops)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_the_full_space_is_glued_from_its_regions_tables(m):
    region_a, region_b, _ = _build_regions(m)
    _assert_union_is_keyed(region_a, region_b)
    K = assemble_full(3, m)
    assert K._table == _face_table(K.vertices, K.tops)


def _drawn_pair(rnd: random.Random, shared_top: bool):
    """Two key complexes on overlapping keys that share a subcomplex: B
    takes some faces of A's tops, and new simplices; with shared_top, B
    also takes one of A's tops, in a drawn vertex order."""
    ta = _random_key_simplices(rnd)
    while not ta:
        ta = _random_key_simplices(rnd)
    faces = {frozenset(f) for t in ta for d in range(1, len(t))
             for f in itertools.combinations(t, d)}
    seen = {frozenset(t) for t in ta}
    tb = []
    for s in rnd.sample(sorted(faces, key=sorted), min(len(faces), 3)) \
            + _random_key_simplices(rnd):
        if frozenset(s) not in seen:
            seen.add(frozenset(s))
            tb.append(tuple(rnd.sample(sorted(s), len(s))))
    if shared_top:
        t = rnd.choice(ta)
        tb.insert(rnd.randint(0, len(tb)), tuple(rnd.sample(t, len(t))))
    return _keyed(ta), _keyed(tb)


def test_drawn_pairs_glue_as_the_keyed_union():
    rnd = random.Random(20261020)
    for _ in range(300):
        _assert_union_is_keyed(*_drawn_pair(rnd, False))


def test_drawn_pairs_that_share_a_top_raise_the_keyed_message():
    rnd = random.Random(20261021)
    for _ in range(100):
        A, B = _drawn_pair(rnd, True)
        with pytest.raises(MeshValidityError) as want:
            _keyed(_key_tops(A) + _key_tops(B))
        with pytest.raises(MeshValidityError, match=re.escape(
                str(want.value)) + "$"):
            _union(A, B)


def reference_keyed_offender(simplices: list):
    """The message _keyed gave when it checked the key tuples first: the
    first simplex that repeats a key, else the first that repeats an
    earlier one's key set; None when there is neither."""
    for k, s in enumerate(simplices):
        if len(set(s)) != len(s):
            return f"simplex {k} {s!r} repeats a key"
    first: dict = {}
    for k, s in enumerate(simplices):
        j = first.setdefault(frozenset(s), k)
        if j != k:
            return (f"simplex {k} {s!r} repeats the vertices of simplex {j} "
                    f"{simplices[j]!r}")
    return None


def test_keyed_names_the_offender_the_key_loop_named():
    rnd = random.Random(20261022)
    kinds = Counter()
    for _ in range(400):
        simplices = _random_key_simplices(rnd)
        for _ in range(rnd.randint(0, 2)):
            if not simplices:
                break
            s = list(rnd.choice(simplices))
            if rnd.random() < 0.5:  # a repeated key
                s.insert(rnd.randint(0, len(s)), rnd.choice(s))
            else:  # a repeated key set, in a drawn order
                rnd.shuffle(s)
            simplices.insert(rnd.randint(0, len(simplices)), tuple(s))
        want = reference_keyed_offender(simplices)
        kinds[want and ("key" if want.endswith("a key") else "set")] += 1
        if want is None:
            _keyed(simplices)
            continue
        with pytest.raises(MeshValidityError, match=re.escape(want) + "$"):
            _keyed(simplices)
    assert set(kinds) == {None, "key", "set"}


def test_a_top_two_charts_share_is_an_error_naming_both(monkeypatch):
    import phasetop.mesh as mesh_module

    # chart (1, 1) gains one top of chart (1, 2), and its cell the top's
    # points, so every interface check still passes: the two cells
    # overlap in full dimension and do not subdivide the slice
    charts = _key_charts(3, 2)
    shared = ((1, 2, 0), (2, 2, 0), (2, 3, 0))
    K = charts[(1, 2)]
    assert shared in {tuple(sorted(K.vertices[i] for i in t)) for t in K.tops}
    grown = _key_tops(charts[(1, 1)]) + [shared]
    x11, build = ul_label(1, 1, 3), mesh_module._chart
    monkeypatch.setattr(mesh_module, "_chart", lambda x, m: (
        (grown, build(x, m)[1] | set(shared)) if x == x11 else build(x, m)))
    names = [str(_point_of(2)(key)) for key in shared]
    with pytest.raises(MeshValidityError, match=re.escape(
            f"charts (1, 1) and (1, 2) share the top {names}") + "$"):
        assemble_slice(3, 2)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4)])
def test_chart_box_inside_sets_match_the_brute_force_sets(n, m, monkeypatch):
    # _slice reads each cell's inside ids off its chart's box results,
    # and tests each box point once
    import phasetop.mesh as mesh_module

    charts = {(j, k): _chart(ul_label(j, k, n), m)
              for j in range(1, n) for k in range(1, n)}
    order, _, inside = _slice_ids(
        {jk: _keyed(tops) for jk, (tops, _) in charts.items()}, n, m)
    for jk, (tops, box) in charts.items():
        assert {i for i, key in enumerate(order) if key in box} == inside[jk]
        assert box.issuperset(itertools.chain.from_iterable(tops))
    calls = []

    def counting(x, z, mode):
        calls.append(x)
        return bx_member(x, z, mode)

    monkeypatch.setattr(mesh_module, "bx_member", counting)
    _slice(n, m)
    assert len(calls) == sum(
        math.prod(len({c for cell in _factor_cells(lab, m) for c in cell})
                  for lab in ul_label(*jk, n)) for jk in charts)


def reference_interface_faces(K: SimplicialComplex, keys: list,
                              inside: set) -> set:
    """The interface faces as the parent found them: every face of K is
    scanned, and kept as a frozenset of tick keys when all its vertices
    are inside."""
    ins = {i for i, key in enumerate(keys) if key in inside}
    return {frozenset([keys[i] for i in f])
            for fs in K.faces().values() for f in fs if ins.issuperset(f)}


def _slice_ids(charts, n: int, m: int):
    """The tick keys of the slice in id order, each key chart's vertex
    ids, and the ids inside each closed cell, found by testing every
    slice vertex against every cell."""
    order = sorted(set().union(*(K.vertices for K in charts.values())))
    vid = {key: i for i, key in enumerate(order)}
    ids = {jk: [vid[key] for key in K.vertices] for jk, K in charts.items()}
    point = _point_of(m)
    inside = {jk: {i for i, key in enumerate(order)
                   if bx_member(ul_label(*jk, n), point(key), "closed")}
              for jk in charts}
    return order, ids, inside


def _assert_same_interface(K, order, keys, ids, inside):
    got = _interface_faces([tuple(sorted(ids[i] for i in t)) for t in K.tops],
                           inside)
    assert all(list(f) == sorted(f) for f in got)
    assert {frozenset(order[i] for i in f) for f in got} == (
        reference_interface_faces(K, keys, {order[i] for i in inside}))
    return got


@pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4)])
def test_interface_faces_match_the_all_faces_form(n, m):
    charts = _key_charts(n, m)
    order, ids, inside = _slice_ids(charts, n, m)
    shared = 0
    for a, b in itertools.permutations(sorted(charts), 2):
        got = _assert_same_interface(charts[a], order, charts[a].vertices,
                                     ids[a], inside[b])
        shared += bool(got)
    assert shared  # some charts do meet


@pytest.mark.parametrize("n,m", [(3, 4), (4, 2)])
def test_interface_faces_match_on_random_inside_sets(n, m):
    charts = _key_charts(n, m)
    order, ids, _ = _slice_ids(charts, n, m)
    rnd = random.Random(20261018)
    for jk, K in sorted(charts.items()):
        for p in (0.2, 0.5, 0.8, 1.0):
            inside = {i for i in range(len(order)) if rnd.random() < p}
            _assert_same_interface(K, order, K.vertices, ids[jk], inside)


def test_interface_witness_is_the_smallest_disputed_face(monkeypatch):
    charts = _key_charts(3, 4)
    order, ids, inside = _slice_ids(charts, 3, 4)
    # drop the tops of one chart at every vertex it shares with another,
    # so its interface loses many faces at once
    K, other = charts[(1, 2)], set(ids[(2, 1)])
    gone = {i for i, v in enumerate(ids[(1, 2)]) if v in other}
    charts[(1, 2)] = SimplicialComplex(
        K.vertices, [t for t in K.tops if not gone.intersection(t)])
    first = None
    for a, b in itertools.combinations(sorted(charts), 2):
        sa = reference_interface_faces(charts[a], charts[a].vertices,
                                       {order[i] for i in inside[b]})
        sb = reference_interface_faces(charts[b], charts[b].vertices,
                                       {order[i] for i in inside[a]})
        if sa != sb:
            first = a, b, sa ^ sb
            break
    a, b, disputed = first
    assert len(disputed) > 1
    witness = min(tuple(sorted(f)) for f in disputed)
    names = [str(_point_of(4)(key)) for key in witness]
    _patch_charts(monkeypatch, charts, 3)
    with pytest.raises(MeshValidityError, match=re.escape(
            f"charts {a} and {b} disagree on their overlap near {names}")
            + "$"):
        assemble_slice(3, 4)


def test_repeated_top_is_malformed_not_a_closed_pseudomanifold():
    K = SimplicialComplex([0, 1], [(0, 1), (1, 0)])
    msg = r"simplex 1 \(1, 0\) repeats the vertices of simplex 0 \(0, 1\)$"
    for ask in (K.codim1_incidence, K.is_closed_pseudomanifold,
                lambda: boundary_subcomplex(K)):
        with pytest.raises(MeshValidityError, match=msg):
            ask()
    # a sphere with one top listed twice
    tetra = SimplicialComplex(list(range(4)), list(
        itertools.combinations(range(4), 3)) + [(3, 1, 2)])
    with pytest.raises(MeshValidityError, match="simplex 4 .* simplex 3 "):
        tetra.is_closed_pseudomanifold()


@pytest.mark.parametrize("vertices,tops,msg", [
    # an index past the vertex table: once False, then an IndexError
    (["a", "b", "c"], [(0, 1, 5)], r"bad simplex \(0, 1, 5\)$"),
    # the first index past the table
    (["a", "b", "c"], [(0, 1, 3)], r"bad simplex \(0, 1, 3\)$"),
    # a negative index: once read as the last vertex
    (["a", "b", "c"], [(0, 1, -1)], r"bad simplex \(0, 1, -1\)$"),
    # a 3-cycle over a repeated vertex: once a closed pseudomanifold
    (["a", "a", "c"], [(0, 1), (1, 2), (0, 2)],
     "complex repeats a vertex: vertices 0 and 1 are both a$"),
], ids=["index-out-of-range", "index-one-past-the-table", "negative-index",
        "repeated-vertex"])
def test_incidence_checks_validate_the_complex(vertices, tops, msg):
    for ask in (SimplicialComplex.codim1_incidence,
                SimplicialComplex.is_closed_pseudomanifold,
                boundary_subcomplex):
        with pytest.raises(MeshValidityError, match=msg):
            ask(SimplicialComplex(vertices, tops))


def test_incidence_checks_validate_before_asking_for_purity():
    # a malformed complex is refused, not reported as not pure
    K = SimplicialComplex(["a", "b", "c"], [(0, 1, 5), (0, 1)])
    for ask in (K.codim1_incidence, K.is_closed_pseudomanifold):
        with pytest.raises(MeshValidityError, match=r"bad simplex \(0, 1, 5\)$"):
            ask()


def reference_bad_top(vertices, tops):
    """The message of the per-top loop that once validated every complex:
    it names the first empty top, top with a repeated id or top with an
    id out of range, in list order; None when every top is good."""
    nv = len(vertices)
    for t in tops:
        if not t or len(set(t)) != len(t) or any(i < 0 or i >= nv for i in t):
            return f"bad simplex {t!r}"
    return None


def reference_bad_simplex(simplices):
    """The message of the per-simplex loop that once checked every mesh
    document: it names the first simplex that is not a nonempty list of
    integers other than bools; None when every simplex is good."""
    for s in simplices:
        if not isinstance(s, list) or not s or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in s):
            return f"bad simplex {s!r}"
    return None


_BAD_TOPS = {"empty": (), "repeated-id": (1, 2, 1), "negative-id": (0, -1),
             "id-equal-to-the-vertex-count": (2, 4)}


@pytest.mark.parametrize("first", sorted(_BAD_TOPS))
@pytest.mark.parametrize("second", sorted(_BAD_TOPS))
def test_the_face_table_names_the_first_bad_top_as_the_loop_did(first, second):
    # each bad top, alone and before every other kind, anywhere in the list
    vertices = ["a", "b", "c", "d"]
    good = [(0, 1, 2), (3, 2), (1, 3)]
    bad = [_BAD_TOPS[first], _BAD_TOPS[second]]
    for k in range(len(good) + 1):
        for tops in (good[:k] + bad[:1] + good[k:],
                     good[:k] + bad + good[k:], bad[:1] + good[:k] + bad[1:]):
            want = reference_bad_top(vertices, tops)
            assert want == f"bad simplex {bad[0]!r}"
            with pytest.raises(MeshValidityError) as got:
                _face_table(vertices, tops)
            assert str(got.value) == want
    assert reference_bad_top(vertices, good) is None
    _face_table(vertices, good)


class Ordinal(int):
    """An int subclass, as a document built in Python may hold."""


_BAD_SIMPLICES = {"bool": [0, True], "float": [0, 1.0], "str": [0, "1"],
                  "nested-list": [0, [1]], "empty": [], "not-a-list": 3,
                  "a-tuple": (0, 1)}


@pytest.mark.parametrize("first", sorted(_BAD_SIMPLICES))
@pytest.mark.parametrize("second", ["bool", "nested-list", "not-a-list"])
def test_the_document_reader_names_the_first_bad_simplex_as_the_loop_did(
        slice32, first, second):
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    for k in (0, 7, len(doc["simplices"])):
        for bad in ([_BAD_SIMPLICES[first]],
                    [_BAD_SIMPLICES[first], _BAD_SIMPLICES[second]]):
            listed = dict(doc, simplices=doc["simplices"][:k] + bad
                          + doc["simplices"][k:])
            want = reference_bad_simplex(listed["simplices"])
            assert want == f"bad simplex {bad[0]!r}"
            with pytest.raises(ValueError) as got:
                complex_from_doc(listed)
            assert str(got.value) == want


def test_the_document_reader_takes_int_subclasses(slice32):
    doc = json.loads(json.dumps(complex_to_doc(slice32, 3, 2)))
    doc["simplices"] = [list(map(Ordinal, s)) for s in doc["simplices"]]
    assert reference_bad_simplex(doc["simplices"]) is None
    K, _, _ = complex_from_doc(doc)
    assert K.tops == slice32.tops and K.faces() == slice32.faces()
