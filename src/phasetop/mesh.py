"""Exact simplicial meshes of the model cells and their assemblies.

Half circles are subdivided into m edges and discs into a fan over a
2m-gon, so all grids share the step 1/(2m) in angle.  Products are
triangulated by the staircase (Kuhn) construction, which respects every
parameter-comparison hyperplane; that makes cell constraints and chart
interfaces simplex-aligned, so assemblies glue by nothing more than
exact vertex equality.  All coordinates are rational and no tolerance
appears anywhere.  Assembly runs on integer tick keys of the grid; the
complexes returned carry exact model points.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Optional, Sequence

from .cells import CellLabel, PLabel, bx_member, ul_label
from .order_complex import DiscPoint, ModelPoint
from .phase import Angle, _format_ratio, min_enclosing_arc, parse_fraction

__all__ = [
    "MeshValidityError",
    "SimplicialComplex",
    "MeshChart",
    "mesh_chart",
    "FullSpacePieces",
    "slice_pieces",
    "assemble_slice",
    "boundary_subcomplex",
    "assemble_full",
    "full_space_pieces",
    "complex_isomorphic",
    "drop_last_coordinate",
    "simplex_probe",
    "complex_to_doc",
    "complex_from_doc",
]

class MeshValidityError(ValueError):
    """Raised on a malformed complex, or when assembled charts disagree
    on a shared interface."""


def _top_keys(tops: Sequence, listed: Callable) -> dict:
    """The sorted vertex tuple of each top, mapped to its position; a
    top that is already a sorted tuple is its own key.

    Raises MeshValidityError if a top spans the vertex set of an earlier
    one; the message names both positions and both simplices as the
    caller lists them: listed(k) is tops[k] in the caller's terms (the
    top itself, a key simplex, or a document's simplex).  It is called
    only to word a refusal, so a caller need not build its listing.
    """
    first: dict = {}
    for k, t in enumerate(tops):
        key = tuple(sorted(t))
        j = first.setdefault(t if key == t else key, k)
        if j != k:
            raise MeshValidityError(f"simplex {k} {listed(k)!r} repeats the "
                                    f"vertices of simplex {j} {listed(j)!r}")
    return first


def _validate(vertices: Sequence, tops: Sequence,
              listed: Optional[Callable] = None) -> dict:
    """Validate a complex; return the keys of its tops (see _top_keys).

    Raises MeshValidityError on a repeated vertex, naming both indices
    and the point, an empty top, a top with an index out of range or
    repeated, or a top that repeats an earlier one's vertex set.  A bad
    top is named as `listed` gives it (see _top_keys), by default as
    the top itself.
    """
    listed = listed or tops.__getitem__
    nv = len(vertices)
    if len(set(vertices)) != nv:
        first: dict = {}
        for i, v in enumerate(vertices):
            j = first.setdefault(v, i)
            if j != i:
                raise MeshValidityError(f"complex repeats a vertex: "
                                        f"vertices {j} and {i} are both {v}")
    ids = itertools.chain.from_iterable
    if not (all(tops) and min(ids(tops), default=0) >= 0
            and max(ids(tops), default=-1) < nv
            and list(map(len, tops)) == list(map(len, map(set, tops)))):
        # the passes above only tell that some top is bad; name the first
        for k, t in enumerate(tops):
            if not t or len(set(t)) != len(t) or any(
                    i < 0 or i >= nv for i in t):
                raise MeshValidityError(f"bad simplex {listed(k)!r}")
    return _top_keys(tops, listed)


def _face_table(keys) -> tuple:
    """The faces and facet rows of the complex whose tops have keys.

    Returns (faces, rows): faces[d] lists the d-simplices in sorted
    order, the basis of the d-chains; rows[d] holds the d + 1 facet
    indices of each d-simplex in that order, flat in one array, in
    `combinations` order (the last vertex is dropped first).  rows[0] is
    empty.  The faces of the top dimension are the keys themselves, not
    a second copy cut from them.
    """
    top = max(map(len, keys), default=0) - 1
    faces = {}
    for d in range(top):
        subsets = map(itertools.combinations, keys, itertools.repeat(d + 1))
        faces[d] = sorted(set(itertools.chain.from_iterable(subsets)))
    if top >= 0:
        faces[top] = sorted(k for k in keys if len(k) == top + 1)
    return faces, _facet_rows(faces)


def _facet_rows(faces: dict) -> list:
    """The facet rows of sorted face lists (see _face_table).  The index
    of the faces of each dimension lives only while the rows of the
    dimension above are made, so no two indices are held at once."""
    rows = [array("i")]
    for d in range(1, len(faces)):
        facets = itertools.chain.from_iterable(
            map(itertools.combinations, faces[d], itertools.repeat(d)))
        rows.append(array("i", map(dict(zip(
            faces[d - 1], itertools.count())).__getitem__, facets)))
    return rows


@dataclass(eq=False)
class SimplicialComplex:
    """Top simplices over an exact vertex table.

    Vertices are arbitrary hashable objects (usually ModelPoints); no
    two are equal.  Top simplices are index tuples whose order records
    the construction; lower faces are implied.  On first use the complex
    validates itself and builds one face table: the faces of each
    dimension as a sorted list, which is the chain basis `homology`
    reduces over, and their facet rows.  A complex validated already
    (see complex_from_doc, _keyed), or whose tops are their own keys
    (see boundary_subcomplex), holds the keys of its tops until then,
    and its table is built from those.  Homology, the f-vector, the
    pseudomanifold check and the boundary all read that one table (the
    last two count ridges in the top facet rows).  It is kept on the
    complex, beside the boundary ranks that `homology.betti` finds over
    each field, so the vertex and top lists must not be mutated after.
    """

    vertices: list
    tops: list
    _table: Optional[tuple] = field(default=None, init=False, repr=False)
    _keys: Optional[Collection] = field(default=None, init=False, repr=False)
    _ranks: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:  # off the face table
        return len(self.faces()) - 1

    def faces(self) -> dict:
        """All faces keyed by dimension, as sorted lists of sorted index
        tuples; MeshValidityError on a malformed complex."""
        if self._table is None:
            keys = self._keys
            if keys is None:
                keys = _validate(self.vertices, self.tops)
            self._table, self._keys = _face_table(keys), None
        return self._table[0]

    def facet_rows(self) -> list:
        """The facet indices of each face, per dimension (see _face_table)."""
        self.faces()
        return self._table[1]

    def f_vector(self) -> tuple:
        return tuple(map(len, self.faces().values()))

    def is_pure(self) -> bool:  # the table lists a top face per top iff pure
        return len(self.faces().get(self.dim, ())) == len(self.tops) > 0

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, and each codimension-1 face lies in exactly two tops.

        The counts are those of the facet rows of the top dimension, as
        boundary_subcomplex reads them; a 0-dimensional complex has one
        codimension-1 face, the empty one, so it is closed when it has two
        points.  Malformed input is not a no: the MeshValidityError of the
        face table propagates, whether the complex is pure or not.
        """
        rows = self.facet_rows()
        if not self.is_pure():
            return False
        if self.dim == 0:
            return len(self.tops) == 2
        return all(c == 2 for c in Counter(rows[self.dim]).values())


# ---------------------------------------------------------------------------
# Tick keys
# ---------------------------------------------------------------------------
#
# Every mesh vertex at resolution m lies on the angle grid of step 1/(2m):
# each disc coordinate is the centre, or the point of the unit circle at
# angle k/(2m).  Inside this module such a coordinate is the int k, or -1
# for the centre, and a vertex is the tuple of its coordinates' ticks (its
# key).  Keys sort like the (radius, angle) pairs of their coordinates,
# which is the vertex order of every complex built here.  Assembly hashes
# keys; model points are made once per vertex, when a complex is emitted.


def _point_of(m: int) -> Callable:
    """The map from tick keys at resolution m to their model points."""
    discs = [DiscPoint(Fraction(1), Angle.of_ratio(k, 2 * m))
             for k in range(2 * m)] + [DiscPoint.center()]
    return lambda key: ModelPoint(tuple(discs[c] for c in key))


def _emit(K: SimplicialComplex, m: int) -> SimplicialComplex:
    """The complex over model points of a complex over tick keys.

    The tops list is copied.  K's face table or top keys, if it holds
    them, are shared: they hold only vertex indices, and distinct tick
    keys map to distinct points, so they are the emitted complex's too.
    """
    E = SimplicialComplex(list(map(_point_of(m), K.vertices)), list(K.tops))
    E._table, E._keys = K._table, K._keys
    return E


def _keyed(simplices: Sequence) -> SimplicialComplex:
    """The complex of a list of simplices over tick keys.

    The keys are numbered first, once, in sorted order, so the checks and
    the sort run on int tuples; each top keeps its given vertex order,
    and the tops are sorted by vertex set.  Raises MeshValidityError on
    an empty simplex, a simplex that repeats a key or the key set of an
    earlier one, in one pass, naming the simplices by their keys (see
    _top_keys); _validate refuses nothing more, so the complex keeps the
    keys and is not validated again.
    """
    order = sorted(set(itertools.chain.from_iterable(simplices)))
    vid = dict(zip(order, itertools.count()))
    tops = [tuple(map(vid.__getitem__, s)) for s in simplices]
    if not all(tops) or list(map(len, tops)) != list(map(len, map(set, tops))):
        for k, s in enumerate(simplices):
            if not s:
                raise MeshValidityError(f"bad simplex {s!r}")
            if len(set(s)) != len(s):
                raise MeshValidityError(f"simplex {k} {s!r} repeats a key")
    keys = _top_keys(tops, simplices.__getitem__)
    K = SimplicialComplex(order, [tops[k] for _, k in sorted(keys.items())])
    K._keys = keys
    return K


def _union(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """_keyed of the key tops of A and B, two complexes that _keyed made,
    glued from their face tables and carrying the union's table.

    The union numbers its keys once, and each complex's numbering maps
    into it in order, so faces stay sorted and ascending: the union's
    faces of each dimension are the two sorted lists merged, the shared
    faces kept once, its tops the two top lists merged by vertex set, and
    its facet rows are derived from those faces.  _top_keys of the
    merged tops refuses a top that A and B share with _keyed's message,
    naming both by their keys.
    """
    order = sorted(set(A.vertices).union(B.vertices))
    vid = dict(zip(order, itertools.count()))
    tops, faces = [], {}
    for K in (A, B):
        to = itertools.repeat([vid[key] for key in K.vertices].__getitem__)
        tops += map(tuple, map(map, to, K.tops))
        for d, fs in K.faces().items():
            # each list is sorted, so the merge sort finds two runs
            faces.setdefault(d, []).extend(map(tuple, map(map, to, fs)))
    keys = _top_keys(tops, lambda k: tuple(map(order.__getitem__, tops[k])))
    faces = {d: sorted(dict.fromkeys(fs)) for d, fs in faces.items()}
    U = SimplicialComplex(order, [tops[k] for _, k in sorted(keys.items())])
    U._table = (faces, _facet_rows(faces))
    return U


# ---------------------------------------------------------------------------
# Staircase products of factor complexes
# ---------------------------------------------------------------------------


def _chains(dims: tuple) -> list:
    """Maximal monotone lattice paths from the origin to `dims`."""
    nf = len(dims)
    out: list = []

    def rec(pos, acc):
        acc = acc + (pos,)
        if pos == dims:
            out.append(acc)
            return
        for f in range(nf):
            if pos[f] < dims[f]:
                rec(pos[:f] + (pos[f] + 1,) + pos[f + 1:], acc)

    rec((0,) * nf, ())
    return out


def _product_tops(factors: Sequence[Sequence[tuple]], point: Callable = tuple):
    """Staircase top simplices of a product of cell lists.

    Each factor is a list of cells; a cell is a tuple of entries in its
    local order.  A product vertex is point(entries), taking an iterable
    of one entry per factor; the default makes it the tuple of ticks.
    Yields tuples of product vertices in chain order.
    """
    # the cells of one factor share a dimension, so every box has the
    # same lattice points and the same chains
    dims = tuple(len(f[0]) - 1 for f in factors)
    chains = _chains(dims)
    box = list(itertools.product(*(range(d + 1) for d in dims)))
    for combo in itertools.product(*factors):
        vertex = {pos: point(map(tuple.__getitem__, combo, pos))
                  for pos in box}
        for chain in chains:
            yield tuple(map(vertex.__getitem__, chain))


def _circle(m: int) -> list:
    """The 2m edges of the subdivided circle, counterclockwise from 0."""
    return [(j, (j + 1) % (2 * m)) for j in range(2 * m)]


def _fan_cells(m: int) -> list:
    return [(-1,) + e for e in _circle(m)]


def _full2_cells(m: int) -> list:
    """The n = 2 space: the circle carried onto its antipodal pairs."""
    return [tuple((a, (a + m) % (2 * m)) for a in e) for e in _circle(m)]


def _factor_cells(lab: PLabel, m: int) -> list:
    """The cells meshing one coordinate of a chart.

    Half circles get m edges and discs a fan over a 2m-gon.
    """
    if lab == PLabel.ONE:
        return [(0,)]
    if lab == PLabel.MINUS_ONE:
        return [(m,)]
    if lab == PLabel.UPPER:
        return _circle(m)[:m]
    if lab == PLabel.LOWER:
        # ascending parameter; the last edge wraps through angle 0
        return _circle(m)[m:]
    return _fan_cells(m)


def _check_m(m: int):
    if m < 2 or m % 2 != 0:
        raise ValueError("resolution m must be an even integer >= 2")


@dataclass
class MeshChart:
    """One meshed cell: its label, resolution and complex."""

    cell: CellLabel
    m: int
    complex: SimplicialComplex


def mesh_chart(x: CellLabel, m: int) -> MeshChart:
    """Staircase triangulation of one closed cell with exact vertices.

    Half-circle parameters are subdivided at step 1/m and discs get a
    fan over a 2m-gon; the staircase product is filtered to simplices
    inside the cell, which is exact because staircase simplices never
    straddle a parameter-comparison hyperplane.
    """
    _check_m(m)
    return MeshChart(x, m, _emit(_keyed(_chart(x, m)[0]), m))


def _chart(x: CellLabel, m: int) -> tuple:
    """The tops of mesh_chart(x, m) as tick-key tuples in construction
    order, and the set of the keys of its product box in the closed cell.

    Each point of the box (each factor's grid points) is tested once; a
    staircase simplex is kept when all its vertices are inside.  The
    keys are numbered by the complex the tops go into.
    """
    factors = [_factor_cells(lab, m) for lab in x]
    point = _point_of(m)
    box = itertools.product(*({c for cell in cells for c in cell}
                              for cells in factors))
    inside = {key for key in box if bx_member(x, point(key), "closed")}
    return [s for s in _product_tops(factors) if inside.issuperset(s)], inside


# ---------------------------------------------------------------------------
# Slice assembly
# ---------------------------------------------------------------------------


def slice_pieces(n: int, m: int) -> dict:
    """The chart complexes of the slice, keyed by their (j, k) pair."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_m(m)
    return {(j, k): mesh_chart(ul_label(j, k, n), m).complex
            for j in range(1, n) for k in range(1, n)}


def _interface_faces(tops: list, inside: set) -> set:
    """Faces of a chart whose vertices all lie in another closed cell.

    `tops` are the chart's tops as ascending tuples of slice ids, and
    `inside` holds the ids of the points in the other cell.  Such a face
    is a nonempty subset of the vertices of some top that lie inside,
    so the faces come from the tops that meet the cell, as ascending id
    tuples; the chart's face set is never built.  Every span is cut at
    every size up to the widest; a size above a span's length gives
    nothing.
    """
    met = list(itertools.filterfalse(inside.isdisjoint, tops))
    spans = set(map(tuple, map(itertools.compress, met, map(
        map, itertools.repeat(inside.__contains__), met))))
    width = max(map(len, spans), default=0)
    return set(itertools.chain.from_iterable(itertools.starmap(
        itertools.combinations, itertools.product(spans, range(1, width + 1)))))


def assemble_slice(n: int, m: int) -> SimplicialComplex:
    """Union of all chart triangulations of the slice, glued exactly.

    Every ordered pair of half-circle positions contributes a chart;
    before uniting, each pair of charts is required to induce the same
    set of faces on their overlap, and a mismatch is a hard error that
    names the points of the smallest face in dispute.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    _check_m(m)
    return _emit(_slice(n, m), m)


def _slice(n: int, m: int) -> SimplicialComplex:
    """The complex of assemble_slice(n, m), on tick keys: the key tops of
    every chart (see _chart), numbered once with one id per slice vertex
    in tick-key order, united once the charts agree on their interfaces."""
    pieces, boxes = {}, {}
    for j in range(1, n):
        for k in range(1, n):
            pieces[j, k], boxes[j, k] = _chart(ul_label(j, k, n), m)
    # points are made only to name a witness
    order = sorted(set(itertools.chain.from_iterable(
        itertools.chain.from_iterable(pieces.values()))))
    point = _point_of(m)
    vid = {key: i for i, key in enumerate(order)}
    # each chart's tops in construction order, and as ascending ids
    tops = {jk: [tuple(map(vid.__getitem__, s)) for s in simplices]
            for jk, simplices in pieces.items()}
    ascending = {jk: [tuple(sorted(t)) for t in ts]
                 for jk, ts in tops.items()}
    # the ids inside each closed cell: a slice vertex in the cell lies on
    # the grid of its chart's box, where the chart build tested it
    inside = {jk: {vid[key] for key in box if key in vid}
              for jk, box in boxes.items()}
    for a, b in itertools.combinations(sorted(pieces), 2):
        sa = _interface_faces(ascending[a], inside[b])
        sb = _interface_faces(ascending[b], inside[a])
        if sa != sb:
            witness = min(sa ^ sb)
            raise MeshValidityError(
                f"charts {a} and {b} disagree on their overlap near "
                f"{[str(point(order[i])) for i in witness]}")
    # every slice vertex is in a top; closed cells meet in lower
    # dimension only, so a top that two charts share means the charts
    # overlap and do not subdivide the slice
    union: dict = {}
    for jk in sorted(pieces):
        for t, s in zip(tops[jk], ascending[jk]):
            first, _ = union.setdefault(s, (jk, t))
            if first != jk:
                raise MeshValidityError(
                    f"charts {first} and {jk} share the top "
                    f"{[str(point(order[i])) for i in s]}")
    return SimplicialComplex(order, [union[s][1] for s in sorted(union)])


def boundary_subcomplex(K: SimplicialComplex) -> SimplicialComplex:
    """Closure of the codimension-1 faces lying in exactly one top.

    The input must be well formed (see _validate) and pure, or have
    no tops; a closed, empty or 0-dimensional complex yields the empty
    complex.  Its tops are the ridges counted once in K's top facet rows,
    on their vertices in K's order; that order keeps each top ascending
    and the tops sorted, so they are their own keys, and the first
    faces() call builds the table from them (see _face_table).
    """
    if not K.tops:
        return SimplicialComplex([], [])
    faces, rows = K.faces(), K.facet_rows()
    if not K.is_pure():
        raise MeshValidityError("boundary of a non-pure complex")
    once = sorted(r for r, c in Counter(rows[K.dim]).items() if c == 1)
    ridges = [faces[K.dim - 1][r] for r in once]
    used = sorted(set(itertools.chain.from_iterable(ridges)))
    vid = dict(zip(used, itertools.count()))
    B = SimplicialComplex(list(map(K.vertices.__getitem__, used)), [
        tuple(map(vid.__getitem__, r)) for r in ridges])
    B._keys = B.tops
    return B


# ---------------------------------------------------------------------------
# Full-space assembly (n = 2 and n = 3)
# ---------------------------------------------------------------------------


@dataclass
class FullSpacePieces:
    """The two product regions of the n = 3 space and their interface.

    `rotation` covers the points whose last coordinate has radius 1,
    as slice x circle; `base` covers the antipodal-pair region as
    circle x disc.  `interface` is their common torus, triangulated
    identically from both sides (checked).
    """

    rotation: SimplicialComplex
    base: SimplicialComplex
    interface: SimplicialComplex


@functools.lru_cache(maxsize=4)
def _build_regions(m: int) -> tuple:
    """The rotation and base regions and their torus, on tick keys.

    The rotation region is the slice times the circle, each slice vertex
    turned by the circle tick; the base region is the n = 2 space times
    the disc fan.  The torus check builds both regions' face tables; a
    torus builds its own on first use, so the second never does.  Raises
    MeshValidityError when the regions triangulate the torus differently.

    Built once per m and kept (for the last four m), so assemble_full
    and full_space_pieces share one validated triple; a build that
    raises is not kept.  Callers must not mutate the triple: they read
    it, or emit copies of it.
    """
    S = _slice(3, m)

    def rotate(entries):
        key, q = entries
        return tuple(c if c < 0 else (c + q) % (2 * m) for c in key)

    def concat(entries):
        pair, c = entries
        return pair + (c,)

    # descending rotation steps cancel the shear on the torus
    steps = [e[::-1] for e in _circle(m)]
    slice_cells = [tuple(S.vertices[i] for i in t) for t in S.tops]
    region_a = _keyed(list(_product_tops([slice_cells, steps], rotate)))
    region_b = _keyed(list(_product_tops([_full2_cells(m), _fan_cells(m)],
                                         concat)))
    torus = boundary_subcomplex(region_a)
    ok, why = complex_isomorphic(torus, boundary_subcomplex(region_b))
    if not ok:
        raise MeshValidityError(
            f"the two full-space regions disagree on the interface torus: "
            f"{why}")
    return region_a, region_b, torus


def full_space_pieces(n: int, m: int) -> FullSpacePieces:
    """Build the two n = 3 regions and verify their torus interface."""
    if n != 3:
        raise ValueError("the two-region splitting exists for n = 3 only")
    _check_m(m)
    return FullSpacePieces(*(_emit(K, m) for K in _build_regions(m)))


def assemble_full(n: int, m: int) -> SimplicialComplex:
    """Triangulation of the whole compact space for n = 2 or n = 3.

    For n = 3 the two cached regions of _build_regions are glued along
    their torus from their face tables (see _union), and the complex
    carries the union's table; MeshValidityError is raised if they
    triangulate the torus differently, or if they share a top.
    """
    _check_m(m)
    if n == 2:
        return _emit(_keyed(_full2_cells(m)), m)
    if n != 3:
        raise ValueError("full-space meshes exist for n = 2 and n = 3 only")
    return _emit(_union(*_build_regions(m)[:2]), m)


# ---------------------------------------------------------------------------
# Isomorphism checking and probes
# ---------------------------------------------------------------------------


def drop_last_coordinate(z: ModelPoint) -> ModelPoint:
    return ModelPoint(z.coords[:-1])


def complex_isomorphic(k1: SimplicialComplex, k2: SimplicialComplex,
                       vertex_map_hint: Optional[Callable] = None):
    """Try the hinted vertex transform as a simplicial isomorphism.

    Returns (True, index map) when the transform is a vertex bijection
    carrying top simplices onto top simplices, else (False, mismatch).
    A mismatch of the tops names the points of the smallest disputed top.
    """
    transform = vertex_map_hint or (lambda z: z)
    lookup = {v: i for i, v in enumerate(k2.vertices)}
    if len(k1.vertices) != len(k2.vertices):
        return False, (f"vertex counts differ: {len(k1.vertices)} vs "
                       f"{len(k2.vertices)}")
    vmap: dict = {}
    for i, v in enumerate(k1.vertices):
        w = transform(v)
        j = lookup.get(w)
        if j is None:
            return False, f"image vertex {w} is not in the target complex"
        vmap[i] = j
    if len(set(vmap.values())) != len(vmap):
        return False, "vertex transform is not injective"
    tops1 = {tuple(sorted(vmap[i] for i in t)) for t in k1.tops}
    tops2 = {tuple(sorted(t)) for t in k2.tops}
    if tops1 != tops2:
        witness = min(tops1 ^ tops2)
        return False, (f"top simplices differ near "
                       f"{[str(k2.vertices[i]) for i in witness]}")
    return True, vmap


def simplex_probe(points: Sequence[ModelPoint]) -> ModelPoint:
    """An interior rational point of a mesh simplex (its parameter mean).

    Coordinates are averaged cylindrically: the radius is the plain
    mean; angles of the positive-radius vertices are lifted into their
    shortest enclosing arc and averaged there.
    """
    n = len(points[0])
    coords = []
    for i in range(n):
        rs = [p[i].radius for p in points]
        rmean = Fraction(sum(rs), len(rs))
        angs = [p[i].angle for p in points if p[i].radius > 0]
        if rmean == 0 or not angs:
            coords.append(DiscPoint.center())
            continue
        arc = min_enclosing_arc(angs)
        start = arc.start.turns
        lifted = [start + ((a.turns - start) % 1) for a in angs]
        coords.append(DiscPoint(rmean, Angle(Fraction(sum(lifted), len(lifted)))))
    return ModelPoint(tuple(coords))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def complex_to_doc(K: SimplicialComplex, n: int, m: int) -> dict:
    """The mesh document: exact vertex coordinates plus top simplices.
    ValueError on vertices that are not model points, and, with the
    reader's message, on a shape the reader refuses (_check_doc_shape)
    or a vertex that lies in no simplex."""
    if not all(isinstance(v, ModelPoint) for v in K.vertices):
        raise ValueError("only model-point complexes serialize")
    vertices = [[[_format_ratio(c.num, c.den), str(c.angle)]
                 for c in z] for z in K.vertices]
    _check_doc_shape(n, m, vertices)
    unused = set(range(len(vertices))).difference(*K.tops)
    if unused:
        raise ValueError(f"vertex {min(unused)} lies in no simplex")
    return {"n": n, "m": m, "vertices": vertices,
            "simplices": [list(t) for t in K.tops]}


def _doc_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_doc_shape(n, m, vertices):
    """Refuse n not a positive integer, m not a positive even integer,
    vertices not a list, or a vertex without exactly n coordinates; the
    writer and the reader of mesh documents both check this."""
    if not _doc_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, not {n!r}")
    if not _doc_int(m) or m < 2 or m % 2:
        raise ValueError(f"m must be a positive even integer, not {m!r}")
    if not isinstance(vertices, list):
        raise ValueError("mesh document vertices must be a list")
    for z in vertices:
        if not isinstance(z, list) or len(z) != n:
            raise ValueError(f"vertex {z!r} does not have n={n} coordinates")


def _doc_disc_point(c, parsed: dict) -> DiscPoint:
    """The point of a [radius, angle] pair of strings; each distinct pair
    is parsed once and kept in parsed."""
    if not (isinstance(c, list) and len(c) == 2
            and all(isinstance(t, str) for t in c)):
        raise ValueError(f"disc coordinate {c!r} is not a [radius, angle]"
                         " pair of strings")
    key = tuple(c)
    p = parsed.get(key)
    if p is None:
        p = parsed[key] = DiscPoint(parse_fraction(c[0]),
                                    Angle(parse_fraction(c[1])))
    return p


def complex_from_doc(doc: dict):
    """Rebuild (complex, n, m) from a mesh document.

    Raises ValueError on anything complex_to_doc cannot write: a
    non-object, a missing key, a shape _check_doc_shape refuses, or a
    simplex that is not a nonempty list of integers.  The complex's own
    validation then refuses a repeated vertex, a simplex with an index
    out of range or repeated, and a simplex whose vertex set repeats an
    earlier one's, in one pass, naming the simplices as the document
    lists them.  Last, the first vertex that lies in no simplex is
    refused.  The face table is not built here: the complex keeps the
    keys that validation returned, and its first faces() call builds
    the table from them, once the caller has let the document go.  The
    keys are the complex's own tops where those ascend, so such a top
    is its own top face.
    """
    if not isinstance(doc, dict):
        raise ValueError("mesh document must be a JSON object")
    missing = [k for k in ("n", "m", "vertices", "simplices") if k not in doc]
    if missing:
        raise ValueError(f"mesh document lacks {', '.join(missing)}")
    n, m, simplices = doc["n"], doc["m"], doc["simplices"]
    _check_doc_shape(n, m, doc["vertices"])
    if not isinstance(simplices, list):
        raise ValueError("mesh document simplices must be a list")
    parsed: dict = {}
    verts = [ModelPoint(tuple(_doc_disc_point(c, parsed) for c in z))
             for z in doc["vertices"]]
    if not (all(map(isinstance, simplices, itertools.repeat(list)))
            and all(simplices) and set(map(
                type, itertools.chain.from_iterable(simplices))) <= {int}):
        # the passes above take plain ints only; this loop also takes an
        # int subclass, and names the first bad simplex
        for s in simplices:
            if not isinstance(s, list) or not s or not all(map(_doc_int, s)):
                raise ValueError(f"bad simplex {s!r}")
    K = SimplicialComplex(verts, list(map(tuple, simplices)))
    K._keys = _validate(verts, K.tops, simplices.__getitem__)
    unused = set(range(len(verts))).difference(*K.tops)
    if unused:
        raise ValueError(f"vertex {min(unused)} lies in no simplex")
    return K, n, m
