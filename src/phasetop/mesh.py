"""Exact simplicial meshes of the model cells and their assemblies.

Half circles are subdivided into m edges and discs into a fan over a
2m-gon, so all grids share the step 1/(2m) in angle.  Products are
triangulated by the staircase (Kuhn) construction, which respects every
parameter-comparison hyperplane; that makes cell constraints and chart
interfaces simplex-aligned, so assemblies glue by nothing more than
exact vertex equality.  All coordinates are rational and no tolerance
appears anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .cells import CellLabel, PLabel, bx_member, ul_label
from .order_complex import DiscPoint, ModelPoint, rotate
from .phase import Angle, format_fraction, min_enclosing_arc, parse_fraction

__all__ = [
    "MeshValidityError",
    "SimplicialComplex",
    "MeshChart",
    "FullSpacePieces",
    "mesh_cell",
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

HALF = Fraction(1, 2)


class MeshValidityError(Exception):
    """Raised when assembled charts disagree on a shared interface."""


def _vertex_key(z: ModelPoint):
    return tuple((c.radius, c.angle.turns) for c in z)


@dataclass(eq=False)
class SimplicialComplex:
    """Top simplices over an exact vertex table.

    Vertices are arbitrary hashable objects (usually ModelPoints); no
    two are equal.  Top simplices are index tuples whose order records
    the construction; lower faces are implied and enumerated on demand.
    """

    vertices: list
    tops: list
    _faces: Optional[dict] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return max((len(t) for t in self.tops), default=0) - 1

    def faces(self) -> dict:
        """All faces keyed by dimension, as sorted index tuples."""
        if self._faces is None:
            by_dim: dict[int, set] = {}
            for t in self.tops:
                key = tuple(sorted(t))
                for r in range(1, len(key) + 1):
                    by_dim.setdefault(r - 1, set()).update(
                        itertools.combinations(key, r)
                    )
            self._faces = by_dim
        return self._faces

    def f_vector(self) -> tuple:
        fs = self.faces()
        return tuple(len(fs[d]) for d in range(self.dim + 1))

    def is_pure(self) -> bool:
        return bool(self.tops) and len({len(t) for t in self.tops}) == 1

    def top_point_sets(self) -> set:
        return {frozenset(self.vertices[i] for i in t) for t in self.tops}

    def codim1_incidence(self) -> dict:
        """Count of top simplices containing each codimension-1 face."""
        if not self.is_pure():
            raise MeshValidityError("incidence counting needs a pure complex")
        count: dict[tuple, int] = {}
        for t in self.tops:
            key = tuple(sorted(t))
            for f in itertools.combinations(key, len(key) - 1):
                count[f] = count.get(f, 0) + 1
        return count

    def is_closed_pseudomanifold(self) -> bool:
        if not self.is_pure():
            return False
        return all(c == 2 for c in self.codim1_incidence().values())


class _Builder:
    """Accumulates simplices, interning vertices by exact equality."""

    def __init__(self):
        self._index: dict = {}
        self._points: list = []
        self._tops: dict = {}

    def vertex(self, p) -> int:
        i = self._index.get(p)
        if i is None:
            i = len(self._points)
            self._index[p] = i
            self._points.append(p)
        return i

    def add(self, pts: Sequence):
        idxs = tuple(self.vertex(p) for p in pts)
        if len(set(idxs)) != len(idxs):
            raise MeshValidityError(f"degenerate simplex {pts}")
        self._tops.setdefault(tuple(sorted(idxs)), idxs)

    def add_complex(self, K: SimplicialComplex):
        for t in K.tops:
            self.add([K.vertices[i] for i in t])

    def complex(self) -> SimplicialComplex:
        if self._points and all(isinstance(p, ModelPoint) for p in self._points):
            order = sorted(range(len(self._points)),
                           key=lambda i: _vertex_key(self._points[i]))
        else:
            order = list(range(len(self._points)))
        remap = {old: new for new, old in enumerate(order)}
        verts = [self._points[i] for i in order]
        tops = [tuple(remap[i] for i in t) for t in self._tops.values()]
        tops.sort(key=lambda t: tuple(sorted(t)))
        return SimplicialComplex(verts, tops)


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


def _product_tops(factors: Sequence[Sequence[tuple]]):
    """Staircase top simplices of a product of cell lists.

    Each factor is a list of cells; a cell is a tuple of vertex objects
    in its local order.  Yields tuples of product vertices (per-factor
    vertex tuples) in chain order.
    """
    for combo in itertools.product(*factors):
        dims = tuple(len(c) - 1 for c in combo)
        for chain in _chains(dims):
            yield tuple(
                tuple(cell[p] for cell, p in zip(combo, pos)) for pos in chain
            )


def _point_cells(p: DiscPoint) -> list:
    return [(p,)]


def _upper_cells(m: int) -> list:
    vs = [DiscPoint(Fraction(1), Angle(Fraction(i, 2 * m))) for i in range(m + 1)]
    return [(vs[i], vs[i + 1]) for i in range(m)]


def _lower_cells(m: int) -> list:
    # ascending parameter; the last edge wraps through angle 0
    vs = [DiscPoint(Fraction(1), Angle(HALF + Fraction(i, 2 * m)))
          for i in range(m + 1)]
    return [(vs[i], vs[i + 1]) for i in range(m)]


def _fan_cells(m: int) -> list:
    c = DiscPoint.center()
    ring = [DiscPoint(Fraction(1), Angle(Fraction(j, 2 * m)))
            for j in range(2 * m)]
    return [(c, ring[j], ring[(j + 1) % (2 * m)]) for j in range(2 * m)]


def _check_m(m: int):
    if m < 2 or m % 2 != 0:
        raise ValueError("resolution m must be an even integer >= 2")


@dataclass
class MeshChart:
    """One meshed cell: its label, resolution, grid, and embedding.

    `grid` lists the per-coordinate factor cells; `embedding` maps every
    grid vertex tuple to its exact model point (degenerate grid corners
    merge because equal coordinates intern to one vertex).
    """

    cell: Union[CellLabel, str]
    m: int
    grid: tuple
    embedding: dict
    complex: SimplicialComplex


def mesh_cell(x: CellLabel, m: int) -> SimplicialComplex:
    """Staircase triangulation of one closed cell with exact vertices.

    Half-circle parameters are subdivided at step 1/m and discs get a
    fan over a 2m-gon; the staircase product is filtered to simplices
    inside the cell, which is exact because staircase simplices never
    straddle a parameter-comparison hyperplane.
    """
    return mesh_chart(x, m).complex


def mesh_chart(x: CellLabel, m: int) -> MeshChart:
    _check_m(m)
    factors = []
    for lab in x:
        if lab == PLabel.ONE:
            factors.append(_point_cells(DiscPoint.of(1, 0)))
        elif lab == PLabel.MINUS_ONE:
            factors.append(_point_cells(DiscPoint.of(1, HALF)))
        elif lab == PLabel.UPPER:
            factors.append(_upper_cells(m))
        elif lab == PLabel.LOWER:
            factors.append(_lower_cells(m))
        else:
            factors.append(_fan_cells(m))
    b = _Builder()
    member_memo: dict = {}
    embedding: dict = {}

    def member(z: ModelPoint) -> bool:
        r = member_memo.get(z)
        if r is None:
            r = bx_member(x, z, "closed")
            member_memo[z] = r
        return r

    for simplex in _product_tops(factors):
        pts = [ModelPoint(v) for v in simplex]
        if all(member(z) for z in pts):
            for grid_v, z in zip(simplex, pts):
                embedding[grid_v] = z
            b.add(pts)
    return MeshChart(x, m, tuple(tuple(f) for f in factors), embedding,
                     b.complex())


# ---------------------------------------------------------------------------
# Slice assembly
# ---------------------------------------------------------------------------


def slice_pieces(n: int, m: int) -> dict:
    """The chart complexes of the slice, keyed by their (j, k) pair."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_m(m)
    return {(j, k): mesh_cell(ul_label(j, k, n), m)
            for j in range(1, n) for k in range(1, n)}


def _interface_faces(K: SimplicialComplex, other: CellLabel) -> set:
    """Faces of K all of whose vertices lie in the other closed cell."""
    memo: dict = {}

    def member(p):
        r = memo.get(p)
        if r is None:
            r = bx_member(other, p, "closed")
            memo[p] = r
        return r

    out = set()
    for fs in K.faces().values():
        for f in fs:
            pts = [K.vertices[i] for i in f]
            if all(member(p) for p in pts):
                out.add(frozenset(pts))
    return out


def assemble_slice(n: int, m: int) -> SimplicialComplex:
    """Union of all chart triangulations of the slice, glued exactly.

    Every ordered pair of half-circle positions contributes a chart;
    before uniting, each pair of charts is required to induce the same
    set of faces on their overlap, and a mismatch is a hard error.
    """
    pieces = slice_pieces(n, m)
    labels = {jk: ul_label(jk[0], jk[1], n) for jk in pieces}
    for a, b in itertools.combinations(sorted(pieces), 2):
        sa = _interface_faces(pieces[a], labels[b])
        sb = _interface_faces(pieces[b], labels[a])
        if sa != sb:
            witness = next(iter(sa ^ sb))
            raise MeshValidityError(
                f"charts {a} and {b} disagree on their overlap near "
                f"{[str(p) for p in sorted(witness, key=_vertex_key)]}")
    out = _Builder()
    for jk in sorted(pieces):
        out.add_complex(pieces[jk])
    return out.complex()


def boundary_subcomplex(K: SimplicialComplex) -> SimplicialComplex:
    """Closure of the codimension-1 faces lying in exactly one top.

    The input must be pure; a closed complex yields the empty complex.
    """
    if not K.is_pure():
        raise MeshValidityError("boundary of a non-pure complex")
    parent: dict = {}
    for t in K.tops:
        key = tuple(sorted(t))
        for f in itertools.combinations(key, len(key) - 1):
            parent.setdefault(f, t)
    b = _Builder()
    for f, c in K.codim1_incidence().items():
        if c == 1:
            keep = set(f)
            b.add([K.vertices[i] for i in parent[f] if i in keep])
    return b.complex()


def _model_vertices(K: SimplicialComplex) -> bool:
    return all(isinstance(v, ModelPoint) for v in K.vertices)


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


def _full_circle_vertex(a: Angle, w: DiscPoint) -> ModelPoint:
    return ModelPoint((DiscPoint(Fraction(1), a),
                       DiscPoint(Fraction(1), a + Angle(HALF)), w))


def _build_regions(m: int):
    S = assemble_slice(3, m)
    grid = [Angle(Fraction(q, 2 * m)) for q in range(2 * m)]

    ba = _Builder()
    for t in S.tops:
        pts = [S.vertices[i] for i in t]
        for q in range(2 * m):
            # descending rotation order cancels the shear on the torus
            cell_phi = (grid[(q + 1) % (2 * m)], grid[q])
            for chain in _chains((len(pts) - 1, 1)):
                ba.add([rotate(cell_phi[pq], pts[pp]) for pp, pq in chain])

    bb = _Builder()
    fan = _fan_cells(m)
    for i in range(2 * m):
        cell_alpha = (grid[i], grid[(i + 1) % (2 * m)])
        for fcell in fan:
            for chain in _chains((1, len(fcell) - 1)):
                bb.add([_full_circle_vertex(cell_alpha[pa], fcell[pf])
                        for pa, pf in chain])
    return ba.complex(), bb.complex()


def full_space_pieces(n: int, m: int) -> FullSpacePieces:
    """Build the two n = 3 regions and verify their torus interface."""
    if n != 3:
        raise ValueError("the two-region splitting exists for n = 3 only")
    _check_m(m)
    region_a, region_b = _build_regions(m)
    ta = boundary_subcomplex(region_a)
    tb = boundary_subcomplex(region_b)
    if ta.top_point_sets() != tb.top_point_sets():
        raise MeshValidityError(
            "the two full-space regions disagree on the interface torus")
    return FullSpacePieces(region_a, region_b, ta)


def assemble_full(n: int, m: int) -> Union[SimplicialComplex, FullSpacePieces]:
    """Triangulation of the whole compact space for n = 2 or n = 3.

    For n = 3 the rotation and base regions are glued along their torus.
    Should the exact interface check ever fail, the unglued pieces are
    returned instead so homology can assemble them; with the descending
    rotation convention the check holds, so the normal result is one
    complex.
    """
    _check_m(m)
    if n == 2:
        b = _Builder()
        vs = [ModelPoint((DiscPoint(Fraction(1), a),
                          DiscPoint(Fraction(1), a + Angle(HALF))))
              for a in (Angle(Fraction(j, 2 * m)) for j in range(2 * m))]
        for j in range(2 * m):
            b.add([vs[j], vs[(j + 1) % (2 * m)]])
        return b.complex()
    if n == 3:
        region_a, region_b = _build_regions(m)
        ta = boundary_subcomplex(region_a)
        tb = boundary_subcomplex(region_b)
        if ta.top_point_sets() != tb.top_point_sets():
            return FullSpacePieces(region_a, region_b, ta)
        b = _Builder()
        b.add_complex(region_a)
        b.add_complex(region_b)
        return b.complex()
    raise ValueError("full-space meshes exist for n = 2 and n = 3 only")


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
        bad = next(iter(tops1 ^ tops2))
        return False, f"top simplices differ near vertex indices {bad}"
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
    """The mesh document: exact vertex coordinates plus top simplices."""
    if not _model_vertices(K):
        raise ValueError("only model-point complexes serialize")
    return {
        "n": n,
        "m": m,
        "vertices": [
            [[format_fraction(c.radius), format_fraction(c.angle.turns)]
             for c in z] for z in K.vertices
        ],
        "simplices": [list(t) for t in K.tops],
    }


def _doc_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _doc_disc_point(c) -> DiscPoint:
    if not (isinstance(c, list) and len(c) == 2
            and all(isinstance(t, str) for t in c)):
        raise ValueError(f"disc coordinate {c!r} is not a [radius, angle]"
                         " pair of strings")
    return DiscPoint(parse_fraction(c[0]), Angle(parse_fraction(c[1])))


def complex_from_doc(doc: dict):
    """Rebuild (complex, n, m) from a mesh document.

    Raises ValueError on anything complex_to_doc cannot write: a
    non-object, a missing key, n not a positive integer, m not a
    positive even integer, a vertex without exactly n coordinates, or a
    simplex that is not a list of distinct vertex indices.
    """
    if not isinstance(doc, dict):
        raise ValueError("mesh document must be a JSON object")
    missing = [k for k in ("n", "m", "vertices", "simplices") if k not in doc]
    if missing:
        raise ValueError(f"mesh document lacks {', '.join(missing)}")
    n, m = doc["n"], doc["m"]
    if not _doc_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, not {n!r}")
    if not _doc_int(m) or m < 2 or m % 2:
        raise ValueError(f"m must be a positive even integer, not {m!r}")
    for key in ("vertices", "simplices"):
        if not isinstance(doc[key], list):
            raise ValueError(f"mesh document {key} must be a list")
    verts = []
    for z in doc["vertices"]:
        if not isinstance(z, list) or len(z) != n:
            raise ValueError(f"vertex {z!r} does not have n={n} coordinates")
        verts.append(ModelPoint(tuple(_doc_disc_point(c) for c in z)))
    if len(set(verts)) != len(verts):
        raise ValueError("mesh document repeats a vertex coordinate")
    tops = []
    for s in doc["simplices"]:
        if (not isinstance(s, list) or not all(_doc_int(i) for i in s)
                or any(i < 0 or i >= len(verts) for i in s)
                or len(set(s)) != len(s)):
            raise ValueError(f"bad simplex {s!r}")
        tops.append(tuple(s))
    return SimplicialComplex(verts, tops), n, m
