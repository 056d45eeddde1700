"""Simplicial homology over the rationals and the two-element field.

Betti numbers come from sparse column reduction of boundary matrices
with a deterministic pivot order, in exact arithmetic.  Also here: the
order complex of a finite poset, and a Mayer-Vietoris assembly that
computes the homology of a union from two pieces and their common
subcomplex, as the Betti numbers of one mapping cone, used as a
cross-check of the direct computation.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Sequence

from .mesh import SimplicialComplex

__all__ = [
    "BettiReport",
    "betti",
    "euler_characteristic",
    "order_complex_of_poset",
    "vertex_inclusion_map",
    "mayer_vietoris_assemble",
]


def _check_field(tag) -> str:
    if tag not in ("q", "f2"):
        raise ValueError(f"unknown coefficient field {tag!r}")
    return tag


@dataclass(frozen=True)
class BettiReport:
    field: str
    betti: tuple
    euler: int

    def __str__(self) -> str:
        tag = "Q" if self.field == "q" else "F2"
        bs = ",".join(str(b) for b in self.betti)
        return f"betti ({bs}) euler {self.euler} over {tag}"


class _Engine:
    """Column reduction with deterministic largest-row pivots.

    Over Q a column is a {row: int} dict, reduced fraction-free: the two
    columns are cross-multiplied by their low entries over the gcd of
    those, and the result is divided by the gcd of its entries whenever
    that step scaled it, and once more before it is kept.  Over F2 a
    working column is a set of rows, reduced by symmetric difference,
    and every pivot is kept as a tuple of its rows.

    A column may come as a tuple of rows in ascending order, whose low
    is its last entry: over Q a facet row (see _boundary_columns), over
    F2 any column.  When no pivot has that low, the tuple is kept as
    the pivot as it stands (Ripser's emergent pairs); _reductions claims
    that low itself, with one dict call, and calls add only when the low
    is taken.  The working set or dict is built only for such a column.
    A tuple pivot that a later column meets is read as it stands, over
    Q by _eliminate and over F2 by the set, so no pivot is ever built.

    Once a column has met a pivot, its low comes from a lazy max-heap of
    its rows (as in PHAT's heap columns): each step pushes the rows of
    the pivot column that stay in it, and stale tops are popped, so a
    step costs the pivot column's length, not the working column's.
    """

    def __init__(self, f2: bool):
        self.f2 = f2
        self.pivots: dict = {}

    def add(self, col) -> None:
        """Reduce col, a tuple or a built column (reduced in place), and
        keep it as a pivot unless it reduces to zero."""
        heap = None  # negated rows, a superset of col's
        dirty = False  # over Q: col may hold a common factor
        while col:
            if heap is None:
                # a tuple is ascending: its low is its last entry
                low = col[-1] if type(col) is tuple else max(col)
            else:
                while -heap[0] not in col:
                    heappop(heap)
                low = -heap[0]
            other = self.pivots.get(low)
            if other is None:
                if dirty:
                    _divide_content(col)
                if self.f2 and type(col) is not tuple:
                    col = tuple(col)
                self.pivots[low] = col
                return
            if heap is None:
                if type(col) is tuple:
                    col = _column(col, self.f2)
                heap = [-r for r in col]
                heapify(heap)
            if self.f2:
                col.symmetric_difference_update(other)
            else:
                dirty = _eliminate(col, other, low)
            for r in other:
                if r in col:
                    heappush(heap, -r)


def _eliminate(col: dict, other, low) -> bool:
    """col <- b col - a other, a and b the entries at low, over their gcd.

    A facet row other is read as it stands: its entries are _signs, +1
    at its low, so its step is unscaled.  A step that scaled col (by b
    over the gcd, made positive) ends with a content pass; the result
    is True when col may still hold a common factor.
    """
    a = col[low]
    if type(other) is tuple:
        ka, kb, entries = 1, a, zip(other, _signs(len(other)))
    else:
        b = other[low]
        g = gcd(a, b)
        ka, kb = b // g, a // g
        if ka < 0:
            ka, kb = -ka, -kb
        entries = other.items()
    if ka != 1:
        for r in col:
            col[r] *= ka
    for r, v in entries:
        nv = col.get(r, 0) - kb * v
        if nv:
            col[r] = nv
        else:
            del col[r]
    if ka == 1:
        return True
    _divide_content(col)
    return False


def _divide_content(col: dict) -> None:
    """Divide col by the gcd of its entries."""
    g = gcd(*col.values())
    if g > 1:
        for r in col:
            col[r] //= g


@cache
def _signs(n: int) -> tuple:
    """The entries of a facet row of n faces: the row drops the simplex's
    last vertex first, and the face without vertex i has sign (-1)^i, so
    the signs run from i = n - 1 down to 0 and end in +1 at the low."""
    return ((-1, 1) * n)[n:]


def _column(facets: tuple, f2: bool):
    """The column of a facet row: its set of rows over F2, and over Q
    the {row: +-1} dict of the boundary of the simplex it lists."""
    return set(facets) if f2 else dict(zip(facets, _signs(len(facets))))


def _unskipped(items, skip, start: int = 0):
    """The items whose index, counting from start, is not in skip."""
    if not skip:
        return items
    return itertools.compress(items, map(operator.not_, map(
        skip.__contains__, itertools.count(start))))


def _boundary_columns(parts: Sequence[SimplicialComplex], d: int, skip=()):
    """The facet row of each d-simplex whose index is not in skip.

    The simplices are those of the disjoint union of parts: each part's
    simplices, and the facet rows of its columns, are numbered after
    those of the parts before it.  A facet row is the tuple of the
    simplex's facet indices in the order of the face table, which is
    ascending (see _column for its column); a vertex has the empty row.
    The rows come as one iterator, cut from the tables in C.
    """
    pieces, shift = [], 0
    for K in parts:
        faces, rows = K.faces(), K.facet_rows()
        if d:
            cols = zip(*[iter(rows[d] if d < len(rows) else ())] * (d + 1))
            if shift:
                cols = map(tuple, map(map, itertools.repeat(shift.__add__),
                                      cols))
        else:
            cols = itertools.repeat((), len(faces.get(0, ())))
        pieces.append(cols)
        shift += len(faces.get(d - 1, ()))
    return _unskipped(itertools.chain.from_iterable(pieces), skip)


def _reductions(columns: Callable, f2: bool, top: int):
    """Reduce a chain complex's boundary maps from dimension top down to 0.

    columns(d, skip) gives the column of each basis element of dimension
    d whose index is not in skip, in index order; the rows of a column
    are the indices of dimension d - 1.  Yields (d, engine) once the
    engine holds the reduced columns of the map from dimension d.  A
    column that comes as an ascending tuple whose low no pivot has is
    kept as it stands, with no call into the engine (see _Engine).
    Clearing: the row of every pivot at dimension d + 1 is the leading
    element of a cycle, so its own column would reduce to zero and is
    skipped.  Only those rows cross to dimension d - 1: once the caller
    resumes, the engine's pivot columns are released.
    """
    cleared: set = set()
    for d in range(top, -1, -1):
        eng = _Engine(f2)
        claim = eng.pivots.setdefault
        for col in columns(d, cleared):
            if type(col) is not tuple or col and claim(col[-1], col) is not col:
                eng.add(col)
        yield d, eng
        cleared = set(eng.pivots)
        eng.pivots.clear()


def _betti_numbers(counts: Sequence[int], ranks: dict) -> tuple:
    return tuple(counts[d] - ranks[d] - ranks.get(d + 1, 0)
                 for d in range(len(counts)))


def betti(K: SimplicialComplex, field="q") -> BettiReport:
    """Betti numbers of K in every dimension, by exact rank computation."""
    tag = _check_field(field)
    faces = K.faces()
    if not faces:
        return BettiReport(tag, (), 0)
    ranks = {d: len(eng.pivots) for d, eng in _reductions(
        partial(_boundary_columns, (K,)), tag == "f2", len(faces) - 1)}
    return BettiReport(tag, _betti_numbers(list(map(len, faces.values())),
                                           ranks), euler_characteristic(K))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of face counts over all dimensions."""
    total = 0
    for d, fs in K.faces().items():
        total += len(fs) if d % 2 == 0 else -len(fs)
    return total


def order_complex_of_poset(elements: Sequence, leq: Callable) -> SimplicialComplex:
    """The chain complex of a finite poset, with chains as simplices.

    The oracle is checked for reflexivity and antisymmetry on the given
    elements; top simplices are the maximal chains (paths from minimal
    to maximal elements through covering relations).
    """
    elems = list(elements)
    n = len(elems)
    for x in elems:
        if not leq(x, x):
            raise ValueError(f"order oracle is not reflexive at {x}")
    less = [[False] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if i != j and leq(x, y):
                if leq(y, x):
                    raise ValueError(
                        f"order oracle violates antisymmetry on {x} and {y}")
                less[i][j] = True
    covers = []
    for i in range(n):
        up = [j for j in range(n) if less[i][j]]
        covers.append([j for j in up
                       if not any(less[k][j] for k in up if k != j)])
    minimal = [i for i in range(n) if not any(less[j][i] for j in range(n))]
    tops: list = []

    def extend(i, chain):
        if not covers[i]:
            tops.append(tuple(chain))
            return
        for j in covers[i]:
            extend(j, chain + (j,))

    for i in minimal:
        extend(i, (i,))
    return SimplicialComplex(elems, tops)


def vertex_inclusion_map(sub: SimplicialComplex, sup: SimplicialComplex) -> dict:
    """Index map identifying each vertex of sub with its equal in sup."""
    lookup = {v: i for i, v in enumerate(sup.vertices)}
    out = {}
    for i, v in enumerate(sub.vertices):
        j = lookup.get(v)
        if j is None:
            raise ValueError(f"vertex {v} of the subcomplex is missing")
        out[i] = j
    return out


def _check_inclusion(kint: SimplicialComplex, K: SimplicialComplex, vmap: dict):
    if sorted(vmap) != list(range(len(kint.vertices))):
        raise ValueError("inclusion map must cover the subcomplex vertices")
    if len(set(vmap.values())) != len(vmap):
        raise ValueError("inclusion map is not injective")
    faces = K.faces()
    for t in kint.tops:
        img = tuple(sorted(vmap[i] for i in t))
        fs = faces.get(len(img) - 1, ())
        j = bisect_left(fs, img)
        if j == len(fs) or fs[j] != img:
            raise ValueError(
                f"inclusion is not simplicial: image of {t} is no simplex")


def _sort_sign(seq) -> int:
    inv = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inv % 2 else 1


def mayer_vietoris_assemble(ka: SimplicialComplex, kb: SimplicialComplex,
                            kint: SimplicialComplex, map_a: dict,
                            map_b: dict, field="q") -> BettiReport:
    """Homology of the union of two complexes glued along a subcomplex.

    map_a and map_b send vertex indices of the intersection complex into
    the two pieces; both inclusions must be simplicial.  The chain map
    C(kint) -> C(ka) + C(kb), x -> (x, -x), is injective with cokernel
    C(ka u kb), so its mapping cone has the homology of the union: the
    Betti numbers are the cone's, from the same reduction betti runs.
    """
    tag = _check_field(field)
    f2 = tag == "f2"
    # the face tables validate each complex before the maps are checked
    fa, fb, fi = ka.faces(), kb.faces(), kint.faces()
    _check_inclusion(kint, ka, map_a)
    _check_inclusion(kint, kb, map_b)

    def cone(d: int, skip):
        # the d-simplices of A, then of B, then the (d-1)-simplices x of
        # the intersection, with column (x, -x) over A's and B's rows of
        # dimension d - 1, then -(boundary of x) over the rows after those
        own = _boundary_columns((ka, kb), d, skip)
        if not d:
            return own
        na = len(fa.get(d - 1, ()))
        shift = na + len(fb.get(d - 1, ()))
        base = len(fa.get(d, ())) + len(fb.get(d, ()))

        def glued(p: int, facets: tuple):
            rows, signs = [], []
            for faces, vmap, off, sign in ((fa, map_a, 0, 1),
                                           (fb, map_b, na, -1)):
                # an injective inclusion gives each simplex its own image
                img = [vmap[i] for i in fi[d - 1][p]]
                rows.append(off + bisect_left(faces[d - 1],
                                              tuple(sorted(img))))
                signs.append(sign * _sort_sign(img))
            rows += [shift + r for r in facets]
            if f2:
                return tuple(rows)
            signs += [-v for v in _signs(len(facets))]
            return dict(zip(rows, signs))

        return itertools.chain(own, itertools.starmap(glued, _unskipped(
            enumerate(_boundary_columns((kint,), d - 1)), skip, base)))

    top = max(ka.dim, kb.dim)
    ranks = {d: len(eng.pivots) for d, eng in _reductions(cone, f2, top + 1)}
    counts = [len(fa.get(d, ())) + len(fb.get(d, ())) + len(fi.get(d - 1, ()))
              for d in range(top + 1)]
    euler = (euler_characteristic(ka) + euler_characteristic(kb)
             - euler_characteristic(kint))
    return BettiReport(tag, _betti_numbers(counts, ranks), euler)
