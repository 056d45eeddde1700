"""Simplicial homology over the rationals and the two-element field.

Betti numbers come from sparse column reduction of boundary matrices
with a deterministic pivot order, in exact arithmetic.  Also here: the
order complex of a finite poset, and a Mayer-Vietoris assembly that
computes the homology of a union from two pieces and their common
subcomplex, used as a cross-check of the direct computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _normalize_field(tag) -> str:
    t = str(tag).lower()
    if t in ("q", "rationals", "rational"):
        return "q"
    if t in ("f2", "gf2", "z2"):
        return "f2"
    raise ValueError(f"unknown coefficient field {tag!r}")


@dataclass(frozen=True)
class BettiReport:
    field: str
    betti: tuple
    euler: int

    def __str__(self) -> str:
        tag = "Q" if self.field == "q" else "F2"
        bs = ",".join(str(b) for b in self.betti)
        return f"betti ({bs}) euler {self.euler} over {tag}"

    def to_doc(self) -> dict:
        return {"field": self.field, "betti": list(self.betti),
                "euler": self.euler}


class _Engine:
    """Column reduction with deterministic largest-row pivots.

    Over Q a column is a {row: int} dict, reduced fraction-free: the two
    columns are cross-multiplied by their low entries over the gcd of
    those, and the result is divided by the gcd of its entries.  Over F2
    a column is a set of rows, reduced by symmetric difference.  With
    log, every column carries the combination of input tags it equals,
    and the combination of each column that reduces to zero is kept in
    `cycles`.
    """

    def __init__(self, f2: bool, log: bool = False):
        self.f2 = f2
        self.log = log
        self.pivots: dict = {}
        self.combs: dict = {}
        self.cycles: list = []

    def add(self, col, tag=None) -> None:
        """Reduce col in place, then keep it as a pivot or log its cycle."""
        comb = None
        if self.log:
            comb = {tag} if self.f2 else {tag: 1}
        while col:
            low = max(col)
            other = self.pivots.get(low)
            if other is None:
                self.pivots[low] = col
                if comb is not None:
                    self.combs[low] = comb
                return
            if self.f2:
                col ^= other
                if comb is not None:
                    comb ^= self.combs[low]
            else:
                _eliminate(col, comb, other, self.combs.get(low), low)
        if comb is not None:
            self.cycles.append(comb)


def _eliminate(col: dict, comb, other: dict, ocomb, low) -> None:
    """col <- (b col - a other) / content, a and b the entries at low.

    A logged comb takes the same steps against ocomb, and the content
    is taken over both, so col stays the combination comb describes.
    """
    a, b = col[low], other[low]
    g = gcd(a, b)
    ka, kb = b // g, a // g
    if ka < 0:
        ka, kb = -ka, -kb
    for vec, ovec in ((col, other), (comb, ocomb)):
        if vec is None:
            continue
        if ka != 1:
            for r in vec:
                vec[r] *= ka
        for r, v in ovec.items():
            nv = vec.get(r, 0) - kb * v
            if nv:
                vec[r] = nv
            else:
                del vec[r]
    g = gcd(*col.values(), *(comb.values() if comb else ()))
    if g > 1:
        for vec in (col, comb or {}):
            for r in vec:
                vec[r] //= g


def _validate(K: SimplicialComplex):
    nv = len(K.vertices)
    if len(set(K.vertices)) != nv:
        raise ValueError("complex repeats a vertex")
    for t in K.tops:
        if len(set(t)) != len(t) or any(i < 0 or i >= nv for i in t):
            raise ValueError(f"bad simplex {t}")


def _chain_data(*complexes: SimplicialComplex):
    """Sorted faces by dimension of the disjoint union, with their indices.

    Vertex indices of each complex are shifted past those of the ones
    before it, so in every dimension the simplices of earlier complexes
    come first.
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


def _boundary_columns(simp, idx, d: int, f2: bool, skip=()):
    """(index, column) of each d-simplex whose index is not in skip.

    Columns are sets of face indices over F2 and {face index: +-1}
    dicts over Q; a vertex has the empty column.
    """
    rows = idx.get(d - 1)
    signs = (1, -1) * (d // 2 + 1)
    for j, s in enumerate(simp.get(d, ())):
        if j in skip:
            continue
        faces = [rows[s[:i] + s[i + 1:]] for i in range(d + 1)] if d else ()
        yield j, set(faces) if f2 else dict(zip(faces, signs))


def _reductions(simp, idx, f2: bool, top: int, log: bool = False):
    """Reduce the boundary maps from dimension top down to 0.

    Yields (d, engine) once the engine holds the reduced columns of the
    map from dimension d; the caller may add more cycles to it before
    resuming.  Clearing: the row of every pivot at dimension d + 1 is
    the leading simplex of a cycle, so its own column would reduce to
    zero and is skipped.  With log, the cycles an engine keeps are then
    a basis of homology in its dimension.
    """
    cleared: dict = {}
    for d in range(top, -1, -1):
        eng = _Engine(f2, log)
        for j, col in _boundary_columns(simp, idx, d, f2, cleared):
            eng.add(col, j)
        yield d, eng
        cleared = eng.pivots


def _betti_numbers(simp, ranks: dict) -> tuple:
    return tuple(len(simp[d]) - ranks[d] - ranks.get(d + 1, 0)
                 for d in range(max(simp) + 1))


def betti(K: SimplicialComplex, field="q") -> BettiReport:
    """Betti numbers of K in every dimension, by exact rank computation."""
    tag = _normalize_field(field)
    _validate(K)
    if not K.tops:
        return BettiReport(tag, (), 0)
    simp, idx = _chain_data(K)
    ranks = {d: len(eng.pivots)
             for d, eng in _reductions(simp, idx, tag == "f2", max(simp))}
    return BettiReport(tag, _betti_numbers(simp, ranks),
                       euler_characteristic(K))


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
        if img not in faces.get(len(img) - 1, ()):
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
    the two pieces; both inclusions must be simplicial.  Betti numbers
    of the union come from the long exact sequence, with the connecting
    ranks computed from mapped cycle representatives.
    """
    tag = _normalize_field(field)
    f2 = tag == "f2"
    for K in (ka, kb, kint):
        _validate(K)
    _check_inclusion(kint, ka, map_a)
    _check_inclusion(kint, kb, map_b)
    si, ii = _chain_data(kint)
    reps = {d: eng.cycles
            for d, eng in _reductions(si, ii, f2, kint.dim, log=True)}
    # both pieces at once: the chain complex of A (+) B is that of A |_| B
    su, iu = _chain_data(ka, kb)
    shift = len(ka.vertices)

    def _mapped(cycle, d: int):
        # image of an intersection cycle in the A (+) B chain group
        out = set() if f2 else {}
        for p in cycle:
            s = si[d][p]
            img_a = [map_a[i] for i in s]
            img_b = [map_b[i] + shift for i in s]
            ra = iu[d][tuple(sorted(img_a))]
            rb = iu[d][tuple(sorted(img_b))]
            # the inclusions are injective: no two simplices share an image
            if f2:
                out.update((ra, rb))
            else:
                out[ra] = cycle[p] * _sort_sign(img_a)
                out[rb] = cycle[p] * _sort_sign(img_b)
        return out

    top = max(ka.dim, kb.dim)
    ranks, psi = {}, {}
    for d, eng in _reductions(su, iu, f2, top + 1):
        ranks[d] = len(eng.pivots)
        for cycle in reps.get(d - 1, ()):
            eng.add(_mapped(cycle, d - 1))
        psi[d - 1] = len(eng.pivots) - ranks[d]
    bs = list(_betti_numbers(su, ranks)) if top >= 0 else []
    for d in range(top + 1):
        bs[d] -= psi[d]
        if d >= 1:
            bs[d] += len(reps.get(d - 1, ())) - psi[d - 1]
    euler = (euler_characteristic(ka) + euler_characteristic(kb)
             - euler_characteristic(kint))
    return BettiReport(tag, tuple(bs), euler)
