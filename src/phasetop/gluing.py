"""Hypothesis checking for glued families of balls, and the slice claims.

A union of d-balls is again a d-ball when every sub-collection meets in
a ball of the expected dimension and each such intersection sits in the
boundary of the one-smaller intersections.
`check_gluing` verifies those hypotheses for a concrete family through
three oracles (dimension, meet, boundary); `verify_slice_claims` drives
it over the chart families of the slice decomposition and adds sampled
set-identity checks with exact membership predicates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cells import (
    _ONE_POINT,
    _draw,
    _region,
    CellLabel,
    bx_member,
    bx_sample,
    cell_leq,
    format_cell_label,
    lower_param,
    meet,
    meet_all,
    nu,
    pn_elements,
    ul_label,
)
from .order_complex import DiscPoint, ModelPoint
from .phase import Angle
from .report import CheckResult, VerificationReport, run_check

__all__ = [
    "GluingFamily",
    "GluingReport",
    "check_gluing",
    "lattice_family",
    "chart_family",
    "dimension_witness",
    "sample_charts_point",
    "random_slice_point",
    "verify_slice_claims",
]


@dataclass
class GluingFamily:
    """A family of cells with the oracles the gluing hypotheses need.

    meet_of returns None when a sub-family has no meet; in_boundary(a, b)
    answers whether cell a lies in the boundary of cell b.
    """

    cells: list
    ambient_dim: int
    dim_of: Callable
    meet_of: Callable
    in_boundary: Callable


@dataclass
class GluingReport:
    passed: bool
    violations: list  # (subset of 1-based indices, hypothesis id, detail)

    def summary(self) -> str | None:
        if self.passed:
            return None
        head = self.violations[0]
        return f"{len(self.violations)} violation(s); first: J={head[0]} {head[1]}: {head[2]}"


def check_gluing(f: GluingFamily) -> GluingReport:
    """Check the gluing hypotheses for the family.

    Reported per subset J of the family (1-based indices): the meet of
    the cells over J must exist, have dimension d - |J| + 1, and lie in
    the boundary of every meet over J minus one member.  Family-level
    prechecks (size m <= d + 1, distinct cells, each cell of dimension
    d) are violations too, never crashes.
    """
    violations = []
    m = len(f.cells)
    d = f.ambient_dim
    if len(set(f.cells)) != m:
        violations.append(((), "distinct", "duplicate cells in family"))
    if m > d + 1:
        violations.append(((), "size", f"m={m} exceeds d+1={d + 1}"))
    for i, c in enumerate(f.cells):
        di = f.dim_of(c)
        if di != d:
            violations.append(((i + 1,), "cell-dim", f"dim={di}, expected {d}"))
    for size in range(2, m + 1):
        for J in itertools.combinations(range(m), size):
            tag = tuple(i + 1 for i in J)
            mt = f.meet_of(tuple(f.cells[i] for i in J))
            if mt is None:
                violations.append((tag, "meet-undefined", "no common lower bound"))
                continue
            want = d - size + 1
            got = f.dim_of(mt)
            if got != want:
                violations.append((tag, "dim", f"dim={got}, expected {want}"))
            for r in J:
                sub = f.meet_of(tuple(f.cells[i] for i in J if i != r))
                if sub is None:
                    violations.append(
                        (tag, f"boundary-drop-{r + 1}", "sub-meet undefined")
                    )
                elif not f.in_boundary(mt, sub):
                    violations.append(
                        (tag, f"boundary-drop-{r + 1}",
                         f"{mt} not in the boundary of {sub}")
                    )
    return GluingReport(not violations, violations)


def lattice_family(cells: Sequence[CellLabel], ambient_dim: int) -> GluingFamily:
    """Oracles for cell labels: dimension nu, lattice meet, strict order.

    Boundary containment is certified by the lattice: a strictly smaller
    label names a cell inside the boundary of the bigger one.
    """

    def meet_of(xs):
        try:
            return meet_all(list(xs))
        except ValueError:
            return None

    def in_boundary(a, b):
        return a != b and cell_leq(a, b)

    return GluingFamily(list(cells), ambient_dim, nu, meet_of, in_boundary)


def chart_family(J: Sequence[int], n: int) -> GluingFamily:
    """The chart family of J: one meet over J of ul_label(j, k, n) per k.

    Its cells should have dimension 2n - 3 - |J|, the family's ambient
    dimension; for a single j these are the charts of coordinate j.
    """
    cells = [meet_all([ul_label(j, k, n) for j in J]) for k in range(1, n)]
    return lattice_family(cells, 2 * n - 3 - len(J))


def dimension_witness(f: GluingFamily) -> str | None:
    """None if every cell has the ambient dimension, else the first that has not."""
    for k, c in enumerate(f.cells, 1):
        got = f.dim_of(c)
        if got != f.ambient_dim:
            return (f"k={k}: nu({format_cell_label(c)}) = {got},"
                    f" wanted {f.ambient_dim}")
    return None


# ---------------------------------------------------------------------------
# Exact rational sampling of chart intersections
# ---------------------------------------------------------------------------

def sample_charts_point(
    charts: Sequence[CellLabel], seed: int, den: int = 16
) -> Optional[ModelPoint]:
    """A deterministic rational point lying in every given chart.

    Coordinates are drawn inside the intersection of the per-coordinate
    regions, lower half-circle parameters are kept below the upper ones
    they are paired with in each chart, and the candidate is accepted
    only after the exact membership predicates of all charts agree.  A
    final all-corners fallback makes the sampler total on families whose
    intersection is nonempty (which covers every chart family here);
    None signals a provably empty coordinate intersection.
    """
    n = len(charts[0])
    if any(len(x) != n for x in charts):
        raise ValueError("charts must share a length")
    regions = [_region(col) for col in zip(*charts)]
    if None in regions:
        return None
    key = ";".join(format_cell_label(c) for c in charts)
    rng = random.Random(f"charts:{key}:{seed}:{den}")
    for attempt in range(8):  # the last is the guaranteed-feasible corner
        z = _draw(regions, charts, rng, den, corner=attempt == 7)
        if all(bx_member(x, z, "closed") for x in charts):
            return z
    return None


def random_slice_point(rng: random.Random, n: int, den: int = 8) -> ModelPoint:
    """A random rational point of the slice (last coordinate pinned).

    Radii are biased toward 1 so the half-circle cells get hit.
    """
    coords = []
    for _ in range(n - 1):
        roll = rng.random()
        if roll < 0.55:
            r = Fraction(1)
        elif roll < 0.7:
            r = Fraction(0)
        else:
            r = Fraction(rng.randint(0, den), den)
        coords.append(DiscPoint(r, Angle(Fraction(rng.randint(0, 2 * den - 1), 2 * den))))
    coords.append(_ONE_POINT)
    return ModelPoint(tuple(coords))


# ---------------------------------------------------------------------------
# The slice claims, end to end
# ---------------------------------------------------------------------------


def verify_slice_claims(n: int, samples: int = 1000, seed: int = 0) -> VerificationReport:
    """Combinatorial and sampled verification of the slice decomposition.

    Combinatorial layer (any n): every per-coordinate chart family and
    every cross-family of meets passes the gluing hypotheses, with the
    dimension formula 2n - 3 - |J| for meets over J.  Sampled layer
    (n <= 4): the boundary and intersection facts about cells, the
    two-family union identity, and the half-circle parameter dichotomy,
    all on deterministic rational points tested with exact predicates.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rep = VerificationReport(
        suite="slice-claims", seed=seed, params={"n": n, "samples": samples}
    )
    idx = list(range(1, n))  # the constrained coordinates

    def meets_admissible():
        charts = [ul_label(j, k, n) for j in idx for k in idx]
        for size in (2, 3):
            for combo in itertools.combinations(charts, size):
                try:
                    meet_all(list(combo))
                except ValueError:
                    return "meet left the lattice: " + ", ".join(
                        format_cell_label(c) for c in combo
                    )
        return None

    rep.add(run_check("meets-stay-admissible", meets_admissible, n=n))

    for j in idx:
        rep.add(run_check(f"family-gluing:j={j}",
                          lambda j=j: check_gluing(chart_family((j,), n)).summary(),
                          n=n, d=2 * n - 4))

    for size in range(2, n):
        for J in itertools.combinations(idx, size):
            jtag = ",".join(str(j) for j in J)
            rep.add(run_check(f"cross-dim:J={{{jtag}}}",
                              lambda J=J: dimension_witness(chart_family(J, n)),
                              n=n))
            rep.add(run_check(f"cross-gluing:J={{{jtag}}}",
                              lambda J=J: check_gluing(chart_family(J, n)).summary(),
                              n=n, d=2 * n - 3 - size))

    if n > 4:
        for name in ("sampled:boundary-containment", "sampled:chart-intersection",
                     "sampled:union-identity", "sampled:dichotomy"):
            rep.add(CheckResult(name, "skip", {"n": n},
                                witness="sampled layer runs at n <= 4"))
        return rep

    elems = pn_elements(n)

    def boundary_witness():
        pairs = [(x, y) for x in elems for y in elems
                 if x != y and cell_leq(x, y)]
        per = max(1, -(-samples // len(pairs)))
        for x, y in pairs:
            for s in range(per):
                z = bx_sample(x, seed * 100003 + s)
                if not bx_member(y, z, "closed"):
                    return f"{x} sample {z} escapes the closed cell {y}"
                if bx_member(y, z, "interior"):
                    return f"{x} sample {z} lands in the interior of {y}"
        return None

    rep.add(run_check("sampled:boundary-containment", boundary_witness,
                      n=n, samples=samples))

    def intersection_witness():
        subsets = [J for size in range(2, n)
                   for J in itertools.combinations(idx, size)]
        per = max(1, -(-samples // max(1, len(idx) * len(subsets) * 3)))
        for j in idx:
            for J in subsets:
                charts = [ul_label(j, k, n) for k in J]
                mt = meet_all(charts)
                for s in range(per):
                    z = bx_sample(mt, seed * 7 + s)
                    if not all(bx_member(c, z, "closed") for c in charts):
                        return f"meet sample {z} escapes a chart of j={j}, J={J}"
                    z = sample_charts_point(charts, seed * 13 + s)
                    if z is None:
                        return f"no intersection point for j={j}, J={J}"
                    if not bx_member(mt, z, "closed"):
                        return f"intersection point {z} misses the meet {mt}"
                    for c in charts:
                        zc = bx_sample(c, seed * 31 + s)
                        in_all = all(bx_member(c2, zc, "closed") for c2 in charts)
                        if in_all != bx_member(mt, zc, "closed"):
                            return f"chart sample {zc} disagrees for j={j}, J={J}"
        return None

    rep.add(run_check("sampled:chart-intersection", intersection_witness,
                      n=n, samples=samples))

    ul12 = {(j, k): ul_label(j, k, n) for j in (1, 2) for k in idx}
    union_cells = {k: meet(ul12[(1, k)], ul12[(2, k)]) for k in idx}

    def in_family(z, j):
        return any(bx_member(ul12[(j, k)], z, "closed") for k in idx)

    def in_union(z):
        return any(bx_member(c, z, "closed") for c in union_cells.values())

    def union_witness():
        sources = len(idx) + len(idx) ** 2 + 1
        per = max(1, -(-samples // sources))
        for k in idx:
            for s in range(per):
                z = bx_sample(union_cells[k], seed * 37 + s)
                if not (in_family(z, 1) and in_family(z, 2)):
                    return f"union cell k={k} sample {z} misses a family"
        for k in idx:
            for l in idx:
                for s in range(per):
                    z = sample_charts_point([ul12[(1, k)], ul12[(2, l)]],
                                            seed * 41 + s)
                    if z is None:
                        return f"no sample for chart pair k={k}, l={l}"
                    if not in_union(z):
                        return (f"point {z} of charts (1,{k}) and (2,{l}) "
                                "misses every union cell")
        rng = random.Random(f"union:{n}:{seed}")
        for _ in range(per):
            z = random_slice_point(rng, n)
            if (in_family(z, 1) and in_family(z, 2)) != in_union(z):
                return f"random point {z} breaks the union identity"
        return None

    rep.add(run_check("sampled:union-identity", union_witness,
                      n=n, samples=samples))

    def dichotomy_witness():
        pairs = [(k, l) for k in idx for l in idx if k != l]
        per = max(1, -(-samples // len(pairs)))
        for k, l in pairs:
            for s in range(per):
                z = sample_charts_point([ul12[(1, k)], ul12[(2, l)]],
                                        seed * 43 + s)
                if z is None:
                    return f"no sample for chart pair k={k}, l={l}"
                tk = lower_param(z[k - 1])
                tl = lower_param(z[l - 1])
                if tk is None or tl is None:
                    return f"point {z} misses a lower half-circle"
                if tk <= tl and not bx_member(union_cells[k], z, "closed"):
                    return f"t_{k}={tk} <= t_{l}={tl} but {z} misses side {k}"
                if tl <= tk and not bx_member(union_cells[l], z, "closed"):
                    return f"t_{l}={tl} <= t_{k}={tk} but {z} misses side {l}"
        return None

    rep.add(run_check("sampled:dichotomy", dichotomy_witness,
                      n=n, samples=samples))
    return rep
