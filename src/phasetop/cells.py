"""The finite label lattice behind the slice decomposition.

Each coordinate of a cell label carries one of five symbols: the two
fixed points 1 and -1 on the unit circle, the closed upper and lower
half-circles U and L, and the full disc F.  The symbols are ordered by
containment of the regions they name: 1 and -1 sit below U and L, which
sit below F.  A label is admissible when coordinate n is exactly the
symbol 1, some earlier coordinate is constrained (-1, U, or L), and
every half-circle coordinate has a partner that closes a zero sum.

Text form: comma-separated tokens from {1, -1, U, L, F}.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .order_complex import DiscPoint, ModelPoint
from .phase import Angle

__all__ = [
    "PLabel",
    "p_leq",
    "CellLabel",
    "in_pn",
    "pn_elements",
    "ul_label",
    "meet",
    "meet_all",
    "cell_leq",
    "nu",
    "bx_member",
    "bx_sample",
    "upper_param",
    "lower_param",
    "parse_cell_label",
    "format_cell_label",
]

HALF = Fraction(1, 2)
ONE_F = Fraction(1)
# the disc points named by the symbols 1 and -1 (frozen, so shared)
_ONE_POINT = DiscPoint.of(1, 0)
_MINUS_ONE_POINT = DiscPoint.of(1, HALF)


class PLabel(Enum):
    ONE = "1"
    MINUS_ONE = "-1"
    UPPER = "U"
    LOWER = "L"
    FULL = "F"

    @property
    def token(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value


_POINTS = frozenset({PLabel.ONE, PLabel.MINUS_ONE})
_BELOW = {  # the symbols strictly below each symbol
    PLabel.ONE: frozenset(),
    PLabel.MINUS_ONE: frozenset(),
    PLabel.UPPER: _POINTS,
    PLabel.LOWER: _POINTS,
    PLabel.FULL: _POINTS | {PLabel.UPPER, PLabel.LOWER},
}


def p_leq(a: PLabel, b: PLabel) -> bool:
    """The label order: 1, -1 below U, L below F; no other relations."""
    return a == b or a in _BELOW[b]


@dataclass(frozen=True)
class CellLabel:
    """An admissible cell label: a tuple of symbols passing in_pn."""

    labels: tuple[PLabel, ...]

    def __post_init__(self) -> None:
        if not in_pn(self.labels):
            text = ",".join(getattr(l, "value", str(l)) for l in self.labels)
            raise ValueError(f"not an admissible cell label: {text}")

    @staticmethod
    def of(tokens: Iterable) -> "CellLabel":
        labs = []
        for t in tokens:
            labs.append(t if isinstance(t, PLabel) else PLabel(str(t)))
        return CellLabel(tuple(labs))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> PLabel:
        return self.labels[i]

    def __iter__(self) -> Iterator[PLabel]:
        return iter(self.labels)

    def __str__(self) -> str:
        return format_cell_label(self)


_PARTNERS = {  # the symbols that can close a zero sum with each half-circle
    PLabel.UPPER: {PLabel.LOWER, PLabel.MINUS_ONE},
    PLabel.LOWER: {PLabel.UPPER, PLabel.MINUS_ONE},
}


def in_pn(labels: Sequence[PLabel]) -> bool:
    """Whether a label tuple is admissible.

    (1) the symbol 1 appears exactly at the last coordinate; (2) some
    earlier coordinate is -1, U, or L; (3) each U or L coordinate has a
    partner among the earlier coordinates, of complementary type (U
    pairs with L or -1, L pairs with U or -1).
    """
    n = len(labels)
    if n < 3:
        raise ValueError("cell labels need n >= 3")
    head = set(labels[: n - 1])
    if labels[n - 1] != PLabel.ONE or PLabel.ONE in head:
        return False
    if head == {PLabel.FULL}:
        return False
    # a U and its partner never share an index, so the head as a set decides
    return all(head & want for lab, want in _PARTNERS.items() if lab in head)


def pn_elements(n: int) -> list[CellLabel]:
    """All admissible labels of length n, lexicographic in token order."""
    if n < 3:  # not left to in_pn: its ValueError would read as inadmissible
        raise ValueError("cell labels need n >= 3")
    cands = (head + (PLabel.ONE,)
             for head in itertools.product(PLabel, repeat=n - 1))  # token order
    return [CellLabel(c) for c in cands if in_pn(c)]


def ul_label(j: int, k: int, n: int) -> CellLabel:
    """The chart label for any ordered pair (j, k) in [n-1]^2.

    j = k places -1 at j; otherwise U sits at j and L at k.  The rest of
    the head is F and the last coordinate is 1.  The union of these over
    all k covers the region where coordinate j runs over the upper
    half-circle.
    """
    if not (1 <= j <= n - 1 and 1 <= k <= n - 1):
        raise ValueError("indices must lie in [1, n-1]")
    labs = [PLabel.FULL] * n
    labs[n - 1] = PLabel.ONE
    if j == k:
        labs[j - 1] = PLabel.MINUS_ONE
    else:
        labs[j - 1] = PLabel.UPPER
        labs[k - 1] = PLabel.LOWER
    return CellLabel(tuple(labs))


# the smaller symbol of each comparable pair; {U, L} drops to -1 (the
# symbol 1 being reserved for the last coordinate) and {1, -1} has no meet
_MEET = {(a, b): a if p_leq(a, b) else b
         for a in PLabel for b in PLabel if p_leq(a, b) or p_leq(b, a)}
_MEET[PLabel.UPPER, PLabel.LOWER] = PLabel.MINUS_ONE
_MEET[PLabel.LOWER, PLabel.UPPER] = PLabel.MINUS_ONE


def meet(x: CellLabel, y: CellLabel) -> CellLabel:
    """Greatest lower bound of two admissible labels.

    Componentwise in the symbol order, except that the incomparable pair
    {U, L} drops to -1.  The result is revalidated; a failure would mean
    the componentwise rule left the admissible set, which does not happen.
    """
    if len(x) != len(y):
        raise ValueError("labels must share a length")
    out = []
    for a, b in zip(x, y):
        if (a, b) not in _MEET:
            raise ValueError(f"no meet for symbols {a}, {b}")
        out.append(_MEET[a, b])
    return CellLabel(tuple(out))


def meet_all(xs: Sequence[CellLabel]) -> CellLabel:
    if not xs:
        raise ValueError("empty meet")
    acc = xs[0]
    for x in xs[1:]:
        acc = meet(acc, x)
    return acc


def cell_leq(x: CellLabel, y: CellLabel) -> bool:
    """Componentwise label order on admissible labels."""
    if len(x) != len(y):
        raise ValueError("labels must share a length")
    return all(p_leq(a, b) for a, b in zip(x, y))


def verify_meet_glb(n: int) -> tuple[bool, tuple[CellLabel, CellLabel] | None]:
    """Exhaustively certify that meet computes greatest lower bounds.

    For every pair of admissible labels, the set of common lower bounds
    must equal the principal down-set of the computed meet.  Down-sets
    are packed into bitmasks so the whole check is quadratic, not cubic.
    Returns (True, None), or (False, (x, y)) with the first bad pair.
    """
    elems = pn_elements(n)
    index = {x: i for i, x in enumerate(elems)}
    down = []
    for x in elems:
        mask = 0
        for i, z in enumerate(elems):
            if cell_leq(z, x):
                mask |= 1 << i
        down.append(mask)
    for i, x in enumerate(elems):
        for j in range(i, len(elems)):
            y = elems[j]
            m = meet(x, y)
            if down[index[m]] != down[i] & down[j]:
                return False, (x, y)
    return True, None


def nu(x: CellLabel) -> int:
    """Cell dimension: one per half-circle symbol, two per disc symbol."""
    count = 0
    for lab in x:
        if lab in (PLabel.UPPER, PLabel.LOWER):
            count += 1
        elif lab == PLabel.FULL:
            count += 2
    return count


# ---------------------------------------------------------------------------
# Exact membership for the realized cells in the slice z_n = 1
# ---------------------------------------------------------------------------


def upper_param(c: DiscPoint) -> Fraction | None:
    """The parameter t of a point (1, t/2) on the upper half-circle.

    None when the point is off that half-circle.
    """
    if c.radius != 1:
        return None
    if c.angle.turns > HALF:
        return None
    return 2 * c.angle.turns


def lower_param(c: DiscPoint) -> Fraction | None:
    """The parameter t of a point (1, 1/2 + t/2) on the lower half-circle.

    The wrap point at angle 0 is t = 1.  None off the half-circle.
    """
    if c.radius != 1:
        return None
    if c.angle.turns == 0:
        return ONE_F
    if c.angle.turns < HALF:
        return None
    return 2 * (c.angle.turns - HALF)


def bx_member(x: CellLabel, z: ModelPoint, mode: str = "closed") -> bool:
    """Whether the slice point z lies in the cell named by x.

    Closed mode tests the parametrized closed cell: the last coordinate
    pinned at (1, 0), each coordinate inside the region its symbol
    names, and every (U, L) coordinate pair (alpha, beta) satisfying
    t_beta <= t_alpha.  Interior mode makes every comparison strict and
    keeps disc coordinates off the boundary circle.
    """
    if mode not in ("closed", "interior"):
        raise ValueError("mode is 'closed' or 'interior'")
    if len(x) != len(z):
        raise ValueError("lengths differ")
    strict = mode == "interior"
    u_params: list[Fraction] = []
    l_params: list[Fraction] = []
    for lab, c in zip(x, z.coords):
        if lab == PLabel.ONE:
            if c != _ONE_POINT:
                return False
        elif lab == PLabel.MINUS_ONE:
            if c != _MINUS_ONE_POINT:
                return False
        elif lab == PLabel.UPPER:
            t = upper_param(c)
            if t is None or (strict and not 0 < t < 1):
                return False
            u_params.append(t)
        elif lab == PLabel.LOWER:
            t = lower_param(c)
            if t is None or (strict and not 0 < t < 1):
                return False
            l_params.append(t)
        else:  # FULL
            if strict and c.radius >= 1:
                return False
    for ta in u_params:
        for tb in l_params:
            if tb > ta or (strict and tb == ta):
                return False
    return True


def _region(labs: Iterable[PLabel]) -> PLabel | frozenset | None:
    """Where the regions of the given symbols meet.

    The symbol order is containment, so this is the least symbol.  The
    incomparable U and L meet in the two points _POINTS; 1 and -1 meet
    nowhere (None).
    """
    region = PLabel.FULL
    for lab in labs:
        if region is _POINTS:
            if lab in _POINTS:
                region = lab
        elif p_leq(lab, region):
            region = lab
        elif not p_leq(region, lab):
            if region in _POINTS:
                return None
            region = _POINTS
    return region


def _draw(regions: Sequence, charts: Sequence[CellLabel], rng: random.Random,
          den: int, interior: bool = False, corner: bool = False) -> ModelPoint:
    """A rational point of the coordinate regions (from _region or symbols).

    The first pass draws the U parameters and picks the points, the
    second draws L and F, each in coordinate order.  A lower parameter
    stays below the upper one of every coordinate that is U in a chart
    with L at it.  interior keeps every draw off the region's boundary;
    corner draws nothing: the two points, U and L all take -1, and F
    takes the centre.
    """
    lo, hi = (1, den - 1) if interior else (0, den)
    coords: list = [None] * len(regions)
    for i, region in enumerate(regions):
        if region is PLabel.UPPER:
            u = den if corner else rng.randint(lo, hi)
            coords[i] = DiscPoint(ONE_F, Angle(Fraction(u, den) / 2))
        elif region is _POINTS:
            coords[i] = _MINUS_ONE_POINT if corner else rng.choice(
                (_ONE_POINT, _MINUS_ONE_POINT))
        elif region is PLabel.ONE:
            coords[i] = _ONE_POINT
        elif region is PLabel.MINUS_ONE:
            coords[i] = _MINUS_ONE_POINT
    for i, region in enumerate(regions):
        if region is PLabel.LOWER:
            bound = min((upper_param(coords[a]) for x in charts
                         if x[i] is PLabel.LOWER
                         for a, lab in enumerate(x) if lab is PLabel.UPPER),
                        default=ONE_F)
            t = 0 if corner else bound * Fraction(rng.randint(lo, hi), den)
            coords[i] = DiscPoint(ONE_F, Angle(HALF + t / 2))
        elif region is PLabel.FULL:
            if corner:
                coords[i] = DiscPoint.center()
            else:
                r = Fraction(rng.randint(0, den - 1 if interior else den), den)
                coords[i] = DiscPoint(r, Angle(Fraction(rng.randint(0, den - 1), den)))
    return ModelPoint(tuple(coords))


def bx_sample(
    x: CellLabel, seed: int, interior: bool = False, den: int = 16
) -> ModelPoint:
    """A deterministic rational point of the cell (or of its interior).

    Different seeds walk different points; the same seed always returns
    the same point.  den controls the denominator of the sampled
    rationals.
    """
    rng = random.Random(f"bx:{format_cell_label(x)}:{seed}:{interior}:{den}")
    return _draw(x.labels, (x,), rng, den, interior)


def parse_cell_label(text: str) -> CellLabel:
    return CellLabel.of(t.strip() for t in text.split(","))


def format_cell_label(x: CellLabel) -> str:
    return ",".join(lab.token for lab in x)
