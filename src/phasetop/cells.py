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

import functools
import itertools
import random
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .order_complex import DiscPoint, ModelPoint
from .phase import HALF, ONE, Angle, value_type

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
    "verify_meet_glb",
    "nu",
    "bx_member",
    "bx_sample",
    "lower_param",
    "parse_cell_label",
    "format_cell_label",
]

# the disc points named by the symbols 1 and -1 (frozen, so shared)
_ONE_POINT = DiscPoint.of(1, 0)
_MINUS_ONE_POINT = DiscPoint.of(1, HALF)
_DEN = 16  # cells and chart intersections are sampled over 16ths


# The draws' points over 16ths, frozen and shared, each built on first draw:
# upper by parameter, lower by parameter over 16ths squared, disc by the
# numerators of radius and angle.
@functools.cache
def _upper_at(u: int) -> DiscPoint:
    return DiscPoint(ONE, Angle.of_ratio(u, 2 * _DEN))


@functools.cache
def _lower_at(t: int) -> DiscPoint:
    return DiscPoint(ONE, Angle.of_ratio(_DEN * _DEN + t, 2 * _DEN * _DEN))


@functools.cache
def _disc_at(r: int, a: int) -> DiscPoint:
    return DiscPoint.of_ratio(r, _DEN, Angle.of_ratio(a, _DEN))


class PLabel(Enum):
    ONE = "1"
    MINUS_ONE = "-1"
    UPPER = "U"
    LOWER = "L"
    FULL = "F"

    __hash__ = object.__hash__  # members are singletons; Enum's hash is slow

    def __str__(self) -> str:
        return self.value


# the symbols as plain names for the hot predicates: a lookup on the enum
# class costs several times as much
_ONE, _MINUS_ONE, _UPPER, _LOWER, _FULL = PLabel
_POINTS = frozenset({PLabel.ONE, PLabel.MINUS_ONE})
# the label order, its one copy: the pairs (a, b) with a <= b, that is each
# symbol with itself, 1 and -1 below U and L, and all four below F
_LEQ = frozenset({
    (_ONE, _ONE), (_MINUS_ONE, _MINUS_ONE), (_UPPER, _UPPER), (_LOWER, _LOWER),
    (_FULL, _FULL), (_ONE, _UPPER), (_MINUS_ONE, _UPPER), (_ONE, _LOWER),
    (_MINUS_ONE, _LOWER), (_ONE, _FULL), (_MINUS_ONE, _FULL), (_UPPER, _FULL),
    (_LOWER, _FULL)})


def p_leq(a: PLabel, b: PLabel) -> bool:
    """The label order (the pairs of _LEQ): 1, -1 below U, L below F."""
    return (a, b) in _LEQ


# each symbol's text, and its share of the cell dimension
_TOKEN = {lab: lab.value for lab in PLabel}
_NU = {_ONE: 0, _MINUS_ONE: 0, _UPPER: 1, _LOWER: 1, _FULL: 2}


@value_type
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
        for t in tokens:  # a symbol's str is its token
            try:
                labs.append(PLabel(str(t)))
            except ValueError:
                raise ValueError(f"unknown cell symbol {str(t)!r}: "
                                 "use 1, -1, U, L or F") from None
        return CellLabel(tuple(labs))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> PLabel:
        return self.labels[i]

    def __iter__(self) -> Iterator[PLabel]:
        return iter(self.labels)

    def __str__(self) -> str:
        return format_cell_label(self)


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
    if labels[n - 1] is not _ONE or _ONE in head:
        return False
    # a -1 partners any half-circle; without one, U and L must partner each
    # other, and a head of F alone has no constrained coordinate
    return _MINUS_ONE in head or (_UPPER in head and _LOWER in head)


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
    # a label's symbol tuple, or a raw tuple: its len and zip run in C
    x, y = getattr(x, "labels", x), getattr(y, "labels", y)
    if len(x) != len(y):
        raise ValueError("labels must share a length")
    try:
        labs = tuple(map(_MEET.__getitem__, zip(x, y)))
    except KeyError as miss:
        a, b = miss.args[0]
        raise ValueError(f"no meet for symbols {a}, {b}") from None
    return CellLabel(labs)


def meet_all(xs: Sequence[CellLabel]) -> CellLabel:
    if not xs:
        raise ValueError("empty meet")
    return functools.reduce(meet, xs)


def cell_leq(x: CellLabel, y: CellLabel) -> bool:
    """Componentwise label order on admissible labels."""
    x, y = getattr(x, "labels", x), getattr(y, "labels", y)
    if len(x) != len(y):
        raise ValueError("labels must share a length")
    return _LEQ.issuperset(zip(x, y))


def _down_sets(elems: Sequence[CellLabel]) -> list[int]:
    """The principal down-set of each label, as a bitmask over elems.

    The order is componentwise, so a down-set is the AND over the
    coordinates of the labels whose symbol there lies below x's.
    """
    below = []  # per coordinate: each symbol's mask of the labels below it
    for col in zip(*elems):
        masks = {s: 0 for s in PLabel}
        for b, a in enumerate(col):
            for s in masks:
                if p_leq(a, s):
                    masks[s] |= 1 << b
        below.append(masks)
    down = []
    for x in elems:
        mask = -1
        for masks, s in zip(below, x):
            mask &= masks[s]
        down.append(mask)
    return down


def verify_meet_glb(n: int) -> tuple[bool, tuple[CellLabel, CellLabel] | None]:
    """Exhaustively certify that meet computes greatest lower bounds.

    For every pair of admissible labels, the set of common lower bounds
    must equal the principal down-set of the computed meet.  Down-sets
    are packed into bitmasks so the whole check is quadratic, not cubic.
    Returns (True, None), or (False, (x, y)) with the first bad pair.
    """
    elems = pn_elements(n)
    index = {x.labels: i for i, x in enumerate(elems)}  # a tuple hashes in C
    down = _down_sets(elems)
    for i, x in enumerate(elems):
        for j in range(i, len(elems)):
            y = elems[j]
            m = meet(x, y)
            if down[index[m.labels]] != down[i] & down[j]:
                return False, (x, y)
    return True, None


def nu(x: CellLabel) -> int:
    """Cell dimension: one per half-circle symbol, two per disc symbol."""
    return sum(map(_NU.__getitem__, x))


# ---------------------------------------------------------------------------
# Exact membership for the realized cells in the slice z_n = 1; a disc point
# lies on the boundary circle when its radius's ratio num/den is 1/1
# ---------------------------------------------------------------------------


def _upper(c: DiscPoint) -> tuple[int, int] | None:
    """The parameter t of a point (1, t/2) on the upper half-circle, as
    an unreduced (numerator, denominator) pair.

    None when the point is off that half-circle.
    """
    a, d = c.angle.num, c.angle.den
    if 2 * a > d or c.num != c.den:
        return None
    return 2 * a, d


def _lower(c: DiscPoint) -> tuple[int, int] | None:
    """lower_param as an unreduced (numerator, denominator) pair."""
    a, d = c.angle.num, c.angle.den
    if 0 < 2 * a < d or c.num != c.den:
        return None
    return (2 * a - d, d) if a else (1, 1)


def lower_param(c: DiscPoint) -> Fraction | None:
    """The parameter t of a point (1, 1/2 + t/2) on the lower half-circle.

    The wrap point at angle 0 is t = 1.  None off the half-circle.
    """
    t = _lower(c)
    return None if t is None else Fraction(*t)


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
    if len(x.labels) != len(z.coords):
        raise ValueError("lengths differ")
    strict = mode == "interior"
    u_params: list[tuple[int, int]] = []
    l_params: list[tuple[int, int]] = []
    for lab, c in zip(x.labels, z.coords):
        # the pinned points (1, 0) and (1, 1/2) are told by their ratios
        if lab is _ONE:
            if c is not _ONE_POINT and (c.angle.num or c.num != c.den):
                return False
        elif lab is _MINUS_ONE:
            if c is not _MINUS_ONE_POINT and (
                    c.angle.den != 2 or c.num != c.den):
                return False
        elif lab is _FULL:
            if strict and c.num == c.den:
                return False
        else:
            t = (_upper if lab is _UPPER else _lower)(c)
            if t is None or (strict and not 0 < t[0] < t[1]):
                return False
            (u_params if lab is _UPPER else l_params).append(t)
    for ua, ud in u_params:  # t_L <= t_U by cross-multiplication
        for lb, ld in l_params:
            if lb * ud > ua * ld or (strict and lb * ud == ua * ld):
                return False
    return True


def _region(labs: Iterable[PLabel]) -> PLabel | frozenset | None:
    """Where the regions of the given symbols meet.

    The symbol order is containment, so this is the least symbol.  The
    incomparable U and L meet in the two points _POINTS; 1 and -1 meet
    nowhere (None).
    """
    region = _FULL
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
          corner: bool = False) -> ModelPoint:
    """A rational point of the coordinate regions (from _region or symbols).

    The first pass draws the U parameters and picks the points, the
    second draws L and F, each in coordinate order.  A lower parameter
    stays below the upper one of every coordinate that is U in a chart
    with L at it.  Every draw is over 16ths; corner draws nothing: the
    two points, U and L all take -1, and F takes the centre.
    """
    den = _DEN
    coords: list = [None] * len(regions)
    ups = [0] * len(regions)  # upper parameters over den; 1 is 0, -1 is den
    for i, region in enumerate(regions):
        if region is _UPPER:
            ups[i] = den if corner else rng.randint(0, den)
            coords[i] = _upper_at(ups[i])
        elif region is _POINTS:
            ups[i] = den if corner else rng.choice((0, den))
            coords[i] = _MINUS_ONE_POINT if ups[i] else _ONE_POINT
        elif region is _ONE:
            coords[i] = _ONE_POINT
        elif region is _MINUS_ONE:
            ups[i] = den
            coords[i] = _MINUS_ONE_POINT
    for i, region in enumerate(regions):
        if region is _LOWER:
            bound = min((ups[a] for x in charts if x[i] is _LOWER
                         for a, lab in enumerate(x) if lab is _UPPER),
                        default=den)
            t = 0 if corner else bound * rng.randint(0, den)  # over den**2
            coords[i] = _lower_at(t)
        elif region is _FULL:  # the radius is drawn before the angle
            coords[i] = _disc_at(0, 0) if corner else _disc_at(
                rng.randint(0, den), rng.randint(0, den - 1))
    return ModelPoint(tuple(coords))


def bx_sample(x: CellLabel, seed: int) -> ModelPoint:
    """A deterministic rational point of the closed cell, over 16ths.

    Different seeds walk different points; the same seed always returns
    the same point.
    """
    # the seed text still names the interior flag and grid: every stream repeats
    rng = random.Random(f"bx:{format_cell_label(x)}:{seed}:False:16")
    return _draw(x.labels, (x,), rng)


def parse_cell_label(text: str) -> CellLabel:
    return CellLabel.of(t.strip() for t in text.split(","))


def format_cell_label(x: CellLabel) -> str:
    return ",".join(map(_TOKEN.__getitem__, x))
