"""Exact arithmetic in the tropical phase hyperfield and the sign hyperfield.

The tropical phase hyperfield has underlying set S^1 together with a zero
element.  Multiplication of nonzero elements is rotation (addition of
angles); hyperaddition of two nonzero elements is the smallest closed arc
of the circle joining them, except that antipodal inputs produce the whole
circle together with zero.  The sign hyperfield {-1, 0, 1} is the familiar
discrete analogue.

Angles are stored as exact rational turns (1 turn = 360 degrees), so every
operation here is exact: no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Angle",
    "Phase",
    "ZERO",
    "Arc",
    "PhaseSet",
    "mul",
    "hyper_sum",
    "hyper_sum_list",
    "min_enclosing_arc",
    "sign_mul",
    "sign_hyper_sum",
    "sign_hyper_sum_list",
    "parse_fraction",
    "format_fraction",
]

NIL = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def _over_lcm(qs: Sequence) -> tuple[list, int]:
    """Numerators over D, the lcm of the denominators, and D."""
    ratios = [q.as_integer_ratio() for q in qs]
    d = math.lcm(*[b for _, b in ratios])
    return [a * (d // b) for a, b in ratios], d


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_type(cls):
    """Make a frozen, slotted dataclass refuse every assignment alike.

    The frozen __setattr__/__delattr__ that dataclasses generates close
    over the class before slots were added, so on the slotted copy a name
    that is not a field fell through to super() and raised TypeError.
    These raise FrozenInstanceError for any name, as a frozen dataclass
    without slots does.
    """
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@value_type
@dataclass(frozen=True, order=True, slots=True)
class Angle:
    """A point on the circle, measured in turns and reduced mod 1.

    ``num``/``den`` is the reduced ratio of ``turns``, taken apart once
    here so the integer kernels read plain ints; they take no part in
    equality, hashing, order or repr.
    """

    turns: Fraction
    num: int = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.turns if isinstance(self.turns, Fraction) else Fraction(self.turns)
        num, den = t.as_integer_ratio()
        if t is not self.turns or not 0 <= num < den:
            num %= den
            object.__setattr__(self, "turns", Fraction(num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.turns + other.turns)

    def __neg__(self) -> "Angle":
        return Angle(-self.turns)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.turns - other.turns)

    def antipode(self) -> "Angle":
        return Angle(self.turns + HALF)

    def __str__(self) -> str:
        return format_fraction(self.turns)


ORIGIN = Angle(NIL)  # the angle 0, shared by every full-circle arc


@value_type
@dataclass(frozen=True, slots=True)
class Phase:
    """An element of the tropical phase hyperfield: an angle, or zero.

    ``Phase(None)`` is the hyperfield zero; any other value is the point
    of S^1 at that angle.
    """

    angle: Angle | None

    @staticmethod
    def of(turns) -> "Phase":
        return Phase(Angle(turns))

    @staticmethod
    def zero() -> "Phase":
        return Phase(None)

    @property
    def is_zero(self) -> bool:
        return self.angle is None

    def __neg__(self) -> "Phase":
        if self.angle is None:
            return self
        return Phase(self.angle.antipode())

    def __str__(self) -> str:
        # "z" is the zero token; a bare fraction is an angle in turns, so
        # "0" always means the unit at angle 0, never the zero element
        if self.angle is None:
            return "z"
        return str(self.angle)


ZERO = Phase(None)


@value_type
@dataclass(frozen=True, order=True, slots=True)
class Arc:
    """A closed arc of the circle: start angle plus nonnegative length.

    ``length`` is in turns.  Length 0 is a single point; length >= 1 means
    the whole circle (canonically stored with start 0, length 1).
    """

    start: Angle
    length: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.length, Fraction):
            object.__setattr__(self, "length", Fraction(self.length))
        num = self.length.numerator
        if num < 0:
            raise ValueError("arc length must be nonnegative")
        if num >= self.length.denominator:
            object.__setattr__(self, "start", ORIGIN)
            object.__setattr__(self, "length", ONE)

    @property
    def is_full_circle(self) -> bool:
        return self.length >= 1

    def end(self) -> Angle:
        return Angle(self.start.turns + self.length)

    def contains(self, a: Angle) -> bool:
        if self.is_full_circle:
            return True
        # offset of a past the start, measured forward around the circle
        return _mod1(a.turns - self.start.turns) <= self.length

    def __str__(self) -> str:
        if self.is_full_circle:
            return "[full circle]"
        return f"[{self.start}, {self.end()}]"


@value_type
@dataclass(frozen=True, slots=True)
class PhaseSet:
    """A finite union of closed arcs, optionally together with zero.

    This is the value type of hyperaddition: sums of hyperfield elements
    are sets, and iterated sums are unions of sets.
    """

    contains_zero: bool
    arcs: tuple[Arc, ...]

    @staticmethod
    def just_zero() -> "PhaseSet":
        """The set {0}: the one shared frozen `JUST_ZERO`, which refuses
        assignment with FrozenInstanceError like every value type."""
        return JUST_ZERO

    @staticmethod
    def point(p: Phase) -> "PhaseSet":
        if p.is_zero:
            return JUST_ZERO
        return PhaseSet(False, (Arc(p.angle, NIL),))

    @property
    def is_full_circle(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0].is_full_circle

    def contains(self, p: Phase) -> bool:
        if p.is_zero:
            return self.contains_zero
        return any(a.contains(p.angle) for a in self.arcs)

    def phases(self) -> list[Phase]:
        """The elements of the set, when it is finite (points only)."""
        if any(a.length > 0 for a in self.arcs):
            raise ValueError("phase set is infinite")
        out = [Phase(a.start) for a in self.arcs]
        if self.contains_zero:
            out.append(ZERO)
        return out

    def __str__(self) -> str:
        parts = []
        for a in self.arcs:
            if a.is_full_circle:
                parts.append("S^1")
            elif a.length == 0:
                parts.append(str(a.start))
            else:
                parts.append(str(a))
        if self.contains_zero:
            parts.append("z")
        if not parts:
            return "{}"
        return "{" + ", ".join(parts) + "}"


JUST_ZERO = PhaseSet(True, ())
EVERYTHING = PhaseSet(True, (Arc(ORIGIN, ONE),))  # S^1 together with zero


def mul(a: Phase, b: Phase) -> Phase:
    """Hyperfield multiplication: rotation, with zero absorbing."""
    if a.is_zero or b.is_zero:
        return ZERO
    return Phase(a.angle + b.angle)


def hyper_sum(a: Phase, b: Phase) -> PhaseSet:
    """Hyperaddition of two phases.

    x + 0 = {x}; x + (-x) is the whole circle together with zero; any
    other pair gives the smallest closed arc joining the two points.
    """
    return hyper_sum_list([a, b])


def hyper_sum_list(xs: Sequence[Phase]) -> PhaseSet:
    """Iterated hyperaddition, folded left to right over a sequence.

    Hyperaddition is associative, so the result does not depend on the
    order.  The empty sum is {0}.  The running sum is a single closed arc
    shorter than half a turn until some summand's antipode falls in it;
    from then on it is the whole circle together with zero.  Angles are
    ticks over D, the lcm of their denominators and 2, so p + D // 2 is
    the exact antipode of p.

    The result may be a shared frozen set: the two fixed results, {0}
    and {S^1, 0}, are `JUST_ZERO` and `EVERYTHING`, and only a proper arc
    is built fresh.  Every value type refuses assignment with
    FrozenInstanceError, so no caller can change a shared result.
    """
    angles = [x.angle for x in xs if x.angle is not None]
    if not angles:
        return JUST_ZERO
    d = math.lcm(2, *[a.den for a in angles])
    ticks = [a.num * (d // a.den) for a in angles]
    half, start, length = d // 2, ticks[0], 0
    for p in ticks[1:]:
        if (p + half - start) % d <= length:
            return EVERYTHING
        off = (p - start) % d
        if off <= length:
            continue
        # reach p forward (off - length ticks) or backward (d - off),
        # whichever is shorter; at a tie p's antipode lies in the arc, so
        # none gets here, and forward would win it
        if off - length <= d - off:
            length = off
        else:
            start, length = p, length + d - off
    arc = Arc(Angle(Fraction(start, d)), Fraction(length, d))
    return PhaseSet(False, (arc,))


def min_enclosing_arc(angles: Sequence[Angle]) -> Arc:
    """The shortest closed arc containing all the given angles.

    Equivalent to removing the largest gap between cyclically consecutive
    angles.  Ties are broken toward the arc with the smallest start angle.
    The answer is the full circle only for the empty input (by convention).
    """
    if not angles:
        return Arc(ORIGIN, ONE)
    pts = sorted(set(a.turns for a in angles))
    if len(pts) == 1:
        return Arc(Angle(pts[0]), NIL)
    n = len(pts)
    best: Arc | None = None
    for i in range(n):
        gap_start = pts[i]
        gap_end = pts[(i + 1) % n] + (1 if i + 1 == n else 0)
        gap = gap_end - gap_start
        cand = Arc(Angle(_mod1(gap_end)), 1 - gap)
        if best is None or cand.length < best.length or (
            cand.length == best.length and cand.start < best.start
        ):
            best = cand
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Sign hyperfield {-1, 0, 1}
# ---------------------------------------------------------------------------


def sign_mul(a: int, b: int) -> int:
    if a not in (-1, 0, 1) or b not in (-1, 0, 1):
        raise ValueError("sign hyperfield elements are -1, 0, 1")
    return a * b


def sign_hyper_sum(a: int, b: int) -> frozenset[int]:
    """Hyperaddition in the sign hyperfield."""
    if a not in (-1, 0, 1) or b not in (-1, 0, 1):
        raise ValueError("sign hyperfield elements are -1, 0, 1")
    if a == 0:
        return frozenset({b})
    if b == 0:
        return frozenset({a})
    if a == b:
        return frozenset({a})
    return frozenset({-1, 0, 1})


def sign_hyper_sum_list(xs: Sequence[int]) -> frozenset[int]:
    """Iterated sign hyperaddition (union-fold, empty sum = {0})."""
    acc: frozenset[int] = frozenset({0})
    for x in xs:
        acc = frozenset(itertools.chain.from_iterable(
            sign_hyper_sum(a, x) for a in acc
        ))
    return acc


# ---------------------------------------------------------------------------
# Fraction formatting helpers shared by the CLI and reports
# ---------------------------------------------------------------------------


# the exponent of a decimal literal such as "1.5e-3"
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\Z", re.IGNORECASE)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or an integer or decimal literal into an exact Fraction.

    A decimal exponent larger in magnitude than sys.get_int_max_str_digits()
    is refused: it names an integer with more digits than str() may print,
    and building that integer takes time superlinear in the exponent.
    """
    text = text.strip()
    try:
        exp = _EXPONENT.search(text)
        limit = sys.get_int_max_str_digits()
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError("decimal exponent too large")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
