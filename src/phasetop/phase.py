"""Exact arithmetic in the tropical phase hyperfield and the sign hyperfield.

The tropical phase hyperfield has underlying set S^1 together with a zero
element.  Multiplication of nonzero elements is rotation (addition of
angles); hyperaddition of two nonzero elements is the smallest closed arc
of the circle joining them, except that antipodal inputs produce the whole
circle together with zero.  The sign hyperfield {-1, 0, 1} is the familiar
discrete analogue, and no second kernel here: the signs 0, 1 and -1 are
the phases z, 0 and 1/2, and a sign sum is their phase sum met with those
three points.

Angles are exact rational turns (1 turn = 360 degrees), each held as
the reduced integer ratio of its turns, so every operation here is exact
integer arithmetic: no floating point is used anywhere.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Angle",
    "Phase",
    "ZERO",
    "Arc",
    "PhaseSet",
    "mul",
    "hyper_sum_list",
    "min_enclosing_arc",
    "sign_hyper_sum_list",
    "parse_fraction",
    "format_fraction",
    "value_type",
]

NIL = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _over_lcm(qs: Sequence) -> tuple[list, int]:
    """Numerators over D, the lcm of the denominators, and D, for
    Fractions and Angles alike: each gives its as_integer_ratio()."""
    ratios = [q.as_integer_ratio() for q in qs]
    d = math.lcm(*[b for _, b in ratios])
    return [a * (d // b) for a, b in ratios], d


# builds and fills an Angle past its refusing __setattr__
_new, _set = object.__new__, object.__setattr__


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_type(cls=None, /, **options):
    """The whole declaration of a value type, as ``@value_type(**options)``.

    cls becomes ``dataclass(frozen=True, slots=True, **options)``, whose
    frozen __setattr__/__delattr__ close over the class from before slots
    were added and so raise TypeError for a name that is no field; they
    are replaced by ones that raise FrozenInstanceError for any name, as a
    frozen dataclass without slots does.
    """
    if cls is None:
        return lambda cls: value_type(cls, **options)
    cls = dataclass(frozen=True, slots=True, **options)(cls)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@value_type(init=False, repr=False)
class Angle:
    """A point on the circle, measured in turns and reduced mod 1.

    The only state is the reduced integer ratio ``num``/``den`` of the
    turns, with 0 <= num < den, which the integer kernels read as plain
    ints.  The one constructor argument is the turns, as any value
    `Fraction` accepts; the ``turns`` property gives them back as a new
    Fraction, and `Angle.of_ratio` builds an angle from ints without
    one.  Every constructor reduces the ratio, so equality and the hash
    are those of the two ints.
    """

    num: int
    den: int

    def __init__(self, turns) -> None:
        t = turns if isinstance(turns, Fraction) else Fraction(turns)
        num, den = t.as_integer_ratio()
        _set(self, "num", num % den)
        _set(self, "den", den)

    @staticmethod
    def of_ratio(num: int, den: int) -> "Angle":
        """The angle num/den turns, for ints with den > 0."""
        num %= den
        g = math.gcd(num, den)
        a = _new(Angle)
        _set(a, "num", num // g)
        _set(a, "den", den // g)
        return a

    @property
    def turns(self) -> Fraction:
        return Fraction(self.num, self.den)

    def as_integer_ratio(self) -> tuple[int, int]:  # as Fraction's does
        return self.num, self.den

    def __repr__(self) -> str:
        return f"Angle(turns={self.turns!r})"

    def __add__(self, other: "Angle") -> "Angle":
        return Angle.of_ratio(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __neg__(self) -> "Angle":
        return Angle.of_ratio(-self.num, self.den)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle.of_ratio(self.num * other.den - other.num * self.den,
                              self.den * other.den)

    def antipode(self) -> "Angle":
        return Angle.of_ratio(2 * self.num + self.den, 2 * self.den)

    def __str__(self) -> str:
        return format_fraction(self)


ORIGIN = Angle(NIL)  # the angle 0, shared by every full-circle arc


@value_type
class Phase:
    """An element of the tropical phase hyperfield: an angle, or zero.

    ``Phase(None)`` is the hyperfield zero; any other value is the point
    of S^1 at that angle.
    """

    angle: Angle | None

    @staticmethod
    def of(turns) -> "Phase":
        return Phase(Angle(turns))

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
        num, den = self.length.as_integer_ratio()
        if num < 0:
            raise ValueError("arc length must be nonnegative")
        if num >= den:
            object.__setattr__(self, "start", ORIGIN)
            object.__setattr__(self, "length", ONE)

    @property
    def is_full_circle(self) -> bool:
        return self.length >= 1

    def end(self) -> Angle:
        s, (ln, ld) = self.start, self.length.as_integer_ratio()
        return Angle.of_ratio(s.num * ld + ln * s.den, s.den * ld)

    def contains(self, a: Angle) -> bool:
        s, (ln, ld) = self.start, self.length.as_integer_ratio()
        if ln >= ld:
            return True
        # offset of a past the start, in ticks of 1/d measured forward
        # around the circle, against the length in the same ticks
        d = a.den * s.den
        return (a.num * s.den - s.num * a.den) % d * ld <= ln * d

    def __str__(self) -> str:
        if self.is_full_circle:
            return "[full circle]"
        return f"[{self.start}, {self.end()}]"


@value_type
class PhaseSet:
    """A finite union of closed arcs, optionally together with zero.

    This is the value type of hyperaddition: sums of hyperfield elements
    are sets, and iterated sums are unions of sets.
    """

    contains_zero: bool
    arcs: tuple[Arc, ...]

    def contains(self, p: Phase) -> bool:
        if p.is_zero:
            return self.contains_zero
        return any(a.contains(p.angle) for a in self.arcs)

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
    arc = Arc(Angle.of_ratio(start, d), Fraction(length, d))
    return PhaseSet(False, (arc,))


def min_enclosing_arc(angles: Sequence[Angle]) -> Arc:
    """The shortest closed arc containing all the given angles.

    Equivalent to removing the largest gap between cyclically consecutive
    angles.  Ties are broken toward the arc with the smallest start angle.
    The answer is the full circle only for the empty input (by convention).
    """
    if not angles:
        return Arc(ORIGIN, ONE)
    ticks, d = _over_lcm(angles)
    pts = sorted(set(ticks))
    if len(pts) == 1:
        return Arc(Angle.of_ratio(pts[0], d), NIL)
    # the arc from the end of each gap round to its start, in ticks of
    # 1/d: the shortest, then the one with the smallest start
    length, start = min((d - (b - a) % d, b)
                        for a, b in zip(pts, pts[1:] + pts[:1]))
    return Arc(Angle.of_ratio(start, d), Fraction(length, d))


# ---------------------------------------------------------------------------
# Sign hyperfield {-1, 0, 1}
# ---------------------------------------------------------------------------


# the signs and their phases: a sign sum is the phase sum met with these
_SIGNS = (-1, 0, 1)
_SIGN_PHASES = (Phase(Angle(HALF)), ZERO, Phase(ORIGIN))


def sign_hyper_sum_list(xs: Sequence[int]) -> frozenset[int]:
    """Iterated sign hyperaddition (empty sum = {0}): the signs whose
    phases lie in the phase sum of the summands' phases."""
    try:
        phases = [_SIGN_PHASES[_SIGNS.index(x)] for x in xs]
    except ValueError:
        raise ValueError("sign hyperfield elements are -1, 0, 1") from None
    total = hyper_sum_list(phases)
    return frozenset(s for s, p in zip(_SIGNS, _SIGN_PHASES)
                     if total.contains(p))


# ---------------------------------------------------------------------------
# Fraction formatting helpers shared by the CLI and reports
# ---------------------------------------------------------------------------


# the exponent of a decimal literal such as "1.5e-3"
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\Z", re.IGNORECASE)
# CPython's default limit on the digits of an int's str(), for the 3.10
# releases before 3.10.7, which have no sys.get_int_max_str_digits
_DEFAULT_MAX_STR_DIGITS = 4300


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or an integer or decimal literal into an exact Fraction.

    A decimal exponent larger in magnitude than sys.get_int_max_str_digits()
    (4300 where the interpreter lacks it) is refused: it names an integer
    with more digits than str() may print, and building that integer takes
    time superlinear in the exponent.
    """
    text = text.strip()
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else _DEFAULT_MAX_STR_DIGITS
    try:
        exp = _EXPONENT.search(text)
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError("decimal exponent too large")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_fraction(q: Fraction | Angle) -> str:
    """'p/q', or 'p' when q is whole: any value with as_integer_ratio(),
    so an Angle prints as the Fraction of its turns does."""
    return _format_ratio(*q.as_integer_ratio())


def _format_ratio(num: int, den: int) -> str:  # format_fraction of num/den
    return str(num) if den == 1 else f"{num}/{den}"
