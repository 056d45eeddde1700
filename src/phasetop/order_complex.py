"""Two coordinate systems for the order complex of phase vectors.

Points of the topological order complex are formal convex combinations
sum_k t_k x_k over chains of vectors.  Collapsing each coordinate's
weighted phases gives a tuple of points in the closed unit disc, one
per coordinate: the disc model.  The two descriptions are homeomorphic;
`join_to_model` and `model_to_join` implement the correspondence
exactly, in both directions, over the rationals.

Text form of a disc-model point: semicolon-separated "r@a" pairs with
rational radius r and angle a in turns ("0@0" is the disc center).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .covectors import PhaseVector, support, zero_in_sum
from .phase import (Angle, ORIGIN, Phase, ZERO, _new, _over_lcm, _format_ratio,
                    _set, parse_fraction, value_type)

__all__ = [
    "DiscPoint",
    "ModelPoint",
    "JoinPoint",
    "join_to_model",
    "model_to_join",
    "delta_member",
    "rescale_model",
    "parse_model_point",
    "format_model_point",
    "random_join_point",
    "random_model_point",
]


@value_type(init=False, repr=False)
class DiscPoint:
    """A point of the closed unit disc in polar form (radius, angle).

    The radius is held as its reduced ratio ``num``/``den``, and the
    direction also as ``phase``, the `Phase` of the angle.  The center
    is represented uniquely: radius 0 forces angle 0 and the zero phase.
    Every constructor reduces the ratio, so equality and the hash are
    those of the fields.
    """

    num: int
    den: int
    angle: Angle
    phase: Phase

    def __init__(self, radius, angle: Angle) -> None:
        r = radius if isinstance(radius, Fraction) else Fraction(radius)
        _fill_disc(self, *r.as_integer_ratio(), angle)

    @staticmethod
    def of_ratio(num: int, den: int, angle: Angle) -> "DiscPoint":
        """The point at radius num/den, for ints with den > 0."""
        g = math.gcd(num, den)
        return _fill_disc(_new(DiscPoint), num // g, den // g, angle)

    @staticmethod
    def of(radius, angle) -> "DiscPoint":
        return DiscPoint(Fraction(radius), Angle(angle))

    @staticmethod
    def center() -> "DiscPoint":
        return DiscPoint.of_ratio(0, 1, ORIGIN)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __repr__(self) -> str:
        return f"DiscPoint(radius={self.radius!r}, angle={self.angle!r})"

    def __str__(self) -> str:
        return f"{_format_ratio(self.num, self.den)}@{self.angle}"


def _fill_disc(c: DiscPoint, num: int, den: int, angle: Angle,
               phase: Phase | None = None) -> DiscPoint:
    """Set c's fields; a caller that holds Phase(angle) passes it in."""
    if not 0 <= num <= den:
        raise ValueError("disc radius must lie in [0, 1]")
    if not num:
        angle, phase = ORIGIN, ZERO
    _set(c, "num", num)
    _set(c, "den", den)
    _set(c, "angle", angle)
    _set(c, "phase", Phase(angle) if phase is None else phase)
    return c


_CENTER = DiscPoint.center()  # frozen, so shared


@value_type
class ModelPoint:
    """A tuple of disc points: the disc model of an order-complex point."""

    coords: tuple[DiscPoint, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> DiscPoint:
        return self.coords[i]

    def __str__(self) -> str:
        return format_model_point(self)


@value_type(init=False, repr=False)
class JoinPoint:
    """A weighted chain: the join-coordinate form of an order-complex point.

    Terms are (weight, vector) pairs with positive rational weights that
    sum to 1 and vectors forming a strict chain in the specialization
    order, so support sizes strictly increase term by term.  Zero
    weights are disallowed, so the representation is canonical.  The
    weights are held as ints, ``nums`` over ``whole``, their lcm, so
    equality and the hash are those of the fields.
    """

    nums: tuple[int, ...]
    whole: int
    vectors: tuple[PhaseVector, ...]

    def __init__(self, terms) -> None:
        terms = tuple(terms) if terms else ()  # none: refused in _fill_join
        weights = [w for w, _ in terms]
        try:
            weights = [Fraction(w) for w in weights]
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(
                f"weights must be rational numbers: {exc}") from exc
        _fill_join(self, *_over_lcm(weights), [x for _, x in terms])

    @staticmethod
    def of_ratios(nums, whole: int, vectors) -> "JoinPoint":
        """The chain of vectors with weights nums[k]/whole, for ints."""
        return _fill_join(_new(JoinPoint), nums, whole, vectors)

    @property
    def terms(self) -> tuple[tuple[Fraction, PhaseVector], ...]:
        return tuple((Fraction(w, self.whole), x)
                     for w, x in zip(self.nums, self.vectors))

    def __repr__(self) -> str:
        return f"JoinPoint(terms={self.terms!r})"


def _fill_join(p: JoinPoint, nums, whole: int, vectors) -> JoinPoint:
    """Set p's ints after the checks, in JoinPoint's order of refusals."""
    nums, vectors = tuple(nums), tuple(vectors)
    if not vectors:
        raise ValueError("join point needs at least one term")
    # the first term is checked against itself, which always passes
    prev, prev_size = vectors[0].entries, -1
    n = len(prev)
    for w, x in zip(nums, vectors, strict=True):
        entries = x.entries
        if len(entries) != n:
            raise ValueError("chain vectors must share a length")
        if w <= 0:
            raise ValueError("weights must be positive")
        # one pass per term: count the support, and check that every
        # nonzero entry of the previous vector is kept; a chain step
        # keeps them all, so it is strict exactly when the support grows
        size, kept = 0, True
        for a, b in zip(prev, entries):
            if b.angle is not None:
                size += 1
            if a is not b and a.angle is not None and a != b:
                kept = False
        if size <= prev_size or not kept:
            raise ValueError("vectors must form a strict chain")
        prev, prev_size = entries, size
    if sum(nums) != whole:
        raise ValueError("weights must sum to 1")
    # g divides their sum, whole; coprime numerators are over their lcm
    g = math.gcd(*nums)
    _set(p, "nums", nums if g == 1 else tuple(w // g for w in nums))
    _set(p, "whole", whole // g)
    _set(p, "vectors", vectors)
    return p


def join_to_model(p: JoinPoint) -> ModelPoint:
    """Collapse a weighted chain to its disc-model point.

    Coordinate j gets radius equal to the total weight of chain terms
    whose vector is nonzero at j, and angle equal to their common phase
    there; coordinates supported by no term sit at the disc center.  In
    a chain those terms are all the terms from the first one nonzero at
    j, so each term's suffix weight is the radius of the coordinates it
    adds.
    """
    whole = p.whole
    coords = [_CENTER] * len(p.vectors[0])
    left = whole  # the weight of this term and every later one
    for w, x in zip(p.nums, p.vectors):
        g = math.gcd(left, whole)
        num, den = left // g, whole // g
        for j, e in enumerate(x.entries):
            if e.angle is not None and coords[j] is _CENTER:
                coords[j] = _fill_disc(_new(DiscPoint), num, den, e.angle, e)
        left -= w
    return ModelPoint(tuple(coords))


def model_to_join(z: ModelPoint) -> JoinPoint:
    """Rebuild the weighted chain from a disc-model point.

    The chain vectors are the level sets of the radius function: for each
    distinct nonzero radius r, descending, the vector keeps the phases of
    the coordinates with radius >= r.  Weights are successive radius
    differences, and any slack 1 - max_radius goes to an all-zero term.
    One walk over the coordinates in descending radius closes a level
    each time the radius drops.
    """
    coords = z.coords
    whole = math.lcm(*[c.den for c in coords])
    nums = [c.num * (whole // c.den) for c in coords]
    entries = [ZERO] * len(nums)
    weights, vectors = [], []
    # radius 1 is always a level: with no coordinate there, its vector is
    # the all-zero term that takes the slack
    level = whole
    for j in sorted(range(len(nums)), key=nums.__getitem__, reverse=True):
        r = nums[j]
        if not r:
            break
        if r < level:
            weights.append(level - r)
            vectors.append(PhaseVector(tuple(entries)))
            level = r
        entries[j] = coords[j].phase
    return JoinPoint.of_ratios(weights + [level], whole,
                               vectors + [PhaseVector(tuple(entries))])


def delta_member(v: PhaseVector, z: ModelPoint) -> bool:
    """Whether z lies in the order complex of the nonzero covectors of v.

    Equivalent to: the chain of z has no all-zero term (its maximum
    radius is 1) and every chain vector, one per radius level set, is a
    covector of v (which also rules out single-coordinate levels).
    Twisting z by v first makes that a zero-sum test per chain vector.
    """
    return all(support(x) and zero_in_sum(x)
               for x in model_to_join(rescale_model(v, z)).vectors)


def rescale_model(v: PhaseVector, z: ModelPoint) -> ModelPoint:
    """Twist each coordinate's angle by the matching unit of v.

    Transports membership: z lies in the complex for v exactly when the
    twisted point lies in the complex for the all-ones vector.
    """
    if len(v) != len(z):
        raise ValueError("lengths differ")
    coords = []
    for vk, c in zip(v, z.coords):
        if vk.is_zero:
            raise ValueError("unit vector must have no zero entries")
        if c.num == 0:
            coords.append(c)
        else:
            coords.append(DiscPoint.of_ratio(c.num, c.den, c.angle + vk.angle))
    return ModelPoint(tuple(coords))


def parse_model_point(text: str) -> ModelPoint:
    coords = []
    for tok in text.split(";"):
        tok = tok.strip()
        if "@" not in tok:
            raise ValueError(f"expected r@a, got {tok!r}")
        r, a = tok.split("@", 1)
        coords.append(DiscPoint(parse_fraction(r), Angle(parse_fraction(a))))
    return ModelPoint(tuple(coords))


def format_model_point(z: ModelPoint) -> str:
    return ";".join(str(c) for c in z.coords)


# ---------------------------------------------------------------------------
# Seeded rational samplers for property tests and sampled verification
# ---------------------------------------------------------------------------


def _grid_value(k: int) -> tuple[Angle, Phase]:
    a = Angle.of_ratio(k, _DEN)
    return a, Phase(a)


# The sampling grid k/64 as (Angle, Phase), keyed by k and built once.  The
# values are frozen, so every draw shares them.  A draw from [lo, 64] is
# rng.choice over a sequence of its 65 - lo values: the one _randbelow call
# that rng.randint(lo, 64) makes, so the seeded streams are randint's.
_DEN = 64
_GRID = tuple(_grid_value(k) for k in range(_DEN + 1))
_TICKS, _WEIGHTS = range(_DEN + 1), range(1, _DEN + 1)
# The disc points k/64 @ i/64 by k, then i, built from _GRID a row of radius
# k at a time, on the first draw at that radius
_DISCS: list[tuple[DiscPoint, ...] | None] = [None] * (_DEN + 1)


def _disc_row(k: int) -> tuple[DiscPoint, ...]:
    g = math.gcd(k, _DEN)
    return tuple(_fill_disc(_new(DiscPoint), k // g, _DEN // g, a, p)
                 for a, p in _GRID)


def random_model_point(rng: random.Random, n: int) -> ModelPoint:
    """A random disc tuple with coordinates on the grid k/64.

    Radii are biased toward the interesting boundary values 0 and 1 so
    level-set code paths get exercised.
    """
    coords = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            k = 0
        elif roll < 0.5:
            k = _DEN
        else:
            k = rng.choice(_TICKS)
        row = _DISCS[k]
        if row is None:
            row = _DISCS[k] = _disc_row(k)
        coords.append(rng.choice(row))
    return ModelPoint(tuple(coords))


def random_join_point(rng: random.Random, n: int) -> JoinPoint:
    """A random canonical weighted chain on n coordinates, phases on k/64."""
    # pick a strictly increasing flag of supports
    order = list(range(n))
    rng.shuffle(order)
    depth = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n + 1), depth))
    phases = [rng.choice(_GRID)[1] for _ in range(n)]
    entries = [ZERO] * n
    vectors = []
    done = 0
    for c in cuts:  # each vector adds the next coordinates of the flag
        for j in order[done:c]:
            entries[j] = phases[j]
        done = c
        vectors.append(PhaseVector(tuple(entries)))
    if rng.random() < 0.3:
        vectors.insert(0, PhaseVector((ZERO,) * n))
    # positive rational weights summing to 1
    raw = [rng.choice(_WEIGHTS) for _ in vectors]
    return JoinPoint.of_ratios(raw, sum(raw), vectors)
