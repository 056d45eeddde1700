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
from typing import Iterable

from .covectors import PhaseVector, support, zero_in_sum
from .phase import (Angle, ORIGIN, Phase, ZERO, _over_lcm, format_fraction,
                    parse_fraction, value_type)

__all__ = [
    "DiscPoint",
    "ModelPoint",
    "JoinPoint",
    "join_to_model",
    "model_to_join",
    "delta_member",
    "rotate",
    "rescale_model",
    "parse_model_point",
    "format_model_point",
    "random_join_point",
    "random_model_point",
]


@value_type(order=True)
class DiscPoint:
    """A point of the closed unit disc in polar form (radius, angle).

    The center is represented uniquely: radius 0 forces angle 0.
    """

    radius: Fraction
    angle: Angle

    def __post_init__(self) -> None:
        if not isinstance(self.radius, Fraction):
            object.__setattr__(self, "radius", Fraction(self.radius))
        num, den = self.radius.as_integer_ratio()
        if not 0 <= num <= den:
            raise ValueError("disc radius must lie in [0, 1]")
        if num == 0 and self.angle.num != 0:
            object.__setattr__(self, "angle", ORIGIN)

    @staticmethod
    def of(radius, angle) -> "DiscPoint":
        return DiscPoint(Fraction(radius), Angle(angle))

    @staticmethod
    def center() -> "DiscPoint":
        return DiscPoint(Fraction(0), ORIGIN)

    @property
    def phase(self) -> Phase:
        """The phase direction: zero at the center."""
        if self.radius == 0:
            return ZERO
        return Phase(self.angle)

    def __str__(self) -> str:
        return f"{format_fraction(self.radius)}@{self.angle}"


_CENTER = DiscPoint.center()  # frozen, so shared


@value_type
class ModelPoint:
    """A tuple of disc points: the disc model of an order-complex point."""

    coords: tuple[DiscPoint, ...]

    @staticmethod
    def of(pairs: Iterable) -> "ModelPoint":
        return ModelPoint(tuple(DiscPoint.of(r, a) for r, a in pairs))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> DiscPoint:
        return self.coords[i]

    def __str__(self) -> str:
        return format_model_point(self)


@value_type
class JoinPoint:
    """A weighted chain: the join-coordinate form of an order-complex point.

    Terms are (weight, vector) pairs with positive rational weights that
    sum to 1 and vectors forming a strict chain in the specialization
    order, so support sizes strictly increase term by term.  Zero
    weights are disallowed, so the representation is canonical.
    """

    terms: tuple[tuple[Fraction, PhaseVector], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("join point needs at least one term")
        if not all(isinstance(w, Fraction) for w, _ in self.terms):
            try:
                terms = tuple((Fraction(w), x) for w, x in self.terms)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ValueError(
                    f"weights must be rational numbers: {exc}") from exc
            object.__setattr__(self, "terms", terms)
        # the first term is checked against itself, which always passes
        prev, prev_size = self.terms[0][1].entries, -1
        n = len(prev)
        total, whole = 0, 1  # the weights so far: total / whole
        for w, x in self.terms:
            entries = x.entries
            if len(entries) != n:
                raise ValueError("chain vectors must share a length")
            num, den = w.as_integer_ratio()
            if num <= 0:
                raise ValueError("weights must be positive")
            d = math.lcm(whole, den)
            total, whole = total * (d // whole) + num * (d // den), d
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
        if total != whole:
            raise ValueError("weights must sum to 1")

    @staticmethod
    def of(terms: Iterable[tuple]) -> "JoinPoint":
        return JoinPoint(tuple((Fraction(w), x) for w, x in terms))

    @property
    def dimension(self) -> int:
        return len(self.terms)


def join_to_model(p: JoinPoint) -> ModelPoint:
    """Collapse a weighted chain to its disc-model point.

    Coordinate j gets radius equal to the total weight of chain terms
    whose vector is nonzero at j, and angle equal to their common phase
    there; coordinates supported by no term sit at the disc center.  In
    a chain those terms are all the terms from the first one nonzero at
    j, so each term's suffix weight is the radius of the coordinates it
    adds.
    """
    nums, whole = _over_lcm([w for w, _ in p.terms])
    coords = [_CENTER] * len(p.terms[0][1])
    left = whole  # the weight of this term and every later one
    for w, (_, x) in zip(nums, p.terms):
        radius = None
        for j, e in enumerate(x.entries):
            if e.angle is not None and coords[j] is _CENTER:
                if radius is None:
                    radius = Fraction(left, whole)
                coords[j] = DiscPoint(radius, e.angle)
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
    nums, whole = _over_lcm([c.radius for c in z.coords])
    entries = [ZERO] * len(nums)
    terms = []
    # radius 1 is always a level: with no coordinate there, its vector is
    # the all-zero term that takes the slack
    level = whole
    for j in sorted(range(len(nums)), key=nums.__getitem__, reverse=True):
        r = nums[j]
        if not r:
            break
        if r < level:
            terms.append((Fraction(level - r, whole),
                          PhaseVector(tuple(entries))))
            level = r
        entries[j] = Phase(z.coords[j].angle)
    terms.append((Fraction(level, whole), PhaseVector(tuple(entries))))
    return JoinPoint(tuple(terms))


def delta_member(v: PhaseVector, z: ModelPoint) -> bool:
    """Whether z lies in the order complex of the nonzero covectors of v.

    Equivalent to: the chain of z has no all-zero term (its maximum
    radius is 1) and every chain vector, one per radius level set, is a
    covector of v (which also rules out single-coordinate levels).
    Twisting z by v first makes that a zero-sum test per chain vector.
    """
    return all(support(x) and zero_in_sum(x)
               for _, x in model_to_join(rescale_model(v, z)).terms)


def rotate(y: Angle, z: ModelPoint) -> ModelPoint:
    """Rotate every nonzero coordinate of z by the angle y."""
    return rescale_model(PhaseVector((Phase(y),) * len(z)), z)


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
        if c.radius == 0:
            coords.append(c)
        else:
            coords.append(DiscPoint(c.radius, c.angle + vk.angle))
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


def _grid_value(k: int) -> tuple[Fraction, Angle, Phase]:
    q = Fraction(k, _DEN)
    a = Angle.of_ratio(k, _DEN)
    return q, a, Phase(a)


# The sampling grid k/64 as (Fraction, Angle, Phase), keyed by k and built
# once.  The values are frozen, so every draw shares them.
_DEN = 64
_GRID = tuple(_grid_value(k) for k in range(_DEN + 1))


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
            k = rng.randint(0, _DEN)
        coords.append(DiscPoint(_GRID[k][0], _GRID[rng.randint(0, _DEN)][1]))
    return ModelPoint(tuple(coords))


def random_join_point(rng: random.Random, n: int) -> JoinPoint:
    """A random canonical weighted chain on n coordinates, phases on k/64."""
    # pick a strictly increasing flag of supports
    order = list(range(n))
    rng.shuffle(order)
    depth = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n + 1), depth))
    phases = [_GRID[rng.randint(0, _DEN)][2] for _ in range(n)]
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
    raw = [rng.randint(1, _DEN) for _ in vectors]
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    return JoinPoint(tuple(zip(weights, vectors)))
