"""Phase vectors, covectors, and the sign vectors' specialization order.

A vector x of hyperfield elements is a covector of a unit vector v when
zero lies in the hyperfield sum of the products v_k * x_k.  Over the
tropical phase hyperfield this means: after twisting each entry of x by
the matching entry of v, either everything vanishes, or at least two
entries survive and no open half-circle contains all of them.  The sign
hyperfield is the phase hyperfield at z, 0 and 1/2, so over it the same
rule means both signs occur (or nothing survives), and sign covectors are
enumerated by the phase loop at m = 2.

Text form of a phase vector: comma-separated tokens, each "z" for the
zero element or a rational angle in turns ("0", "1/2", ...).  Sign
vectors use "+", "-", "0", and `sign_leq_vec` is their componentwise
specialization order: each entry is 0 or equals its partner.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .phase import (
    Angle,
    Phase,
    ZERO,
    mul,
    parse_fraction,
    value_type,
)

__all__ = [
    "PhaseVector",
    "support",
    "zero_in_sum",
    "is_covector",
    "find_zero_triple",
    "rescale",
    "iter_covectors",
    "enumerate_covectors",
    "parse_phase_vector",
    "format_phase_vector",
    "parse_sign_vector",
    "format_sign_vector",
    "sign_leq_vec",
]

@value_type
class PhaseVector:
    """A tuple of tropical phase hyperfield elements."""

    entries: tuple[Phase, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Phase:
        return self.entries[i]

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.entries)

    def __str__(self) -> str:
        return format_phase_vector(self)


def support(x: PhaseVector) -> tuple[int, ...]:
    """1-based indices of the nonzero entries."""
    return tuple([i for i, e in enumerate(x.entries, 1) if e.angle is not None])


def _spans_half(ticks: Sequence[int], whole: int) -> bool:
    """Zero test for the nonzero phases at angles tick/whole turns.

    The empty sum contains zero.  Otherwise zero appears exactly when
    the largest gap g between cyclically consecutive angles satisfies
    2g <= whole, i.e. the minimal enclosing arc is at least half a turn.
    One angle, however often repeated, leaves a gap of a whole turn, and
    a repeat adds only a gap of 0.
    """
    if not ticks:
        return True
    s = sorted(ticks)
    gap = max([whole + s[0] - s[-1], *map(operator.sub, s[1:], s)])
    return 2 * gap <= whole


def _tick_scale(xs: Sequence[Phase]) -> tuple[list, int]:
    """Each entry's angle in ticks (None for zero) and the turn length.

    The turn length is the lcm of the angles' denominators, so every
    angle is a whole number of ticks.
    """
    whole = math.lcm(*[e.angle.den for e in xs if e.angle is not None])
    return [None if e.angle is None else e.angle.num * (whole // e.angle.den)
            for e in xs], whole


def zero_in_sum(xs: Sequence[Phase]) -> bool:
    """Whether zero lies in the iterated hyperaddition of the entries.

    The all-zero sum contains zero; a sum with exactly one nonzero term
    is that singleton and misses zero; otherwise zero appears exactly
    when the nonzero angles cannot fit in an open half-circle, i.e.
    their minimal enclosing arc has length >= 1/2 turn.
    """
    angles = [e.angle for e in xs if e.angle is not None]
    if len(angles) < 2:
        return not angles
    whole = math.lcm(*[a.den for a in angles])
    return _spans_half([a.num * (whole // a.den) for a in angles], whole)


def is_covector(v: PhaseVector, x: PhaseVector) -> bool:
    """Whether x is a covector of the unit vector v.

    True for the all-zero x; false whenever x has exactly one nonzero
    entry.  v must consist of nonzero phases.
    """
    return zero_in_sum(rescale(v, x))


def find_zero_triple(x: PhaseVector) -> tuple[int, int, int] | None:
    """The lexicographically smallest 1-based triple j < k < l with zero
    in the hyperaddition of x_j, x_k, x_l, or None if no triple works.

    Every covector with support of size at least 3 admits one, because
    dropping entries outside a spanning triple keeps the enclosing arc
    long; zero entries inside a triple are harmless filler.
    """
    ticks, whole = _tick_scale(x.entries)
    for (i, a), (j, b), (k, c) in itertools.combinations(enumerate(ticks), 3):
        if a is None or b is None or c is None:
            rest = [t for t in (a, b, c) if t is not None]
            if not rest:
                return i + 1, j + 1, k + 1
            # a zero adds nothing to the sum, just as a repeated angle does
            a, b, c = rest[0], rest[-1], rest[-1]
        if a > b:  # sort the three ticks: a <= b <= c
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        # zero is in the sum when no gap between the angles exceeds half a
        # turn: the gaps are b - a, c - b and the wrap-around whole - (c - a)
        if 2 * (b - a) <= whole and 2 * (c - b) <= whole <= 2 * (c - a):
            return i + 1, j + 1, k + 1
    return None


def rescale(v: PhaseVector, x: PhaseVector) -> PhaseVector:
    """Entrywise product (v_1 x_1, ..., v_n x_n) for a unit vector v.

    For fixed v this is a bijection of vectors that carries covectors of
    v to covectors of the all-ones vector and back.
    """
    if len(v) != len(x):
        raise ValueError("vector lengths differ")
    if any(e.is_zero for e in v):
        raise ValueError("unit vector must have no zero entries")
    return PhaseVector(tuple(mul(vk, xk) for vk, xk in zip(v, x)))


def _phase_alphabet(m: int) -> list[Phase]:
    # zero sorts before all angles; angles ascend
    return [ZERO] + [Phase.of(Fraction(k, m)) for k in range(m)]


def iter_covectors(field: str, n: int, m: int | None = None) -> Iterator:
    """Each nonzero covector of the all-ones vector over a discretization.

    field "phase": entries range over zero and the m-th roots of unity
    (m even, so antipodes stay on the grid); yields PhaseVectors in
    lexicographic order with zero before ascending angles.  field
    "sign": the same loop at m = 2 (any m given is ignored), its zero
    and angles 0 and 1/2 read as the signs 0, +1 and -1; yields int
    tuples in that order.  The zero vector is excluded in both cases.
    The arguments are checked at the call, before the first item.  The
    walk holds one covector at a time and its table of decided tick
    sets, at most 2^(m+1) entries.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if field == "phase":
        if m is None or m < 2 or m % 2 != 0:
            raise ValueError("phase enumeration needs even m >= 2")
        alphabet, build = _phase_alphabet(m), PhaseVector
    elif field == "sign":
        m, alphabet, build = 2, (0, 1, -1), tuple
    else:
        raise ValueError(f"unknown field {field!r}")
    return _walk(alphabet, build, n, m)


def _walk(alphabet, build, n: int, m: int) -> Iterator:
    # index 0 is zero, index k + 1 the angle k/m; one test per index set
    kept = {}
    for combo in itertools.product(range(m + 1), repeat=n):
        key = frozenset(combo)
        keep = kept.get(key)
        if keep is None:
            ticks = [t - 1 for t in key if t]
            keep = kept[key] = bool(ticks) and _spans_half(ticks, m)
        if keep:
            yield build(tuple(map(alphabet.__getitem__, combo)))


def enumerate_covectors(field: str, n: int, m: int | None = None) -> list:
    """iter_covectors(field, n, m) as a list, in the same order.  It holds
    every covector at once; a single pass should iterate that instead."""
    return list(iter_covectors(field, n, m))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def parse_phase_vector(text: str) -> PhaseVector:
    entries = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "z":
            entries.append(ZERO)
        else:
            entries.append(Phase(Angle(parse_fraction(tok))))
    return PhaseVector(tuple(entries))


def format_phase_vector(x: PhaseVector) -> str:
    return ",".join(str(e) for e in x)


# the one sign-token table: each token's sign, and each sign's token
_SIGN_OF = {"+": 1, "-": -1, "0": 0}
_TOKEN_OF = {s: tok for tok, s in _SIGN_OF.items()}


def parse_sign_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(_SIGN_OF[tok.strip()] for tok in text.split(","))
    except KeyError as miss:
        raise ValueError(f"sign tokens are {', '.join(_SIGN_OF)};"
                         f" got {miss.args[0]!r}") from None


def format_sign_vector(v: Sequence[int]) -> str:
    return ",".join(_TOKEN_OF[e] for e in v)


# ---------------------------------------------------------------------------
# Sign hyperfield counterparts
# ---------------------------------------------------------------------------


def sign_leq_vec(x: Sequence[int], y: Sequence[int]) -> bool:
    if len(x) != len(y):
        raise ValueError("vector lengths differ")
    # a plain loop: the order complex asks this of every pair of elements
    for a, b in zip(x, y):
        if a != 0 and a != b:
            return False
    return True
