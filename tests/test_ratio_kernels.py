"""Differential tests: kernels that read each rational's integer ratio once.

Angles hold only their reduced ratio (`Angle.num`/`Angle.den`), `_over_lcm`
reads each `Fraction`'s `as_integer_ratio()` once, and the order-complex
round trip walks its input once, on the ints that disc points and join
points hold.  Each kernel is checked here against its earlier form, which
read `numerator`/`denominator` on every call and built the round trip
level by level; those forms are kept below as references.
Angle arithmetic, arcs and `min_enclosing_arc` are checked against
`Fraction` arithmetic mod 1.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetop.cells import _lower, _upper
from phasetop.covectors import PhaseVector, _tick_scale
from phasetop.order_complex import (
    DiscPoint,
    JoinPoint,
    ModelPoint,
    _CENTER,
    join_to_model,
    model_to_join,
    random_join_point,
    random_model_point,
)
from phasetop.phase import (
    HALF,
    ONE,
    ZERO,
    Angle,
    Arc,
    Phase,
    PhaseSet,
    _over_lcm,
    hyper_sum_list,
    min_enclosing_arc,
)

F = Fraction
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# References: the forms that read numerator/denominator on every call
# ---------------------------------------------------------------------------


def reference_over_lcm(qs):
    """Numerators over D, the lcm of the denominators, and D; None stays."""
    d = math.lcm(*[q.denominator for q in qs if q is not None])
    return [None if q is None else q.numerator * (d // q.denominator)
            for q in qs], d


def reference_tick_scale(xs):
    return reference_over_lcm(
        [None if e.angle is None else e.angle.turns for e in xs])


def reference_hyper_sum_list(xs):
    turns = [x.angle.turns for x in xs if x.angle is not None]
    if not turns:
        return PhaseSet(True, ())
    ticks, d = reference_over_lcm([HALF, *turns])
    half, start, length = ticks[0], ticks[1], 0
    for p in ticks[2:]:
        if (p + half - start) % d <= length:
            return PhaseSet(True, (Arc(Angle(F(0)), ONE),))
        off = (p - start) % d
        if off <= length:
            continue
        if off - length <= d - off:
            length = off
        else:
            start, length = p, length + d - off
    return PhaseSet(False, (Arc(Angle(F(start, d)), F(length, d)),))


def reference_upper(c):
    r, a, d = c.radius, c.angle.turns.numerator, c.angle.turns.denominator
    if r.numerator != r.denominator or 2 * a > d:
        return None
    return 2 * a, d


def reference_lower(c):
    r, a, d = c.radius, c.angle.turns.numerator, c.angle.turns.denominator
    if r.numerator != r.denominator or 0 < 2 * a < d:
        return None
    return (2 * a - d, d) if a else (1, 1)


def reference_min_enclosing_arc(turns):
    """(start, length) of the shortest arc holding the given Fraction
    turns, by dropping the largest gap; ties go to the smallest start."""
    pts = sorted({t % 1 for t in turns})
    if not pts:
        return F(0), F(1)
    if len(pts) == 1:
        return pts[0], F(0)
    best = None
    for i, gap_start in enumerate(pts):
        gap_end = pts[i + 1] if i + 1 < len(pts) else pts[0] + 1
        cand = (1 - (gap_end - gap_start), gap_end % 1)
        if best is None or cand < best:
            best = cand
    return best[1], best[0]


def reference_join_to_model(p):
    nums, whole = reference_over_lcm([w for w, _ in p.terms])
    n = len(p.terms[0][1])
    radii = [0] * n
    angles = [None] * n
    for w, (_, x) in zip(nums, p.terms):
        for j, e in enumerate(x.entries):
            if e.angle is not None:
                radii[j] += w
                angles[j] = e.angle
    return ModelPoint(tuple(
        DiscPoint(F(r, whole), a) if r else _CENTER
        for r, a in zip(radii, angles)))


def reference_model_to_join_terms(z):
    nums, whole = reference_over_lcm([c.radius for c in z.coords])
    phases = [Phase(c.angle) if r else ZERO for c, r in zip(z.coords, nums)]
    levels = sorted({whole, *nums} - {0}, reverse=True)
    return tuple(
        (F(r - nxt, whole), PhaseVector(tuple(
            ph if num >= r else ZERO for ph, num in zip(phases, nums))))
        for r, nxt in zip(levels, levels[1:] + [0]))


def reference_join_point_terms(terms):
    """JoinPoint's checks in their earlier form: the terms, or ValueError."""
    if not terms:
        raise ValueError("join point needs at least one term")
    if not all(isinstance(w, Fraction) for w, _ in terms):
        try:
            terms = tuple((F(w), x) for w, x in terms)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(
                f"weights must be rational numbers: {exc}") from exc
    nums, whole = reference_over_lcm([w for w, _ in terms])
    prev, prev_size = terms[0][1].entries, -1
    n = len(prev)
    for w, (_, x) in zip(nums, terms):
        entries = x.entries
        if len(entries) != n:
            raise ValueError("chain vectors must share a length")
        if w <= 0:
            raise ValueError("weights must be positive")
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
    return terms


def _outcome(f, *args):
    """f's result, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


# ---------------------------------------------------------------------------
# Strategies: grid values k/den with small den, and off-grid rationals
# ---------------------------------------------------------------------------

grid = st.builds(lambda den, k: F(k, den), st.integers(1, 12),
                 st.integers(-30, 30))
off_grid = st.builds(lambda q, k: F(k, q), st.integers(1, 10**9),
                     st.integers(-10**9, 10**9))
rationals = st.one_of(grid, off_grid, st.fractions())
unit = st.one_of(st.sampled_from([F(0), F(1)]),
                 st.fractions(min_value=0, max_value=1),
                 grid.map(lambda q: q % 1))
angles = rationals.map(Angle)
phases = st.one_of(st.just(ZERO), angles.map(Phase))
disc_points = st.builds(DiscPoint, unit, angles)


@st.composite
def model_points(draw, max_n=6):
    """Radii drawn from a small pool, so ties are common."""
    pool = draw(st.lists(unit, min_size=1, max_size=3)) + [F(0), F(1)]
    n = draw(st.integers(1, max_n))
    return ModelPoint(tuple(
        DiscPoint(draw(st.sampled_from(pool)), draw(angles))
        for _ in range(n)))


def join_point_over(rng, n, den):
    """random_join_point's draw over k/den in place of k/64: the same rng
    calls, phases k/den and raw weights in [1, den]."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    phases = [Phase(Angle(F(rng.randint(0, den), den))) for _ in range(n)]
    entries = [ZERO] * n
    vectors = []
    for lo, hi in zip([0] + cuts, cuts):
        for j in order[lo:hi]:
            entries[j] = phases[j]
        vectors.append(PhaseVector(tuple(entries)))
    if rng.random() < 0.3:
        vectors.insert(0, PhaseVector((ZERO,) * n))
    raw = [rng.randint(1, den) for _ in vectors]
    return JoinPoint(tuple((F(r, sum(raw)), x) for r, x in zip(raw, vectors)))


@st.composite
def join_points(draw):
    """The chain of a drawn model point, or a seeded sampler draw."""
    if draw(st.booleans()):
        return JoinPoint(reference_model_to_join_terms(draw(model_points())))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return join_point_over(rng, draw(st.integers(1, 6)),
                           draw(st.sampled_from([1, 2, 7, 64, 10**9])))


def test_join_point_sampler_is_the_draw_over_64ths():
    for n in range(1, 7):
        rng, twin = random.Random(f"over-64:{n}"), random.Random(f"over-64:{n}")
        for _ in range(200):
            assert random_join_point(rng, n) == join_point_over(twin, n, 64)


SPECIAL_MODEL_POINTS = [
    ModelPoint((_CENTER,)),  # a single coordinate
    ModelPoint((DiscPoint(F(1), Angle(F(1, 3))),)),
    ModelPoint((DiscPoint(F(2, 7), Angle(F(1, 3))),)),
    ModelPoint((_CENTER,) * 5),  # all radii 0
    ModelPoint(tuple(DiscPoint(F(1), Angle(F(k, 5))) for k in range(5))),
    ModelPoint(tuple(DiscPoint(F(1, 2), Angle(F(k, 7))) for k in range(4))),
    ModelPoint((DiscPoint(F(1, 3), Angle(F(0))), _CENTER,
                DiscPoint(F(2, 6), Angle(F(1, 2))), DiscPoint(F(1), Angle(0)),
                DiscPoint(F(1, 3), Angle(F(5, 9))))),  # ties and a gap
]


# ---------------------------------------------------------------------------
# Kernel by kernel
# ---------------------------------------------------------------------------


@SETTINGS
@given(angles, angles)
def test_angle_arithmetic_is_fraction_arithmetic_mod_1(a, b):
    s, t = a.turns, b.turns
    for got, want in [(a + b, s + t), (a - b, s - t), (-a, -s),
                      (a.antipode(), s + HALF)]:
        assert (got.num, got.den) == (want % 1).as_integer_ratio()


@SETTINGS
@given(angles, st.one_of(unit, rationals.map(abs)), st.data())
def test_arc_end_and_contains_are_fraction_arithmetic_mod_1(start, length,
                                                           data):
    arc = Arc(start, length)
    s, span = arc.start.turns, arc.length
    assert arc.end().turns == (s + span) % 1
    # a free angle, or one at or just past either end of the arc
    near = [s, s + span, s + span / 2, s - F(1, 10**9), s + span + F(1, 10**9)]
    a = data.draw(st.one_of(angles, st.sampled_from(near).map(Angle)))
    assert arc.contains(a) == (span >= 1 or (a.turns - s) % 1 <= span)


# every gap of k points spaced evenly round the circle is the largest
even_spacing = st.builds(lambda k, q: [Angle(q + F(i, k)) for i in range(k)],
                         st.integers(2, 6), rationals)


@SETTINGS
@given(st.one_of(st.lists(st.one_of(angles, grid.map(Angle)), max_size=8),
                 even_spacing))
def test_min_enclosing_arc_matches_the_reference(xs):
    arc = min_enclosing_arc(xs)
    assert (arc.start.turns, arc.length) == reference_min_enclosing_arc(
        [a.turns for a in xs])


@SETTINGS
@given(st.lists(rationals, max_size=8))
def test_over_lcm_matches_the_reference(qs):
    assert _over_lcm(qs) == reference_over_lcm(qs)


@SETTINGS
@given(st.lists(phases, max_size=8))
def test_tick_scale_and_the_fold_match_the_reference(xs):
    assert _tick_scale(xs) == reference_tick_scale(xs)
    assert hyper_sum_list(xs) == reference_hyper_sum_list(xs)


@SETTINGS
@given(disc_points)
def test_upper_and_lower_match_the_reference(c):
    assert _upper(c) == reference_upper(c)
    assert _lower(c) == reference_lower(c)


@SETTINGS
@given(unit, angles)
def test_disc_point_pins_the_centre_angle_and_keeps_any_other(r, a):
    c = DiscPoint(r, a)
    assert c.radius == r
    assert c.angle == (Angle(F(0)) if r == 0 else a)


def test_upper_and_lower_match_the_reference_on_the_grid():
    for den in range(1, 13):
        for k in range(den):
            for r in (F(0), F(1, 2), F(1)):
                c = DiscPoint(r, Angle(F(k, den)))
                assert _upper(c) == reference_upper(c)
                assert _lower(c) == reference_lower(c)


@SETTINGS
@given(model_points())
def test_model_to_join_matches_the_reference(z):
    assert model_to_join(z).terms == reference_model_to_join_terms(z)


@pytest.mark.parametrize("z", SPECIAL_MODEL_POINTS, ids=str)
def test_model_to_join_matches_the_reference_on_special_points(z):
    p = model_to_join(z)
    assert p.terms == reference_model_to_join_terms(z)
    assert join_to_model(p) == reference_join_to_model(p) == z


@SETTINGS
@given(join_points())
def test_join_to_model_matches_the_reference(p):
    z = join_to_model(p)
    assert z == reference_join_to_model(p)
    assert model_to_join(z) == p


@SETTINGS
@given(join_points(), model_points())
def test_round_trip_ints_are_the_reference_ratios(p, z):
    # join_to_model: each radius, the weight of the terms nonzero at its
    # coordinate, is the reduced ratio of the reference's numerators
    nums, whole = reference_over_lcm([w for w, _ in p.terms])
    for j, c in enumerate(join_to_model(p).coords):
        r = F(sum(w for w, (_, x) in zip(nums, p.terms)
                  if x[j].angle is not None), whole)
        assert (c.num, c.den) == r.as_integer_ratio()
        assert type(c.num) is int and type(c.den) is int
    # model_to_join: the weights are the reference terms' over their lcm
    q, terms = model_to_join(z), reference_model_to_join_terms(z)
    assert (list(q.nums), q.whole) == reference_over_lcm(
        [w for w, _ in terms])
    assert q.vectors == tuple(x for _, x in terms)


@pytest.mark.parametrize("seed", range(5))
def test_samplers_round_trip_as_the_reference_does(seed):
    rng = random.Random(f"ratio-kernels:{seed}")
    for n in range(1, 7):
        for _ in range(100):
            p = random_join_point(rng, n)
            assert join_to_model(p) == reference_join_to_model(p)
            z = random_model_point(rng, n)
            assert model_to_join(z).terms == reference_model_to_join_terms(z)


# ---------------------------------------------------------------------------
# JoinPoint's checks: the same verdicts, in the same order, with the same
# messages as the earlier form
# ---------------------------------------------------------------------------

BAD_WEIGHTS = ["abc", None, float("nan"), float("inf"), object(), "1/0"]


@st.composite
def mangled_terms(draw):
    """The terms of a valid chain, with zero or more defects applied."""
    terms = list(draw(join_points()).terms)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(terms) - 1))
        w, x = terms[i]
        defect = draw(st.sampled_from([
            "empty", "weight", "scale", "repeat", "swap", "angle", "length",
            "rational", "float"]))
        if defect in ("weight", "scale", "float") and not isinstance(w, F):
            continue  # already not a rational
        if defect == "empty":
            terms = []
            break
        if defect == "weight":  # zero or negative
            terms[i] = (draw(st.sampled_from([F(0), -w, F(-1, 3)])), x)
        elif defect == "scale":  # the sum misses 1
            terms[i] = (w * draw(st.sampled_from([F(1, 2), F(3, 2)])), x)
        elif defect == "repeat":
            terms.insert(i, (w, x))
        elif defect == "swap" and i + 1 < len(terms):
            terms[i], terms[i + 1] = terms[i + 1], terms[i]
        elif defect == "angle":  # move one nonzero entry
            nz = [j for j, e in enumerate(x) if e.angle is not None]
            if nz:
                j = draw(st.sampled_from(nz))
                e = Phase(x[j].angle + Angle(F(1, 7)))
                terms[i] = (w, PhaseVector(x.entries[:j] + (e,)
                                           + x.entries[j + 1:]))
        elif defect == "length":
            terms[i] = (w, PhaseVector(x.entries + (ZERO,)))
        elif defect == "rational":
            terms[i] = (draw(st.sampled_from(BAD_WEIGHTS)), x)
        elif defect == "float":
            terms[i] = (float(w), x)
    return tuple(terms)


@SETTINGS
@given(mangled_terms())
def test_join_point_checks_match_the_reference(terms):
    expect = _outcome(reference_join_point_terms, terms)
    got = _outcome(lambda t: JoinPoint(t).terms, terms)
    assert got == expect


V = PhaseVector.of


@pytest.mark.parametrize("terms, message", [
    ((), "join point needs at least one term"),
    (((F(0), V([None, None])), (F(1), V([0, None]))),
     "weights must be positive"),
    (((F(-1, 7), V([None, None])), (F(8, 7), V([0, None]))),
     "weights must be positive"),
    (((F(1, 3), V([0, None])), (F(1, 2), V([0, "1/3"]))),
     "weights must sum to 1"),
    (((F(1, 2), V([0, None])), (F(1, 2), V(["1/2", "1/4"]))),
     "vectors must form a strict chain"),
    (((F(1, 2), V([0, None])), (F(1, 2), V([0, None]))),
     "vectors must form a strict chain"),
    (((F(1, 2), V([0, None])), (F(1, 2), V([0, None, None]))),
     "chain vectors must share a length"),
    ((("abc", V([0, None])), (F(1, 2), V([0, "1/4"]))),
     "weights must be rational numbers: "),
    (((F(1, 2), V([0, None])), (F(0), V([0, None, None]))),
     "chain vectors must share a length"),  # length before weight
    (((F(1, 4), V([0, None])), (F(0), V([0, None])),
      (F(3, 4), V([0, "1/4"]))),
     "weights must be positive"),  # weight before chain
])
def test_malformed_join_points_raise_the_reference_messages(terms, message):
    for build in (JoinPoint, reference_join_point_terms):
        with pytest.raises(ValueError) as info:
            build(terms)
        assert str(info.value).startswith(message)
        if not message.endswith(": "):
            assert str(info.value) == message
