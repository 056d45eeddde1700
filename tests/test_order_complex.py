import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from phasetop import cells, mesh
from phasetop.covectors import (
    PhaseVector,
    is_covector,
    parse_phase_vector,
    support,
)
from phasetop.order_complex import (
    _DISCS,
    _GRID,
    DiscPoint,
    JoinPoint,
    ModelPoint,
    delta_member,
    format_model_point,
    join_to_model,
    model_to_join,
    _disc_row,
    parse_model_point,
    random_join_point,
    random_model_point,
    rescale_model,
)
from phasetop.phase import ORIGIN, Angle, Phase, ZERO

F = Fraction


def MP(*pairs):
    return ModelPoint(tuple(DiscPoint.of(r, a) for r, a in pairs))


def turn(y, z):
    """z with every coordinate turned by y turns: a twist by a constant
    vector."""
    return rescale_model(PhaseVector((Phase.of(y),) * len(z)), z)


def model_point_over(rng, n, den):
    """random_model_point's draw over k/den in place of k/64: the same
    rng calls, radii biased toward 0 and 1."""
    coords = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            k = 0
        elif roll < 0.5:
            k = den
        else:
            k = rng.randint(0, den)
        coords.append(DiscPoint.of(F(k, den), F(rng.randint(0, den), den)))
    return ModelPoint(tuple(coords))


def test_disc_point_center_is_canonical():
    assert DiscPoint.of(0, "1/3") == DiscPoint.center()
    assert str(DiscPoint.center()) == "0@0"
    with pytest.raises(ValueError):
        DiscPoint.of(2, 0)


def test_join_point_validation():
    ok = JoinPoint([
        (F(1, 4), parse_phase_vector("0,1/2,z")),
        (F(3, 4), parse_phase_vector("0,1/2,1/4")),
    ])
    assert len(ok.nums) == 2
    with pytest.raises(ValueError):  # weights must sum to 1
        JoinPoint([(F(1, 2), parse_phase_vector("0"))])
    with pytest.raises(ValueError):  # not a chain
        JoinPoint([
            (F(1, 2), parse_phase_vector("0,z")),
            (F(1, 2), parse_phase_vector("1/2,1/4")),
        ])
    with pytest.raises(ValueError):  # zero weight
        JoinPoint([
            (F(0), parse_phase_vector("z,z")),
            (F(1), parse_phase_vector("0,z")),
        ])
    with pytest.raises(ValueError):  # repeated grade
        JoinPoint([
            (F(1, 2), parse_phase_vector("0,z")),
            (F(1, 2), parse_phase_vector("0,z")),
        ])


def test_join_to_model_examples():
    p = JoinPoint([(F(1), parse_phase_vector("z,z"))])
    assert join_to_model(p) == MP((0, 0), (0, 0))

    p = JoinPoint([
        (F(1, 2), parse_phase_vector("z,z")),
        (F(1, 2), parse_phase_vector("0,1/2")),
    ])
    assert join_to_model(p) == MP(("1/2", 0), ("1/2", "1/2"))

    p = JoinPoint([
        (F(1, 4), parse_phase_vector("0,1/2,z")),
        (F(3, 4), parse_phase_vector("0,1/2,1/4")),
    ])
    assert join_to_model(p) == MP((1, 0), (1, "1/2"), ("3/4", "1/4"))


def test_model_to_join_examples():
    assert model_to_join(MP((0, 0), (0, 0))) == JoinPoint(
        [(F(1), parse_phase_vector("z,z"))]
    )
    assert model_to_join(MP((1, 0), (1, "1/2"))) == JoinPoint(
        [(F(1), parse_phase_vector("0,1/2"))]
    )
    got = model_to_join(MP((1, 0), (1, "1/2"), ("3/4", "1/4")))
    assert got == JoinPoint([
        (F(1, 4), parse_phase_vector("0,1/2,z")),
        (F(3, 4), parse_phase_vector("0,1/2,1/4")),
    ])


def test_round_trips_random():
    rng = random.Random("order-complex-round-trip")
    for _ in range(400):
        n = rng.randint(1, 6)
        p = random_join_point(rng, n)
        assert model_to_join(join_to_model(p)) == p
        z = random_model_point(rng, n)
        assert join_to_model(model_to_join(z)) == z


def test_delta_member_examples():
    ones2 = parse_phase_vector("0,0")
    assert delta_member(ones2, MP((1, 0), (1, "1/2")))
    assert not delta_member(ones2, MP((1, 0), ("3/4", "1/2")))
    ones3 = parse_phase_vector("0,0,0")
    assert delta_member(ones3, MP((1, 0), (1, "1/2"), ("3/4", "1/4")))
    # max radius below 1: the chain has slack at the bottom
    assert not delta_member(ones3, MP(("3/4", 0), ("3/4", "1/2"), (0, 0)))
    # level at radius 1 is a single coordinate
    assert not delta_member(ones3, MP((1, 0), ("1/2", "1/2"), ("1/2", 0)))
    with pytest.raises(ValueError):
        delta_member(ones2, MP((1, 0),))


def test_delta_member_refuses_a_zero_unit_at_the_centre():
    # the centre has no chain vectors, so only the twist sees v
    centre = MP((0, 0), (0, 0))
    for z in (centre, MP((1, 0), (1, "1/2"))):
        with pytest.raises(ValueError, match="no zero entries"):
            delta_member(parse_phase_vector("z,0"), z)
    with pytest.raises(ValueError, match="lengths differ"):
        delta_member(parse_phase_vector("0,0,0"), centre)


def test_rotate():
    z = MP((1, 0), (1, "1/2"))
    assert turn(F(0), z) == z
    assert turn(F(1, 4), z) == MP((1, "1/4"), (1, "3/4"))
    # center is fixed by rotation
    z = MP((0, 0), (1, "7/8"))
    assert turn(F(1, 4), z) == MP((0, 0), (1, "1/8"))


def test_delta_member_rotation_invariant():
    rng = random.Random("rotation-invariance")
    ones = parse_phase_vector("0,0,0")
    hits = 0
    for _ in range(300):
        z = model_point_over(rng, 3, 8)
        y = Fraction(rng.randint(0, 7), 8)
        a = delta_member(ones, z)
        assert a == delta_member(ones, turn(y, z))
        hits += a
    assert hits > 0  # the sampler does land inside sometimes


def test_rescale_model_transports_membership():
    rng = random.Random("rescale-transport")
    v = parse_phase_vector("1/8,3/8,3/4")
    ones = parse_phase_vector("0,0,0")
    for _ in range(200):
        z = model_point_over(rng, 3, 8)
        assert delta_member(v, z) == delta_member(ones, rescale_model(v, z))
    with pytest.raises(ValueError):
        rescale_model(parse_phase_vector("z,0,0"), random_model_point(rng, 3))


def test_model_point_text_round_trip():
    z = MP((1, 0), ("3/4", "1/4"), (0, 0))
    assert format_model_point(z) == "1@0;3/4@1/4;0@0"
    assert parse_model_point("1@0; 3/4@1/4; 0@0") == z
    with pytest.raises(ValueError):
        parse_model_point("1,0")


def reference_delta_member(v, z):
    """Slow reference: one covector test per radius level set of z."""
    radii = {c.radius for c in z.coords if c.radius > 0}
    if 1 not in radii:
        return False
    for r in radii:
        vec = PhaseVector(tuple(
            c.phase if c.radius >= r else ZERO for c in z.coords
        ))
        if not is_covector(v, vec):
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_delta_member_matches_the_level_set_reference(n):
    rng = random.Random(f"delta-reference:{n}")
    twisted = PhaseVector(tuple(Phase.of(F(2 * k + 1, 8)) for k in range(n)))
    for v in (PhaseVector((Phase.of(0),) * n), twisted):
        seen = set()
        for _ in range(500):
            z = model_point_over(rng, n, 8)
            got = delta_member(v, z)
            assert got == reference_delta_member(v, z), (str(v), str(z))
            seen.add(got)
        assert seen == {False, True}


# ---------------------------------------------------------------------------
# Differential tests: the integer port against the Fraction reference
# ---------------------------------------------------------------------------


def reference_disc_point_error(radius, angle):
    """The Fraction form of DiscPoint's checks: its message, or None."""
    if not 0 <= Fraction(radius) <= 1:
        return "disc radius must lie in [0, 1]"
    return None


def reference_leq_vec(x, y):
    """The componentwise specialization order: each x_k is zero or
    equals y_k."""
    return all(a.is_zero or a == b for a, b in zip(x, y, strict=True))


def reference_join_point_error(terms):
    """The Fraction form of JoinPoint's checks: its first message, or None."""
    if not terms:
        return "join point needs at least one term"
    n = len(terms[0][1])
    total = Fraction(0)
    prev = None
    for w, x in terms:
        if len(x) != n:
            return "chain vectors must share a length"
        if w <= 0:
            return "weights must be positive"
        total += w
        if prev is not None:
            if not (reference_leq_vec(prev, x) and prev != x):
                return "vectors must form a strict chain"
            if len(support(prev)) >= len(support(x)):
                return "support sizes must strictly increase"
        prev = x
    if total != 1:
        return "weights must sum to 1"
    return None


def reference_join_to_model(p):
    n = len(p.terms[0][1])
    coords = []
    for j in range(n):
        radius = Fraction(0)
        angle = None
        for w, x in p.terms:
            if not x[j].is_zero:
                radius += w
                angle = x[j].angle
        coords.append(DiscPoint.center() if radius == 0
                      else DiscPoint(radius, angle))
    return ModelPoint(tuple(coords))


def reference_model_to_join(z):
    n = len(z)
    radii = sorted({c.radius for c in z.coords if c.radius > 0}, reverse=True)
    terms = []
    if not radii:
        return JoinPoint(((Fraction(1), PhaseVector((ZERO,) * n)),))
    if radii[0] < 1:
        terms.append((1 - radii[0], PhaseVector((ZERO,) * n)))
    for i, r in enumerate(radii):
        nxt = radii[i + 1] if i + 1 < len(radii) else Fraction(0)
        vec = PhaseVector(tuple(
            c.phase if c.radius >= r else ZERO for c in z.coords))
        terms.append((r - nxt, vec))
    return JoinPoint(tuple(terms))


def _mixed_fraction(rng):
    """A rational in [0, 1] whose denominator is small, large, or prime."""
    q = rng.choice([rng.randint(1, 12), rng.randint(1, 10**6),
                    rng.choice([7919, 65_537, 999_983, 10**6])])
    return Fraction(rng.randint(0, q), q)


def _mixed_model_point(rng, n):
    """Radii with mixed denominators; equal radii in different forms."""
    pool = [_mixed_fraction(rng) for _ in range(rng.randint(1, n))]
    pool += [Fraction(0), Fraction(1)]
    return ModelPoint(tuple(
        DiscPoint(rng.choice(pool), Angle(_mixed_fraction(rng)))
        for _ in range(n)))


def _mixed_join_point(rng, n):
    """A canonical chain whose weights have mixed, coprime denominators."""
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    if rng.random() < 0.3:
        cuts.insert(0, 0)
    phases = [Phase(Angle(_mixed_fraction(rng))) for _ in range(n)]
    vectors = [PhaseVector(tuple(phases[j] if j in order[:c] else ZERO
                                 for j in range(n))) for c in cuts]
    marks = set()
    while len(marks) < len(vectors) - 1:
        marks.add(_mixed_fraction(rng))
        marks.discard(Fraction(0))
        marks.discard(Fraction(1))
    edges = [Fraction(0), *sorted(marks), Fraction(1)]
    return JoinPoint(tuple((b - a, v) for a, b, v in
                           zip(edges, edges[1:], vectors)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_round_trip_maps_match_the_reference_on_mixed_denominators(n):
    rng = random.Random(f"mixed-denominators:{n}")
    for _ in range(300):
        p = _mixed_join_point(rng, n)
        z = join_to_model(p)
        assert z == reference_join_to_model(p), str(p)
        assert model_to_join(z) == reference_model_to_join(z) == p
        z = _mixed_model_point(rng, n)
        p = model_to_join(z)
        assert p == reference_model_to_join(z), str(z)
        assert join_to_model(p) == reference_join_to_model(p) == z


def _error(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


V = parse_phase_vector


@pytest.mark.parametrize("terms", [
    [],
    [(F(1, 2), V("0"))],  # weights sum to 1/2
    [(F(1, 3), V("0,z")), (F(1, 2), V("0,1/3"))],  # sum 5/6
    [(F(1, 999_983), V("0,z")), (F(999_983, 1_000_001), V("0,1/3"))],
    [(F(0), V("z,z")), (F(1), V("0,z"))],  # zero weight
    [(F(-1, 7), V("z,z")), (F(8, 7), V("0,z"))],  # negative
    [(F(1, 2), V("0,z")), (F(1, 2), V("1/2,1/4"))],  # not a chain
    [(F(1, 2), V("0,z")), (F(1, 2), V("z,1/4"))],  # not a chain
    [(F(1, 2), V("0,z")), (F(1, 2), V("0,z"))],  # equal supports
    [(F(1, 2), V("z,z")), (F(1, 2), V("z,z"))],  # both zero
    [(F(1, 3), V("0,z,z")), (F(1, 3), V("0,1/5,z")),
     (F(1, 3), V("0,1/4,1/2"))],  # chain broken at the third term
    [(F(1, 2), V("0,z")), (F(1, 2), V("0,z,z"))],  # lengths
    [(F(1, 2), V("0,z")), (F(1, 2), V("0,1/4"))],  # valid
    [(F(1, 4), V("0,z")), (F(0), V("0,1/4")),
     (F(3, 4), V("0,1/4"))],  # zero weight before a repeat
])
def test_join_point_checks_match_the_reference(terms):
    assert _error(lambda: JoinPoint(tuple(terms))) == (
        reference_join_point_error(terms))


@pytest.mark.parametrize("radius", [
    F(-1, 10**6), F(0), F(1, 999_983), F(1), F(1_000_001, 10**6), F(3, 2), 2,
])
def test_disc_point_checks_match_the_reference(radius):
    angle = Angle(F(1, 3))
    assert _error(lambda: DiscPoint(radius, angle)) == (
        reference_disc_point_error(radius, angle))


def test_join_point_converts_weights_as_disc_point_converts_radii():
    x, y = V("0,z"), V("0,1/4")
    p = JoinPoint(((0.5, x), ("1/2", y)))
    assert p == JoinPoint([(F(1, 2), x), (F(1, 2), y)])
    assert all(type(w) is Fraction for w, _ in p.terms)
    assert JoinPoint(((1, x),)).terms == ((F(1), x),)
    with pytest.raises(ValueError, match="weights must sum to 1"):
        JoinPoint(((0.1, x), (0.9, y)))  # binary floats, exactly
    for bad in ["abc", None, float("nan"), float("inf"), object()]:
        with pytest.raises(ValueError, match="weights must be rational"):
            JoinPoint(((bad, x), (F(1, 2), y)))


def test_gamma_sampler_streams_are_pinned():
    lines = []
    for n in range(2, 7):
        rng = random.Random(f"gamma:{n}:0")
        for _ in range(200):
            lines.append(repr(random_join_point(rng, n)))
            lines.append(repr(random_model_point(rng, n)))
    assert len(lines) == 2000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "bd609c23e6916ac6cea467c06e0033d1a6b4689bf80a6c566c81d39c35753124")


@pytest.mark.parametrize("den, digest", [
    (64, "d214e54cf8de8724b1109c9cfb52ea3a6473562eeecb74e9d5d3ed355fa7abe2"),
])
def test_sampler_draws_are_pinned_at_every_den(den, digest):
    # taken from the samplers that built each value per draw, when they
    # took the grid as an argument; 64 is the grid they keep
    h = hashlib.sha256()
    for n in range(1, 7):
        rng = random.Random(f"draw-pin:{den}:{n}")
        for _ in range(200):
            h.update(repr(random_model_point(rng, n)).encode())
            h.update(repr(random_join_point(rng, n)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("den", [1, 2, 7, 64, 10**9])
def test_grid_table_entries_are_the_fresh_values(den):
    # each k/den that lies on the 64ths is the table's entry there; den = 64
    # walks the whole table
    assert len(_GRID) == 65
    ks = range(den + 1) if den <= 64 else (0, 1, 2, den // 2, den - 1, den)
    hits = 0
    for k in ks:
        r = Fraction(k, den)
        if (r * 64).denominator != 1:
            continue
        a, p = _GRID[int(r * 64)]
        assert a == Angle(r) and 0 <= a.turns < 1
        assert p == Phase(Angle(r)) and p.angle is a
        hits += 1
    assert hits == (65 if den == 64 else 2 if den in (1, 7) else 3)


def test_model_point_sampler_is_the_draw_over_64ths():
    shared = [a for a, _ in _GRID] + [ORIGIN]
    for n in range(1, 7):
        rng, twin = random.Random(f"over-64:{n}"), random.Random(f"over-64:{n}")
        for _ in range(200):
            z = random_model_point(rng, n)
            assert z == model_point_over(twin, n, 64)
            # every radius is some k/64 in lowest terms, and every angle
            # is the table's shared object (a centre's is the shared ORIGIN)
            for c in z:
                k = c.num * (64 // c.den)
                assert (c.num, c.den) == Fraction(k, 64).as_integer_ratio()
                assert type(c.num) is int and type(c.den) is int
                assert any(c.angle is a for a in shared)


# ---------------------------------------------------------------------------
# Shared values: each disc point holds its Phase, and the round trip and the
# samplers pass existing values on
# ---------------------------------------------------------------------------


def _holds_its_phase(c):
    """The centre holds the shared ORIGIN and ZERO; any other point the
    Phase of its own angle object."""
    if c.num == 0:
        return c.angle is ORIGIN and c.phase is ZERO
    return c.phase.angle is c.angle and c.phase == Phase(c.angle)


def _reduced(c):
    """c's radius and angle are reduced ratios, the angle in [0, 1):
    equality and the hash read the fields, so they rely on this."""
    a = c.angle
    return (math.gcd(c.num, c.den) == 1 and math.gcd(a.num, a.den) == 1
            and 0 <= a.num < a.den)


def test_every_disc_point_constructor_sets_its_phase():
    # each point also holds reduced ratios, however unreduced its ints
    rng = random.Random("disc-phase")
    points = [DiscPoint.center(), cells._ONE_POINT, cells._MINUS_ONE_POINT]
    for _ in range(200):
        r, a = _mixed_fraction(rng), _mixed_fraction(rng)
        (rn, rd), (an, ad) = r.as_integer_ratio(), a.as_integer_ratio()
        points += [DiscPoint(r, Angle(a)), DiscPoint.of(r, a),
                   DiscPoint.of_ratio(*r.as_integer_ratio(), Angle(a)),
                   DiscPoint.of_ratio(3 * rn, 3 * rd, Angle.of_ratio(
                       6 * an - 12 * ad, 6 * ad)),
                   DiscPoint(0, Angle(a))]
    for _ in range(100):
        n = rng.randint(1, 5)
        z = _mixed_model_point(rng, n)
        v = PhaseVector(tuple(Phase.of(_mixed_fraction(rng))
                              for _ in range(n)))
        points += parse_model_point(format_model_point(z)).coords
        points += rescale_model(v, z).coords
        points += join_to_model(random_join_point(rng, n)).coords
        points += join_to_model(_mixed_join_point(rng, n)).coords
        points += random_model_point(rng, n).coords
    for m in (1, 2, 4):
        points += mesh._point_of(m)(tuple(range(2 * m + 1))).coords
    points += [cells._upper_at(u) for u in range(17)]
    points += [cells._lower_at(t) for t in range(0, 257, 8)]
    points += [cells._disc_at(r, a) for r in range(17) for a in range(16)]
    points += [c for k in range(65) for c in _disc_row(k)]
    for c in points:
        assert _holds_its_phase(c) and _reduced(c), repr(c)


@pytest.mark.parametrize("sampler", [random_join_point, _mixed_join_point])
def test_round_trip_hands_back_the_chains_own_phases(sampler):
    rng = random.Random(f"own-phases:{sampler.__name__}")
    for _ in range(300):
        p = sampler(rng, rng.randint(1, 6))
        z = join_to_model(p)
        assert all(math.gcd(c.num, c.den) == 1 for c in z), str(z)
        q = model_to_join(z)
        assert q == p and len(q.vectors) == len(p.vectors)
        # every constructor divides the weights by their gcd
        scaled = JoinPoint.of_ratios([3 * w for w in p.nums], 3 * p.whole,
                                     p.vectors)
        for r in (p, q, JoinPoint(p.terms), scaled):
            assert math.gcd(*r.nums) == 1 and sum(r.nums) == r.whole, str(r)
            assert r == p and hash(r) == hash(p), str(r)
        for x, y in zip(q.vectors, p.vectors):
            assert all(a is b for a, b in zip(x.entries, y.entries)), str(p)


def test_disc_table_entries_are_the_grid_points():
    rng = random.Random("disc-table")
    drawn = [c for _ in range(200) for c in random_model_point(rng, 6)]
    for k in range(65):
        row = _DISCS[k] or _disc_row(k)
        assert len(row) == 65
        for i, c in enumerate(row):
            assert c == DiscPoint.of(F(k, 64), F(i, 64)), (k, i)
            assert (c.num, c.den) == F(k, 64).as_integer_ratio()
            a, p = _GRID[i] if k else (ORIGIN, ZERO)
            assert c.angle is a and c.phase is p, (k, i)
    # every draw is an entry of its radius's row, built on that draw
    for c in drawn:
        assert any(c is e for e in _DISCS[c.num * (64 // c.den)]), repr(c)


def test_importing_phasetop_builds_no_disc_row():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import phasetop, phasetop.cli; from phasetop import order_complex"
            " as oc; print(oc._DISCS.count(None))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                       check=True, timeout=60)
    assert r.stdout.split() == ["65"]
