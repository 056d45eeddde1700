import random
from fractions import Fraction

import pytest

from phasetop.covectors import PhaseVector, all_ones, is_covector
from phasetop.order_complex import (
    DiscPoint,
    JoinPoint,
    ModelPoint,
    delta_member,
    format_model_point,
    join_to_model,
    model_to_join,
    parse_model_point,
    random_join_point,
    random_model_point,
    rescale_model,
    rotate,
)
from phasetop.phase import Angle, ZERO

F = Fraction


def MP(*pairs):
    return ModelPoint.of(pairs)


def test_disc_point_center_is_canonical():
    assert DiscPoint.of(0, "1/3") == DiscPoint.center()
    assert str(DiscPoint.center()) == "0@0"
    with pytest.raises(ValueError):
        DiscPoint.of(2, 0)


def test_join_point_validation():
    ok = JoinPoint.of([
        (F(1, 4), PhaseVector.of([0, "1/2", None])),
        (F(3, 4), PhaseVector.of([0, "1/2", "1/4"])),
    ])
    assert ok.dimension == 2
    with pytest.raises(ValueError):  # weights must sum to 1
        JoinPoint.of([(F(1, 2), PhaseVector.of([0]))])
    with pytest.raises(ValueError):  # not a chain
        JoinPoint.of([
            (F(1, 2), PhaseVector.of([0, None])),
            (F(1, 2), PhaseVector.of(["1/2", "1/4"])),
        ])
    with pytest.raises(ValueError):  # zero weight
        JoinPoint.of([
            (F(0), PhaseVector.of([None, None])),
            (F(1), PhaseVector.of([0, None])),
        ])
    with pytest.raises(ValueError):  # repeated grade
        JoinPoint.of([
            (F(1, 2), PhaseVector.of([0, None])),
            (F(1, 2), PhaseVector.of([0, None])),
        ])


def test_join_to_model_examples():
    p = JoinPoint.of([(F(1), PhaseVector.of([None, None]))])
    assert join_to_model(p) == MP((0, 0), (0, 0))

    p = JoinPoint.of([
        (F(1, 2), PhaseVector.of([None, None])),
        (F(1, 2), PhaseVector.of([0, "1/2"])),
    ])
    assert join_to_model(p) == MP(("1/2", 0), ("1/2", "1/2"))

    p = JoinPoint.of([
        (F(1, 4), PhaseVector.of([0, "1/2", None])),
        (F(3, 4), PhaseVector.of([0, "1/2", "1/4"])),
    ])
    assert join_to_model(p) == MP((1, 0), (1, "1/2"), ("3/4", "1/4"))


def test_model_to_join_examples():
    assert model_to_join(MP((0, 0), (0, 0))) == JoinPoint.of(
        [(F(1), PhaseVector.of([None, None]))]
    )
    assert model_to_join(MP((1, 0), (1, "1/2"))) == JoinPoint.of(
        [(F(1), PhaseVector.of([0, "1/2"]))]
    )
    got = model_to_join(MP((1, 0), (1, "1/2"), ("3/4", "1/4")))
    assert got == JoinPoint.of([
        (F(1, 4), PhaseVector.of([0, "1/2", None])),
        (F(3, 4), PhaseVector.of([0, "1/2", "1/4"])),
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
    ones2 = all_ones(2)
    assert delta_member(ones2, MP((1, 0), (1, "1/2")))
    assert not delta_member(ones2, MP((1, 0), ("3/4", "1/2")))
    ones3 = all_ones(3)
    assert delta_member(ones3, MP((1, 0), (1, "1/2"), ("3/4", "1/4")))
    # max radius below 1: the chain has slack at the bottom
    assert not delta_member(ones3, MP(("3/4", 0), ("3/4", "1/2"), (0, 0)))
    # level at radius 1 is a single coordinate
    assert not delta_member(ones3, MP((1, 0), ("1/2", "1/2"), ("1/2", 0)))
    with pytest.raises(ValueError):
        delta_member(ones2, MP((1, 0),))


def test_rotate():
    z = MP((1, 0), (1, "1/2"))
    assert rotate(Angle(F(0)), z) == z
    assert rotate(Angle(F(1, 4)), z) == MP((1, "1/4"), (1, "3/4"))
    # center is fixed by rotation
    z = MP((0, 0), (1, "7/8"))
    assert rotate(Angle(F(1, 4)), z) == MP((0, 0), (1, "1/8"))


def test_delta_member_rotation_invariant():
    rng = random.Random("rotation-invariance")
    ones = all_ones(3)
    hits = 0
    for _ in range(300):
        z = random_model_point(rng, 3, den=8)
        y = Angle(Fraction(rng.randint(0, 7), 8))
        a = delta_member(ones, z)
        assert a == delta_member(ones, rotate(y, z))
        hits += a
    assert hits > 0  # the sampler does land inside sometimes


def test_rescale_model_transports_membership():
    rng = random.Random("rescale-transport")
    v = PhaseVector.of(["1/8", "3/8", "3/4"])
    ones = all_ones(3)
    for _ in range(200):
        z = random_model_point(rng, 3, den=8)
        assert delta_member(v, z) == delta_member(ones, rescale_model(v, z))
    with pytest.raises(ValueError):
        rescale_model(PhaseVector.of([None, 0, 0]), random_model_point(rng, 3))


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
    twisted = PhaseVector.of([Fraction(2 * k + 1, 8) for k in range(n)])
    for v in (all_ones(n), twisted):
        seen = set()
        for _ in range(500):
            z = random_model_point(rng, n, den=8)
            got = delta_member(v, z)
            assert got == reference_delta_member(v, z), (str(v), str(z))
            seen.add(got)
        assert seen == {False, True}
