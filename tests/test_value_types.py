"""Invariants of the frozen value types.

The nine value dataclasses are slotted, refuse every assignment and
deletion with `FrozenInstanceError`, and survive pickling and copying.
An `Angle` holds only the reduced integer ratio of its turns in
`num`/`den`, and still takes its turns as the one constructor argument:
it is equal to another exactly when the turns are, and its repr is that
of the turns.  `DiscPoint` and `JoinPoint` hold their radius and weights
as ints too, and keep the equality and repr of their forms that held
Fractions.  Each compares and hashes by its reduced fields, so equal
values hash equal.
"""

import copy
import inspect
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetop.cells import CellLabel
from phasetop.covectors import PhaseVector, parse_phase_vector
from phasetop.order_complex import (DiscPoint, JoinPoint, ModelPoint,
                                    random_join_point)
from phasetop.phase import (Angle, Arc, Phase, PhaseSet, ZERO, _over_lcm,
                            format_fraction)

F = Fraction


def _examples():
    a = Angle(F(3, 8))
    x = parse_phase_vector("0,z,1/3")
    y = parse_phase_vector("0,1/2,1/3")
    return [
        a,
        Phase(a),
        ZERO,
        Arc(a, F(1, 4)),
        PhaseSet(True, (Arc(a, F(0)), Arc(Angle(F(3, 4)), F(1, 8)))),
        x,
        CellLabel.of(["U", "L", "1"]),
        DiscPoint(F(2, 3), a),
        ModelPoint((DiscPoint(F(2, 3), a), DiscPoint.center())),
        JoinPoint([(F(1, 4), x), (F(3, 4), y)]),
    ]


VALUE_TYPES = [Angle, Phase, Arc, PhaseSet, PhaseVector, CellLabel,
               DiscPoint, ModelPoint, JoinPoint]


@dataclass(frozen=True)
class _Unslotted:
    turns: int


def _refusal(act):
    """The type and text of the error that act() raises."""
    with pytest.raises(Exception) as info:
        act()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_value_types_are_slotted(cls):
    value = next(v for v in _examples() if type(v) is cls)
    assert "__slots__" in cls.__dict__
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_value_types_refuse_assignment_as_unslotted_frozen_ones_do(cls):
    value = next(v for v in _examples() if type(v) is cls)
    plain = _Unslotted(0)
    for name in (fields(value)[0].name, "turns", "extra"):
        for act in (lambda x: setattr(x, name, None),
                    lambda x: delattr(x, name)):
            got = _refusal(lambda: act(value))
            assert got[0] is FrozenInstanceError, (name, got)
            assert got == _refusal(lambda: act(plain)), name


@pytest.mark.parametrize("value", _examples(), ids=lambda v: type(v).__name__)
def test_pickle_and_deepcopy_give_equal_values(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                 copy.copy(value)):
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        for f in fields(value):  # every field comes back too
            assert getattr(twin, f.name) == getattr(value, f.name)


rationals = st.one_of(
    st.fractions(),
    st.builds(lambda k, q: F(k, q), st.integers(-10**12, 10**12),
              st.integers(1, 10**12)),
)
turns_inputs = st.one_of(
    rationals,
    st.integers(-10**6, 10**6),  # int input
    rationals.map(lambda q: q - 5),  # negative
    rationals.map(lambda q: abs(q) + 1),  # at least one turn
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(turns_inputs)
def test_angle_ratio_is_the_ratio_of_its_reduced_turns(t):
    a = Angle(t)
    assert type(a.turns) is Fraction
    assert 0 <= a.turns < 1 and a.turns == F(t) % 1
    assert (a.num, a.den) == a.turns.as_integer_ratio()
    assert type(a.num) is int and type(a.den) is int
    assert (a.as_integer_ratio() == (a.num, a.den)
            and format_fraction(a) == str(a) == format_fraction(a.turns))


@pytest.mark.parametrize("t, ratio", [
    (0, (0, 1)), (3, (0, 1)), (-1, (0, 1)), (F(-1, 4), (3, 4)),
    (F(5, 4), (1, 4)), (F(2, 4), (1, 2)), (F(7, 3), (1, 3)),
    (F(-7, 3), (2, 3)), ("1/6", (1, 6)), (0.75, (3, 4)),
])
def test_angle_ratio_for_each_way_of_building_an_angle(t, ratio):
    a = Angle(t)
    assert (a.num, a.den) == ratio
    assert a.turns == F(*ratio)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rationals, rationals)
# huge denominators, multiples of 2**61 - 1
@example(F(1, 2**61 - 1), F(5, 3 * (2**61 - 1)))
def test_angle_ratio_leaves_eq_hash_and_repr_alone(s, t):
    a, b = Angle(s), Angle(t)
    assert (a == b) == (a.turns == b.turns)
    assert (a != b) == (a.turns != b.turns)
    assert a != b or hash(a) == hash(b)
    assert repr(a) == f"Angle(turns={a.turns!r})"
    assert Angle(s + 3) == a and hash(Angle(s + 3)) == hash(a)


def test_angle_ratio_is_not_an_argument():
    with pytest.raises(TypeError):
        Angle(F(1, 2), 1, 2)
    assert list(inspect.signature(Angle).parameters) == ["turns"]


# ---------------------------------------------------------------------------
# DiscPoint and JoinPoint hold ints; their contract is that of the forms
# that held Fractions, kept here as reference dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FractionDiscPoint:
    radius: Fraction
    angle: Angle


@dataclass(frozen=True)
class _FractionJoinPoint:
    terms: tuple


# radii from a small pool, so equal points recur, given in every form the
# constructor takes
disc_radii = st.sampled_from([
    0, 1, F(1, 2), "2/4", 0.5, F(1, 3), F(2, 3), "1/64", F(1, 2**61 - 1),
    F(5, 3 * (2**61 - 1))])
disc_args = st.tuples(disc_radii, st.sampled_from([
    Angle(0), Angle(F(1, 3)), Angle(F(2, 3)), Angle(F(1, 2**61 - 1))]))


def _assert_the_contract(p, q, ref, rq, names):
    """p equals q exactly when their references are equal, and then
    hashes as q does; p's repr is its reference's; copies and pickles are
    equal twins; every assignment and deletion is refused as the
    reference's."""
    assert (p == q) == (ref == rq) and (p != q) == (ref != rq)
    assert p != q or hash(p) == hash(q)
    assert p.__eq__(ref) is NotImplemented and p != ref
    assert repr(p) == repr(ref).replace(type(ref).__name__,
                                        type(p).__name__, 1)
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p),
                 copy.copy(p)):
        assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
    for name in names:
        for act in (lambda x: setattr(x, name, None),
                    lambda x: delattr(x, name)):
            got = _refusal(lambda: act(p))
            assert got[0] is FrozenInstanceError, (name, got)
            assert got == _refusal(lambda: act(ref)), name


@settings(derandomize=True, max_examples=300, deadline=None)
@given(disc_args, disc_args)
# a radius with a huge denominator, 2**61 - 1
@example((F(1, 2**61 - 1), Angle(F(1, 3))), ("2/4", Angle(0)))
def test_disc_point_keeps_the_contract_of_its_fraction_form(s, t):
    a, b = DiscPoint(*s), DiscPoint(*t)
    ra, rb = (_FractionDiscPoint(c.radius, c.angle) for c in (a, b))
    assert a.radius == F(s[0]) and type(a.radius) is Fraction
    assert (a.num, a.den) == a.radius.as_integer_ratio()
    _assert_the_contract(a, b, ra, rb, ("radius", "num", "angle", "extra"))


@st.composite
def _join_points(draw):
    """A sampler's chain from a few seeds, so equal points recur, built
    again from its terms, from ints over a multiple of its lcm, or as is."""
    p = random_join_point(random.Random(draw(st.integers(0, 15))),
                          draw(st.integers(1, 3)))
    form = draw(st.sampled_from(["as drawn", "terms", "text", "scaled"]))
    if form == "terms":
        return JoinPoint(p.terms)
    if form == "text":
        return JoinPoint([(str(w), x) for w, x in p.terms])
    if form == "scaled":
        k = draw(st.integers(2, 7))
        return JoinPoint.of_ratios([k * w for w in p.nums], k * p.whole,
                                   p.vectors)
    return p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_join_points(), _join_points())
def test_join_point_keeps_the_contract_of_its_fraction_form(p, q):
    rp, rq = _FractionJoinPoint(p.terms), _FractionJoinPoint(q.terms)
    assert all(type(w) is Fraction for w, _ in p.terms)
    assert (list(p.nums), p.whole) == _over_lcm([w for w, _ in p.terms])
    assert p.vectors == tuple(x for _, x in p.terms)
    _assert_the_contract(p, q, rp, rq, ("terms", "nums", "whole", "vectors",
                                        "extra"))


def test_int_builders_are_the_fraction_constructors():
    a = Angle(F(1, 3))
    x, y = parse_phase_vector("0,z"), parse_phase_vector("0,0")
    c = DiscPoint.of_ratio(6, 8, a)
    assert c == DiscPoint(F(3, 4), a) and (c.num, c.den) == (3, 4)
    assert DiscPoint.of_ratio(0, 7, a).angle == Angle(0)  # the centre
    assert DiscPoint.of_ratio(9, 9, a) == DiscPoint(1, a)
    for num, den in ((5, 4), (-1, 4)):
        with pytest.raises(ValueError, match=r"^disc radius must lie in "):
            DiscPoint.of_ratio(num, den, a)
    p = JoinPoint.of_ratios([2, 6], 8, [x, y])
    assert p == JoinPoint([(F(1, 4), x), (F(3, 4), y)])
    assert (p.nums, p.whole, p.vectors) == ((1, 3), 4, (x, y))
    for nums, whole, vectors, message in [
            ([], 1, [], "join point needs at least one term"),
            ([1, 1], 2, [x, parse_phase_vector("0")],
             "chain vectors must share a length"),
            ([0, 2], 2, [x, y], "weights must be positive"),
            ([1, 1], 2, [y, x], "vectors must form a strict chain"),
            ([1, 1], 3, [x, y], "weights must sum to 1")]:
        with pytest.raises(ValueError) as info:
            JoinPoint.of_ratios(nums, whole, vectors)
        assert str(info.value) == message
