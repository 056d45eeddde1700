"""Invariants of the frozen value types.

The nine value dataclasses are slotted, refuse every assignment and
deletion with `FrozenInstanceError`, and survive pickling and copying.
An `Angle` holds only the reduced integer ratio of its turns in
`num`/`den`, and still takes its turns as the one constructor argument:
its equality, hashing, order and repr must be those of the turns.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from phasetop.cells import CellLabel
from phasetop.covectors import PhaseVector
from phasetop.order_complex import DiscPoint, JoinPoint, ModelPoint
from phasetop.phase import Angle, Arc, Phase, PhaseSet, ZERO, format_fraction

F = Fraction


def _examples():
    a = Angle(F(3, 8))
    x = PhaseVector.of([0, None, "1/3"])
    y = PhaseVector.of([0, "1/2", "1/3"])
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
        JoinPoint.of([(F(1, 4), x), (F(3, 4), y)]),
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
# denominators with no inverse modulo the hash modulus 2**61 - 1
@example(F(1, 2**61 - 1), F(5, 3 * (2**61 - 1)))
def test_angle_ratio_leaves_eq_hash_order_and_repr_alone(s, t):
    a, b = Angle(s), Angle(t)
    assert (a == b) == (a.turns == b.turns)
    assert (a < b) == (a.turns < b.turns)
    assert (a <= b) == (a.turns <= b.turns)
    assert hash(a) == hash((a.turns,))
    assert repr(a) == f"Angle(turns={a.turns!r})"
    assert Angle(s + 3) == a and hash(Angle(s + 3)) == hash(a)


def test_angle_ratio_is_not_an_argument():
    with pytest.raises(TypeError):
        Angle(F(1, 2), 1, 2)
    assert list(inspect.signature(Angle).parameters) == ["turns"]
