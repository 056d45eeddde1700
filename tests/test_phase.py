from fractions import Fraction

import pytest

from phasetop.phase import (
    Angle,
    Arc,
    Phase,
    PhaseSet,
    ZERO,
    format_fraction,
    hyper_sum,
    hyper_sum_list,
    min_enclosing_arc,
    mul,
    parse_fraction,
    sign_hyper_sum,
    sign_hyper_sum_list,
    sign_mul,
)

F = Fraction


def P(t):
    return Phase.of(F(t))


def test_angle_normalizes_mod_one():
    assert Angle(F(5, 4)) == Angle(F(1, 4))
    assert Angle(F(-1, 4)) == Angle(F(3, 4))
    assert Angle(F(2)) == Angle(F(0))


def test_antipode():
    assert Angle(F(0)).antipode() == Angle(F(1, 2))
    assert Angle(F(3, 4)).antipode() == Angle(F(1, 4))


def test_mul_rotates_and_zero_absorbs():
    assert mul(P("1/4"), P("1/2")) == P("3/4")
    assert mul(P("3/4"), P("3/4")) == P("1/2")
    assert mul(P("1/3"), ZERO) == ZERO
    assert mul(ZERO, ZERO) == ZERO


def test_neg_is_antipode():
    assert -P("1/8") == P("5/8")
    assert -ZERO == ZERO


def test_hyper_sum_with_zero_is_singleton():
    s = hyper_sum(P("1/3"), ZERO)
    assert s.phases() == [P("1/3")]
    s = hyper_sum(ZERO, ZERO)
    assert s.contains_zero and not s.arcs


def test_hyper_sum_of_equal_points():
    s = hyper_sum(P("2/3"), P("2/3"))
    assert s.phases() == [P("2/3")]


def test_hyper_sum_antipodal_is_everything():
    s = hyper_sum(P("1/8"), P("5/8"))
    assert s.is_full_circle
    assert s.contains_zero
    assert s.contains(P("9/13"))
    assert s.contains(ZERO)


def test_hyper_sum_generic_is_short_arc():
    s = hyper_sum(P(0), P("1/4"))
    assert not s.contains_zero
    assert s.arcs == (Arc(Angle(F(0)), F(1, 4)),)
    # order independent
    assert hyper_sum(P("1/4"), P(0)) == s
    # arc crossing the origin
    s = hyper_sum(P("7/8"), P("1/8"))
    assert s.arcs == (Arc(Angle(F(7, 8)), F(1, 4)),)
    assert s.contains(P(0))
    assert not s.contains(P("1/2"))


def test_hyper_sum_list_small_arcs_accumulate():
    s = hyper_sum_list([P(0), P("1/8"), P("1/4")])
    assert s.arcs == (Arc(Angle(F(0)), F(1, 4)),)
    assert not s.contains_zero


def test_hyper_sum_list_blowup():
    # three points spread exactly far enough that some pair of points of
    # the running arc and the next summand are antipodal
    s = hyper_sum_list([P(0), P("3/8"), P("3/4")])
    assert s.is_full_circle and s.contains_zero


def test_hyper_sum_list_with_zeros_and_empty():
    assert hyper_sum_list([]) == PhaseSet.just_zero()
    assert hyper_sum_list([ZERO, ZERO]) == PhaseSet.just_zero()
    s = hyper_sum_list([ZERO, P("1/3"), ZERO])
    assert s.phases() == [P("1/3")]


def test_hyper_sum_list_order_independent():
    pts = [P(0), P("1/8"), P("5/12"), P("7/8")]
    import itertools

    results = {hyper_sum_list(list(perm)) for perm in itertools.permutations(pts)}
    assert len(results) == 1


def test_min_enclosing_arc_examples():
    arc = min_enclosing_arc([Angle(F(0)), Angle(F(1, 8)), Angle(F(1, 4))])
    assert arc == Arc(Angle(F(0)), F(1, 4))
    arc = min_enclosing_arc([Angle(F(0)), Angle(F(1, 2))])
    # tie between the two half-circle arcs; smallest start wins
    assert arc == Arc(Angle(F(0)), F(1, 2))
    arc = min_enclosing_arc([Angle(F(1, 3))])
    assert arc == Arc(Angle(F(1, 3)), F(0))


def test_min_enclosing_arc_wraps():
    arc = min_enclosing_arc([Angle(F(11, 12)), Angle(F(1, 12))])
    assert arc == Arc(Angle(F(11, 12)), F(1, 6))


def test_sign_ops():
    assert sign_mul(-1, -1) == 1
    assert sign_mul(-1, 0) == 0
    assert sign_hyper_sum(1, 0) == {1}
    assert sign_hyper_sum(1, 1) == {1}
    assert sign_hyper_sum(1, -1) == {-1, 0, 1}
    with pytest.raises(ValueError):
        sign_mul(2, 1)


def test_sign_hyper_sum_list():
    assert sign_hyper_sum_list([]) == {0}
    assert sign_hyper_sum_list([1, 1, 1]) == {1}
    assert sign_hyper_sum_list([1, -1]) == {-1, 0, 1}
    assert sign_hyper_sum_list([0, -1]) == {-1}


def test_fraction_round_trip():
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("2") == F(2)
    assert format_fraction(F(3, 4)) == "3/4"
    assert format_fraction(F(2)) == "2"
    with pytest.raises(ValueError):
        parse_fraction("x")
