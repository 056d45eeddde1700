import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetop.covectors import _phase_alphabet
from phasetop.phase import (
    EVERYTHING,
    HALF,
    JUST_ZERO,
    NIL,
    ONE,
    ORIGIN,
    Angle,
    Arc,
    Phase,
    PhaseSet,
    ZERO,
    format_fraction,
    hyper_sum_list,
    min_enclosing_arc,
    mul,
    parse_fraction,
    sign_hyper_sum_list,
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
    s = hyper_sum_list([P("1/3"), ZERO])
    assert s == PhaseSet(False, (Arc(Angle(F(1, 3)), NIL),))
    s = hyper_sum_list([ZERO, ZERO])
    assert s.contains_zero and not s.arcs


def test_hyper_sum_of_equal_points():
    s = hyper_sum_list([P("2/3"), P("2/3")])
    assert s == PhaseSet(False, (Arc(Angle(F(2, 3)), NIL),))


def test_hyper_sum_antipodal_is_everything():
    s = hyper_sum_list([P("1/8"), P("5/8")])
    assert s == EVERYTHING
    assert s.contains(P("9/13"))
    assert s.contains(ZERO)


def test_hyper_sum_generic_is_short_arc():
    s = hyper_sum_list([P(0), P("1/4")])
    assert not s.contains_zero
    assert s.arcs == (Arc(Angle(F(0)), F(1, 4)),)
    # order independent
    assert hyper_sum_list([P("1/4"), P(0)]) == s
    # arc crossing the origin
    s = hyper_sum_list([P("7/8"), P("1/8")])
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
    assert s == EVERYTHING


def test_hyper_sum_list_with_zeros_and_empty():
    assert hyper_sum_list([]) == PhaseSet(True, ())
    assert hyper_sum_list([ZERO, ZERO]) == PhaseSet(True, ())
    s = hyper_sum_list([ZERO, P("1/3"), ZERO])
    assert s == PhaseSet(False, (Arc(Angle(F(1, 3)), NIL),))


def test_fixed_sums_are_shared_frozen_values():
    assert EVERYTHING == PhaseSet(True, (Arc(Angle(0), 1),))
    assert str(EVERYTHING) == "{S^1, z}" and str(JUST_ZERO) == "{z}"
    assert JUST_ZERO == PhaseSet(True, ())
    assert hyper_sum_list([]) is JUST_ZERO
    assert hyper_sum_list((ZERO, ZERO)) is JUST_ZERO
    assert hyper_sum_list([P(0), P("1/2")]) is EVERYTHING
    assert hyper_sum_list([P("1/3"), ZERO, P("1/6"), P("5/6")]) is EVERYTHING
    assert hyper_sum_list([P("1/7"), -P("1/7")]) is EVERYTHING
    # a proper arc is built fresh each time
    assert hyper_sum_list([P(0)]) is not hyper_sum_list([P(0)])
    # every full-circle arc starts at the one shared angle 0
    assert Arc(Angle(F(1, 3)), F(5, 4)).start is ORIGIN
    assert EVERYTHING.arcs[0].start is ORIGIN
    assert (ORIGIN.num, ORIGIN.den) == (0, 1)


@pytest.mark.parametrize("turns", [
    0, 3, -1, F(1, 3), F(7, 3), F(-1, 4), "5/6", "-1/6", 0.75, F(0),
])
def test_phase_of_builds_one_angle_from_any_rational(turns):
    p = Phase.of(turns)
    assert p == Phase(Angle(F(turns)))
    assert (p.angle.num, p.angle.den) == (F(turns) % 1).as_integer_ratio()


def test_an_angle_keeps_no_fraction():
    q = F(2, 7)
    held = sys.getrefcount(q)
    angles = [Angle(q), Phase.of(q).angle, Angle(q + 3)]
    assert sys.getrefcount(q) == held
    for a in angles:  # the state is the ratio alone
        assert [type(getattr(a, s)) for s in Angle.__slots__] == [int, int]
        assert a.turns == q


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


def test_arc_checks_its_length():
    with pytest.raises(ValueError, match="nonnegative"):
        Arc(Angle(F(1, 3)), F(-1, 10**6))
    assert Arc(Angle(F(1, 3)), F(1, 2)).length == F(1, 2)
    for length in (F(1), F(5, 4), 2):
        arc = Arc(Angle(F(1, 3)), length)
        assert arc == Arc(Angle(F(0)), F(1)) and arc.is_full_circle
    assert Arc(Angle(F(1, 3)), 0).length == 0


def test_sign_ops():
    table = {(0, 0): {0}, (0, 1): {1}, (0, -1): {-1}, (1, 0): {1},
             (-1, 0): {-1}, (1, 1): {1}, (-1, -1): {-1},
             (1, -1): {-1, 0, 1}, (-1, 1): {-1, 0, 1}}
    for (a, b), want in table.items():
        assert sign_hyper_sum_list([a, b]) == want, (a, b)
    with pytest.raises(ValueError):
        sign_hyper_sum_list([2, 1])


def test_sign_hyper_sum_list():
    assert sign_hyper_sum_list([]) == {0}
    assert sign_hyper_sum_list([1, 1, 1]) == {1}
    assert sign_hyper_sum_list([1, -1]) == {-1, 0, 1}
    assert sign_hyper_sum_list([0, -1]) == {-1}


def reference_sign_pair_sum(a, b):
    """Sign hyperaddition of two signs, as the sign kernel once had it."""
    if a not in (-1, 0, 1) or b not in (-1, 0, 1):
        raise ValueError("sign hyperfield elements are -1, 0, 1")
    if a == 0:
        return frozenset({b})
    if b == 0:
        return frozenset({a})
    if a == b:
        return frozenset({a})
    return frozenset({-1, 0, 1})


def reference_sign_sum(xs):
    """The union-fold of the pair sums (empty sum = {0}), the reference
    for the sign sums taken through the phase kernel."""
    acc = frozenset({0})
    for x in xs:
        acc = frozenset(itertools.chain.from_iterable(
            reference_sign_pair_sum(a, x) for a in acc))
    return acc


def test_sign_sum_matches_the_union_fold():
    for k in range(6):
        for xs in itertools.product((-1, 0, 1), repeat=k):
            got = sign_hyper_sum_list(list(xs))
            assert type(got) is frozenset
            assert got == reference_sign_sum(xs), xs
    for bad in ([2], [None], ["x"], [1, 0, 2], [-1, None]):
        with pytest.raises(ValueError) as want:
            reference_sign_sum(bad)
        with pytest.raises(ValueError) as got:
            sign_hyper_sum_list(bad)
        assert str(got.value) == str(want.value), bad


def test_fraction_round_trip():
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("2") == F(2)
    assert format_fraction(F(3, 4)) == "3/4"
    assert format_fraction(F(2)) == "2"
    with pytest.raises(ValueError):
        parse_fraction("x")


@pytest.fixture
def int_digits():
    """Set sys's int-to-str digit limit for one test, then restore it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_decimal_exponents_up_to_the_digit_limit_parse(int_digits):
    int_digits(4300)
    assert parse_fraction("1.5e-3") == F(3, 2000)
    assert parse_fraction(" 2E+2 ") == F(200)
    assert parse_fraction("1e4300") == 10 ** 4300
    assert parse_fraction("-1e-4300") == F(-1, 10 ** 4300)


@pytest.mark.parametrize("text", [
    "1e3000000", "1e-3000000", "2.5E+3000000", "1e4301", "-1e-4301",
    "1e" + "9" * 5000,
])
def test_decimal_exponent_beyond_the_digit_limit_is_refused(int_digits, text):
    # Fraction would build a 10**|exp| integer first: 2 s at 3,000,000
    int_digits(4300)
    with pytest.raises(ValueError, match="^not a rational number: "):
        parse_fraction(text)


def test_the_exponent_bound_follows_the_digit_limit(int_digits):
    int_digits(640)
    with pytest.raises(ValueError, match="not a rational number"):
        parse_fraction("1e641")
    int_digits(0)  # no limit: nothing is refused
    assert parse_fraction("1e4301") == 10 ** 4301


def test_the_exponent_bound_without_the_digit_limit_is_the_default(
        monkeypatch):
    # 3.10 releases before 3.10.7 have no sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert parse_fraction("1/3") == F(1, 3)
    assert parse_fraction("1e4300") == 10 ** 4300
    with pytest.raises(ValueError, match="^not a rational number: "):
        parse_fraction("1e5000")


# ---------------------------------------------------------------------------
# Differential tests: the tick fold against the Fraction fold
# ---------------------------------------------------------------------------


def _mod1(q: Fraction) -> Fraction:
    return q % 1


def _reference_arc_plus_point(ps: PhaseSet, p: Phase) -> PhaseSet:
    """One fold step: the union of x + p over x in the given set.

    The set is assumed to be a single arc of length <= 1/2 (possibly with
    zero).  Summing against the antipode of any point of the arc blows up
    to the whole circle with zero; otherwise the result is the smallest
    arc containing the old arc and the new point.
    """
    assert p.angle is not None
    if not ps.arcs:
        return PhaseSet(False, (Arc(p.angle, Fraction(0)),))
    arc = ps.arcs[0]
    anti = p.angle.antipode()
    if arc.contains(anti):
        return PhaseSet(True, (Arc(Angle(Fraction(0)), ONE),))
    if arc.contains(p.angle):
        return PhaseSet(False, (arc,))
    # extend the arc forward or backward to reach p, whichever is shorter
    fwd = _mod1(p.angle.turns - arc.end().turns)
    bwd = _mod1(arc.start.turns - p.angle.turns)
    if fwd <= bwd:
        return PhaseSet(False, (Arc(arc.start, arc.length + fwd),))
    return PhaseSet(False, (Arc(p.angle, arc.length + bwd),))


def _reference_point(p):
    """The set {p} of a nonzero phase p: one arc of length 0."""
    return PhaseSet(False, (Arc(p.angle, NIL),))


def reference_hyper_sum_list(xs):
    """The Fraction fold that the tick fold replaced."""
    nonzero = [x for x in xs if not x.is_zero]
    if not nonzero:
        return PhaseSet(True, ())
    acc = _reference_point(nonzero[0])
    for p in nonzero[1:]:
        if acc.arcs[0].is_full_circle and acc.contains_zero:
            return acc  # absorbing state
        acc = _reference_arc_plus_point(acc, p)
    return acc


def _reference_fold_step(acc, p):
    """One step of `reference_hyper_sum_list`; acc is None before the
    first nonzero term."""
    if p.is_zero:
        return acc
    if acc is None:
        return _reference_point(p)
    if acc.arcs[0].is_full_circle and acc.contains_zero:
        return acc  # absorbing state
    return _reference_arc_plus_point(acc, p)


def reference_prefix_folds(alphabet, max_n):
    """Each xs in product(alphabet, repeat=n), n = 1..max_n, with its
    reference sum.  The fold of xs extends the fold of xs[:-1] by one
    step, so each prefix is folded once; in product order, the i-th xs
    of length n has the (i // len(alphabet))-th xs of length n - 1 as
    its prefix."""
    folds = [None]
    for n in range(1, max_n + 1):
        walk = list(itertools.product(alphabet, repeat=n))
        folds = [_reference_fold_step(folds[i // len(alphabet)], xs[-1])
                 for i, xs in enumerate(walk)]
        for xs, acc in zip(walk, folds):
            yield xs, PhaseSet(True, ()) if acc is None else acc


@pytest.mark.parametrize("m", [2, 4])
def test_prefix_folds_are_the_reference_fold(m):
    count = 0
    for xs, want in reference_prefix_folds(_phase_alphabet(m), 5):
        assert want == reference_hyper_sum_list(xs), xs
        count += 1
    assert count == sum((m + 1) ** n for n in range(1, 6))


def test_hyper_sum_list_matches_the_reference_on_the_oracle_domain():
    # the inputs of the lemma-zero-oracle suite: m in {2, 4, 6, 8}, n <= 5
    count = 0
    for m in (2, 4, 6, 8):
        for xs, want in reference_prefix_folds(_phase_alphabet(m), 5):
            assert hyper_sum_list(xs) == want, xs
            count += 1
    assert count == 90304


odd_den = st.one_of(
    st.sampled_from([3, 5, 7, 11, 13, 999_983, 1_000_003]),
    st.integers(0, 499_999).map(lambda k: 2 * k + 1),
    st.integers(1, 10**6),
)


@st.composite
def phase_lists(draw, max_len=7):
    """Phases over odd, prime and mixed denominators up to 10^6, with
    zeros, repeats, exact antipodes and near-antipodes."""
    turns = []
    for _ in range(draw(st.integers(0, max_len))):
        kind = draw(st.sampled_from(
            ["zero", "fresh", "fresh", "repeat", "antipode", "near"]))
        earlier = [t for t in turns if t is not None]
        if kind == "zero":
            turns.append(None)
        elif kind == "fresh" or not earlier:
            q = draw(odd_den)
            turns.append(F(draw(st.integers(0, q - 1)), q))
        else:
            t = draw(st.sampled_from(earlier))
            if kind == "antipode":
                t += HALF
            elif kind == "near":
                t += HALF + F(draw(st.sampled_from([-1, 1])),
                              draw(st.integers(10**6, 10**12)))
            turns.append(t % 1)
    return [ZERO if t is None else Phase.of(t) for t in turns]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(phase_lists())
def test_hyper_sum_list_matches_the_reference_off_grid(xs):
    assert hyper_sum_list(xs) == reference_hyper_sum_list(xs)


@pytest.mark.parametrize("turns, text", [
    (["0", "0"], "{0}"),
    (["0", "2/3"], "{[2/3, 0]}"),
    (["1/5", "4/5"], "{[4/5, 1/5]}"),
    (["1/3", "2/3", "1/3"], "{[1/3, 2/3]}"),
    (["0", "1/4", "3/4"], "{S^1, z}"),
])
def test_hyper_sum_list_on_odd_denominators(turns, text):
    # over the lcm of these denominators alone the turn length is odd, and
    # a tick antipode p + D // 2 would land half a tick short
    xs = [P(t) for t in turns]
    assert str(hyper_sum_list(xs)) == text
    assert hyper_sum_list(xs) == reference_hyper_sum_list(xs)


def test_hyper_sum_is_the_two_term_fold():
    # every two-term sum, on the 12-tick grid and off it
    grid = _phase_alphabet(12)
    rng = random.Random(9)
    odd = [ZERO] + [P(F(rng.randrange(q), q))
                    for q in rng.choices([3, 5, 7, 9, 15, 999_983], k=60)]
    odd += [-x for x in odd]
    pairs = itertools.chain(itertools.product(grid, repeat=2),
                            itertools.product(odd, repeat=2))
    for xs in pairs:
        assert hyper_sum_list(xs) == reference_hyper_sum_list(xs), xs
