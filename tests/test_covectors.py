import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phasetop.covectors import (
    PhaseVector,
    enumerate_covectors,
    find_zero_triple,
    format_phase_vector,
    format_sign_vector,
    is_covector,
    iter_covectors,
    parse_phase_vector,
    parse_sign_vector,
    rescale,
    sign_leq_vec,
    support,
    zero_in_sum,
)
from phasetop.phase import Phase, ZERO, hyper_sum_list, sign_hyper_sum_list

F = Fraction


V = parse_phase_vector  # a literal vector, read as the CLI reads one


def test_zero_in_sum_edge_cases():
    a, b = Phase.of(F(1, 3)), Phase.of(F(5, 6))
    assert zero_in_sum([])
    assert zero_in_sum([ZERO, ZERO])
    assert not zero_in_sum([a])
    assert not zero_in_sum([ZERO, a])
    # a repeated angle is still one angle; a list, a tuple and a
    # PhaseVector of the same phases give the same answer
    for form in (list, tuple, PhaseVector):
        assert not zero_in_sum(form((a, a, ZERO)))
        assert zero_in_sum(form((a, ZERO, b, a)))


def test_zero_in_sum_pairs():
    assert zero_in_sum([Phase.of(0), Phase.of(F(1, 2))])  # antipodal
    assert not zero_in_sum([Phase.of(0), Phase.of(0)])
    assert not zero_in_sum([Phase.of(0), Phase.of(F(1, 4))])


def test_zero_in_sum_spread_triple():
    # enclosing arc of {0, 3/8, 3/4} has length 5/8 >= 1/2
    assert zero_in_sum([Phase.of(0), Phase.of(F(3, 8)), Phase.of(F(3, 4))])
    # {0, 1/8, 1/4} fits in an open half circle
    assert not zero_in_sum([Phase.of(0), Phase.of(F(1, 8)), Phase.of(F(1, 4))])


def test_zero_in_sum_agrees_with_fold_oracle():
    # independent check against actual iterated hyperaddition, small grid
    grid = [ZERO] + [Phase.of(F(k, 4)) for k in range(4)]
    for combo in itertools.product(grid, repeat=3):
        folded = hyper_sum_list(list(combo))
        assert zero_in_sum(combo) == folded.contains(ZERO)


def test_is_covector_basics():
    ones = V("0,0,0")
    assert is_covector(ones, V("0,1/2,z"))
    assert not is_covector(ones, V("0,z,z"))  # |supp| = 1
    assert is_covector(ones, V("z,z,z"))  # zero vector
    assert is_covector(ones, V("0,1/3,2/3"))
    assert not is_covector(ones, V("0,1/8,1/4"))


def test_is_covector_twisted_units():
    v = V("0,1/4")
    # products have phases (1/2, 0): antipodal
    assert is_covector(v, V("1/2,3/4"))
    with pytest.raises(ValueError):
        is_covector(V("0,z"), V("0,0"))
    with pytest.raises(ValueError):
        is_covector(V("0,0"), V("0,0,0"))


def test_support_is_one_based():
    assert support(V("z,1/2,0")) == (2, 3)
    assert support(V("z,z")) == ()


def test_find_zero_triple_examples():
    assert find_zero_triple(V("0,3/8,3/4,1/16")) == (1, 2, 3)
    assert find_zero_triple(V("0,1/8,1/4")) is None
    # a support-3 covector yields its own support
    x = V("z,0,1/3,2/3")
    assert find_zero_triple(x) == (2, 3, 4)
    # vectors shorter than 3 have no triples at all
    assert find_zero_triple(V("0,1/2")) is None


def test_find_zero_triple_on_enumerated_covectors():
    ones = V("0,0,0,0")
    for x in enumerate_covectors("phase", 4, 4):
        t = find_zero_triple(x)
        if len(support(x)) >= 3:
            assert t is not None
        if t is not None:
            j, k, l = t
            assert j < k < l
            assert zero_in_sum([x[j - 1], x[k - 1], x[l - 1]])
            assert is_covector(ones, x)


def test_rescale_round_trip_and_covector_transport():
    v = V("1/3,1/5,1/7")
    v_inv = PhaseVector(tuple(Phase.of(-e.angle.turns) for e in v))
    ones = V("0,0,0")
    for x in enumerate_covectors("phase", 3, 4):
        assert rescale(v_inv, rescale(v, x)) == x
        assert is_covector(v, x) == is_covector(ones, rescale(v, x))
    assert rescale(ones, V("0,1/4,z")) == V("0,1/4,z")
    with pytest.raises(ValueError):
        rescale(V("0,z"), V("0,0"))


def test_covector_up_closure_within_support():
    # smaller covectors extend: if x <= y, x has a zero triple through the
    # last coordinate, and x_n is nonzero, then y has zero in the same triple
    ones = V("0,0,0")
    covs = [x for x in enumerate_covectors("phase", 3, 2)]
    for y in covs:
        for x in covs:
            # x <= y: each x_k is zero or equals y_k
            if x == y or not all(a.is_zero or a == b for a, b in zip(x, y)):
                continue
            if x[2].is_zero or len(support(x)) < 2:
                continue
            for j, k in itertools.combinations(range(2), 2):
                if zero_in_sum([x[j], x[k], x[2]]):
                    assert zero_in_sum([y[j], y[k], y[2]])


def test_enumerate_covectors_phase_n2():
    got = enumerate_covectors("phase", 2, 4)
    assert [str(x) for x in got] == ["0,1/2", "1/4,3/4", "1/2,0", "3/4,1/4"]
    got = enumerate_covectors("phase", 2, 2)
    assert [str(x) for x in got] == ["0,1/2", "1/2,0"]


def test_enumerate_covectors_excludes_zero_and_singles():
    for x in enumerate_covectors("phase", 3, 2):
        assert len(support(x)) >= 2
    # so every sign covector is an element of its sign sphere's poset
    for n in range(2, 7):
        for v in iter_covectors("sign", n):
            assert sum(e != 0 for e in v) >= 2, v


def test_enumerate_covectors_rejects_bad_args():
    # iter_covectors refuses at the call, before any item is asked for,
    # with the message of the list form
    for args in (("phase", 3, 3),  # odd grid
                 ("phase", 3),  # missing m
                 ("quaternion", 3, 2),
                 ("sign", 1)):
        with pytest.raises(ValueError) as listed:
            enumerate_covectors(*args)
        with pytest.raises(ValueError) as streamed:
            iter_covectors(*args)
        assert str(streamed.value) == str(listed.value), args


def test_enumerate_covectors_sign_counts():
    # both signs present: 3^n - 2*2^n + 1 vectors
    for n in (2, 3, 4, 5):
        got = enumerate_covectors("sign", n)
        assert len(got) == 3**n - 2 * 2**n + 1
    assert len(enumerate_covectors("sign", 3)) == 12


def test_vector_text_round_trip():
    x = parse_phase_vector("0, 1/2, z")
    assert x == PhaseVector((Phase.of(0), Phase.of(F(1, 2)), ZERO))
    assert format_phase_vector(x) == "0,1/2,z"
    s = parse_sign_vector("+,-,0")
    assert s == (1, -1, 0)
    assert format_sign_vector(s) == "+,-,0"
    with pytest.raises(ValueError):
        parse_sign_vector("+,2")
    with pytest.raises(ValueError):
        parse_phase_vector("0;1/2")


def test_sign_predicates():
    # the sign twist (1,-1) of (1,1) as phases: twisting by 1/2 flips a sign
    assert is_covector(V("0,1/2"), V("0,0"))
    assert not is_covector(V("0,0"), V("0,0"))
    assert sign_leq_vec((0, 1), (1, 1))
    assert not sign_leq_vec((-1, 1), (1, 1))


def test_enumerate_covectors_sign_is_the_both_signs_filter():
    for n in range(2, 7):
        want = [x for x in itertools.product((0, 1, -1), repeat=n)
                if 1 in x and -1 in x]
        assert enumerate_covectors("sign", n) == want, n


def test_sign_leq_vec_matches_the_generator_form():
    # every pair of sign vectors with n <= 4, against the form it replaced
    for n in range(5):
        vs = list(itertools.product((-1, 0, 1), repeat=n))
        for x in vs:
            for y in vs:
                assert sign_leq_vec(x, y) == all(
                    a == 0 or a == b for a, b in zip(x, y)), (x, y)
    for x, y in (((1,), ()), ((), (0,)), ((0, 1), (0, 1, 1))):
        with pytest.raises(ValueError, match="vector lengths differ"):
            sign_leq_vec(x, y)


# ---------------------------------------------------------------------------
# Differential tests: the integer kernel against the fold oracle
# ---------------------------------------------------------------------------

off_grid = st.integers(1, 10**6).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: F(p, q)))


@st.composite
def phase_lists(draw, max_len=7):
    """Off-grid phases with zeros, repeated angles, exact antipodes and
    angles a hair's breadth from an antipode."""
    turns = []
    for _ in range(draw(st.integers(0, max_len))):
        kind = draw(st.sampled_from(
            ["zero", "fresh", "fresh", "repeat", "antipode", "near"]))
        earlier = [t for t in turns if t is not None]
        if kind == "zero":
            turns.append(None)
        elif kind == "fresh" or not earlier:
            turns.append(draw(off_grid))
        else:
            t = draw(st.sampled_from(earlier))
            if kind == "antipode":
                t += F(1, 2)
            elif kind == "near":
                t += F(1, 2) + F(draw(st.sampled_from([-1, 1])),
                                 draw(st.integers(10**6, 10**12)))
            turns.append(t % 1)
    return [ZERO if t is None else Phase.of(t) for t in turns]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(phase_lists())
def test_zero_in_sum_matches_fold_oracle_off_grid(xs):
    assert zero_in_sum(xs) == hyper_sum_list(xs).contains_zero


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3, 4)
                                  for m in (2, 4, 6, 8)] + [(5, 2), (5, 4)])
def test_enumerate_covectors_is_the_oracle_filter_of_the_grid(n, m):
    alphabet = [ZERO] + [Phase.of(F(k, m)) for k in range(m)]
    want = [PhaseVector(c) for c in itertools.product(alphabet, repeat=n)
            if any(not e.is_zero for e in c)
            and hyper_sum_list(c).contains_zero]
    assert enumerate_covectors("phase", n, m) == want
    assert list(iter_covectors("phase", n, m)) == want


@pytest.mark.parametrize("n", range(2, 7))
def test_enumerate_covectors_sign_is_the_oracle_filter(n):
    want = [c for c in itertools.product((0, 1, -1), repeat=n)
            if any(c) and 0 in sign_hyper_sum_list(c)]
    assert enumerate_covectors("sign", n) == want
    assert list(iter_covectors("sign", n)) == want


def oracle_triple(x):
    for t in itertools.combinations(range(len(x)), 3):
        if hyper_sum_list([x[i] for i in t]).contains_zero:
            return tuple(i + 1 for i in t)
    return None


@settings(derandomize=True, max_examples=250, deadline=None)
@given(phase_lists())
def test_find_zero_triple_is_the_first_oracle_triple(xs):
    x = PhaseVector(tuple(xs))
    assert find_zero_triple(x) == oracle_triple(x)


def test_find_zero_triple_is_the_first_oracle_triple_on_the_grid():
    for x in enumerate_covectors("phase", 5, 4):
        assert find_zero_triple(x) == oracle_triple(x)


@pytest.mark.parametrize("m", [3, 4])
def test_find_zero_triple_is_the_first_oracle_triple_on_every_grid_vector(m):
    # covectors or not, all-zero and one-angle triples included; on the
    # odd grid no two angles are antipodal
    alphabet = [ZERO] + [Phase.of(F(k, m)) for k in range(m)]
    for n in (3, 4, 5):
        for c in itertools.product(alphabet, repeat=n):
            x = PhaseVector(c)
            assert find_zero_triple(x) == oracle_triple(x), x
