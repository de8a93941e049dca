import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstir.bell import (
    bell_egf_coeff,
    bell_partition_sum,
    bell_reciprocal_args,
    bell_recurrence,
    bell_scaling_identity_lhs_rhs,
    bell_zero_one,
)
from bernstir.stirling import stirling_diagonals, stirling_rows

from oracles import (
    bell_by_set_partitions,
    bell_partition_sum_fraction,
    bell_recurrence_fraction,
    count_partitions_into,
    stirling_explicit,
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def bell_instances(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    xs = draw(
        st.lists(small_fractions, min_size=n - k + 1, max_size=n - k + 1)
    )
    return n, k, xs


def test_partition_sum_known_values():
    assert bell_partition_sum(3, 2, [2, 5]) == 30  # 3*x1*x2
    assert bell_partition_sum(4, 4, [3]) == 81  # x1^4
    assert (
        bell_partition_sum(4, 2, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        == Fraction(5, 6)  # 4*x1*x3 + 3*x2^2
    )


def test_partition_sum_matches_set_partition_oracle():
    cases = [
        (3, 2, [2, 5]),
        (4, 2, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]),
        (6, 3, [1, -2, Fraction(3, 7), 5]),
        (7, 2, [Fraction(-1, 3), 2, 0, 1, Fraction(4, 5), 1]),
    ]
    for n, k, xs in cases:
        assert bell_partition_sum(n, k, xs) == bell_by_set_partitions(n, k, xs)


def test_recurrence_known_values():
    assert bell_recurrence(4, 2, [1, 1, 1]) == 7  # equals S(4,2)
    assert bell_recurrence(5, 1, [1, 2, 3, 4, Fraction(9, 7)]) == Fraction(9, 7)
    assert bell_recurrence(4, 2, [0, 1, 1]) == 3  # the three 2+2 pairings


def test_recurrence_from_the_first_nonzero_argument():
    # from k = 4 the recurrence raises U to the k-th power, and U^k starts
    # at t^(ks), a_s being the first nonzero argument
    ones = [1] * 9
    assert bell_recurrence(8, 4, [0] + ones[:4]) == 105  # k*s = n: four pairs
    assert bell_recurrence(7, 4, [0] + ones[:3]) == 0  # k*s > n
    assert bell_recurrence(9, 4, [0] + ones[:5]) == 1260  # C(9, 3) * 15
    assert bell_recurrence(12, 4, [0, 0] + ones) == 15400  # four triples
    assert bell_recurrence(11, 4, [0, 0] + ones[:6]) == 0  # k*s > n
    assert bell_recurrence(9, 5, [0] * 5) == 0  # no first nonzero argument
    cases = [
        (10, [0, Fraction(-1, 2), 3, 1, Fraction(5, 7), -2, 1, 4]),  # a_2 < 0
        (13, [0, 0, Fraction(-3, 2), 1, 0, 2, Fraction(1, 3), -1, 4, 1, 2]),
        (9, [Fraction(-2, 3), 0, 1, Fraction(7, 2), -1, 3, 2]),  # a_1 < 0
    ]
    for n, xs in cases:
        for k in (3, 4):  # the marked-block rows, then the power recurrence
            want = bell_partition_sum_fraction(n, k, xs)
            assert bell_recurrence_fraction(n, k, xs) == want, (n, k)
            assert bell_recurrence(n, k, xs) == want, (n, k)
            assert bell_partition_sum(n, k, xs) == want, (n, k)
    rng = random.Random(200)
    xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or 1 for _ in range(101)]
    for args in (xs, [0, *xs[1:]], [0, 0, *xs[2:]]):  # s = 1; 2 with ks = n; 3, ks > n
        want = bell_partition_sum(200, 100, args)
        assert bell_recurrence(200, 100, args) == want
        assert bell_egf_coeff(200, 100, args) == want


def test_partition_sum_drops_states_below_the_first_nonzero_argument():
    # a state whose open blocks cannot all be as large as the first nonzero
    # argument's index is 0 and dropped; the sum must not change
    rng = random.Random(14)
    for n in range(1, 16):
        for k in sorted({1, max(1, n // 3), max(1, n // 2), n}):
            xs = [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
                  for _ in range(n - k + 1)]
            for zeros in ({0}, {1}, {0, 1}, {(n - k) // 2}, {1, (n - k) // 2}):
                args = [0 if i in zeros else x for i, x in enumerate(xs)]
                want = bell_partition_sum_fraction(n, k, args)
                assert bell_partition_sum(n, k, args) == want, (n, k, args)
                assert bell_recurrence(n, k, args) == want, (n, k, args)


@settings(max_examples=200)
@given(inst=bell_instances())
def test_partition_sum_equals_recurrence(inst):
    n, k, xs = inst
    assert bell_partition_sum(n, k, xs) == bell_recurrence(n, k, xs)


def test_integer_evaluators_equal_fraction_transcriptions():
    rng = random.Random(8)
    for n in range(1, 13):
        for k in range(1, n + 1):
            for trial in range(3):
                xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - k + 1)]
                if trial:
                    xs[rng.randrange(len(xs))] = Fraction(0)
                want = bell_partition_sum_fraction(n, k, xs)
                assert bell_recurrence_fraction(n, k, xs) == want
                assert bell_partition_sum(n, k, xs) == want, (n, k, xs)
                assert bell_recurrence(n, k, xs) == want, (n, k, xs)


def test_partition_sum_equals_fraction_sum_where_profiles_merge():
    # from n = 13 on many profiles leave the same open (weight, count)
    rng = random.Random(13)
    for n in range(13, 23):
        for k in range(1, n + 1):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - k + 1)]
            if k % 3 == 0:
                xs[rng.randrange(len(xs))] = Fraction(0)
            assert bell_partition_sum(n, k, xs) == bell_partition_sum_fraction(n, k, xs), (n, k)


def test_partition_sum_past_the_profile_enumeration():
    # (200, 20) has about 9 * 10^10 block-size profiles and (120, 30) about
    # 5 * 10^7, far more than a one-by-one enumeration can visit in a test
    ones = [1] * 181
    assert bell_partition_sum(200, 20, ones) == list(stirling_rows(200))[200][20]
    rng = random.Random(120)
    xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(91)]
    assert bell_partition_sum(120, 30, xs) == bell_recurrence(120, 30, xs)


def test_partition_sum_places_no_size_above_two_when_k_is_n_or_n_minus_1():
    # B_{n,n}(x) = x_1^n and B_{n,n-1}(x) = C(n, 2) x_1^(n-2) x_2
    rng = random.Random(1)
    for n in [1, 2, 3, 4, 7, 40, 300]:
        x1, x2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        assert bell_partition_sum(n, n, [x1]) == x1**n
        if n >= 2:
            want = math.comb(n, 2) * x1 ** (n - 2) * x2
            assert bell_partition_sum(n, n - 1, [x1, x2]) == want
            assert bell_partition_sum(n, n - 1, [0, x2]) == (n == 2) * x2


def test_extra_arguments_do_not_change_value():
    rng = random.Random(9)
    extra = [Fraction(1, 10**40 + 7), Fraction(-3, 2**61 - 1)]
    for n, k in [(1, 1), (5, 2), (9, 4), (12, 12)]:
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - k + 1)]
        for evaluate in (bell_partition_sum, bell_recurrence):
            assert evaluate(n, k, xs + extra) == evaluate(n, k, xs), (n, k)


def test_all_ones_give_stirling_numbers():
    for n in range(1, 13):
        for k in range(1, n + 1):
            ones = [1] * (n - k + 1)
            assert bell_partition_sum(n, k, ones) == stirling_explicit(n, k)


def test_zero_one_known_values():
    diagonals = list(stirling_diagonals(6))  # B_{n,k}(0, 1, ...) reads diagonal n-k
    assert bell_zero_one(4, 2, diagonals[2]) == 3
    assert bell_zero_one(5, 2, diagonals[3]) == 10  # C(5,3): choose the 3-block
    assert bell_zero_one(3, 3, diagonals[0]) == 0  # needs >= 6 elements


def test_zero_one_counts_min2_partitions():
    diagonals = list(stirling_diagonals(10))
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            assert bell_zero_one(n, k, diagonals[n - k]) == count_partitions_into(
                n, k, min_block=2
            ), (n, k)


def test_zero_one_equals_partition_sum():
    diagonals = list(stirling_diagonals(12))
    for n in range(1, 13):
        for k in range(1, n + 1):
            args = [0] + [1] * (n - k)
            assert bell_zero_one(n, k, diagonals[n - k]) == bell_partition_sum(n, k, args)


def test_reciprocal_args_known_values():
    diagonals = list(stirling_diagonals(6))  # B_{n,k}(1/2, 1/3, ...) reads diagonal n
    assert bell_reciprocal_args(2, 1, diagonals[2]) == Fraction(1, 3)
    assert bell_reciprocal_args(4, 2, diagonals[4]) == Fraction(5, 6)
    assert bell_reciprocal_args(1, 1, diagonals[1]) == Fraction(1, 2)


def test_reciprocal_args_equals_partition_sum():
    diagonals = list(stirling_diagonals(12))
    for n in range(1, 13):
        for k in range(1, n + 1):
            args = [Fraction(1, i + 1) for i in range(1, n - k + 2)]
            expected = bell_partition_sum(n, k, args)
            assert bell_reciprocal_args(n, k, diagonals[n]) == expected, (n, k)


def test_scaling_identity_known_values():
    lhs, rhs = bell_scaling_identity_lhs_rhs(2, 1, [1, 1])
    assert (lhs, rhs) == (Fraction(1, 3), Fraction(1, 3))
    c = Fraction(5, 7)
    lhs, rhs = bell_scaling_identity_lhs_rhs(1, 1, [c])
    assert lhs == rhs == c / 2
    lhs, rhs = bell_scaling_identity_lhs_rhs(3, 2, [1, 1, 1])
    assert lhs == rhs
    # ints give what their Fractions give: each x_i/i on the left stays exact
    xs = [3, -2, 0, 5, 1]
    for k in range(1, 6):
        as_fractions = bell_scaling_identity_lhs_rhs(5, k, [Fraction(x) for x in xs])
        assert bell_scaling_identity_lhs_rhs(5, k, xs) == as_fractions, k


@settings(max_examples=200)
@given(data=st.data())
def test_scaling_identity_random_args(data):
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, n))
    args = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    lhs, rhs = bell_scaling_identity_lhs_rhs(n, k, args)
    assert lhs == rhs


def test_reciprocal_args_match_series_coefficients():
    # independent route: n!/k! [t^n] (sum_m t^m/(m+1)!)^k must equal the
    # closed form, i.e. the EGF with x_m = 1/(m+1) generates the same values
    diagonals = list(stirling_diagonals(20))
    for k in range(1, 7):
        for n in range(k, 21):
            args = [Fraction(1, m + 1) for m in range(1, n - k + 2)]
            expected = bell_reciprocal_args(n, k, diagonals[n])
            assert bell_egf_coeff(n, k, args) == expected, (n, k)


def test_argument_validation():
    with pytest.raises(ValueError):
        bell_partition_sum(4, 2, [1, 1])  # needs 3 args
    with pytest.raises(ValueError):
        bell_recurrence(4, 2, [1])
    with pytest.raises(ValueError):
        bell_partition_sum(2, 3, [1])  # k > n
    with pytest.raises(ValueError):
        bell_partition_sum(0, 0, [])
    with pytest.raises(ValueError):
        bell_scaling_identity_lhs_rhs(3, 1, [1, 1])  # needs x_2..x_4
    with pytest.raises(ValueError, match="needs 3 values, got 2"):
        bell_zero_one(7, 2, (0, 1))  # diagonal 5 cut short of S(7, 2)
    with pytest.raises(ValueError, match="needs 3 values, got 2"):
        bell_reciprocal_args(4, 2, (0, 1))  # diagonal 4 cut short of S(6, 2)


def test_long_indices_are_echoed_short_in_bell_errors():
    # 10^5000 is past the int-to-str digit limit, which %d would hit
    big = 10**5000
    echoed = "1" + "0" * 39 + "..."
    with pytest.raises(ValueError) as err:
        bell_scaling_identity_lhs_rhs(big, 1, [1])
    assert str(err.value) == (
        "scaling identity at (%s, 1) needs x_2..x_%s, got 1 arguments" % (echoed, echoed)
    )
    with pytest.raises(ValueError) as err:
        bell_egf_coeff(1, big, [1])
    assert str(err.value) == "B_{n,k} needs n >= k >= 1, got (1, %s)" % echoed
    with pytest.raises(ValueError) as err:
        bell_egf_coeff(big, 1, [1])
    assert str(err.value) == (
        "B_{%s,1} needs arguments x_1..x_%s, got 1" % (echoed, echoed)
    )
