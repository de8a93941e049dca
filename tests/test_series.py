from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstir.bell import bell_partition_sum
from bernstir.series import bell_egf_coeff, bernoulli_series
from bernstir.stirling import stirling_rows

from oracles import (
    bernoulli_long_division_fraction,
    series_mul_fraction,
    series_reciprocal_fraction,
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# zero coefficients are the ones the sums skip, so draw them often
coefficients = st.one_of(st.just(Fraction(0)), small_fractions)


def test_bernoulli_series_equals_fraction_long_division():
    reference = bernoulli_long_division_fraction(200)
    for n in range(61):
        assert bernoulli_series(n) == reference[: n + 1], n
    assert bernoulli_series(200) == reference


def test_bernoulli_series_equals_library_reciprocal():
    # j! times the coefficients of the reciprocal of sum_j t^j/(j+1)!
    for n in range(81):
        g = [Fraction(1, factorial(j + 1)) for j in range(n + 1)]
        expected = [c * factorial(j) for j, c in enumerate(series_reciprocal_fraction(g))]
        assert bernoulli_series(n) == expected, n


@pytest.mark.parametrize("n, m", [(0, 1), (1, 2), (2, 7), (6, 7), (12, 61), (60, 61), (97, 230)])
def test_bernoulli_series_prefix_is_stable(n, m):
    # a longer division reproduces the shorter one: no value depends on order
    assert bernoulli_series(n) == bernoulli_series(m)[: n + 1]


def _primes_upto(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


def test_bernoulli_series_structure_to_600():
    # checks that read neither the series code nor any route
    series = bernoulli_series(600)
    primes = _primes_upto(601)
    assert series[0] == 1
    assert series[1] == Fraction(-1, 2)
    for n in range(3, 601, 2):
        assert series[n] == 0, n
    for n in range(2, 601, 2):
        value = series[n]
        assert (value > 0) == ((n // 2) % 2 == 1), n  # sign (-1)^(n/2+1)
        denominator = 1
        for p in primes:
            if n % (p - 1) == 0:
                denominator *= p
        assert value.denominator == denominator, n  # von Staudt-Clausen


def test_bernoulli_series_known_values():
    assert bernoulli_series(1) == [1, Fraction(-1, 2)]
    assert bernoulli_series(3)[3] == 0
    assert bernoulli_series(4) == [
        1,
        Fraction(-1, 2),
        Fraction(1, 6),
        0,
        Fraction(-1, 30),
    ]
    with pytest.raises(ValueError):
        bernoulli_series(-1)


def test_bernoulli_series_odd_indices_vanish():
    series = bernoulli_series(41)
    for n in range(3, 42, 2):
        assert series[n] == 0, n


def test_stirling_egf_known_values():
    # S(n, k) is B_{n,k}(1, ..., 1), with n - k + 1 ones
    assert bell_egf_coeff(4, 2, [1] * 3) == 7
    assert bell_egf_coeff(6, 3, [1] * 4) == 90
    for k in range(9):
        assert bell_egf_coeff(k, k, [1]) == 1
    assert bell_egf_coeff(0, 0, [1]) == 1
    assert bell_egf_coeff(5, 0, [1] * 6) == 0
    with pytest.raises(ValueError):
        bell_egf_coeff(2, 3, [])  # k > n


def test_bell_egf_known_values():
    assert bell_egf_coeff(4, 2, [0, 1, 1]) == 3
    assert bell_egf_coeff(0, 0, []) == 1
    assert bell_egf_coeff(3, 0, [1, 2, 3]) == 0
    assert (
        bell_egf_coeff(4, 2, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        == Fraction(5, 6)
    )


def test_bell_egf_ignores_unreachable_arguments():
    # x_m beyond n-k+1 cannot touch the t^n coefficient
    assert bell_egf_coeff(4, 2, [0, 1, 1, 99, -5]) == 3


def test_bell_egf_insufficient_args():
    with pytest.raises(ValueError):
        bell_egf_coeff(4, 2, [1, 1])


@settings(max_examples=100)
@given(data=st.data())
def test_bell_egf_agrees_with_partition_sum(data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, n))
    xs = data.draw(
        st.lists(small_fractions, min_size=n - k + 1, max_size=n - k + 1)
    )
    assert bell_egf_coeff(n, k, xs) == bell_partition_sum(n, k, xs)


def test_stirling_egf_agrees_with_table():
    # cell by cell against the rows of the triangle, n <= 25
    for n, row in enumerate(stirling_rows(25)):
        for k, value in enumerate(row):
            assert bell_egf_coeff(n, k, [1] * (n - k + 1)) == value, (n, k)


def egf_power_fraction(n, k, xs):
    """n!/k! [t^n] (sum_m x_m t^m/m!)^k by k repeated Fraction Cauchy products."""
    base = [Fraction(0)] * (n + 1)
    for m, x in enumerate(xs[:n], start=1):
        base[m] = Fraction(x, factorial(m))
    power = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(k):
        power = series_mul_fraction(power, base)
    return power[n] * Fraction(factorial(n), factorial(k))


@st.composite
def egf_arguments(draw):
    """(n, k, xs): zeros and negatives among x_1..x_{n-k+1}, then up to three
    arguments that cannot reach t^n."""
    n = draw(st.integers(0, 14))
    k = draw(st.integers(0, n))
    reach = n - k + 1 if k else 0
    return n, k, draw(st.lists(coefficients, min_size=reach, max_size=reach + 3))


@settings(max_examples=150)
@example(case=(6, 2, [Fraction(3, 7), 0, Fraction(-2), 0, Fraction(1, 9), 4]))
@example(case=(5, 5, [Fraction(-1, 2), 7, 7]))  # x_2 and x_3 are unreachable
@example(case=(4, 0, []))
# x_1 = 0 leaves the lowest coefficients of every power at zero
@example(case=(22, 6, [0, Fraction(-5, 4), 0, 3, Fraction(2, 9)] + [Fraction(-1, 7), 0] * 6))
@given(case=egf_arguments())
def test_bell_egf_equals_repeated_fraction_products(case):
    n, k, xs = case
    assert bell_egf_coeff(n, k, xs) == egf_power_fraction(n, k, xs)
