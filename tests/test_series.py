from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstir.bell import bell_partition_sum
from bernstir.series import (
    TruncatedSeries,
    bell_egf_coeff,
    bernoulli_series,
    exp_minus_one,
    one,
    stirling_egf_coeff,
)
from bernstir.stirling import StirlingTable

from oracles import (
    bernoulli_long_division_fraction,
    series_mul_fraction,
    series_reciprocal_fraction,
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# zero coefficients are the ones the sums skip, so draw them often
coefficients = st.one_of(st.just(Fraction(0)), small_fractions)


def S(*coeffs, order=None):
    return TruncatedSeries(coeffs, order=order)


def test_mul_known_products():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)  # (1+t)(1-t) = 1 - t^2
    assert S(1, 1) * S(1, 1) == S(1, 2)  # t^2 truncated away
    e = TruncatedSeries([Fraction(1, 1), 1, Fraction(1, 2), Fraction(1, 6)])
    assert (e * e).coeffs == (1, 2, 2, Fraction(4, 3))  # e^(2t)


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        S(1, 1) * S(1, 1, 1)


def test_reciprocal_geometric():
    assert S(1, 1, order=3).reciprocal() == S(1, -1, 1, -1)
    assert S(1, order=2).reciprocal() == one(2)


def test_reciprocal_of_shifted_exponential():
    # (e^t - 1)/t has coefficients 1/(j+1)!; its reciprocal starts
    # 1 - t/2 + t^2/12 + 0*t^3 - t^4/720
    g = TruncatedSeries([Fraction(1, 1), Fraction(1, 2), Fraction(1, 6),
                         Fraction(1, 24), Fraction(1, 120)])
    assert g.reciprocal().coeffs == (
        1,
        Fraction(-1, 2),
        Fraction(1, 12),
        0,
        Fraction(-1, 720),
    )


def test_reciprocal_needs_unit():
    with pytest.raises(ZeroDivisionError):
        S(0, 1, 2).reciprocal()


@settings(max_examples=100)
@given(
    coeffs=st.lists(small_fractions, min_size=1, max_size=17).filter(
        lambda cs: cs[0] != 0
    )
)
def test_reciprocal_round_trip(coeffs):
    s = TruncatedSeries(coeffs)
    assert s * s.reciprocal() == one(s.order)


same_length_pairs = st.integers(1, 17).flatmap(
    lambda size: st.tuples(
        st.lists(coefficients, min_size=size, max_size=size),
        st.lists(coefficients, min_size=size, max_size=size),
    )
)


@settings(max_examples=150)
@example(
    pair=(
        [Fraction(3, 7), 0, Fraction(-2), 0, Fraction(1, 9)],
        [Fraction(-5, 8), Fraction(4, 9), 0, 0, Fraction(-7)],
    )
)
@given(pair=same_length_pairs)
def test_mul_equals_fraction_transcription(pair):
    a, b = pair
    product = TruncatedSeries(a) * TruncatedSeries(b)
    assert list(product.coeffs) == series_mul_fraction(a, b)


@settings(max_examples=150)
@example(coeffs=[Fraction(3, 7), 0, Fraction(-2), 0, Fraction(1, 9)])
@given(
    coeffs=st.lists(coefficients, min_size=1, max_size=17).filter(
        lambda cs: cs[0] != 0
    )
)
def test_reciprocal_equals_fraction_transcription(coeffs):
    inverse = TruncatedSeries(coeffs).reciprocal()
    assert list(inverse.coeffs) == series_reciprocal_fraction(coeffs)


def test_bernoulli_series_equals_fraction_long_division():
    reference = bernoulli_long_division_fraction(200)
    for n in range(61):
        assert bernoulli_series(n) == reference[: n + 1], n
    assert bernoulli_series(200) == reference


def _primes_upto(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


def test_bernoulli_series_structure_to_300():
    # checks that read neither the series code nor any route
    series = bernoulli_series(300)
    primes = _primes_upto(301)
    assert series[0] == 1
    assert series[1] == Fraction(-1, 2)
    for n in range(3, 301, 2):
        assert series[n] == 0, n
    for n in range(2, 301, 2):
        value = series[n]
        assert (value > 0) == ((n // 2) % 2 == 1), n  # sign (-1)^(n/2+1)
        denominator = 1
        for p in primes:
            if n % (p - 1) == 0:
                denominator *= p
        assert value.denominator == denominator, n  # von Staudt-Clausen


def test_power_and_constructor_contracts():
    assert S(0, 1, order=4) ** 2 == S(0, 0, 1, order=4)
    assert S(2, 1) ** 0 == one(1)
    with pytest.raises(ValueError):
        S(1, 2) ** -1
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], order=1)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        S(1, 2).coefficient(5)


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
    assert stirling_egf_coeff(4, 2) == 7
    assert stirling_egf_coeff(6, 3) == 90
    for k in range(9):
        assert stirling_egf_coeff(k, k) == 1
    assert stirling_egf_coeff(0, 0) == 1
    assert stirling_egf_coeff(5, 0) == 0
    with pytest.raises(ValueError):
        stirling_egf_coeff(2, 3)


def test_exp_minus_one_coefficients():
    assert exp_minus_one(3).coeffs == (0, 1, Fraction(1, 2), Fraction(1, 6))


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
    table = StirlingTable(25)
    for n in range(26):
        for k in range(n + 1):
            assert stirling_egf_coeff(n, k) == table.value(n, k), (n, k)
