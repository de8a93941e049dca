from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernstir.exact import binomial, factorial, format_rational, parse_rational

from oracles import iterated_factorial, pascal_triangle

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
nonzero = rationals.filter(lambda q: q != 0)


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == iterated_factorial(20) == 2432902008176640000


def test_factorial_recurrence():
    for n in range(1, 51):
        assert factorial(n) == n * factorial(n - 1)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_known_values():
    assert binomial(5, 2) == 10
    assert binomial(4, 7) == 0
    assert binomial(3, -1) == 0
    assert binomial(30, 15) == pascal_triangle(30)[30][15] == 155117520


def test_binomial_pascal_identity():
    for n in range(1, 51):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-2, 0)


@given(a=rationals, b=rationals)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(a=rationals, b=rationals, c=rationals)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=nonzero, b=nonzero)
def test_reciprocal_product_is_one(a, b):
    assert (a / b) * (b / a) == 1


def test_serialization_contract():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(7) == "7"
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("3/1") == Fraction(3)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("2/-4") == Fraction(-1, 2)


@given(q=rationals)
def test_serialization_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["", "1/0", "x", "1/2/3", "1.5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_past_int_digit_limit():
    # 4400 digits is past the default int-to-str limit of 4300
    big = 10**4399 + 1
    digits = "1" + "0" * 4398 + "1"
    assert format_rational(big) == digits
    assert format_rational(Fraction(-big, 3)) == "-" + digits + "/3"
    assert format_rational(Fraction(1, big)) == "1/" + digits


def test_parse_past_int_digit_limit():
    # 4400 digits is past the default str-to-int limit of 4300
    digits = "1" + "0" * 4398 + "1"
    value = parse_rational("-" + digits + "/3")
    assert value == Fraction(-(10**4399 + 1), 3)
    assert format_rational(value) == "-" + digits + "/3"
    assert parse_rational(digits) == 10**4399 + 1


@pytest.mark.parametrize("lenient", ["1_000", "\u0661\u0662", " 3 / 4", " 3", "3\n"])
def test_parse_rejects_lenient_forms(lenient):
    with pytest.raises(ValueError):
        parse_rational(lenient)


def test_parse_error_echoes_bounded_input():
    with pytest.raises(ValueError) as info:
        parse_rational("x" * 5000)
    message = str(info.value)
    assert message.startswith("not a rational: 'xxx")
    assert len(message) < 70
    with pytest.raises(ValueError) as info:
        parse_rational("1" * 5000 + "/0")
    assert len(str(info.value)) < 70
