import ast
import inspect
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bernstir
from bernstir.bernoulli import (
    ROUTES,
    Method,
    alternating_double_sum,
    bernoulli,
    bernoulli_alternating,
    bernoulli_bell,
    bernoulli_double_stirling,
    bernoulli_guo_qi,
    bernoulli_logan,
    bernoulli_oracle,
    bernoulli_theorem,
    cells_at,
    stirling_cells,
)
from bernstir.cli import main
from bernstir.exact import echo_int, format_rational, parse_rational
from bernstir.series import bernoulli_series
from bernstir.stirling import associated_diagonals, stirling_diagonals, stirling_rows
from bernstir.verify import cross_verify, identity_suite

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
nonzero = rationals.filter(lambda q: q != 0)


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


def test_echo_int_keeps_the_first_40_characters():
    assert echo_int(10**39) == "1" + "0" * 39
    assert echo_int(-(10**38)) == "-1" + "0" * 38
    assert echo_int(10**40) == "1" + "0" * 39 + "..."
    assert echo_int(-(10**5000)) == "-1" + "0" * 38 + "..."  # past the int-to-str limit


# Every lower bound on an argument, with the call one below it.
LOWER_BOUNDS = [
    (bernoulli_oracle, (-1,), "n must be >= 0, got -1"),
    (bernoulli_theorem, (-1, ()), "n must be >= 0, got -1"),
    (bernoulli_bell, (0, ()), "n must be >= 1, got 0"),
    (bernoulli_logan, (0, ()), "n must be >= 1, got 0"),
    (ROUTES[Method.GUO_QI].reads, (-1,), "max_n must be >= 0, got -1"),
    (bernoulli_guo_qi, (0, ()), "k must be >= 1, got 0"),
    (bernoulli_double_stirling, (0, ((), ())), "k must be >= 1, got 0"),
    (alternating_double_sum, (0,), "k must be >= 1, got 0"),
    (bernoulli_alternating, (0,), "k must be >= 1, got 0"),
    (stirling_cells, (-1, tuple(Method)), "max_n must be >= 0, got -1"),
    (cells_at, (-1, tuple(Method)), "n must be >= 0, got -1"),
    (bernoulli, (-1, Method.THEOREM), "n must be >= 0, got -1"),
    (stirling_rows, (-1,), "max_n must be >= 0, got -1"),
    (stirling_diagonals, (-1,), "max_d must be >= 0, got -1"),
    (associated_diagonals, (-1,), "max_d must be >= 0, got -1"),
    (bernoulli_series, (-1,), "order must be >= 0, got -1"),
    (cross_verify, (0,), "max_n must be >= 1, got 0"),
    (identity_suite, (1, 1, 0), "max_n must be >= 2, got 1"),
    (identity_suite, (2, 0, 0), "trials must be >= 1, got 0"),
    (main, (["stirling", "--max-n", "-1"],), "--max-n must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "function, args, message", LOWER_BOUNDS, ids=[f.__name__ for f, _, _ in LOWER_BOUNDS]
)
def test_every_lower_bound_reads_one_format(capsys, function, args, message):
    try:
        result = function(*args)
        if inspect.isgenerator(result):  # it checks its arguments once advanced
            next(result)
    except ValueError as exc:
        assert str(exc) == message
    else:  # the CLI reports its own bound on stderr, with exit 64
        assert function is main
        assert (result, capsys.readouterr()) == (64, ("", "error: %s\n" % message))


def test_every_public_name_has_a_library_user():
    # Every name the package exports is read by the package itself, outside
    # __init__.py.  identity_suite is the engine's entry point, which CI
    # calls.
    used = set()
    for path in pathlib.Path(bernstir.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
    unused = set(bernstir.__all__) - used - {"identity_suite"}
    assert not unused, sorted(unused)
