"""Acceptance gate: every release criterion, each at its stated tolerance.

All comparisons are exact rational equality; there are no numeric
tolerances anywhere.  Each test prints one "criterion N: PASS/FAIL" line
(visible with `pytest -s` or on failure).
"""

import random
import time
from fractions import Fraction

from bernstir.bell import (
    bell_egf_coeff,
    bell_partition_sum,
    bell_reciprocal_args,
    bell_scaling_identity_lhs_rhs,
    bell_zero_one,
)
from bernstir.bernoulli import ROUTES, bernoulli, bernoulli_alternating, stirling_cells, supports
from bernstir.cli import main
from bernstir.series import bernoulli_series
from bernstir.stirling import stirling_diagonals
from bernstir.verify import cross_verify

from oracles import count_partitions_into, stirling_explicit


def report(num: int, ok: bool, detail: str) -> None:
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_1_formula_agreement_to_40():
    start = time.perf_counter()
    oracle = bernoulli_series(40)
    cells = list(stirling_cells(40, ROUTES))
    bad = []
    for n in range(41):
        for method in ("theorem", "bell", "logan"):
            if n == 0 and method != "theorem":
                continue
            if bernoulli(n, method, cells=cells[n]) != oracle[n]:
                bad.append((n, method))
    for n in range(2, 41, 2):
        for method in ("guo-qi", "double-stirling"):
            if bernoulli(n, method, cells=cells[n]) != oracle[n]:
                bad.append((n, method))
    elapsed = time.perf_counter() - start
    report(
        1,
        not bad and elapsed < 10.0,
        "exact agreement n=0..40, %d mismatches, %.2fs" % (len(bad), elapsed),
    )


def test_criterion_2_known_value_spot_checks():
    series = bernoulli_series(12)
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        12: Fraction(-691, 2730),
    }
    ok = all(series[n] == value for n, value in expected.items())
    report(2, ok, "B_0, B_1, B_2, B_4, B_6, B_12 spot values")


def test_criterion_3_alternating_discrepancy_reproduced(capsys):
    value_ok = bernoulli_alternating(1) == Fraction(1, 3)
    oracle_ok = bernoulli_series(2)[2] == Fraction(1, 6)
    rep = cross_verify(2)
    reported = rep.mismatches == ((2, "alternating"),)
    code = main(["verify", "--max-n", "2"])
    out = capsys.readouterr().out
    cli_ok = code == 2 and "alternating" in out and "2 alternating" in out
    with capsys.disabled():
        report(
            3,
            value_ok and oracle_ok and reported and cli_ok,
            "alternating gives 1/3 at k=1, reported against oracle 1/6, exit 2",
        )


def test_criterion_4_bell_closed_forms():
    start = time.perf_counter()
    diagonals = list(stirling_diagonals(12))  # diagonal d holds S(d+i, i)
    bad = []
    for n in range(1, 13):
        for k in range(1, n + 1):
            m = n - k + 1
            if bell_zero_one(n, k, diagonals[n - k]) != bell_partition_sum(
                n, k, [0] + [1] * (m - 1)
            ):
                bad.append(("zero-one", n, k))
            if bell_reciprocal_args(n, k, diagonals[n]) != bell_partition_sum(
                n, k, [Fraction(1, i + 1) for i in range(1, m + 1)]
            ):
                bad.append(("reciprocal", n, k))
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            if bell_zero_one(n, k, diagonals[n - k]) != count_partitions_into(n, k, min_block=2):
                bad.append(("enumeration", n, k))
    elapsed = time.perf_counter() - start
    report(
        4,
        not bad and elapsed < 30.0,
        "closed forms vs partition sum (n<=12) and vs enumeration (n<=10), %.2fs"
        % elapsed,
    )


def test_criterion_5_scaling_identity_200_random_vectors():
    rng = random.Random(20240831)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        k = rng.randint(1, n)
        args = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
        ]
        lhs, rhs = bell_scaling_identity_lhs_rhs(n, k, args)
        if lhs != rhs:
            bad += 1
    report(5, bad == 0, "200 seeded random vectors, n <= 10, %d failures" % bad)


def test_criterion_6_generating_function_oracles():
    bad = []
    for n in range(26):
        for k in range(n + 1):
            if bell_egf_coeff(n, k, [1] * (n - k + 1)) != stirling_explicit(n, k):
                bad.append(("stirling-egf", n, k))
    rng = random.Random(1728)
    for _ in range(100):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        args = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(n - k + 1)
        ]
        if bell_egf_coeff(n, k, args) != bell_partition_sum(n, k, args):
            bad.append(("bell-egf", n, k))
    report(
        6,
        not bad,
        "EGF coefficients: Stirling 0<=k<=n<=25 and 100 random Bell instances",
    )


def test_criterion_7_odd_indices_vanish():
    cells = list(stirling_cells(39, ROUTES))
    bad = []
    for n in range(3, 40, 2):
        for method in ("theorem", "bell", "logan"):
            if bernoulli(n, method, cells=cells[n]) != 0:
                bad.append((n, method))
    report(7, not bad, "theorem/bell/logan return exactly 0 for odd n in 3..39")


def test_criterion_8_performance_sanity(capsys):
    start = time.perf_counter()
    code_100 = main(["bernoulli", "100", "--method", "theorem"])
    elapsed_100 = time.perf_counter() - start
    out_100 = capsys.readouterr().out.strip()
    value_ok = out_100.endswith("/33330")  # B_100 has denominator 33330

    code_bench = main(["bench", "--max-n", "30", "--format", "csv"])
    bench_out = capsys.readouterr().out
    lines = bench_out.strip().splitlines()
    header_ok = lines[0] == "n,method,value,micros"
    rows = [line.split(",") for line in lines[1:]]
    complete = len(rows) == sum(
        1 for n in range(31) for m in ROUTES if supports(m, n)
    )
    consistent = all(
        len({r[2] for r in rows if int(r[0]) == n and r[1] != "alternating"}) == 1
        for n in range(31)
    )
    with capsys.disabled():
        report(
            8,
            code_100 == 0
            and elapsed_100 < 10.0
            and value_ok
            and code_bench == 0
            and header_ok
            and complete
            and consistent,
            "theorem at n=100 in %.2fs; bench CSV complete and consistent"
            % elapsed_100,
        )
