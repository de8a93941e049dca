"""Cross-verification engine.

``cross_verify`` runs every applicable Bernoulli method over an index range
and compares each value against the series oracle by exact rational
equality.  ``identity_suite`` exercises the Bell-polynomial identities
(closed forms, rescaling, EGF coefficient extraction) against the
partition-sum evaluator on canonical and seeded random arguments, and the
2-associated Stirling stream that the `bell` route reads against its
closed form.

Mismatches are data, not errors: they land in the report, tallied as
"unexpected" unless their method is on the caller's known-discrepancy list.

Of the library's public names, three serve only the tests:
`StirlingTable` and `power_sum_coeffs`, which the benchmark's traced run
still wraps, and `stirling_explicit`, which waits for an identity row here.

A report renders from the package's one template table, ``exact.RECORDS``:
as text, and as JSON equal to ``json.dumps(..., sort_keys=True, indent=2)``
of its document {"max_n", "entries", "summary"} byte for byte, with
json.dumps kept as the tests' reference only.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple

from .bell import (
    bell_partition_sum,
    bell_reciprocal_args,
    bell_scaling_identity_lhs_rhs,
    bell_zero_one,
)
from .bernoulli import Method, bernoulli, stirling_cells, supports
from .exact import check_at_least, format_rational, render
from .series import bell_egf_coeff, bernoulli_series
from .stirling import associated_diagonals, stirling_diagonals

IDENTITY_ASSOCIATED = "associated"
IDENTITY_ZERO_ONE = "zero-one"
IDENTITY_RECIPROCAL = "reciprocal"
IDENTITY_SCALING = "scaling"
IDENTITY_EGF = "egf"


class ReportEntry(NamedTuple):
    """One (n, method) check.  `value` is None for identity rows, which
    aggregate several argument instances and have no single rational value.
    `elapsed_ns` is timing only: it takes no part in equality or rendering."""

    n: int
    method: str
    value: Fraction | None
    agrees_with_oracle: bool
    elapsed_ns: int = 0

    def __eq__(self, other):
        return self[:4] == other[:4] if isinstance(other, ReportEntry) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])


class VerificationReport(NamedTuple):
    max_n: int
    entries: tuple[ReportEntry, ...]
    checked: int
    mismatches: tuple[tuple[int, str], ...]
    known_discrepancies: tuple[tuple[int, str], ...]
    # (identity, instances checked, instances passed); only identity_suite fills this
    identity_counts: tuple[tuple[str, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        """True when there is no unexpected mismatch."""
        return not self.mismatches

    def to_json(self) -> str:
        """The report document as JSON, filled from `exact.RECORDS`:
        {"max_n", "entries": [{"n", "method", "value", "agrees_with_oracle"}],
        "summary": {"checked", "known_discrepancies", "mismatches", and, for
        an identity report, "identities": {name: {"checked", "passed"}}}},
        keys sorted and indented by two as json.dumps writes them."""
        entries = [
            (e.n, e.method, "null" if e.value is None else '"%s"' % format_rational(e.value),
             "true" if e.agrees_with_oracle else "false")
            for e in self.entries
        ]
        counts = sorted(self.identity_counts)
        report = (
            render("entry", "json", entries),
            self.max_n,
            self.checked,
            render("identity", "json", counts) if counts else "",
            render("pair", "json", self.known_discrepancies),
            render("pair", "json", self.mismatches),
        )
        return render("report", "json", [report])

    def to_table(self) -> str:
        """Human-readable table plus a summary block."""
        rows = [
            (e.n, e.method, "-" if e.value is None else format_rational(e.value),
             "yes" if e.agrees_with_oracle else "NO")
            for e in self.entries
        ]
        text = render("entry", "plain", rows) + "\nchecked: %d\n" % self.checked
        text += render("identity", "plain", self.identity_counts)
        if self.known_discrepancies:
            text += "known discrepancies: %s\n" % render("pair", "plain", self.known_discrepancies)
        if self.mismatches:
            return text + "UNEXPECTED MISMATCHES: %s\n" % render("pair", "plain", self.mismatches)
        return text + "unexpected mismatches: none\n"


def cross_verify(
    max_n: int,
    known_discrepancies: Iterable[str] = (),
    methods: Collection[Method] = tuple(Method),
) -> VerificationReport:
    """Compute B_n for n = 0..max_n by each of `methods` defined at n and
    compare each value exactly against the series oracle.

    The oracle series is built once, and the Stirling cells the methods read
    are streamed in step with n and shared; each entry's `elapsed_ns` is its
    method's cost on them, without the cost of building them.  Methods named in
    `known_discrepancies` still appear in the report, but their mismatches
    are tallied separately and do not make the run fail.  Entries are sorted
    by ascending n, then method name, so output is deterministic.  A run in
    which no chosen method is defined at any n <= max_n raises ValueError,
    as it would check nothing.
    """
    check_at_least("max_n", max_n, 1)
    known = {Method(name).value for name in known_discrepancies}
    chosen = [m for m in Method if m in methods]
    if not any(supports(m, n) for m in chosen for n in range(max_n + 1)):
        raise ValueError("no chosen method is defined at any n <= %d" % max_n)
    oracle = bernoulli_series(max_n)
    entries: list[ReportEntry] = []
    mismatches: list[tuple[int, str]] = []
    known_seen: list[tuple[int, str]] = []
    for n, cells in enumerate(stirling_cells(max_n, chosen)):
        expected = oracle[n]
        for method in chosen:
            if not supports(method, n):
                continue
            start = time.perf_counter_ns()
            if method is Method.ORACLE:
                value = expected
            else:
                value = bernoulli(n, method, cells=cells)
            elapsed = time.perf_counter_ns() - start
            agrees = value == expected
            entries.append(ReportEntry(n, method.value, value, agrees, elapsed))
            if not agrees:
                target = known_seen if method.value in known else mismatches
                target.append((n, method.value))
    return VerificationReport(
        max_n=max_n,
        entries=tuple(entries),
        checked=len(entries),
        mismatches=tuple(mismatches),
        known_discrepancies=tuple(known_seen),
    )


def _random_fraction(rng: random.Random) -> Fraction:
    # small exact values: fast partition sums, still exercising sign/reduction
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def identity_suite(max_n: int, trials: int, seed: int) -> VerificationReport:
    """Check the Bell identities against the partition-sum evaluator.

    For every n >= k >= 1 with n <= max_n, the two closed forms are checked
    at their fixed arguments, the rescaling and EGF identities at the
    canonical all-ones arguments, and the cell S_2(n, k) of
    `associated_diagonals` against the closed form `bell_zero_one(n, k)`.
    The closed forms read the diagonals of `stirling_diagonals`, streamed
    in step with `associated_diagonals`: diagonal d holds the cells of the
    reciprocal form at n = d and of the zero-one form at n = d+k.
    On top of that, `trials` random-argument instances of the rescaling and
    EGF identities are drawn from a generator seeded with `seed`, so
    identical inputs give byte-identical reports.
    """
    check_at_least("max_n", max_n, 2)
    check_at_least("trials", trials, 1)
    rng = random.Random(seed)
    instances: list[tuple[str, int, bool]] = []

    streams = zip(stirling_diagonals(max_n), associated_diagonals(max_n))
    for d, (diagonal, associated) in enumerate(streams):
        for k in range(1, d + 1):
            reciprocal_args = [Fraction(1, i + 1) for i in range(1, d - k + 2)]
            ok = bell_reciprocal_args(d, k, diagonal) == bell_partition_sum(
                d, k, reciprocal_args
            )
            instances.append((IDENTITY_RECIPROCAL, d, ok))
        for k in range(1, max_n - d + 1):
            n = d + k
            zero_one = bell_zero_one(n, k, diagonal)
            zero_one_args = (Fraction(0),) + (Fraction(1),) * d
            ok = zero_one == bell_partition_sum(n, k, zero_one_args)
            instances.append((IDENTITY_ZERO_ONE, n, ok))
            instances.append((IDENTITY_ASSOCIATED, n, associated[k] == zero_one))

    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            lhs, rhs = bell_scaling_identity_lhs_rhs(n, k, (Fraction(1),) * n)
            instances.append((IDENTITY_SCALING, n, lhs == rhs))
            ones = (Fraction(1),) * (n - k + 1)
            instances.append(
                (
                    IDENTITY_EGF,
                    n,
                    bell_egf_coeff(n, k, ones) == bell_partition_sum(n, k, ones),
                )
            )

    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(1, n)
        args = [_random_fraction(rng) for _ in range(n)]
        lhs, rhs = bell_scaling_identity_lhs_rhs(n, k, args)
        instances.append((IDENTITY_SCALING, n, lhs == rhs))
    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(1, n)
        args = [_random_fraction(rng) for _ in range(n - k + 1)]
        instances.append(
            (
                IDENTITY_EGF,
                n,
                bell_egf_coeff(n, k, args) == bell_partition_sum(n, k, args),
            )
        )

    # aggregate instances into one entry per (n, identity) and tally each identity
    by_key: dict[tuple[int, str], bool] = {}
    checked: Counter[str] = Counter()
    passed: Counter[str] = Counter()
    for name, n, ok in instances:
        key = (n, name)
        by_key[key] = by_key.get(key, True) and ok
        checked[name] += 1
        passed[name] += ok
    entries = tuple(
        ReportEntry(n, name, None, ok)
        for (n, name), ok in sorted(by_key.items())
    )
    mismatches = tuple((n, name) for (n, name), ok in sorted(by_key.items()) if not ok)
    return VerificationReport(
        max_n=max_n,
        entries=entries,
        checked=len(instances),
        mismatches=mismatches,
        known_discrepancies=(),
        identity_counts=tuple((name, checked[name], passed[name]) for name in sorted(checked)),
    )
