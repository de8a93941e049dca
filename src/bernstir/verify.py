"""Cross-verification engine.

``cross_verify`` runs every applicable Bernoulli method over an index range
and compares each value against the series oracle by exact rational
equality.  ``identity_suite`` exercises the Bell-polynomial identities
(closed forms, rescaling, EGF coefficient extraction, which gives S(n, k)
at the all-ones arguments) against the partition-sum evaluator on
canonical and seeded random arguments, and the 2-associated Stirling
stream that the `bell` route reads against its closed form.

Both only yield check rows, one per check, and one judge builds every report
from them.  Mismatches are data, not errors: they land in the report as
"unexpected" unless their method is on the caller's known-discrepancy list.
Rows without a value are identity instances, which the judge counts.

A report renders from the package's one template table, ``exact.RECORDS``:
as text, and as JSON equal to ``json.dumps(..., sort_keys=True, indent=2)``
of its document {"max_n", "entries", "summary"} byte for byte, with
json.dumps kept as the tests' reference only.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

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
    """One check row, and one report entry: the judge merges the rows of one
    (n, method) into an entry that agrees only when all of them do.  `value`
    is None for an identity instance, which has no single rational value;
    the judge counts such rows into `identity_counts`.  `elapsed_ns` is
    timing only: it takes no part in equality or rendering."""

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
    # (identity, instances checked, instances passed), from the rows without a value
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


def _judge(
    max_n: int, rows: Iterable[ReportEntry], known: Collection[str] = ()
) -> VerificationReport:
    """The report on a stream of check rows.  The rows of one (n, method)
    merge into one entry, which agrees only when all of them do; entries are
    sorted by n, then method.  A failed entry is a known discrepancy when its
    method is in `known`, else a mismatch.  Every row counts as checked, and
    the rows without a value are tallied per name into `identity_counts`."""
    merged: dict[tuple[int, str], ReportEntry] = {}
    tally: dict[str, list[int]] = {}
    checked = 0
    for row in rows:
        checked += 1
        # an entry keeps its first row until a failing row replaces it
        if merged.setdefault(row[:2], row).agrees_with_oracle and not row.agrees_with_oracle:
            merged[row[:2]] = row
        if row.value is None:
            counts = tally.setdefault(row.method, [0, 0])
            counts[0] += 1
            counts[1] += row.agrees_with_oracle
    # sort the unique keys: ReportEntry's own __eq__ makes comparing entries Python-level
    entries = tuple(map(merged.get, sorted(merged)))
    failed = [e[:2] for e in entries if not e.agrees_with_oracle]
    return VerificationReport(
        max_n=max_n,
        entries=entries,
        checked=checked,
        mismatches=tuple(key for key in failed if key[1] not in known),
        known_discrepancies=tuple(key for key in failed if key[1] in known),
        identity_counts=tuple((name, *tally[name]) for name in sorted(tally)),
    )


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
    return _judge(max_n, _route_rows(max_n, chosen), known)


def _route_rows(max_n: int, chosen: list[Method]) -> Iterator[ReportEntry]:
    # one row per (n, method): the method's value and the time of its call alone
    oracle = bernoulli_series(max_n)
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
            yield ReportEntry(n, method.value, value, value == expected, elapsed)


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
    return _judge(max_n, _identity_rows(max_n, trials, seed))


def _scaling_row(n: int, k: int, args: Sequence[Fraction]) -> ReportEntry:
    lhs, rhs = bell_scaling_identity_lhs_rhs(n, k, args)
    return ReportEntry(n, IDENTITY_SCALING, None, lhs == rhs)


def _egf_row(n: int, k: int, args: Sequence[Fraction]) -> ReportEntry:
    ok = bell_egf_coeff(n, k, args) == bell_partition_sum(n, k, args)
    return ReportEntry(n, IDENTITY_EGF, None, ok)


def _identity_rows(max_n: int, trials: int, seed: int) -> Iterator[ReportEntry]:
    # one row per identity instance
    rng = random.Random(seed)
    streams = zip(stirling_diagonals(max_n), associated_diagonals(max_n))
    for d, (diagonal, associated) in enumerate(streams):
        for k in range(1, d + 1):
            args = [Fraction(1, i + 1) for i in range(1, d - k + 2)]
            ok = bell_reciprocal_args(d, k, diagonal) == bell_partition_sum(d, k, args)
            yield ReportEntry(d, IDENTITY_RECIPROCAL, None, ok)
        for k in range(1, max_n - d + 1):
            n = d + k
            zero_one = bell_zero_one(n, k, diagonal)
            zero_one_args = (Fraction(0),) + (Fraction(1),) * d
            ok = zero_one == bell_partition_sum(n, k, zero_one_args)
            yield ReportEntry(n, IDENTITY_ZERO_ONE, None, ok)
            yield ReportEntry(n, IDENTITY_ASSOCIATED, None, associated[k] == zero_one)

    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            yield _scaling_row(n, k, (Fraction(1),) * n)
            yield _egf_row(n, k, (Fraction(1),) * (n - k + 1))

    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(1, n)
        yield _scaling_row(n, k, [_random_fraction(rng) for _ in range(n)])
    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(1, n)
        yield _egf_row(n, k, [_random_fraction(rng) for _ in range(n - k + 1)])
