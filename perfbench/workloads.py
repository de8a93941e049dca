"""The four workloads: seeded request decks and their exact output checks.

A workload turns a seeded generator into a deck: a fixed list of CLI argv
lists, each with the reference its output must match.  References are
computed here, when the deck is built, before any request is timed.  A run
replays the deck in whole passes, so every run of one seed sends the same
mix.  Each deck is a stratified sample: the input space is cut into cells
(route and index slice, format and size slice, ...) and every cell gets its
share of random draws.  Different seeds then give decks of nearly the same
cost, which keeps the spread between seeds small, while every request is
still drawn at random.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference

ROUTES = ("alternating", "bell", "double-stirling", "guo-qi", "logan", "oracle", "theorem")
EVEN_ONLY = frozenset({"alternating", "double-stirling", "guo-qi"})
FROM_ONE = frozenset({"bell", "logan"})


def routes_at(n: int) -> list[str]:
    """The routes that define B_n, sorted by wire name."""
    return [
        m
        for m in ROUTES
        if (m not in EVEN_ONLY or (n >= 2 and n % 2 == 0)) and (m not in FROM_ONE or n >= 1)
    ]


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``check`` maps its stdout to None when the output is
    exactly right, or to a one-line description of what is wrong."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]


def stratified(rng: random.Random, values: range, count: int) -> list[int]:
    """One random element from each of `count` equal slices of `values`."""
    return [values[int((i + rng.random()) * len(values) / count)] for i in range(count)]


def _single_json_record(out: str, keys: dict) -> tuple[dict | None, str | None]:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return None, "output is not JSON: %s" % exc
    if not (isinstance(doc, list) and len(doc) == 1 and isinstance(doc[0], dict)):
        return None, "expected a one-record JSON list"
    record = doc[0]
    for key, want in keys.items():
        if record.get(key) != want:
            return None, "record %s is %r, expected %r" % (key, record.get(key), want)
    return record, None


def point_queries(rng: random.Random) -> list[Request]:
    """`bernoulli n --method m --format json`, n in 40..200, m uniform over
    the routes defined at n.  Each call builds its own Stirling table.

    Half the deck has odd n (4 routes, 14 calls each), half even n (7
    routes, 8 calls each); each route's n are stratified over the band.
    """
    calls = []
    for parity, per_route in ((1, 14), (0, 8)):
        band = range(40 + parity, 201, 2)
        for method in routes_at(band[0]):
            calls.extend((n, method) for n in stratified(rng, band, per_route))
    bernoulli = reference.bernoulli_numbers(200)
    deck = []
    for n, method in calls:
        if method == "alternating":
            want = reference.render(reference.alternating_published(n // 2))
        else:
            want = reference.render(bernoulli[n])

        def check(out: str, n=n, method=method, want=want) -> str | None:
            record, problem = _single_json_record(out, {"n": n, "method": method})
            if problem:
                return problem
            if record.get("value") != want:
                return "B_%d by %s is %r, expected %s" % (n, method, record.get("value"), want)
            return None

        deck.append(Request(("bernoulli", str(n), "--method", method, "--format", "json"), check))
    rng.shuffle(deck)
    return deck


def verify_sweep(rng: random.Random) -> list[Request]:
    """`verify --max-n N --allow-known --format json` for every N in 10..40,
    in seeded order.  One table per call, reused for every n.

    The band has only 31 values, so the deck takes each once; a random draw
    would let the seed decide which N repeat, and with cost growing about
    as N^3 that alone moves the median by several percent.
    """
    tops = list(range(10, 41))
    rng.shuffle(tops)
    bernoulli = reference.bernoulli_numbers(max(tops))
    alternating = {n: reference.alternating_published(n // 2) for n in range(2, max(tops) + 1, 2)}
    deck = []
    for top in tops:
        entries = []
        for n in range(top + 1):
            for method in routes_at(n):
                value = alternating[n] if method == "alternating" else bernoulli[n]
                entries.append(
                    {
                        "n": n,
                        "method": method,
                        "value": reference.render(value),
                        "agrees_with_oracle": value == bernoulli[n],
                    }
                )
        known = [[n, "alternating"] for n in range(2, top + 1, 2)]
        want = {
            "max_n": top,
            "entries": entries,
            "summary": {"checked": len(entries), "mismatches": [], "known_discrepancies": known},
        }

        def check(out: str, want=want) -> str | None:
            try:
                doc = json.loads(out)
            except ValueError as exc:
                return "output is not JSON: %s" % exc
            if not isinstance(doc, dict):
                return "expected a JSON object"
            summary = doc.get("summary")
            if not isinstance(summary, dict):
                return "report has no summary"
            if summary.get("mismatches") != []:
                return "unexpected mismatches %r" % summary.get("mismatches")
            if summary.get("known_discrepancies") != want["summary"]["known_discrepancies"]:
                return "known discrepancies are %r, expected every even n >= 2" % (
                    summary.get("known_discrepancies"),
                )
            if doc != want:
                got = doc.get("entries")
                for i, entry in enumerate(want["entries"]):
                    if not isinstance(got, list) or i >= len(got) or got[i] != entry:
                        return "report entry %d is not %r" % (i, entry)
                return "report differs from the reference beyond its entries"
            return None

        deck.append(
            Request(("verify", "--max-n", str(top), "--allow-known", "--format", "json"), check)
        )
    return deck


STIRLING_FORMATS = ("plain", "csv", "json")


def stirling_dump(rng: random.Random) -> list[Request]:
    """`stirling --max-n N --format f`, N in 50..200: 12 stratified N per
    format."""
    calls = [(top, fmt) for fmt in STIRLING_FORMATS for top in stratified(rng, range(50, 201), 12)]
    rng.shuffle(calls)
    rows = [[str(v) for v in row] for row in reference.stirling_rows(200)]
    deck = []
    for top, fmt in calls:

        def check(out: str, top=top, fmt=fmt) -> str | None:
            cells = [(n, k, v) for n in range(top + 1) for k, v in enumerate(rows[n])]
            if fmt == "json":
                try:
                    got = json.loads(out)
                except ValueError as exc:
                    return "output is not JSON: %s" % exc
                want = [{"n": n, "k": k, "value": v} for n, k, v in cells]
            else:
                sep = " " if fmt == "plain" else ","
                got = out.split("\n")
                want = ["n,k,value"] if fmt == "csv" else []
                want.extend("%d%s%d%s%s" % (n, sep, k, sep, v) for n, k, v in cells)
                want.append("")
            if got == want:
                return None
            if not isinstance(got, list) or len(got) != len(want):
                return "%s output is not %d rows" % (fmt, len(want))
            first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            return "row %d is %r, expected %r" % (first, got[first], want[first])

        deck.append(Request(("stirling", "--max-n", str(top), "--format", fmt), check))
    return deck


BELL_EVALUATORS = ("recurrence", "partition-sum")


def bell_eval(rng: random.Random) -> list[Request]:
    """`bell n k --args=x_1,... --evaluator e`, n in 10..40, k in 1..n,
    arguments p/q with p in -9..9 and q in 1..9.

    Cells: 2 evaluators x 16 slices of n x 8 slices of k.  The partition
    sum's cost peaks sharply near k = n/4, so fine k slices matter.  The arguments go
    as one `--args=...` token: a separate token starting with "-" is read
    by argparse as an option, and the call exits 64.
    """
    calls = [
        (n, k, evaluator)
        for evaluator in BELL_EVALUATORS
        for n in stratified(rng, range(10, 41), 16)
        for k in stratified(rng, range(1, n + 1), 8)
    ]
    rng.shuffle(calls)
    deck = []
    for n, k, evaluator in calls:
        pairs = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - k + 1)]
        tokens = ",".join("%d" % p if q == 1 else "%d/%d" % (p, q) for p, q in pairs)
        want = reference.render(reference.bell_value(n, k, [Fraction(p, q) for p, q in pairs])) + "\n"

        def check(out: str, n=n, k=k, want=want) -> str | None:
            if out != want:
                return "B_{%d,%d} printed %r, expected %r" % (n, k, out[:80], want[:80])
            return None

        argv = ("bell", str(n), str(k), "--args=" + tokens, "--evaluator", evaluator)
        deck.append(Request(argv, check))
    return deck


WORKLOADS = {
    "point-queries": point_queries,
    "verify-sweep": verify_sweep,
    "stirling-dump": stirling_dump,
    "bell-eval": bell_eval,
}


def make_deck(name: str, seed: int) -> list[Request]:
    return WORKLOADS[name](random.Random("%s/%d" % (name, seed)))
