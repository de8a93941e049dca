"""Command-line front end.

Commands: bernoulli, stirling, bell, verify, bench.  Every command accepts
--format {plain,json,csv}.  Exit codes: 0 success, 2 verification mismatch,
64 usage error, 71 out of memory, 130 interrupted.  A usage error is an
argument argparse rejects, an index past the cap, an unknown method name, or
a ValueError the library raises on the given arguments (such as `bell 2 4`
or `verify --max-n 0`); each prints one line, `error: <message>`, on stderr.
A method is its wire name, a key of `bernoulli.ROUTES`, and an unknown one
reads as the library's message with ` or all` added.  An argument below its
fixed lower bound reads `<name> must be >= <low>, got <value>`.  An index
argument (`bernoulli N`, `bell N K`, `--max-n`) is ASCII digits with an
optional sign; argparse rejects any other token, `1_0` and non-ASCII digits
included.  A message that quotes a rejected token or echoes an integer shows
at most its first 40 characters.  A command interrupted by Ctrl-C (SIGINT),
while it computes or while it writes, prints `error: interrupted` on stderr
and exits 130.  A command that runs out of memory, while it computes or
while it writes, prints `error: out of memory` on stderr and exits 71.

`verify` and `bench` run one cross-check handler over `cross_verify`:
verify renders each entry's agreement with the oracle, bench the time its
method took.  bench takes any --max-n that verify takes, 1 included.

Every command's records, `VerificationReport.to_json` and `to_table`
included, render from one table of `%` templates, `exact.RECORDS`, keyed by
record kind and format; each row of records is filled by one `%`.  JSON value
records follow {"n": int, "method": str, "value": "p/q"}; values are always
exact "p"/"p/q" strings so nothing passes through floating point.  JSON
output equals json.dumps(records, sort_keys=True, indent=2) + "\n", which
only the tests run, so documents re-render byte-identically after a parse.
CSV emits unquoted fields (every field is sign/digits/slash/letters only).

`stirling` streams the triangle: it computes, renders and writes one row
at a time, so it holds one row in memory whatever --max-n is.  Every other
command writes its output once it is complete.  A reader that closes stdout
early is not an error: the command keeps its exit code (0 for `stirling`)
and prints nothing on stderr.

The environment variable BERNSTIR_MAX_N caps any requested index (default
10000) so a typo cannot start a runaway job.  Its value follows the rule of
the index arguments and must not be negative; any other value is a usage
error.

A request is parsed once.  When argv[0] is a command word, that command's
own parser (the `choices` entry of the subparsers action that
build_parser() builds) parses argv[1:], and `command` is set as the
subparsers action would set it.  Any other argv (none, `-h`, an unknown
command) goes to the full parser.  The full parser would scan all of argv
and then hand argv[1:] unchanged to the same command parser, so the
Namespace, help text, usage errors and exit codes are the same either way.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

from .bell import bell_partition_sum, bell_recurrence
from .bernoulli import ROUTES, bernoulli, cells_at, route_of, supported_methods
from .exact import (
    RECORDS,
    check_at_least,
    echo_int,
    format_rational,
    parse_rational,
    quote_rejected,
    render,
)
from .stirling import stirling_rows
from .verify import cross_verify

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_USAGE = 64
EXIT_OUT_OF_MEMORY = 71  # EX_OSERR of sysexits.h, beside EX_USAGE
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process it killed

DEFAULT_CAP = 10000
FORMATS = ("plain", "json", "csv")
METHOD_NAMES = tuple(ROUTES)
INDEX = re.compile(r"[+-]?[0-9]+")
KNOWN = tuple(m for m, route in ROUTES.items() if route.known_discrepancy)

# What a command hands to main(): its output in chunks, and its exit code.
Output = tuple[Iterable[str], int]


class UsageError(Exception):
    """Invalid invocation; reported on stderr with exit code 64."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # A token that starts with "-" and a digit is a value, such as
        # `--args -1/2,1`, not an option: none of our options starts that
        # way.  argparse's own pattern takes only plain negative numbers.
        self._negative_number_matcher = re.compile(r"-\.?\d")
        # command word -> its parser, filled by build_parser()
        self.commands: dict[str, _Parser] = {}

    def error(self, message: str):  # route argparse failures to exit 64
        raise UsageError(message)


def _check_cap(value: int, name: str) -> None:
    """Raise UsageError when `value` exceeds BERNSTIR_MAX_N, read by the rule
    of the index arguments; unset or empty, the cap is DEFAULT_CAP."""
    raw = os.environ.get("BERNSTIR_MAX_N", "")
    cap = DEFAULT_CAP
    if raw:
        try:
            cap = _index(raw)
        except argparse.ArgumentTypeError:
            cap = -1
        if cap < 0:
            raise UsageError("BERNSTIR_MAX_N must be an integer >= 0, got " + quote_rejected(raw))
    if value > cap:
        raise UsageError(
            "%s=%s exceeds the BERNSTIR_MAX_N cap of %s" % (name, echo_int(value), echo_int(cap))
        )


def _index(text: str) -> int:
    """The argparse type of every index argument: an optional sign and ASCII
    digits, nothing else.  int() alone also takes `1_0`, blanks around the
    digits and non-ASCII digits such as the Arabic-Indic ones."""
    try:
        if INDEX.fullmatch(text):
            return int(text)
    except ValueError:  # past the int-to-str digit limit
        pass
    raise argparse.ArgumentTypeError("invalid int value: " + quote_rejected(text))


def _parse_method(name: str) -> str:
    """`name` when it names a method; else the library's message plus ` or all`."""
    try:
        route_of(name)
    except ValueError as exc:
        raise UsageError("%s or all" % exc) from None
    return name


def _method_list(text: str) -> list[str]:
    """The argparse type of bench's --methods and --known: comma-separated
    method names, where `all` names every method and empty names are
    skipped."""
    methods = []
    for name in text.split(","):
        name = name.strip()
        if name == "all":
            methods.extend(ROUTES)
        elif name:
            methods.append(_parse_method(name))
    return methods


def cmd_bernoulli(args: argparse.Namespace) -> Output:
    n = args.n
    _check_cap(n, "n")
    if args.method == "all":
        defined = supported_methods(n)
        cells = cells_at(n, defined)
        values = {m: format_rational(bernoulli(n, m, cells=cells)) for m in defined}
        kind, rows = "bernoulli", [(n, m, values.get(m, "unsupported")) for m in ROUTES]
    else:
        method = _parse_method(args.method)
        kind, rows = "method", [(n, method, format_rational(bernoulli(n, method)))]
    return (render(kind, args.format, rows),), EXIT_OK


def cmd_stirling(args: argparse.Namespace) -> Output:
    # checked here: stirling_rows would raise only once main() writes the rows
    check_at_least("--max-n", args.max_n, 0)
    _check_cap(args.max_n, "max-n")
    return _stirling_chunks(args.max_n, args.format), EXIT_OK


def _stirling_chunks(max_n: int, fmt: str) -> Iterator[str]:
    """The dump as one chunk per row of the triangle, then its tail; each
    row is one `%` on the interleaved cells (k, S(n, k))."""
    head, record, sep, tail, _ = RECORDS["stirling"][fmt]
    lead = head
    for n, row in enumerate(stirling_rows(max_n)):
        template = sep.join([record % n] * (n + 1))
        cells = [0] * (2 * n + 2)
        cells[::2] = range(n + 1)
        cells[1::2] = row
        try:
            text = template % tuple(cells)
        except ValueError:  # a value past the int-to-str digit limit
            cells[1::2] = map(format_rational, row)
            text = template % tuple(cells)
        yield lead + text
        lead = sep
    yield tail


def cmd_bell(args: argparse.Namespace) -> Output:
    n, k = args.n, args.k
    _check_cap(n, "n")
    xs = [parse_rational(token) for token in args.args.split(",")]
    evaluate = bell_partition_sum if args.evaluator == "partition-sum" else bell_recurrence
    value = format_rational(evaluate(n, k, xs))
    return (render("bell", args.format, [(n, k, value)]),), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> Output:
    """The handler of both `verify` and `bench`: cross-check `args.methods`
    (every method when empty) against the oracle.  verify renders each
    entry's agreement, bench the time its method took."""
    check_at_least("--max-n", args.max_n, 1)
    _check_cap(args.max_n, "max-n")
    report = cross_verify(args.max_n, args.known, args.methods or METHOD_NAMES)
    code = EXIT_OK if report.ok else EXIT_MISMATCH
    if args.command == "bench":
        rows = [
            (e.n, e.method, format_rational(e.value), ns // 1000)
            for e, ns in zip(report.entries, report.elapsed_ns)
        ]
        text = render("bench", args.format, rows)
    elif args.format == "csv":
        rows = [
            (e.n, e.method, format_rational(e.value), "yes" if e.agrees_with_oracle else "no")
            for e in report.entries
        ]
        text = render("entry", "csv", rows)
    else:
        text = report.to_json() if args.format == "json" else report.to_table()
    return (text,), code


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process; parsing leaves it unchanged."""
    parser = _Parser(prog="bernstir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("bernoulli", help="compute B_n by one method or all")
    p.add_argument("n", type=_index)
    p.add_argument("--method", default="all", metavar="NAME",
                   help="one of %s, or all" % (", ".join(METHOD_NAMES)))
    add_format(p)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("stirling", help="dump the S(n, k) triangle")
    p.add_argument("--max-n", type=_index, required=True, dest="max_n")
    add_format(p)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("bell", help="evaluate B_{n,k}(x_1, ..., x_{n-k+1})")
    p.add_argument("n", type=_index)
    p.add_argument("k", type=_index)
    p.add_argument("--args", required=True,
                   help="comma-separated rationals, e.g. 1/2,1/3,1/4")
    p.add_argument("--evaluator", choices=("recurrence", "partition-sum"),
                   default="recurrence")
    add_format(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("verify", help="cross-verify all methods against the oracle")
    p.add_argument("--max-n", type=_index, required=True, dest="max_n")
    p.add_argument("--allow-known", action="store_const", const=KNOWN, default=(),
                   dest="known",
                   help="do not fail on the documented '%s' discrepancy" % "', '".join(KNOWN))
    add_format(p)
    p.set_defaults(func=cmd_verify, methods=METHOD_NAMES)

    p = sub.add_parser("bench", help="time every method per index against the oracle")
    p.add_argument("--max-n", type=_index, required=True, dest="max_n")
    p.add_argument("--methods", type=_method_list, default="",
                   help="comma-separated subset of methods (default: all)")
    p.add_argument("--known", type=_method_list, default=",".join(KNOWN),
                   help="methods whose mismatches against the oracle do not fail the run")
    add_format(p)
    p.set_defaults(func=cmd_verify)
    parser.commands = sub.choices
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The Namespace of argv, from the command's own parser when argv[0]
    names a command and from the full parser otherwise (see the module
    docstring: both give the same Namespace, help and errors)."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except KeyboardInterrupt:  # Ctrl-C, while computing or while writing
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:  # while computing or while writing
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        chunks, code = args.func(args)
    except (UsageError, ValueError) as exc:
        # one line, even when a quoted argument holds a line break
        print("error: %s" % " ".join(str(exc).splitlines()), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help, once argparse has printed the help
        return exc.code
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, which is not an error.  Point the
        # descriptor at /dev/null so that the interpreter's final flush of
        # what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
