import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernstir
import bernstir.cli
import bernstir.verify
from bernstir import Method, bernoulli, cross_verify, format_rational, stirling_rows, supports
from bernstir.cli import FORMATS, KNOWN, METHOD_NAMES, build_parser, main

from oracles import report_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dumped(data):
    """The reference json rendering that every json output equals."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def reference(fmt, keys, rows, plain):
    """What a command prints for records `rows` with fields `keys`: json.dumps
    of the records, a csv header plus one ",".join line per record, or the
    text `plain`."""
    if fmt == "json":
        return dumped([dict(zip(keys, row)) for row in rows])
    if fmt == "csv":
        return "\n".join([",".join(keys)] + [",".join(map(str, row)) for row in rows]) + "\n"
    return plain


def test_bernoulli_single_method_plain(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "12", "--method", "theorem")
    assert code == 0
    assert out == "-691/2730\n"


def test_bernoulli_oracle_b1(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "1", "--method", "oracle")
    assert code == 0
    assert out == "-1/2\n"


def test_bernoulli_even_only_method_at_odd_index(capsys):
    code, out, err = run_cli(capsys, "bernoulli", "3", "--method", "guo-qi")
    assert code == 64
    assert out == ""
    assert "even n >= 2" in err


def test_bernoulli_all_marks_unsupported(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "3", "--method", "all", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,value"
    assert "3,guo-qi,unsupported" in lines
    assert "3,alternating,unsupported" in lines
    assert "3,theorem,0" in lines


def test_bernoulli_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "6", "--method", "all", "--format", "json")
    assert code == 0
    assert dumped(json.loads(out)) == out
    records = {r["method"]: r["value"] for r in json.loads(out)}
    assert records["oracle"] == "1/42"
    assert records["alternating"] != records["oracle"]


def test_stirling_csv(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert "4,2,7" in lines
    assert len(lines) == 1 + sum(n + 1 for n in range(5))


def test_stirling_minimal(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out == "n,k,value\n0,0,1\n"


def test_stirling_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "stirling", "--max-n", "6", "--format", "json")
    assert code == 0
    assert dumped(json.loads(out)) == out
    assert {"n": 6, "k": 3, "value": "90"} in json.loads(out)


def test_bell_command(capsys):
    code, out, _ = run_cli(capsys, "bell", "4", "2", "--args", "1/2,1/3,1/4")
    assert code == 0
    assert out == "5/6\n"
    code, out, _ = run_cli(
        capsys, "bell", "4", "2", "--args", "0/1,1,1", "--evaluator", "partition-sum"
    )
    assert code == 0
    assert out == "3\n"
    # a value may start with "-" as a token of its own
    code, out, err = run_cli(capsys, "bell", "3", "1", "--args", "-1/2,1,1")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = run_cli(capsys, "bell", "3", "2", "--args", "-1/2,1/3")
    assert (code, out, err) == (0, "-1/2\n", "")


ONES_1500 = ",".join(["1"] * 1500)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["bell", "1500", "1500", "--args", "1"], 1),
        (["bell", "1500", "1", "--args", ONES_1500, "--evaluator", "partition-sum"], 1),
        (["bell", "1500", "2", "--args", ONES_1500, "--evaluator", "partition-sum"], 2**1499 - 1),
        (["bell", "1500", "2", "--args", ONES_1500, "--evaluator", "recurrence"], 2**1499 - 1),
    ],
    ids=["recurrence-k=n", "partition-sum-k=1", "partition-sum-k=2", "recurrence-k=2"],
)
def test_bell_needs_no_deep_recursion(capsys, argv, want):
    # B_{n,k}(1, ..., 1) = S(n, k), far past the interpreter's recursion limit
    assert run_cli(capsys, *argv) == (0, "%d\n" % want, "")


def test_bell_rejects_bad_tokens(capsys):
    code, _, err = run_cli(capsys, "bell", "4", "2", "--args", "1/2,nope,1/4")
    assert code == 64
    assert "not a rational" in err
    # the library's own checks, in its own words
    assert run_cli(capsys, "bell", "4", "2", "--args", "1/2") == (
        64, "", "error: B_{4,2} needs arguments x_1..x_3, got 1\n"
    )
    assert run_cli(capsys, "bell", "2", "4", "--args", "1") == (
        64, "", "error: B_{n,k} needs n >= k >= 1, got (2, 4)\n"
    )


def test_bell_accepts_long_numerals(capsys):
    ones = "1" * 4400
    code, out, _ = run_cli(capsys, "bell", "1", "1", "--args", ones)
    assert code == 0
    assert out == ones + "\n"
    code, _, err = run_cli(capsys, "bell", "1", "1", "--args", ones + "x")
    assert code == 64
    assert len(err) < 80


def b_value(n, method):
    return format_rational(bernoulli(n, method)) if supports(method, n) else "unsupported"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [0, 1, 3, 6, 8, 31])
def test_bernoulli_all_equals_the_reference(capsys, fmt, n):
    rows = [(n, m.value, b_value(n, m)) for m in Method]
    plain = "".join("%s %s\n" % row[1:] for row in rows)
    want = reference(fmt, ("n", "method", "value"), rows, plain)
    assert run_cli(capsys, "bernoulli", str(n), "--format", fmt) == (0, want, "")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n, method", [(0, "oracle"), (1, "bell"), (12, "theorem"), (30, "guo-qi")])
def test_bernoulli_one_method_equals_the_reference(capsys, fmt, n, method):
    value = b_value(n, Method(method))
    want = reference(fmt, ("n", "method", "value"), [(n, method, value)], value + "\n")
    assert run_cli(capsys, "bernoulli", str(n), "--method", method, "--format", fmt) == (0, want, "")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "n, k, args, value",
    [
        (4, 2, "1/2,1/3,1/4", "5/6"),
        (3, 2, "-1/2,1/3", "-1/2"),
        (1, 1, "7" * 4400, "7" * 4400),  # past the int-to-str digit limit
    ],
)
def test_bell_equals_the_reference(capsys, fmt, n, k, args, value):
    want = reference(fmt, ("n", "k", "value"), [(n, k, value)], value + "\n")
    argv = ("bell", str(n), str(k), "--args=" + args, "--format", fmt)
    assert run_cli(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "max_n, methods, known",
    [(8, "", ",".join(KNOWN)), (1, "guo-qi", ""), (6, "alternating,logan", "")],
    ids=["all", "no-records", "mismatch"],
)
def test_bench_equals_the_reference(capsys, monkeypatch, fmt, max_n, methods, known):
    chosen = [Method(m) for m in methods.split(",")] if methods else tuple(Method)
    argv = ("bench", "--max-n", str(max_n), "--methods", methods, "--known", known)
    if not any(supports(m, n) for m in chosen for n in range(max_n + 1)):
        # a run with no record checks nothing: a usage error, not an empty report
        want = "error: no chosen method is defined at any n <= %d\n" % max_n
        assert run_cli(capsys, *argv, "--format", fmt) == (64, "", want)
        return
    report = cross_verify(max_n, known.split(",") if known else (), chosen)
    rows = [(e.n, e.method, format_rational(e.value), 7) for e in report.entries]
    plain = "".join("%d %s %s %dus\n" % row for row in rows)
    want = reference(fmt, ("n", "method", "value", "micros"), rows, plain)
    # every formula call then takes 7 microseconds
    clock = types.SimpleNamespace(perf_counter_ns=itertools.count(0, 7000).__next__)
    monkeypatch.setattr(bernstir.verify, "time", clock)
    assert run_cli(capsys, *argv, "--format", fmt) == (0 if report.ok else 2, want, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("max_n, known", [(6, ()), (12, KNOWN)])
def test_verify_equals_the_reference(capsys, fmt, max_n, known):
    report = cross_verify(max_n, known)
    rows = [
        (e.n, e.method, format_rational(e.value), "yes" if e.agrees_with_oracle else "no")
        for e in report.entries
    ]
    want = reference(fmt, ("n", "method", "value", "agrees"), rows, None)
    if fmt == "json":  # the report document, not a list of records
        want = dumped(report_to_dict(report))
    argv = ["verify", "--max-n", str(max_n), "--format", fmt] + ["--allow-known"] * bool(known)
    assert run_cli(capsys, *argv) == (0 if report.ok else 2, want, "")


def stirling_reference(max_n, fmt):
    rows = [(n, k, str(s)) for n, row in enumerate(stirling_rows(max_n)) for k, s in enumerate(row)]
    return reference(fmt, ("n", "k", "value"), rows, "".join("%d %d %s\n" % row for row in rows))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("max_n", [0, 1, 8, 40])
def test_stirling_equals_the_reference(capsys, fmt, max_n):
    argv = ("stirling", "--max-n", str(max_n), "--format", fmt)
    assert run_cli(capsys, *argv) == (0, stirling_reference(max_n, fmt), "")


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 2
    assert "2 alternating 1/3 NO" in out
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--allow-known")
    assert code == 0
    assert "known discrepancies: (2, alternating)" in out


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--allow-known", "--format", "json")
    assert code == 0
    assert dumped(json.loads(out)) == out
    doc = json.loads(out)
    assert doc["summary"]["mismatches"] == []
    assert [2, "alternating"] in doc["summary"]["known_discrepancies"]


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--format", "csv")
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,value,agrees"
    assert "2,alternating,1/3,no" in lines
    assert "2,oracle,1/6,yes" in lines


def test_bench_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max-n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,method,value,micros"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 4 and int(r[3]) >= 0 for r in rows)
    # values agree across non-flagged methods for each n
    for n in range(7):
        values = {r[2] for r in rows if int(r[0]) == n and r[1] != "alternating"}
        assert len(values) == 1, n


def test_bench_and_bell_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max-n", "4", "--format", "json")
    assert code == 0
    assert dumped(json.loads(out)) == out
    code, out, _ = run_cli(
        capsys, "bell", "4", "2", "--args", "1/2,1/3,1/4", "--format", "json"
    )
    assert code == 0
    assert dumped(json.loads(out)) == out
    assert json.loads(out) == [{"n": 4, "k": 2, "value": "5/6"}]


def test_verify_full_range_with_allow_known(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "40", "--allow-known")
    assert code == 0
    assert "unexpected mismatches: none" in out


def test_bench_method_subset(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--max-n", "4", "--methods", "oracle,logan", "--format", "csv"
    )
    assert code == 0
    methods = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert methods == {"oracle", "logan"}


@pytest.mark.parametrize(
    "argv, code",
    [
        # one method is checked against the oracle, not against itself
        (("--methods", "alternating", "--known", ""), 2),
        (("--methods", "logan"), 0),
    ],
)
def test_bench_single_method_gate(capsys, argv, code):
    assert run_cli(capsys, "bench", "--max-n", "4", *argv)[0] == code


def test_bench_rejects_small_range(capsys):
    # bench takes the range cross_verify takes, as verify does
    assert run_cli(capsys, "bench", "--max-n", "0") == (64, "", "error: max_n must be >= 1, got 0\n")
    assert run_cli(capsys, "bench", "--max-n", "1", "--format", "csv")[0] == 0


@pytest.mark.parametrize(
    "argv, code, methods",
    [
        (("--methods", "all", "--known", ""), 2, set(METHOD_NAMES)),
        (("--methods", "all", "--known", "all"), 0, set(METHOD_NAMES)),
        (("--methods", "logan,", "--known", ""), 0, {"logan"}),
        (("--methods", ",alternating,,", "--known", "alternating,"), 0, {"alternating"}),
        (("--methods", ""), 0, set(METHOD_NAMES)),
        (("--methods", ","), 0, set(METHOD_NAMES)),
    ],
)
def test_bench_method_lists(capsys, argv, code, methods):
    # `all` and empty names read the same in --methods and --known
    got, out, err = run_cli(capsys, "bench", "--max-n", "4", *argv, "--format", "csv")
    assert (got, err) == (code, "")
    assert {line.split(",")[1] for line in out.splitlines()[1:]} == methods


@pytest.mark.parametrize("option", ["--methods", "--known"])
def test_bench_rejects_unknown_method_names(capsys, option):
    code, out, err = run_cli(capsys, "bench", "--max-n", "4", option, "logan,bogus")
    assert (code, out) == (64, "")
    assert err.startswith("error: unknown method 'bogus'; choose from: alternating, ")
    assert err.endswith(" or all\n")


@pytest.mark.parametrize("argv", [("bernoulli", "-1"), ("bernoulli", "-1", "--method", "all")])
def test_bernoulli_rejects_a_negative_index(capsys, argv):
    assert run_cli(capsys, *argv) == (64, "", "error: n must be >= 0, got -1\n")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "1\u0660", " 7", "7 ", "7\n", "0x10", "1.0", "+", ""])
@pytest.mark.parametrize(
    "argv, name",
    [
        (("bernoulli", "{}", "--method", "oracle"), "n"),
        (("bell", "{}", "1", "--args", "1"), "n"),
        (("bell", "2", "{}", "--args", "1"), "k"),
        (("stirling", "--max-n", "{}"), "--max-n"),
        (("verify", "--max-n", "{}"), "--max-n"),
        (("bench", "--max-n", "{}"), "--max-n"),
    ],
)
def test_index_arguments_take_ascii_digits_only(capsys, token, argv, name):
    # int() alone would read `1_0` as 10 and the Arabic-Indic digit 3 as 3
    argv = [arg.format(token) for arg in argv]
    message = "error: argument %s: invalid int value: %r\n" % (name, token)
    assert run_cli(capsys, *argv) == (64, "", message)


@pytest.mark.parametrize("token, value", [("+4", "-1/30"), ("-0", "1"), ("0004", "-1/30")])
def test_index_arguments_take_a_sign_and_leading_zeros(capsys, token, value):
    assert run_cli(capsys, "bernoulli", token, "--method", "oracle") == (0, value + "\n", "")


NUMBERS = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "--1", "0x10", "9" * 40, " 7", "\u0663", "1_0"]),
)
RATIONALS = st.one_of(NUMBERS, st.builds("{}/{}".format, NUMBERS, NUMBERS))
NAMES = st.sampled_from(METHOD_NAMES + ("all", "bogus", "", " logan ", "LOGAN"))


@st.composite
def argvs(draw):
    """An argv for one of the five commands: numbers, rationals and method
    names good and bad, and at times one stray token anywhere."""
    command = draw(st.sampled_from(("bernoulli", "stirling", "bell", "verify", "bench")))
    argv = [command]
    if command == "bernoulli":
        argv.append(draw(NUMBERS))
        if draw(st.booleans()):
            argv += ["--method", draw(NAMES)]
    elif command == "bell":
        argv += [draw(NUMBERS), draw(NUMBERS)]
        argv.append("--args=" + ",".join(draw(st.lists(RATIONALS, min_size=1, max_size=6))))
        argv += ["--evaluator", draw(st.sampled_from(("recurrence", "partition-sum")))]
    else:
        argv += ["--max-n", draw(NUMBERS)]
    if command == "verify" and draw(st.booleans()):
        argv.append("--allow-known")
    if command == "bench":
        for option in ("--methods", "--known"):
            if draw(st.booleans()):
                argv.append("%s=%s" % (option, ",".join(draw(st.lists(NAMES, max_size=4)))))
    argv += ["--format", draw(st.sampled_from(FORMATS))]
    if draw(st.booleans()):
        stray = st.one_of(st.text(max_size=6), st.sampled_from(["-h", "--he", "--", "-1/2"]))
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv


# BERNSTIR_MAX_N values: small caps, the default (empty) and rejected ones.
# No cap reaches the 40-digit index NUMBERS may draw, so no run is long.
CAPS = st.one_of(
    st.integers(0, 24).map(str),
    st.sampled_from(["", "+7", "-0", "-5", "1_0", "\u0663", " 7", "7 ", "x", "9" * 5000]),
)


@settings(max_examples=300, deadline=None)
@given(argv=argvs(), cap=CAPS)
def test_every_argv_ends_in_a_documented_exit(argv, cap):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"BERNSTIR_MAX_N": cap}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 64)
    message = err.getvalue()
    if code == 64:
        assert message.startswith("error: ") and message.endswith("\n")
        assert len(message.splitlines()) == 1, message
    else:
        assert message == ""


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("BERNSTIR_MAX_N", "5")
    code, _, err = run_cli(capsys, "bernoulli", "6", "--method", "oracle")
    assert code == 64
    assert "BERNSTIR_MAX_N" in err
    code, _, _ = run_cli(capsys, "bernoulli", "5", "--method", "oracle")
    assert code == 0
    monkeypatch.setenv("BERNSTIR_MAX_N", "6")
    code, _, _ = run_cli(capsys, "bernoulli", "6", "--method", "oracle")
    assert code == 0
    monkeypatch.setenv("BERNSTIR_MAX_N", "not-a-number")
    code, _, err = run_cli(capsys, "stirling", "--max-n", "3")
    assert code == 64
    monkeypatch.setenv("BERNSTIR_MAX_N", "")
    code, _, _ = run_cli(capsys, "bernoulli", "6", "--method", "oracle")
    assert code == 0


@pytest.mark.parametrize("cap", ["1_0", "\u0663", "-5", " 7", "7\n", "9" * 5000])
def test_env_cap_takes_the_index_rule(capsys, monkeypatch, cap):
    # the cap reads its value as the index arguments do, and is never negative
    monkeypatch.setenv("BERNSTIR_MAX_N", cap)
    code, out, err = run_cli(capsys, "bernoulli", "0", "--method", "oracle")
    assert code == 64
    assert out == ""
    assert err.startswith("error: BERNSTIR_MAX_N must be an integer >= 0")
    assert len(err.splitlines()) == 1


def test_env_cap_takes_a_sign(capsys, monkeypatch):
    monkeypatch.setenv("BERNSTIR_MAX_N", "+10")
    assert run_cli(capsys, "bernoulli", "10", "--method", "oracle") == (0, "5/66\n", "")
    monkeypatch.setenv("BERNSTIR_MAX_N", "-0")
    assert run_cli(capsys, "bernoulli", "0", "--method", "oracle") == (0, "1\n", "")


# A rejected token is quoted back to at most 40 characters, then "...".
def test_a_long_rejected_rational_is_quoted_short(capsys):
    for token, tail in [("x" * 40, ""), ("x" * 5000, "...")]:
        message = "error: not a rational: '%s'%s\n" % ("x" * 40, tail)
        assert run_cli(capsys, "bell", "1", "1", "--args", token) == (64, "", message)


def test_a_long_rejected_index_is_quoted_short(capsys):
    # digits past the int-to-str digit limit break the index rule
    message = "error: argument n: invalid int value: '%s'...\n" % ("1" * 40)
    assert run_cli(capsys, "bernoulli", "1" * 5000) == (64, "", message)


def test_a_long_rejected_cap_is_quoted_short(capsys, monkeypatch):
    monkeypatch.setenv("BERNSTIR_MAX_N", "9" * 5001)
    message = "error: BERNSTIR_MAX_N must be an integer >= 0, got '%s'...\n" % ("9" * 40)
    assert run_cli(capsys, "bernoulli", "0", "--method", "oracle") == (64, "", message)


@pytest.mark.parametrize(
    "argv", [("bernoulli", "2", "--method"), ("bench", "--max-n", "2", "--methods")]
)
def test_a_long_rejected_method_name_is_quoted_short(capsys, argv):
    message = "error: unknown method '%s'...; choose from: %s or all\n" % (
        "x" * 40, ", ".join(METHOD_NAMES))
    assert run_cli(capsys, *argv, "x" * 5001) == (64, "", message)


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "bernoulli", "4", "--method", "bogus")
    assert code == 64
    assert "unknown method" in err
    code, _, err = run_cli(capsys, "bernoulli", "--method", "oracle")
    assert code == 64
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 64


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    calls = [
        ["bernoulli", "4", "--method", "bogus"],
        ["bell", "4", "2", "--args", "1/2,1/3,1/4", "--format", "csv"],
        ["bernoulli", "8", "--format", "json"],
    ]
    in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "bernstir", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        for argv in calls
    ]
    assert in_process[0][0] == 64
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]


def child_env():
    # the child imports the same bernstir as the tests, installed or not
    src = str(Path(bernstir.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_cli_import_leaves_out_json_dataclasses_and_inspect():
    # each costs start-up time that no command needs
    code = "import sys, bernstir.cli; print(sorted({'json', 'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bernstir", "bernoulli", "2", "--method", "logan"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/6\n"


def test_stirling_reader_closing_early_is_not_an_error():
    with subprocess.Popen(
        [sys.executable, "-m", "bernstir", "stirling", "--max-n", "400", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert head.startswith(b"[\n  {\n")
    assert code == 0
    assert err == b""


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def test_interrupted_command_exits_130_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(bernstir.cli, "cross_verify", interrupt)
    assert run_cli(capsys, "verify", "--max-n", "10") == (130, "", "error: interrupted\n")


def test_interrupted_stirling_stream_exits_130_with_one_line(capsys, monkeypatch):
    def two_rows(max_n):
        yield from itertools.islice(stirling_rows(max_n), 2)
        raise KeyboardInterrupt

    monkeypatch.setattr(bernstir.cli, "stirling_rows", two_rows)
    # the rows already written stay written
    rows = "0 0 1\n1 0 0\n1 1 1\n"
    assert run_cli(capsys, "stirling", "--max-n", "5") == (130, rows, "error: interrupted\n")


def test_sigint_ends_a_command_with_one_line():
    with subprocess.Popen(
        [sys.executable, "-m", "bernstir", "stirling", "--max-n", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        proc.stdout.read(50)  # the dump is under way
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (130, b"error: interrupted\n")


def test_stirling_holds_one_row(monkeypatch):
    # one row of S(300, k), its json text and the parser: about 0.8 MB
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["stirling", "--max-n", "300", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 1024 * 1024


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("fmt", FORMATS)
def test_stirling_past_int_digit_limit(capsys, fmt):
    # S(400, k) reaches 644 digits, past the lowest limit Python allows
    expected = run_cli(capsys, "stirling", "--max-n", "400", "--format", fmt)
    assert expected == (0, stirling_reference(400, fmt), "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(capsys, "stirling", "--max-n", "400", "--format", fmt) == expected
    finally:
        sys.set_int_max_str_digits(limit)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (("bernoulli", "8"), 0, "bernoulli_8.txt"),
        (("bernoulli", "8", "--format", "json"), 0, "bernoulli_8.json"),
        (("bernoulli", "8", "--format", "csv"), 0, "bernoulli_8.csv"),
        (("bernoulli", "7", "--format", "csv"), 0, "bernoulli_7.csv"),
        (("verify", "--max-n", "4", "--allow-known"), 0, "verify_4_allow_known.txt"),
        (
            ("verify", "--max-n", "4", "--allow-known", "--format", "json"),
            0,
            "verify_4_allow_known.json",
        ),
        (
            ("verify", "--max-n", "4", "--allow-known", "--format", "csv"),
            0,
            "verify_4_allow_known.csv",
        ),
        (("verify", "--max-n", "2"), 2, "verify_2.txt"),
        (("stirling", "--max-n", "8"), 0, "stirling_8.txt"),
        (("stirling", "--max-n", "8", "--format", "csv"), 0, "stirling_8.csv"),
        (("stirling", "--max-n", "8", "--format", "json"), 0, "stirling_8.json"),
    ],
)
def test_golden_stdout(capsys, argv, code, golden):
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert out.encode() == (GOLDEN / golden).read_bytes()
