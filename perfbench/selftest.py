"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly against the program in ``src/`` and checks that
each output passes, that untraced and traced runs report exactly the
metrics BENCHMARK.json names, and that a deliberately wrong reference value
is counted as a failed request, in ``fail_ratio`` and in the exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from fractions import Fraction
from unittest import mock

import reference
import run
import workloads

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def brief(name: str, traced: bool = False) -> run.Run:
    """One pass over the deck (two when traced)."""
    return run.run_workload(name, seed=1, seconds=0, traced=traced, min_requests=1)


def _shift_b2(real):
    def wrong(max_n):
        values = real(max_n)
        values[2] += 1
        return values

    return wrong


def _bump_s50(real):
    def wrong(max_n):
        rows = real(max_n)
        rows[50][2] += 1
        return rows

    return wrong


# workload -> (reference function, how to make it wrong)
WRONG = {
    "point-queries": ("alternating_published", lambda real: lambda k: real(k) + 1),
    "verify-sweep": ("bernoulli_numbers", _shift_b2),
    "stirling-dump": ("stirling_rows", _bump_s50),
    "bell-eval": ("bell_value", lambda real: lambda n, k, xs: real(n, k, xs) + Fraction(1, 7)),
}


def wrong_reference(name: str):
    attr, make_wrong = WRONG[name]
    return mock.patch.object(reference, attr, make_wrong(getattr(reference, attr)))


class BenchSelfTest(unittest.TestCase):
    def test_every_output_passes_and_metrics_match_benchmark_json(self):
        end_to_end = {m["name"] for m in DECLARED["end_to_end"]} | {"fail_ratio"}
        per_layer = {m["name"] for m in DECLARED["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = brief(name)
                self.assertEqual(plain.failures, [])
                metrics = run.end_to_end(plain)
                self.assertEqual(set(metrics), end_to_end)
                self.assertEqual(metrics["fail_ratio"][0], 0)
                traced = brief(name, traced=True)
                self.assertEqual(traced.failures, [])
                layers = run.per_layer(traced)
                self.assertEqual(set(layers), per_layer)
                self.assertGreater(layers["cli.main.calls"][0], 0)

    def test_wrong_reference_is_counted_as_failure(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), wrong_reference(name):
                result = brief(name)
                self.assertGreater(len(result.failures), 0)
                fail_ratio = run.end_to_end(result)["fail_ratio"][0]
                self.assertEqual(fail_ratio, len(result.failures) / result.attempted)

    def test_failed_check_gives_nonzero_exit_and_incorrect_result(self):
        out = io.StringIO()
        with wrong_reference("bell-eval"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "bell-eval", "--seed", "3", "--seconds", "0", "--trace", "0"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
