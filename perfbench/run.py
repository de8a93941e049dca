"""Benchmark for the bernstir command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One run spawns a worker process (worker.py) that imports
``bernstir.cli`` and calls ``main(argv)`` in-process, one request at a
time: a closed loop with a single caller.  This process generates the
seeded request deck, sends each argv, reads the output back and checks it
exactly against its own reference before it sends the next one.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over the deck and
reports per-layer calls, self time and counters from the traced passes,
plus the traced/untraced wall-time ratio.  ``--all`` runs every workload
both ways, prints everything and writes ``out/results-seed<N>.json``.

Every run prints its metrics, one per line with unit and sample count, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}.  It
exits 1 when any output check failed and 2 when the program is missing.
README.md beside this file says why each workload exists and which metric
each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 4  # set-up samples before the first pass
MIN_REQUESTS = 100  # so that ten latency samples lie beyond p90
RUN_DEADLINE_S = 150.0  # a hung program is killed and counted as failed


class Timeout(Exception):
    """The worker did not answer before the run's deadline."""


class Worker:
    """One spawned worker.py, spoken to over its stdin and stdout."""

    def __init__(self, mode: str, deadline: float):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
            cwd=ROOT,
        )
        try:
            kind, _ = self._frame()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        if kind != b"S":
            self.close()
            raise RuntimeError("worker sent %r before it was ready" % kind)

    def _read(self, size: int) -> bytes:
        fd = self.proc.stdout.fileno()
        parts, left = [], size
        while left:
            wait = self.deadline - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                raise Timeout()
            chunk = os.read(fd, min(left, 1 << 20))
            if not chunk:
                raise RuntimeError("worker exited with code %s" % self.proc.wait())
            parts.append(chunk)
            left -= len(chunk)
        return b"".join(parts)

    def _frame(self) -> tuple[bytes, bytes]:
        head = self._read(9)
        return head[:1], self._read(int.from_bytes(head[1:], "big"))

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()

    def call(self, argv, traced: bool, request_id: int) -> tuple[dict, str]:
        """Run one request; return the worker's result record and the
        program's stdout."""
        self._send({"argv": list(argv), "trace": int(traced), "id": request_id})
        chunks = []
        while True:
            kind, payload = self._frame()
            if kind == b"D":
                chunks.append(payload)
            elif kind == b"R":
                return json.loads(payload), b"".join(chunks).decode()
            else:
                raise RuntimeError("unexpected worker frame %r" % kind)

    def finish(self) -> dict:
        self._send({"finish": 1})
        kind, payload = self._frame()
        if kind != b"F":
            raise RuntimeError("unexpected worker frame %r" % kind)
        self.close()
        return json.loads(payload)

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    seed: int
    traced: bool
    setups: list = field(default_factory=list)  # seconds, one per spawn
    # (pass, traced, ns, stdout bytes); the index is the request id
    samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (argv, problem)
    final: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.samples)


def judge(request, reply: dict, out: str) -> str | None:
    if reply["error"]:
        return "raised: " + reply["error"].strip().splitlines()[-1]
    if reply["code"] != 0:
        return "exit code %s: %s" % (reply["code"], reply["stderr"].strip()[:200])
    return request.check(out)


def setup_sample(run: Run, deadline: float) -> None:
    worker = Worker("setup", deadline)
    run.setups.append(worker.setup_s)
    worker.close()


def run_workload(name: str, seed: int, seconds: float, traced: bool, min_requests: int = MIN_REQUESTS) -> Run:
    """One run: whole passes over the deck until about `seconds` have
    passed and at least `min_requests` were sent.  A traced run alternates
    untraced and traced passes and ends on a traced one.

    Set-up is sampled at the start and again after every untraced pass, so
    that its median spans the whole run rather than one moment of it.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    deck = workloads.make_deck(name, seed)
    run = Run(name, seed, traced)
    Worker("setup", deadline).close()  # fills bytecode caches; not counted
    if not traced:
        for _ in range(SETUP_SPAWNS):
            setup_sample(run, deadline)
    worker = Worker("serve", deadline)
    run.setups.append(worker.setup_s)
    try:
        start, passes = time.perf_counter(), 0
        while True:
            traced_pass = traced and passes % 2 == 1
            for request in deck:
                reply, out = worker.call(request.argv, traced_pass, run.attempted)
                problem = judge(request, reply, out)
                run.samples.append((passes, traced_pass, reply["ns"], reply["bytes"]))
                if problem:
                    run.failures.append((request.argv, problem))
            passes += 1
            if not traced:
                setup_sample(run, deadline)
            if traced and passes % 2:
                continue
            elapsed = time.perf_counter() - start
            step = elapsed / (passes // 2 if traced else passes)
            if run.attempted >= min_requests and elapsed + step / 2 >= seconds:
                break
        run.final = worker.finish()
    except Timeout:  # the unanswered request counts as attempted and failed
        run.samples.append((-1, False, 0, 0))
        run.failures.append(((), "no answer within %.0f s; worker killed" % RUN_DEADLINE_S))
    finally:
        worker.close()
    return run


def end_to_end(run: Run) -> dict:
    """name -> (value, unit, sample count)"""
    ms = [ns / 1e6 for _, _, ns, _ in run.samples]
    busy_s = sum(ms) / 1e3
    return {
        "setup_s": (statistics.median(run.setups), "s", len(run.setups)),
        "throughput_rps": (len(ms) / busy_s if busy_s else 0.0, "1/s", len(ms)),
        "latency_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0], "ms", len(ms)),
        "peak_rss_mb": (run.final.get("maxrss_kb", 0) / 1024, "MB", 1),
        "fail_ratio": (len(run.failures) / run.attempted, "ratio", run.attempted),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "cells": "count", "entries": "count", "output_bytes": "bytes"}


def per_layer(run: Run) -> dict:
    """name -> (value, unit, sample count).  Counts and times are per pass
    over the deck, as the median over the traced passes."""
    final = run.final
    requests_of: dict[int, list[int]] = {}
    for index, (pass_no, traced, _, _) in enumerate(run.samples):
        if traced:
            requests_of.setdefault(pass_no, []).append(index)
    rows = []
    for indices in requests_of.values():
        totals = spans.layer_totals(final.get("spans", []), final.get("counts", []), indices)
        totals["cli.output_bytes"] = sum(run.samples[i][3] for i in indices)
        rows.append(totals)
    passes = len(rows)
    out = {}
    for key in rows[0] if rows else ():
        out[key] = (statistics.median(r[key] for r in rows), LAYER_UNITS[key.rsplit(".", 1)[1]], passes)
    out["stirling.table.alloc_peak_mb"] = (final.get("alloc_peak", 0) / 2**20, "MB", 1)
    traced_ns = sum(ns for _, traced, ns, _ in run.samples if traced)
    plain_ns = sum(ns for _, traced, ns, _ in run.samples if not traced)
    out["trace.overhead_ratio"] = (traced_ns / plain_ns if plain_ns else 0.0, "ratio", passes)
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run in a plain copy of the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(run: Run, metrics: dict) -> None:
    print("# %s seed=%d trace=%d" % (run.workload, run.seed, run.traced))
    for name, (value, unit, count) in metrics.items():
        print("%-40s %14.6g %-6s n=%d" % (name, value, unit, count))
    for argv, problem in run.failures[:10]:
        print("FAIL %s: %s" % (" ".join(argv), problem), file=sys.stderr)
    for name in run.final.get("missing", []):
        print("warning: no function to trace for span %s" % name, file=sys.stderr)


def write_trace(run: Run) -> None:
    """Keep the raw spans of a traced run for inspection."""
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.jsonl" % (run.workload, run.seed))
    with path.open("w") as f:
        for span in run.final.get("spans", []):
            f.write(json.dumps(span) + "\n")


def measure(name: str, seed: int, seconds: float, traced: bool) -> tuple[Run, dict]:
    """One run, its metrics printed and, when traced, its spans written."""
    run = run_workload(name, seed, seconds, traced)
    metrics = per_layer(run) if traced else end_to_end(run)
    if traced:
        write_trace(run)
    report(run, metrics)
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bernstir" / "cli.py").is_file():
        print("error: the program is missing: no %s" % (SRC / "bernstir" / "cli.py"), file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# " + json.dumps(env, sort_keys=True))

    if args.workload:
        run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics.pop("fail_ratio", None)  # carried by "attempted" and "failed"
        result = {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
        print(json.dumps(result))
        return 1 if run.failures else 0

    results, failed = {}, 0
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            run, metrics = measure(name, args.seed, args.seconds, traced)
            failed += len(run.failures)
            results.setdefault(name, {}).update(
                {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()}
            )
    OUT.mkdir(exist_ok=True)
    path = OUT / ("results-seed%d.json" % args.seed)
    path.write_text(json.dumps({"environment": env, "workloads": results}, indent=2, sort_keys=True) + "\n")
    print("# wrote %s; %d failed checks" % (path, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
