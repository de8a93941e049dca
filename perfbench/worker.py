"""The benchmark's child process: one caller of ``bernstir.cli.main``.

Usage: worker.py SRC_DIR setup|serve

Start-up imports ``bernstir.cli`` from SRC_DIR, builds its parser and sends
a ready frame; that is the interval the parent reports as ``setup_s``.  In
``setup`` mode the worker then exits.  In ``serve`` mode it reads one JSON
request per line from stdin, ``{"argv": [...], "trace": 0|1, "id": i}``,
calls ``main(argv)`` in-process and answers with frames on its original
stdout, until it reads ``{"finish": 1}``.

A frame is one kind byte, an 8-byte big-endian length and the payload:
  S  ready (empty)
  D  a chunk of the program's stdout, sent while the request runs
  R  JSON {"code", "ns", "error", "stderr", "bytes"} after the request
  F  JSON {"maxrss_kb", "spans", "counts", "alloc_peak", "missing"} at finish
"""

import io
import json
import os
import sys
import time

CHUNK = 1 << 16  # stdout is block-buffered at this size, like a pipe


def send(channel, kind: bytes, payload: bytes = b"") -> None:
    channel.write(kind + len(payload).to_bytes(8, "big"))
    channel.write(payload)
    channel.flush()


class FramedStdout(io.TextIOBase):
    """Stands in for sys.stdout during a request: buffers text and forwards
    it to the parent in D frames, so the worker never holds the output.
    The base class supplies print()'s and writelines()' plumbing."""

    def __init__(self, channel):
        super().__init__()
        self._channel = channel
        self._buffer: list[bytes] = []
        self._size = 0
        self.total = 0

    def write(self, text: str) -> int:
        for i in range(0, len(text), CHUNK):
            data = text[i : i + CHUNK].encode()
            self._buffer.append(data)
            self._size += len(data)
            self.total += len(data)
            if self._size >= CHUNK:
                self.flush()
        return len(text)

    def writable(self) -> bool:
        return True

    def flush(self) -> None:
        if self._buffer:
            send(self._channel, b"D", b"".join(self._buffer))
            self._buffer.clear()
            self._size = 0


def serve(channel, cli) -> None:
    # imported after the ready frame, so that set-up times the program alone
    import resource
    import traceback

    recorder = None
    measured: dict[int, int] = {}
    for line in sys.stdin.buffer:
        request = json.loads(line)
        if request.get("finish"):
            break
        if request["trace"] and recorder is None:
            import spans

            recorder = spans.Recorder()
        out, err = FramedStdout(channel), io.StringIO()
        code, error = None, None
        if request["trace"]:
            recorder.install(request["id"])
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter_ns()
        try:
            code = cli.main(request["argv"])
            out.flush()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter_ns() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        if request["trace"]:
            recorder.uninstall()
            for max_n in recorder.tables:
                if max_n not in measured:
                    measured[max_n] = table_alloc_peak(max_n)
            recorder.tables.clear()
        out.flush()
        result = {"code": code, "ns": elapsed, "error": error, "stderr": err.getvalue(), "bytes": out.total}
        send(channel, b"R", json.dumps(result).encode())

    final = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else [],
        "counts": recorder.counts if recorder else [],
        "missing": recorder.missing if recorder else [],
        "alloc_peak": max(measured.values(), default=0),
    }
    send(channel, b"F", json.dumps(final).encode())


def table_alloc_peak(max_n: int) -> int:
    """tracemalloc peak, in bytes, of building StirlingTable(max_n) alone.

    Measured outside every timed request, because tracemalloc slows each
    allocation several times over.
    """
    import tracemalloc

    from bernstir.stirling import StirlingTable

    tracemalloc.start()
    try:
        table = StirlingTable(max_n)
        peak = tracemalloc.get_traced_memory()[1]
        del table
    finally:
        tracemalloc.stop()
    return peak


def main() -> None:
    src, mode = sys.argv[1], sys.argv[2]
    channel = os.fdopen(os.dup(1), "wb")
    sys.path.insert(0, src)
    import bernstir.cli as cli

    cli.build_parser()
    send(channel, b"S")
    if mode == "serve":
        serve(channel, cli)
    channel.close()


if __name__ == "__main__":
    main()
