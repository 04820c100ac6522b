"""One fresh interpreter that sets up treewalks and answers one pass of queries.

Usage: python3 worker.py ROOT TRACE SPANS_PATH CALIBRATION_RUNS

Protocol on stdout (binary):
  1. after importing treewalks, building the CLI parser and answering
     ``walks --n 1 --delta 3``: one JSON line ``{"backend": ...}``;
  2. one JSON line ``{"cal": ...}``: a reference-loop sample
     (calibrate.py, CALIBRATION_RUNS runs) taken right after set-up;
  3. it then reads the query list as JSON from stdin (an empty list ends
     the process: a set-up probe) and answers the queries in order, one at
     a time.  Per query it takes a reference-loop sample, then writes a
     JSON header line ``{"rc", "s", "cal", "bytes", "err"}`` followed by
     ``bytes`` bytes of output;
  4. a final JSON line ``{"rss_kb", "cal_end", "trace"}``, where
     ``cal_end`` is a reference-loop sample taken after the last query.

Only the call itself is inside a query's time: the reference loop and
output capture run before it and the result is sent after.  With TRACE=1
the layers are wrapped (see tracing.py) and the spans are written to
SPANS_PATH at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import calibrate


def _send(out, header: dict, payload: bytes = b"") -> None:
    out.write(json.dumps(header).encode() + b"\n")
    out.write(payload)
    out.flush()


def main() -> int:
    root, trace, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    runs = int(sys.argv[4])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import treewalks
    import treewalks.cli

    if not os.path.abspath(treewalks.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"treewalks imported from {treewalks.__file__}, not {src}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = treewalks.cli.main(["walks", "--n", "1", "--delta", "3"])
    if rc != 0 or buf.getvalue() != "3\n":
        print(f"set-up query answered {buf.getvalue()!r} with exit {rc}", file=sys.stderr)
        return 2
    out = sys.stdout.buffer
    _send(out, {"backend": treewalks.KERNEL_BACKEND})
    _send(out, {"cal": calibrate.sample(runs)})

    queries = json.loads(sys.stdin.read())
    if not queries:
        return 0
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    origin = time.perf_counter()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        cal = calibrate.sample(runs)
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, err = 0, ""
        t0 = time.perf_counter()
        try:
            if "lib" in query:
                fn = getattr(treewalks, query["lib"])
                t0 = time.perf_counter()
                value = fn(*query["args"])
                t1 = time.perf_counter()
                stdout.write(",".join(str(v) for v in value))
            else:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t0 = time.perf_counter()
                    try:
                        rc = treewalks.cli.main(query["cli"])
                    except SystemExit as exc:  # argparse rejects the argv
                        rc = exc.code if isinstance(exc.code, int) else 2
                    t1 = time.perf_counter()
        except Exception as exc:  # a failed query is counted, the pass goes on
            t1 = time.perf_counter()
            rc, err = 1, f"{type(exc).__name__}: {exc}"
        if rc and not err:
            err = stderr.getvalue().strip()
        payload = stdout.getvalue().encode()
        _send(out, {"rc": rc, "s": t1 - t0, "cal": cal, "bytes": len(payload), "err": err[:300]}, payload)
    cal_end = calibrate.sample(runs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = None
    if tracer is not None:
        stats = tracer.stats()
        stats["missing"] = tracer.missing
        tracer.write_spans(spans_path, f"treewalks spans, backend={treewalks.KERNEL_BACKEND}", origin)
    _send(out, {"rss_kb": rss_kb, "cal_end": cal_end, "trace": stats})
    return 0


if __name__ == "__main__":
    sys.exit(main())
