"""treewalks benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload routes|verify|sweep --seed N \\
        --seconds S --trace 0|1

One client sends the workload's seeded query stream in a closed loop
(each query starts after the previous one returns) to a fresh worker
interpreter (worker.py), which calls ``treewalks.cli.main(argv)`` with
stdout captured, or a public library function.  One pass of the stream
runs per worker, so nothing the program caches outlives a pass.  Passes
repeat until ``--seconds`` have elapsed and at least MIN_PASSES ran.
Every answer of every pass is checked against reference.py, which does
not import treewalks; the expected answers are computed before timing.

Times are reported in seconds at the reference host speed: the worker
times a fixed reference loop (calibrate.py) just before each query, after
the last one and right after set-up, and each latency is multiplied by
``calibrate.REFERENCE_S`` over the mean of the samples on either side of
it.  The host this was written on drifts by 30-40 % within minutes, and
the scaling cancels that drift.  The unscaled wall times are printed too
and kept, with every sample, in the result file.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (tracing.py), the
tracing overhead, and writes the spans to perfbench/out/.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
#: Passes every run makes at least; the tail percentile is chosen for it.
MIN_PASSES = 4
#: Fresh interpreters whose set-up time is measured per run (probes + passes),
#: at least; PROBES_PER_PASS set-up-only probes run before every pass, so
#: that the samples are spread over the whole run.
SETUP_SAMPLES = 25
PROBES_PER_PASS = 2
#: No pass starts after this many seconds, and every worker is killed at
#: RUN_DEADLINE_S, so that a run ends within 180 s even on a slow program.
LAST_PASS_START_S = 100.0
RUN_DEADLINE_S = 170.0


#: End-to-end metrics in the final JSON line; fail_ratio travels as failed/attempted.
END_TO_END = ("setup_s", "job_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb")


class WorkerError(RuntimeError):
    """A worker died, timed out or broke the protocol."""


def _spawn_worker(trace: bool, spans: Path, queries: list[dict], deadline: float, runs: int) -> dict:
    """Start a fresh interpreter, time its set-up, then run ``queries`` in it."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), "1" if trace else "0", str(spans),
           str(runs)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        cal_line = proc.stdout.readline()
        try:
            proc.stdin.write(json.dumps(queries).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker died during set-up; its exit code is reported below
        data = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready or not cal_line:
        raise WorkerError(f"worker exited with code {code}")
    result = {"setup_s": setup_s, "setup_cal": json.loads(cal_line)["cal"],
              "backend": json.loads(ready)["backend"], "answers": []}
    pos = 0
    while pos < len(data):
        end = data.index(b"\n", pos)
        header = json.loads(data[pos:end])
        pos = end + 1
        if "rc" in header:
            payload = data[pos:pos + header["bytes"]].decode()
            pos += header["bytes"]
            result["answers"].append((header, payload))
        else:
            result.update(header)
    if queries and len(result["answers"]) != len(queries):
        raise WorkerError(f"worker answered {len(result['answers'])} of {len(queries)} queries")
    return result


def _scale(seconds: float, cal: float) -> float:
    """Seconds at the reference host speed, given the reference loop's time now."""
    return seconds * calibrate.REFERENCE_S / cal


def _scaled_latencies(res: dict) -> list[float]:
    """Each query's latency scaled by the mean of the samples taken before and after it."""
    cals = [h["cal"] for h, _ in res["answers"]] + [res["cal_end"]]
    return [_scale(h["s"], (cals[i] + cals[i + 1]) / 2) for i, (h, _) in enumerate(res["answers"])]


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # never let git search the parent directories
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Digest of the package sources, identifying the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treewalks").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its metrics, work counts and environment."""
    stream = workloads.build(name, seed, tiny)
    expected = [reference.expected(q) for q in stream]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}.tsv.gz"
    setups, passes, failures = [], [], []
    deadline = time.perf_counter() + RUN_DEADLINE_S
    runs = workloads.CALIBRATION_RUNS[name]

    def probe() -> None:
        res = _spawn_worker(False, spans, [], deadline, runs)
        setups.append((res["setup_s"], res["setup_cal"]))

    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LAST_PASS_START_S or (len(passes) >= MIN_PASSES and elapsed >= seconds):
            break
        if not trace:
            for _ in range(PROBES_PER_PASS):
                probe()
        traced = trace and len(passes) % 2 == 1
        res = _spawn_worker(traced, spans, stream, deadline, runs)
        setups.append((res["setup_s"], res["setup_cal"]))
        for qid, ((header, text), query, expect) in enumerate(zip(res["answers"], stream, expected)):
            why = reference.check(query, expect, header["rc"], text)
            if why is not None:
                failures.append(f"pass {len(passes)} query {qid} {query}: {why} {header['err']}")
        passes.append({
            "traced": traced,
            "latencies": _scaled_latencies(res),
            "wall_latencies": [h["s"] for h, _ in res["answers"]],
            "cals": [h["cal"] for h, _ in res["answers"]] + [res["cal_end"]],
            "rss_kb": res["rss_kb"],
            "trace": res["trace"],
            "backend": res["backend"],
        })
    while not trace and len(setups) < SETUP_SAMPLES:
        probe()
    plain = [p for p in passes if not p["traced"]]
    jobs = [sum(p["latencies"]) for p in plain]
    latencies = sorted(s for p in plain for s in p["latencies"])
    # the highest percentile that leaves ten samples beyond it at MIN_PASSES
    # passes; fixed per workload, so that a faster program, which fits more
    # passes into a run, is compared at the same percentile
    tail_p = 100 * (1 - 10 / (len(stream) * MIN_PASSES))
    attempted = len(stream) * len(passes)
    kinds: dict[str, int] = {}
    for q in stream:
        kinds[workloads.kind(q)] = kinds.get(workloads.kind(q), 0) + 1
    result = {
        "workload": name,
        "env": {
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "python": platform.python_version(),
            "kernel_backend": passes[0]["backend"],
            "nproc": os.cpu_count(),
            "seed": seed,
        },
        "work": {
            "queries_per_pass": len(stream),
            "queries_by_kind": kinds,
            "max_answer_bits": max(reference.bits(e) for e in expected),
        },
        "passes": len(passes),
        "pass_traced": [p["traced"] for p in passes],
        "pass_latencies": [p["latencies"] for p in passes],
        "pass_wall_latencies": [p["wall_latencies"] for p in passes],
        "pass_reference_loop_s": [p["cals"] for p in passes],
        "setup_wall_s": [s for s, _ in setups],
        "setup_reference_loop_s": [c for _, c in setups],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {},
        "per_layer": {},
    }
    if plain:
        e2e = result["end_to_end"]
        e2e["setup_s"] = (statistics.median(_scale(s, c) for s, c in setups), "s")
        e2e["job_s"] = (statistics.median(jobs), "s")
        # every pass holds the same queries, so the median of all latencies
        # falls between two of them when a pass holds an even number; the
        # median of each pass's median stays on a query
        e2e["query_p50_ms"] = (1000 * statistics.median(
            statistics.median(p["latencies"]) for p in plain), "ms")
        e2e["query_tail_ms"] = (1000 * _percentile(latencies, tail_p), "ms")
        e2e["fail_ratio"] = (result["failed"] / attempted, "ratio")
        e2e["peak_rss_mb"] = (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB")
        result["wall"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "job_s": statistics.median(sum(p["wall_latencies"]) for p in plain),
            "reference_loop_ms": 1000 * statistics.median(c for p in plain for c in p["cals"]),
        }
        result["tail"] = {
            "percentile": round(tail_p, 2),
            "samples": len(latencies),
            "beyond": sum(1 for s in latencies if s > _percentile(latencies, tail_p)),
        }
    traced = [p for p in passes if p["traced"]]
    if traced:
        layer = result["per_layer"]
        for key in traced[0]["trace"]:
            if key == "missing":
                continue
            unit = "s" if key.endswith("_s") else (
                "ratio" if key.endswith(("per_call", "per_sequence")) else "count")
            layer[key] = (statistics.median(p["trace"][key] for p in traced), unit)
        traced_jobs = [sum(p["latencies"]) for p in traced]
        layer["trace.overhead_ratio"] = (statistics.median(traced_jobs) / statistics.median(jobs), "ratio")
        result["missing"] = traced[0]["trace"]["missing"]
        result["spans"] = str(spans.relative_to(ROOT))
    return result


def _report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics of the last line."""
    name = result["workload"]
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    work = result["work"]
    print(f"workload {name}: {work['queries_per_pass']} queries per pass, {result['passes']} passes, "
          "one client, closed loop")
    print(f"work {name} queries_by_kind " + json.dumps(work["queries_by_kind"], sort_keys=True))
    print(f"work {name} max_answer_bits {work['max_answer_bits']}")
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    if trace:
        for key, (value, unit) in result["per_layer"].items():
            print(f"layer {name} {key} {value:.6g} {unit}")
        if result["missing"]:
            print(f"note: not found in treewalks, reported as zero: {', '.join(result['missing'])}")
        print(f"spans of the last traced pass written to {result['spans']}")
    else:
        for key, (value, unit) in result["end_to_end"].items():
            extra = ""
            if key == "query_tail_ms":
                t = result["tail"]
                extra = f"  (p{t['percentile']} of {t['samples']} samples, {t['beyond']} beyond it)"
            print(f"metric {name} {key} {value:.6g} {unit}{extra}")
        wall = result["wall"]
        print(f"unscaled {name}: setup {wall['setup_s']:.6g} s, job {wall['job_s']:.6g} s of wall time; "
              f"reference loop {wall['reference_loop_ms']:.4g} ms against "
              f"{1000 * calibrate.REFERENCE_S:.4g} ms at the reference speed")
    chosen = result["per_layer"] if trace else {
        k: v for k, v in result["end_to_end"].items() if k in END_TO_END}
    return {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "treewalks" / "__init__.py").is_file():
        print(f"error: no treewalks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = _report(result, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
