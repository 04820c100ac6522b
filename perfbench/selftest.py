"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

1. Runs every workload untraced and traced at tiny sizes and checks that
   every metric named in BENCHMARK.json is printed with its unit, that
   the final JSON line carries exactly those metrics, and that every
   answer was correct.
2. Feeds the checker a wrong expected value (the reference shifted by
   one) and checks that the run counts failures and reports
   ``correct: false``.  The program itself is not touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import reference
import run
import workloads


class SelfTestError(AssertionError):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def _report(result: dict, trace: bool) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        metrics = run._report(result, trace)
    return buf.getvalue().splitlines(), metrics


def check_metrics_printed(spec: dict) -> None:
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run.run_workload(name, run.DEFAULT_SEED, 0, trace, tiny=True)
            _expect(result["failed"] == 0, f"{name}: tiny run failed: {result['failures']}")
            lines, metrics = _report(result, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                prefix = f"{'layer' if trace else 'metric'} {name} {m['name']} "
                printed = [line for line in lines if line.startswith(prefix)]
                _expect(len(printed) == 1, f"{name}: {m['name']} not printed once")
                _expect(printed[0].split()[4] == m["unit"], f"{name}: {m['name']} unit")
                _expect(metrics[m["name"]]["unit"] == m["unit"], f"{name}: {m['name']} JSON unit")
            _expect(set(metrics) == {m["name"] for m in wanted}, f"{name}: extra JSON metrics")
            if not trace:
                _expect(any(line.startswith(f"metric {name} fail_ratio 0 ratio") for line in lines),
                        f"{name}: fail_ratio not printed")
            print(f"ok  {name} trace={int(trace)}: {len(wanted)} metrics printed with units")


def check_wrong_expected_counts_as_failure() -> None:
    right = reference.expected

    def off_by_one(query):
        answer = right(query)
        if isinstance(answer, dict):
            return {k: v + 1 for k, v in answer.items()}
        return answer

    reference.expected = off_by_one
    try:
        result = run.run_workload("routes", run.DEFAULT_SEED, 0, False, tiny=True)
    finally:
        reference.expected = right
    _expect(result["failed"] == result["attempted"] > 0,
            f"wrong expected values gave {result['failed']} failures of {result['attempted']}")
    lines, _ = _report(result, False)
    _expect(any(line.startswith("FAIL ") for line in lines), "failures not printed")
    print(f"ok  wrong expected values: {result['failed']} of {result['attempted']} counted as failed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        check_metrics_printed(spec)
        check_wrong_expected_counts_as_failure()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
