"""Smoke test of the benchmark itself, at 2,000 records.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it checks that

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` with
  its unit, and ``--trace 1`` every per-layer metric with its unit;
* a deliberately wrong oracle answer (``--fault-oracle``) fails the run:
  ``"correct": false`` and a non-zero exit;
* the open-loop sender of ``query_read`` reports ``client.lag_p99_ms``.

Exits 0 when every check holds; prints each failure and exits 1 otherwise.
Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

RECORDS = 2_000
SECONDS = 2


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(SECONDS), "--trace", str(trace),
         "--records", str(RECORDS), *extra],
        capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return completed.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return completed.returncode, None


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
        print(("ok   " if condition else "FAIL ") + message, flush=True)

    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} --trace {trace} runs and passes its gates")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} --trace {trace} result has exactly the four keys")
            metrics = result["metrics"]
            expected = {entry["name"]: entry["unit"] for entry in spec[section]}
            check(set(metrics) == set(expected),
                  f"{workload} --trace {trace} names every {section} metric")
            check(all(metrics.get(name, {}).get("unit") == unit
                      for name, unit in expected.items()),
                  f"{workload} --trace {trace} gives every metric its unit")
            check(all(math.isfinite(m["value"]) for m in metrics.values()),
                  f"{workload} --trace {trace} values are finite numbers")
            if workload == "query_read" and trace == 1:
                lag = metrics.get("client.lag_p99_ms", {}).get("value")
                check(lag is not None and lag > 0,
                      "query_read open-loop sender reports client.lag_p99_ms")
        code, result = run(workload, 0, "--fault-oracle")
        check(code != 0 and result is not None and result["correct"] is False,
              f"{workload} wrong oracle answer trips the correctness gate")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
