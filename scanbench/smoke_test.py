#!/usr/bin/env python3
"""Smoke test of the scan benchmark on tiny corpora.

    python3 scanbench/smoke_test.py

Runs every workload untraced and traced for one second on a tiny corpus and
checks the result line: its keys, that every check passed, and that the
metrics are exactly the ones BENCHMARK.json names, each with a unit.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "scanbench" / "run.py"
WORKLOADS = ["batch_mixed", "guard_stream", "batch_defended"]


def expected_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS), f"BENCHMARK.json workloads {names}"
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def main():
    expected = expected_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"FAIL {label}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], label
            assert result["correct"] is True, label
            assert result["attempted"] >= 1 and result["failed"] == 0, label
            assert list(result["metrics"]) == expected[trace], label
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
                assert metric["unit"], name
            print(f"ok {label}: {result['attempted']} images")
    return 0


if __name__ == "__main__":
    sys.exit(main())
