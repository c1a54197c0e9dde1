"""Tiny-size smoke test of the benchmark.

    python3 bench/smoke.py

Runs every workload named in BENCHMARK.json on tiny inputs, untraced and
traced, and checks that the result line has exactly the contract's keys,
that every output check passed, and that every end-to-end (untraced) or
per-layer (traced) metric BENCHMARK.json names is emitted with its unit.
Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True and result["failed"] == 0, label
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], f"{label}: metrics differ: " + str(
                set(got.items()) ^ set(expected[trace].items()))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name}"
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
