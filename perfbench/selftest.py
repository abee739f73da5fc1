#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload run.py offers it runs perfbench/run.py on a store
shrunk to a few thousand records, once untraced and once traced, and
checks that the run passes and that every metric BENCHMARK.json names is
emitted with its unit (and that the traced run wrote a span file). It
then flips one byte of an SSTable in the middle of a read-only run and
checks that the damaged reads are counted as failed ops: the run must
finish, report failed > 0 and correct = false, and exit non-zero.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench_run  # noqa: E402  (perfbench/run.py)

SCALE = "0.05"
SECONDS = "2"


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, spec, label):
    errors = []
    for metric in spec:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{label}: {metric['name']} not emitted")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{label}: {metric['name']} has unit {got['unit']}, "
                          f"BENCHMARK.json says {metric['unit']}")
        elif not isinstance(got["value"], (int, float)):
            errors.append(f"{label}: {metric['name']} is not a number")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = []
    # Also the workloads run.py offers beyond BENCHMARK.json's.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in bench_run.WORKLOADS if w not in workloads]
    for workload in workloads:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} trace {trace}"
            code, result, stderr = run(workload, trace)
            if code != 0 or result is None or not result["correct"]:
                errors.append(f"{label}: run failed (exit {code}): {stderr[-500:]}")
                continue
            errors += check_metrics(result, spec, label)
            if trace and not os.path.isfile(
                    os.path.join(".bench_out", f"{workload}.spans.csv")):
                errors.append(f"{label}: no span file")
            print(f"ok   {label}: {result['attempted']} ops", flush=True)

    # A flipped byte must surface as failed ops, not as a crash or a pass.
    code, result, stderr = run("read-hot-zipf", 0, "--corrupt-at", "0.5")
    label = "read-hot-zipf corrupted"
    if result is None:
        errors.append(f"{label}: no result line (exit {code}): {stderr[-500:]}")
    elif code == 0 or result["correct"] or result["failed"] == 0:
        errors.append(f"{label}: corruption went unnoticed: exit {code}, "
                      f"failed {result['failed']}")
    elif result["failed"] >= result["attempted"]:
        errors.append(f"{label}: every op failed, not only the damaged block's")
    else:
        print(f"ok   {label}: {result['failed']} of {result['attempted']} "
              "ops failed", flush=True)

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
