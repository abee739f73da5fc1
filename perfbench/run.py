#!/usr/bin/env python3
"""End-to-end benchmark of the eLSM authenticated key-value store.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload read-hot-zipf --seed 1 --seconds 5 --trace 0

Builds perfbench/ (and the store library with it) under .bench_build/,
runs one workload against the eLSM-P2 store on PosixFs, checks every
result against a model of what was written, prints a table of all
metrics, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. setup_s is the median of three
set-ups that run at the same time, each in its own process on its own
store directory; the timed phase of one of them starts after the other
two have exited.
--trace 1 reports the per-layer metrics from a traced run and writes its
spans to .bench_out/<workload>.spans.csv.

Exit status is 0 only when every op passed the oracle, every metric was
measured and the workload's defining property held.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)

WORKLOADS = ("read-hot-zipf", "update-heavy-uniform", "scan-zipf")

# name -> unit, for the result line (trace 0).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "sim_us_per_op": "us",
    "proof_bytes_per_op": "B",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}

# Printed in the table only: per-op-type latencies exist only on workloads
# that issue that op type, and failed_ops_frac is 0 on a passing run.
TABLE_ONLY = {
    "get_p50_us": "us",
    "get_p99_us": "us",
    "put_p50_us": "us",
    "put_p99_us": "us",
    "scan_p50_us": "us",
    "scan_p99_us": "us",
    "failed_ops_frac": "ratio",
}

# name -> unit, for the result line (trace 1).
PER_LAYER = {
    "storage.read_calls_per_op": "count",
    "storage.read_us_per_op": "us",
    "storage.multiread_width": "count",
    "storage.sync_us_per_put": "us",
    "storage.wal_append_us_per_put": "us",
    "storage.write_us_per_put": "us",
    "storage.write_amp": "ratio",
    "storage.read_cache_hit_ratio": "ratio",
    "storage.read_cache_evictions_per_op": "count",
    "lsm.readahead_hit_ratio": "ratio",
    "lsm.flushes_per_kput": "count",
    "lsm.compaction_bytes_in_per_user_byte": "ratio",
    "lsm.flush_stall_us_per_put": "us",
    "lsm.levels": "count",
    "auth.path_cache_hit_ratio": "ratio",
    "auth.path_nodes_hashed_per_get": "count",
    "crypto.bytes_hashed_per_op": "B",
    "crypto.bytes_hashed_per_loaded_byte": "ratio",
    "sgxsim.ecalls_per_op": "count",
    "sgxsim.ocalls_per_op": "count",
    "sgxsim.epc_faults_per_op": "count",
    "sgxsim.bytes_copied_per_op": "B",
    "elsm.get_us": "us",
    "elsm.put_us": "us",
    "elsm.scan_us": "us",
    "elsm.get_self_us": "us",
    "elsm.put_self_us": "us",
    "elsm.scan_self_us": "us",
    "trace.overhead_frac": "ratio",
}

SETUPS = 3
# Every process of one invocation must be done within this many seconds.
BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("store sources not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


class Driver:
    """One driver process on its own fresh store directory."""

    def __init__(self, binary, args, store_dir, hold=False):
        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        self.proc = subprocess.Popen(
            [binary, "--dir", store_dir] + args + (["--hold"] if hold else []),
            stdin=subprocess.PIPE if hold else subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)

    def release(self):
        """Lets a --hold driver start its timed phase."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def result(self, deadline):
        """Waits for the process, removes its store, returns its JSON."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"driver exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py); the benchmark never sets them.
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink record counts and the read cache")
    parser.add_argument("--corrupt-at", type=float, default=-1.0,
                        help="flip one SSTable byte this far into the run")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    deadline = time.monotonic() + BUDGET_S

    tmp_root = os.path.abspath(".bench_tmp")
    out_root = os.path.abspath(".bench_out")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--scale", str(args.scale)]
    if args.scale < 1.0:
        # Tiny stores cannot hold the full-size workload properties.
        common += ["--check-properties", "0"]

    drivers = []
    try:
        setups = []
        extra_attempted = extra_failed = 0
        if args.trace:
            spans = os.path.join(out_root, f"{args.workload}.spans.csv")
            drivers.append(Driver(binary, common + ["--trace", "1", "--spans", spans],
                                  os.path.join(tmp_root, tag)))
            main_run = drivers[0].result(deadline)
            log(f"perfbench: spans written to {spans}")
        else:
            # All set-ups run at once, each in its own process and store
            # directory; the timed phase starts once the others are gone.
            extra = ["--corrupt-at", str(args.corrupt_at)] if args.corrupt_at >= 0 else []
            main_driver = Driver(binary, common + extra,
                                 os.path.join(tmp_root, tag), hold=True)
            drivers.append(main_driver)
            for i in range(SETUPS - 1):
                drivers.append(Driver(binary, common + ["--setup-only"],
                                      os.path.join(tmp_root, f"{tag}-setup{i}")))
            for d in drivers[1:]:
                r = d.result(deadline)
                setups.append(r["setup_s"])
                extra_attempted += int(r["attempted"])
                extra_failed += int(r["failed"])
            main_driver.release()
            main_run = main_driver.result(deadline)
            setups.append(main_run["setup_s"])
    except (RuntimeError, ValueError, KeyError, IndexError, OSError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: run failed: {e}")
        return 1
    finally:
        for d in drivers:
            d.stop()

    attempted = int(main_run["attempted"]) + extra_attempted
    failed = int(main_run["failed"]) + extra_failed
    measured = dict(main_run["layer"] if args.trace else main_run["e2e"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    wanted = PER_LAYER if args.trace else END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed {main_run['timed_s']:.2f} s  ops {int(main_run['ops'])}  "
          f"samples {main_run['samples']}")
    if setups:
        print("setup_s runs: " + ", ".join(f"{s:.3f}" for s in setups))
    table = dict(wanted)
    if not args.trace:
        table.update(TABLE_ONLY)
    for name, unit in table.items():
        print(f"  {name:40s} {fmt(measured.get(name, 'n/a')):>14s} {unit}")

    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} ops failed; first: "
                        f"{main_run.get('first_error', '')}")
    problems += [f"workload property violated: {v}" for v in main_run["violations"]]
    missing = [name for name in wanted if name not in measured]
    if missing:
        problems.append("not measured: " + ", ".join(missing))
    for p in problems:
        log(f"perfbench: {p}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in wanted.items() if name in measured},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
