#!/usr/bin/env python3
"""Run parent/change perfbench pairs and judge them by the acceptance rule.

    scripts/perf_pairs.py --parent ../parent --change . --seeds 101-110 \\
        --out PERF_pr<N>.jsonl
    scripts/perf_pairs.py --report PERF_pr<N>.jsonl
    scripts/perf_pairs.py --selftest

Runs `python3 perfbench/run.py --trace 0` for every workload in the repo's
BENCHMARK.json and every seed in both source checkouts, for the run length
BENCHMARK.json sets. For each seed, one side runs every workload first; the
first side alternates from seed to seed. Every result line is appended to
the --out JSONL file with the side, seed, workload, CPU model and core count.

A run is clean when it exited 0, perfbench found it correct and no op
failed. Only clean runs give values. Every seed run on either side is a
pair; a pair without a clean value on both sides is one the change did not
win. For each workload it prints each side's runs, non-clean runs and
failed ops, then for each end-to-end metric both sides' median and
quartiles, how many pairs the change won (ties count for neither side),
and a verdict:

  claim holds   the change won at least 9 of 10 pairs, its median is better
                than the parent's by more than the parent's interquartile
                range, and it had no more non-clean runs and no larger share
                of failed ops than the parent
  unresolved    the parent's IQR over its median exceeds the metric's bound,
                and not every change run beats every parent run
  within bound  the change's median is no worse than the parent's by more
                than the metric's bound
  WORSE         otherwise
  no data       a side has no clean value for the metric

Quartiles interpolate linearly between runs (numpy's default). The rule
and bounds are those of BENCHMARK.json; --report judges an existing file
without running anything. The exit status is 1 when any run on either side
is not clean, or any verdict is WORSE, unresolved or no data.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_WIN_SHARE = 0.9
FAILING_VERDICTS = ("WORSE", "unresolved", "no data")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(checkout, workload, seed, seconds):
    """One perfbench invocation; returns its result object (or a failure)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    return result


def run_pairs(args, bench):
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    host = {"cpu": cpu_model(), "cores": os.cpu_count()}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            for workload in (w["name"] for w in bench["workloads"]):
                result = run_one(sides[side], workload, seed,
                                 bench["run_seconds"])
                line = {"side": side, "seed": seed, "workload": workload,
                        **host, **result}
                with open(args.out, "a") as f:
                    f.write(json.dumps(line) + "\n")
                print(f"seed {seed} {side:6s} {workload}: exit "
                      f"{result['returncode']}", flush=True)


def clean(line):
    return (line.get("returncode") == 0 and line.get("correct") is True
            and not int(line.get("failed", 0)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent, change, better, bound, pairs, fails_more):
    """parent/change: {seed: value} of clean runs; pairs: seeds run on either
    side; fails_more: the change had more non-clean runs or a larger share of
    failed ops. Returns (verdict, wins)."""
    if not parent or not change:
        return "no data", 0
    sign = 1 if better == "lower" else -1
    wins = sum(1 for s in set(parent) & set(change)
               if sign * (change[s] - parent[s]) < 0)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_med = statistics.median(change.values())
    iqr = p_q3 - p_q1
    worst_change = max(change.values(), key=lambda v: sign * v)
    best_parent = min(parent.values(), key=lambda v: sign * v)
    separated = sign * (worst_change - best_parent) < 0
    if (not fails_more and wins >= CLAIM_WIN_SHARE * pairs
            and sign * (p_med - c_med) > iqr):
        return "claim holds", wins
    if p_med and iqr / abs(p_med) > bound and not separated:
        return "unresolved", wins
    if sign * (c_med - p_med) <= bound * abs(p_med):
        return "within bound", wins
    return "WORSE", wins


def report(lines, bench):
    """Prints the tables; returns ({(workload, metric): (verdict, wins,
    pairs)}, whether every run on both sides was clean)."""
    hosts = sorted({(l.get("cpu"), l.get("cores")) for l in lines})
    print("hosts: " + "; ".join(f"{c} x{n}" for c, n in hosts))
    verdicts = {}
    all_clean = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [l for l in lines if l["workload"] == workload]
        pairs = len({l["seed"] for l in runs})
        print(f"\n{workload}: {pairs} pairs")
        health = {}
        for side in ("parent", "change"):
            mine = [l for l in runs if l["side"] == side]
            attempted = sum(int(l.get("attempted", 0)) for l in mine)
            failed = sum(int(l.get("failed", 0)) for l in mine)
            missing = pairs - len({l["seed"] for l in mine})
            bad = missing + sum(1 for l in mine if not clean(l))
            health[side] = (bad, failed, attempted)
            all_clean = all_clean and not bad
            print(f"  {side}: {len(mine)} runs, {missing} seeds missing, "
                  f"{bad - missing} runs not clean, "
                  f"{failed} of {attempted} ops failed")
        (p_bad, p_failed, p_att), (c_bad, c_failed, c_att) = (
            health["parent"], health["change"])
        fails_more = c_bad > p_bad or c_failed * p_att > p_failed * c_att
        print(f"  {'metric':20s} {'parent med [q1, q3]':>28s} "
              f"{'change med [q1, q3]':>28s} {'delta':>8s} {'wins':>6s}  verdict")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            values = {"parent": {}, "change": {}}
            for l in runs:
                metric = l.get("metrics", {}).get(name)
                if clean(l) and metric is not None:
                    values[l["side"]][l["seed"]] = metric["value"]
            verdict, wins = judge(values["parent"], values["change"],
                                  spec["better"], spec["bound"], pairs,
                                  fails_more)
            cols = []
            for side in ("parent", "change"):
                if values[side]:
                    q1, med, q3 = quartiles(list(values[side].values()))
                    cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cols.append("n/a")
            delta = "n/a"
            if values["parent"] and values["change"]:
                p_med = statistics.median(values["parent"].values())
                c_med = statistics.median(values["change"].values())
                if p_med:
                    delta = f"{(c_med - p_med) / p_med:+.1%}"
            print(f"  {name:20s} {cols[0]:>28s} {cols[1]:>28s} {delta:>8s} "
                  f"{wins:>2d}/{pairs:<3d}  {verdict}")
            verdicts[(workload, name)] = (verdict, wins, pairs)
    return verdicts, all_clean


def selftest():
    seeds = range(10)
    steady = {s: 100.0 + s % 3 for s in seeds}
    # IQR/median 1.8: far wider than the 0.25 bound used below.
    skewed = dict(zip(seeds, [100, 101, 102, 103, 104, 200, 300, 400, 500, 600]))
    faster = {s: 60.0 + s % 3 for s in seeds}
    cases = [
        ("change faster on every pair, far beyond the parent's IQR",
         "claim holds", steady, faster, "lower"),
        ("higher is better, change wins 9 of 10",
         "claim holds", steady,
         {s: (150.0 if s else 99.0) + s % 3 for s in seeds}, "higher"),
        ("8 of 10 wins is no claim",
         "within bound", steady,
         {s: (99.0 if s < 8 else 103.0) + s % 3 for s in seeds}, "lower"),
        ("identical values: ties count for neither side",
         "within bound", steady, dict(steady), "lower"),
        ("tight runs, change 50% slower",
         "WORSE", steady, {s: 150.0 + s % 3 for s in seeds}, "lower"),
        ("parent too spread to tell, runs overlap",
         "unresolved", skewed, {s: v - 5.0 for s, v in skewed.items()}, "lower"),
        ("parent too spread, but every change run beats every parent run",
         "within bound", skewed, {s: 90.0 + s for s in seeds}, "lower"),
    ]
    failures = 0
    for name, want, parent, change, better in cases:
        got, wins = judge(parent, change, better, 0.25, len(seeds), False)
        failures += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: want {want!r}, "
              f"got {got!r} ({wins}/{len(seeds)} wins)")

    # The same rule applied to result lines, as --report reads them.
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "m", "better": "lower", "bound": 0.25}]}

    def line(side, seed, value, returncode=0, failed=0):
        # perfbench exits 1 with its metrics when ops fail, and a crashed
        # run prints no result, which run_one() records without metrics.
        crashed = returncode not in (0, 1)
        return {"side": side, "seed": seed, "workload": "w",
                "returncode": returncode, "correct": not (returncode or failed),
                "attempted": 0 if crashed else 1000, "failed": failed,
                "metrics": {} if crashed else {"m": {"value": value}}}

    parent_lines = [line("parent", s, v) for s, v in steady.items()]
    line_cases = [
        ("clean runs, change faster on every pair", "claim holds", 10, True,
         [line("change", s, v) for s, v in faster.items()]),
        ("change crashes on 2 of 10 seeds: those pairs are lost",
         "within bound", 8, False,
         [line("change", s, v, returncode=-9 if s < 2 else 0)
          for s, v in faster.items()]),
        ("change fails ops on 1 of 10 seeds: 9/10 wins, claim withheld",
         "within bound", 9, False,
         [line("change", s, v, returncode=1 if s == 0 else 0,
               failed=3 if s == 0 else 0) for s, v in faster.items()]),
        ("change never ran seed 9: a lost pair, claim withheld",
         "within bound", 9, False,
         [line("change", s, v) for s, v in faster.items() if s != 9]),
    ]
    for name, want, want_wins, want_clean, change_lines in line_cases:
        with contextlib.redirect_stdout(io.StringIO()):
            verdicts, all_clean = report(parent_lines + change_lines, bench)
        got, wins, pairs = verdicts[("w", "m")]
        ok = (got, wins, pairs, all_clean) == (want, want_wins, 10, want_clean)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: want {want!r} "
              f"{want_wins}/10 wins, all clean {want_clean}; got {got!r} "
              f"{wins}/{pairs} wins, all clean {all_clean}")
    print("selftest " + ("passed" if not failures else f"failed ({failures})"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--parent", help="parent source checkout")
    parser.add_argument("--change", help="changed source checkout")
    parser.add_argument("--seeds", help="e.g. 101-110 or 5,7,9")
    parser.add_argument("--out", help="JSONL file the results append to")
    parser.add_argument("--report", help="judge this JSONL file only")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    bench = load_benchmark()
    if not args.report:
        if not (args.parent and args.change and args.seeds and args.out):
            parser.error("--parent, --change, --seeds and --out are required")
        run_pairs(args, bench)
    with open(args.report or args.out) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    verdicts, all_clean = report(lines, bench)
    failing = any(v in FAILING_VERDICTS for v, _, _ in verdicts.values())
    return 1 if failing or not all_clean else 0


if __name__ == "__main__":
    sys.exit(main())
