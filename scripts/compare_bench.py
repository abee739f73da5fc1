#!/usr/bin/env python3
"""Compare two bench JSON baselines (scripts/run_bench.sh output).

    scripts/compare_bench.py BENCH_seed.json BENCH_pr2.json
    scripts/compare_bench.py base.json new.json --threshold 0.20 \
        --watch 'fig7a:*' --watch 'fig7b:p2-*'

Rows are matched on (bench, series, x_name, x). The exit code is non-zero
when any *watched* row regresses (its value grows) by more than --threshold,
or when a watched base row disappeared. Only rows with machine-comparable
units are watched: simulated latencies ("us", "ns") and dimensionless
ratios ("x"). Wall-clock and size rows ("us_wall", "kb") are machine- or
feature-dependent and reported informationally.

Default watch list: every figure bench ("fig*:*"). Its "x" rows are
fig_batched_read's batched-over-serial ratios and fig_read_cache's
warm-over-uncached and sim-warm-4t-over-1t ratios. micro_* benches measure
real time and are never watched by default. Nor is group_commit:amortization
(bench/fig_group_commit.cc's sync-8t over nosync-8t time): its bench name is
"group_commit", not "fig_*", and it times real fsyncs on a shared disk, so
quick runs of one tree read 1.21-2.21, too wide a spread for a 20% gate.

    scripts/compare_bench.py BENCH_pr25.json BENCH_pr26.json --exact \
        --allow 'fig7a:p2-mmap' --allow 'ablation:a3-write-*'

--exact also gates the deterministic rows: simulated latencies ("us"),
sizes ("kb", "mib", "bytes") and simulated throughput ("kops_s"). Two runs
of one tree agree on them byte for byte, so every such row present in both
files must be identical unless it matches an --allow bench:series glob (a
deliberate cost change), and an allowed row may only move in its better
direction: down, or up for "kops_s". The mode prints how many rows were
identical, allowed and moved, or in violation.
"""
import argparse
import fnmatch
import json
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "elsm-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    rows = {}
    for row in doc.get("rows", []):
        key = (row["bench"], row["series"], row.get("x_name", ""), row["x"])
        rows[key] = row
    return doc, rows


EXACT_UNITS = ("us", "kb", "mib", "bytes", "kops_s")
HIGHER_IS_BETTER = ("kops_s",)


def exact_check(base, new, allow):
    """Counts (identical, allowed_moved, violations) over EXACT_UNITS rows."""
    identical, allowed, violations = 0, [], []
    for key, row in sorted(base.items()):
        if row.get("unit") not in EXACT_UNITS or key not in new:
            continue
        b, n = row["value"], new[key]["value"]
        if b == n:
            identical += 1
            continue
        name = f"{key[0]}:{key[1]}"
        better = n > b if row["unit"] in HIGHER_IS_BETTER else n < b
        if better and any(fnmatch.fnmatch(name, pat) for pat in allow):
            allowed.append((key, b, n))
        else:
            violations.append((key, b, n))
    return identical, allowed, violations


def watched(key, row, patterns):
    if row.get("unit") not in ("us", "ns", "x"):
        return False
    name = f"{key[0]}:{key[1]}"
    return any(fnmatch.fnmatch(name, pat) for pat in patterns)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max allowed relative increase of a watched row")
    parser.add_argument("--watch", action="append", default=[],
                        help="bench:series glob to gate on (repeatable); "
                             "default: 'fig*:*'")
    parser.add_argument("--top", type=int, default=40,
                        help="how many largest deltas to print")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a watched base row is gone")
    parser.add_argument("--exact", action="store_true",
                        help="also require deterministic rows (units "
                             + ", ".join(EXACT_UNITS) + ") to be identical")
    parser.add_argument("--allow", action="append", default=[],
                        help="with --exact: bench:series glob whose rows may "
                             "move in their better direction (repeatable)")
    args = parser.parse_args()
    patterns = args.watch or ["fig*:*"]

    base_doc, base = load_rows(args.base)
    new_doc, new = load_rows(args.new)
    if base_doc.get("quick") != new_doc.get("quick"):
        print(f"WARNING: quick-mode mismatch (base quick={base_doc.get('quick')}, "
              f"new quick={new_doc.get('quick')}): values are not comparable")

    deltas = []           # (rel_delta, key, base_value, new_value, is_watched)
    regressions = []
    missing = []
    for key, row in sorted(base.items()):
        gate = watched(key, row, patterns)
        if key not in new:
            if gate:
                missing.append(key)
            continue
        b, n = row["value"], new[key]["value"]
        rel = (n - b) / b if b else float("inf") if n else 0.0
        deltas.append((rel, key, b, n, gate))
        if gate and rel > args.threshold:
            regressions.append((rel, key, b, n))
    added = [k for k in new if k not in base]

    label = lambda k: f"{k[0]}:{k[1]} @{k[2]}={k[3]:g}"
    print(f"compared {len(deltas)} rows "
          f"({base_doc.get('label')} -> {new_doc.get('label')}); "
          f"{len(added)} new, {len(missing)} watched-missing, "
          f"threshold {args.threshold:.0%}")
    print(f"{'delta':>8}  {'base':>12}  {'new':>12}  row")
    for rel, key, b, n, gate in sorted(deltas, key=lambda d: -abs(d[0]))[:args.top]:
        flag = " <-- REGRESSION" if gate and rel > args.threshold else ""
        mark = "*" if gate else " "
        print(f"{rel:>+7.1%}{mark} {b:>12.4g}  {n:>12.4g}  {label(key)}{flag}")
    if added:
        print("new rows: " + ", ".join(sorted(label(k) for k in added)[:20]))
    for key in missing:
        print(f"MISSING watched row: {label(key)}")

    failed = bool(regressions) or (bool(missing) and not args.allow_missing)
    if args.exact:
        identical, allowed, violations = exact_check(base, new, args.allow)
        for key, b, n in allowed:
            print(f"allowed  {(n - b) / b:>+8.3%}  {b:>12.6g}  {n:>12.6g}  "
                  f"{label(key)}")
        for key, b, n in violations:
            rel = f"{(n - b) / b:>+8.3%}" if b else f"{'new':>8}"
            print(f"VIOLATION {rel}  {b:>12.6g}  {n:>12.6g}  {label(key)}")
        print(f"exact: {identical} identical, {len(allowed)} allowed and "
              f"moved, {len(violations)} violating "
              f"(units {', '.join(EXACT_UNITS)})")
        if violations:
            print(f"FAIL: {len(violations)} deterministic row(s) changed "
                  "outside the allow-list or in their worse direction")
            failed = True
    if regressions:
        print(f"FAIL: {len(regressions)} watched row(s) regressed "
              f"> {args.threshold:.0%}")
    elif missing and not args.allow_missing:
        print(f"FAIL: {len(missing)} watched base row(s) missing")
    else:
        print("OK: no watched regression")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
