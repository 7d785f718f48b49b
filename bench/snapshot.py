#!/usr/bin/env python3
"""Record and compare micro_ops snapshots in BENCH_micro_ops.json.

Snapshot mode runs the micro_ops google-benchmark binary with
repetitions, takes the per-benchmark median of real_time, and appends
a correctly-keyed entry to the snapshots list:

    bench/snapshot.py --binary build/bench/micro_ops \\
        --label pr3_after \\
        --description "SIMD eviction scan + batched drive loop" \\
        --speedup-vs pr3_before

A duplicate label is an error unless --force is given, in which case
the existing entry is replaced in place (its position is kept so
diffs stay readable).

Paired mode (--base-binary) measures a change against its parent in
one session instead of against a snapshot recorded at another time:
the two binaries run alternately for ROUNDS (4) rounds (the order flips
every round), each round's per-benchmark median is paired with the
other binary's from the same round, and a row reports both medians,
the median of the per-round time ratios and the rounds the change won.
Host drift between rounds hits both sides of a pair, so the ratio
carries much less of it than two separately recorded snapshots do.
With --label X it records X_before (the base binary) and X_after (the
change, with its paired speedups and win counts):

    bench/snapshot.py --binary build/bench/micro_ops \\
        --base-binary ../parent/build/bench/micro_ops \\
        --label pr15 --description "..."

Without --label it is the compare mode: it writes nothing and exits
nonzero when any benchmark's paired median ratio exceeds
1 + --max-regression (CI's bench-smoke-compare job runs this as a
soft gate against a build of the merge base):

    bench/snapshot.py --binary build/bench/micro_ops \\
        --base-binary ../base/build/bench/micro_ops --max-regression 0.25

Only benchmarks both binaries run are paired.

--metrics-jsonl ingests a PRORAM_METRICS_FILE dump (one
proram-metrics-v1 JSON object per line) and attaches a per-scheme
summary to the snapshot entry.

--scheme {path,ring} tags the snapshot with the ORAM protocol it ran
(and exports PRORAM_SCHEME to the benchmark subprocesses, so the tag
is always what actually executed). --speedup-vs refuses a base label
taken under a different scheme: cross-protocol ratios are design
differences, not regressions. Entries predating the tag count as
"path".

Only stdlib; safe to run on any host with the repo built. The JSON
file is rewritten with 2-space indentation (matching the committed
style) and a trailing newline.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

try:
    import resource
except ImportError:  # non-POSIX host: skip the peak-RSS sample
    resource = None

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_micro_ops.json"
METRICS_SCHEMA = "proram-metrics-v1"

# User counters the arena benchmarks export (micro_ops.cc); folded
# into the snapshot's memory section when present.
MEMORY_COUNTERS = ("arenaBytesResident", "chunksMaterialized")

# Paired mode: alternating rounds per binary.
ROUNDS = 4


def run_benchmarks(binary, repetitions, min_time, bench_filter,
                   scheme=None):
    cmd = [
        str(binary),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=true",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    env = dict(os.environ)
    if scheme:
        # The binaries resolve $PRORAM_SCHEME through OramConfig, so
        # the tag recorded in the snapshot is also what actually ran.
        env["PRORAM_SCHEME"] = scheme
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         env=env)
    return json.loads(out.stdout)


def medians(report):
    """Median real_time per benchmark, keyed like the committed file
    (e.g. 'BM_ControllerAccess/2'). Prefers the _median aggregate the
    binary already computed; falls back to collecting repetitions."""
    agg = {}
    raw = {}
    for row in report.get("benchmarks", []):
        name = row["name"]
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                agg[name.removesuffix("_median")] = row["real_time"]
        else:
            raw.setdefault(name, []).append(row["real_time"])
    if agg:
        return {k: round(v, 1) for k, v in sorted(agg.items())}
    return {
        k: round(statistics.median(v), 1) for k, v in sorted(raw.items())
    }


def memory_counters(report):
    """Per-benchmark MEMORY_COUNTERS values, keyed like medians().
    Prefers the _median aggregate rows; counter values are identical
    across repetitions (they report end-state, not time)."""
    out = {}
    for row in report.get("benchmarks", []):
        if (row.get("run_type") == "aggregate"
                and row.get("aggregate_name") != "median"):
            continue
        vals = {c: row[c] for c in MEMORY_COUNTERS if c in row}
        if vals:
            out.setdefault(row["name"].removesuffix("_median"), vals)
    return out


def peak_rss_children_bytes():
    """Peak resident set of finished child processes (the benchmark
    binary), in bytes. 0 where getrusage is unavailable."""
    if resource is None:
        return 0
    # Linux reports ru_maxrss in kilobytes.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024


def summarize_metrics(jsonl_path):
    """Fold a PRORAM_METRICS_FILE JSONL into a compact per-scheme
    summary: run count plus the mean of each histogram's mean."""
    runs = 0
    schemes = {}
    for line in pathlib.Path(jsonl_path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if doc.get("schema") != METRICS_SCHEMA:
            sys.exit(f"error: {jsonl_path}: expected schema "
                     f"'{METRICS_SCHEMA}', got '{doc.get('schema')}'")
        runs += 1
        entry = schemes.setdefault(doc.get("scheme", "unknown"),
                                   {"runs": 0, "histMeans": {}})
        entry["runs"] += 1
        for name, hist in doc.get("histograms", {}).items():
            entry["histMeans"].setdefault(name, []).append(hist["mean"])
    for entry in schemes.values():
        entry["histMeans"] = {
            k: round(statistics.mean(v), 2)
            for k, v in sorted(entry["histMeans"].items())
        }
    return {"runs": runs, "schemes": schemes}


def paired_rounds(binary, base_binary, repetitions, min_time,
                  bench_filter, scheme):
    """Run the base and the new binary alternately, flipping which
    goes first every round. Returns (new_rounds, base_rounds): one
    medians() dict per round and side."""
    new_rounds, base_rounds = [], []
    for r in range(ROUNDS):
        order = [(base_binary, base_rounds), (binary, new_rounds)]
        if r % 2:
            order.reverse()
        for path, out in order:
            out.append(medians(run_benchmarks(
                path, repetitions, min_time, bench_filter, scheme=scheme)))
    return new_rounds, base_rounds


def paired_rows(new_rounds, base_rounds):
    """Per benchmark both binaries ran in every round: each side's
    median over the rounds, the median of the per-round new/base time
    ratios, and the rounds in which the new binary was faster."""
    names = set.intersection(
        *(set(r) for r in new_rounds + base_rounds))
    rows = {}
    for name in sorted(names):
        new = [r[name] for r in new_rounds]
        base = [r[name] for r in base_rounds]
        pairs = [(n, b) for n, b in zip(new, base) if b > 0]
        if not pairs:
            continue
        rows[name] = {
            "base": round(statistics.median(base), 1),
            "new": round(statistics.median(new), 1),
            "ratio": round(statistics.median(n / b for n, b in pairs), 3),
            "wins": sum(1 for n, b in pairs if n < b),
        }
    return rows


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--binary", required=True,
                    help="path to the built micro_ops binary")
    ap.add_argument("--label",
                    help="snapshot key, e.g. pr3_after (snapshot mode)")
    ap.add_argument("--description", default="")
    ap.add_argument("--json", default=str(DEFAULT_JSON),
                    help=f"snapshot file (default {DEFAULT_JSON})")
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--min-time", default="0.2")
    ap.add_argument("--filter", default="",
                    help="--benchmark_filter regex passthrough")
    ap.add_argument("--speedup-vs", action="append", default=[],
                    help="existing snapshot label to compute speedups "
                         "against (repeatable)")
    ap.add_argument("--force", action="store_true",
                    help="replace an existing snapshot with the same "
                         "label instead of erroring")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional slowdown per benchmark "
                         "in paired compare mode (default 0.25)")
    ap.add_argument("--metrics-jsonl",
                    help="PRORAM_METRICS_FILE dump to summarize into "
                         "the snapshot entry")
    ap.add_argument("--base-binary",
                    help="paired mode: the parent's micro_ops, run "
                         "alternately with --binary (records "
                         "LABEL_before/LABEL_after with --label, "
                         "compares otherwise)")
    ap.add_argument("--scheme", default="path",
                    choices=("path", "ring"),
                    help="ORAM protocol to run and tag the snapshot "
                         "with (exports PRORAM_SCHEME; default path)")
    args = ap.parse_args()

    if not args.base_binary and not args.label:
        ap.error("--label is required unless --base-binary is given")
    if args.label and not args.description:
        ap.error("--description is required with --label")

    path = pathlib.Path(args.json)
    doc = json.loads(path.read_text())
    snapshots = doc.setdefault("snapshots", [])
    by_label = {s["label"]: s for s in snapshots}

    if args.base_binary:
        paired_main(args, path, doc, snapshots, by_label)
        return

    existing = by_label.get(args.label)
    if existing is not None and not args.force:
        sys.exit(f"error: snapshot '{args.label}' already exists "
                 f"in {path}; pick a new label or pass --force")
    for base in args.speedup_vs:
        if base not in by_label:
            sys.exit(f"error: --speedup-vs label '{base}' not found "
                     f"in {path}")
        if base == args.label:
            sys.exit("error: --speedup-vs cannot reference the "
                     "label being recorded")
        base_scheme = by_label[base].get("scheme", "path")
        if base_scheme != args.scheme:
            sys.exit(f"error: --speedup-vs label '{base}' was taken "
                     f"under scheme '{base_scheme}' but this run uses "
                     f"'--scheme {args.scheme}'; speedups are only "
                     f"meaningful between same-scheme snapshots")

    report = run_benchmarks(args.binary, args.repetitions,
                            args.min_time, args.filter,
                            scheme=args.scheme)
    micro = medians(report)
    if not micro:
        sys.exit("error: benchmark run produced no results")

    # Every snapshot records the host it was taken on instead of
    # trusting the file-level hardcoded host block.
    host_cpus = os.cpu_count() or 1
    entry = {
        "label": args.label,
        "description": args.description,
        "scheme": args.scheme,
        "host": {"cpus": host_cpus},
        "micro_ops": micro,
    }
    if isinstance(doc.get("host"), dict):
        doc["host"]["cpus"] = host_cpus
    speedups = {}
    for base in args.speedup_vs:
        base_micro = by_label[base].get("micro_ops", {})
        common = {
            k: round(base_micro[k] / v, 2)
            for k, v in micro.items()
            if k in base_micro and v > 0
        }
        if common:
            speedups[base] = common
    if speedups:
        entry["speedup_vs"] = speedups
    # Memory section: the benchmark subprocess's peak RSS plus any
    # arena counters the benchmarks exported.
    memory = {"peakRssBytes": peak_rss_children_bytes()}
    counters = memory_counters(report)
    if counters:
        memory["benchCounters"] = counters
    entry["memory"] = memory
    if args.metrics_jsonl:
        entry["metrics"] = summarize_metrics(args.metrics_jsonl)

    verb = put_snapshot(snapshots, by_label, entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{verb} '{args.label}' ({len(micro)} benchmarks) "
          f"in {path}")
    for name, val in micro.items():
        print(f"  {name}: {val}")


def put_snapshot(snapshots, by_label, entry):
    """Replace the same-labelled snapshot in place, or append."""
    existing = by_label.get(entry["label"])
    if existing is not None:
        snapshots[snapshots.index(existing)] = entry
        return "replaced"
    snapshots.append(entry)
    return "appended"


def paired_main(args, path, doc, snapshots, by_label):
    """--base-binary: alternate the two binaries, then either record
    LABEL_before / LABEL_after or gate on the paired ratios."""
    labels = []
    if args.label:
        labels = [args.label + "_before", args.label + "_after"]
        for label in labels:
            if label in by_label and not args.force:
                sys.exit(f"error: snapshot '{label}' already exists "
                         f"in {path}; pick a new label or pass --force")
    new_rounds, base_rounds = paired_rounds(
        args.binary, args.base_binary, args.repetitions, args.min_time,
        args.filter, args.scheme)
    rows = paired_rows(new_rounds, base_rounds)
    if not rows:
        sys.exit("error: the two binaries ran no benchmark in common")
    print(f"paired: {ROUNDS} alternating rounds of "
          f"{args.repetitions} repetition(s) per binary")
    for name, row in rows.items():
        print(f"  {name}: {row['base']} -> {row['new']} "
              f"({row['ratio']:.2f}x, faster in {row['wins']}/{ROUNDS})")

    if not args.label:
        regressed = [name for name, row in rows.items()
                     if row["ratio"] > 1.0 + args.max_regression]
        if regressed:
            print(f"{len(regressed)} benchmark(s) regressed more "
                  f"than {args.max_regression:.0%}: "
                  + ", ".join(regressed))
            sys.exit(1)
        print("no regressions beyond threshold")
        return

    before, after = labels
    host = {"cpus": os.cpu_count() or 1}
    paired = {"rounds": ROUNDS, "repetitions": args.repetitions}
    base_entry = {
        "label": before,
        "description": f"Base binary of the paired session recorded "
                       f"with '{after}'.",
        "scheme": args.scheme,
        "host": host,
        "paired": paired,
        "micro_ops": {n: r["base"] for n, r in rows.items()},
    }
    new_entry = {
        "label": after,
        "description": args.description,
        "scheme": args.scheme,
        "host": host,
        "paired": dict(paired, wins_vs={
            before: {n: r["wins"] for n, r in rows.items()}}),
        "micro_ops": {n: r["new"] for n, r in rows.items()},
        # base/new of the per-round ratios' median, like the
        # unpaired speedup_vs (above 1 = the change is faster).
        "speedup_vs": {
            before: {n: round(1.0 / r["ratio"], 2)
                     for n, r in rows.items() if r["ratio"] > 0}},
    }
    for entry in (base_entry, new_entry):
        verb = put_snapshot(snapshots, by_label, entry)
        by_label[entry["label"]] = entry
        print(f"{verb} '{entry['label']}' in {path}")
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
