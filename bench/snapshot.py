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

Compare mode runs the binary and checks the fresh medians against a
committed snapshot instead of writing anything; it exits nonzero when
any benchmark regressed by more than --max-regression (CI's
bench-smoke-compare job runs this as a soft gate):

    bench/snapshot.py --binary build/bench/micro_ops \\
        --compare-vs pr3_after --max-regression 0.25

--metrics-jsonl ingests a PRORAM_METRICS_FILE dump (one
proram-metrics-v1 JSON object per line) and attaches a per-scheme
summary to the snapshot entry.

--scheme {path,ring} tags the snapshot with the ORAM protocol it ran
(and exports PRORAM_SCHEME to the benchmark subprocesses, so the tag
is always what actually executed). Compare and --speedup-vs refuse a
base label taken under a different scheme: cross-protocol ratios are
design differences, not regressions. Entries predating the tag count
as "path".

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


def compare(base_micro, micro, max_regression):
    """Per-benchmark new/base ratios. Returns (rows, regressed) where
    rows are (name, base, new, ratio) for benchmarks present in both."""
    rows = []
    regressed = []
    for name in sorted(micro):
        if name not in base_micro or base_micro[name] <= 0:
            continue
        ratio = micro[name] / base_micro[name]
        rows.append((name, base_micro[name], micro[name], ratio))
        if ratio > 1.0 + max_regression:
            regressed.append(name)
    return rows, regressed


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
    ap.add_argument("--compare-vs",
                    help="compare a fresh run against this snapshot "
                         "label instead of recording (exits 1 on "
                         "regression)")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional slowdown per benchmark "
                         "in compare mode (default 0.25)")
    ap.add_argument("--metrics-jsonl",
                    help="PRORAM_METRICS_FILE dump to summarize into "
                         "the snapshot entry")
    ap.add_argument("--scheme", default="path",
                    choices=("path", "ring"),
                    help="ORAM protocol to run and tag the snapshot "
                         "with (exports PRORAM_SCHEME; default path). "
                         "Compare mode refuses a base snapshot taken "
                         "under a different scheme.")
    args = ap.parse_args()

    if not args.compare_vs and not args.label:
        ap.error("--label is required unless --compare-vs is given")
    if args.compare_vs and args.label:
        ap.error("--label and --compare-vs are mutually exclusive")
    if args.label and not args.description:
        ap.error("--description is required with --label")

    path = pathlib.Path(args.json)
    doc = json.loads(path.read_text())
    snapshots = doc.setdefault("snapshots", [])
    by_label = {s["label"]: s for s in snapshots}

    if args.compare_vs:
        if args.compare_vs not in by_label:
            sys.exit(f"error: --compare-vs label '{args.compare_vs}' "
                     f"not found in {path}")
        # A ratio between protocols is not a regression signal: Ring
        # bills different bucket traffic by design, so mixed-scheme
        # comparisons are an error, never a silent pass. Snapshots
        # predating the scheme tag were all taken under Path ORAM.
        base_scheme = by_label[args.compare_vs].get("scheme", "path")
        if base_scheme != args.scheme:
            sys.exit(f"error: --compare-vs label '{args.compare_vs}' "
                     f"was taken under scheme '{base_scheme}' but this "
                     f"run uses '--scheme {args.scheme}'; compare "
                     f"same-scheme snapshots only")
        base_micro = by_label[args.compare_vs].get("micro_ops", {})
        report = run_benchmarks(args.binary, args.repetitions,
                                args.min_time, args.filter,
                                scheme=args.scheme)
        micro = medians(report)
        if not micro:
            sys.exit("error: benchmark run produced no results")
        rows, regressed = compare(base_micro, micro,
                                  args.max_regression)
        if not rows:
            sys.exit(f"error: no benchmarks in common with "
                     f"'{args.compare_vs}'")
        print(f"compare vs '{args.compare_vs}' "
              f"(max regression {args.max_regression:.0%}):")
        for name, base, new, ratio in rows:
            flag = "  REGRESSED" if name in regressed else ""
            print(f"  {name}: {base} -> {new} "
                  f"({ratio:.2f}x){flag}")
        if regressed:
            print(f"{len(regressed)} benchmark(s) regressed more "
                  f"than {args.max_regression:.0%}")
            sys.exit(1)
        print("no regressions beyond threshold")
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

    if existing is not None:
        snapshots[snapshots.index(existing)] = entry
        verb = "replaced"
    else:
        snapshots.append(entry)
        verb = "appended"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{verb} '{args.label}' ({len(micro)} benchmarks) "
          f"in {path}")
    for name, val in micro.items():
        print(f"  {name}: {val}")


if __name__ == "__main__":
    main()
