"""Unit tests for bench/snapshot.py (duplicate-label handling,
--force replacement, paired record and compare modes, metrics-JSONL
ingestion).

Run via ctest (snapshot_py) or directly:
    python3 -m unittest tests/python/snapshot_test.py
The benchmark binary is stubbed with a script that prints canned
google-benchmark JSON, so the test needs no built tree.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SNAPSHOT_PY = REPO_ROOT / "bench" / "snapshot.py"

FAKE_REPORT = {
    "benchmarks": [
        {
            "name": "BM_Fast_median",
            "run_type": "aggregate",
            "aggregate_name": "median",
            "real_time": 100.0,
        },
        {
            "name": "BM_Slow_median",
            "run_type": "aggregate",
            "aggregate_name": "median",
            "real_time": 2000.0,
        },
    ]
}


class SnapshotToolTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.json_path = self.dir / "bench.json"
        self.binary = self.dir / "fake_micro_ops.py"
        self.write_binary(FAKE_REPORT)
        self.write_doc({
            "unit": "ns_per_iteration",
            "snapshots": [
                {
                    "label": "base",
                    "description": "seed",
                    "micro_ops": {"BM_Fast": 100.0, "BM_Slow": 2000.0},
                },
            ],
        })

    def tearDown(self):
        self.tmp.cleanup()

    def write_binary(self, report):
        self.binary.write_text(
            "#!%s\nimport json\nprint(json.dumps(%r))\n"
            % (sys.executable, report))
        self.binary.chmod(0o755)

    def write_doc(self, doc):
        self.json_path.write_text(json.dumps(doc, indent=2) + "\n")

    def read_doc(self):
        return json.loads(self.json_path.read_text())

    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(SNAPSHOT_PY), "--binary",
             str(self.binary), "--json", str(self.json_path),
             "--repetitions", "1", *args],
            capture_output=True, text=True)

    def test_appends_new_label(self):
        res = self.run_tool("--label", "next", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual([s["label"] for s in snaps], ["base", "next"])
        # Snapshots record the host they were taken on (detected, not
        # the file-level hardcoded block).
        self.assertEqual(snaps[-1]["host"]["cpus"], os.cpu_count() or 1)

    def test_duplicate_label_errors_without_force(self):
        res = self.run_tool("--label", "base", "--description", "d")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("--force", res.stderr)
        # The file must be untouched.
        self.assertEqual(
            self.read_doc()["snapshots"][0]["description"], "seed")

    def test_force_replaces_in_place(self):
        self.run_tool("--label", "tail", "--description", "t")
        res = self.run_tool("--label", "base", "--description",
                            "redone", "--force")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual([s["label"] for s in snaps], ["base", "tail"])
        self.assertEqual(snaps[0]["description"], "redone")

    def test_metrics_jsonl_summary(self):
        jsonl = self.dir / "metrics.jsonl"
        lines = [
            {
                "schema": "proram-metrics-v1",
                "scheme": "oram_dynamic",
                "histograms": {
                    "requestLatency": {"mean": 1000.0},
                },
            },
            {
                "schema": "proram-metrics-v1",
                "scheme": "oram_dynamic",
                "histograms": {
                    "requestLatency": {"mean": 3000.0},
                },
            },
        ]
        jsonl.write_text(
            "\n".join(json.dumps(l) for l in lines) + "\n")
        res = self.run_tool("--label", "m", "--description", "d",
                            "--metrics-jsonl", str(jsonl))
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        metrics = snaps[-1]["metrics"]
        self.assertEqual(metrics["runs"], 2)
        self.assertEqual(
            metrics["schemes"]["oram_dynamic"]["histMeans"]
            ["requestLatency"], 2000.0)

    def test_memory_section_records_rss_and_counters(self):
        report = {
            "benchmarks": [
                {
                    "name": "BM_LargeTreeDrive_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 500.0,
                    "arenaBytesResident": 4096.0,
                    "chunksMaterialized": 2.0,
                },
                {
                    "name": "BM_Fast_median",
                    "run_type": "aggregate",
                    "aggregate_name": "median",
                    "real_time": 100.0,
                },
            ]
        }
        self.write_binary(report)
        res = self.run_tool("--label", "mem", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        memory = self.read_doc()["snapshots"][-1]["memory"]
        self.assertGreaterEqual(memory["peakRssBytes"], 0)
        self.assertEqual(
            memory["benchCounters"]["BM_LargeTreeDrive"],
            {"arenaBytesResident": 4096.0, "chunksMaterialized": 2.0})
        # Benchmarks without counters stay out of the section.
        self.assertNotIn("BM_Fast", memory["benchCounters"])

    def test_snapshot_records_scheme_tag(self):
        res = self.run_tool("--label", "ringy", "--description", "d",
                            "--scheme", "ring")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = self.read_doc()["snapshots"]
        self.assertEqual(snaps[-1]["scheme"], "ring")
        # Default runs are tagged path.
        self.run_tool("--label", "pathy", "--description", "d")
        self.assertEqual(
            self.read_doc()["snapshots"][-1]["scheme"], "path")

    def test_scheme_exported_to_benchmark_env(self):
        # The stub binary echoes $PRORAM_SCHEME as a benchmark name so
        # the test can see what the subprocess actually ran with.
        self.binary.write_text(
            "#!%s\nimport json, os\n"
            "name = 'BM_' + os.environ.get('PRORAM_SCHEME', 'unset')\n"
            "print(json.dumps({'benchmarks': [{'name': name + '_median',"
            " 'run_type': 'aggregate', 'aggregate_name': 'median',"
            " 'real_time': 1.0}]}))\n" % sys.executable)
        self.binary.chmod(0o755)
        res = self.run_tool("--label", "env", "--description", "d",
                            "--scheme", "ring")
        self.assertEqual(res.returncode, 0, res.stderr)
        micro = self.read_doc()["snapshots"][-1]["micro_ops"]
        self.assertIn("BM_ring", micro)

    def test_speedup_vs_refuses_mixed_scheme_labels(self):
        res = self.run_tool("--label", "ringy", "--description", "d",
                            "--scheme", "ring", "--speedup-vs", "base")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("same-scheme", res.stderr)

    def write_stub(self, path, times, log):
        """A stub micro_ops that appends its own name to @p log and
        prints one median row per (name, real_time) in @p times."""
        rows = [{"name": n + "_median", "run_type": "aggregate",
                 "aggregate_name": "median", "real_time": t}
                for n, t in times.items()]
        path.write_text(
            "#!%s\nimport json\n"
            "open(%r, 'a').write(%r + '\\n')\n"
            "print(json.dumps(%r))\n"
            % (sys.executable, str(log), path.name, {"benchmarks": rows}))
        path.chmod(0o755)

    def run_paired(self, base_times, new_times, *args):
        log = self.dir / "order.log"
        base = self.dir / "base_micro"
        self.write_stub(base, base_times, log)
        self.write_stub(self.binary, new_times, log)
        res = self.run_tool("--base-binary", str(base), *args)
        order = log.read_text().split() if log.exists() else []
        return res, order

    def test_paired_alternates_and_flips_the_order(self):
        res, order = self.run_paired({"BM_Fast": 100.0},
                                     {"BM_Fast": 90.0})
        self.assertEqual(res.returncode, 0, res.stderr)
        new, base = self.binary.name, "base_micro"
        self.assertEqual(order, [base, new, new, base, base, new,
                                 new, base])
        self.assertIn("faster in 4/4", res.stdout)
        self.assertIn("no regressions", res.stdout)
        # Compare mode writes nothing.
        self.assertEqual(len(self.read_doc()["snapshots"]), 1)

    def test_paired_compare_fails_on_regression(self):
        res, _ = self.run_paired({"BM_Fast": 100.0, "BM_Slow": 2000.0},
                                 {"BM_Fast": 140.0, "BM_Slow": 2000.0},
                                 "--max-regression", "0.25")
        self.assertEqual(res.returncode, 1)
        self.assertIn("BM_Fast", res.stdout.splitlines()[-1])
        self.assertNotIn("BM_Slow", res.stdout.splitlines()[-1])

    def test_paired_record_writes_before_and_after(self):
        res, _ = self.run_paired(
            {"BM_Fast": 100.0, "BM_Slow": 2000.0, "BM_Gone": 5.0},
            {"BM_Fast": 50.0, "BM_Slow": 2000.0, "BM_New": 7.0},
            "--label", "prx", "--description", "d")
        self.assertEqual(res.returncode, 0, res.stderr)
        snaps = {s["label"]: s for s in self.read_doc()["snapshots"]}
        before, after = snaps["prx_before"], snaps["prx_after"]
        # Only the rows both binaries ran are paired.
        self.assertEqual(before["micro_ops"],
                         {"BM_Fast": 100.0, "BM_Slow": 2000.0})
        self.assertEqual(after["micro_ops"],
                         {"BM_Fast": 50.0, "BM_Slow": 2000.0})
        self.assertEqual(after["speedup_vs"]["prx_before"],
                         {"BM_Fast": 2.0, "BM_Slow": 1.0})
        self.assertEqual(after["paired"]["rounds"], 4)
        self.assertEqual(after["paired"]["wins_vs"]["prx_before"],
                         {"BM_Fast": 4, "BM_Slow": 0})
        self.assertEqual(after["description"], "d")
        self.assertEqual(after["scheme"], "path")
        # Recording the same label again needs --force.
        res, _ = self.run_paired({"BM_Fast": 1.0}, {"BM_Fast": 1.0},
                                 "--label", "prx", "--description", "d")
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("--force", res.stderr)

    def test_metrics_jsonl_rejects_bad_schema(self):
        jsonl = self.dir / "metrics.jsonl"
        jsonl.write_text(json.dumps({"schema": "other"}) + "\n")
        res = self.run_tool("--label", "m", "--description", "d",
                            "--metrics-jsonl", str(jsonl))
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("schema", res.stderr)


if __name__ == "__main__":
    unittest.main()
