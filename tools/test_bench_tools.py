#!/usr/bin/env python3
"""Checks for the benchmark post-processing tools (stdlib unittest only).

Covers the two report generators (bench_to_csv, bench_to_markdown) on both
input kinds — bench console text and the `--json` machine format — with
the pruning-effectiveness counters of docs/OBSERVABILITY.md, plus the
trace-overhead cap in check_bench_regression.

Run directly (tools/test_bench_tools.py) or through ctest
(`ctest -R bench_tools_py`).
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS_DIR)

import bench_to_csv  # noqa: E402

CONSOLE_SAMPLE = """\
Run on (8 X 4800 MHz CPU s)
-------------------------------------------------------------------
Benchmark                         Time             CPU   Iterations
-------------------------------------------------------------------
AdvancedBS/k0=10/iterations:1  12.1 ms     12.0 ms     1 avg_io=118 \
avg_ms=6.05 avg_penalty=0.012 cand_eval=31 cand_filtered=12 \
cand_pruned=140 cand_skipped=72 nodes_expanded=1.2k
KcRBased/k0=10/iterations:1    8.4 ms      8.3 ms      1 avg_io=90 \
avg_ms=4.2 avg_penalty=0.012 cand_eval=18 cand_filtered=0 \
cand_pruned=165 cand_skipped=72 nodes_expanded=800
BS/k0=10/iterations:1          80 ms       79 ms       1 avg_io=300 \
avg_ms=40 avg_penalty=0.012 cand_eval=255 cand_filtered=0 \
cand_pruned=0 cand_skipped=0 nodes_expanded=5k
service/mixed/workers:2/iterations:1  17.4 ms  0.38 ms  1 \
cache_hit_rate=0.5 p50_ms=16.384 p99_ms=32.768 qps=4.66718k
service/ingest/merge:on/iterations:1  50.3 ms  7.96 ms  1 \
insert_rate=19.5094k merges=3 p99_ms=32.768
service/ingest/merge:off/iterations:1 17.4 ms  5.52 ms  1 \
insert_rate=41.2772k merges=0 p99_ms=16.384
service/shards/n:1/iterations:1  40.0 ms  1.2 ms  1 \
p50_ms=4.096 p99_ms=8.192 pruned_rate=0 qps=3.2k shards_pruned=0 \
shards_visited=128
service/shards/n:4/iterations:1  25.0 ms  1.1 ms  1 \
p50_ms=2.048 p99_ms=4.096 pruned_rate=0.75 qps=5.12k shards_pruned=384 \
shards_visited=128
service/batch/n:1/iterations:1  64.3 ms  0.56 ms  1 \
batch_speedup=1 decode_amortization=1 dedup=0 p50_ms=65.536 \
p99_ms=65.536 qps=3.0017k
service/batch/n:8/iterations:1  109 ms  0.9 ms  1 \
batch_speedup=1.2 decode_amortization=1.83 dedup=23 p50_ms=32.768 \
p99_ms=65.536 qps=3.91831k
node_decode/all/iterations:1  114 ms  114 ms  1 index_bytes=602.112k \
mapped_reads=12.226k mmap_decode_ns=1.18395M physical_reads=0 \
pread_decode_ns=1.3317M
"""

JSON_SAMPLE = {
    "context": {"objects": 6000, "queries_per_point": 2},
    "benchmarks": [
        {
            "name": "AdvancedBS/k0=10/iterations:1",
            "iterations": 1,
            "ns_per_op": 1.21e7,
            "counters": {
                "avg_io": 118.0,
                "avg_ms": 6.05,
                "avg_penalty": 0.012,
                "cand_eval": 31.0,
                "cand_filtered": 12.0,
                "cand_pruned": 140.0,
                "cand_skipped": 72.0,
                "nodes_expanded": 1200.0,
            },
        },
        {
            "name": "TraceOverhead/AdvancedBS/iterations:1",
            "iterations": 1,
            "ns_per_op": 2.0e8,
            "counters": {
                "untraced_ms": 95.0,
                "traced_ms": 100.0,
                "trace_overhead": 1.05,
            },
        },
        {
            "name": "service/ingest/merge:on/iterations:1",
            "iterations": 1,
            "ns_per_op": 5.03e7,
            "counters": {
                "insert_rate": 19509.4,
                "merges": 3.0,
                "p99_ms": 32.768,
            },
        },
        {
            "name": "service/shards/n:4/iterations:1",
            "iterations": 1,
            "ns_per_op": 2.5e7,
            "counters": {
                "qps": 5120.0,
                "p50_ms": 2.048,
                "p99_ms": 4.096,
                "shards_visited": 128.0,
                "shards_pruned": 384.0,
                "pruned_rate": 0.75,
            },
        },
        {
            "name": "service/batch/n:8/iterations:1",
            "iterations": 1,
            "ns_per_op": 1.09e8,
            "counters": {
                "qps": 3918.31,
                "p50_ms": 32.768,
                "p99_ms": 65.536,
                "batch_speedup": 1.2,
                "decode_amortization": 1.83,
                "dedup": 23.0,
            },
        },
        {
            "name": "node_decode/all/iterations:1",
            "iterations": 1,
            "ns_per_op": 1.14e8,
            "counters": {
                "pread_decode_ns": 1331700.0,
                "mmap_decode_ns": 1183950.0,
                "index_bytes": 602112.0,
                "mapped_reads": 12226.0,
                "physical_reads": 0.0,
            },
        },
        {
            "name": "service/telemetry/sampling/iterations:1",
            "iterations": 1,
            "ns_per_op": 9.1e7,
            "counters": {
                "disabled_ms": 88.0,
                "enabled_ms": 90.0,
                "sampling_overhead": 1.023,
                "qps": 4100.0,
            },
        },
    ],
}


def run_tool(script, *argv, expect_rc=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, script), *argv],
        capture_output=True,
        text=True,
    )
    if expect_rc is not None and proc.returncode != expect_rc:
        raise AssertionError(
            f"{script} {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc


class LoadRowsTest(unittest.TestCase):
    def test_console_rows_carry_all_counters(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            rows = dict(bench_to_csv.load_rows(src))
        self.assertIn("AdvancedBS/k0=10", rows)
        adv = rows["AdvancedBS/k0=10"]
        self.assertEqual(adv["cand_filtered"], 12.0)
        self.assertEqual(adv["nodes_expanded"], 1200.0)  # k suffix
        self.assertEqual(adv["avg_ms"], 6.05)

    def test_json_rows_match_console_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench.json")
            with open(src, "w") as f:
                json.dump(JSON_SAMPLE, f)
            rows = dict(bench_to_csv.load_rows(src))
        self.assertEqual(rows["AdvancedBS/k0=10"]["cand_pruned"], 140.0)
        self.assertEqual(
            rows["TraceOverhead/AdvancedBS"]["trace_overhead"], 1.05
        )


class BenchToCsvTest(unittest.TestCase):
    def test_emits_pruning_columns(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "k0.csv")) as f:
                table = list(csv.reader(f))
        header, row = table[0], table[1]
        # Paper metrics stay first in each algorithm group...
        self.assertIn("AdvancedBS_ms", header)
        self.assertIn("AdvancedBS_io", header)
        self.assertIn("AdvancedBS_penalty", header)
        # ...and the disposition partition rides along per algorithm.
        for counter in ("cand_eval", "cand_filtered", "cand_skipped",
                        "cand_pruned", "nodes_expanded"):
            self.assertIn(f"AdvancedBS_{counter}", header)
        self.assertEqual(row[header.index("k0")], "10")
        self.assertEqual(
            float(row[header.index("KcRBased_cand_pruned")]), 165.0
        )

    def test_emits_service_series_csvs(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "service_mixed.csv")) as f:
                mixed = list(csv.reader(f))
            with open(os.path.join(out_dir, "service_ingest.csv")) as f:
                ingest = list(csv.reader(f))
        self.assertEqual(
            mixed[0], ["workers", "qps", "p50_ms", "p99_ms",
                       "cache_hit_rate"])
        self.assertEqual(mixed[1][0], "2")
        self.assertEqual(float(mixed[1][1]), 4667.18)
        header, on_row, off_row = ingest[0], ingest[1], ingest[2]
        self.assertEqual(header, ["merge", "p99_ms", "insert_rate",
                                  "merges"])
        self.assertEqual(on_row[0], "on")
        self.assertEqual(float(on_row[header.index("merges")]), 3.0)
        self.assertEqual(float(off_row[header.index("merges")]), 0.0)

    def test_emits_shard_series_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "service_shards.csv")) as f:
                shards = list(csv.reader(f))
        header = shards[0]
        self.assertEqual(header, ["n", "qps", "p50_ms", "p99_ms",
                                  "shards_visited", "shards_pruned",
                                  "pruned_rate"])
        one, four = shards[1], shards[2]
        self.assertEqual(one[0], "1")
        self.assertEqual(float(one[header.index("shards_pruned")]), 0.0)
        self.assertEqual(four[0], "4")
        self.assertEqual(float(four[header.index("shards_pruned")]), 384.0)
        self.assertEqual(float(four[header.index("pruned_rate")]), 0.75)

    def test_emits_batch_series_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "service_batch.csv")) as f:
                batch = list(csv.reader(f))
        header = batch[0]
        self.assertEqual(header, ["n", "qps", "p50_ms", "p99_ms",
                                  "batch_speedup", "decode_amortization",
                                  "dedup"])
        one, eight = batch[1], batch[2]
        self.assertEqual(one[0], "1")
        self.assertEqual(float(one[header.index("batch_speedup")]), 1.0)
        self.assertEqual(eight[0], "8")
        self.assertEqual(
            float(eight[header.index("decode_amortization")]), 1.83)
        self.assertEqual(float(eight[header.index("dedup")]), 23.0)

    def test_emits_node_decode_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "node_decode.csv")) as f:
                table = list(csv.reader(f))
        header, row = table[0], table[1]
        self.assertEqual(header, ["scope", "pread_decode_ns",
                                  "mmap_decode_ns", "index_bytes",
                                  "mapped_reads", "physical_reads"])
        self.assertEqual(row[0], "all")
        self.assertEqual(float(row[header.index("pread_decode_ns")]),
                         1331700.0)
        self.assertEqual(float(row[header.index("index_bytes")]), 602112.0)
        self.assertEqual(float(row[header.index("mapped_reads")]), 12226.0)

    def test_json_input_produces_same_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench.json")
            with open(src, "w") as f:
                json.dump(JSON_SAMPLE, f)
            out_dir = os.path.join(tmp, "csv")
            run_tool("bench_to_csv.py", src, out_dir)
            with open(os.path.join(out_dir, "k0.csv")) as f:
                table = list(csv.reader(f))
        header = table[0]
        self.assertIn("AdvancedBS_cand_filtered", header)
        self.assertEqual(
            float(table[1][header.index("AdvancedBS_cand_filtered")]), 12.0
        )


class BenchToMarkdownTest(unittest.TestCase):
    def test_renders_pruning_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### sweep: k0", out)
        self.assertIn("### pruning: k0", out)
        self.assertIn("cand_filtered", out)
        # The unoptimized baseline row shows everything evaluated.
        self.assertIn("| 10 | BS | 255 | 0 | 0 | 0 |", out)

    def test_renders_service_tables(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### service: mixed", out)
        self.assertIn("### service: ingest", out)
        self.assertIn("| workers | qps | p50_ms | p99_ms |"
                      " cache_hit_rate |", out)
        self.assertIn("| merge | p99_ms | insert_rate | merges |", out)
        self.assertIn("| on | 32.8 | 19,509 | 3 |", out)
        self.assertIn("| off | 16.4 | 41,277 | 0 |", out)

    def test_renders_shard_series_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### service: shards", out)
        self.assertIn("| n | qps | p50_ms | p99_ms | shards_visited |"
                      " shards_pruned | pruned_rate |", out)
        # Counts render as integers, pruned_rate like cache_hit_rate.
        self.assertIn("| 1 | 3,200 | 4.1 | 8.2 | 128 | 0 | 0.00 |", out)
        self.assertIn("| 4 | 5,120 | 2.0 | 4.1 | 128 | 384 | 0.75 |", out)

    def test_renders_batch_series_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### service: batch", out)
        self.assertIn("| n | qps | p50_ms | p99_ms | batch_speedup |"
                      " decode_amortization | dedup |", out)
        # Ratios render with two decimals, dedup as an integer count.
        self.assertIn("| 1 | 3,002 | 65.5 | 65.5 | 1.00 | 1.00 | 0 |", out)
        self.assertIn("| 8 | 3,918 | 32.8 | 65.5 | 1.20 | 1.83 | 23 |", out)

    def test_renders_node_decode_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench_output.txt")
            with open(src, "w") as f:
                f.write(CONSOLE_SAMPLE)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### node decode: pread vs mmap (full-tree decode)", out)
        self.assertIn("| scope | pread_decode_ns | mmap_decode_ns |"
                      " index_bytes |", out)
        self.assertIn("| all | 1,331,700 | 1,183,950 | 602,112 |", out)

    def test_json_service_rows_render(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "bench.json")
            with open(src, "w") as f:
                json.dump(JSON_SAMPLE, f)
            out = run_tool("bench_to_markdown.py", src).stdout
        self.assertIn("### service: ingest", out)
        self.assertIn("| on | 32.8 | 19,509 | 3 |", out)


class TraceOverheadGateTest(unittest.TestCase):
    def _check(self, overhead, expect_rc):
        sample = json.loads(json.dumps(JSON_SAMPLE))
        sample["benchmarks"][1]["counters"]["trace_overhead"] = overhead
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kernels.json")
            with open(path, "w") as f:
                json.dump(sample, f)
            # Self-comparison applies only the absolute gates, exactly as
            # the CI trace-overhead step invokes the checker.
            return run_tool(
                "check_bench_regression.py", path, path,
                expect_rc=expect_rc,
            )

    def test_overhead_below_cap_passes(self):
        self._check(1.2, expect_rc=0)

    def test_overhead_above_cap_fails(self):
        proc = self._check(2.1, expect_rc=1)
        self.assertIn("trace_overhead", proc.stdout)


class SamplingOverheadGateTest(unittest.TestCase):
    """sampling_overhead caps the cost of always-on telemetry at the default
    sampling rate — an absolute gate like trace_overhead, but tighter."""

    def _check(self, overhead, expect_rc, *extra):
        sample = json.loads(json.dumps(JSON_SAMPLE))
        sample["benchmarks"][6]["counters"]["sampling_overhead"] = overhead
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "service.json")
            with open(path, "w") as f:
                json.dump(sample, f)
            return run_tool(
                "check_bench_regression.py", path, path, *extra,
                expect_rc=expect_rc,
            )

    def test_overhead_below_cap_passes(self):
        self._check(1.02, expect_rc=0)

    def test_overhead_above_cap_fails(self):
        proc = self._check(1.2, expect_rc=1)
        self.assertIn("sampling_overhead", proc.stdout)

    def test_cap_is_adjustable(self):
        self._check(1.2, 0, "--max-sampling-overhead", "1.3")


class ShardPruningGateTest(unittest.TestCase):
    """shards_pruned must stay positive on every multi-shard series row —
    an absolute floor, applied to the current run like the overhead cap."""

    def _check(self, pruned, expect_rc, shards=4):
        sample = json.loads(json.dumps(JSON_SAMPLE))
        shard_bench = sample["benchmarks"][3]
        shard_bench["name"] = f"service/shards/n:{shards}/iterations:1"
        shard_bench["counters"]["shards_pruned"] = pruned
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "service.json")
            with open(path, "w") as f:
                json.dump(sample, f)
            return run_tool(
                "check_bench_regression.py", path, path,
                expect_rc=expect_rc,
            )

    def test_positive_pruning_passes(self):
        self._check(384.0, expect_rc=0)

    def test_zero_pruning_fails(self):
        proc = self._check(0.0, expect_rc=1)
        self.assertIn("shards_pruned", proc.stdout)

    def test_single_shard_exempt(self):
        # n:1 has nothing to prune; the floor only applies beyond one shard.
        self._check(0.0, expect_rc=0, shards=1)


class IndexBytesGateTest(unittest.TestCase):
    """index_bytes is drift-gated against the baseline like avg_io: the
    tree file may not grow by more than --tolerance."""

    def _check(self, growth, expect_rc):
        current = json.loads(json.dumps(JSON_SAMPLE))
        current["benchmarks"][5]["counters"]["index_bytes"] *= growth
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "micro.json")
            with open(base_path, "w") as f:
                json.dump(JSON_SAMPLE, f)
            with open(cur_path, "w") as f:
                json.dump(current, f)
            return run_tool(
                "check_bench_regression.py", base_path, cur_path,
                expect_rc=expect_rc,
            )

    def test_small_growth_passes(self):
        self._check(1.1, expect_rc=0)

    def test_growth_beyond_tolerance_fails(self):
        proc = self._check(1.3, expect_rc=1)
        self.assertIn("index_bytes regressed", proc.stdout)

    def test_shrinking_passes(self):
        self._check(0.5, expect_rc=0)


class BatchSpeedupGateTest(unittest.TestCase):
    """max(batch_speedup, decode_amortization) must clear the absolute
    floor at batch size >= 8 — either wall-clock or the machine-independent
    node-decode reduction may satisfy it (docs/BATCHING.md)."""

    def _check(self, speedup, amortization, expect_rc, batch_n=8):
        sample = json.loads(json.dumps(JSON_SAMPLE))
        batch_bench = sample["benchmarks"][4]
        batch_bench["name"] = f"service/batch/n:{batch_n}/iterations:1"
        batch_bench["counters"]["batch_speedup"] = speedup
        batch_bench["counters"]["decode_amortization"] = amortization
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "service.json")
            with open(path, "w") as f:
                json.dump(sample, f)
            return run_tool(
                "check_bench_regression.py", path, path,
                expect_rc=expect_rc,
            )

    def test_amortization_clears_floor_despite_flat_wall_clock(self):
        # Single-core CI: wall clock barely moves but decodes amortize.
        self._check(1.05, 1.83, expect_rc=0)

    def test_wall_clock_clears_floor_despite_flat_amortization(self):
        self._check(2.1, 1.1, expect_rc=0)

    def test_both_below_floor_fails(self):
        proc = self._check(1.1, 1.2, expect_rc=1)
        self.assertIn("decode_amortization", proc.stdout)

    def test_small_batches_exempt(self):
        # The 1.5x promise is made at batch size 8 (docs/BATCHING.md);
        # shallow batches amortize less and are not gated.
        self._check(1.0, 1.1, expect_rc=0, batch_n=4)


if __name__ == "__main__":
    unittest.main()
