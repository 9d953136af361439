#!/usr/bin/env python3
"""Converts the benchmark suite's output into per-figure CSV tables.

Usage:
    for b in build/bench/*; do $b; done 2>&1 | tee bench_output.txt
    tools/bench_to_csv.py bench_output.txt out_dir/

    build/bench/bench_optimizations --json opts.json
    tools/bench_to_csv.py opts.json out_dir/

Accepts either the console text of the bench binaries or the
machine-readable file written by their --json flag (auto-detected by the
leading '{'). Each why-not row is named `<Algorithm>/<param>=<value>`;
rows are grouped by the swept parameter and one CSV per parameter is
emitted, with one line per value and one column group per algorithm — the
exact series of the paper's figures. Beyond the paper's avg_ms / avg_io /
avg_penalty, each group carries the pruning-effectiveness counters
(cand_eval, cand_filtered, cand_skipped, cand_pruned, nodes_expanded)
whenever the run reports them (docs/OBSERVABILITY.md).

Node-decode rows (bench_index_micro's `node_decode/...`) land in
`node_decode.csv` with the pread-vs-mmap full-tree decode timings, the
index file size, and the mapped leg's read counts (docs/STORAGE.md "Read
paths").

Service-layer rows (bench_service) are named `service/<series>/<key>:<value>`
and carry throughput counters instead of per-query figures; each series
lands in its own `service_<series>.csv` with whichever of qps / p50_ms /
p99_ms / cache_hit_rate / insert_rate / merges / shards_visited /
shards_pruned / pruned_rate / batch_speedup / decode_amortization / dedup
the run reports (the shard counters come from the service/shards series,
docs/SHARDING.md; the batch counters from the service/batch batched-
execution series, docs/BATCHING.md).
"""

import collections
import csv
import json
import os
import re
import sys

ROW = re.compile(r"^(?P<name>\S+)/iterations:1\s")
COUNTER = re.compile(r"([A-Za-z_][\w]*)=(-?[\d.]+(?:e[+-]?\d+)?[kMG]?)")

SUFFIX = {"k": 1e3, "M": 1e6, "G": 1e9}
# Column order within one algorithm's group; the paper metrics always
# appear, the pruning counters only when at least one row reports them.
BASE_COLUMNS = ("avg_ms", "avg_io", "avg_penalty")
PRUNE_COLUMNS = ("cand_eval", "cand_filtered", "cand_skipped",
                 "cand_pruned", "nodes_expanded")
# Service-series columns (bench_service), in report order; only the ones a
# run actually carries are emitted.
SERVICE_COLUMNS = ("qps", "p50_ms", "p99_ms", "cache_hit_rate",
                   "insert_rate", "merges", "shards_visited",
                   "shards_pruned", "pruned_rate", "batch_speedup",
                   "decode_amortization", "dedup")
# node_decode/... rows (bench_index_micro), in report order.
NODE_DECODE_COLUMNS = ("pread_decode_ns", "mmap_decode_ns", "index_bytes",
                       "mapped_reads", "physical_reads")


def parse_number(text: str) -> float:
    if text and text[-1] in SUFFIX:
        return float(text[:-1]) * SUFFIX[text[-1]]
    return float(text)


def load_rows(source):
    """Yields (benchmark_name, {counter: value}) from either input kind."""
    with open(source) as f:
        head = f.read(1)
    if head == "{":
        with open(source) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            name = bench.get("name", "")
            name = name.removesuffix("/iterations:1")
            counters = {
                k: float(v)
                for k, v in bench.get("counters", {}).items()
                if isinstance(v, (int, float))
            }
            yield name, counters
        return
    with open(source) as lines:
        for line in lines:
            match = ROW.match(line.strip())
            if not match:
                continue
            counters = {
                k: parse_number(v) for k, v in COUNTER.findall(line)
            }
            yield match.group("name"), counters


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    source, out_dir = sys.argv[1], sys.argv[2]
    os.makedirs(out_dir, exist_ok=True)

    # tables[param][value][algorithm] = {counter: value}
    tables = collections.defaultdict(dict)
    # service[series] = (key, {value: {counter: value}}) for
    # `service/<series>/<key>:<value>` rows.
    service = collections.OrderedDict()
    # node_decode[scope] = {counter: value} for `node_decode/<scope>` rows.
    node_decode = collections.OrderedDict()
    for name, counters in load_rows(source):
        parts = name.split("/")
        if parts[0] == "node_decode":
            node_decode["/".join(parts[1:]) or "all"] = counters
            continue
        if name.startswith("service/") and ":" in parts[-1]:
            series = "/".join(parts[1:-1]) or "service"
            key, _, value = parts[-1].partition(":")
            service.setdefault(series, (key, collections.OrderedDict()))
            service[series][1][value] = counters
            continue
        if "avg_ms" not in counters:
            continue  # microbenchmark rows have no figure to land in
        if len(parts) < 2 or "=" not in parts[-1]:
            continue
        algorithm = "/".join(parts[:-1])
        param, _, value = parts[-1].partition("=")
        tables[param].setdefault(value, {})[algorithm] = counters

    for param, values in tables.items():
        algorithms = sorted({a for row in values.values() for a in row})
        present = {
            c for row in values.values() for cell in row.values()
            for c in cell
        }
        columns = list(BASE_COLUMNS) + [
            c for c in PRUNE_COLUMNS if c in present
        ]
        path = os.path.join(out_dir, f"{param}.csv")
        with open(path, "w", newline="") as out:
            writer = csv.writer(out)
            header = [param]
            for algorithm in algorithms:
                safe = algorithm.replace("/", "_")
                header += [
                    f"{safe}_{c.removeprefix('avg_')}" for c in columns
                ]
            writer.writerow(header)
            for value, row in values.items():
                line = [value]
                for algorithm in algorithms:
                    cell = row.get(algorithm, {})
                    line += [cell.get(c, "") for c in columns]
                writer.writerow(line)
        print(f"wrote {path} ({len(values)} rows x {len(algorithms)} series)")

    for series, (key, rows) in service.items():
        present = {c for cell in rows.values() for c in cell}
        columns = [c for c in SERVICE_COLUMNS if c in present]
        safe = series.replace("/", "_")
        path = os.path.join(out_dir, f"service_{safe}.csv")
        with open(path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow([key] + columns)
            for value, cell in rows.items():
                writer.writerow([value] + [cell.get(c, "") for c in columns])
        print(f"wrote {path} ({len(rows)} rows)")

    if node_decode:
        present = {c for cell in node_decode.values() for c in cell}
        columns = [c for c in NODE_DECODE_COLUMNS if c in present]
        path = os.path.join(out_dir, "node_decode.csv")
        with open(path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(["scope"] + columns)
            for scope, cell in node_decode.items():
                writer.writerow([scope] + [cell.get(c, "") for c in columns])
        print(f"wrote {path} ({len(node_decode)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
