#!/usr/bin/env python3
"""Renders benchmark suite output as the markdown tables EXPERIMENTS.md uses.

Usage:
    tools/bench_to_markdown.py bench_output.txt
    tools/bench_to_markdown.py opts.json        # from `bench_* --json`

Accepts either the console text of the bench binaries or the file written
by their --json flag (auto-detected by the leading '{'). Each sweep gets
the paper's ms / I/O / penalty table; when a run reports the
pruning-effectiveness counters (docs/OBSERVABILITY.md), a second table
per sweep breaks the candidate dispositions down by algorithm.

Node-decode rows (bench_index_micro's `node_decode/...`) get a
pread-vs-mmap table with the full-tree decode timings and the index file
size (docs/STORAGE.md "Read paths").

Service-layer rows (bench_service, `service/<series>/<key>:<value>`) get
one table per series with whichever of qps / p50_ms / p99_ms /
cache_hit_rate / insert_rate / merges / shards_visited / shards_pruned /
pruned_rate / batch_speedup / decode_amortization / dedup the run carries
(the shard counters come from the service/shards sharding series,
docs/SHARDING.md; the batch counters from the service/batch batched-
execution series, docs/BATCHING.md).
"""

import collections
import json
import re
import sys

ROW = re.compile(r"^(?P<name>\S+)/iterations:1\s")
MICRO = re.compile(r"^(?P<name>topk/\S+)/iterations:1\s+(?P<ms>[\d.]+) ms\s")
COUNTER = re.compile(r"([A-Za-z_][\w]*)=(-?[\d.]+(?:e[+-]?\d+)?[kMG]?)")

SUFFIX = {"k": 1e3, "M": 1e6, "G": 1e9}
PRUNE_COLUMNS = ("cand_eval", "cand_filtered", "cand_skipped",
                 "cand_pruned", "nodes_expanded")
SERVICE_COLUMNS = ("qps", "p50_ms", "p99_ms", "cache_hit_rate",
                   "insert_rate", "merges", "shards_visited",
                   "shards_pruned", "pruned_rate", "batch_speedup",
                   "decode_amortization", "dedup")
NODE_DECODE_COLUMNS = ("pread_decode_ns", "mmap_decode_ns", "index_bytes")


def num(text):
    if text and text[-1] in SUFFIX:
        return float(text[:-1]) * SUFFIX[text[-1]]
    return float(text)


def fmt(value, digits=1):
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{digits}f}"


def load_rows(path):
    """Yields (benchmark_name, {counter: value}); console ms rides along as
    the pseudo-counter `_console_ms` for the micro table."""
    with open(path) as f:
        head = f.read(1)
    if head == "{":
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            name = bench.get("name", "").removesuffix("/iterations:1")
            counters = {
                k: float(v)
                for k, v in bench.get("counters", {}).items()
                if isinstance(v, (int, float))
            }
            counters["_console_ms"] = bench.get("ns_per_op", 0.0) / 1e6
            yield name, counters
        return
    with open(path) as lines:
        for line in lines:
            line = line.strip()
            match = ROW.match(line)
            if not match:
                continue
            counters = {k: num(v) for k, v in COUNTER.findall(line)}
            micro = MICRO.match(line)
            if micro:
                counters["_console_ms"] = float(micro.group("ms"))
            yield match.group("name"), counters


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    # tables[param] -> ordered {value: {algorithm: {counter: value}}}
    tables = collections.defaultdict(collections.OrderedDict)
    micro = collections.OrderedDict()
    # service[series] = (key, {value: counters})
    service = collections.OrderedDict()
    node_decode = collections.OrderedDict()
    for name, counters in load_rows(path):
        if name.startswith("node_decode/"):
            node_decode[name.removeprefix("node_decode/")] = counters
            continue
        if name.startswith("topk/") and "avg_penalty" not in counters:
            micro[name] = (counters.get("_console_ms", 0.0) / 20.0,
                           counters.get("avg_io", 0.0))
            continue
        if name.startswith("service/") and ":" in name.split("/")[-1]:
            parts = name.split("/")
            series = "/".join(parts[1:-1]) or "service"
            key, _, value = parts[-1].partition(":")
            service.setdefault(series, (key, collections.OrderedDict()))
            service[series][1][value] = counters
            continue
        if "avg_ms" not in counters:
            continue
        parts = name.split("/")
        if "=" not in parts[-1]:
            continue
        algorithm = "/".join(parts[:-1])
        param, _, value = parts[-1].partition("=")
        tables[param].setdefault(value, collections.OrderedDict())
        tables[param][value][algorithm] = counters

    for param, values in tables.items():
        algorithms = []
        for row in values.values():
            for a in row:
                if a not in algorithms:
                    algorithms.append(a)
        print(f"### sweep: {param}\n")
        header = f"| {param} |"
        divider = "|---|"
        for a in algorithms:
            header += f" {a} ms | {a} I/O |"
            divider += "---|---|"
        header += " penalty |"
        divider += "---|"
        print(header)
        print(divider)
        for value, row in values.items():
            line = f"| {value} |"
            penalty = ""
            for a in algorithms:
                cell = row.get(a)
                if cell:
                    line += f" {fmt(cell['avg_ms'])} |"
                    line += f" {fmt(cell.get('avg_io', 0.0), 0)} |"
                    penalty = f"{cell.get('avg_penalty', 0.0):.3f}"
                else:
                    line += " — | — |"
            line += f" {penalty} |"
            print(line)
        print()

        # Candidate dispositions, one row per (value, algorithm), only when
        # the run carries the counters (older logs simply skip the table).
        has_prune = any(
            c in cell
            for row in values.values()
            for cell in row.values()
            for c in PRUNE_COLUMNS
        )
        if not has_prune:
            continue
        print(f"### pruning: {param}\n")
        print("| " + param + " | algorithm | " +
              " | ".join(PRUNE_COLUMNS) + " |")
        print("|---|---|" + "---|" * len(PRUNE_COLUMNS))
        for value, row in values.items():
            for a, cell in row.items():
                if not any(c in cell for c in PRUNE_COLUMNS):
                    continue
                cols = " | ".join(
                    fmt(cell.get(c, 0.0), 0) for c in PRUNE_COLUMNS)
                print(f"| {value} | {a} | {cols} |")
        print()

    for series, (key, rows) in service.items():
        present = {c for cell in rows.values() for c in cell}
        columns = [c for c in SERVICE_COLUMNS if c in present]
        if not columns:
            continue
        print(f"### service: {series}\n")
        print("| " + key + " | " + " | ".join(columns) + " |")
        print("|---|" + "---|" * len(columns))
        for value, cell in rows.items():
            cols = []
            for c in columns:
                v = cell.get(c, 0.0)
                if c in ("cache_hit_rate", "pruned_rate", "batch_speedup",
                         "decode_amortization"):
                    cols.append(f"{v:.2f}")
                elif c in ("merges", "shards_visited", "shards_pruned",
                           "dedup"):
                    cols.append(fmt(v, 0))
                else:
                    cols.append(fmt(v))
            print(f"| {value} | " + " | ".join(cols) + " |")
        print()

    if node_decode:
        print("### node decode: pread vs mmap (full-tree decode)\n")
        columns = [c for c in NODE_DECODE_COLUMNS
                   if any(c in cell for cell in node_decode.values())]
        print("| scope | " + " | ".join(columns) + " |")
        print("|---|" + "---|" * len(columns))
        for scope, cell in node_decode.items():
            cols = [fmt(cell.get(c, 0.0), 0) for c in columns]
            print(f"| {scope} | " + " | ".join(cols) + " |")
        print()

    if micro:
        print("### substrate micro-benchmark (per-query)\n")
        print("| source | ms/query | pages/query |")
        print("|---|---|---|")
        for name, (ms, io) in micro.items():
            print(f"| {name} | {ms:.2f} | {fmt(io, 1)} |")


if __name__ == "__main__":
    main()
