"""Run expanderlab CLI commands in one process, with or without tracing.

    python3 bench/tracing.py COMMANDS.json OUT.json [--no-trace]

COMMANDS.json holds a list of argv lists; each is passed to
`expanderlab.cli.main` in turn, from the current directory. OUT.json receives
the import time of the CLI, each command's exit code and wall time and, when
traced, every span.

Tracing wraps each public function listed in LAYERS, both in its defining
module and in every expanderlab module that imported it by name (search
binds `spectrum`, percolation binds `graph_fingerprint`, ...). A wrapper
records one span: name, start, end, parent span and counts. Spans stay in
memory and are written when the commands have run. Nothing under src/ is
changed; the program cannot tell it is traced except by the time it takes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Functions wrapped per module. Those not reported as per-layer metrics
# (measure, girth_tower_report, build_family, is_connected) are wrapped so
# that their own work is not charged to the caller's self time.
LAYERS = {
    "search": [
        "search_spanning_subexpander", "augment_edges", "trim_to_girth",
        "reconnect_repair", "conjecture_probe",
    ],
    "metrics": [
        "spectrum", "girth", "diameter", "cheeger_exact", "conductance_exact",
        "ball_expansion_profile", "measure",
    ],
    "matgroups": ["cayley_graph", "girth_tower_report"],
    "builders": ["random_regular", "graph_power", "build_family"],
    "percolation": ["percolate", "component_summary", "percolation_sweep"],
    "graphcore": [
        "graph_fingerprint", "bfs_distances", "edge_subgraph", "load_graph",
        "save_graph", "is_connected",
    ],
}

# Per-layer metrics reported for every workload: (span, kind), where kind is
# "self_s" (summed self time), "calls", or a count a wrapper records.
REPORTED = [
    ("search.anneal", "self_s"), ("search.anneal", "moves"),
    ("search.augment_edges", "self_s"), ("search.augment_edges", "calls"),
    ("search.trim_to_girth", "self_s"), ("search.trim_to_girth", "calls"),
    ("search.reconnect_repair", "self_s"), ("search.conjecture_probe", "self_s"),
    ("metrics.spectrum", "self_s"), ("metrics.spectrum", "calls"),
    ("metrics.spectrum", "vertices"),
    ("metrics.girth", "self_s"), ("metrics.girth", "calls"),
    ("metrics.diameter", "self_s"), ("metrics.diameter", "calls"),
    ("metrics.cheeger_exact", "self_s"), ("metrics.conductance_exact", "self_s"),
    ("metrics.ball_expansion_profile", "self_s"),
    ("matgroups.cayley_graph", "self_s"), ("matgroups.cayley_graph", "vertices"),
    ("builders.random_regular", "self_s"), ("builders.graph_power", "self_s"),
    ("percolation.percolate", "self_s"), ("percolation.percolate", "calls"),
    ("percolation.component_summary", "self_s"),
    ("percolation.percolation_sweep", "self_s"),
    ("graphcore.graph_fingerprint", "self_s"), ("graphcore.graph_fingerprint", "calls"),
    ("graphcore.bfs_distances", "self_s"), ("graphcore.bfs_distances", "calls"),
    ("graphcore.edge_subgraph", "self_s"), ("graphcore.edge_subgraph", "calls"),
    ("graphcore.load_graph", "self_s"), ("graphcore.save_graph", "self_s"),
    ("cli.main", "self_s"),
]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if fn.__name__ == "search_spanning_subexpander":
                span_name = "search." + kwargs.get("strategy", "trim")
            span = [span_name, clock(), None, stack[-1] if stack else None, {}]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _counts(module: str, fn_name: str):
    if (module, fn_name) == ("metrics", "spectrum"):
        return lambda args, result: {"vertices": args[0].n}
    if (module, fn_name) == ("matgroups", "cayley_graph"):
        return lambda args, result: {"vertices": result.reached_order}
    if (module, fn_name) == ("search", "search_spanning_subexpander"):
        return lambda args, result: (
            {"moves": result.iterations_used} if result.strategy == "anneal" else {}
        )
    return None


def install(tracer: Tracer) -> None:
    """Replace every binding of the LAYERS functions across expanderlab's modules."""
    import importlib

    loaded = [m for name, m in sorted(sys.modules.items()) if name.startswith("expanderlab")]
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"expanderlab.{module}")
        for fn_name in names:
            original = getattr(mod, fn_name)
            wrapper = tracer.wrap(f"{module}.{fn_name}", original, _counts(module, fn_name))
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)


def self_times(spans: list) -> dict[str, float]:
    """Summed self time per span name: each span's duration minus its children's."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _counts in spans:
        totals[name] += end - start
        if parent is not None:
            totals[spans[parent][0]] -= end - start
    return dict(totals)


def per_layer(spans: list, import_s: float) -> dict[str, float]:
    """The REPORTED metrics (zero for a layer the workload never enters)."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for name, _start, _end, _parent, span_counts in spans:
        calls[name] += 1
        for key, value in span_counts.items():
            counts[(name, key)] += value
    out = {"cli.import_s": import_s}
    for span, kind in REPORTED:
        if kind == "self_s":
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[f"{span}.calls"] = calls[span]
        else:
            out[f"{span}.{kind}"] = counts[(span, kind)]
    return out


def main(argv: list[str]) -> int:
    commands_path, out_path = argv[0], argv[1]
    traced = "--no-trace" not in argv[2:]
    commands = json.loads(Path(commands_path).read_text())
    start = time.perf_counter()
    from expanderlab import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    run = cli.main
    if traced:
        install(tracer)
        run = tracer.wrap("cli.main", cli.main)
    results = []
    for command in commands:
        t0 = time.perf_counter()
        rc = run(command)
        results.append({"argv": command, "rc": rc, "wall_s": time.perf_counter() - t0})
    Path(out_path).write_text(
        json.dumps({"import_s": import_s, "commands": results, "spans": tracer.spans})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
