"""The benchmark workloads: inputs, timed commands and output checks.

A workload's commands run from its run directory with relative paths, so a
repeat writes the same bytes (manifests record argv) and a traced run can be
compared byte for byte with an untraced one. `check` returns a list of
problems; an empty list means every output agreed with the oracles.

WORKLOADS are the benchmark's; MINIATURES are the same workloads on inputs
small enough for selftest.py to run them in seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import oracles

# Numbers in expanderlab's outputs carry 9 significant digits.
_TOL = 1e-8
# The program computes exact expansion up to this many vertices by default.
_EXACT_MAX = 24
SANOV = [((1, 2), (0, 1)), ((1, 0), (2, 1))]


def program_seed(seed: int) -> int:
    """The benchmark seed as passed to the program's --seed (a 31-bit value)."""
    return seed & 0x7FFFFFFF


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def fraction_cell(value) -> str:
    return "" if value is None else f"{value.numerator}/{value.denominator}"


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_manifest(run_dir: Path, manifest: str, argv: list[str]) -> list[str]:
    data = json.loads((run_dir / manifest).read_text())
    problems = []
    if data["argv"] != argv:
        problems.append(f"{manifest}: argv {data['argv']} != {argv}")
    for name, digest in data["outputs"].items():
        if sha256(run_dir / name) != digest:
            problems.append(f"{manifest}: SHA-256 of {name} does not match")
    return problems


class Graph:
    """An input graph with the oracle quantities the checks need, computed once."""

    def __init__(self, path: Path):
        self.n, self.edges = oracles.read_edge_list(path)
        self.adj = oracles.adjacency(self.n, self.edges)
        self.m = len(self.edges)
        self.max_degree = int(self.adj.sum(axis=1).max())
        self.dist = oracles.distance_matrix(self.adj)
        self.diameter = oracles.diameter(self.dist)
        self.lambda2, self.rho_star = oracles.walk_spectrum(self.adj)

    def exact(self) -> tuple:
        """(h, conductance), or (None, None) where the program skips them."""
        return oracles.exact_expansion(self.n, self.edges) if self.n <= _EXACT_MAX else (None, None)


class Workload:
    """Base of the workloads. Subclasses are frozen dataclasses of their inputs."""

    name: str
    # (spec, file) pairs built with `gen`, untimed, before the first round.
    inputs: list[tuple[str, str]] = []
    # Files every round writes; repeats must reproduce them byte for byte.
    outputs: list[str] = []

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, run_dir: Path, seed: int) -> list[str]:
        raise NotImplementedError


# --- probe ------------------------------------------------------------------


def read_probe_csv(path: Path, families: list[str]) -> list[dict[str, str]]:
    """Rows of probe.csv as dicts.

    The family and instance cells hold unquoted family specs, which contain
    commas, so a CSV reader splits them. The 16 columns after them hold no
    commas: take those from the right, and split the rest at the longest
    family name from probe_summary.json that prefixes it.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        cut = len(cells) - len(header) + 2
        head = ",".join(cells[:cut])
        family = max((f for f in families if head.startswith(f + ",")), key=len, default="")
        row = dict(zip(header[2:], cells[cut:]))
        row.update(family=family, instance=head[len(family) + 1 :])
        rows.append(row)
    return rows


@dataclass(frozen=True)
class Probe(Workload):
    families: tuple[str, ...]
    ratios: tuple[float, ...]
    budget: int
    name: str = "probe"
    outputs = ["probe/probe.csv", "probe/probe_summary.json", "probe/manifest.json"]

    @property
    def inputs(self):  # the hosts, for the checks; the probe builds its own
        return [(spec, f"host{i}.el") for i, spec in enumerate(self.families)]

    def commands(self, seed: int) -> list[list[str]]:
        argv = ["probe"]
        for family in self.families:
            argv += ["--family", family]
        argv += [
            "--ratios", ",".join(str(c) for c in self.ratios), "--strategies", "all",
            "--budget", str(self.budget), "--seed", str(program_seed(seed)),
            "--out-dir", "probe",
        ]
        return [argv]

    def check(self, run_dir: Path, seed: int) -> list[str]:
        problems = check_manifest(run_dir, "probe/manifest.json", self.commands(seed)[0])
        summary = json.loads((run_dir / "probe/probe_summary.json").read_text())
        families = [f["family"] for f in summary["families"]]
        rows = read_probe_csv(run_dir / "probe/probe.csv", families)
        if len(rows) != len(self.families) * len(self.ratios):
            return problems + [f"probe.csv has {len(rows)} rows"]
        hosts = [Graph(run_dir / path) for _spec, path in self.inputs]
        # Rows come in family order, then ratio order.
        for k, row in enumerate(rows):
            host = hosts[k // len(self.ratios)]
            c = self.ratios[k % len(self.ratios)]
            where = f"probe row {k} ({row['instance']}, c={c})"
            if (int(row["n"]), int(row["m"]), int(row["d"])) != (host.n, host.m, host.max_degree):
                problems.append(f"{where}: n, m, d differ from the host")
            if int(row["diameter"]) != host.diameter:
                problems.append(f"{where}: diameter {row['diameter']} != {host.diameter}")
            if not close(float(row["host_gap"]), 1.0 - host.lambda2):
                problems.append(f"{where}: host_gap {row['host_gap']} != {1.0 - host.lambda2}")
            h = fraction_cell(host.exact()[0])
            if row["host_h_exact"] != h:
                problems.append(f"{where}: host_h_exact {row['host_h_exact']} != {h}")
            if float(row["c"]) != c or int(row["girth_target"]) != math.ceil(c * host.diameter):
                problems.append(f"{where}: girth_target is not ceil(c * diameter)")
            success = row["success"] == "true"
            girth = math.inf if row["best_girth"] == "unbounded" else int(row["best_girth"])
            if success and (girth < int(row["girth_target"]) or float(row["best_gap"]) <= 0):
                problems.append(f"{where}: success with girth {girth}, gap {row['best_gap']}")
            if not close(float(row["ratio_achieved"]), girth / host.diameter):
                problems.append(f"{where}: ratio_achieved is not best_girth / diameter")
            if (row["degenerate_diameter"] == "true") != (host.diameter <= 1):
                problems.append(f"{where}: degenerate_diameter flag is wrong")
        for family in summary["families"]:
            mine = [r for r in rows if r["family"] == family["family"]]
            for cell in family["per_ratio"]:
                where = f"summary {family['family']} c={cell['c']}"
                cell_rows = [r for r in mine if float(r["c"]) == cell["c"]]
                gaps = [float(r["best_gap"]) for r in cell_rows if r["success"] == "true"]
                expected = min(gaps) if gaps else None
                if (expected is None) != (cell["min_gap"] is None) or (
                    expected is not None and not close(expected, cell["min_gap"])
                ):
                    problems.append(f"{where}: min_gap {cell['min_gap']} != {expected}")
                if cell["all_success"] != (bool(cell_rows) and len(gaps) == len(cell_rows)):
                    problems.append(f"{where}: all_success {cell['all_success']}")
        return problems


# --- tower ------------------------------------------------------------------


@dataclass(frozen=True)
class Tower(Workload):
    towers: tuple[tuple[int, int], ...]  # (p, levels), Sanov generators
    name: str = "tower"

    @property
    def outputs(self):
        return [f for p, _ in self.towers for f in (f"tower{p}.csv", f"tower{p}.csv.manifest.json")]

    def commands(self, seed: int) -> list[list[str]]:
        return [
            ["tower", "--p", str(p), "--levels", str(levels), "--recipe", "sanov",
             "-o", f"tower{p}.csv"]
            for p, levels in self.towers
        ]

    def check(self, run_dir: Path, seed: int) -> list[str]:
        problems = []
        for argv, (p, levels) in zip(self.commands(seed), self.towers):
            out = argv[-1]
            problems += check_manifest(run_dir, out + ".manifest.json", argv)
            rows = read_csv(run_dir / out)
            if [int(r["level"]) for r in rows] != list(range(1, levels + 1)):
                problems.append(f"{out}: levels {[r['level'] for r in rows]}")
                continue
            for row in rows:
                k = int(row["level"])
                where = f"{out} level {k}"
                order = oracles.sl2_order(p, k)
                a = oracles.sl2_cayley(p**k, SANOV)
                counts = {int(row[c]) for c in ("vertices", "reached_order", "full_group_order")}
                if counts != {order, a.shape[0]}:
                    problems.append(f"{where}: vertex counts {counts}, |SL(2)| = {order}")
                if int(row["degree"]) != int(a.sum(axis=1).max()):
                    problems.append(f"{where}: degree {row['degree']}")
                # Cayley graphs are vertex-transitive: one root finds the girth.
                girth = oracles.girth(a, roots=[0])
                if row["girth"] == "" or int(row["girth"]) != girth:
                    problems.append(f"{where}: girth {row['girth']} != {girth}")
                gap = 1.0 - oracles.walk_lambda2_sparse(a)
                if abs(float(row["gap"]) - gap) > 1e-7:
                    problems.append(f"{where}: gap {row['gap']} != {gap}")
            girths = [int(r["girth"]) for r in rows if r["girth"]]
            gaps = [float(r["gap"]) for r in rows]
            if girths != sorted(girths):
                problems.append(f"{out}: girth decreases up the tower: {girths}")
            # Each level's spectrum contains its quotient's, so lambda2 cannot drop.
            if gaps != sorted(gaps, reverse=True):
                problems.append(f"{out}: gap increases up the tower: {gaps}")
        return problems


# --- sweep-measure ----------------------------------------------------------


def check_measure(run_dir: Path, out: str, g: Graph, exact: tuple) -> list[str]:
    rep = json.loads((run_dir / out).read_text())
    problems = []
    expected = {
        "n": g.n, "m": g.m, "max_degree": g.max_degree, "diameter": g.diameter,
        "girth": oracles.girth(g.adj), "girth_unbounded": False,
        "diameter_disconnected": False,
    }
    for key, value in expected.items():
        if rep[key] != value:
            problems.append(f"{out}: {key} {rep[key]} != {value}")
    for key, value in (("lambda2", g.lambda2), ("rho_star", g.rho_star), ("gap", 1 - g.lambda2)):
        if not close(rep[key], value):
            problems.append(f"{out}: {key} {rep[key]} != {value}")
    for key, value in zip(("h_exact", "conductance"), exact):
        got = None if rep[key + "_num"] is None else Fraction(rep[key + "_num"], rep[key + "_den"])
        if got != value:
            problems.append(f"{out}: {key} {got} != {value}")
    return problems


@dataclass(frozen=True)
class SweepMeasure(Workload):
    host: str  # random regular: swept, then measured
    cayley: str  # vertex-transitive: measured, then its balls profiled
    small: str  # measured with exact h and conductance, --exact-max small_n
    small_n: int
    grid: tuple[float, ...]  # from 0 to 1
    seeds_per: int
    radius: int
    name: str = "sweep-measure"
    outputs = [
        f
        for out in ("sweep.csv", "measure_host.json", "measure_cayley.json",
                    "measure_small.json", "balls.csv")
        for f in (out, out + ".manifest.json")
    ]

    @property
    def inputs(self):
        return [(self.host, "host.el"), (self.cayley, "cayley.el"), (self.small, "small.el")]

    def commands(self, seed: int) -> list[list[str]]:
        return [
            ["sweep", "host.el", "--grid", ",".join(str(p) for p in self.grid),
             "--seeds-per", str(self.seeds_per), "--seed", str(program_seed(seed)),
             "-o", "sweep.csv"],
            ["measure", "host.el", "-o", "measure_host.json"],
            ["measure", "cayley.el", "-o", "measure_cayley.json"],
            ["measure", "small.el", "--exact-max", str(self.small_n), "-o", "measure_small.json"],
            ["balls", "cayley.el", "--radius", str(self.radius), "-o", "balls.csv"],
        ]

    def check(self, run_dir: Path, seed: int) -> list[str]:
        problems = []
        for argv in self.commands(seed):
            problems += check_manifest(run_dir, argv[-1] + ".manifest.json", argv)
        host, cay, small = (Graph(run_dir / path) for _spec, path in self.inputs)
        problems += self.check_sweep(run_dir, host)
        problems += check_measure(run_dir, "measure_host.json", host, host.exact())
        problems += check_measure(run_dir, "measure_cayley.json", cay, cay.exact())
        exact = oracles.exact_expansion(small.n, small.edges)
        problems += check_measure(run_dir, "measure_small.json", small, exact)
        problems += self.check_balls(run_dir, cay)
        return problems

    def check_sweep(self, run_dir: Path, host: Graph) -> list[str]:
        rows = read_csv(run_dir / "sweep.csv")
        ps = [float(r["p"]) for r in rows]
        if ps != list(self.grid):
            return [f"sweep.csv: p column {ps}"]
        problems = []
        means = [float(r["giant_mean"]) for r in rows]
        if not (means[0] == 1 / host.n and means[-1] == 1.0):
            problems.append(f"sweep.csv: giant_mean {means[0]} at p=0, {means[-1]} at p=1")
        # Threshold coupling: retained(p) grows with p in every replicate.
        if means != sorted(means):
            problems.append(f"sweep.csv: giant_mean decreases in p: {means}")
        if float(rows[0]["giant_std"]) != 0 or float(rows[-1]["giant_std"]) != 0:
            problems.append("sweep.csv: giant_std is not 0 at p=0 and p=1")
        for r in rows:
            value = host.rho_star * host.max_degree * float(r["p"])
            if int(r["seed_count"]) != self.seeds_per or not close(float(r["condition_value"]), value):
                problems.append(f"sweep.csv p={r['p']}: seed_count or condition_value")
            if (r["condition_ok"] == "true") != (value < 1.0):
                problems.append(f"sweep.csv p={r['p']}: condition_ok")
        return problems

    def check_balls(self, run_dir: Path, cay: Graph) -> list[str]:
        rows = read_csv(run_dir / "balls.csv")
        balls, summary = rows[:-1], rows[-1]
        if [int(r["vertex"]) for r in balls] != list(range(cay.n)) or summary["kind"] != "summary":
            return ["balls.csv: one ball row per vertex, then a summary row"]
        sizes = (cay.dist <= self.radius).sum(axis=1)
        # The Cayley graph is vertex-transitive, so every ball is isomorphic to
        # the ball around vertex 0.
        ball = np.flatnonzero(cay.dist[0] <= self.radius)
        sub = cay.adj[ball][:, ball]
        gap = 1.0 - oracles.walk_spectrum(sub)[0]
        h = ""
        if 3 <= len(ball) <= 16:  # the balls command's default --exact-limit
            edges = np.column_stack(sp.triu(sub, k=1).nonzero())
            h = fraction_cell(oracles.exact_expansion(len(ball), edges)[0])
        for r in balls:
            v = int(r["vertex"])
            if int(r["ball_size"]) != sizes[v] or not close(float(r["gap"]), gap) or r["h_exact"] != h:
                return [f"balls.csv vertex {v}: {r} != size {sizes[v]}, gap {gap}, h {h}"]
        if not (close(float(summary["min_gap"]), gap) and close(float(summary["median_gap"]), gap)
                and summary["min_h_exact"] == h):
            return [f"balls.csv summary {summary} != gap {gap}, h {h}"]
        return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Probe(
            families=(
                "random-regular:n=256,d=4,seed=1",
                "random-regular:n=1024,d=4,seed=1",
                "power:k=2,inner=(random-regular:n=256,d=4,seed=1)",
                "power:k=2,inner=(random-regular:n=1024,d=4,seed=1)",
                "cayley:recipe=elementary,p=5",
                "cayley:recipe=elementary,p=7",
                "cayley:recipe=elementary,p=11",
            ),
            ratios=(0.1, 0.25, 0.5),
            budget=300,
        ),
        Tower(towers=((3, 3), (5, 2))),
        SweepMeasure(
            host="random-regular:n=1024,d=4,seed=7",
            cayley="cayley:recipe=elementary,p=11",
            small="random-regular:n=22,d=3,seed=1",
            small_n=22,
            grid=tuple(round(0.1 * i, 1) for i in range(11)),
            seeds_per=40,
            radius=3,
        ),
    )
}

MINIATURES: dict[str, Workload] = {
    w.name: w
    for w in (
        Probe(
            families=(
                "random-regular:n=64,d=4,seed=1",
                "power:k=2,inner=(random-regular:n=64,d=4,seed=1)",
                "cayley:recipe=elementary,p=5",
            ),
            ratios=(0.25, 0.5),
            budget=20,
        ),
        Tower(towers=((3, 2), (5, 1))),
        SweepMeasure(
            host="random-regular:n=128,d=4,seed=7",
            cayley="cayley:recipe=elementary,p=5",
            small="random-regular:n=12,d=3,seed=1",
            small_n=12,
            grid=(0.0, 0.5, 1.0),
            seeds_per=4,
            radius=2,
        ),
    )
}
