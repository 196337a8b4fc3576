"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria with stated wall-clock budgets assert them.
"""

import json
import math
import time
from fractions import Fraction

from expanderlab import cli, metrics
from expanderlab.builders import named_graph, random_regular
from expanderlab.graphcore import from_edges, is_connected, save_graph
from expanderlab.matgroups import girth_tower_report
from expanderlab.metrics import UNBOUNDED
from expanderlab.percolation import condition_check, percolate
from expanderlab.search import (
    STRATEGIES,
    reconnect_repair,
    search_spanning_subexpander,
    trim_to_girth,
)
from oracles import (
    brute_cheeger,
    random_connected_graph,
    spanning_girth_feasible,
)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} — {detail} [{elapsed:.2f}s]")


def test_criterion_01_exact_expansion_oracle():
    t0 = time.time()
    star5 = from_edges(5, [(0, i) for i in range(1, 5)])
    cases = [
        (named_graph("cycle", 6), Fraction(1)),
        (named_graph("cycle", 8), Fraction(2, 3)),
        (named_graph("complete", 4), Fraction(3)),
        (named_graph("complete", 8), Fraction(5, 3)),
        (star5, Fraction(1, 2)),
    ]
    ok = True
    for g, expected in cases:
        value = metrics.cheeger_exact(g)
        ok = ok and value == expected == brute_cheeger(g)
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, "exact expansion oracle", ok, "5 reference values, rational equality", elapsed)
    assert ok


def test_criterion_02_cheeger_sandwich():
    t0 = time.time()
    failures = []
    for i in range(50):
        n = 4 + i % 13
        g = random_connected_graph(n, 5000 + i, extra_edges=(i * 3) % 12)
        phi = float(metrics.conductance_exact(g))
        lam2 = metrics.spectrum(g).lambda2
        lower = (1 - lam2) / 2
        upper = math.sqrt(2 * (1 - lam2))
        if not (lower <= phi + 1e-9 and phi <= upper + 1e-9):
            failures.append((i, lower, phi, upper))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    _report(2, "Cheeger sandwich", ok, f"50 graphs n<=16, {len(failures)} violations", elapsed)
    assert ok, failures


def test_criterion_03_girth_diameter_oracles():
    t0 = time.time()
    ok = metrics.girth(named_graph("petersen")) == 5
    ok = ok and metrics.diameter(named_graph("petersen")) == 2
    for n in range(5, 13):
        c = named_graph("cycle", n)
        ok = ok and metrics.girth(c) == n and metrics.diameter(c) == n // 2
    for seed in (1, 2, 3):
        tree = random_connected_graph(11, seed, extra_edges=0)
        ok = ok and metrics.girth(tree) == UNBOUNDED
    elapsed = time.time() - t0
    _report(3, "girth/diameter oracles", ok, "Petersen, C5..C12, trees", elapsed)
    assert ok


def test_criterion_04_cayley_tower():
    t0 = time.time()
    rows = girth_tower_report(3, 3, recipe="sanov")
    sizes = [r.vertices for r in rows]
    girths = [r.girth for r in rows]
    ok = sizes == [24, 648, 17496]
    ok = ok and all(girths[i] <= girths[i + 1] for i in range(2))
    ok = ok and girths[2] > girths[0]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(4, "Cayley tower", ok, f"sizes={sizes}, girths={girths}", elapsed)
    assert ok


def test_criterion_05_expander_family_measurement(tmp_path):
    t0 = time.time()
    gaps = {}
    for p in (5, 7, 11, 13, 17):
        out = tmp_path / f"tower_p{p}.csv"
        code = cli.main(
            ["tower", "--p", str(p), "--levels", "1", "--recipe", "elementary",
             "-o", str(out)]
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        gaps[p] = float(cells["gap"])
    elapsed = time.time() - t0
    ok = all(g > 0 for g in gaps.values()) and elapsed < 60.0
    detail = ", ".join(f"p={p}: {g:.4f}" for p, g in gaps.items())
    _report(5, "expander family gaps", ok, detail, elapsed)
    assert ok, gaps


def test_criterion_06_percolation_calibration():
    t0 = time.time()
    host = random_regular(50, 4, seed=11)  # exactly 100 edges
    assert host.m == 100
    edges = list(host.edges())
    counts = dict.fromkeys(edges, 0)
    n_samples = 10_000
    for i in range(n_samples):
        for e in percolate(host, 0.3, i).edges():
            counts[e] += 1
    band = 4 * math.sqrt(0.3 * 0.7 / n_samples)
    worst = max(abs(c / n_samples - 0.3) for c in counts.values())
    ok = worst <= band

    for seed in range(50):
        lo = percolate(host, 0.25, seed).edge_set()
        mid = percolate(host, 0.5, seed).edge_set()
        hi = percolate(host, 0.9, seed).edge_set()
        ok = ok and lo <= mid <= hi
    ok = ok and percolate(host, 0.0, 3).edge_set() == frozenset()
    ok = ok and percolate(host, 1.0, 3) == host

    k4 = condition_check(named_graph("complete", 4), 0.9)
    c4 = condition_check(named_graph("cycle", 4), 0.6)
    ok = ok and abs(k4.value - (1 / 3) * 3 * 0.9) < 1e-9 and k4.satisfied
    ok = ok and abs(c4.value - 1 * 2 * 0.6) < 1e-9 and not c4.satisfied
    elapsed = time.time() - t0
    _report(
        6, "percolation calibration", ok,
        f"worst marginal dev {worst:.5f} <= {band:.5f}; coupling + endpoints exact",
        elapsed,
    )
    assert ok


def test_criterion_07_trimming_contract():
    t0 = time.time()
    hosts = [random_regular(64, 4, seed=s) for s in range(500)]
    assert all(is_connected(h) for h in hosts)
    violations = 0
    for h in hosts:
        for t in range(4, 9):
            out = trim_to_girth(h, t)
            gv = metrics.girth(out)
            if out.n != h.n or not is_connected(out) or not (gv == UNBOUNDED or gv >= t):
                violations += 1
    repair_violations = 0
    for i, h in enumerate(hosts):
        sub = percolate(h, 0.5, i)
        before = metrics.girth(sub)
        after = metrics.girth(reconnect_repair(h, sub))
        if before != after:
            repair_violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and repair_violations == 0
    _report(
        7, "trimming contract", ok,
        f"2500 trim runs, {violations} violations; 500 repairs, "
        f"{repair_violations} girth changes",
        elapsed,
    )
    assert ok


def _small_host_suite():
    hosts = []
    for n, t in ((5, 6), (6, 4), (7, 8), (8, 5), (9, 9), (10, 4)):
        hosts.append((f"C{n}", named_graph("cycle", n), t))
    hosts.append(("K4", named_graph("complete", 4), 4))
    hosts.append(("K5", named_graph("complete", 5), 5))
    hosts.append(("Petersen-t5", named_graph("petersen"), 5))
    hosts.append(("Petersen-t6", named_graph("petersen"), 6))
    k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    hosts.append(("K33", k33, 6))
    cube = from_edges(
        8, [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    )
    hosts.append(("Q3", cube, 6))
    targets = (4, 5, 6)
    added = 0
    seed = 0
    while added < 8:
        g = random_regular(10 if added % 2 else 8, 3, seed=6000 + seed)
        seed += 1
        if not is_connected(g):
            continue
        hosts.append((f"rr{g.n}-{seed}", g, targets[added % 3]))
        added += 1
    return hosts


def test_criterion_08_small_instance_search_oracle():
    t0 = time.time()
    suite = _small_host_suite()
    assert len(suite) == 20
    failures = []
    for name, host, t in suite:
        feasible = spanning_girth_feasible(host, t)
        found = False
        for strategy in STRATEGIES:
            res = search_spanning_subexpander(
                host, girth_target=t, strategy=strategy, budget=100_000, seed=42
            )
            if res.connected and (
                res.girth_achieved == UNBOUNDED or res.girth_achieved >= t
            ):
                found = True
                break
        if feasible and not found:
            failures.append((name, t))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    _report(
        8, "small-instance search oracle", ok,
        f"20 hosts, exhaustive feasibility vs strategies; failures: {failures}",
        elapsed,
    )
    assert ok


PROBE_CSV_HEADER = (
    "family,instance,n,m,d,host_gap,host_h_exact,diameter,c,girth_target,"
    "strategy,best_girth,best_gap,best_h_exact,ratio_achieved,success,"
    "degenerate_diameter,seed"
)


def test_criterion_09_probe_end_to_end(tmp_path):
    t0 = time.time()
    out_dir = tmp_path / "probe"
    argv = [
        "probe",
        "--family", "random-regular:n=256,d=4,seed=1",
        "--family", "random-regular:n=1024,d=4,seed=1",
        "--family", "power:k=2,inner=(random-regular:n=256,d=4,seed=1)",
        "--family", "power:k=2,inner=(random-regular:n=1024,d=4,seed=1)",
        "--family", "cayley:recipe=elementary,p=5",
        "--family", "cayley:recipe=elementary,p=7",
        "--family", "cayley:recipe=elementary,p=11",
        "--ratios", "0.1,0.25,0.5",
        "--strategies", "all",
        "--budget", "300",
        "--seed", "7",
        "--out-dir", str(out_dir),
    ]
    assert cli.main(argv) == 0
    csv_path = out_dir / "probe.csv"
    json_path = out_dir / "probe_summary.json"
    lines = csv_path.read_text().splitlines()
    ok = lines[0] == PROBE_CSV_HEADER
    ok = ok and len(lines) == 1 + 7 * 3  # one row per instance x ratio
    summary = json.loads(json_path.read_text())
    families = {f["family"] for f in summary["families"]}
    ok = ok and len(families) == 5  # squares fold into their base families
    ok = ok and all(
        len(f["per_ratio"]) == 3 and all("min_gap" in pr for pr in f["per_ratio"])
        for f in summary["families"]
    )

    before_csv = csv_path.read_bytes()
    before_json = json_path.read_bytes()
    assert cli.main(["rerun", str(out_dir / "manifest.json")]) == 0
    ok = ok and csv_path.read_bytes() == before_csv
    ok = ok and json_path.read_bytes() == before_json
    elapsed = time.time() - t0
    ok = ok and elapsed < 900.0
    _report(
        9, "conjecture probe end-to-end", ok,
        f"{len(lines) - 1} rows, {len(families)} families, manifest rerun byte-identical",
        elapsed,
    )
    assert ok


def test_criterion_10_ball_profile(tmp_path):
    t0 = time.time()
    c10 = tmp_path / "c10.el"
    save_graph(named_graph("cycle", 10), c10)
    out1 = tmp_path / "balls_c10.csv"
    assert cli.main(["balls", str(c10), "--radius", "2", "-o", str(out1)]) == 0
    summary1 = out1.read_text().splitlines()[-1].split(",")
    ok = summary1[0] == "summary" and summary1[7] == "1/2"

    cay = tmp_path / "sl2_7.el"
    assert cli.main(["gen", "cayley:recipe=elementary,p=7", "-o", str(cay)]) == 0
    out2 = tmp_path / "balls_sl27.csv"
    assert cli.main(["balls", str(cay), "--radius", "2", "-o", str(out2)]) == 0
    summary2 = out2.read_text().splitlines()[-1].split(",")
    min_gap = float(summary2[5])
    ok = ok and min_gap > 0
    elapsed = time.time() - t0
    _report(
        10, "ball profile", ok,
        f"C10 min ball h = {summary1[7]}, SL(2,7) min ball gap = {min_gap:.4f}",
        elapsed,
    )
    assert ok
