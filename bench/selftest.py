"""Quick self-test of the benchmark: oracles on known values, then a miniature
of every workload through the same harness.

    python3 bench/selftest.py

Exits 0 when everything holds; prints each failure otherwise. Takes well
under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from fractions import Fraction

import numpy as np

import run  # sets the one-thread BLAS environment before numpy starts its pool
import oracles
from workloads import MINIATURES, SANOV

FAILURES: list[str] = []


def expect(label: str, got, want) -> None:
    ok = math.isclose(got, want, abs_tol=1e-12) if isinstance(want, float) else got == want
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {got!r}" + ("" if ok else f" (want {want!r})"))
    if not ok:
        FAILURES.append(label)


def graph(n: int, edges) -> tuple[int, np.ndarray]:
    return n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def cycle(n: int):
    return graph(n, [(i, (i + 1) % n) if i + 1 < n else (0, i) for i in range(n)])


def complete(n: int):
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph(10, [(min(e), max(e)) for e in outer + spokes + inner])


def check_oracles() -> None:
    n, edges = petersen()
    a = oracles.adjacency(n, edges)
    expect("Petersen girth", oracles.girth(a), 5.0)
    expect("Petersen diameter", oracles.diameter(oracles.distance_matrix(a)), 2.0)
    expect("Petersen girth from one root (vertex-transitive)", oracles.girth(a, roots=[3]), 5.0)
    for n in (5, 8, 11):
        lam2, _ = oracles.walk_spectrum(oracles.adjacency(*cycle(n)))
        expect(f"C_{n} gap = 1 - cos(2 pi / n)", 1.0 - lam2, 1.0 - math.cos(2 * math.pi / n))
        expect(f"C_{n} girth", oracles.girth(oracles.adjacency(*cycle(n))), float(n))
    # h minimises over 0 < |S| < n/2 (strictly), the convention expanderlab
    # documents; K_4 then has h = 3 (it is 1 if |S| = n/2 is admitted).
    expect("K_4 (h, conductance)", oracles.exact_expansion(*complete(4)), (Fraction(3), Fraction(2, 3)))
    expect("C_6 h", oracles.exact_expansion(*cycle(6))[0], Fraction(1))
    expect("C_8 h", oracles.exact_expansion(*cycle(8))[0], Fraction(2, 3))
    star = graph(5, [(0, i) for i in range(1, 5)])
    expect("star K_1,4 h", oracles.exact_expansion(*star)[0], Fraction(1, 2))
    expect("path girth (forest)", oracles.girth(oracles.adjacency(*graph(4, [(0, 1), (1, 2), (2, 3)]))), math.inf)
    expect("|SL(2, Z/3Z)| via Sanov pair", oracles.sl2_cayley(3, SANOV).shape[0], oracles.sl2_order(3, 1))
    expect("|SL(2, Z/9Z)| via Sanov pair", oracles.sl2_cayley(9, SANOV).shape[0], 648)
    cay = oracles.sl2_cayley(5, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
    expect("SL(2, Z/5Z) elementary Cayley graph: order", cay.shape[0], 120)
    expect("SL(2, Z/5Z) elementary Cayley graph: degrees", set(cay.sum(axis=1).A1), {4.0})
    lam2 = oracles.walk_lambda2_sparse(oracles.adjacency(*cycle(12)))
    expect("C_12 lambda2 by Lanczos", lam2, math.cos(2 * math.pi / 12))


def check_miniatures() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    env = run.child_env()
    for name, workload in MINIATURES.items():
        run_dir = run.OUT_DIR / f"selftest-{name}"
        try:
            run.prepare(workload, run_dir, env)
            result = run.run_untraced(workload, 5, 0.0, run_dir, env)
            expect(f"{name} miniature: problems", result["problems"], [])
            expect(f"{name} miniature: failed", result["failed"], 0)
            expect(f"{name} miniature: end-to-end metrics missing or extra",
                   sorted(set(result["metrics"]) ^ end_to_end), [])
            # A check that cannot fail shows nothing: damage one output.
            target = run_dir / workload.outputs[0]
            target.write_text(target.read_text().replace("0.", "0.9", 1))
            caught = [p for p in run.check(workload, run_dir, 5) if "SHA-256" not in p]
            expect(f"{name} miniature: damaged {workload.outputs[0]} is caught by an oracle",
                   bool(caught), True)
            traced = run.run_traced(workload, 5, run_dir, env, run_dir / "trace.json")
            expect(f"{name} miniature traced: problems", traced["problems"], [])
            expect(f"{name} miniature traced: per-layer metrics missing or extra",
                   sorted(set(traced["metrics"]) ^ per_layer), [])
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    check_oracles()
    check_miniatures()
    if FAILURES:
        print(f"{len(FAILURES)} failed: {FAILURES}")
        return 1
    print("all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
