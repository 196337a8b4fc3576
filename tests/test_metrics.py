import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import expanderlab
from expanderlab import builders, graphcore, metrics, search
from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import edge_subgraph, from_edges
from expanderlab.metrics import (
    UNBOUNDED,
    ball_expansion_profile,
    cheeger_exact,
    conductance_exact,
    diameter,
    exact_h,
    girth,
    measure,
    spectrum,
    _extreme_iterative,
    _extremes_dense,
)
from oracles import (
    ScalarStream,
    bfs_distances,
    brute_cheeger,
    brute_conductance,
    cheeger_dp,
    conductance_dp,
    diameter_floyd,
    diameter_per_source,
    girth_by_edge_removal,
    random_connected_graph,
    walk_matrix_dense,
)


def cycle(n):
    return builders.named_graph("cycle", n)


def complete(n):
    return builders.named_graph("complete", n)


def star(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestCheegerExact:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle(6), Fraction(1)),
            (cycle(8), Fraction(2, 3)),
            (complete(4), Fraction(3)),
            (complete(8), Fraction(5, 3)),
            (star(4), Fraction(1, 2)),
        ],
        ids=["C6", "C8", "K4", "K8", "star5"],
    )
    def test_reference_values(self, graph, expected):
        assert cheeger_exact(graph) == expected

    def test_matches_independent_oracle(self):
        for seed in range(30):
            n = 3 + seed % 10  # up to n=12
            g = random_connected_graph(n, 400 + seed, extra_edges=seed % 8)
            assert cheeger_exact(g) == brute_cheeger(g)

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            cheeger_exact(from_edges(2, [(0, 1)]))

    def test_refused_above_table_limit_whatever_max_n(self):
        # the 2^n tables are never allocated: 4 * 2^40 bytes would be 4 TiB
        g = random_connected_graph(40, 2, extra_edges=20)
        with pytest.raises(ComputationRefused, match=f"needs {4 << 40} bytes"):
            cheeger_exact(g)
        with pytest.raises(ComputationRefused, match=f"needs {4 << 40} bytes"):
            conductance_exact(g)

    def test_disconnected_small_component_gives_zero(self):
        # triangle + C4: the triangle is admissible (3 < 3.5) with empty boundary
        g = from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        assert cheeger_exact(g) == 0

    def test_connected_is_positive(self):
        for seed in range(10):
            g = random_connected_graph(9, 500 + seed, extra_edges=3)
            assert cheeger_exact(g) > 0

    def test_exact_h_size_rule(self):
        # h only for 3 <= n <= limit, both ends included
        assert exact_h(from_edges(2, [(0, 1)]), 10) is None
        assert exact_h(cycle(3), 10) == cheeger_exact(cycle(3)) == 2
        assert exact_h(cycle(8), 8) == cheeger_exact(cycle(8))
        assert exact_h(cycle(9), 8) is None


class TestConductanceExact:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle(6), Fraction(1, 3)),
            (from_edges(2, [(0, 1)]), Fraction(1)),
            (cycle(4), Fraction(1, 2)),
        ],
        ids=["C6", "K2", "C4"],
    )
    def test_reference_values(self, graph, expected):
        assert conductance_exact(graph) == expected

    def test_matches_independent_oracle(self):
        for seed in range(20):
            n = 4 + seed % 8
            g = random_connected_graph(n, 700 + seed, extra_edges=seed % 6)
            assert conductance_exact(g) == brute_conductance(g)

    def test_disconnected_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            conductance_exact(g)


class TestSubsetTables:
    """The numpy subset tables against set enumeration and the per-subset loops."""

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(st.data(), st.integers(2, 12), st.booleans(), st.sampled_from([1, 8, 64, 1 << 16]))
    def test_matches_brute_force(self, data, n, spanning, chunk):
        # disconnected graphs and isolated vertices included for h; chunks
        # below 2^n split the subsets into several passes
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        )
        if spanning:
            pairs += [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        g = from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
        with mock.patch.object(metrics, "SUBSET_CHUNK", chunk):
            if n >= 3:
                assert cheeger_exact(g) == brute_cheeger(g)
            if graphcore.is_connected(g):
                assert conductance_exact(g) == brute_conductance(g)

    @pytest.mark.parametrize(
        "g",
        [
            builders.random_regular(17, 4, 3),
            builders.random_regular(18, 3, 5),
            random_connected_graph(18, 6, extra_edges=5),
            from_edges(18, [(i, i + 1) for i in range(7)] + [(9, 10), (10, 11), (9, 11)]),
        ],
        ids=["rr17", "rr18", "tree18", "paths-and-isolated18"],
    )
    def test_matches_per_subset_loops_across_chunks(self, g):
        assert 1 << g.n >= 2 * metrics.SUBSET_CHUNK  # two chunks or more
        assert cheeger_exact(g) == cheeger_dp(g)
        if graphcore.is_connected(g):
            assert conductance_exact(g) == conductance_dp(g)

    def test_peak_memory_is_the_tables_plus_a_chunk(self):
        g = builders.random_regular(20, 3, 1)
        tables = 4 << g.n  # 4 bytes per subset: uint32 for h, two uint16 for conductance
        for fn in (cheeger_exact, conductance_exact):
            fn(g)  # first-call allocations stay out of the measured run
            tracemalloc.start()
            try:
                fn(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tables + 32 * metrics.SUBSET_CHUNK, fn.__name__


class TestSpectrum:
    def test_k4_closed_form(self):
        s = spectrum(complete(4))
        assert abs(s.lambda2 - (-1 / 3)) < 1e-9
        assert abs(s.rho_star - 1 / 3) < 1e-9
        assert abs(s.gap - 4 / 3) < 1e-9

    def test_c4_bipartite(self):
        s = spectrum(cycle(4))
        assert abs(s.lambda2 - 0.0) < 1e-9
        assert abs(s.rho_star - 1.0) < 1e-9

    def test_k2(self):
        s = spectrum(from_edges(2, [(0, 1)]))
        assert abs(s.lambda2 - (-1.0)) < 1e-9
        assert abs(s.gap - 2.0) < 1e-9
        assert abs(s.rho_star - 1.0) < 1e-9

    def test_cn_cosine_closed_form(self):
        for n in (5, 8, 11):
            s = spectrum(cycle(n))
            lams = sorted(math.cos(2 * math.pi * k / n) for k in range(n))
            assert abs(s.lambda2 - lams[-2]) < 1e-9
            assert abs(s.rho_star - max(abs(lams[0]), abs(lams[-2]))) < 1e-9

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            spectrum(from_edges(4, [(0, 1), (2, 3)]))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.integers(2, 60), st.integers(0, 2**32), st.integers(0, 120))
    def test_dense_path_equals_loop_built_matrix(self, n, seed, extra):
        # the same matrix entries give eigvalsh the same input, so equality is exact
        g = random_connected_graph(n, seed, extra_edges=extra)
        w = np.linalg.eigvalsh(walk_matrix_dense(g))
        assert _extremes_dense(g) == (float(w[-2]), float(w[0]))

    def test_iterative_path_matches_dense(self):
        for seed, extra in ((0, 40), (1, 80)):
            g = random_connected_graph(60, 800 + seed, extra_edges=extra)
            lam2_d, lamn_d = _extremes_dense(g)
            lam2_i, lamn_i = _extreme_iterative(g, "LA"), _extreme_iterative(g, "SA")
            assert abs(lam2_d - lam2_i) < 1e-8
            assert abs(lamn_d - lamn_i) < 1e-8


@st.composite
def _connected_graphs(draw):
    """Connected graphs on 3..100 vertices: random, regular (the uniform
    vector is v1), bipartite (lambda_n = -1), complete, cycles and stars
    (high multiplicities; a star's degrees take the reduceat matvec)."""
    kind = draw(st.sampled_from(["random", "regular", "bipartite", "complete", "cycle", "star"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "regular":
        d = draw(st.integers(3, 4))
        g = builders.random_regular(draw(st.integers(5, 50)) * 2, d, seed)
        assume(graphcore.is_connected(g))
        return g
    n = draw(st.integers(3, 100))
    if kind == "random":
        return random_connected_graph(n, seed, extra_edges=draw(st.integers(0, 3 * n)))
    if kind == "bipartite":
        tree = random_connected_graph(n, seed)
        side = [dist % 2 for dist in bfs_distances(tree.adj, 0)]
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        chords = {(min(u, v), max(u, v)) for u, v in pairs if side[u] != side[v]}
        return from_edges(n, tree.edge_set() | chords)
    return {"complete": complete, "cycle": cycle, "star": lambda n: star(n - 1)}[kind](n)


def _build(spec):
    return builders.build_family(builders.parse_family_spec(spec)).graph


RR1024 = "random-regular:n=1024,d=4,seed=1"

_SPECTRUM_HEX = """
from expanderlab import builders, metrics
g = builders.build_family(builders.parse_family_spec({spec!r})).graph
s = metrics.spectrum(g)
print(s.lambda2.hex(), s.rho_star.hex())
"""

# gap alone, or rho_star read before gap; the printed order is fixed
_READ_ORDER_HEX = """
from expanderlab import builders, metrics
g = builders.build_family(builders.parse_family_spec({spec!r})).graph
s = metrics.spectrum(g)
rho = s.rho_star.hex() if {rho_first!r} else None
print(s.gap.hex(), rho)
"""


def _run_python(code):
    env = dict(os.environ)
    src = str(Path(expanderlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def _count_solves():
    """Patch the Lanczos solver with a spy that counts calls and still solves."""
    return mock.patch.object(
        metrics, "_extreme_iterative", side_effect=metrics._extreme_iterative
    )


def _which(call):
    return call.args[1]


class TestLanczosPath:
    """Above n = 512 `spectrum` runs deterministic Lanczos: reproducible and as exact as dense."""

    def test_bit_identical_across_calls_and_processes(self):
        g = _build(RR1024)
        assert g.n > metrics._DENSE_EIGEN_LIMIT
        first, second = spectrum(g), spectrum(g)
        assert first == second
        lam2, lam_n = _extreme_iterative(g, "LA"), _extreme_iterative(g, "SA")
        assert (first.lambda2, first.rho_star) == (lam2, max(abs(lam2), abs(lam_n)))
        outputs = [_run_python(_SPECTRUM_HEX.format(spec=RR1024)) for _ in range(2)]
        assert outputs[0] == outputs[1] == f"{first.lambda2.hex()} {first.rho_star.hex()}\n"

    def test_gap_alone_runs_one_solve(self):
        g = _build(RR1024)
        with _count_solves() as spy:
            gap = spectrum(g).gap
        assert spy.call_count == 1
        assert _which(spy.call_args) == "LA"
        assert gap == 1.0 - _extreme_iterative(g, "LA")

    def test_rho_star_solved_once_on_first_read(self):
        g = _build(RR1024)
        with _count_solves() as spy:
            s = spectrum(g)
            assert spy.call_count == 1
            first = s.rho_star
            assert [_which(c) for c in spy.call_args_list] == ["LA", "SA"]
            assert s.rho_star == first
            assert spy.call_count == 2

    def test_lazy_solve_refuses_on_no_convergence(self):
        g = _build(RR1024)
        s = spectrum(g)
        assert 0 < s.gap < 1
        # one restart is too few for lambda_n here
        with mock.patch.object(metrics, "_EIGEN_MAX_RESTARTS", 1):
            with pytest.raises(ComputationRefused, match="failed to converge"):
                s.rho_star

    def test_ends_bit_identical_whatever_is_read_first(self):
        g = _build(RR1024)
        gap_only = spectrum(g).gap.hex()
        rho_first = spectrum(g)
        rho = rho_first.rho_star.hex()
        assert rho_first.gap.hex() == gap_only
        gap_then_rho = spectrum(g)
        assert gap_then_rho.gap.hex() == gap_only
        assert gap_then_rho.rho_star.hex() == rho
        assert _run_python(_READ_ORDER_HEX.format(spec=RR1024, rho_first=False)) == (
            f"{gap_only} None\n"
        )
        assert _run_python(_READ_ORDER_HEX.format(spec=RR1024, rho_first=True)) == (
            f"{gap_only} {rho}\n"
        )

    @pytest.mark.parametrize("spec", ["random-regular:n=64,d=3,seed=2", RR1024])
    @pytest.mark.parametrize("read_before", [True, False])
    def test_pickles_with_or_without_rho_star(self, spec, read_before):
        # the probe's cells carry a host's spectrum to its workers by pickle
        g = _build(spec)
        s = spectrum(g)
        if read_before:
            s.rho_star
        back = pickle.loads(pickle.dumps(s))
        assert ("rho_star" in vars(back)) == read_before  # the cached value travels
        assert back.lambda2.hex() == s.lambda2.hex()
        assert back.rho_star.hex() == s.rho_star.hex()

    def test_no_command_imports_scipy(self, tmp_path):
        # a measure on the Lanczos path (n > 512) solves both ends without scipy
        host, report = str(tmp_path / "g.el"), str(tmp_path / "g.json")
        code = f"""
import sys
from expanderlab import cli
assert cli.main(["gen", {RR1024!r}, "-o", {host!r}]) == 0
assert cli.main(["measure", {host!r}, "-o", {report!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
"""
        assert _run_python(code) == "[]\n"
        assert json.loads(Path(report).read_text())["rho_star"] is not None

    @pytest.mark.parametrize(
        "g, padded",
        [
            (cycle(30), True),
            (random_connected_graph(40, 1, extra_edges=60), True),  # max degree 8, mean 4.95
            (random_connected_graph(40, 5, extra_edges=30), False),  # max degree 8, mean 3.45
            (star(29), False),
        ],
        ids=["C30", "random-padded", "random-reduceat", "star"],
    )
    def test_walk_matvec_matches_dense_operator(self, g, padded):
        # both neighbour-sum paths: the padded table where it at most doubles
        # the entries, else reduceat (a star would pad to n^2)
        deg = np.array([len(a) for a in g.adj])
        assert (deg.max() * g.n <= 2 * deg.sum()) == padded
        m = walk_matrix_dense(g)
        v1 = np.sqrt(deg / deg.sum())
        x = np.cos(np.arange(g.n))
        for deflate, op in ((False, m), (True, m - 2.0 * np.outer(v1, v1))):
            matvec, top = metrics._walk_matvec(g, deflate)
            assert np.allclose(top, v1, rtol=0, atol=1e-15)
            assert np.allclose(matvec(x), op @ x, rtol=0, atol=1e-14)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_connected_graphs())
    def test_small_graphs_match_dense_within_1e12(self, g):
        dense = _extremes_dense(g)
        assert abs(_extreme_iterative(g, "LA") - dense[0]) < 1e-12
        assert abs(_extreme_iterative(g, "SA") - dense[1]) < 1e-12

    @pytest.mark.parametrize(
        "g",
        [complete(90), from_edges(90, [(u, v) for u in range(40) for v in range(40, 90)])],
        ids=["K90", "K40,50"],
    )
    def test_breakdown_goes_on_with_fixed_vectors(self, g):
        # both Krylov spaces are invariant after a step or two, far short of
        # the 64-vector basis: the basis goes on from fixed vectors sin(s*i)
        with mock.patch.object(np, "sin", side_effect=np.sin) as fixed:
            ends = _extreme_iterative(g, "LA"), _extreme_iterative(g, "SA")
        assert fixed.call_count > 2  # more than the two start vectors
        dense = _extremes_dense(g)
        assert abs(ends[0] - dense[0]) < 1e-12
        assert abs(ends[1] - dense[1]) < 1e-12

    def test_lanczos_matches_dense_within_1e12(self):
        hosts = [
            _build(RR1024),
            _build("cayley:recipe=elementary,p=11"),
            _build("random-regular:n=600,d=3,seed=2"),
            _build(f"power:k=2,inner=({RR1024})"),
        ]
        graphs = list(hosts)
        for host, strategy in ((hosts[0], "percolate-repair"), (hosts[1], "trim"),
                               (hosts[2], "percolate-repair")):
            res = search.search_spanning_subexpander(
                host, ratio=0.5, strategy=strategy, budget=40, seed=3
            )
            assert res.connected
            graphs.append(res.graph)
        for g in graphs:
            assert metrics._DENSE_EIGEN_LIMIT < g.n <= 1320
            dense = _extremes_dense(g)
            lanczos = _extreme_iterative(g, "LA"), _extreme_iterative(g, "SA")
            assert abs(dense[0] - lanczos[0]) < 1e-12
            assert abs(dense[1] - lanczos[1]) < 1e-12


class TestGirth:
    def test_references(self):
        assert girth(cycle(5)) == 5
        assert girth(complete(4)) == 3
        assert girth(builders.named_graph("petersen")) == 5

    def test_tree_unbounded(self):
        tree = random_connected_graph(12, 1, extra_edges=0)
        assert girth(tree) == UNBOUNDED

    def test_matches_edge_removal_oracle(self):
        for seed in range(30):
            g = random_connected_graph(12, 900 + seed, extra_edges=seed % 9)
            assert girth(g) == girth_by_edge_removal(g)

    def test_never_decreases_under_deletion(self):
        stream = ScalarStream(42)
        for seed in range(15):
            g = random_connected_graph(12, 1000 + seed, extra_edges=6)
            keep = [e for e in g.edges() if stream.uniform() < 0.7]
            sub = edge_subgraph(g, keep)
            assert girth(sub) >= girth(g)


class TestDiameter:
    def test_references(self):
        assert diameter(cycle(8)) == 4
        assert diameter(builders.named_graph("petersen")) == 2
        assert diameter(from_edges(1, [])) == 0

    def test_disconnected_sentinel(self):
        assert diameter(from_edges(4, [(0, 1), (2, 3)])) == UNBOUNDED

    def test_matches_floyd_warshall(self):
        for seed in range(15):
            g = random_connected_graph(11, 1100 + seed, extra_edges=seed % 7)
            assert diameter(g) == diameter_floyd(g)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data(), st.integers(1, 18), st.sampled_from([1, 3, 8, 4096]))
    def test_matches_per_source_bfs(self, data, n, block):
        # n = 1 and disconnected graphs included; blocks below n split the sources
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
        g = from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
        with mock.patch.object(graphcore, "REACH_BLOCK", block):
            assert diameter(g) == diameter_per_source(g)

    def test_never_shrinks_under_deletion(self):
        stream = ScalarStream(7)
        for seed in range(15):
            g = random_connected_graph(12, 1200 + seed, extra_edges=8)
            keep = [e for e in g.edges() if stream.uniform() < 0.8]
            sub = edge_subgraph(g, keep)
            from expanderlab.graphcore import is_connected

            if is_connected(sub):
                assert diameter(sub) >= diameter(g)


class TestCheegerSandwich:
    def test_sandwich_on_random_graphs(self):
        for seed in range(15):
            n = 4 + seed % 13
            g = random_connected_graph(n, 1300 + seed, extra_edges=seed % 10)
            phi = float(conductance_exact(g))
            lam2 = spectrum(g).lambda2
            assert (1 - lam2) / 2 <= phi + 1e-9
            assert phi <= math.sqrt(2 * (1 - lam2)) + 1e-9


class TestBallProfile:
    def test_c10_r2(self):
        rows, summary = ball_expansion_profile(cycle(10), 2)
        assert all(r.ball_size == 5 for r in rows)
        assert summary.min_h_exact == Fraction(1, 2)

    def test_radius_covers_graph(self):
        g = builders.named_graph("petersen")
        rows, _ = ball_expansion_profile(g, 2)  # diameter 2
        whole = spectrum(g).gap
        assert all(r.ball_size == 10 for r in rows)
        assert all(abs(r.gap - whole) < 1e-9 for r in rows)

    def test_petersen_r1_stars(self):
        rows, summary = ball_expansion_profile(builders.named_graph("petersen"), 1)
        assert all(r.ball_size == 4 for r in rows)
        assert summary.min_h_exact == Fraction(1)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ball_expansion_profile(cycle(5), 0)


class TestMeasureReport:
    def test_connected_report(self):
        rep = measure(cycle(8), exact_max=24)
        assert (rep.n, rep.m, rep.max_degree) == (8, 8, 2)
        assert rep.h_exact == Fraction(2, 3)
        assert rep.girth == 8 and rep.diameter == 4
        # the JSON encoding of the same report: tests/test_cli.py::TestMeasure

    def test_tree_report_flags(self):
        tree = random_connected_graph(9, 3)
        assert measure(tree, exact_max=24).girth == UNBOUNDED  # written as null plus a flag, see test_cli

    def test_disconnected_report(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rep = measure(g, exact_max=24)
        assert rep.lambda2 is None and rep.gap is None
        assert rep.diameter == UNBOUNDED  # written as null plus a flag, see test_cli

    def test_exact_fields_absent_above_cap(self):
        g = random_connected_graph(30, 5, extra_edges=10)
        rep = measure(g, exact_max=24)
        assert rep.h_exact is None and rep.conductance is None
        assert rep.lambda2 is not None
