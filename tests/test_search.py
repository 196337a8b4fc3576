import math
import multiprocessing
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expanderlab import builders, graphcore, search
from expanderlab.builders import graph_power, named_graph, parse_family_spec, random_regular
from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import edge_subgraph, from_edges, is_connected, shortest_cycle_scan
from expanderlab.metrics import UNBOUNDED, girth, spectrum
from expanderlab.percolation import percolate
from expanderlab.rng import split
from expanderlab.search import (
    STRATEGIES,
    _far_candidates,
    augment_edges,
    conjecture_probe,
    reconnect_repair,
    search_spanning_subexpander,
    trim_to_girth,
)
from oracles import (
    ReadRows,
    augment_edges_reference,
    bfs_distances,
    random_connected_graph,
    trim_to_girth_reference,
)


def cycle(n):
    return named_graph("cycle", n)


def spanning_path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def shortest_cycle(g):
    """One shortest cycle, as the scan returns it."""
    found = shortest_cycle_scan(g.adj)
    return None if found is None else found[1]


class TestShortestCycle:
    def test_c5_unique_cycle(self):
        cyc = shortest_cycle(cycle(5))
        assert sorted(cyc) == [0, 1, 2, 3, 4]
        assert len(cyc) == 5

    def test_tree_none(self):
        assert shortest_cycle(random_connected_graph(10, 1)) is None

    def test_k4_triangle(self):
        cyc = shortest_cycle(named_graph("complete", 4))
        assert len(cyc) == 3

    def test_length_matches_girth(self):
        for seed in range(20):
            g = random_connected_graph(12, 3000 + seed, extra_edges=2 + seed % 6)
            cyc = shortest_cycle(g)
            assert len(cyc) == girth(g)
            # consecutive vertices really are edges
            for i in range(len(cyc)):
                assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])

    def test_deterministic(self):
        g = random_connected_graph(12, 77, extra_edges=6)
        assert shortest_cycle(g) == shortest_cycle(g)


class TestTrim:
    def test_already_meets_target(self):
        g = cycle(6)
        assert trim_to_girth(g, 6) == g

    def test_k4_to_girth4(self):
        out = trim_to_girth(named_graph("complete", 4), 4)
        assert out.n == 4 and is_connected(out)
        assert girth(out) == UNBOUNDED or girth(out) >= 4

    def test_c5_to_girth6_forces_path(self):
        out = trim_to_girth(cycle(5), 6)
        assert out.m == 4 and is_connected(out)
        assert girth(out) == UNBOUNDED

    def test_target_of_three_or_less_returns_the_input(self):
        # a girth target is a lower bound, and every simple graph meets 3
        for g in (cycle(5), named_graph("complete", 4)):
            for t in (-1, 0, 1, 2, 3):
                assert trim_to_girth(g, t) == g

    def test_random_hosts_contract(self):
        for seed in range(40):
            g = random_regular(24, 4, seed=seed)
            if not is_connected(g):
                continue
            t = 4 + seed % 5
            out = trim_to_girth(g, t)
            assert out.n == g.n
            assert is_connected(out)
            gv = girth(out)
            assert gv == UNBOUNDED or gv >= t

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 18),
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.1, 0.25, 0.5]),
        st.integers(3, 12),
    )
    def test_result_is_the_validated_subgraph(self, n, seed, p, t):
        # trim freezes its working lists without from_edges; they must be the
        # graph edge_subgraph builds from the same edges, connected host or not
        rng = random.Random(seed)
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p])
        out = trim_to_girth(g, t)
        assert out == edge_subgraph(g, out.edge_set())
        assert girth(out) >= t


class TestReconnectRepair:
    def test_connected_unchanged(self):
        g = cycle(6)
        assert reconnect_repair(g, edge_subgraph(g, g.edges())).edge_set() == g.edge_set()

    def test_two_components_one_edge(self):
        g = cycle(6)
        sub = {(0, 1), (1, 2), (3, 4), (4, 5)}
        repaired = reconnect_repair(g, edge_subgraph(g, sub)).edge_set()
        assert len(repaired) == 5
        assert len(repaired - sub) == 1
        assert is_connected(edge_subgraph(g, repaired))

    def test_empty_sub_gives_spanning_tree(self):
        g = cycle(5)
        repaired = reconnect_repair(g, edge_subgraph(g, set())).edge_set()
        assert len(repaired) == 4
        assert girth(edge_subgraph(g, repaired)) == UNBOUNDED

    def test_disconnected_host_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            reconnect_repair(g, edge_subgraph(g, set()))

    def test_preserves_girth_on_percolation_outputs(self):
        for seed in range(40):
            host = random_regular(24, 4, seed=1000 + seed)
            if not is_connected(host):
                continue
            sub = percolate(host, 0.45, seed)
            before = girth(sub)
            after = girth(reconnect_repair(host, sub))
            assert before == after


class TestAugment:
    def test_no_candidates(self):
        g = cycle(5)
        assert augment_edges(g, g, 5, 10) == g

    def test_closes_c5_from_path(self):
        host = cycle(5)
        sub = {(0, 1), (1, 2), (2, 3), (3, 4)}
        out = augment_edges(host, edge_subgraph(host, sub), 5, 10).edge_set()
        assert out == host.edge_set()
        assert girth(edge_subgraph(host, out)) == 5

    def test_floor3_accepts_any_nonadjacent_pair(self):
        host = named_graph("complete", 4)
        sub = {(0, 1), (1, 2), (2, 3)}
        out = augment_edges(host, edge_subgraph(host, sub), 3, 10).edge_set()
        assert out == host.edge_set()

    def test_budget_respected(self):
        host = named_graph("complete", 6)
        path = spanning_path(6)
        out = augment_edges(host, path, 3, budget=2)
        assert out.m == path.m + 2

    def test_never_creates_short_cycle(self):
        # debug mode: replay one insertion at a time, recomputing girth after
        # each, and compare the replay with the one-shot run
        trials = 0
        seed = 0
        while trials < 100:
            host = random_regular(12 + 2 * (seed % 3), 4, seed=2000 + seed)
            seed += 1
            if not is_connected(host):
                continue
            trials += 1
            floor = 4 + seed % 4
            sub = reconnect_repair(host, percolate(host, 0.3, seed)).edge_set()
            final = augment_edges(host, edge_subgraph(host, sub), floor, budget=100).edge_set()
            added = final - sub
            current = set(sub)
            for _ in range(len(added)):
                step = augment_edges(host, edge_subgraph(host, current), floor, 1).edge_set()
                new = step - current
                assert len(new) == 1
                before = girth(edge_subgraph(host, current))
                after = girth(edge_subgraph(host, step))
                assert after >= min(before, floor)
                current = set(step)
            assert current == final

    def test_floor_of_three_or_less_adds_as_floor_three(self):
        # no candidate pair is closer than 2, so every floor up to 3 admits them all
        host = named_graph("complete", 5)
        for t in (-1, 0, 1, 2, 3):
            for budget in (1, 100):
                out = augment_edges(host, spanning_path(5), t, budget)
                assert out == augment_edges(host, spanning_path(5), 3, budget)
            assert out == host

    def test_disconnected_sub_rejected(self):
        # joining components is reconnect_repair's job
        host = cycle(6)
        sub = edge_subgraph(host, {(0, 1), (1, 2), (3, 4), (4, 5)})
        with pytest.raises(ValueError, match="connected"):
            augment_edges(host, sub, 3, 10)
        with pytest.raises(ValueError, match="connected"):
            augment_edges_reference(host, sub.edges(), 3, 10)


@st.composite
def _host_and_subset(draw):
    """A random connected host and a connected spanning subset of its edges:
    a percolated sample joined by `reconnect_repair`.

    At p = 0 the subset is the lexicographic spanning tree.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    host = random_connected_graph(
        draw(st.integers(6, 26)), seed, extra_edges=draw(st.integers(0, 40))
    )
    sample = percolate(host, draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])), seed)
    return host, reconnect_repair(host, sample).edge_set()


@st.composite
def _dense_host_and_subset(draw):
    """A host with at least 2n candidates for augment, and a connected
    spanning subset of its edges as in `_host_and_subset`.

    The host is the square of a sparse connected graph, or G(n, p >= 0.5)
    joined with a random spanning tree.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(10, 28))
    if draw(st.booleans()):
        base = random_connected_graph(n, seed, extra_edges=draw(st.integers(0, n // 2)))
        host = graph_power(base, 2)
    else:
        rng = random.Random(seed)
        p = draw(st.sampled_from([0.5, 0.7, 0.9]))
        pairs = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
        host = from_edges(n, pairs | set(random_connected_graph(n, seed).edges()))
    sample = percolate(host, draw(st.sampled_from([0.0, 0.1, 0.3])), seed)
    sub = reconnect_repair(host, sample)
    assume(len(_far_candidates(host, sub, 2)) >= 2 * n)
    return host, sub


@st.composite
def _trim_graph(draw):
    """A graph on 1-20 vertices for trim: G(n, p), often disconnected, maybe
    with a pendant tail, and maybe relabelled so that a shortest cycle runs
    through vertex 0."""
    n = draw(st.integers(1, 16))
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    pairs = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    tail = draw(st.integers(0, 4))
    if tail:
        path = [draw(st.integers(0, n - 1)), *range(n, n + tail)]
        pairs |= set(zip(path, path[1:]))
    g = from_edges(n + tail, pairs)
    found = shortest_cycle_scan(g.adj)
    if found is not None and draw(st.booleans()):
        x = draw(st.sampled_from(found[1]))
        swap = {0: x, x: 0}
        g = from_edges(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in pairs])
    return g


@st.composite
def _any_graph(draw):
    """A simple graph on 1-16 vertices: a forest, or random pairs (often disconnected)."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):  # each vertex joins an earlier one or starts a tree
        pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n) if draw(st.booleans())]
    else:
        pairs = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
    return from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


class TestGirthLowerBound:
    """A girth target is a lower bound: 3 or less is met by every simple graph."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_any_graph(), st.integers(-1, 3))
    def test_scan_stops_after_the_first_root(self, g, t):
        rows = ReadRows(g.adj)
        assert shortest_cycle_scan(rows, below=t) is None
        assert len(rows.read) <= 1

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_any_graph(), st.integers(-1, 3))
    def test_trim_returns_the_graph(self, g, t):
        assert trim_to_girth(g, t) == g

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_host_and_subset(), st.integers(-1, 3), st.integers(0, 80))
    def test_augment_adds_as_floor_three(self, host_sub, t, budget):
        host, kept = host_sub
        sub = edge_subgraph(host, kept)
        out = augment_edges(host, sub, t, budget)
        assert out == augment_edges(host, sub, 3, budget)
        assert out.edge_set() == augment_edges_reference(host, kept, t, budget)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(_host_and_subset(), st.integers(-1, 2), st.sampled_from(STRATEGIES))
    def test_search_equals_target_three(self, host_sub, t, strategy):
        host, _ = host_sub
        runs = [
            search_spanning_subexpander(
                host, girth_target=target, strategy=strategy, budget=50, seed=1
            )
            for target in (t, 3)
        ]
        assert runs[0] == runs[1]


class TestAgainstReferences:
    """The incremental search state gives the same sets as the plain versions."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_host_and_subset(), st.integers(3, 7), st.integers(0, 80))
    def test_augment_edges(self, host_sub, floor, budget):
        # budgets run from 0 to well above the candidate count (m <= 65)
        host, sub = host_sub
        got = augment_edges(host, edge_subgraph(host, sub), floor, budget).edge_set()
        assert got == augment_edges_reference(host, sub, floor, budget)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(_host_and_subset(), st.integers(3, 7), st.integers(0, 80), st.sampled_from([1, 3, 7]))
    def test_augment_edges_in_source_blocks(self, host_sub, floor, budget, block):
        # blocks below n split the all-sources pass that fills the first heap
        host, sub = host_sub
        with mock.patch.object(graphcore, "REACH_BLOCK", block):
            got = augment_edges(host, edge_subgraph(host, sub), floor, budget).edge_set()
        assert got == augment_edges_reference(host, sub, floor, budget)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_dense_host_and_subset(), st.integers(1, 12), st.data())
    def test_augment_edges_on_dense_candidates(self, host_sub, floor, data):
        # budgets below the candidate count C take the dense path (for floors
        # of 3 or less always, since the host has at least 2n candidates),
        # budgets of C or more the heap
        host, sub = host_sub
        count = len(_far_candidates(host, sub, max(floor, 3) - 1))
        budget = data.draw(st.integers(0, max(count - 1, 0)) | st.integers(count, count + 5))
        got = augment_edges(host, sub, floor, budget).edge_set()
        assert got == augment_edges_reference(host, sub.edges(), floor, budget)

    @pytest.mark.parametrize("count_less", [1, 0])
    @pytest.mark.parametrize("budget_less", [1, 0])
    def test_dense_path_rule(self, count_less, budget_less):
        # C far candidates over a spanning path: the dense path runs iff
        # C >= 2n and budget < C, and it re-measures no pair
        n = 10
        count = 2 * n - count_less
        far = [(u, v) for u in range(n) for v in range(u + 2, n)][:count]
        path = spanning_path(n)
        host = from_edges(n, [*path.edges(), *far])
        budget = count - budget_less
        with mock.patch.object(search, "pair_distance", wraps=search.pair_distance) as spy:
            got = augment_edges(host, path, 3, budget).edge_set()
        dense = count_less == 0 and budget_less == 1
        assert (spy.call_count == 0) == dense
        assert got == augment_edges_reference(host, path.edges(), 3, budget)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_trim_graph(), st.integers(3, 12))
    def test_trim_to_girth(self, g, target):
        # disconnected graphs, pendant tails and shortest cycles through 0
        assert trim_to_girth(g, target) == trim_to_girth_reference(g, target)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_host_and_subset(), st.integers(2, 6), st.sampled_from([1, 3, 4096]))
    def test_first_heap_is_the_pair_distances(self, host_sub, need, block):
        # the pop loop re-measures every pair, so only this sees a wrong first heap
        host, sub = host_sub
        kept = {(min(u, v), max(u, v)) for u, v in sub}
        adj = [[] for _ in range(host.n)]
        for u, v in kept:
            adj[u].append(v)
            adj[v].append(u)
        assert min(bfs_distances(adj, 0)) >= 0  # the fixture's subset is connected
        expected = []
        for u, v in host.edges():
            d = bfs_distances(adj, u)[v]
            if (u, v) not in kept and d >= need:
                expected.append((-d, u, v))
        with mock.patch.object(graphcore, "REACH_BLOCK", block):
            assert sorted(_far_candidates(host, edge_subgraph(host, kept), need)) == sorted(
                expected
            )


class TestSearch:
    def test_petersen_absolute_target5(self):
        host = named_graph("petersen")
        res = search_spanning_subexpander(host, girth_target=5, strategy="trim", budget=10, seed=0)
        assert res.connected
        assert res.girth_achieved == UNBOUNDED or res.girth_achieved >= 5
        assert res.graph == host  # girth(Petersen)=5 already meets 5

    def test_k4_trim_target4(self):
        res = search_spanning_subexpander(
            named_graph("complete", 4), girth_target=4, strategy="trim", budget=10, seed=0
        )
        assert res.connected
        assert res.girth_achieved == UNBOUNDED or res.girth_achieved >= 4

    def test_tree_host_trivially_satisfies(self):
        host = spanning_path(8)
        res = search_spanning_subexpander(host, girth_target=10, strategy="trim", budget=10, seed=0)
        assert res.girth_achieved == UNBOUNDED
        assert res.graph == host
        assert res.gap == spectrum(host).gap

    def test_ratio_target(self):
        host = cycle(10)  # diameter 5
        res = search_spanning_subexpander(host, ratio=2.0, strategy="trim", budget=10, seed=0)
        assert res.girth_achieved == 10  # target ceil(2*5)=10, C10 already meets it

    @pytest.mark.parametrize("ratio", [math.inf, math.nan, 0.0, -1.0, 1e308, None])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            search_spanning_subexpander(cycle(10), ratio=ratio, strategy="trim", budget=10, seed=0)

    def test_errors(self):
        host = cycle(6)
        for strategy in ("magic", "anneal"):
            with pytest.raises(ValueError, match="strategy"):
                search_spanning_subexpander(
                    host, girth_target=4, strategy=strategy, budget=1, seed=0
                )
        with pytest.raises(ValueError, match="budget"):
            search_spanning_subexpander(host, girth_target=4, strategy="trim", budget=0, seed=0)
        with pytest.raises(ValueError, match="connected"):
            search_spanning_subexpander(
                from_edges(4, [(0, 1), (2, 3)]), girth_target=4, strategy="trim", budget=1, seed=0
            )
        with pytest.raises(ValueError, match="ratio"):
            search_spanning_subexpander(host, strategy="trim", budget=1, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            search_spanning_subexpander(
                host, ratio=0.5, girth_target=4, strategy="trim", budget=1, seed=0
            )

    @pytest.mark.parametrize(
        "spec", ["complete:n=5", "power:k=3,inner=(random-regular:n=128,d=4,seed=1)"]
    )
    def test_percolate_repair_p_is_the_window_edge(self, spec):
        # p = min(1, 1/(rho_star * d)): 1/(rho_star * d) is 1 on K5 and 0.0457 on
        # the cube, both outside the [0.05, 0.95] that p was once clamped to
        host = builders.build_family(parse_family_spec(spec)).graph
        expected = min(1.0, 1.0 / (spectrum(host).rho_star * host.max_degree))
        with mock.patch("expanderlab.search.percolate", wraps=percolate) as spy:
            search_spanning_subexpander(
                host, girth_target=3, strategy="percolate-repair", budget=1, seed=0
            )
        (_, p, _), _ = spy.call_args
        assert p == expected
        assert not 0.05 <= p <= 0.95

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_host_spectrum_gap_reused_only_for_the_host(self, strategy):
        # target 3 returns the host itself, with no second solve; target 5 does not
        host = random_regular(20, 4, seed=3000)
        host_spec = spectrum(host)
        with mock.patch("expanderlab.search.spectrum", side_effect=AssertionError("re-solved")):
            same = search_spanning_subexpander(
                host, girth_target=3, strategy=strategy, budget=300, seed=1,
                host_spectrum=host_spec,
            )
        assert same.graph == host
        assert same == search_spanning_subexpander(
            host, girth_target=3, strategy=strategy, budget=300, seed=1
        )
        marked = mock.Mock(rho_star=host_spec.rho_star, gap=-1.0)
        other = search_spanning_subexpander(
            host, girth_target=5, strategy=strategy, budget=300, seed=1, host_spectrum=marked
        )
        assert other.graph != host
        assert other.gap == spectrum(other.graph).gap

    @pytest.mark.parametrize("strategy", ["trim", "percolate-repair"])
    def test_contract_on_random_hosts(self, strategy):
        for seed in range(6):
            host = random_regular(20, 4, seed=3000 + seed)
            if not is_connected(host):
                continue
            res = search_spanning_subexpander(
                host, girth_target=5, strategy=strategy, budget=300, seed=seed
            )
            sub = res.graph
            assert sub == edge_subgraph(host, sub.edge_set())
            assert sub.n == host.n
            assert girth(sub) == res.girth_achieved
            assert is_connected(sub) == res.connected

    @pytest.mark.parametrize("strategy", ["percolate-repair"])
    def test_determinism(self, strategy):
        host = random_regular(18, 4, seed=17)
        runs = [
            search_spanning_subexpander(
                host, girth_target=5, strategy=strategy, budget=200, seed=23
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestProbe:
    def test_cycle_family_rows(self):
        specs = [parse_family_spec("cycle:n=10"), parse_family_spec("cycle:n=20")]
        records, summaries = conjecture_probe(
            specs, ratios=[0.5], strategies=("trim",), budget=10, seed=1
        )
        assert len(records) == 2
        for rec in records:
            assert rec.success
            assert rec.ratio_achieved == 2.0  # girth n over diameter n/2
            assert not rec.degenerate_diameter
        assert len(summaries) == 2  # two distinct families (different n)

    def test_complete_flagged_degenerate(self):
        records, summaries = conjecture_probe(
            [parse_family_spec("complete:n=8")], ratios=[0.5], strategies=("trim",),
            budget=10, seed=1,
        )
        assert records[0].degenerate_diameter
        assert summaries[0].per_ratio[0].min_gap is None  # degenerate rows unscored

    def test_power_shares_family_id(self):
        specs = [
            parse_family_spec("random-regular:n=26,d=4,seed=2"),
            parse_family_spec("power:k=2,inner=(random-regular:n=26,d=4,seed=2)"),
        ]
        records, summaries = conjecture_probe(
            specs, ratios=[0.25], strategies=("trim",), budget=10, seed=1
        )
        assert records[0].family == records[1].family
        assert len(summaries) == 1

    def test_power_reuses_inner_host(self, monkeypatch):
        calls = []
        real = builders.random_regular
        monkeypatch.setattr(builders, "random_regular", lambda *a: calls.append(a) or real(*a))
        inner = "random-regular:n=26,d=4,seed=2"
        specs = [
            parse_family_spec(inner),
            parse_family_spec(f"power:k=2,inner=({inner})"),
            parse_family_spec(f"power:k=3,inner=({inner})"),
        ]
        conjecture_probe(specs, ratios=[0.25], strategies=("trim",), budget=10, seed=1)
        assert calls == [(26, 4, 2)]

    def test_power_reuses_inner_host_spelled_without_defaults(self):
        # the inner spec leaves out seed=0, which the earlier instance spells out
        specs = [
            parse_family_spec("random-regular:n=20,d=3,seed=0"),
            parse_family_spec("power:k=2,inner=(random-regular:n=20,d=3)"),
        ]
        with mock.patch.object(
            builders, "random_regular", wraps=builders.random_regular
        ) as built:
            records, _ = conjecture_probe(
                specs, ratios=[0.25], strategies=("trim",), budget=10, seed=1
            )
        assert built.call_count == 1
        assert [r.instance for r in records] == [
            "random-regular:n=20,d=3,seed=0",
            "power:k=2,inner=(random-regular:n=20,d=3)",
        ]
        assert {r.family for r in records} == {"random-regular:n=20,d=3,seed=0",
                                               "random-regular:n=20,d=3"}

    def test_exact_tie_goes_to_the_strategy_name_first_in_order(self):
        # C12 at c = 0.5 (target 3): percolate-repair's augment re-adds every
        # host edge, so both strategies return C12 with one gap, and the record
        # credits percolate-repair, though trim is raced first
        records, _ = conjecture_probe(
            [parse_family_spec("cycle:n=12")], [0.5], strategies=STRATEGIES, budget=12, seed=4
        )
        rec = records[0]
        assert (rec.girth_target, rec.best_girth) == (3, 12)
        assert rec.strategy == "percolate-repair"
        assert rec.best_gap == pytest.approx(1 - math.cos(math.pi / 6), abs=1e-12)
        assert rec.seed == split(4, search._PHASE_PROBE, 0, 0, STRATEGIES.index(rec.strategy))

    def test_deterministic(self):
        specs = [parse_family_spec("random-regular:n=20,d=4,seed=3")]
        a = conjecture_probe(specs, [0.25, 0.5], strategies=STRATEGIES, budget=100, seed=9)
        b = conjecture_probe(specs, [0.25, 0.5], strategies=STRATEGIES, budget=100, seed=9)
        assert a == b

    def test_winner_meets_target_when_any_does(self):
        records, _ = conjecture_probe(
            [parse_family_spec("random-regular:n=16,d=4,seed=5")],
            ratios=[0.5],
            strategies=STRATEGIES,
            budget=150,
            seed=2,
        )
        rec = records[0]
        assert rec.success
        gv = rec.best_girth
        assert gv == UNBOUNDED or gv >= rec.girth_target

    @pytest.mark.parametrize(
        "families, ratios, strategies",
        [
            (["random-regular:n=20,d=3,seed=1"], [0.5, 0.5], ("trim",)),
            (["random-regular:n=20,d=3,seed=1"], [0.5], ("trim", "trim")),
            (["random-regular:n=20,d=3,seed=1", "random-regular:seed=1,d=3,n=20"],
             [0.5], ("trim",)),
            (["random-regular:n=20,d=3", "random-regular:n=20,d=3,seed=0"],
             [0.5], ("trim",)),
        ],
    )
    def test_repeated_input_rejected(self, families, ratios, strategies):
        # a repeat would run one cell twice and score a single instance as two
        with pytest.raises(ValueError, match="repeated"):
            conjecture_probe(
                [parse_family_spec(f) for f in families], ratios, strategies=strategies,
                budget=10, seed=0,
            )

    def test_pool_cells_equal_direct_searches(self):
        # each record is the winner of direct, serial searches on its cell's seed
        specs = [parse_family_spec("random-regular:n=20,d=4,seed=3"),
                 parse_family_spec("cycle:n=12")]
        ratios = [0.25, 0.5]
        records, _ = conjecture_probe(specs, ratios, strategies=STRATEGIES, budget=100, seed=9)
        assert multiprocessing.active_children() == []
        assert len(records) == len(specs) * len(ratios)
        for k, rec in enumerate(records):
            i, ri = divmod(k, len(ratios))
            host = builders.build_family(specs[i]).graph
            runs = {
                strat: search_spanning_subexpander(
                    host, girth_target=rec.girth_target, strategy=strat, budget=100,
                    seed=split(9, search._PHASE_PROBE, i, ri, si),
                )
                for si, strat in enumerate(STRATEGIES)
            }
            meeting = [
                s for s, r in runs.items() if r.connected and r.girth_achieved >= rec.girth_target
            ]
            winner = (
                min(meeting, key=lambda s: (-runs[s].gap, s)) if meeting
                else min(runs, key=lambda s: (-runs[s].girth_achieved, -runs[s].gap, s))
            )
            best = runs[winner]
            assert (rec.strategy, rec.best_gap, rec.best_girth, rec.seed) == (
                winner, best.gap, best.girth_achieved, best.seed
            )

    def test_cell_error_reaches_caller_and_no_worker_is_left(self, monkeypatch):
        # fork hands the patched search to the workers; the error comes back by type
        def refuse(*args, **kwargs):
            raise ComputationRefused("refused in a cell")

        monkeypatch.setattr(search, "search_spanning_subexpander", refuse)
        with pytest.raises(ComputationRefused, match="refused in a cell"):
            conjecture_probe(
                [parse_family_spec("cycle:n=10")], [0.25, 0.5], strategies=STRATEGIES, budget=10,
                seed=0,
            )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "ratios, strategies, budget, match",
        [
            pytest.param([0.5], STRATEGIES, 0, "budget", id="budget"),
            pytest.param([0.5], ("trim", "magic"), 10, "unknown strategy 'magic'", id="strategy"),
            pytest.param([0.5, 0.25, 0.5], STRATEGIES, 10, "repeated ratio 0.5", id="repeat"),
            pytest.param([0.5, 1e308], STRATEGIES, 10, r"finite, got 1e\+308", id="overflow"),
            pytest.param([0.5], (), 10, "need at least one strategy", id="no-strategy"),
        ],
    )
    def test_bad_request_refused_before_any_host_is_built(
        self, monkeypatch, ratios, strategies, budget, match
    ):
        def unbuilt(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.setattr(search, "build_family", unbuilt)
        with pytest.raises(ValueError, match=match):
            conjecture_probe(
                [parse_family_spec("cycle:n=10")], ratios, strategies=strategies, budget=budget,
                seed=0,
            )

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            conjecture_probe([], [0.5], strategies=STRATEGIES, budget=10, seed=0)
        for strategy in ("magic", "anneal"):
            with pytest.raises(ValueError, match="strategy"):
                conjecture_probe(
                    [parse_family_spec("cycle:n=5")], [0.5], strategies=(strategy,), budget=10,
                    seed=0,
                )
