import hashlib
import math
import random

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import graphcore, metrics
from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import (
    bfs_distances,
    edge_subgraph,
    from_edges,
    graph_fingerprint,
    induced_ball,
    is_connected,
    pair_distance,
    read_edge_list_text,
    shortest_cycle_scan,
    write_edge_list_text,
)
from oracles import (
    UNREACHABLE,
    ReadRows,
    ScalarStream,
    girth_by_edge_removal,
    random_connected_graph,
    reconstruct_cycle,
)
from oracles import bfs_distances as list_bfs


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def any_graph(draw):
    """A simple graph on 1..14 vertices; most are disconnected, many have isolated vertices."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestFromEdgeList:
    """`from_edges`, the one constructor that validates an edge list."""

    def test_empty(self):
        g = from_edges(3, ())
        assert g.n == 3 and g.m == 0

    def test_c4(self):
        g = from_edges(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
        assert g.m == 4
        assert all(len(g.adj[v]) == 2 for v in range(4))
        # pairs are accepted in either order
        assert from_edges(4, ((1, 0), (3, 0), (2, 1), (2, 3))) == g
        assert from_edges(4, ((3, 2), (1, 2), (0, 1), (3, 0))) == g

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(2, ((0, 0),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(3, ((0, 1), (0, 1)))
        # the same edge written in both orders
        with pytest.raises(ValueError, match=r"duplicate edge rejected: \(1, 2\)"):
            from_edges(3, ((0, 1), (1, 2), (2, 1)))

    def test_out_of_range_rejected(self):
        for edge in ((0, 3), (-1, 0), (0, -1), (3, 0), (1, 7)):
            with pytest.raises(ValueError, match="out of range"):
                from_edges(3, (edge,))

    def test_vertex_cap_refused_before_allocation(self):
        # a list of VERTEX_CAP + 1 adjacency lists is never built
        with pytest.raises(ComputationRefused, match="cap"):
            from_edges(graphcore.VERTEX_CAP + 1, ())
        with pytest.raises(ComputationRefused, match="cap"):
            read_edge_list_text("1000000000 0\n")


class TestRoundTrip:
    """`Graph.edges()` yields the sorted pairs `from_edges` rebuilds the graph from."""

    def test_c4(self):
        g = cycle(4)
        edges = tuple(g.edges())
        assert edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert from_edges(g.n, edges) == g

    def test_isolated(self):
        g = from_edges(5, [])
        edges = tuple(g.edges())
        assert edges == () and from_edges(g.n, edges) == g

    def test_random_graphs(self):
        for seed in range(25):
            g = random_connected_graph(12, seed, extra_edges=seed % 7)
            assert from_edges(g.n, g.edges()) == g


class TestBfs:
    # the dict form against the list-form oracle, which holds -1 where nothing was labelled
    def test_c8(self):
        dist = bfs_distances(cycle(8).adj, 0)
        assert list(dist.items()) == [(0, 0), (1, 1), (7, 1), (2, 2), (6, 2), (3, 3), (5, 3), (4, 4)]
        assert [dist[v] for v in range(8)] == list_bfs(cycle(8).adj, 0)

    def test_k4(self):
        assert bfs_distances(complete(4).adj, 0) == {0: 0, 1: 1, 2: 1, 3: 1}

    def test_unreachable_sentinel(self):
        # an unreached vertex is absent from the dict; the oracle holds -1 for it
        g = from_edges(5, [(0, 1), (2, 3)])
        assert bfs_distances(g.adj, 0) == {0: 0, 1: 1}
        assert list_bfs(g.adj, 0) == [0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(cycle(4).adj, 4)

    def test_layer_step_property(self):
        # every edge joins vertices at BFS distance differing by at most 1,
        # and every reached non-source vertex has a neighbor one layer down
        for seed in range(10):
            g = random_connected_graph(14, 100 + seed, extra_edges=6)
            dist = bfs_distances(g.adj, 0)
            for u, v in g.edges():
                assert abs(dist[u] - dist[v]) <= 1
            for v in range(1, g.n):
                assert any(dist[w] == dist[v] - 1 for w in g.adj[v])

    def test_depth_agrees_with_full_bfs(self):
        # a depth-capped BFS labels exactly the vertices within max_depth,
        # each with its true distance
        for seed in range(8):
            g = random_connected_graph(16, 300 + seed, extra_edges=seed)
            g = from_edges(18, list(g.edges()))  # two isolated vertices
            working = [set(a) for a in g.adj]
            for source in range(0, g.n, 3):
                full = list_bfs(g.adj, source)
                for max_depth in (None, 0, 1, 2, 3, 5):
                    dist = bfs_distances(working, source, max_depth=max_depth)
                    cap = math.inf if max_depth is None else max_depth
                    assert dist == {v: d for v, d in enumerate(full) if 0 <= d <= cap}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(any_graph(), st.data())
    def test_equals_list_oracle_at_every_cap(self, g, data):
        # a capped BFS keeps exactly the vertices within max_depth, each with
        # its true distance, in BFS order: the source first, then never decreasing
        source = data.draw(st.integers(0, g.n - 1))
        for adj in (g.adj, [set(a) for a in g.adj]):
            for max_depth in (None, *range(g.n + 1)):
                dist = bfs_distances(adj, source, max_depth=max_depth)
                want = list_bfs(g.adj, source, max_depth=max_depth)
                assert dist == {v: d for v, d in enumerate(want) if d != UNREACHABLE}
                assert next(iter(dist)) == source
                assert list(dist.values()) == sorted(dist.values())


class TestPairDistance:
    def graphs(self):
        # connected hosts, then two components plus isolated vertices
        for seed in range(12):
            yield random_connected_graph(14, 700 + seed, extra_edges=seed % 6)
        for seed in range(12):
            a = random_connected_graph(9, 800 + seed, extra_edges=seed % 4)
            b = random_connected_graph(7, 900 + seed, extra_edges=seed % 3)
            edges = list(a.edges()) + [(u + 9, v + 9) for u, v in b.edges()]
            yield from_edges(18, edges)

    def test_agrees_with_full_bfs_at_every_depth(self):
        for g in self.graphs():
            for adj in (g.adj, [list(a) for a in g.adj], [set(a) for a in g.adj]):
                for s in range(g.n):
                    full = list_bfs(g.adj, s)
                    for t in range(g.n):
                        want = full[t]
                        for max_depth in range(g.n + 1):
                            capped = want if 0 <= want <= max_depth else metrics.UNBOUNDED
                            assert pair_distance(adj, s, t, max_depth) == capped

    def test_same_vertex_is_zero_at_depth_zero(self):
        g = cycle(6)
        for v in range(6):
            assert pair_distance(g.adj, v, v, 0) == 0

    def test_disconnected_pair_unreachable(self):
        g = from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert pair_distance(g.adj, 0, 4, 7) is metrics.UNBOUNDED
        assert pair_distance(g.adj, 2, 6, 7) is metrics.UNBOUNDED
        assert pair_distance(g.adj, 6, 0, 10) is metrics.UNBOUNDED

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(any_graph(), st.data())
    def test_past_its_cap_is_unbounded(self, g, data):
        s, t = data.draw(st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)))
        want = list_bfs(g.adj, s)[t]
        for max_depth in range(g.n + 1):
            got = pair_distance(g.adj, s, t, max_depth)
            if want == UNREACHABLE or want > max_depth:
                assert got is metrics.UNBOUNDED
            else:
                assert got == want

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pair_distance(cycle(4).adj, 0, 4, 4)
        with pytest.raises(ValueError):
            pair_distance(cycle(4).adj, -1, 0, 4)


def length_root(found):
    """(length, root) of a scan result: the cycle starts at its root."""
    return None if found is None else (found[0], found[1][0])


class TestShortestCycleScan:
    def graphs(self):
        for seed in range(40):
            yield random_connected_graph(10 + seed % 9, 500 + seed, extra_edges=seed % 8)
        yield cycle(9)
        yield complete(5)
        yield from_edges(6, [])

    def test_length_is_oracle_girth_below_bound(self):
        for g in self.graphs():
            oracle = girth_by_edge_removal(g)
            for below in (*range(3, 10), math.inf):
                found = shortest_cycle_scan(g.adj, below=below)
                if oracle < below:
                    length, cyc = found
                    assert length == oracle
                    assert 0 <= cyc[0] < g.n
                else:
                    assert found is None

    def test_bound_just_above_girth_keeps_length_and_root(self):
        # below = girth + 1 admits only shortest cycles, so the pruned scan
        # must report the same (length, cycle) as the unbounded one
        for g in self.graphs():
            found = shortest_cycle_scan(g.adj)
            if found is None:
                continue
            length, _ = found
            assert shortest_cycle_scan(g.adj, below=length + 1) == found
            assert shortest_cycle_scan(g.adj, below=length) is None

    def test_rooted_scan_is_min_over_single_roots(self):
        rng = random.Random(7)
        for g in self.graphs():
            single = [length_root(shortest_cycle_scan(g.adj, roots=(r,))) for r in range(g.n)]
            full = length_root(shortest_cycle_scan(g.adj))
            assert min((f for f in single if f), default=None) == full
            for _ in range(5):
                roots = rng.sample(range(g.n), rng.randint(1, g.n))
                hits = [(single[r][0], i) for i, r in enumerate(roots) if single[r]]
                if not hits:
                    assert shortest_cycle_scan(g.adj, roots=roots) is None
                    continue
                length, i = min(hits)  # the first root, in the given order, at the best length
                found = length_root(shortest_cycle_scan(g.adj, roots=roots))
                assert found == (length, roots[i])
                twice = length_root(shortest_cycle_scan(g.adj, roots=roots + roots))
                assert twice == (length, roots[i])

    def test_root_off_every_shortest_cycle_overestimates(self):
        # triangle 0-1-2 with the tail 2-3-4-5: from the tail's end the first
        # closing edge is 0-1 at depth 4, so the scan reports 9, not 3, and a
        # closed walk down the tail and back; hence only a vertex-transitive
        # caller may scan from one root
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        assert shortest_cycle_scan(g.adj, roots=(5,)) == (9, [5, 4, 3, 2, 0, 1, 2, 3, 4])
        assert shortest_cycle_scan(g.adj) == (3, [0, 1, 2])

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        st.data(),
        st.integers(1, 16),
        st.sampled_from([3, 4, 5, 6, 7, 8, 10, math.inf]),
        st.booleans(),
    )
    def test_cycle_is_the_reconstructed_one(self, data, n, below, rooted):
        # the scan's walk is the one a second BFS from its root rebuilds at its
        # length; a walk that is not a simple cycle (rooted scans only) is
        # exactly where that rebuild refuses
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        )
        g = from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
        roots = None
        if rooted:
            roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        found = shortest_cycle_scan(g.adj, below=below, roots=roots)
        oracle = girth_by_edge_removal(g)
        if found is None:
            assert rooted or oracle >= below
            return
        length, cyc = found
        assert len(cyc) == length < below
        assert all(g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length))
        if len(set(cyc)) == length:
            assert reconstruct_cycle(g.adj, g.n, cyc[0], length) == cyc
        else:
            assert rooted and length > oracle
            with pytest.raises(RuntimeError, match="not a simple cycle"):
                reconstruct_cycle(g.adj, g.n, cyc[0], length)
        if not rooted:
            assert length == oracle

    def test_girth_floor_stops_at_the_first_root_with_the_girth(self):
        # a floor at most the girth changes only where the scan stops: after
        # the first root that finds the girth, which no later root can beat
        for g in self.graphs():
            found = shortest_cycle_scan(g.adj)
            girth = math.inf if found is None else found[0]
            for floor in (2, 3, 4, 6, 9):
                if floor <= girth:
                    assert shortest_cycle_scan(g.adj, floor=floor) == found
            if found is not None:
                rows, upto = ReadRows(g.adj), ReadRows(g.adj)
                assert shortest_cycle_scan(rows, floor=girth) == found
                assert shortest_cycle_scan(upto, roots=range(found[1][0] + 1)) == found
                assert rows.read == upto.read


class TestReachBlocks:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(any_graph(), st.sampled_from([1, 3, 4096]))
    def test_levels_are_bfs_balls(self, g, block):
        # disconnected graphs included; blocks below n split the sources
        n = g.n
        dist = [list_bfs(g.adj, s) for s in range(n)]
        with mock.patch.object(graphcore, "REACH_BLOCK", block):
            blocks = [(lo, hi, list(levels)) for lo, hi, levels in graphcore.reach_blocks(g.adj)]
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (lo, min(lo + block, n)) for lo in range(0, n, block)
        ]
        for lo, hi, levels in blocks:
            # each level is a new list, so the ones kept above are unchanged
            assert len({id(reach) for reach in levels}) == len(levels)
            for d, reach in enumerate(levels):
                assert reach == [
                    sum(1 << (s - lo) for s in range(lo, hi) if 0 <= dist[s][v] <= d)
                    for v in range(n)
                ]
            # Levels grow until the farthest reachable pair, D apart: there every
            # set is full if the block reaches all, and otherwise none would grow.
            # So the last level is D, whichever way the iteration stops.
            assert len(levels) - 1 == max(dist[s][v] for s in range(lo, hi) for v in range(n))


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle(5))

    def test_disjoint_cycles(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(from_edges(1, []))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(any_graph())
    def test_agrees_with_list_oracle(self, g):
        # most drawn graphs are disconnected
        assert is_connected(g) == (UNREACHABLE not in list_bfs(g.adj, 0))


class TestInducedSubgraph:
    # the subgraph `induced_ball` builds on the ball's vertex set
    def test_path_from_c6(self):
        assert induced_ball(cycle(6), 1, 1) == from_edges(3, [(0, 1), (1, 2)])

    def test_relabels_in_ascending_old_order(self):
        # the ball {5, 0, 1}: 0 -> 0, 1 -> 1, 5 -> 2, so the edges (0, 1) and (0, 5) of C6
        assert induced_ball(cycle(6), 0, 1) == from_edges(3, [(0, 1), (0, 2)])

    def test_full_subset_identity(self):
        g = cycle(7)
        assert induced_ball(g, 0, 3) == g

    def test_singleton(self):
        sub = induced_ball(from_edges(3, [(0, 1)]), 2, 4)  # an isolated centre
        assert sub.n == 1 and sub.m == 0


class TestInducedBall:
    def test_c10_r2_is_path(self):
        ball = induced_ball(cycle(10), 0, 2)
        assert ball.n == 5 and ball.m == 4
        degs = sorted(len(ball.adj[v]) for v in range(5))
        assert degs == [1, 1, 2, 2, 2]

    def test_r0(self):
        ball = induced_ball(cycle(10), 3, 0)
        assert ball.n == 1 and ball.m == 0

    def test_center_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_ball(cycle(4), 4, 1)

    def test_r_at_least_diameter(self):
        g = cycle(9)
        ball = induced_ball(g, 4, 9)
        assert ball == g

    def test_monotone_in_radius(self):
        for seed in range(5):
            g = random_connected_graph(15, 200 + seed, extra_edges=5)
            prev = set()
            for r in range(6):
                members = set(bfs_distances(g.adj, 0, max_depth=r))
                assert prev <= members
                prev = members


    def test_matches_full_bfs_ball(self):
        for seed in range(6):
            g = random_connected_graph(20, 600 + seed, extra_edges=8)
            for center in range(0, g.n, 4):
                full = list_bfs(g.adj, center)
                for r in range(4):
                    members = [v for v, d in enumerate(full) if 0 <= d <= r]
                    index = {v: i for i, v in enumerate(members)}
                    expected = from_edges(
                        len(members),
                        [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
                    )
                    assert induced_ball(g, center, r) == expected


class TestEdgeSubgraph:
    def test_keep_all(self):
        g = cycle(6)
        assert edge_subgraph(g, g.edges()) == g

    def test_keep_none(self):
        g = cycle(6)
        sub = edge_subgraph(g, [])
        assert sub.n == 6 and sub.m == 0

    def test_c4_minus_edge_is_path(self):
        sub = edge_subgraph(cycle(4), [(0, 1), (1, 2), (2, 3)])
        assert sorted(len(sub.adj[v]) for v in range(4)) == [1, 1, 2, 2]

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            edge_subgraph(cycle(5), [(0, 2)])
        # vertices outside 0..n-1 are checked before has_edge indexes adj
        for edge in ((7, 8), (-1, 0)):
            with pytest.raises(ValueError, match="not present"):
                edge_subgraph(cycle(5), [edge])

    def test_vertex_count_always_preserved(self):
        for seed in range(10):
            g = random_connected_graph(13, 300 + seed, extra_edges=8)
            stream = ScalarStream(seed)
            keep = [e for e in g.edges() if stream.uniform() < 0.5]
            assert edge_subgraph(g, keep).n == g.n


class TestTextFormat:
    def test_write_read_round_trip(self):
        g = cycle(5)
        text = write_edge_list_text(g)
        assert text == "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
        assert read_edge_list_text(text) == g

    def test_comment_lines_ignored(self):
        text = "# header comment\n3 1\n# mid comment\n0 1\n"
        g = read_edge_list_text(text)
        assert g.n == 3 and g.m == 1

    def test_bad_field_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list_text("3 1\n0 x\n")

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list_text("3 1\n0 1 2\n")

    def test_reversed_line_rejected(self):
        # the format asks for u < v; `from_edges` itself takes either order
        with pytest.raises(ValueError, match="line 3: expected u < v"):
            read_edge_list_text("3 2\n0 1\n2 1\n")

    def test_header_count_mismatch(self):
        with pytest.raises(ValueError, match="declares m=2"):
            read_edge_list_text("3 2\n0 1\n")

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty"):
            read_edge_list_text("# nothing\n")

    def test_fingerprint_distinguishes(self):
        assert graph_fingerprint(cycle(6)) != graph_fingerprint(cycle(7))
        assert graph_fingerprint(cycle(6)) == graph_fingerprint(cycle(6))

    def test_fingerprint_is_hash_of_edge_list_text(self):
        g = random_connected_graph(12, 9, extra_edges=4)
        text = write_edge_list_text(g).encode("ascii")
        assert graph_fingerprint(g) == hashlib.sha256(text).hexdigest()
