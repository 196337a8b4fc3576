import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import builders, graphcore, metrics
from expanderlab.builders import (
    base_family_id,
    build_family,
    canonical_spec_string,
    cartesian_product,
    graph_power,
    named_graph,
    parse_family_spec,
    random_regular,
    with_defaults,
)
from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import (
    Graph,
    from_edges,
    is_connected,
    write_edge_list_text,
)
from oracles import bfs_distances, random_connected_graph


class TestRandomRegular:
    def test_basic_properties(self):
        g = random_regular(10, 3, seed=1)
        assert g.n == 10 and g.m == 15
        assert all(len(g.adj[v]) == 3 for v in range(10))

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3, seed=1)

    def test_degree_too_large(self):
        with pytest.raises(ValueError, match="d < n"):
            random_regular(4, 4, seed=1)

    def test_seed_determinism(self):
        a = random_regular(40, 4, seed=9)
        b = random_regular(40, 4, seed=9)
        assert write_edge_list_text(a) == write_edge_list_text(b)

    def test_distinct_seeds_differ(self):
        texts = {write_edge_list_text(random_regular(30, 4, seed=s)) for s in range(20)}
        assert len(texts) >= 19  # collisions would be astronomically unlikely

    def test_regular_and_simple_across_seeds(self):
        for s in range(25):
            g = random_regular(16, 3, seed=s)
            assert all(len(g.adj[v]) == 3 for v in range(16))
            assert all(u != v for u, v in g.edges())


class TestGraphPower:
    def test_k1_identity(self):
        g = named_graph("cycle", 7)
        assert graph_power(g, 1) == g

    def test_c6_squared(self):
        g2 = graph_power(named_graph("cycle", 6), 2)
        assert all(len(g2.adj[v]) == 4 for v in range(6))
        assert metrics.diameter(g2) == 2

    def test_power_at_diameter_is_complete(self):
        g = named_graph("cycle", 9)
        gk = graph_power(g, 4)  # diameter of C9
        assert gk.m == 9 * 8 // 2

    def test_monotone_in_k(self):
        g = random_connected_graph(12, 11, extra_edges=4)
        prev = set()
        for k in range(1, 5):
            cur = set(graph_power(g, k).edges())
            assert prev <= cur
            prev = cur

    def test_diameter_halving_law(self):
        for seed in range(20):
            g = random_connected_graph(14, 2000 + seed, extra_edges=seed % 5)
            d = metrics.diameter(g)
            for k in (2, 3):
                dk = metrics.diameter(graph_power(g, k))
                assert dk == math.ceil(d / k)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            graph_power(named_graph("cycle", 5), 0)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data(), st.integers(1, 16), st.integers(1, 6), st.sampled_from([1, 3, 8, 4096]))
    def test_pairs_within_distance_k(self, data, n, k, block):
        # disconnected graphs included; blocks below n split the sources
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        )
        g = from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
        expected = {
            (u, v)
            for u in range(n)
            for v, d in enumerate(bfs_distances(g.adj, u))
            if u < v and 1 <= d <= k
        }
        with mock.patch.object(graphcore, "REACH_BLOCK", block):
            assert set(graph_power(g, k).edges()) == expected

    def test_huge_exponent_stops_at_diameter(self):
        t0 = time.perf_counter()
        g = graph_power(named_graph("cycle", 3), 10**12)
        assert time.perf_counter() - t0 < 1.0
        assert g == named_graph("cycle", 3)


class TestCartesianProduct:
    def test_k2_square_is_c4(self):
        k2 = named_graph("complete", 2)
        g = cartesian_product(k2, k2)
        assert g.n == 4 and g.m == 4
        assert metrics.girth(g) == 4 and is_connected(g)

    def test_c3_square(self):
        c3 = named_graph("cycle", 3)
        g = cartesian_product(c3, c3)
        assert g.n == 9
        assert all(len(g.adj[v]) == 4 for v in range(9))
        assert metrics.diameter(g) == 2
        assert metrics.girth(g) == 3

    def test_identity_factor(self):
        g = named_graph("cycle", 6)
        single = named_graph("complete", 1)
        assert cartesian_product(g, single) == g

    def test_degree_additivity(self):
        g = random_connected_graph(6, 21, extra_edges=3)
        h = random_connected_graph(5, 22, extra_edges=2)
        prod = cartesian_product(g, h)
        for u in range(g.n):
            for a in range(h.n):
                assert len(prod.adj[u * h.n + a]) == len(g.adj[u]) + len(h.adj[a])

    def test_size_cap(self):
        g = named_graph("cycle", 100)
        with mock.patch.object(graphcore, "VERTEX_CAP", 5000):
            with pytest.raises(ComputationRefused, match="cap"):
                cartesian_product(g, g)

    def test_edge_cap_checked_before_the_edge_loop(self):
        # K_300 x K_300 has 90,000 vertices but 26,910,000 edges
        class NoEdges(Graph):
            def edges(self):
                raise AssertionError("edge loop ran for a refused product")

        k = named_graph("complete", 300)
        g = NoEdges(k.n, k.adj)
        with pytest.raises(ComputationRefused, match="26910000 edges exceed the cap"):
            cartesian_product(g, g)


class TestNamedGraph:
    def test_cycle(self):
        g = named_graph("cycle", 8)
        assert metrics.girth(g) == 8 and metrics.diameter(g) == 4

    def test_petersen(self):
        g = named_graph("petersen")
        assert g.n == 10 and g.m == 15
        assert all(len(g.adj[v]) == 3 for v in range(10))

    def test_complete(self):
        g = named_graph("complete", 4)
        assert g.m == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            named_graph("cycle", 2)
        with pytest.raises(ValueError):
            named_graph("moebius")


class TestConstructorsRefuseTheirOwnSize:
    """A library call is refused as the CLI's is: before anything is allocated."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("constructor allocated for a refused size")

        monkeypatch.setattr(builders, "from_edges", unreachable)
        monkeypatch.setattr(builders, "Stream", unreachable)

    @pytest.mark.parametrize(
        "kind, n, cap", [("complete", 6, "EDGE_CAP"), ("cycle", 11, "VERTEX_CAP")]
    )
    def test_named_graph(self, monkeypatch, kind, n, cap):
        monkeypatch.setattr(graphcore, cap, 10)
        with pytest.raises(ComputationRefused, match="exceed the cap of 10"):
            named_graph(kind, n)

    # n=11, d=3 has an odd stub count: its size is refused before its parity
    @pytest.mark.parametrize("n, d, cap", [(20, 4, "EDGE_CAP"), (11, 3, "VERTEX_CAP")])
    def test_random_regular(self, monkeypatch, n, d, cap):
        monkeypatch.setattr(graphcore, cap, 10)
        with pytest.raises(ComputationRefused, match="exceed the cap of 10"):
            random_regular(n, d, seed=1)


class TestFamilySpec:
    def test_parse_flat(self):
        spec = parse_family_spec("random-regular:n=1024,d=4,seed=7")
        assert spec.kind == "random-regular"
        assert spec.params == {"n": 1024, "d": 4, "seed": 7}

    def test_parse_nested(self):
        spec = parse_family_spec("power:k=2,inner=(cayley:recipe=elementary,p=5)")
        assert spec.kind == "power" and spec.params["k"] == 2
        assert spec.params["inner"].kind == "cayley"
        assert spec.params["inner"].params == {"recipe": "elementary", "p": 5}

    def test_parse_product(self):
        spec = parse_family_spec("product:inner=(cycle:n=3),inner2=(cycle:n=4)")
        assert spec.params["inner"].params["n"] == 3
        assert spec.params["inner2"].params["n"] == 4

    def test_nesting_deeper_than_the_cap_refused(self):
        def nested(depth: int, core: str = "cycle:n=5") -> str:
            return "power:k=1,inner=(" * depth + core + ")" * depth

        # the deepest spec accepted is walked by every recursive step
        spec = parse_family_spec(nested(builders.SPEC_DEPTH_CAP))
        assert canonical_spec_string(with_defaults(spec)) == nested(builders.SPEC_DEPTH_CAP)
        assert build_family(spec).graph == named_graph("cycle", 5)
        too_deep = [nested(builders.SPEC_DEPTH_CAP + 1), nested(520), nested(2000)]
        too_deep.append(f"product:inner=(cycle:n=3),inner2=({nested(builders.SPEC_DEPTH_CAP)})")
        for text in too_deep:
            with pytest.raises(ValueError, match="nested deeper than 100 levels"):
                parse_family_spec(text)

    def test_canonical_round_trip(self):
        for text in (
            "random-regular:n=64,d=4,seed=1",
            "power:k=2,inner=(random-regular:n=64,d=4,seed=1)",
            "cayley:recipe=sanov,p=3,level=2",
            "petersen",
        ):
            spec = parse_family_spec(text)
            canon = canonical_spec_string(spec)
            assert canonical_spec_string(parse_family_spec(canon)) == canon

    @pytest.mark.parametrize(
        "text, canon, filled",
        [
            (
                "product:inner=(cayley:p=5),inner2=(random-regular:n=8,d=3)",
                "product:inner=(cayley:p=5),inner2=(random-regular:n=8,d=3)",
                "product:inner=(cayley:recipe=elementary,p=5,level=1),"
                "inner2=(random-regular:n=8,d=3,seed=0)",
            ),
            (
                "power:inner=(power:inner=(random-regular:d=3,n=10),k=3),k=2",
                "power:k=2,inner=(power:k=3,inner=(random-regular:n=10,d=3))",
                "power:k=2,inner=(power:k=3,inner=(random-regular:n=10,d=3,seed=0))",
            ),
            (
                "random-regular:seed=1,d=4,n=64",
                "random-regular:n=64,d=4,seed=1",
                "random-regular:n=64,d=4,seed=1",
            ),
            ("petersen", "petersen", "petersen"),
        ],
    )
    def test_canonical_strings_pinned(self, text, canon, filled):
        # key order, nesting and filled defaults, byte for byte
        spec = parse_family_spec(text)
        assert canonical_spec_string(spec) == canon
        assert canonical_spec_string(with_defaults(spec)) == filled

    def test_aliases(self):
        # the power-of/product-of spellings are retired: each is an unknown kind
        for text in (
            "power-of:k=2,inner=(cycle:n=5)",
            "product-of:inner=(cycle:n=3),inner2=(cycle:n=3)",
        ):
            with pytest.raises(ValueError, match="unknown family kind"):
                parse_family_spec(text)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown family kind"):
            parse_family_spec("moebius:n=3")
        with pytest.raises(ValueError, match="bad integer"):
            parse_family_spec("cycle:n=abc")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_family_spec("power:k=2,inner=(cycle:n=5")
        with pytest.raises(ValueError, match="missing required key"):
            parse_family_spec("random-regular:n=10")

    def test_base_family_id_strips_powers(self):
        base = parse_family_spec("random-regular:n=64,d=4,seed=1")
        powered = parse_family_spec("power:k=2,inner=(random-regular:n=64,d=4,seed=1)")
        assert base_family_id(base) == base_family_id(powered)

    def test_build_each_kind(self):
        assert build_family(parse_family_spec("cycle:n=6")).graph.m == 6
        assert build_family(parse_family_spec("complete:n=4")).graph.m == 6
        assert build_family(parse_family_spec("petersen")).graph.n == 10
        assert build_family(parse_family_spec("random-regular:n=10,d=3,seed=1")).graph.m == 15
        res = build_family(parse_family_spec("cayley:recipe=elementary,p=3"))
        assert res.graph.n == 24 and res.elements is not None
        assert build_family(
            parse_family_spec("product:inner=(cycle:n=3),inner2=(cycle:n=3)")
        ).graph.n == 9
        assert build_family(
            parse_family_spec("power:k=2,inner=(cycle:n=6)")
        ).graph.max_degree == 4
