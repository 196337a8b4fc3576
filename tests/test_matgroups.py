from unittest import mock

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import matgroups, metrics
from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import from_edges
from expanderlab.matgroups import (
    cayley_from_recipe,
    cayley_graph,
    generators_from_recipe,
    girth_tower_report,
    group_inv,
    group_mul,
    is_prime_power,
    sl2_order,
)
from oracles import ScalarStream, cayley_graph_reference, make_symmetric, words_avoid_identity

IDENT = (1, 0, 0, 1)


def random_sl2(q: int, stream: ScalarStream) -> tuple:
    """Random product of elementary generators — always determinant 1."""
    gens = [(1, 1, 0, 1), (1, q - 1, 0, 1), (1, 0, 1, 1), (1, 0, q - 1, 1)]
    x = IDENT
    for _ in range(stream.randrange(12) + 1):
        x = group_mul(x, gens[stream.randrange(len(gens))], q)
    return x


def reduce(x: tuple, q: int) -> tuple:
    return tuple(v % q for v in x)


class TestMatrixArithmetic:
    def test_mul_example_mod5(self):
        assert group_mul((1, 1, 0, 1), (1, 0, 1, 1), 5) == (2, 1, 1, 1)

    def test_mul_identity(self):
        a = (2, 3, 3, 5)
        assert group_mul(a, IDENT, 7) == a

    def test_inv_unipotent(self):
        for q in (5, 9, 27):
            assert group_inv((1, 1, 0, 1), q) == (1, q - 1, 0, 1)

    def test_inv_identity(self):
        assert group_inv(IDENT, 11) == IDENT

    def test_inv_rejects_det_not_one(self):
        with pytest.raises(ValueError, match="not in SL"):
            group_inv((2, 0, 0, 1), 5)
        with pytest.raises(ValueError, match="not in SL"):
            group_inv(IDENT + (2, 0, 0, 1), 5)

    def test_group_laws_random(self):
        for q in (3, 5, 9, 25, 27):
            stream = ScalarStream(q * 17)
            for _ in range(1000):
                a, b, c = (random_sl2(q, stream) for _ in range(3))
                assert group_mul(group_mul(a, b, q), c, q) == group_mul(a, group_mul(b, c, q), q)
                assert group_mul(a, group_inv(a, q), q) == IDENT
                assert group_mul(a, IDENT, q) == a

    def test_product_blocks_componentwise(self):
        q = 9
        stream = ScalarStream(5)
        for _ in range(200):
            a, b, c, d = (random_sl2(q, stream) for _ in range(4))
            assert group_mul(a + b, c + d, q) == group_mul(a, c, q) + group_mul(b, d, q)
            assert group_inv(a + b, q) == group_inv(a, q) + group_inv(b, q)


class TestReduce:
    def test_entrywise(self):
        # a core given over Z is reduced entry by entry
        assert cayley_graph([(10, -7, 9, 1)], 9) == cayley_graph([(1, 2, 0, 1)], 9)
        assert generators([(10, -7, 9, 1)], 9) == [(1, 2, 0, 1), (1, 7, 0, 1)]

    def test_homomorphism_random(self):
        for q, q_new in ((9, 3), (25, 5), (27, 9), (27, 3)):
            stream = ScalarStream(q)
            for _ in range(250):
                a = random_sl2(q, stream)
                b = random_sl2(q, stream)
                assert reduce(group_mul(a, b, q), q_new) == group_mul(
                    reduce(a, q_new), reduce(b, q_new), q_new
                )


def sanov(q: int) -> tuple:
    return generators_from_recipe("sanov", q)


def elementary(q: int) -> tuple:
    return generators_from_recipe("elementary", q)


def generators(core, q: int) -> list:
    """The generating set `cayley_graph` builds from `core`, in its order.

    The identity is vertex 0, and its neighbours 1, 2, ... are the
    generators themselves, found in generator order.
    """
    res = cayley_graph(core, q)
    assert res.graph.adj[0] == tuple(range(1, len(res.graph.adj[0]) + 1))
    return [res.elements[j] for j in res.graph.adj[0]]


class TestGeneratorSets:
    def test_sanov_q3_four_elements(self):
        gens = generators(sanov(3), 3)
        assert len(gens) == 4
        assert len(set(gens)) == 4

    def test_sanov_q5_exact_set(self):
        assert set(generators(sanov(5), 5)) == {
            (1, 2, 0, 1),
            (1, 0, 2, 1),
            (1, 3, 0, 1),
            (1, 0, 3, 1),
        }

    def test_sanov_q2_rejected(self):
        with pytest.raises(ValueError, match="collapses to the identity"):
            cayley_graph(sanov(2), 2)

    def test_modulus_checked(self):
        for q in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                cayley_graph(elementary(q), q)

    def test_transvection_power_checked(self):
        with pytest.raises(ValueError, match=">= 1"):
            generators_from_recipe("transvections:0", 5)

    def test_symmetrized_closed_under_inverse(self):
        for core, q in ((sanov(7), 7), (elementary(9), 9)):
            elems = set(generators(core, q))
            assert all(group_inv(e, q) in elems for e in elems)
            assert not any(e == IDENT for e in elems)

    def test_core_reduced_identity_dropped_repeats_removed(self):
        core = [(6, 1, 5, 1), (1, 0, 0, 1), (1, 1, 0, 1), (1, 6, 0, 1)]
        assert generators(core, 5) == [(1, 1, 0, 1), (1, 4, 0, 1)]
        with pytest.raises(ValueError, match="not in SL"):
            cayley_graph([(2, 0, 0, 1)], 5)

    def test_product_twisted_count(self):
        gens = generators(generators_from_recipe("product:twisted", 3), 3)
        assert len(gens) == 4
        assert all(len(e) == 8 for e in gens)

    def test_product_unknown_pairing(self):
        with pytest.raises(ValueError, match="pairing"):
            generators_from_recipe("product:zigzag", 3)


class TestCayleyGraph:
    def test_elementary_q3_full_group(self):
        res = cayley_graph(elementary(3), 3)
        assert res.reached_order == 24
        assert res.full_group_order == 24
        assert res.graph.max_degree == 4
        assert all(len(res.graph.adj[v]) == 4 for v in range(res.graph.n))

    def test_elementary_q2_order6(self):
        res = cayley_graph(elementary(2), 2)
        assert res.reached_order == 6

    def test_elementary_q5_order120(self):
        res = cayley_graph(elementary(5), 5)
        assert res.reached_order == 120 == sl2_order(5)

    def test_sanov_q9_order(self):
        res = cayley_graph(sanov(9), 9)
        assert res.reached_order == 648 == sl2_order(9)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(matgroups, "ORDER_CAP", 100)
        with pytest.raises(ComputationRefused, match="too large"):
            cayley_graph(sanov(9), 9)

    def test_bad_generator_sets(self):
        # a core with no element but the identity once reduced is refused
        for core, q in (((), 5), ((IDENT, (6, 5, 0, 6)), 5), ((IDENT + IDENT,), 7)):
            with pytest.raises(ValueError, match="collapses to the identity"):
                cayley_graph(core, q)
        for recipe, q in (("sanov", 2), ("transvections:3", 3), ("product:mixed", 2)):
            with pytest.raises(ValueError, match="collapses to the identity"):
                cayley_graph(generators_from_recipe(recipe, q), q)

    def test_diagonal_product_reaches_diagonal_copy(self):
        res = cayley_graph(generators_from_recipe("product:diagonal", 3), 3)
        assert res.reached_order == 24
        assert res.full_group_order == 576

    def test_mixed_product_order_reported(self):
        res = cayley_graph(generators_from_recipe("product:mixed:elementary", 3), 3)
        assert res.full_group_order == 576
        assert 1 <= res.reached_order <= 576

    def test_weak_vertex_transitivity(self):
        # every vertex has equal degree and the same sorted distance multiset
        # on a sample of vertices
        res = cayley_graph(elementary(5), 5)
        g = res.graph
        base = sorted(oracles.bfs_distances(g.adj, 0))
        stream = ScalarStream(99)
        for _ in range(10):
            v = stream.randrange(g.n)
            assert len(g.adj[v]) == len(g.adj[0])
            assert sorted(oracles.bfs_distances(g.adj, v)) == base

    def test_labels_are_row_major_entries(self):
        res = cayley_graph(elementary(3), 3)
        assert res.elements[0] == (1, 0, 0, 1)  # identity is vertex 0
        assert len(res.elements) == 24

    def test_product_labels_join_block_labels(self):
        left = cayley_graph(sanov(3), 3)
        res = cayley_graph(generators_from_recipe("product:diagonal:sanov", 3), 3)
        assert res.elements[0] == (1, 0, 0, 1, 1, 0, 0, 1)
        # the diagonal copy: each vertex is (g, g), found in the same BFS order
        assert res.elements == tuple(e + e for e in left.elements)


def _transvection_word(ks: list) -> tuple:
    """Product over Z of [[1,k],[0,1]] and [[1,0],[k,1]] in turn, k from `ks`."""
    x = IDENT
    for i, k in enumerate(ks):
        a, b, c, d = x
        x = (a, a * k + b, c, c * k + d) if i % 2 == 0 else (a + b * k, b, c + d * k, d)
    return x


@st.composite
def _blocks(draw, q: int) -> tuple:
    """A word in the transvections over Z (entries often outside 0..q-1, the
    identity when every k is 0 mod q) or, one time in eight, four free entries."""
    if draw(st.integers(0, 7)) == 7:
        return draw(st.tuples(*[st.integers(-q, 2 * q)] * 4))
    return _transvection_word(draw(st.lists(st.integers(-2 * q, 2 * q), min_size=1, max_size=4)))


@st.composite
def cores(draw):
    """(core, q): 1-3 elements of 4 or 8 entries mod q in 2..12, drawn from a
    pool of at most three, so repeats are common."""
    q = draw(st.integers(2, 12))
    width = draw(st.sampled_from([1, 2]))
    element = st.lists(_blocks(q), min_size=width, max_size=width)
    pool = draw(st.lists(element, min_size=1, max_size=3))
    core = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return [sum(e, ()) for e in core], q


def _outcome(build):
    try:
        return build()
    except (ValueError, ComputationRefused) as e:
        return type(e)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(cores())
    def test_matches_edge_set_build(self, case):
        # the edge-set build it replaced, on cores with the identity, repeats,
        # elements outside SL and sets not closed under inverses; a low order
        # cap keeps the product groups small and checks that both refuse alike
        core, q = case
        with mock.patch.object(matgroups, "ORDER_CAP", 1000), mock.patch.object(
            oracles, "ORDER_CAP", 1000
        ):
            got = _outcome(lambda: cayley_graph(core, q))
            want = _outcome(lambda: cayley_graph_reference(make_symmetric(core, q)))
        if isinstance(want, type):
            assert got is want
            return
        assert got == want  # graph, elements, reached and full order
        assert from_edges(got.graph.n, got.graph.edges()) == got.graph


class TestRecipes:
    def test_known_recipes(self):
        assert len(generators(generators_from_recipe("sanov", 5), 5)) == 4
        assert len(generators(generators_from_recipe("elementary", 5), 5)) == 4
        for recipe in ("product:twisted", "product:diagonal:elementary", "product:mixed"):
            gens = generators(generators_from_recipe(recipe, 3), 3)
            assert all(len(e) == 8 for e in gens)

    def test_product_pairings(self):
        a, b = (1, 1, 0, 1), (1, 0, 1, 1)
        for q in (3, 7):
            assert generators_from_recipe("product:diagonal:elementary", q) == (a + a, b + b)
            assert generators_from_recipe("product:twisted:elementary", q) == (a + b, b + a)
            assert generators_from_recipe("product:mixed:elementary", q) == (
                a + b, b + (2 % q, 1, 1, 1)
            )

    def test_transvections_default_is_sanov(self):
        for q in (3, 7, 9):
            assert generators_from_recipe("elementary", q) == ((1, 1, 0, 1), (1, 0, 1, 1))
            assert generators_from_recipe("sanov", q) == ((1, 2, 0, 1), (1, 0, 2, 1))
            assert generators_from_recipe("transvections", q) == sanov(q)
        assert set(generators_from_recipe("transvections:3", 7)) == {(1, 3, 0, 1), (1, 0, 3, 1)}
        with pytest.raises(ValueError, match="collapses to the identity"):
            cayley_graph(generators_from_recipe("transvections:3", 3), 3)

    def test_empty_fields_keep_their_defaults(self):
        assert generators_from_recipe("transvections:", 7) == sanov(7)
        assert generators_from_recipe("product:", 7) == generators_from_recipe(
            "product:twisted:sanov", 7
        )
        assert generators_from_recipe("product::elementary", 7) == generators_from_recipe(
            "product:twisted:elementary", 7
        )

    def test_product_base_keeps_its_own_power(self):
        a, b = (1, 3, 0, 1), (1, 0, 3, 1)
        assert generators_from_recipe("product:twisted:transvections:3", 7) == (a + b, b + a)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="recipe"):
            generators_from_recipe("lps", 5)
        with pytest.raises(ValueError, match="nest"):
            generators_from_recipe("product:twisted:product", 5)

    @pytest.mark.parametrize(
        "recipe",
        [
            # a field no recipe reads
            "transvections:3:9", "transvections:3:", "product:twisted:sanov:junk",
            "product:diagonal:elementary:", "sanov:", "elementary:1",
            # refused before any field was read one way
            "product", "product:twisted:", "product:bogus", "transvections:x", "",
            # a power int() reads, though it is not written in the digits 0-9 alone
            "transvections:3_0", "transvections: 3", "transvections:+3", "transvections:\u0663",
        ],
    )
    def test_malformed_recipe_refused(self, recipe):
        with pytest.raises(ValueError):
            generators_from_recipe(recipe, 7)

    def test_cayley_from_recipe_level(self):
        res = cayley_from_recipe("sanov", 3, 2)
        assert res.reached_order == 648


class TestTower:
    def test_girth_monotone_both_recipes(self):
        for recipe in ("sanov", "elementary"):
            rows = girth_tower_report(3, 2, recipe=recipe)
            assert [r.vertices for r in rows] == [24, 648]
            girths = [r.girth for r in rows]
            assert girths[0] <= girths[1]
            assert all(r.gap > 0 for r in rows)

    def test_single_level_matches_direct(self):
        rows = girth_tower_report(3, 1, recipe="sanov")
        res = cayley_graph(sanov(3), 3)
        assert rows[0].vertices == res.graph.n
        assert rows[0].girth == metrics.girth(res.graph)

    def test_girth_drop_at_equal_degree_raises(self, monkeypatch):
        falling = iter([6, 4])
        monkeypatch.setattr(metrics, "girth", lambda g, **_: next(falling))
        with pytest.raises(RuntimeError, match="not monotone"):
            girth_tower_report(3, 2, recipe="sanov")


class TestVertexTransitiveGirth:
    RECIPES = ("sanov", "elementary", "transvections:3", "product:twisted", "product:mixed:elementary")
    CASES = [(p, 1) for p in (2, 3, 5, 7)] + [(p, 2) for p in (2, 3)]

    def test_root_scan_equals_full_scan_on_every_recipe(self, monkeypatch):
        # the tower reads girth from vertex 0 because every recipe gives a
        # Cayley graph; check that against the all-vertex scan wherever the
        # full scan is cheap (order cap 2500)
        monkeypatch.setattr(matgroups, "ORDER_CAP", 2500)
        checked = 0
        for recipe in self.RECIPES:
            for p, level in self.CASES:
                try:
                    g = cayley_from_recipe(recipe, p, level).graph
                except ValueError as e:
                    assert "collapses to the identity" in str(e)
                    continue
                except ComputationRefused as e:
                    assert "order cap 2500" in str(e)
                    continue
                assert metrics.girth(g, vertex_transitive=True) == metrics.girth(g), (recipe, p, level)
                checked += 1
        assert checked == 24


class TestOrders:
    def test_is_prime_power(self):
        assert is_prime_power(27) == (3, 3)
        assert is_prime_power(25) == (5, 2)
        assert is_prime_power(7) == (7, 1)
        assert is_prime_power(12) is None

    def test_sl2_order_formula(self):
        assert sl2_order(3) == 24
        assert sl2_order(9) == 648
        assert sl2_order(27) == 17496
        assert sl2_order(5) == 120
        assert sl2_order(12) is None


class TestFreePairCheck:
    def test_sanov_pair_has_no_short_relation(self):
        assert words_avoid_identity([[1, 2], [0, 1]], [[1, 0], [2, 1]], max_len=10)

    def test_elementary_pair_has_a_relation(self):
        # (a b^{-1} a) is a rotation of order 4 in SL(2,Z): relation of length 12
        assert not words_avoid_identity([[1, 1], [0, 1]], [[1, 0], [1, 1]], max_len=12)
