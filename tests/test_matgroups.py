import pytest

from expanderlab import matgroups, metrics
from expanderlab.errors import ComputationRefused
from expanderlab.matgroups import (
    GeneratorSet,
    cayley_from_recipe,
    cayley_graph,
    generators_from_recipe,
    girth_tower_report,
    group_inv,
    group_mul,
    is_prime_power,
    make_symmetric,
    product_generators,
    sl2_order,
    transvection_generators,
)
from expanderlab.rng import Stream
from oracles import words_avoid_identity

IDENT = (1, 0, 0, 1)


def random_sl2(q: int, stream: Stream) -> tuple:
    """Random product of elementary generators — always determinant 1."""
    gens = transvection_generators(q, 1).elements
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
            stream = Stream(q * 17)
            for _ in range(1000):
                a, b, c = (random_sl2(q, stream) for _ in range(3))
                assert group_mul(group_mul(a, b, q), c, q) == group_mul(a, group_mul(b, c, q), q)
                assert group_mul(a, group_inv(a, q), q) == IDENT
                assert group_mul(a, IDENT, q) == a

    def test_product_blocks_componentwise(self):
        q = 9
        stream = Stream(5)
        for _ in range(200):
            a, b, c, d = (random_sl2(q, stream) for _ in range(4))
            assert group_mul(a + b, c + d, q) == group_mul(a, c, q) + group_mul(b, d, q)
            assert group_inv(a + b, q) == group_inv(a, q) + group_inv(b, q)


class TestReduce:
    def test_entrywise(self):
        # a core given over Z is reduced entry by entry
        assert make_symmetric([(10, -7, 9, 1)], 9).core == ((1, 2, 0, 1),)

    def test_homomorphism_random(self):
        for q, q_new in ((9, 3), (25, 5), (27, 9), (27, 3)):
            stream = Stream(q)
            for _ in range(250):
                a = random_sl2(q, stream)
                b = random_sl2(q, stream)
                assert reduce(group_mul(a, b, q), q_new) == group_mul(
                    reduce(a, q_new), reduce(b, q_new), q_new
                )


def sanov(q: int) -> GeneratorSet:
    return generators_from_recipe("sanov", q)


def elementary(q: int) -> GeneratorSet:
    return generators_from_recipe("elementary", q)


class TestGeneratorSets:
    def test_sanov_q3_four_elements(self):
        gs = sanov(3)
        assert len(gs.elements) == 4
        assert len(set(gs.elements)) == 4
        assert gs.modulus == 3

    def test_sanov_q5_exact_set(self):
        assert set(sanov(5).elements) == {
            (1, 2, 0, 1),
            (1, 0, 2, 1),
            (1, 3, 0, 1),
            (1, 0, 3, 1),
        }

    def test_sanov_q2_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            sanov(2)

    def test_modulus_checked(self):
        for q in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                transvection_generators(q, 1)

    def test_transvection_power_checked(self):
        with pytest.raises(ValueError, match=">= 1"):
            transvection_generators(5, 0)

    def test_symmetrized_closed_under_inverse(self):
        for gs in (sanov(7), elementary(9)):
            elems = set(gs.elements)
            q = gs.modulus
            assert all(group_inv(e, q) in elems for e in elems)
            assert not any(e == IDENT for e in elems)

    def test_make_symmetric_reduces_drops_identity_dedupes(self):
        gs = make_symmetric([(6, 1, 5, 1), (1, 0, 0, 1), (1, 1, 0, 1), (1, 6, 0, 1)], 5)
        assert gs.core == ((1, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 1))
        assert gs.elements == ((1, 1, 0, 1), (1, 4, 0, 1))
        with pytest.raises(ValueError, match="not in SL"):
            make_symmetric([(2, 0, 0, 1)], 5)

    def test_product_twisted_count(self):
        gs = product_generators(sanov(3), "twisted")
        assert len(gs.elements) == 4
        assert all(len(e) == 8 for e in gs.elements)
        assert gs.modulus == 3

    def test_product_unknown_pairing(self):
        with pytest.raises(ValueError, match="pairing"):
            product_generators(sanov(3), "zigzag")


class TestCayleyGraph:
    def test_elementary_q3_full_group(self):
        res = cayley_graph(elementary(3))
        assert res.reached_order == 24
        assert res.full_group_order == 24
        assert res.graph.max_degree == 4
        assert all(len(res.graph.adj[v]) == 4 for v in range(res.graph.n))

    def test_elementary_q2_order6(self):
        res = cayley_graph(elementary(2))
        assert res.reached_order == 6

    def test_elementary_q5_order120(self):
        res = cayley_graph(elementary(5))
        assert res.reached_order == 120 == sl2_order(5)

    def test_sanov_q9_order(self):
        res = cayley_graph(sanov(9))
        assert res.reached_order == 648 == sl2_order(9)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(matgroups, "ORDER_CAP", 100)
        with pytest.raises(ComputationRefused, match="too large"):
            cayley_graph(sanov(9))

    def test_bad_generator_sets(self):
        with pytest.raises(ValueError, match="empty"):
            cayley_graph(GeneratorSet(elements=(), core=(), modulus=5))
        with pytest.raises(ValueError, match="identity"):
            cayley_graph(GeneratorSet(elements=(IDENT,), core=(IDENT,), modulus=5))

    def test_diagonal_product_reaches_diagonal_copy(self):
        res = cayley_graph(product_generators(sanov(3), "diagonal"))
        assert res.reached_order == 24
        assert res.full_group_order == 576

    def test_mixed_product_order_reported(self):
        res = cayley_graph(product_generators(elementary(3), "mixed"))
        assert res.full_group_order == 576
        assert 1 <= res.reached_order <= 576

    def test_weak_vertex_transitivity(self):
        # every vertex has equal degree and the same sorted distance multiset
        # on a sample of vertices
        from expanderlab.graphcore import bfs_distances

        res = cayley_graph(elementary(5))
        g = res.graph
        base = sorted(bfs_distances(g.adj, 0))
        stream = Stream(99)
        for _ in range(10):
            v = stream.randrange(g.n)
            assert len(g.adj[v]) == len(g.adj[0])
            assert sorted(bfs_distances(g.adj, v)) == base

    def test_labels_are_row_major_entries(self):
        res = cayley_graph(elementary(3))
        assert res.elements[0] == (1, 0, 0, 1)  # identity is vertex 0
        assert len(res.elements) == 24

    def test_product_labels_join_block_labels(self):
        left = cayley_graph(sanov(3))
        res = cayley_graph(product_generators(sanov(3), "diagonal"))
        assert res.elements[0] == (1, 0, 0, 1, 1, 0, 0, 1)
        # the diagonal copy: each vertex is (g, g), found in the same BFS order
        assert res.elements == tuple(e + e for e in left.elements)


class TestRecipes:
    def test_known_recipes(self):
        assert len(generators_from_recipe("sanov", 5).elements) == 4
        assert len(generators_from_recipe("elementary", 5).elements) == 4
        gs = generators_from_recipe("product:twisted", 3)
        assert len(gs.elements[0]) == 8
        gs = generators_from_recipe("product:diagonal:elementary", 3)
        assert len(gs.elements[0]) == 8

    def test_transvections_default_is_sanov(self):
        for q in (3, 7, 9):
            assert generators_from_recipe("elementary", q) == transvection_generators(q, 1)
            assert generators_from_recipe("sanov", q) == transvection_generators(q, 2)
            assert generators_from_recipe("transvections", q) == transvection_generators(q, 2)
        gs = generators_from_recipe("transvections:3", 7)
        assert set(gs.core) == {(1, 3, 0, 1), (1, 0, 3, 1)}
        with pytest.raises(ValueError, match="collapses"):
            transvection_generators(3, 3)

    def test_empty_fields_keep_their_defaults(self):
        sanov, elementary = transvection_generators(7, 2), transvection_generators(7, 1)
        assert generators_from_recipe("transvections:", 7) == sanov
        assert generators_from_recipe("product:", 7) == product_generators(sanov, "twisted")
        assert generators_from_recipe("product::elementary", 7) == product_generators(
            elementary, "twisted"
        )

    def test_product_base_keeps_its_own_power(self):
        assert generators_from_recipe("product:twisted:transvections:3", 7) == product_generators(
            transvection_generators(7, 3), "twisted"
        )

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
        res = cayley_graph(sanov(3))
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
                    assert "collapses to identity" in str(e)
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
