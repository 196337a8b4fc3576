import pytest

from expanderlab import metrics
from expanderlab.errors import ComputationRefused
from expanderlab.matgroups import (
    CayleyResult,
    GeneratorSet,
    ModMatrix,
    ProductElement,
    cayley_from_recipe,
    cayley_graph,
    elementary_generators,
    generators_from_recipe,
    girth_tower_report,
    is_prime_power,
    make_symmetric,
    product_generators,
    sanov_generators,
    sl2_order,
    words_avoid_identity,
)
from expanderlab.rng import Stream


def mm(q, rows):
    return ModMatrix.make(2, q, rows)


def random_sl2(q: int, stream: Stream) -> ModMatrix:
    """Random product of elementary generators — always determinant 1."""
    gens = elementary_generators(q).elements
    x = ModMatrix.identity(2, q)
    for _ in range(stream.randrange(12) + 1):
        x = x.mul(gens[stream.randrange(len(gens))])
    return x


class TestMatrixArithmetic:
    def test_mul_example_mod5(self):
        a = mm(5, [[1, 1], [0, 1]])
        b = mm(5, [[1, 0], [1, 1]])
        assert a.mul(b).entries == ((2, 1), (1, 1))

    def test_mul_identity(self):
        a = mm(7, [[2, 3], [3, 5]])
        assert a.mul(ModMatrix.identity(2, 7)) == a

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mm(5, [[1, 1], [0, 1]]).mul(mm(7, [[1, 1], [0, 1]]))

    def test_inv_unipotent(self):
        for q in (5, 9, 27):
            a = mm(q, [[1, 1], [0, 1]])
            assert a.inv().entries == ((1, q - 1), (0, 1))

    def test_inv_identity(self):
        i = ModMatrix.identity(2, 11)
        assert i.inv() == i

    def test_inv_rejects_det_not_one(self):
        with pytest.raises(ValueError, match="not in SL"):
            mm(5, [[2, 0], [0, 1]]).inv()

    def test_group_laws_random(self):
        for q in (3, 5, 9, 25, 27):
            stream = Stream(q * 17)
            ident = ModMatrix.identity(2, q)
            for _ in range(1000):
                a, b, c = (random_sl2(q, stream) for _ in range(3))
                assert a.mul(b).mul(c) == a.mul(b.mul(c))
                assert a.mul(a.inv()) == ident
                assert a.mul(ident) == a

    def test_dim3_inverse(self):
        a = ModMatrix.make(3, 7, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        assert a.det() == 1
        assert a.mul(a.inv()) == ModMatrix.identity(3, 7)


class TestReduce:
    def test_entrywise(self):
        a = mm(9, [[4, 7], [3, 8]])
        assert a.reduce_mod(3).entries == ((1, 1), (0, 2))

    def test_same_modulus_identity_map(self):
        a = mm(9, [[1, 2], [0, 1]])
        assert a.reduce_mod(9) == a

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            mm(9, [[1, 2], [0, 1]]).reduce_mod(2)

    def test_homomorphism_random(self):
        for q, q_new in ((9, 3), (25, 5), (27, 9), (27, 3)):
            stream = Stream(q)
            for _ in range(250):
                a = random_sl2(q, stream)
                b = random_sl2(q, stream)
                assert a.mul(b).reduce_mod(q_new) == a.reduce_mod(q_new).mul(
                    b.reduce_mod(q_new)
                )


class TestGeneratorSets:
    def test_sanov_q3_four_elements(self):
        gs = sanov_generators(3)
        assert len(gs.elements) == 4
        assert len(set(gs.elements)) == 4

    def test_sanov_q5_exact_set(self):
        gs = sanov_generators(5)
        entries = {e.entries for e in gs.elements}
        assert entries == {
            ((1, 2), (0, 1)),
            ((1, 0), (2, 1)),
            ((1, 3), (0, 1)),
            ((1, 0), (3, 1)),
        }

    def test_sanov_q2_rejected(self):
        with pytest.raises(ValueError, match="q >= 3"):
            sanov_generators(2)

    def test_symmetrized_closed_under_inverse(self):
        for gs in (sanov_generators(7), elementary_generators(9)):
            elems = set(gs.elements)
            assert all(e.inv() in elems for e in elems)
            assert not any(e.is_identity() for e in elems)

    def test_product_twisted_count(self):
        gs = product_generators(sanov_generators(3), "twisted")
        assert len(gs.elements) == 4
        assert all(isinstance(e, ProductElement) for e in gs.elements)

    def test_product_unknown_pairing(self):
        with pytest.raises(ValueError, match="pairing"):
            product_generators(sanov_generators(3), "zigzag")


class TestCayleyGraph:
    def test_elementary_q3_full_group(self):
        res = cayley_graph(elementary_generators(3))
        assert res.reached_order == 24
        assert res.full_group_order == 24
        assert res.graph.max_degree == 4
        assert all(res.graph.degree(v) == 4 for v in range(res.graph.n))

    def test_elementary_q2_order6(self):
        res = cayley_graph(elementary_generators(2))
        assert res.reached_order == 6

    def test_elementary_q5_order120(self):
        res = cayley_graph(elementary_generators(5))
        assert res.reached_order == 120 == sl2_order(5)

    def test_sanov_q9_order(self):
        res = cayley_graph(sanov_generators(9))
        assert res.reached_order == 648 == sl2_order(9)

    def test_order_cap(self):
        with pytest.raises(ComputationRefused, match="too large"):
            cayley_graph(sanov_generators(9), order_cap=100)

    def test_diagonal_product_reaches_diagonal_copy(self):
        res = cayley_graph(product_generators(sanov_generators(3), "diagonal"))
        assert res.reached_order == 24
        assert res.full_group_order == 576

    def test_mixed_product_order_reported(self):
        res = cayley_graph(product_generators(elementary_generators(3), "mixed"))
        assert res.full_group_order == 576
        assert 1 <= res.reached_order <= 576

    def test_weak_vertex_transitivity(self):
        # every vertex has equal degree and the same sorted distance multiset
        # on a sample of vertices
        from expanderlab.graphcore import bfs_distances

        res = cayley_graph(elementary_generators(5))
        g = res.graph
        base = sorted(bfs_distances(g.adj, 0))
        stream = Stream(99)
        for _ in range(10):
            v = stream.randrange(g.n)
            assert g.degree(v) == g.degree(0)
            assert sorted(bfs_distances(g.adj, v)) == base

    def test_labels_are_row_major_entries(self):
        res = cayley_graph(elementary_generators(3))
        assert res.labels[0] == "1 0 0 1"  # identity is vertex 0
        assert len(res.labels) == 24


class TestRecipes:
    def test_known_recipes(self):
        assert len(generators_from_recipe("sanov", 5).elements) == 4
        assert len(generators_from_recipe("elementary", 5).elements) == 4
        gs = generators_from_recipe("product:twisted", 3)
        assert isinstance(gs.elements[0], ProductElement)
        gs = generators_from_recipe("product:diagonal:elementary", 3)
        assert isinstance(gs.elements[0], ProductElement)

    def test_transvections_default_is_sanov(self):
        from expanderlab.matgroups import transvection_generators

        assert set(generators_from_recipe("transvections", 7).elements) == set(
            sanov_generators(7).elements
        )
        assert set(transvection_generators(7, 1).elements) == set(
            elementary_generators(7).elements
        )
        gs = generators_from_recipe("transvections:3", 7)
        assert {e.entries for e in gs.core} == {((1, 3), (0, 1)), ((1, 0), (3, 1))}
        with pytest.raises(ValueError, match="collapses"):
            transvection_generators(3, 3)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="recipe"):
            generators_from_recipe("lps", 5)

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
        res = cayley_graph(sanov_generators(3))
        assert rows[0].vertices == res.graph.n
        assert rows[0].girth == metrics.girth(res.graph)


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
