import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expanderlab import percolation
from expanderlab.builders import named_graph, random_regular
from expanderlab.graphcore import (
    edge_subgraph,
    from_edges,
    is_connected,
)
from expanderlab.metrics import spectrum
from expanderlab.percolation import (
    _PHASE_SWEEP,
    _edge_uniforms,
    component_summary,
    condition_check,
    percolate,
    percolation_sweep,
)
from expanderlab.rng import split
from oracles import percolation_sweep_reference


class TestPercolate:
    def test_endpoints_exact(self):
        g = named_graph("cycle", 9)
        assert percolate(g, 0.0, 5).edge_set() == frozenset()
        assert percolate(g, 1.0, 5) == g

    def test_determinism(self):
        g = random_regular(20, 4, seed=3)
        assert percolate(g, 0.4, 11) == percolate(g, 0.4, 11)

    def test_out_of_range(self):
        g = named_graph("cycle", 5)
        with pytest.raises(ValueError):
            percolate(g, -0.1, 0)
        with pytest.raises(ValueError):
            percolate(g, 1.5, 0)

    def test_k4_binomial_mean(self):
        g = named_graph("complete", 4)
        counts = [percolate(g, 0.5, seed).m for seed in range(100)]
        mean = sum(counts) / len(counts)
        # Binomial(6, 0.5): mean 3, sigma of the sample mean = sqrt(1.5/100)
        assert abs(mean - 3.0) <= 4 * math.sqrt(6 * 0.25 / 100)

    def test_monotone_coupling(self):
        g = random_regular(30, 4, seed=8)
        for seed in range(10):
            lo = percolate(g, 0.3, seed).edge_set()
            hi = percolate(g, 0.7, seed).edge_set()
            assert lo <= hi

    def test_spanning_by_construction(self):
        g = random_regular(20, 3, seed=2)
        sample = percolate(g, 0.5, 1)
        assert sample.n == g.n
        assert edge_subgraph(g, sample.edge_set()) == sample


class TestComponentSummary:
    def test_full_retention_one_component(self):
        g = named_graph("cycle", 7)
        summary = component_summary(percolate(g, 1.0, 0))
        assert summary.count == 1 and summary.giant_fraction == 1.0

    def test_zero_retention_singletons(self):
        g = named_graph("cycle", 7)
        summary = component_summary(percolate(g, 0.0, 0))
        assert summary.count == 7
        assert summary.giant_fraction == 1 / 7

    def test_c4_two_opposite_edges(self):
        summary = component_summary(from_edges(4, [(0, 1), (2, 3)]))
        assert summary.count == 2 and summary.giant_fraction == 0.5

    def test_sizes_sum_to_n(self):
        g = random_regular(24, 4, seed=5)
        for seed in range(10):
            sample = percolate(g, 0.4, seed)
            sizes, seen = [], set()
            for v in range(g.n):
                if v not in seen:
                    comp = {w for w, d in enumerate(oracles.bfs_distances(sample.adj, v)) if d >= 0}
                    seen |= comp
                    sizes.append(len(comp))
            assert sum(sizes) == g.n
            summary = component_summary(sample)
            assert (summary.count, summary.giant_fraction) == (len(sizes), max(sizes) / g.n)


class TestConditionCheck:
    def test_k4(self):
        check = condition_check(named_graph("complete", 4), 0.9)
        assert abs(check.value - 0.9) < 1e-9
        assert check.satisfied

    def test_c4(self):
        check = condition_check(named_graph("cycle", 4), 0.6)
        assert abs(check.value - 1.2) < 1e-9
        assert not check.satisfied

    def test_p_zero(self):
        check = condition_check(named_graph("petersen"), 0.0)
        assert check.value == 0.0 and check.satisfied


class TestSweep:
    def test_endpoint_grid(self):
        g = random_regular(16, 4, seed=4)
        rows = percolation_sweep(g, [0.0, 1.0], seeds_per_point=3, base_seed=9)
        assert rows[0].giant_mean == 1.0 / g.n
        assert rows[1].giant_mean == 1.0
        assert rows[0].giant_std == 0.0 and rows[1].giant_std == 0.0

    def test_single_point_matches_direct(self):
        g = random_regular(16, 4, seed=4)
        rows = percolation_sweep(g, [0.5], seeds_per_point=1, base_seed=13)
        direct = component_summary(percolate(g, 0.5, split(13, _PHASE_SWEEP, 0)))
        assert rows[0].giant_mean == direct.giant_fraction

    def test_monotone_mean_in_p(self):
        # threshold coupling makes per-seed fractions monotone, hence the mean
        g = random_regular(40, 4, seed=6)
        rows = percolation_sweep(g, [0.1, 0.3, 0.5, 0.7, 0.9], 20, base_seed=3)
        means = [r.giant_mean for r in rows]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_condition_column(self):
        g = named_graph("complete", 4)
        rows = percolation_sweep(g, [0.9], 2, base_seed=1)
        assert abs(rows[0].condition_value - 0.9) < 1e-9
        assert rows[0].condition_ok

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            percolation_sweep(named_graph("cycle", 5), [], 2, 0)

    @pytest.mark.parametrize("grid", [[0.5, 1.5], [math.nan], [0.5, -0.1]])
    def test_whole_grid_checked_before_the_solve(self, grid):
        def unreachable(g):
            raise AssertionError("spectrum solved for a bad grid")

        with mock.patch.object(percolation, "spectrum", unreachable):
            with pytest.raises(ValueError, match=r"must be in \[0,1\]"):
                percolation_sweep(named_graph("cycle", 5), grid, 2, 0)

    def test_point_on_an_edge_uniform_leaves_that_edge_out(self):
        # on the path 0-1-2, p = the larger uniform keeps only the other edge
        g = from_edges(3, [(0, 1), (1, 2)])
        p = max(_edge_uniforms(g, split(5, _PHASE_SWEEP, 0)))
        (row,) = percolation_sweep(g, [p], 1, 5)
        assert row.giant_mean == 2 / 3


def _spectrum_or_stub(g):
    # spectrum refuses disconnected hosts; the component pass does not need it
    if g.n >= 2 and is_connected(g):
        return spectrum(g)
    return SimpleNamespace(rho_star=0.5)


@st.composite
def _sweep_case(draw):
    """A host, maybe disconnected or edge-free, a grid, a seed count and a seed.

    Grids come unsorted, with repeats, 0 and 1; at times one point is an edge's
    uniform, where the strict `<` leaves that edge out.
    """
    n = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.9]))
    g = from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density])
    seeds = draw(st.integers(1, 5))
    base_seed = draw(st.integers(0, 2**64 - 1))
    points = draw(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6)
    )
    if g.m and draw(st.booleans()):
        uniforms = _edge_uniforms(g, split(base_seed, _PHASE_SWEEP, draw(st.integers(0, seeds - 1))))
        points.append(uniforms[draw(st.integers(0, g.m - 1))])
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return g, draw(st.permutations(points)), seeds, base_seed


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_sweep_case())
def test_sweep_matches_reference(case):
    # one pass per replicate gives the rows of one sample per (p, seed)
    g, grid, seeds, base_seed = case
    with mock.patch.object(percolation, "spectrum", _spectrum_or_stub), mock.patch.object(
        oracles, "spectrum", _spectrum_or_stub
    ):
        assert percolation_sweep(g, grid, seeds, base_seed) == percolation_sweep_reference(
            g, grid, seeds, base_seed
        )
