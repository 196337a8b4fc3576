"""Bernoulli bond percolation with threshold coupling, plus component analytics.

One uniform is drawn per edge (in canonical edge order) from the seeded
stream; an edge is retained iff its uniform is below p. The draws do not
depend on p, so retained(p1) is a subset of retained(p2) whenever p1 <= p2 —
the monotone coupling the sweep relies on. Marginals are exactly Bernoulli(p).

The sweep is Newman–Ziff (2000): per replicate it draws the uniforms once,
adds edges to one union-find in uniform order and reads the largest component
at each grid point, O(seeds · m log m) whatever the grid length. A replicate
stops adding edges once its largest component spans all n vertices, since
every later grid point then reads 1. Rows come in the given grid order,
repeats included, equal to one `percolate` per (p, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import Graph, from_edges
from .metrics import spectrum
from .rng import Stream, split

_PHASE_EDGES = 0x22
_PHASE_SWEEP = 0x33


class DisjointSet:
    """Union-find with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


@dataclass(frozen=True)
class ComponentSummary:
    count: int
    giant_fraction: float


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability must be in [0,1], got {p}")


def _edge_uniforms(g: Graph, seed: int) -> np.ndarray:
    """The coupling's uniforms, one per edge in canonical edge order.

    Each is the top 53 bits of one draw times 2^-53, so it lies in [0, 1).
    """
    return (Stream(split(seed, _PHASE_EDGES)).block(g.m) >> 11) * 2.0**-53


def percolate(g: Graph, p: float, seed: int) -> Graph:
    """Spanning subgraph keeping each edge independently with probability p (threshold coupling)."""
    _check_p(p)
    kept = (_edge_uniforms(g, seed) < p).tolist()
    return from_edges(g.n, [e for e, keep in zip(g.edges(), kept) if keep])


def component_summary(g: Graph) -> ComponentSummary:
    """Connected components of `g` (exact, union-find)."""
    ds = DisjointSet(g.n)
    for u, v in g.edges():
        ds.union(u, v)
    giant = max(ds.size[v] for v in range(g.n) if ds.parent[v] == v)
    return ComponentSummary(count=ds.count, giant_fraction=giant / g.n)


@dataclass(frozen=True)
class ConditionCheck:
    value: float
    satisfied: bool


def condition_check(g: Graph, p: float) -> ConditionCheck:
    """The spectral retention condition rho_star(G) * d_G * p < 1.

    rho_star is the nontrivial spectral radius of the walk operator and d_G
    the maximum degree; the check only reports the value, it claims nothing
    about giant components.
    """
    _check_p(p)
    value = spectrum(g).rho_star * g.max_degree * p
    return ConditionCheck(value=value, satisfied=value < 1.0)


@dataclass(frozen=True)
class SweepRow:
    p: float
    seed_count: int
    giant_mean: float
    giant_std: float
    condition_value: float
    condition_ok: bool


def percolation_sweep(
    g: Graph, grid, seeds_per_point: int, base_seed: int
) -> list[SweepRow]:
    """Monte Carlo giant-component table over a p grid, one row per grid point.

    Replicate i percolates with seed split(base_seed, _PHASE_SWEEP, i); the std
    is the population standard deviation over replicates.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty p grid")
    if seeds_per_point < 1:
        raise ValueError(f"need >= 1 seed per grid point, got {seeds_per_point}")
    for p in grid:
        _check_p(p)
    rho_d = spectrum(g).rho_star * g.max_degree
    n, edges = g.n, list(g.edges())
    ascending = sorted(range(len(grid)), key=grid.__getitem__)
    fractions = [[] for _ in grid]
    for i in range(seeds_per_point):
        uniforms = _edge_uniforms(g, split(base_seed, _PHASE_SWEEP, i))
        order = np.argsort(uniforms, kind="stable")
        # ends[j]: how many edges have a uniform below grid[j], so are kept there
        ends = np.searchsorted(uniforms[order], grid, side="left").tolist()
        order = order.tolist()
        parent, size = list(range(n)), [1] * n
        giant, k = 1, 0
        for j in ascending:
            # once the giant spans every vertex, each later point reads 1
            while k < ends[j] and giant < n:
                u, v = edges[order[k]]
                k += 1
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u != v:
                    if size[u] < size[v]:
                        u, v = v, u
                    parent[v] = u
                    size[u] += size[v]
                    giant = max(giant, size[u])
            fractions[j].append(giant / n)
    rows = []
    for p, fs in zip(grid, fractions):
        mean = sum(fs) / len(fs)
        var = sum((x - mean) ** 2 for x in fs) / len(fs)
        value = rho_d * p
        rows.append(SweepRow(
            p=p, seed_count=seeds_per_point, giant_mean=mean, giant_std=math.sqrt(var),
            condition_value=value, condition_ok=value < 1.0,
        ))
    return rows
