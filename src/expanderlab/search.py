"""Spanning high-girth sub-expander search.

Given a connected host, find a spanning subgraph whose girth clears a target
(a fixed fraction of the host diameter, or an absolute bound) while keeping
the spectral gap as large as possible. Two incomparable strategies are
shipped and raced by the probe:

  trim              delete one edge of a shortest cycle until girth >= target
  percolate-repair  Bernoulli-percolate, reconnect, augment under the girth
                    floor, then trim residual short cycles

`reconnect_repair` is the one step that joins components: augment requires a
connected subgraph, and trim deletes only cycle edges, so it keeps one
connected. Every step takes a spanning subgraph of the host as a `Graph` and
returns one: it copies the adjacency into sorted, symmetric lists, mutates
them and freezes them again. percolate-repair's sample is built from host
edges, so pairs are validated against the host through `edge_subgraph` in
one place only: the re-measure of every returned candidate (girth, gap,
connectivity), which is also the check that it lies in the host — nothing is
trusted from the search loop's bookkeeping. percolate-repair percolates at
p = min(1, 1/(rho_star * d)), the edge of the paper's window rho_star * d * p < 1.

`conjecture_probe` runs its (host, ratio, strategy) cells in a fork pool; its
docstring says how, and why the outputs do not depend on the worker count.
"""

from __future__ import annotations

import heapq
import math
import os
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import graphcore
from .builders import (
    FamilySpec,
    base_family_id,
    build_family,
    canonical_spec_string,
    graph_power,
    with_defaults,
)
from .graphcore import (
    UNREACHABLE,
    Graph,
    edge_subgraph,
    is_connected,
    pair_distance,
    shortest_cycle_scan,
)
from .metrics import (
    DEFAULT_EXACT_MAX,
    SpectrumResult,
    diameter,
    exact_h,
    girth,
    spectrum,
)
from .percolation import DisjointSet, percolate
from .rng import split

STRATEGIES = ("trim", "percolate-repair")

_PHASE_PERC = 0x41
_PHASE_PROBE = 0x51


# --- shortest-cycle machinery -------------------------------------------


def trim_to_girth(g: Graph, target: int) -> Graph:
    """Delete edges of shortest cycles until girth >= target.

    Per step, one edge of a currently shortest cycle is removed — the one
    maximizing the endpoint-degree sum, ties to the lexicographically
    smallest pair. Cycle edges never disconnect, so connectivity of the
    input is preserved; the vertex set always is. Removals keep the working
    lists sorted, so the result is frozen from them without re-validation.
    """
    if target < 3:
        raise ValueError(f"girth target must be >= 3, got {target}")
    n = g.n
    adj = [list(a) for a in g.adj]
    while True:
        found = shortest_cycle_scan(adj, below=target)
        if found is None:
            break
        length, cycle = found
        if len(set(cycle)) != length:
            raise RuntimeError(f"shortest cycle of length {length} is not a simple cycle")
        best_edge = None
        best_score = -1
        for i in range(length):
            u, v = cycle[i], cycle[(i + 1) % length]
            e = (u, v) if u < v else (v, u)
            score = len(adj[u]) + len(adj[v])
            if score > best_score or (score == best_score and e < best_edge):
                best_score = score
                best_edge = e
        u, v = best_edge
        adj[u].remove(v)
        adj[v].remove(u)
    return Graph(n, tuple(map(tuple, adj)))


# --- repair and augmentation ---------------------------------------------


def reconnect_repair(host: Graph, sub: Graph) -> Graph:
    """Join the components of `sub` with host edges, smallest-index first.

    `sub` is a spanning subgraph of `host`. Every added edge bridges two
    components at insertion time, so no cycle is created and the girth of
    `sub` is preserved exactly.
    """
    adj = [list(a) for a in sub.adj]
    ds = DisjointSet(host.n)
    for u, v in sub.edges():
        ds.union(u, v)
    if ds.count > 1:
        for u, v in host.edges():
            if ds.union(u, v):
                insort(adj[u], v)
                insort(adj[v], u)
                if ds.count == 1:
                    break
    if ds.count > 1:
        raise ValueError("reconnect_repair requires a connected host")
    return Graph(host.n, tuple(map(tuple, adj)))


def _far_candidates(host: Graph, sub: Graph, need: int) -> list[tuple]:
    """(-dist_sub(u, v), u, v) for the host edges u < v not in the connected
    `sub` and at least `need` apart in it.

    Reads `graphcore.reach_blocks` over sources u, with each v's candidates
    as a bitmask of u's: the bits set by level need - 1 are too close, and a
    bit first set at a later level d is a pair at distance d.
    """
    cand: dict[int, int] = {}
    for u, v in host.edges():
        if not sub.has_edge(u, v):
            cand[v] = cand.get(v, 0) | 1 << u
    out = []
    for lo, hi, levels in graphcore.reach_blocks(sub.adj):
        block = (1 << (hi - lo)) - 1
        pending = {v: c >> lo & block for v, c in cand.items() if c >> lo & block}
        for d, reach in enumerate(levels):
            if not pending:
                break
            if d < need - 1:
                continue
            for v, bits in list(pending.items()):
                new = reach[v] & bits
                if not new:
                    continue
                if new == bits:
                    del pending[v]
                else:
                    pending[v] = bits ^ new
                while new and d >= need:
                    low = new & -new
                    out.append((-d, lo + low.bit_length() - 1, v))
                    new ^= low
    return out


def augment_edges(host: Graph, sub: Graph, girth_floor: int, budget: int) -> Graph:
    """Greedily add host edges whose endpoints are far apart in `sub`.

    `sub` is a connected spanning subgraph of `host` (`reconnect_repair`
    joins components). A candidate {u,v} is added only while
    dist_sub(u,v) >= girth_floor - 1, so every cycle it creates has length
    >= girth_floor. Candidates are processed by decreasing current distance
    (ties lexicographic), until the budget is spent or none qualify.
    Distances only shrink as edges arrive, so a lazy max-heap with
    re-validation is exact, and a pair already closer than the floor is never
    queued. A popped pair is re-measured by a bidirectional BFS capped at
    depth stored - 1: the current distance is at most the stored one, so
    finding nothing within that depth means it still equals the stored one,
    and the deepest layer is never expanded.
    """
    if girth_floor < 3:
        raise ValueError(f"girth floor must be >= 3, got {girth_floor}")
    if not is_connected(sub):
        raise ValueError("augment_edges requires a connected subgraph")
    adj = [list(a) for a in sub.adj]
    need = girth_floor - 1
    heap = _far_candidates(host, sub, need)
    heapq.heapify(heap)
    adds = 0
    while heap and adds < budget:
        neg, u, v = heapq.heappop(heap)
        stored = -neg
        d = pair_distance(adj, u, v, stored - 1)
        cur = stored if d == UNREACHABLE else d
        if cur < stored:
            if cur >= need:
                heapq.heappush(heap, (-cur, u, v))
            continue  # else: can never qualify again — drop
        insort(adj[u], v)
        insort(adj[v], u)
        adds += 1
    return Graph(host.n, tuple(map(tuple, adj)))


# --- search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    graph: Graph  # the re-measured subgraph
    girth_achieved: object  # int or UNBOUNDED
    gap: float
    h_exact: Optional[Fraction]
    connected: bool
    strategy: str
    seed: int
    iterations_used: int


def _check_request(strategies: Sequence[str], ratios: Sequence[float], budget: int) -> None:
    """Refuse an unknown or repeated strategy, an empty strategy list, a bad or repeated ratio,
    or a budget below 1.

    A ratio must be > 0 with ratio * VERTEX_CAP finite: every diameter is
    below the cap, so ceil(ratio * diameter) is then an int.
    """
    if not strategies:
        raise ValueError("need at least one strategy")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}, expected one of {STRATEGIES}")
    for c in ratios:
        if not (c > 0 and math.isfinite(c * graphcore.VERTEX_CAP)):
            cap = graphcore.VERTEX_CAP
            raise ValueError(f"girth/diameter ratio must be > 0 with ratio * {cap} finite, got {c}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    for what, items in (("ratio", ratios), ("strategy", strategies)):
        for k, x in enumerate(items):
            if x in items[:k]:
                raise ValueError(f"repeated {what} {x!r}")


def search_spanning_subexpander(
    host: Graph,
    *,
    ratio: Optional[float] = None,
    girth_target: Optional[int] = None,
    strategy: str,
    budget: int,
    seed: int,
    host_spectrum: Optional[SpectrumResult] = None,
) -> SearchResult:
    """Run one strategy and return its re-validated best spanning candidate.

    Exactly one of `ratio` and `girth_target` is given: the target is
    ceil(ratio * diameter(host)) or that absolute girth. Deterministic in
    (host, parameters, seed).
    """
    if (ratio is None) == (girth_target is None):
        raise ValueError("give exactly one of ratio and girth_target")
    _check_request((strategy,), () if ratio is None else (ratio,), budget)
    if not is_connected(host):
        raise ValueError("search requires a connected host")
    if girth_target is None:
        girth_target = math.ceil(ratio * diameter(host))
    target_eff = max(girth_target, 3)  # girth >= 3 holds vacuously for any target below

    if strategy == "trim":
        out = trim_to_girth(host, target_eff)
        iterations = host.m - out.m
    else:  # percolate-repair
        spec = host_spectrum if host_spectrum is not None else spectrum(host)
        # rho_star > 0: the walk operator has trace 0, so it is not all zeros
        p = min(1.0, 1.0 / (spec.rho_star * host.max_degree))
        repaired = reconnect_repair(host, percolate(host, p, split(seed, _PHASE_PERC)))
        augmented = augment_edges(host, repaired, target_eff, budget)
        out = trim_to_girth(augmented, target_eff)
        iterations = 2 * augmented.m - repaired.m - out.m

    sub = edge_subgraph(host, out.edge_set())
    connected = is_connected(sub)
    girth_achieved = girth(sub)
    gap = spectrum(sub).gap if connected and sub.n >= 2 else 0.0
    return SearchResult(
        graph=sub,
        girth_achieved=girth_achieved,
        gap=gap,
        h_exact=exact_h(sub, DEFAULT_EXACT_MAX),
        connected=connected,
        strategy=strategy,
        seed=seed,
        iterations_used=iterations,
    )


# --- the conjecture probe -------------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    family: str
    instance: str
    n: int
    m: int
    d: int
    host_gap: float
    host_h_exact: Optional[Fraction]
    diameter: int
    c: float
    girth_target: int
    strategy: str
    best_girth: object  # int or UNBOUNDED
    best_gap: float
    best_h_exact: Optional[Fraction]
    ratio_achieved: float
    success: bool
    degenerate_diameter: bool
    seed: int


@dataclass(frozen=True)
class RatioSummary:
    c: float
    min_gap: Optional[float]  # empirical f(h,d) estimate at this ratio
    all_success: bool
    girth_grew: Optional[bool]


@dataclass(frozen=True)
class FamilySummary:
    family: str
    per_ratio: tuple[RatioSummary, ...]


def _meets(result: SearchResult, target: int) -> bool:
    return result.connected and result.girth_achieved >= target


def _run_cell(cell: tuple[Graph, SpectrumResult, int, str, int, int]) -> SearchResult:
    g, spec_res, target, strategy, budget, seed = cell
    return search_spanning_subexpander(
        g,
        girth_target=target,
        strategy=strategy,
        budget=budget,
        seed=seed,
        host_spectrum=spec_res,
    )


def conjecture_probe(
    specs: Sequence[FamilySpec],
    ratios: Sequence[float],
    *,
    strategies: Sequence[str],
    budget: int,
    seed: int,
) -> tuple[list[ProbeRecord], list[FamilySummary]]:
    """Race the strategies over instances x ratios and keep per-cell winners.

    For each instance and ratio c the girth target is ceil(c * diameter).
    The winner is the highest-gap strategy among those meeting the target
    (connected + girth), else the highest girth reached. Diameter-1 hosts are
    flagged degenerate and skipped in the per-family summaries, which report
    the min-over-instances winning gap per ratio (the empirical f estimate)
    and whether girth grew with instance size. A repeated ratio or strategy
    is rejected, and so is an instance that builds the same graph as an
    earlier one, since either would repeat a cell.

    Hosts are built and measured in this process. Each cell then carries its
    host by value, (graph, spectrum, target, strategy, budget, seed), with
    the host's rho_star already solved when percolate-repair is raced, and
    the cells run in a fork pool of one worker per CPU in the process's
    affinity mask, capped at the number of cells. Results return in cell
    order, so outputs are identical for any worker count (`taskset -c 0`
    gives one worker). The pool forks: a forkserver or spawn worker
    re-imports numpy, and the bench probe ran slower that way.
    Workers inherit `OPENBLAS_NUM_THREADS` with the rest of the environment.
    An error raised in a cell reaches the caller by type.
    """
    if not specs or not ratios:
        raise ValueError("need at least one family spec and one ratio")
    _check_request(strategies, ratios, budget)

    hosts = []
    built: dict[str, Graph] = {}  # canonical spec, defaults filled -> graph, for power: reuse
    first: dict[Graph, str] = {}  # graph -> the instance that built it, for repeats
    for spec in specs:
        key = canonical_spec_string(spec)
        reuse = with_defaults(spec.params["inner"]) if spec.kind == "power" else None
        inner = None if reuse is None else built.get(canonical_spec_string(reuse))
        g = build_family(spec).graph if inner is None else graph_power(inner, spec.params["k"])
        if g in first:
            raise ValueError(f"repeated instance {key!r}: builds the same graph as {first[g]!r}")
        first[g] = key
        built[canonical_spec_string(with_defaults(spec))] = g
        if not is_connected(g):
            raise ValueError(f"family instance {key!r} is not connected")
        spec_res = spectrum(g)
        if "percolate-repair" in strategies:
            spec_res.rho_star  # solve lambda_n once here; the cached value travels with the cells
        hosts.append((spec, key, g, spec_res, diameter(g), exact_h(g, DEFAULT_EXACT_MAX)))

    cells = [
        (g, spec_res, math.ceil(c * d_host), strat, budget, split(seed, _PHASE_PROBE, i, ri, si))
        for i, (_, _, g, spec_res, d_host, _) in enumerate(hosts)
        for ri, c in enumerate(ratios)
        for si, strat in enumerate(strategies)
    ]
    import multiprocessing  # here, not at top level: every CLI command imports this module

    workers = min(len(os.sched_getaffinity(0)), len(cells))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        results = iter(pool.map(_run_cell, cells, chunksize=1))
        pool.close()
        pool.join()

    records: list[ProbeRecord] = []
    for spec, key, g, spec_res, d_host, h_host in hosts:
        for c in ratios:
            target = math.ceil(c * d_host)
            runs = [(strat, next(results)) for strat in strategies]
            meeting = [(s, r) for s, r in runs if _meets(r, target)]
            if meeting:
                strat, best = min(meeting, key=lambda sr: (-sr[1].gap, sr[0]))
            else:
                strat, best = min(runs, key=lambda sr: (-sr[1].girth_achieved, -sr[1].gap, sr[0]))
            records.append(
                ProbeRecord(
                    family=base_family_id(spec),
                    instance=key,
                    n=g.n,
                    m=g.m,
                    d=g.max_degree,
                    host_gap=spec_res.gap,
                    host_h_exact=h_host,
                    diameter=d_host,
                    c=c,
                    girth_target=target,
                    strategy=strat,
                    best_girth=best.girth_achieved,
                    best_gap=best.gap,
                    best_h_exact=best.h_exact,
                    ratio_achieved=best.girth_achieved / d_host,
                    success=_meets(best, target),
                    degenerate_diameter=d_host <= 1,
                    seed=best.seed,
                )
            )

    families: dict[str, list[ProbeRecord]] = {}
    for rec in records:
        families.setdefault(rec.family, []).append(rec)
    summaries = []
    for family in sorted(families):
        recs = families[family]
        per_ratio = []
        for c in ratios:
            cell = [r for r in recs if r.c == c and not r.degenerate_diameter]
            succ = [r for r in cell if r.success]
            by_size = sorted(cell, key=lambda r: r.n)
            grew = by_size[-1].best_girth > by_size[0].best_girth if len(by_size) >= 2 else None
            per_ratio.append(
                RatioSummary(
                    c=c,
                    min_gap=min((r.best_gap for r in succ), default=None),
                    all_success=bool(cell) and len(succ) == len(cell),
                    girth_grew=grew,
                )
            )
        summaries.append(FamilySummary(family=family, per_ratio=tuple(per_ratio)))
    return records, summaries
