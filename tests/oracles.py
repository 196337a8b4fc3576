"""Independently coded brute-force oracles.

Everything here deliberately avoids the implementation paths it checks:
subset enumeration uses itertools and Python sets (not bitmask DP), girth
uses the edge-removal method (not the layered BFS scan), diameter uses
Floyd-Warshall or one plain BFS per source (not the bit-parallel
all-sources BFS). `cheeger_dp` and `conductance_dp` are the exact
enumerations as they once were, one interpreted step per subset.
`reconstruct_cycle` rebuilds a shortest cycle by a second
pruned BFS, as trimming once did, and `walk_matrix_dense` fills the walk
matrix in a Python loop, as the dense spectrum once did. The search
references at the end are `trim_to_girth` as it once was, with a full
shortest-cycle scan after every deletion, and the plain version of
`augment_edges`: one target-stopped BFS per distance, from
`bfs_distances`, the list-form BFS as `graphcore` once had it (`UNREACHABLE` = -1 for an unlabelled vertex),
which the dict form must agree with. `percolation_sweep_reference` is the
sweep as it once was, one `percolate` and one `component_summary` per (p, seed).
`ScalarStream` is `rng.Stream` as it once was, one interpreted SplitMix64
draw per call; the block draws must equal it bit for bit, and tests that
need scalar draws (`random_connected_graph` among them) take them from it.
`ReadRows` records which adjacency rows a BFS reads. `words_avoid_identity`
checks the freeness of a generator pair in SL(2, Z) up to a word length. `make_symmetric` and `cayley_graph_reference` are the
Cayley build as it once was: a `GeneratorSet` closed under inverses, then an
edge set normalised pair by pair and handed to `from_edges`.
"""

import heapq
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from expanderlab.errors import ComputationRefused
from expanderlab.graphcore import Graph, edge_subgraph, from_edges, shortest_cycle_scan
from expanderlab.matgroups import (
    ORDER_CAP,
    CayleyResult,
    _identity,
    group_inv,
    group_mul,
    sl2_order,
)
from expanderlab.metrics import spectrum
from expanderlab.percolation import (
    _PHASE_SWEEP,
    DisjointSet,
    SweepRow,
    component_summary,
    percolate,
)
from expanderlab.rng import _GOLDEN, _MASK64, _mix, split


class ScalarStream:
    """A single SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # Reject draws from the incomplete top block of [0, 2^64).
        limit = _MASK64 - (_MASK64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def brute_cheeger(g: Graph) -> Fraction:
    """min |boundary(S)|/|S| over 0 < |S| < n/2, by plain set enumeration."""
    n = g.n
    assert n >= 3
    best = None
    vertices = range(n)
    for size in range(1, (n - 1) // 2 + 1):  # 2*size < n
        for subset in combinations(vertices, size):
            s = set(subset)
            boundary = {v for u in s for v in g.adj[u]} - s
            ratio = Fraction(len(boundary), len(s))
            if best is None or ratio < best:
                best = ratio
    return best


def brute_conductance(g: Graph) -> Fraction:
    """min cut(S)/vol(S) over 0 < vol(S) <= vol(G)/2, by set enumeration."""
    n = g.n
    deg = [len(a) for a in g.adj]
    vol_total = sum(deg)
    best = None
    for size in range(1, n):
        for subset in combinations(range(n), size):
            s = set(subset)
            vol = sum(deg[u] for u in s)
            if vol == 0 or 2 * vol > vol_total:
                continue
            cut = sum(1 for u in s for v in g.adj[u] if v not in s)
            ratio = Fraction(cut, vol)
            if best is None or ratio < best:
                best = ratio
    return best


def girth_by_edge_removal(g: Graph):
    """Shortest cycle length via: for each edge, dist(u,v) in g - e, plus one."""
    best = math.inf
    for u, v in g.edges():
        dist = _bfs_skip_edge(g, u, v)
        if dist[v] >= 0:
            best = min(best, dist[v] + 1)
    return best


def _bfs_skip_edge(g: Graph, source: int, avoid: int):
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in g.adj[x]:
            if x == source and y == avoid:
                continue
            if y == source and x == avoid:
                continue
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def diameter_floyd(g: Graph):
    """All-pairs shortest paths by Floyd-Warshall; inf if disconnected."""
    n = g.n
    inf = math.inf
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    worst = max(max(row) for row in d)
    return worst


def spanning_girth_feasible(host: Graph, t: int) -> bool:
    """Exhaustive check: does any connected spanning subgraph have girth >= t?

    Enumerates all edge subsets (hosts here keep m small); girth inf counts
    as meeting any target.
    """
    edges = list(host.edges())
    m = len(edges)
    assert m <= 16, "oracle is exponential in m"
    from expanderlab.metrics import girth as girth_of

    for mask in range(1 << m):
        if mask.bit_count() < host.n - 1:
            continue
        chosen = [edges[i] for i in range(m) if mask >> i & 1]
        ds = DisjointSet(host.n)
        for u, v in chosen:
            ds.union(u, v)
        if ds.count != 1:
            continue
        sub = from_edges(host.n, chosen)
        gv = girth_of(sub)
        if gv == math.inf or gv >= t:
            return True
    return False


class ReadRows(list):
    """Adjacency lists that record which rows were read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, u):
        self.read.add(u)
        return super().__getitem__(u)


def random_connected_graph(n: int, seed: int, extra_edges: int = 0) -> Graph:
    """Random spanning tree plus `extra_edges` random chords; deterministic."""
    stream = ScalarStream(seed)
    edges = set()
    for v in range(1, n):
        u = stream.randrange(v)
        edges.add((u, v))
    attempts = 0
    while extra_edges > 0 and attempts < 50 * extra_edges + 100:
        attempts += 1
        u = stream.randrange(n)
        v = stream.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            edges.add(e)
            extra_edges -= 1
    return from_edges(n, edges)


# --- subset-table references ----------------------------------------------


def _neighbor_masks(g: Graph) -> list[int]:
    masks = []
    for nbrs in g.adj:
        m = 0
        for v in nbrs:
            m |= 1 << v
        masks.append(m)
    return masks


def cheeger_dp(g: Graph) -> Fraction:
    """`metrics.cheeger_exact` as one interpreted lowest-bit step per subset."""
    n = g.n
    nbr = _neighbor_masks(g)
    full = (1 << n) - 1
    # union_adj[S] = union of neighborhoods over members of S, built by
    # peeling the lowest bit (each mask extends a previously seen one).
    union_adj = array("Q", bytes(8 * (1 << n)))
    best_num, best_den = 1, 0  # boundary / size as an integer pair; 1/0 = unset
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        ua = union_adj[mask ^ low] | nbr[v]
        union_adj[mask] = ua
        size = mask.bit_count()
        if 2 * size >= n:
            continue
        boundary = (ua & ~mask & full).bit_count()
        # boundary/size < best_num/best_den by cross-multiplication
        if boundary * best_den < best_num * size:
            best_num, best_den = boundary, size
    return Fraction(best_num, best_den)


def conductance_dp(g: Graph) -> Fraction:
    """`metrics.conductance_exact` as one interpreted lowest-bit step per subset."""
    n = g.n
    nbr = _neighbor_masks(g)
    deg = [len(a) for a in g.adj]
    vol_total = sum(deg)
    vol = array("Q", bytes(8 * (1 << n)))
    e_in = array("Q", bytes(8 * (1 << n)))
    best_num, best_den = 1, 0  # cut / volume; 1/0 = unset
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        vs = vol[rest] + deg[v]
        es = e_in[rest] + (nbr[v] & rest).bit_count()
        vol[mask] = vs
        e_in[mask] = es
        if 2 * vs > vol_total:
            continue
        cut = vs - 2 * es
        if cut * best_den < best_num * vs:
            best_num, best_den = cut, vs
    return Fraction(best_num, best_den)


# --- cycle and walk-matrix references ---------------------------------------


def reconstruct_cycle(adj, n: int, root: int, length: int) -> list[int]:
    """Recover the first cycle of exactly `length` detected by BFS from `root`."""
    parent = [-1] * n
    dist = [-1] * n
    dist[root] = 0
    frontier = [root]
    du = 0
    cap = length // 2
    while frontier and du <= cap:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    parent[v] = u
                    nxt.append(v)
                else:
                    dv = dist[v]
                    if dv < du:
                        continue
                    delta = 1 if dv == du else 0
                    if 2 * du + 2 - delta == length:
                        path_u = [u]
                        while path_u[-1] != root:
                            path_u.append(parent[path_u[-1]])
                        path_v = [v]
                        while path_v[-1] != root:
                            path_v.append(parent[path_v[-1]])
                        cycle = list(reversed(path_u)) + path_v[:-1]
                        if len(set(cycle)) != length:
                            raise RuntimeError(
                                f"reconstructed walk of length {length} is not a simple cycle"
                            )
                        return cycle
        frontier = nxt
        du += 1
    raise RuntimeError(f"no cycle of length {length} found from root {root}")


def walk_matrix_dense(g: Graph) -> np.ndarray:
    """D^{-1/2} A D^{-1/2}, with A filled entry by entry."""
    a = np.zeros((g.n, g.n))
    for u, nbrs in enumerate(g.adj):
        for v in nbrs:
            a[u, v] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * dinv[:, None] * dinv[None, :]


# --- search references ----------------------------------------------------

#: What the list-form `bfs_distances` below holds for a vertex it did not label.
UNREACHABLE = -1


def bfs_distances(
    adj: Sequence[Iterable[int]],
    source: int,
    *,
    target: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> list[int]:
    """Distances from `source`, stopping once `target` is labelled or after
    `max_depth` layers; unlabelled vertices hold UNREACHABLE."""
    n = len(adj)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    dist = [UNREACHABLE] * n
    dist[source] = 0
    if source == target:
        return dist
    stop = -1 if target is None else target
    depth_cap = n if max_depth is None else max_depth
    frontier = [source]
    d = 0
    while frontier and d < depth_cap:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    if v == stop:
                        return dist
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter_per_source(g: Graph):
    """Max over sources of the BFS eccentricity; inf if some vertex is unreachable."""
    worst = 0
    for s in range(g.n):
        dist = bfs_distances(g.adj, s)
        if min(dist) < 0:
            return math.inf
        worst = max(worst, max(dist))
    return worst


def trim_to_girth_reference(g: Graph, target: int) -> Graph:
    """`search.trim_to_girth` with a full scan from vertex 0 after every deletion."""
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


def augment_edges_reference(
    host: Graph,
    sub: Iterable[tuple[int, int]],
    girth_floor: int,
    budget: int,
) -> frozenset[tuple[int, int]]:
    """`search.augment_edges` with one target-stopped BFS per distance."""
    kept = set(edge_subgraph(host, sub).edges())
    n = host.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in kept:
        adj[u].append(v)
        adj[v].append(u)
    if UNREACHABLE in bfs_distances(adj, 0):
        raise ValueError("augment_edges_reference requires a connected subgraph")
    candidates = [e for e in host.edges() if e not in kept]
    by_source: dict[int, list[int]] = {}
    for u, v in candidates:
        by_source.setdefault(u, []).append(v)

    def sub_dist(u: int, v: int) -> int:
        return bfs_distances(adj, u, target=v)[v]

    heap = []
    for u in sorted(by_source):
        for v in by_source[u]:
            heap.append((-sub_dist(u, v), u, v))
    heapq.heapify(heap)
    adds = 0
    while heap and adds < budget:
        neg, u, v = heapq.heappop(heap)
        stored = -neg
        cur = sub_dist(u, v)
        if cur < stored:
            if cur >= girth_floor - 1:
                heapq.heappush(heap, (-cur, u, v))
            continue  # else: can never qualify again — drop
        if cur < girth_floor - 1:
            continue
        kept.add((u, v))
        adj[u].append(v)
        adj[v].append(u)
        adds += 1
    return frozenset(kept)


# --- percolation references ----------------------------------------------


def percolation_sweep_reference(
    g: Graph, grid, seeds_per_point: int, base_seed: int
) -> list[SweepRow]:
    """The giant-component table with one fresh sample per (p, seed)."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty p grid")
    if seeds_per_point < 1:
        raise ValueError(f"need >= 1 seed per grid point, got {seeds_per_point}")
    rho_d = spectrum(g).rho_star * g.max_degree
    rows = []
    for p in grid:
        fractions = []
        for i in range(seeds_per_point):
            sample = percolate(g, p, split(base_seed, _PHASE_SWEEP, i))
            fractions.append(component_summary(sample).giant_fraction)
        mean = sum(fractions) / len(fractions)
        var = sum((x - mean) ** 2 for x in fractions) / len(fractions)
        value = rho_d * p
        rows.append(
            SweepRow(
                p=p,
                seed_count=seeds_per_point,
                giant_mean=mean,
                giant_std=math.sqrt(var),
                condition_value=value,
                condition_ok=value < 1.0,
            )
        )
    return rows


# --- group references ----------------------------------------------------


def words_avoid_identity(a_rows, b_rows, max_len: int = 12) -> bool:
    """Check no reduced word of length <= max_len over {a,b,a^-1,b^-1} hits identity.

    Exact big-integer arithmetic in SL(2,Z); a bounded sanity check for
    freeness of a candidate pair (freeness itself is not decidable this way).
    """

    def mul2(x, y):
        return (
            (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
        )

    def inv2(x):
        det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
        if det != 1:
            raise ValueError(f"not in SL(2,Z): det = {det}")
        return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))

    ident = ((1, 0), (0, 1))
    a = tuple(tuple(r) for r in a_rows)
    b = tuple(tuple(r) for r in b_rows)
    gens = [a, b, inv2(a), inv2(b)]
    inverse_of = [2, 3, 0, 1]
    # iterative DFS over reduced words
    stack = [(ident, -1, 0)]
    while stack:
        mat, last, depth = stack.pop()
        if depth == max_len:
            continue
        for gi, g in enumerate(gens):
            if last >= 0 and gi == inverse_of[last]:
                continue
            nxt = mul2(mat, g)
            if nxt == ident:
                return False
            stack.append((nxt, gi, depth + 1))
    return True


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric, identity-free generating set plus the defining core pair, mod `modulus`."""

    elements: tuple
    core: tuple
    modulus: int


def make_symmetric(core, q: int) -> GeneratorSet:
    """Reduce `core` mod q, close under inverses, drop the identity, dedupe."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    core = tuple(tuple(x % q for x in e) for e in core)
    elements: list = []
    for e in core:
        for x in (e, group_inv(e, q)):
            if x != _identity(len(x)) and x not in elements:
                elements.append(x)
    return GeneratorSet(elements=tuple(elements), core=core, modulus=q)


def cayley_graph_reference(gens: GeneratorSet) -> CayleyResult:
    """Right-Cayley graph: BFS from the identity, edge {g, gs} per generator.

    Vertices are numbered in BFS discovery order (generator order fixed by
    the set), collapsed to a simple graph. The reached subgroup order is the
    vertex count; for SL(2) over prime powers the known group order is
    attached for comparison.
    """
    if not gens.elements:
        raise ValueError("empty generator set")
    q = gens.modulus
    ident = _identity(len(gens.elements[0]))
    if ident in gens.elements:
        raise ValueError("generator set contains the identity")
    index = {ident: 0}
    order = [ident]
    edges = set()
    cap = ORDER_CAP
    i = 0
    while i < len(order):
        cur = order[i]
        for s in gens.elements:
            nxt = group_mul(cur, s, q)
            j = index.get(nxt)
            if j is None:
                if len(order) >= cap:
                    raise ComputationRefused(
                        f"group too large: order cap {cap} exceeded "
                        f"(partial count {len(order)})"
                    )
                j = len(order)
                index[nxt] = j
                order.append(nxt)
            edges.add((i, j) if i < j else (j, i))
        i += 1
    graph = from_edges(len(order), edges)
    base = sl2_order(q)
    full = base ** (len(ident) // 4) if base is not None else None
    return CayleyResult(
        graph=graph, elements=tuple(order), reached_order=len(order), full_group_order=full
    )
