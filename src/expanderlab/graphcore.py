"""Immutable simple undirected graphs and the BFS primitives everything else uses.

Vertices are dense integers 0..n-1. Producers that carry richer labels (group
elements, product coordinates) keep them in side tables; the graph itself is
just sorted adjacency tuples. `from_edges` is the one constructor that
validates pairs (in either order), and `edge_subgraph` the one check that a
pair set lies in a host. Pairs handed out are normalized (u, v) with u < v.
Three producers freeze adjacency lists directly instead: the search steps,
whose sorted lists stay symmetric edit by edit, `matgroups.cayley_graph`,
whose lists are simple by construction (right multiplication is injective,
no generator is the identity, and the generators are closed under inverses),
and `induced_ball`, since an induced subgraph of a simple graph is simple.
`bfs_distances` is the one single-source layered BFS (`is_connected` and
`induced_ball` read it), and `UNBOUNDED` (`math.inf`) the one value that
says no finite number bounds a distance, girth or diameter.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ComputationRefused

#: The distance of an unreachable pair, the girth of a forest, the diameter of a disconnected graph.
UNBOUNDED = math.inf
#: Largest vertex count any graph may have; refused before anything is built.
VERTEX_CAP = 4_000_000
#: Largest edge count a family may ask for; refused before anything is built.
EDGE_CAP = 2 * VERTEX_CAP
#: Sources per block of `reach_blocks`: each per-vertex bitset list then takes
#: n * REACH_BLOCK / 8 bytes.
REACH_BLOCK = 4096


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with strictly sorted adjacency tuples.

    Instances are immutable and hashable; construct via `from_edges`, which
    validates the invariants (symmetry, no loops, no duplicate neighbors).
    Code that already holds sorted, symmetric lists (the search steps, the
    Cayley builder, `induced_ball`) freezes them directly, as
    `Graph(n, tuple(map(tuple, adj)))`.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v


def check_size(n: int, m: int = 0) -> None:
    """Refuse a graph on more than VERTEX_CAP vertices or EDGE_CAP edges before it is allocated."""
    if n > VERTEX_CAP:
        raise ComputationRefused(f"{n} vertices exceed the cap of {VERTEX_CAP}")
    if m > EDGE_CAP:
        raise ComputationRefused(f"{m} edges exceed the cap of {EDGE_CAP}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from n and (u, v) pairs in either order, rejecting any invariant violation."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    check_size(n)
    nbrs: list = [[] for _ in range(n)]
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"self-loop rejected: {e}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge out of range: {e} with n={n}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    for u, a in enumerate(nbrs):
        a.sort()
        if len(set(a)) < len(a):
            v = next(x for x, y in zip(a, a[1:]) if x == y)
            raise ValueError(f"duplicate edge rejected: {(min(u, v), max(u, v))}")
        nbrs[u] = tuple(a)  # frees each list as it goes
    return Graph(n=n, adj=tuple(nbrs))


def bfs_distances(
    adj: Sequence[Iterable[int]],
    source: int,
    *,
    max_depth: Optional[int] = None,
) -> dict[int, int]:
    """Unweighted distances from `source` over an adjacency sequence.

    `adj` is `Graph.adj` or any adjacency lists. The result maps each vertex
    the BFS labelled to its distance, in BFS order, so the values never
    decrease. The BFS stops after `max_depth` layers (None: no cap), so a
    capped call visits only the ball and holds only its vertices.
    """
    n = len(adj)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    dist = {source: 0}
    depth_cap = n if max_depth is None else max_depth
    frontier = [source]
    d = 0
    while frontier and d < depth_cap:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def pair_distance(adj: Sequence[Iterable[int]], s: int, t: int, max_depth: int) -> float:
    """Distance from `s` to `t` if it is at most `max_depth`, else UNBOUNDED.

    Bidirectional BFS (Pohl): each step grows the smaller frontier by one
    full layer, so the two radii rs, rt sum to one more per step and the
    first vertex labelled from both sides closes a shortest path. The search
    gives up when either frontier runs dry (s and t are disconnected) or
    when rs + rt reaches `max_depth`; UNBOUNDED exceeds every finite bound,
    so `min(bound, ...)` keeps the bound. `adj` is as for `bfs_distances`.
    """
    n = len(adj)
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"pair ({s}, {t}) out of range for n={n}")
    if s == t:
        return 0
    # mark[v] is 1 + dist from s, -(1 + dist from t), or 0 if unlabelled
    mark = [0] * n
    mark[s] = 1
    mark[t] = -1
    fs, ft = [s], [t]
    rs = rt = 0
    while fs and ft and rs + rt < max_depth:
        if len(fs) <= len(ft):
            nxt = []
            label = rs + 2
            for u in fs:
                for v in adj[u]:
                    m = mark[v]
                    if m == 0:
                        mark[v] = label
                        nxt.append(v)
                    elif m < 0:
                        return rs - m
            fs = nxt
            rs += 1
        else:
            nxt = []
            label = -(rt + 2)
            for u in ft:
                for v in adj[u]:
                    m = mark[v]
                    if m == 0:
                        mark[v] = label
                        nxt.append(v)
                    elif m > 0:
                        return rt + m
            ft = nxt
            rt += 1
    return UNBOUNDED


def reach_blocks(adj: Sequence[Iterable[int]]) -> Iterator[tuple[int, int, Iterator[list[int]]]]:
    """Yield (lo, hi, levels) for each block lo..hi-1 of REACH_BLOCK sources.

    All-sources bit-parallel BFS (Itai and Rodeh): `levels` yields reach for
    d = 0, 1, ...; bit s - lo of reach[v] is set iff dist(v, s) <= d. It stops
    after the level at which every set is full, or before a level at which
    none would grow. Each level is a new list, so a caller may keep any of them.
    """
    n = len(adj)
    for lo in range(0, n, REACH_BLOCK):
        hi = min(lo + REACH_BLOCK, n)
        yield lo, hi, _reach_levels(adj, lo, hi)


def _reach_levels(adj: Sequence[Iterable[int]], lo: int, hi: int) -> Iterator[list[int]]:
    """One block's levels: each ORs every vertex's neighbours' sets into its own."""
    n = len(adj)
    full = (1 << (hi - lo)) - 1
    reach = [1 << (v - lo) if lo <= v < hi else 0 for v in range(n)]
    pending = [v for v in range(n) if reach[v] != full]
    while True:
        yield reach
        if not pending:
            return
        prev, reach = reach, reach[:]
        for v in pending:
            r = prev[v]
            for w in adj[v]:
                r |= prev[w]
            reach[v] = r
        if reach == prev:
            return
        pending = [v for v in pending if reach[v] != full]


def shortest_cycle_scan(adj: Sequence[Iterable[int]], below=UNBOUNDED, roots=None, floor=3):
    """(length, cycle) of a shortest cycle shorter than `below`, or None.

    BFS from each vertex of `roots` (default: all) with earliest cross/back-
    edge detection (Itai and Rodeh): an edge within BFS layer d closes a cycle
    of length 2d+1, an edge into the next layer one of length 2d+2. The search
    depth shrinks as better cycles are found, so the scan is fast once any
    short cycle exists. The cycle lists its vertices in order, starting at the
    first root, in the order given, from which the best length was found: the
    two BFS-tree paths from that root to the closing edge. A cycle through no
    root may be missed, and from a root on no shortest cycle the list may be a
    closed walk rather than a simple cycle: a triangle with a three-edge tail,
    scanned from the tail's end, gives a walk of 9 down the tail and back.
    `below` is a lower bound on the girth asked for, and `floor` one known on
    the girth: the scan stops after the first root whose best length is at
    most `floor`, since no later root can find a shorter one. Every simple
    graph has girth at least 3, so a `below` of 3 or less returns None after
    the first root.
    """
    n = len(adj)
    best = below
    cycle = None
    # explore while the current depth <= depth_limit
    depth_limit = n if best == UNBOUNDED else (best - 2) // 2
    token = [-1] * n
    dist = [0] * n
    parent = [0] * n
    # dict.fromkeys drops a repeated root, which would meet its own old tokens
    for s in range(n) if roots is None else dict.fromkeys(roots):
        token[s] = s
        dist[s] = 0
        frontier = [s]
        du = 0
        while frontier and du <= depth_limit:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if token[v] != s:
                        token[v] = s
                        dist[v] = du + 1
                        parent[v] = u
                        nxt.append(v)
                    else:
                        dv = dist[v]
                        if dv < du:
                            continue  # mirror of a forward edge, seen from below
                        delta = 1 if dv == du else 0
                        length = 2 * du + 2 - delta
                        if length < best:
                            best = length
                            depth_limit = du - delta
                            cycle = [u]
                            while cycle[-1] != s:
                                cycle.append(parent[cycle[-1]])
                            cycle.reverse()
                            w = v
                            while w != s:
                                cycle.append(w)
                                w = parent[w]
            frontier = nxt
            du += 1
        if best <= floor:
            break
    return None if cycle is None else (best, cycle)


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex (single vertex counts)."""
    return len(bfs_distances(g.adj, 0)) == g.n


def induced_ball(g: Graph, center: int, r: int) -> Graph:
    """Induced subgraph on the vertices within r of `center`, relabeled in ascending order.

    A BFS of r layers visits only the ball; each member keeps its sorted
    neighbours inside the ball, relabeled by a monotone map, so the lists are
    frozen as they are.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    index = {v: i for i, v in enumerate(sorted(bfs_distances(g.adj, center, max_depth=r)))}
    adj = g.adj
    return Graph(len(index), tuple(tuple(index[v] for v in adj[u] if v in index) for u in index))


def edge_subgraph(g: Graph, keep: Iterable[tuple[int, int]]) -> Graph:
    """Spanning subgraph on exactly the edges in `keep`, in either order (vertex set untouched).

    This is the one check that a set of pairs is a subset of a host's edges.
    """
    kept = {(u, v) if u < v else (v, u) for u, v in keep}
    for e in kept:
        if not (0 <= e[0] and e[1] < g.n and g.has_edge(*e)):
            raise ValueError(f"edge {e} not present in host graph")
    return from_edges(g.n, kept)


# Edge-list text format: line 1 is "n m", then m lines "u v" with u < v,
# ASCII decimal, single spaces, \n terminators. Lines starting with '#' are
# ignored. This is the interchange format for every CLI command.


def write_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


def read_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format, which asks u < v per line; errors carry 1-based line numbers."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if n is None:
            n, m = a, b
        elif a > b:
            raise ValueError(f"line {lineno}: expected u < v, got {raw!r}")
        else:
            edges.append((a, b))
    if n is None:
        raise ValueError("empty edge-list file (no header line)")
    if len(edges) != m:
        raise ValueError(f"header declares m={m} edges but file has {len(edges)}")
    try:
        return from_edges(n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid edge data: {exc}") from None


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(write_edge_list_text(g))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as f:
        return read_edge_list_text(f.read())


def graph_fingerprint(g: Graph) -> str:
    """SHA-256 of the canonical edge-list text; identifies a host graph exactly."""
    return hashlib.sha256(write_edge_list_text(g).encode("ascii")).hexdigest()
