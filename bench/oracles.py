"""Independent oracles for expanderlab's outputs.

Nothing here imports expanderlab. Every value is recomputed with numpy and
scipy from the edge-list text (or built from scratch, for the SL(2, Z/qZ)
Cayley graphs), so a fault in the program's own kernels cannot hide itself
in the check.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigsh

# Roots per block in the all-roots girth scan; bounds its memory to a few
# (block x m) int64 arrays.
_GIRTH_BLOCK = 128


def read_edge_list(path) -> tuple[int, np.ndarray]:
    """(n, edges) from the edge-list format; edges is an (m, 2) int64 array."""
    header = None
    pairs = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = (int(x) for x in line.split())
        if header is None:
            header = (a, b)
        else:
            pairs.append((a, b))
    n, m = header
    if len(pairs) != m:
        raise ValueError(f"{path}: header says m={m}, file has {len(pairs)} edges")
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency matrix."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    a.data[:] = 1.0  # collapse any duplicate pair
    return a


def distance_matrix(a: sp.csr_matrix) -> np.ndarray:
    """All-pairs hop distances (inf where unreachable)."""
    return csgraph.shortest_path(a, method="D", unweighted=True, directed=False)


def diameter(dist: np.ndarray) -> float:
    return float(dist.max())


def walk_spectrum(a: sp.csr_matrix) -> tuple[float, float]:
    """(lambda2, rho_star) of D^{-1/2} A D^{-1/2}, by a dense symmetric solve."""
    dense = a.toarray()
    dinv = 1.0 / np.sqrt(dense.sum(axis=1))
    w = np.linalg.eigvalsh(dense * dinv[:, None] * dinv[None, :])
    lam2 = float(w[-2])
    return lam2, max(abs(lam2), abs(float(w[0])))


def walk_lambda2_sparse(a: sp.csr_matrix) -> float:
    """lambda2 of the walk operator of a regular graph, by Lanczos on A/d."""
    d = a.sum(axis=1).A1
    if d.min() != d.max():
        raise ValueError("walk_lambda2_sparse needs a regular graph")
    w = eigsh(a / d[0], k=2, which="LA", tol=1e-12, return_eigenvectors=False)
    return float(np.sort(w)[0])


def girth(a: sp.csr_matrix, roots=None) -> float:
    """Length of a shortest cycle through any of `roots` (all vertices by default).

    From each root r, a BFS tree gives distances D and the branch of every
    vertex (its ancestor adjacent to r). A non-tree edge xy whose endpoints
    lie in different branches closes a cycle of length D[x] + D[y] + 1
    through r, and the shortest cycle through r is found this way. With every
    vertex as a root this is the girth; on a vertex-transitive graph one root
    suffices. Returns inf for a forest.
    """
    n = a.shape[0]
    coo = sp.triu(a, k=1).tocoo()
    xs, ys = coo.row.astype(np.int64), coo.col.astype(np.int64)
    roots = np.arange(n) if roots is None else np.asarray(roots, dtype=np.int64)
    best = np.inf
    for start in range(0, len(roots), _GIRTH_BLOCK):
        block = roots[start : start + _GIRTH_BLOCK]
        dist, pred = csgraph.shortest_path(
            a, method="D", unweighted=True, directed=False, indices=block,
            return_predecessors=True,
        )
        depth = np.where(np.isfinite(dist), dist, -1).astype(np.int64)
        branch = np.full(depth.shape, -1, dtype=np.int64)
        for level in range(1, int(depth.max()) + 1):
            r_idx, v_idx = np.nonzero(depth == level)
            branch[r_idx, v_idx] = v_idx if level == 1 else branch[r_idx, pred[r_idx, v_idx]]
        dx, dy = depth[:, xs], depth[:, ys]
        tree = (pred[:, ys] == xs) | (pred[:, xs] == ys)
        closes = (branch[:, xs] != branch[:, ys]) & ~tree & (dx >= 0) & (dy >= 0)
        if closes.any():
            best = min(best, float((dx + dy + 1)[closes].min()))
    return best


def exact_expansion(n: int, edges: np.ndarray) -> tuple[Fraction, Fraction]:
    """(h, conductance) by enumerating all 2^n vertex subsets at once.

    Tables are built by doubling: the subsets containing vertex b as their
    highest member extend the subsets of {0..b-1}. h minimises
    |outer boundary(S)|/|S| over 0 < |S| < n/2; conductance minimises
    e(S, complement)/vol(S) over 0 < vol(S) <= vol(V)/2.
    """
    if n > 24:
        raise ValueError(f"exact enumeration refused above n=24, got n={n}")
    nbr = np.zeros(n, dtype=np.uint32)
    for u, v in edges:
        nbr[u] |= np.uint32(1 << int(v))
        nbr[v] |= np.uint32(1 << int(u))
    deg = np.bitwise_count(nbr).astype(np.int32)
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    union = np.zeros(total, dtype=np.uint32)
    vol = np.zeros(total, dtype=np.int32)
    inner = np.zeros(total, dtype=np.int32)
    for b in range(n):
        lo = 1 << b
        union[lo : 2 * lo] = union[:lo] | nbr[b]
        vol[lo : 2 * lo] = vol[:lo] + deg[b]
        inner[lo : 2 * lo] = inner[:lo] + np.bitwise_count(masks[:lo] & nbr[b])
    size = np.bitwise_count(masks).astype(np.int32)
    boundary = np.bitwise_count(union & ~masks).astype(np.int32)
    del union
    admissible = (size > 0) & (2 * size < n)
    ratio = np.where(admissible, boundary / np.maximum(size, 1), np.inf)
    i = int(np.argmin(ratio))
    h = Fraction(int(boundary[i]), int(size[i]))
    cut = vol - 2 * inner
    admissible = (vol > 0) & (2 * vol <= int(deg.sum()))
    ratio = np.where(admissible, cut / np.maximum(vol, 1), np.inf)
    i = int(np.argmin(ratio))
    return h, Fraction(int(cut[i]), int(vol[i]))


def sl2_cayley(q: int, generators) -> sp.csr_matrix:
    """Cayley graph of the subgroup of SL(2, Z/qZ) that `generators` generate.

    Elements are 2x2 matrices coded as ((a*q + b)*q + c)*q + d; the group is
    enumerated by a vectorised BFS from the identity, which becomes vertex 0.
    The inverses of the generators are added, so the graph is undirected.
    """
    gens = []
    for (a, b), (c, d) in generators:
        gens.append((a % q, b % q, c % q, d % q))
        gens.append((d % q, -b % q, -c % q, a % q))  # inverse of a det-1 matrix
    gens = sorted(set(gens))

    def times(el, g):
        a, b, c, d = el
        s0, s1, s2, s3 = g
        return ((a * s0 + b * s2) % q, (a * s1 + b * s3) % q,
                (c * s0 + d * s2) % q, (c * s1 + d * s3) % q)

    def code(el):
        a, b, c, d = el
        return ((a * q + b) * q + c) * q + d

    index = np.full(q**4, -1, dtype=np.int64)
    one = tuple(np.array([x], dtype=np.int64) for x in (1, 0, 0, 1))
    index[code(one)] = 0
    found = [one]
    frontier = one
    count = 1
    while len(frontier[0]):
        fresh = []
        for g in gens:
            nxt = times(frontier, g)
            codes = code(nxt)
            new = np.unique(codes[index[codes] < 0])
            index[new] = np.arange(count, count + len(new))
            count += len(new)
            if len(new):
                fresh.append(new)
        if not fresh:
            break
        new_codes = np.concatenate(fresh)
        frontier = (new_codes // q**3, new_codes // q**2 % q, new_codes // q % q, new_codes % q)
        found.append(frontier)
    elements = tuple(np.concatenate([f[k] for f in found]) for k in range(4))
    order = np.argsort(index[code(elements)])
    elements = tuple(x[order] for x in elements)
    rows = np.concatenate([np.arange(count)] * len(gens))
    cols = np.concatenate([index[code(times(elements, g))] for g in gens])
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(count, count))
    a = ((a + a.T) > 0).astype(float)
    a.setdiag(0)
    a.eliminate_zeros()
    return a.tocsr()


def sl2_order(p: int, k: int) -> int:
    """|SL(2, Z/p^kZ)| = p^(3k-2) (p^2 - 1)."""
    return p ** (3 * k - 2) * (p * p - 1)
