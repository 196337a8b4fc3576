"""Exact and spectral expansion measurements.

Covers the quantities the conjecture is stated over: the vertex-expansion
constant h (exact, by subset enumeration), edge conductance, eigenvalues of
the degree-normalized walk operator, girth, diameter, and per-vertex induced
ball profiles.

Conventions:
  - h minimizes |outer boundary(S)| / |S| over 0 < |S| < n/2, strictly below
    the midpoint (so for even n the half-size sets are excluded).
  - Girth is `math.inf` for forests; diameter is `math.inf` for disconnected
    graphs.
  - Exact subset enumerations refuse above n = 26: at n = 26 their
    4*2^n-byte tables already take 256 MiB (one uint32 table for h, two
    uint16 tables for conductance). The tables are built and read by numpy
    passes over SUBSET_CHUNK subsets at a time. Callers choose their own
    smaller limit (`DEFAULT_EXACT_MAX`, `BALL_EXACT_MAX`) before calling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from statistics import median
from typing import Callable, Optional

import numpy as np

from . import graphcore
from .errors import ComputationRefused
from .graphcore import Graph, induced_ball, is_connected, shortest_cycle_scan

#: Sentinel for "no cycle" (girth) and "some pair unreachable" (diameter).
UNBOUNDED = math.inf

DEFAULT_EXACT_MAX = 24
#: Largest induced ball whose exact h `ball_expansion_profile` reports.
BALL_EXACT_MAX = 16
_EXACT_N_CAP = 26
#: Subsets per numpy pass of the exact enumerations, a power of two: each
#: pass's temporaries take a few bytes per subset, beside 4 bytes per subset
#: of tables.
SUBSET_CHUNK = 1 << 16
_DENSE_EIGEN_LIMIT = 512
#: Lanczos basis size (at most n - 1). A restart keeps 3/8 of it: on the
#: bench's n = 1024 to 17,496 graphs that beat keeping 1/4 or 1/2.
_KRYLOV_DIM = 64
#: A Ritz pair with a residual norm at most this is converged. The walk
#: operator has norm 1, so the bound is relative as well.
_EIGEN_TOL = 1e-9
#: A new basis vector shorter than this means the basis spans an invariant
#: subspace; dropping it moves no Ritz value by more than this.
_BREAKDOWN = 1e-12
_EIGEN_MAX_RESTARTS = 1000
#: Columns per pass of a restart's in-place basis update.
_RESTART_BLOCK = 4096


def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << v for v in nbrs) for nbrs in g.adj]


def _check_exact_size(n: int) -> None:
    """Refuse n > 26 before the 4-bytes-per-subset tables exist."""
    if n > _EXACT_N_CAP:
        raise ComputationRefused(
            f"exact computation refused: n={n} needs {4 << n} bytes of subset "
            f"tables; the limit is n={_EXACT_N_CAP}"
        )


def _chunks(n: int):
    """(lo, offsets): the subsets lo | offsets, for lo over the SUBSET_CHUNK blocks of 2^n."""
    offsets = np.arange(min(SUBSET_CHUNK, 1 << n), dtype=np.uint32)
    for lo in range(0, 1 << n, SUBSET_CHUNK):
        yield lo, offsets


def _fold_least(num: np.ndarray, den: np.ndarray, admissible: np.ndarray, best):
    """The lesser of `best` = (num, den) and the chunk's least admissible num/den.

    The float ratio only nominates the chunk's candidate: ratios here have
    numerators and denominators below 2^10, so two different ones differ by
    far more than a rounding error, and the float least is an exact least.
    The integer cross-multiplication decides.
    """
    ratio = np.divide(num, den, out=np.full(len(num), np.inf), where=admissible)
    i = int(ratio.argmin())
    if ratio[i] == np.inf:
        return best
    a, b = int(num[i]), int(den[i])
    return (a, b) if a * best[1] < best[0] * b else best


def cheeger_exact(g: Graph) -> Fraction:
    """Exact h = min over admissible S of |boundary(S)|/|S| as a Fraction.

    S ranges over 0 < |S| < n/2 (strict), and the boundary is the set of
    vertices outside S with a neighbor in S.
    """
    n = g.n
    if n < 3:
        raise ValueError(f"graph too small for vertex expansion (n={n} < 3)")
    _check_exact_size(n)
    nbr = _neighbor_masks(g)
    # union_adj[S] = union of neighborhoods over members of S, built by
    # doubling: the subsets containing v as their top vertex are those of
    # 0..v-1 with v added.
    union_adj = np.zeros(1 << n, dtype=np.uint32)
    for v in range(n):
        half = 1 << v
        np.bitwise_or(union_adj[:half], nbr[v], out=union_adj[half : 2 * half])
    best = (1, 0)  # boundary / size as an integer pair; 1/0 = unset
    for lo, offsets in _chunks(n):
        subsets = offsets | lo
        size = np.bitwise_count(subsets)
        boundary = np.bitwise_count(union_adj[lo : lo + len(offsets)] & ~subsets)
        best = _fold_least(boundary, size, (size > 0) & (2 * size < n), best)
    return Fraction(*best)


def exact_h(g: Graph, limit: int) -> Optional[Fraction]:
    """`cheeger_exact(g)` when 3 <= n <= limit, else None (too small or too big)."""
    return cheeger_exact(g) if 3 <= g.n <= limit else None


def conductance_exact(g: Graph) -> Fraction:
    """Exact conductance: min e(S, S̄)/vol(S) over S with 0 < vol(S) <= vol(G)/2.

    Volume is the degree sum. Requires a connected graph with at least one edge.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"graph too small for conductance (n={n} < 2)")
    _check_exact_size(n)
    if not is_connected(g):
        raise ValueError("conductance_exact requires a connected graph")
    nbr = _neighbor_masks(g)
    deg = [len(a) for a in g.adj]
    vol_total = sum(deg)
    # vol[S] and e_in[S] (edges inside S) by doubling on the top vertex v:
    # adding v to a subset R of 0..v-1 adds deg(v) and |nbr(v) & R|. Chunk
    # offsets and lo have disjoint bits, so that count splits in two.
    vol = np.zeros(1 << n, dtype=np.uint16)
    e_in = np.zeros(1 << n, dtype=np.uint16)
    for v in range(n):
        half = 1 << v
        np.add(vol[:half], deg[v], out=vol[half : 2 * half])
        for lo, offsets in _chunks(v):
            hi = lo + len(offsets)
            inside = np.bitwise_count(offsets & nbr[v]) + (lo & nbr[v]).bit_count()
            np.add(e_in[lo:hi], inside, out=e_in[half + lo : half + hi])
    best = (1, 0)  # cut / volume; 1/0 = unset
    for lo, offsets in _chunks(n):
        vs = vol[lo : lo + len(offsets)]
        cut = vs - 2 * e_in[lo : lo + len(offsets)]
        best = _fold_least(cut, vs, (vs > 0) & (2 * vs <= vol_total), best)
    return Fraction(*best)


@dataclass(frozen=True)
class SpectrumResult:
    """lambda2 of the walk operator, with gap and rho_star derived from it.

    rho_star needs the other end of the spectrum, lambda_n. It is solved on
    first read and then cached, so a caller that reads only lambda2 or gap
    pays for one Lanczos solve above n = 512. The solver is a `partial`, not
    a closure, so a result pickles, with rho_star if it has been read.
    """

    lambda2: float
    solve_lambda_n: Callable[[], float] = field(repr=False, compare=False)

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2

    @cached_property
    def rho_star(self) -> float:
        return max(abs(self.lambda2), abs(self.solve_lambda_n()))


def _edge_index(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): one entry per directed edge u -> v, in adjacency order."""
    rows = np.repeat(np.arange(g.n), [len(a) for a in g.adj])
    cols = np.fromiter((v for a in g.adj for v in a), dtype=np.intp, count=len(rows))
    return rows, cols


def _extremes_dense(g: Graph) -> tuple[float, float]:
    a = np.zeros((g.n, g.n))
    a[_edge_index(g)] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    w = np.linalg.eigvalsh(a * dinv[:, None] * dinv[None, :])
    return float(w[-2]), float(w[0])


def _walk_matvec(g: Graph, deflate: bool) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """(x -> Mx, v1) for the walk operator M = D^{-1/2} A D^{-1/2}.

    v1 = D^{1/2}1 / |D^{1/2}1| is M's top eigenvector, eigenvalue 1; with
    `deflate` the operator is M - 2 v1 v1^T, which moves that eigenvalue to
    -1. Ax sums x over each vertex's neighbours: through a table of width
    max degree, padded with a zero entry at index n, when that at most
    doubles the entries (regular graphs and most of their subgraphs), else
    by a reduceat over the rows. The table's gather and column sum take
    about half the time of the reduceat per product.
    """
    n = g.n
    rows, cols = _edge_index(g)
    deg = np.bincount(rows, minlength=n)
    starts = np.cumsum(deg) - deg
    dinv = 1.0 / np.sqrt(deg)
    v1 = np.sqrt(deg) / math.sqrt(len(rows))
    width = int(deg.max())
    scaled = np.zeros(n + 1)
    if width * n <= 2 * len(cols):
        table = np.full((width, n), n)
        table[np.arange(len(cols)) - starts[rows], rows] = cols

        def neighbour_sums() -> np.ndarray:
            return scaled[table].sum(axis=0)
    else:

        def neighbour_sums() -> np.ndarray:
            return np.add.reduceat(scaled[cols], starts)

    def matvec(x: np.ndarray) -> np.ndarray:
        np.multiply(x, dinv, out=scaled[:n])
        y = neighbour_sums()
        y *= dinv
        if deflate:
            y -= (2.0 * (v1 @ x)) * v1
        return y

    return matvec, v1


def _extreme_iterative(g: Graph, which: str) -> float:
    """lambda2 (which="LA") or lambda_n (which="SA") by thick-restart Lanczos.

    For "LA" the top eigenpair (1, v1) of the walk operator is deflated to
    -1 (see `_walk_matvec`), which makes lambda2 the largest eigenvalue; "SA"
    solves the operator itself. The Lanczos recurrence runs to a basis of
    _KRYLOV_DIM vectors (n - 1 if fewer), each reorthogonalized against the
    whole basis by one classical Gram-Schmidt pass, and by a second when
    that pass leaves at most 1/sqrt(2) of the vector's norm (DGKS). A
    restart keeps the 3/8 of the Ritz vectors at the wanted end plus the
    residual direction (Wu & Simon 2000). The solve ends when the wanted
    Ritz pair's residual is at most _EIGEN_TOL, checked once the basis is
    full, and is refused (ComputationRefused) after _EIGEN_MAX_RESTARTS
    restarts.

    Nothing is random: the start vector is sin(1), sin(2), ..., sin(n),
    projected off v1 for "LA" (on a regular graph the uniform vector is v1).
    When the recurrence breaks down (an invariant subspace), the basis goes
    on with the next fixed vector sin(s), ..., sin(ns), orthogonalized
    against it, so a solve is bit-identical across calls and processes and
    neither end depends on whether the other was solved.
    """
    la = which == "LA"
    n = g.n
    matvec, v1 = _walk_matvec(g, deflate=la)
    m = min(_KRYLOV_DIM, n - 1)
    keep = max(1, 3 * m // 8)
    fixed_count = 0

    def fixed() -> np.ndarray:
        nonlocal fixed_count
        fixed_count += 1
        x = np.sin(np.arange(1, n + 1) * float(fixed_count))
        return x - (v1 @ x) * v1 if la else x

    basis = np.empty((m + 1, n))
    t = np.zeros((m, m))  # basis^T M basis, from the projection coefficients
    x = fixed()
    basis[0] = x / math.sqrt(x @ x)
    first, beta = 0, 0.0
    for _ in range(_EIGEN_MAX_RESTARTS):
        for j in range(first, m):
            v, prior = basis[j], basis[: j + 1]
            w = matvec(v)
            # after a cycle's first step, the three-term recurrence leaves
            # only rounding for the Gram-Schmidt pass to remove
            recurrence = j > first
            if recurrence:
                w -= beta * basis[j - 1]
                alpha = v @ w
                w -= alpha * v
            norm2 = w @ w
            h = prior @ w
            w -= h @ prior
            if w @ w <= 0.5 * norm2:
                again = prior @ w
                w -= again @ prior
                h += again
            if recurrence:
                h[j] += alpha
                h[j - 1] += beta
            t[: j + 1, j] = t[j, : j + 1] = h
            beta = math.sqrt(w @ w)
            if beta <= _BREAKDOWN:
                beta = 0.0
                if j + 1 == m:
                    break
                # the next fixed vector with more than ~1e-3 of its norm
                # (|x|^2 ~ n/2) outside the basis
                while True:
                    w = fixed()
                    w -= (prior @ w) @ prior
                    w -= (prior @ w) @ prior
                    if w @ w > 1e-6 * n:
                        break
                basis[j + 1] = w / math.sqrt(w @ w)
            else:
                basis[j + 1] = w / beta
            if j + 1 < m:
                t[j + 1, j] = t[j, j + 1] = beta
        theta, y = np.linalg.eigh(t)
        end = m - 1 if la else 0
        if abs(beta * y[m - 1, end]) <= _EIGEN_TOL:
            return float(theta[end])
        wanted = slice(m - keep, m) if la else slice(0, keep)
        ritz = y[:, wanted].T
        for lo in range(0, n, _RESTART_BLOCK):  # in place, without a keep x n temporary
            block = slice(lo, lo + _RESTART_BLOCK)
            basis[:keep, block] = ritz @ basis[:m, block]
        basis[keep] = basis[m]
        t[:] = 0.0
        t[range(keep), range(keep)] = theta[wanted]
        first = keep
    raise ComputationRefused(
        f"eigensolver failed to converge in {_EIGEN_MAX_RESTARTS} restarts (n={n}, {which})"
    )


def spectrum(g: Graph) -> SpectrumResult:
    """(lambda2, rho_star, gap) of the symmetrized walk operator D^{-1/2}AD^{-1/2}.

    lambda2 is the second-largest eigenvalue, rho_star = max(|lambda2|,
    |lambda_n|) is the nontrivial spectral radius, gap = 1 - lambda2. Dense
    symmetric solve up to n=512, which gives both ends at once; above it,
    the thick-restart Lanczos of `_extreme_iterative` (numpy only, nothing
    random) solves lambda2 here and lambda_n only when rho_star is first
    read. Results are bit-identical across calls and processes, whichever
    ends are read. Disconnected graphs are rejected (lambda2 = 1 would be
    ambiguous).
    """
    if g.n < 2:
        raise ValueError(f"spectrum needs n >= 2, got n={g.n}")
    if not is_connected(g):
        raise ValueError("spectrum requires a connected graph")
    if g.n <= _DENSE_EIGEN_LIMIT:
        lam2, lam_n = _extremes_dense(g)
        return SpectrumResult(lam2, partial(float, lam_n))
    return SpectrumResult(_extreme_iterative(g, "LA"), partial(_extreme_iterative, g, "SA"))


def girth(g: Graph, vertex_transitive: bool = False):
    """Length of the shortest cycle, or UNBOUNDED (math.inf) for forests.

    vertex_transitive=True scans from vertex 0 alone. A BFS from a vertex on a
    shortest cycle finds that cycle's length, and on a vertex-transitive graph
    every vertex lies on one; on other graphs the result may be too large.
    """
    found = shortest_cycle_scan(g.adj, roots=(0,) if vertex_transitive else None)
    return UNBOUNDED if found is None else found[0]


def diameter(g: Graph):
    """Max eccentricity; UNBOUNDED (math.inf) if the graph is disconnected.

    Counts the levels of each block of `graphcore.reach_blocks`: a block's
    largest eccentricity is its last level, and a last level with a set that
    is not full leaves some pair unreachable.
    """
    worst = 0
    for lo, hi, levels in graphcore.reach_blocks(g.adj):
        for d, reach in enumerate(levels):
            pass
        if reach.count((1 << (hi - lo)) - 1) < g.n:
            return UNBOUNDED
        worst = max(worst, d)
    return worst


@dataclass(frozen=True)
class BallProfileRow:
    vertex: int
    ball_size: int
    gap: Optional[float]
    h_exact: Optional[Fraction]


@dataclass(frozen=True)
class BallProfileSummary:
    min_gap: Optional[float]
    median_gap: Optional[float]
    min_h_exact: Optional[Fraction]


def ball_expansion_profile(g: Graph, r: int) -> tuple[list[BallProfileRow], BallProfileSummary]:
    """Expansion metrics of every radius-r induced ball.

    Each row reports the ball around one vertex: its size, spectral gap
    (None for single-vertex balls, where no spectrum exists), and exact h
    when the ball has between 3 and `BALL_EXACT_MAX` vertices. The summary
    aggregates min/median gap and min h over the defined entries.
    """
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    rows = []
    for v in range(g.n):
        ball = induced_ball(g, v, r)
        gap_v: Optional[float] = None
        if ball.n >= 2:
            gap_v = spectrum(ball).gap  # induced balls are connected
        h_v = exact_h(ball, BALL_EXACT_MAX)
        rows.append(BallProfileRow(vertex=v, ball_size=ball.n, gap=gap_v, h_exact=h_v))
    gaps = [row.gap for row in rows if row.gap is not None]
    hs = [row.h_exact for row in rows if row.h_exact is not None]
    summary = BallProfileSummary(
        min_gap=min(gaps) if gaps else None,
        median_gap=median(gaps) if gaps else None,
        min_h_exact=min(hs) if hs else None,
    )
    return rows, summary


@dataclass(frozen=True)
class MetricsReport:
    """Flat bundle of every whole-graph quantity the toolkit measures.

    Spectral fields are None for disconnected inputs (the walk spectrum is
    refused there); exact rationals are None when the size cap rules them out.
    """

    n: int
    m: int
    max_degree: int
    h_exact: Optional[Fraction]
    conductance: Optional[Fraction]
    lambda2: Optional[float]
    rho_star: Optional[float]
    gap: Optional[float]
    girth: object  # int or UNBOUNDED
    diameter: object  # int or UNBOUNDED


def measure(g: Graph, *, exact_max: int) -> MetricsReport:
    """Full MetricsReport; exact rationals only when n <= exact_max."""
    connected = is_connected(g)
    h = exact_h(g, exact_max)
    cond: Optional[Fraction] = None
    if connected and 2 <= g.n <= exact_max:
        cond = conductance_exact(g)
    lam2 = rho = gap = None
    if connected and g.n >= 2:
        spec = spectrum(g)
        lam2, rho, gap = spec.lambda2, spec.rho_star, spec.gap
    return MetricsReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        h_exact=h,
        conductance=cond,
        lambda2=lam2,
        rho_star=rho,
        gap=gap,
        girth=girth(g),
        diameter=diameter(g),
    )

