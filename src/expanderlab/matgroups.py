"""Arithmetic in SL(2, Z/qZ) and its direct square, plus Cayley graph enumeration.

A group element is a tuple of ints reduced mod q in row-major order: four
entries (a, b, c, d) for [[a, b], [c, d]] in SL(2, Z/qZ), eight for a pair in
the product group (left block, then right block). The modulus travels beside
the elements, not in them.

The concrete free pair shipped here is the classical Sanov pair
a = [[1,2],[0,1]], b = [[1,0],[2,1]], whose lift freely generates a subgroup
of SL(2,Z); the elementary pair (the two unit transvections) generates the
full SL(2, Z/qZ). Product groups are generated through explicit pairing
schemes; whether any of them lifts to a free dense subgroup is left open, so
`cayley_graph` always reports the reached order next to the full group order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import metrics
from .errors import ComputationRefused
from .graphcore import Graph

#: Largest group `cayley_graph` enumerates before refusing.
ORDER_CAP = 500_000


def group_mul(x: tuple, y: tuple, q: int) -> tuple:
    """Product x*y mod q, 2x2 block by 2x2 block."""
    if len(x) == 4:
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)
    return group_mul(x[:4], y[:4], q) + group_mul(x[4:], y[4:], q)


def group_inv(x: tuple, q: int) -> tuple:
    """Inverse mod q via each block's adjugate; defined exactly when every det = 1 (mod q)."""
    out: tuple = ()
    for i in range(0, len(x), 4):
        a, b, c, d = x[i:i + 4]
        det = (a * d - b * c) % q
        if det != 1:
            raise ValueError(f"not in SL: det = {det} (mod {q})")
        out += (d % q, -b % q, -c % q, a % q)
    return out


def _identity(size: int) -> tuple:
    return (1, 0, 0, 1) * (size // 4)


def _pair(a: tuple, b: tuple, pairing: str, q: int) -> tuple:
    """Pair a core {a, b} into product-group generators.

    diagonal -> {(a,a), (b,b)}; twisted -> {(a,b), (b,a)};
    mixed -> {(a,b), (b, a*b)}. None is guaranteed to generate the full
    product: check reached_order on the Cayley graph.
    """
    if pairing == "diagonal":
        return (a + a, b + b)
    if pairing == "twisted":
        return (a + b, b + a)
    if pairing == "mixed":
        return (a + b, b + group_mul(a, b, q))
    raise ValueError(f"unknown pairing {pairing!r}, expected diagonal, twisted or mixed")


def is_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p^k for prime p, else None."""
    if q < 2:
        return None
    p = None
    x = q
    for cand in range(2, int(q**0.5) + 1):
        if x % cand == 0:
            p = cand
            break
    if p is None:
        return (q, 1)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return (p, k) if x == 1 else None


def sl2_order(q: int) -> Optional[int]:
    """|SL(2, Z/p^k Z)| = p^{3(k-1)} * p * (p^2 - 1); None if q is not a prime power."""
    pk = is_prime_power(q)
    if pk is None:
        return None
    p, k = pk
    return p ** (3 * (k - 1)) * p * (p * p - 1)


@dataclass(frozen=True)
class CayleyResult:
    graph: Graph
    elements: tuple[tuple[int, ...], ...]
    reached_order: int
    full_group_order: Optional[int]


def cayley_graph(core, q: int) -> CayleyResult:
    """Right-Cayley graph of the subgroup that `core` generates mod q.

    The core is reduced mod q and closed under inverses, the identity and
    repeats dropped. Vertices are numbered in BFS discovery order from the
    identity, and vertex i's neighbours are i*s over the generators s in that
    order, frozen as they stand (`graphcore` says why that is a simple graph).
    The reached subgroup order is the vertex count; for SL(2) over prime
    powers the known group order is attached for comparison.
    """
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    gens: list = []
    for e in core:
        e = tuple(x % q for x in e)
        for x in (e, group_inv(e, q)):
            if x != _identity(len(x)) and x not in gens:
                gens.append(x)
    if not gens:
        raise ValueError(f"generating set collapses to the identity mod {q}")
    ident = _identity(len(gens[0]))
    index = {ident: 0}
    order = [ident]
    adj = []
    for cur in order:  # grows as the BFS discovers vertices
        nbrs = []
        for s in gens:
            nxt = group_mul(cur, s, q)
            j = index.get(nxt)
            if j is None:
                if len(order) >= ORDER_CAP:
                    raise ComputationRefused(
                        f"group too large: order cap {ORDER_CAP} exceeded "
                        f"(partial count {len(order)})"
                    )
                j = index[nxt] = len(order)
                order.append(nxt)
            nbrs.append(j)
        adj.append(tuple(sorted(nbrs)))
    base = sl2_order(q)
    full = base ** (len(ident) // 4) if base is not None else None
    graph = Graph(n=len(order), adj=tuple(adj))
    return CayleyResult(
        graph=graph, elements=tuple(order), reached_order=len(order), full_group_order=full
    )


def generators_from_recipe(recipe: str, q: int) -> tuple:
    """The core pair of `transvections[:<k>]` (k = 2), its aliases `sanov` (k = 2)
    and `elementary` (k = 1), or `product:[<pairing>][:<base>]` (twisted over
    sanov), whose base is all that follows the pairing. A field no recipe
    reads is refused, not dropped.

    `transvections:<k>` is [[1,k],[0,1]], [[1,0],[k,1]], the k-th powers of the
    unit transvections. For k >= 2 its lift to SL(2,Z) is a free pair
    (ping-pong), so relations can only close modulo q, never over Z.
    """
    aliases = {"sanov": "transvections:2", "elementary": "transvections:1"}
    kind, colon, rest = aliases.get(recipe, recipe).partition(":")
    if kind == "transvections":
        if rest and not (rest.isascii() and rest.isdigit()):
            raise ValueError(f"recipe {recipe!r}: power must be digits 0-9, got {rest!r}")
        k = int(rest or 2)
        if k < 1:
            raise ValueError(f"transvection power must be >= 1, got {k}")
        return ((1, k, 0, 1), (1, 0, k, 1))
    if kind == "product" and colon:
        pairing, has_base, base = rest.partition(":")
        if base.startswith("product"):
            raise ValueError("product recipes cannot nest")
        a, b = generators_from_recipe(base if has_base else "sanov", q)
        return _pair(a, b, pairing or "twisted", q)
    raise ValueError(f"unknown generator recipe {recipe!r}")


def cayley_from_recipe(recipe: str, p: int, level: int) -> CayleyResult:
    if level < 1:
        raise ValueError(f"tower level must be >= 1, got {level}")
    # Refused before p**level is computed: 3**30_000_000 alone takes 15 s on
    # one core of a 2-vCPU host, so the check caps the exponent at 64. At
    # |q| >= 2^64 the first sanov or elementary generator [[1,k],[0,1]]
    # (k <= 2) has order >= |q|/2 > ORDER_CAP, so only transvections:<k>
    # with k sharing nearly all of q could have finished.
    if abs(p) ** min(level, 64) >= 2**64:
        raise ComputationRefused(f"modulus {p}^{level} refused: it must be below 2^64")
    if p < 2:
        raise ValueError(f"cayley p must be >= 2, got {p}")
    q = p**level
    return cayley_graph(generators_from_recipe(recipe, q), q)


@dataclass(frozen=True)
class TowerRow:
    level: int
    modulus: int
    vertices: int
    degree: int
    girth: object  # int or UNBOUNDED
    gap: float
    reached_order: int
    full_group_order: Optional[int]


def girth_tower_report(p: int, n_max: int, *, recipe: str) -> list[TowerRow]:
    """One row per tower level q = p, p^2, ..., p^n_max: size, girth, gap.

    Where two consecutive levels have equal degree, reduction mod p^{n-1}
    maps the generators of level n one-to-one onto those of level n-1, so it
    is a covering map and girth cannot drop from level n-1 to level n; a drop
    there would mean broken group arithmetic, so it is checked here rather
    than left to callers. Where the degree grows (at p=2 the unit
    transvections are involutions, so level 1 has degree 2), girth may fall.
    """
    if n_max < 1:
        raise ValueError(f"tower needs at least one level, got {n_max}")
    rows: list[TowerRow] = []
    for level in range(1, n_max + 1):
        res = cayley_from_recipe(recipe, p, level)
        g = res.graph
        spec = metrics.spectrum(g)
        rows.append(
            TowerRow(
                level=level,
                modulus=p**level,
                vertices=g.n,
                degree=g.max_degree,
                # every recipe gives a Cayley graph, and those are vertex-transitive
                girth=metrics.girth(g, vertex_transitive=True),
                gap=spec.gap,
                reached_order=res.reached_order,
                full_group_order=res.full_group_order,
            )
        )
    if any(lo.degree == hi.degree and lo.girth > hi.girth for lo, hi in zip(rows, rows[1:])):
        girths = [r.girth for r in rows]
        raise RuntimeError(f"girth not monotone along the tower: {girths}")
    return rows

