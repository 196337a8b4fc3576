"""Arithmetic in SL(m, Z/qZ) and direct products, plus Cayley graph enumeration.

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

from .errors import ComputationRefused
from .graphcore import Graph, from_edges


@dataclass(frozen=True)
class ModMatrix:
    """m x m matrix over Z/qZ, entries stored reduced (canonical form)."""

    dim: int
    modulus: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, dim: int, modulus: int, rows) -> "ModMatrix":
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"entries are not {dim}x{dim}")
        return cls(dim, modulus, tuple(tuple(x % modulus for x in r) for r in rows))

    @classmethod
    def identity(cls, dim: int, modulus: int) -> "ModMatrix":
        return cls.make(dim, modulus, [[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def is_identity(self) -> bool:
        return self == ModMatrix.identity(self.dim, self.modulus)

    def det(self) -> int:
        return _int_det([list(r) for r in self.entries]) % self.modulus

    def mul(self, other: "ModMatrix") -> "ModMatrix":
        if self.dim != other.dim or self.modulus != other.modulus:
            raise ValueError(
                f"dimension/modulus mismatch: {self.dim} mod {self.modulus} vs "
                f"{other.dim} mod {other.modulus}"
            )
        q = self.modulus
        if self.dim == 2:
            (a, b), (c, d) = self.entries
            (e, f), (g, h) = other.entries
            return ModMatrix(
                2, q,
                (((a * e + b * g) % q, (a * f + b * h) % q),
                 ((c * e + d * g) % q, (c * f + d * h) % q)),
            )
        rows = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.dim)) % q
                  for j in range(self.dim))
            for i in range(self.dim)
        )
        return ModMatrix(self.dim, q, rows)

    def inv(self) -> "ModMatrix":
        """Inverse via the adjugate; defined exactly when det = 1 (mod q)."""
        q = self.modulus
        if self.det() != 1 % q:
            raise ValueError(f"not in SL: det = {self.det()} (mod {q})")
        if self.dim == 2:
            (a, b), (c, d) = self.entries
            return ModMatrix(2, q, ((d % q, -b % q), (-c % q, a % q)))
        n = self.dim
        adj = [
            [
                ((-1) ** (i + j)) * _int_det(_minor(self.entries, j, i))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return ModMatrix.make(n, q, adj)

    def reduce_mod(self, q_new: int) -> "ModMatrix":
        if q_new < 2 or self.modulus % q_new != 0:
            raise ValueError(f"{q_new} does not divide modulus {self.modulus}")
        return ModMatrix.make(self.dim, q_new, self.entries)

    def label(self) -> str:
        return " ".join(str(x) for row in self.entries for x in row)


def _minor(entries, drop_row: int, drop_col: int) -> list[list[int]]:
    return [
        [x for j, x in enumerate(row) if j != drop_col]
        for i, row in enumerate(entries)
        if i != drop_row
    ]


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by cofactor expansion (dims here are tiny)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            total += ((-1) ** j) * x * _int_det(_minor(rows, 0, j))
    return total


@dataclass(frozen=True)
class ProductElement:
    """Element of a direct product group: componentwise arithmetic."""

    left: ModMatrix
    right: ModMatrix

    def __post_init__(self):
        if self.left.dim != self.right.dim or self.left.modulus != self.right.modulus:
            raise ValueError("product components must share dim and modulus")

    def is_identity(self) -> bool:
        return self.left.is_identity() and self.right.is_identity()

    def mul(self, other: "ProductElement") -> "ProductElement":
        return ProductElement(self.left.mul(other.left), self.right.mul(other.right))

    def inv(self) -> "ProductElement":
        return ProductElement(self.left.inv(), self.right.inv())

    def label(self) -> str:
        return f"{self.left.label()} {self.right.label()}"


@dataclass(frozen=True)
class GeneratorSet:
    """Symmetric, identity-free generating set plus the defining core pair."""

    elements: tuple
    core: tuple


def make_symmetric(core) -> GeneratorSet:
    """Close `core` under inverses, drop identity, dedupe by canonical form."""
    elements = []
    seen = set()
    for e in core:
        if isinstance(e, ModMatrix) and e.det() != 1 % e.modulus:
            raise ValueError(f"not in SL: det = {e.det()} (mod {e.modulus})")
        for x in (e, e.inv()):
            if x.is_identity():
                continue
            if x not in seen:
                seen.add(x)
                elements.append(x)
    return GeneratorSet(elements=tuple(elements), core=tuple(core))


def sanov_generators(q: int) -> GeneratorSet:
    """The Sanov pair [[1,2],[0,1]], [[1,0],[2,1]] mod q, symmetrized.

    Their lift to SL(2,Z) generates a free group (classical ping-pong pair),
    so relations can only close modulo q, never over Z.
    """
    if q < 3:
        raise ValueError(f"sanov generators need q >= 3 (a = identity mod 2), got {q}")
    a = ModMatrix.make(2, q, [[1, 2], [0, 1]])
    b = ModMatrix.make(2, q, [[1, 0], [2, 1]])
    return make_symmetric([a, b])


def elementary_generators(q: int) -> GeneratorSet:
    """The two unit transvections mod q, symmetrized; generate all of SL(2, Z/qZ)."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    a = ModMatrix.make(2, q, [[1, 1], [0, 1]])
    b = ModMatrix.make(2, q, [[1, 0], [1, 1]])
    return make_symmetric([a, b])


def transvection_generators(q: int, k: int = 2) -> GeneratorSet:
    """The pair [[1,k],[0,1]], [[1,0],[k,1]] mod q, symmetrized.

    These are the k-th powers of the unit transvections, so they sit inside
    the k-th power of the elementary set; for k >= 2 the lift is a free pair
    (ping-pong), making k=2 exactly the Sanov pair. The exponent is exposed
    because no canonical choice exists for the distance-O(1) substitute
    construction it feeds.
    """
    if k < 1:
        raise ValueError(f"transvection power must be >= 1, got {k}")
    if k % q == 0:
        raise ValueError(f"transvection power {k} collapses to identity mod {q}")
    a = ModMatrix.make(2, q, [[1, k], [0, 1]])
    b = ModMatrix.make(2, q, [[1, 0], [k, 1]])
    return make_symmetric([a, b])


_PAIRINGS = ("diagonal", "twisted", "mixed")


def product_generators(gs: GeneratorSet, pairing: str = "twisted") -> GeneratorSet:
    """Pair a two-element core {a, b} into product-group generators.

    diagonal -> {(a,a), (b,b)}; twisted -> {(a,b), (b,a)};
    mixed -> {(a,b), (b, a*b)}. None is guaranteed to generate the full
    product: check reached_order on the Cayley graph.
    """
    if len(gs.core) < 2:
        raise ValueError(f"need >= 2 core generators, got {len(gs.core)}")
    a, b = gs.core[0], gs.core[1]
    if pairing == "diagonal":
        core = [ProductElement(a, a), ProductElement(b, b)]
    elif pairing == "twisted":
        core = [ProductElement(a, b), ProductElement(b, a)]
    elif pairing == "mixed":
        core = [ProductElement(a, b), ProductElement(b, a.mul(b))]
    else:
        raise ValueError(f"unknown pairing {pairing!r}, expected one of {_PAIRINGS}")
    return make_symmetric(core)


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
    labels: tuple[str, ...]
    reached_order: int
    full_group_order: Optional[int]


def cayley_graph(gens: GeneratorSet, order_cap: int = 500_000) -> CayleyResult:
    """Right-Cayley graph: BFS from the identity, edge {g, gs} per generator.

    Vertices are numbered in BFS discovery order (generator order fixed by
    the set), collapsed to a simple graph. The reached subgroup order is the
    vertex count; for SL(2) over prime powers the known group order is
    attached for comparison.
    """
    if not gens.elements:
        raise ValueError("empty generator set")
    first = gens.elements[0]
    if isinstance(first, ProductElement):
        ident = ProductElement(
            ModMatrix.identity(first.left.dim, first.left.modulus),
            ModMatrix.identity(first.right.dim, first.right.modulus),
        )
    else:
        ident = ModMatrix.identity(first.dim, first.modulus)
    for s in gens.elements:
        if s.is_identity():
            raise ValueError("generator set contains the identity")
    index = {ident: 0}
    order = [ident]
    edges = set()
    i = 0
    while i < len(order):
        cur = order[i]
        for s in gens.elements:
            nxt = cur.mul(s)
            j = index.get(nxt)
            if j is None:
                if len(order) >= order_cap:
                    raise ComputationRefused(
                        f"group too large: order cap {order_cap} exceeded "
                        f"(partial count {len(order)})"
                    )
                j = len(order)
                index[nxt] = j
                order.append(nxt)
            edges.add((i, j) if i < j else (j, i))
        i += 1
    graph = from_edges(len(order), edges)
    labels = tuple(e.label() for e in order)
    if isinstance(first, ProductElement):
        base = sl2_order(first.left.modulus) if first.left.dim == 2 else None
        full = base * base if base is not None else None
    else:
        full = sl2_order(first.modulus) if first.dim == 2 else None
    return CayleyResult(graph=graph, labels=labels, reached_order=len(order), full_group_order=full)


def generators_from_recipe(recipe: str, q: int) -> GeneratorSet:
    """Named recipes: `sanov`, `elementary`, `transvections[:<k>]`,
    `product:<pairing>[:<base>]`."""
    if recipe == "sanov":
        return sanov_generators(q)
    if recipe == "elementary":
        return elementary_generators(q)
    if recipe == "transvections" or recipe.startswith("transvections:"):
        parts = recipe.split(":")
        k = int(parts[1]) if len(parts) > 1 and parts[1] else 2
        return transvection_generators(q, k)
    if recipe.startswith("product:"):
        parts = recipe.split(":")
        pairing = parts[1] if len(parts) > 1 and parts[1] else "twisted"
        base = parts[2] if len(parts) > 2 else "sanov"
        if base.startswith("product"):
            raise ValueError("product recipes cannot nest")
        return product_generators(generators_from_recipe(base, q), pairing)
    raise ValueError(f"unknown generator recipe {recipe!r}")


def cayley_from_recipe(recipe: str, p: int, level: int = 1, order_cap: int = 500_000) -> CayleyResult:
    if level < 1:
        raise ValueError(f"tower level must be >= 1, got {level}")
    return cayley_graph(generators_from_recipe(recipe, p**level), order_cap=order_cap)


@dataclass(frozen=True)
class TowerRow:
    level: int
    modulus: int
    vertices: int
    degree: int
    girth: object  # int or math.inf
    gap: float
    reached_order: int
    full_group_order: Optional[int]


def girth_tower_report(
    p: int, n_max: int, recipe: str = "sanov", order_cap: int = 500_000
) -> list[TowerRow]:
    """One row per tower level q = p, p^2, ..., p^n_max: size, girth, gap.

    Girth must be non-decreasing up the tower (a relation mod p^n also holds
    mod p^{n-1}); a violation would mean broken group arithmetic, so it is
    checked here rather than left to callers.
    """
    from . import metrics

    rows: list[TowerRow] = []
    for level in range(1, n_max + 1):
        res = cayley_from_recipe(recipe, p, level, order_cap=order_cap)
        g = res.graph
        spec = metrics.spectrum(g)
        rows.append(
            TowerRow(
                level=level,
                modulus=p**level,
                vertices=g.n,
                degree=g.max_degree,
                girth=metrics.girth(g),
                gap=spec.gap,
                reached_order=res.reached_order,
                full_group_order=res.full_group_order,
            )
        )
    girths = [r.girth for r in rows]
    if any(girths[i] > girths[i + 1] for i in range(len(girths) - 1)):
        raise RuntimeError(f"girth not monotone along the tower: {girths}")
    return rows


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
