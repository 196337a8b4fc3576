"""Graph family constructors and the FamilySpec mini-language.

Non-group families live here: uniform random regular graphs (configuration
model with whole-sample rejection), reference graphs (cycles, complete graphs,
Petersen), graph powers, and Cartesian products. Cayley families are built in
`matgroups`; this module only dispatches to them.

FamilySpec strings drive the CLI and the conjecture probe. A nested spec,
such as `inner` below, is an ordinary param whose value is a FamilySpec:

    random-regular:n=1024,d=4,seed=7
    power:k=2,inner=(cayley:recipe=elementary,p=5)
    product:inner=(cycle:n=3),inner2=(cycle:n=3)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from . import graphcore, matgroups
from .errors import ComputationRefused
from .graphcore import Graph, from_edges
from .rng import Stream, split

_REGULAR_RETRY_CAP = 10_000
_PHASE_MATCHING = 0x11


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform simple d-regular graph on n vertices (configuration model).

    Draws a uniform perfect matching on the n*d half-edge stubs and rejects
    the whole sample on any self-loop or duplicate edge, so accepted graphs
    are exactly uniform over simple d-regular graphs. Deterministic in seed.
    A sample is simple with probability about exp(-(d^2 - 1)/4), so a request
    expecting more than _REGULAR_RETRY_CAP samples (every d >= 7) is refused
    before the first one is drawn.
    """
    graphcore.check_size(n, n * d // 2)
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"need d < n, got n={n}, d={d}")
    log_expected = (d * d - 1) / 4
    if log_expected > math.log(_REGULAR_RETRY_CAP):
        raise ComputationRefused(
            f"configuration model expects about 10^{log_expected / math.log(10):.1f} samples"
            f" for n={n}, d={d}, over the cap of {_REGULAR_RETRY_CAP}"
        )
    stream = Stream(split(seed, _PHASE_MATCHING))
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_REGULAR_RETRY_CAP):
        stream.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return from_edges(n, edges)
    raise ComputationRefused(
        f"configuration model rejected {_REGULAR_RETRY_CAP} samples for n={n}, d={d}"
    )


def graph_power(g: Graph, k: int) -> Graph:
    """G^k: same vertices, edge {u,v} iff 1 <= dist_g(u,v) <= k.

    Level k of each block of `graphcore.reach_blocks` (or its last level, if
    it stops sooner) holds each vertex's sources within distance k; the
    sources below a vertex are its edges to them. The running edge count is
    checked against the cap before each vertex's edges are emitted.
    """
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    n = g.n
    edges = []
    for lo, hi, levels in graphcore.reach_blocks(g.adj):
        for d, reach in enumerate(levels):
            if d == k:
                break
        for v in range(lo + 1, n):
            below = reach[v] if v >= hi else reach[v] & ((1 << (v - lo)) - 1)
            graphcore.check_size(n, len(edges) + below.bit_count())
            while below:
                low = below & -below
                edges.append((lo + low.bit_length() - 1, v))
                below ^= low
    return from_edges(n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u,a) ~ (v,b) iff u=v and a~b, or a=b and u~v.

    Vertices are indexed row-major: (u, a) -> u*h.n + a.
    """
    graphcore.check_size(g.n * h.n, g.m * h.n + h.m * g.n)
    hn = h.n
    edges = []
    for u in range(g.n):
        base = u * hn
        for a, b in h.edges():
            edges.append((base + a, base + b))
    for u, v in g.edges():
        for a in range(hn):
            edges.append((u * hn + a, v * hn + a))
    return from_edges(g.n * hn, edges)


def named_graph(kind: str, n: Optional[int] = None) -> Graph:
    """Reference instances: cycle C_n (n>=3), complete K_n (n>=1), Petersen."""
    if kind == "cycle":
        if n is None or n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        graphcore.check_size(n, n)
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        if n is None or n < 1:
            raise ValueError(f"complete needs n >= 1, got {n}")
        graphcore.check_size(n, n * (n - 1) // 2)
        return from_edges(n, itertools.combinations(range(n), 2))
    if kind == "petersen":
        # Kneser graph K(5,2): vertices are 2-subsets of {0..4}, disjoint pairs adjacent
        subsets = list(itertools.combinations(range(5), 2))
        idx = {s: i for i, s in enumerate(subsets)}
        edges = [
            (idx[a], idx[b])
            for a, b in itertools.combinations(subsets, 2)
            if not set(a) & set(b)
        ]
        return from_edges(10, edges)
    raise ValueError(f"unknown named graph kind: {kind!r}")


# --- FamilySpec ---------------------------------------------------------

# canonical key order per kind, for byte-stable round-trips; also the known
# kinds and the keys each accepts (`inner`/`inner2` take nested specs). A key
# with no `_DEFAULTS` entry is required; `parse_family_spec` refuses its absence
_KEY_ORDER = {
    "random-regular": ["n", "d", "seed"],
    "cycle": ["n"],
    "complete": ["n"],
    "petersen": [],
    "cayley": ["recipe", "p", "level"],
    "power": ["k", "inner"],
    "product": ["inner", "inner2"],
}


#: Deepest nesting of inner specs `parse_family_spec` accepts; the recursive
#: spec walks would overflow Python's stack a few hundred levels down.
SPEC_DEPTH_CAP = 100

# values of the keys a spec may leave out; `with_defaults` fills them in
_DEFAULTS = {
    "random-regular": {"seed": 0},
    "cayley": {"recipe": "elementary", "level": 1},
}


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family descriptor; `params["inner"]`/`params["inner2"]` are nested specs."""

    kind: str
    params: dict = field(default_factory=dict)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > SPEC_DEPTH_CAP:
                raise ValueError(f"spec nested deeper than {SPEC_DEPTH_CAP} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in spec near {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced '(' in spec {text!r}")
    if cur:
        parts.append("".join(cur))
    return parts


def parse_family_spec(text: str) -> FamilySpec:
    """Parse `kind:key=val,...` with parenthesized nesting for inner specs."""
    text = text.strip()
    if not text:
        raise ValueError("empty family spec")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KEY_ORDER:
        raise ValueError(f"unknown family kind {kind!r} in spec {text!r}")
    params: dict = {}
    for part in _split_top_level(rest) if rest else []:
        part = part.strip()
        if not part:
            continue
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"bad key=value pair {part!r} in spec {text!r}")
        val = val.strip()
        if key not in _KEY_ORDER[kind]:
            raise ValueError(f"unknown key {key!r} for family {kind!r}")
        if key in params:
            raise ValueError(f"repeated key {key!r} in spec {text!r}")
        if key in ("inner", "inner2"):
            if not (val.startswith("(") and val.endswith(")")):
                raise ValueError(f"nested spec for {key} must be parenthesized: {part!r}")
            params[key] = parse_family_spec(val[1:-1])
        elif key == "recipe":
            params[key] = val
        else:
            try:
                params[key] = int(val)
            except ValueError:
                raise ValueError(f"bad integer for key {key!r}: {val!r}") from None
    for key in _KEY_ORDER[kind]:
        if key not in params and key not in _DEFAULTS.get(kind, {}):
            raise ValueError(f"family spec {kind!r} missing required key {key!r}")
    return FamilySpec(kind=kind, params=params)


def canonical_spec_string(spec: FamilySpec) -> str:
    """Round-trippable normalized form: fixed key order, omitted keys left out."""
    parts = []
    for key in _KEY_ORDER[spec.kind]:
        if key in spec.params:
            val = spec.params[key]
            nested = isinstance(val, FamilySpec)
            parts.append(f"{key}=({canonical_spec_string(val)})" if nested else f"{key}={val}")
    return spec.kind + (":" + ",".join(parts) if parts else "")


def with_defaults(spec: FamilySpec) -> FamilySpec:
    """`spec` with every omitted key that has a default filled in, inner specs too.

    Two specs that build the same family have the same canonical string
    once filled, whichever defaults each spelled out.
    """
    params = {**_DEFAULTS.get(spec.kind, {}), **spec.params}
    nested = {k: with_defaults(v) for k, v in params.items() if isinstance(v, FamilySpec)}
    return FamilySpec(kind=spec.kind, params={**params, **nested})


def base_family_id(spec: FamilySpec) -> str:
    """Group id for probe reports: the spec with power wrappers stripped.

    A family and its graph powers share one id, so G-vs-G^2 comparison rows
    can be grouped.
    """
    while spec.kind == "power":
        spec = spec.params["inner"]
    return canonical_spec_string(spec)


@dataclass(frozen=True)
class BuildResult:
    graph: Graph
    elements: Optional[tuple[tuple[int, ...], ...]] = None  # Cayley group elements, if any


def build_family(spec: FamilySpec) -> BuildResult:
    """Construct the graph a FamilySpec describes; each constructor refuses its own size."""
    kind, p = spec.kind, with_defaults(spec).params
    if kind == "random-regular":
        return BuildResult(random_regular(p["n"], p["d"], p["seed"]))
    if kind in ("cycle", "complete", "petersen"):
        return BuildResult(named_graph(kind, p.get("n")))
    if kind == "cayley":
        result = matgroups.cayley_from_recipe(p["recipe"], p["p"], p["level"])
        return BuildResult(result.graph, elements=result.elements)
    if kind == "power":
        return BuildResult(graph_power(build_family(p["inner"]).graph, p["k"]))
    if kind == "product":
        g = build_family(p["inner"]).graph
        h = build_family(p["inner2"]).graph
        return BuildResult(cartesian_product(g, h))
    raise ValueError(f"unknown family kind {kind!r}")
