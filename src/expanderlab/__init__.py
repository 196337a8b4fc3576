"""Expander graph families, exact expansion metrics, and spanning high-girth
sub-expander search."""

__version__ = "0.1.0"

from .graphcore import (  # noqa: F401
    Graph,
    UNREACHABLE,
    bfs_distances,
    edge_subgraph,
    from_edges,
    induced_ball,
    induced_subgraph,
    is_connected,
    load_graph,
    save_graph,
)
from .metrics import (  # noqa: F401
    UNBOUNDED,
    MetricsReport,
    ball_expansion_profile,
    cheeger_exact,
    conductance_exact,
    diameter,
    girth,
    measure,
    spectrum,
)
from .errors import ComputationRefused  # noqa: F401
