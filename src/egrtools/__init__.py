"""egrtools: edge-girth-regular graphs from finite geometries.

An egr(n, k, g, lambda) graph is k-regular of order n and girth g with
every edge on exactly lambda girth cycles.  This package constructs the
known geometric families (biaffine planes, truncated generalized
quadrangles, ovoid/spread deletions, tangent-plane pencil graphs),
verifies signatures by exact cycle counting (``verify_many`` for a
batch), and evaluates the spectral and combinatorial lower bounds that
certify several of the families extremal.
"""

__version__ = "0.1.0"

from .galois import GF, Field, is_prime
from .geometry import (
    IncidenceGeometry,
    pg2_geometry,
    pg_points,
    singer_pencil,
    symplectic_gq,
)
from .graph_core import (
    EgrSignature,
    Graph,
    Graph6Error,
    NotEdgeGirthRegular,
    graph6_decode,
    graph6_decode_many,
    graph6_encode,
    verify_egr,
    verify_many,
)
from .constructions import (
    build_biaffine,
    build_gq_truncation,
    build_ovoid_spread,
    build_pencil_graph,
    complete_bipartite,
    cycle_graph,
    heawood,
    hoffman_singleton,
    levi_graph,
    named_graph,
    petersen,
    tutte_coxeter,
)
from .spectral import (
    Spectrum,
    certify_tight_spectrum,
    eigenvalues,
    tree_walk_count,
    walk_moments,
)
from .bounds import (
    BoundReport,
    DegenerateBound,
    ExtremalityVerdict,
    bound_report,
    certify_extremal,
    dfjr_bound,
    egr4_bound,
    even_girth_bound,
    moore_bound,
    odd_girth_bound,
    vertex_cycle_cap,
)

__all__ = [
    "GF",
    "Field",
    "is_prime",
    "IncidenceGeometry",
    "pg_points",
    "pg2_geometry",
    "symplectic_gq",
    "singer_pencil",
    "Graph",
    "EgrSignature",
    "NotEdgeGirthRegular",
    "Graph6Error",
    "verify_egr",
    "verify_many",
    "graph6_encode",
    "graph6_decode",
    "graph6_decode_many",
    "levi_graph",
    "build_biaffine",
    "build_gq_truncation",
    "build_ovoid_spread",
    "build_pencil_graph",
    "named_graph",
    "petersen",
    "hoffman_singleton",
    "heawood",
    "tutte_coxeter",
    "complete_bipartite",
    "cycle_graph",
    "walk_moments",
    "tree_walk_count",
    "eigenvalues",
    "Spectrum",
    "certify_tight_spectrum",
    "moore_bound",
    "dfjr_bound",
    "egr4_bound",
    "even_girth_bound",
    "odd_girth_bound",
    "vertex_cycle_cap",
    "bound_report",
    "BoundReport",
    "certify_extremal",
    "ExtremalityVerdict",
    "DegenerateBound",
]
