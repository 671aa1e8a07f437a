"""The walk engine as the tests reach it: the prebuilt adjacency stack that
``_girth_walks`` and ``_nb_walks`` take, and per-edge and per-vertex
girth-cycle counts from the block core that ``verify_egr`` runs."""

import numpy as np

from egrtools.graph_core import Graph, _adjacency, _exact_dtype, _girth_counts, _union_of


def stack(*graphs: Graph) -> np.ndarray:
    """The graphs' adjacency matrices as the walk pass's prebuilt stack."""
    return np.stack([_adjacency(G, _exact_dtype(1)) for G in graphs])


def edge_counts(G: Graph) -> tuple[int, list[int]]:
    """G's girth and the girth cycles through each of its edges, in
    ``G.edges()`` order, from ``_girth_counts`` on G alone; G must be
    connected, regular of degree >= 3 and under the vertex cap."""
    (g,), _, _, counts, _, _ = _girth_counts(_union_of([G]), np.array([0]))
    return g, counts.tolist()


def vertex_counts(G: Graph, counts: list[int]) -> list[int]:
    """The girth cycles through each vertex, given the edge counts of
    ``edge_counts``: a cycle through v passes two of v's edges, so this is
    half the sum of v's edge counts."""
    total = [0] * G.n
    for (u, v), c in zip(G.edges(), counts):
        total[u] += c
        total[v] += c
    return [t // 2 for t in total]
