"""Write stream_sample.g6, the input of the golden stream test.

    PYTHONPATH=src:tests python tests/data/make_stream_sample.py

The sample is seeded and mixes relabelled egr graphs of girth 3 to 8 and
one random degree-preserving switch of each, graphs that fail each early
check, blank and whitespace-only lines, and malformed graph6 lines.  It
has more lines than one stream block, so a block boundary falls inside
it.  stream_sample.jsonl holds what `egrtools verify --stdin-g6-stream`
printed for it (exit code 2) when the stream still verified one line at
a time.
"""

from __future__ import annotations

import random
from pathlib import Path

from egrtools.constructions import (
    build_biaffine,
    build_gq_truncation,
    build_pencil_graph,
    complete_bipartite,
    cycle_graph,
    heawood,
    hoffman_singleton,
    petersen,
    tutte_coxeter,
)
from egrtools.galois import GF
from egrtools.graph_core import Graph, graph6_encode
from oracles import complete, coxeter, generalized_petersen


def relabel(G: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(G.n), G.n)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def switch(G: Graph, rng: random.Random) -> Graph | None:
    """A random degree-preserving switch ab, cd -> ad, cb that keeps G
    simple, or None when 1000 tries find none (a complete graph has none)."""
    edges = G.edges()
    for _ in range(1000):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not G.has_edge(a, d) and not G.has_edge(c, b):
            return Graph.from_edges(G.n, [e for e in edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)])
    return None


EGR_BASES = {
    "K4": lambda: complete(4),
    "K5": lambda: complete(5),
    "K33": lambda: complete_bipartite(3),
    "K44": lambda: complete_bipartite(4),
    "cube": lambda: generalized_petersen(4, 1),
    "petersen": petersen,
    "dodecahedron": lambda: generalized_petersen(10, 2),
    "hoffman_singleton": hoffman_singleton,
    "heawood": heawood,
    "moebius_kantor": lambda: generalized_petersen(8, 3),
    "desargues": lambda: generalized_petersen(10, 3),
    "biaffine1_q3": lambda: build_biaffine(GF(3), 1),
    "gq_truncation_q3": lambda: build_gq_truncation(GF(3)),
    "pencil_q2": lambda: build_pencil_graph(GF(2)),
    "coxeter": coxeter,
    "tutte_coxeter": tutte_coxeter,
    "gp_24_5": lambda: generalized_petersen(24, 5),
}
COPIES = 8

# connected regular graphs that are not egr, and graphs failing each
# earlier check: disconnected, irregular (one with a degree tie), degree < 3
NOT_EGR = [
    Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    Graph.from_edges(8, complete(4).edges() + [(u + 4, v + 4) for u, v in complete(4).edges()]),
    Graph.from_edges(10, petersen().edges()[1:]),
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    cycle_graph(8),
    Graph([]),
    Graph([[]]),
]

MALFORMED = [
    "A",  # no adjacency byte for n = 2
    "B~",  # nonzero padding bits
    "~?",  # truncated long-form vertex count
    "~~?",  # truncated very-long-form vertex count
    "~~~~~~~~",  # vertex count over the decode cap
    "I?? ?????",  # a byte outside 63..126
    "Cé",  # a non-ASCII character
    ">>graph6<<",  # a header and nothing else
    "Iheawood",  # wrong length for n = 10
]


def lines(seed: int = 8) -> list[str]:
    rng = random.Random(seed)
    out = []
    for build in EGR_BASES.values():
        base = build()
        for _ in range(COPIES):
            out.append(graph6_encode(relabel(base, rng)))
            switched = switch(relabel(base, rng), rng)
            if switched is not None:
                out.append(graph6_encode(switched))
    out += [graph6_encode(G) for G in NOT_EGR]
    out += [">>graph6<<" + graph6_encode(petersen()), "\t" + graph6_encode(heawood()) + "  "]
    out += MALFORMED + ["", "   ", "", "\t"]
    rng.shuffle(out)
    return out


if __name__ == "__main__":
    path = Path(__file__).with_name("stream_sample.g6")
    path.write_text("".join(line + "\n" for line in lines()), encoding="utf-8")
