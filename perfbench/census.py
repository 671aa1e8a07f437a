"""The census-stream workload: a seeded stream of small graph6 graphs and
the verdict the CLI must print for each line.

The expected verdicts come from an oracle that shares no code with
egrtools: networkx for connectivity and bipartiteness, and integer
non-backtracking walk matrices (numpy) for girth and per-edge girth-cycle
counts.  A non-backtracking walk of length g-1 between the ends of an edge
is a simple path when g is the girth, so A_{g-1}[u, v] is exactly the
number of g-cycles through uv.  `networkx_edge_counts` cross-checks the
oracle by enumerating the cycles with networkx.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

# 3- and 4-regular circulants C_n(jumps), all connected.
CIRCULANTS = (
    [(n, (1, n // 2)) for n in range(8, 33, 2)]
    + [(n, (2, n // 2)) for n in range(10, 31, 4)]
    + [(n, (1, 3)) for n in range(9, 31)]
    + [(n, (1, 4)) for n in range(10, 31, 2)]
)
SWITCHES_PER_CIRCULANT = 50

# Base egr graph (a key of reference.json "census_bases") -> how many
# relabelled copies, and again how many switched copies, the stream holds.
# Fewer copies of the larger graphs keep the per-graph mean near 2 ms.
EGR_COPIES = {
    "petersen": 200,
    "heawood": 160,
    "tutte_coxeter": 60,
    "hoffman_singleton": 5,
    "complete_bipartite_3": 160,
    "complete_bipartite_4": 140,
    "complete_bipartite_5": 80,
    "complete_bipartite_6": 40,
    "biaffine1_q3": 160,
    "biaffine1_q4": 40,
    "biaffine1_q5": 5,
    "gq_truncation_q3": 30,
    "pencil_q2": 30,
}


def decode(text: str) -> tuple[int, set]:
    G = nx.from_graph6_bytes(text.encode())
    return G.number_of_nodes(), {(min(u, v), max(u, v)) for u, v in G.edges()}


def encode(n: int, edges) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return nx.to_graph6_bytes(G, nodes=range(n), header=False).decode().strip()


def relabel(n: int, edges, rng: random.Random) -> set:
    perm = rng.sample(range(n), n)
    return {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}


def switch(edges, rng: random.Random) -> set:
    """One degree-preserving switch: ab, cd -> ad, cb, keeping the graph simple."""
    edges = set(edges)
    pool = sorted(edges)
    for _ in range(1000):
        (a, b), (c, d) = rng.sample(pool, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return (edges - {(min(a, b), max(a, b)), (min(c, d), max(c, d))}) | new
    raise ValueError("no valid switch found")


def circulant(n: int, jumps) -> set:
    return {(min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in jumps}


def nb_girth_counts(n: int, edges) -> tuple[int, list[int]]:
    """Girth of a connected regular graph with a cycle, and the number of
    girth cycles through each edge, edges in sorted (u < v) order."""
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    deg = A.sum(axis=1)
    prev, cur = np.eye(n, dtype=np.int64), A
    for length in range(2, n + 1):
        # A_2 = A^2 - D;  A_{l+1} = A A_l - (D - I) A_{l-1}
        nxt = A @ cur - (deg - (length > 2))[:, None] * prev
        if length >= 3 and np.trace(nxt) > 0:
            us, vs = np.nonzero(np.triu(A))
            return length, [int(c) for c in cur[us, vs]]
        prev, cur = cur, nxt
    raise ValueError("graph has no cycle")


def expected_verdict(n: int, edges) -> dict:
    """The record `egrtools verify --stdin-g6-stream` must print for the
    graph, without its "line" field."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    unreached = set(range(n)) - nx.node_connected_component(G, 0)
    if unreached:
        v = min(unreached)
        return _failure("disconnected", v, f"vertex {v} unreachable from 0")
    degrees = {d for _, d in G.degree()}
    if len(degrees) != 1 or min(degrees) < 3:
        raise ValueError("stream graphs must be regular of degree >= 3")
    g, counts = nb_girth_counts(n, edges)
    lam = counts[0]
    for e, c in zip(sorted(edges), counts):
        if c != lam:
            return _failure("nonuniform_cycle_counts", e, f"edge {e} lies on {c} girth cycles, expected {lam}")
    signature = {"n": n, "k": degrees.pop(), "g": g, "lambda": lam, "bipartite": nx.is_bipartite(G)}
    return {"egr": True, "signature": signature}


def _failure(kind: str, witness, message: str) -> dict:
    return {"egr": False, "failure": {"kind": kind, "witness": repr(witness), "message": message}}


def networkx_edge_counts(n: int, edges) -> tuple[int, list[int]]:
    """Girth and per-edge girth-cycle counts by networkx cycle enumeration;
    slow, used only to cross-check `nb_girth_counts`."""
    G = nx.Graph(list(edges))
    g = nx.girth(G)
    counts = dict.fromkeys(sorted(edges), 0)
    for cyc in nx.simple_cycles(G, length_bound=g):
        if len(cyc) == g:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                counts[(min(a, b), max(a, b))] += 1
    return g, list(counts.values())


def make_stream(seed: int, bases: dict[str, str]) -> list[tuple[str, str, int, set]]:
    """The seeded stream as (kind, source, n, edges) in line order.

    kind is "circulant_switch", "egr_relabel" or "egr_switch".  The counts of
    each kind and source are fixed; the seed picks the switches, the
    relabellings and the order."""
    rng = random.Random(seed)
    graphs = []
    for n, jumps in CIRCULANTS:
        base = circulant(n, jumps)
        for _ in range(SWITCHES_PER_CIRCULANT):
            graphs.append(("circulant_switch", f"C{n}{list(jumps)}", n, switch(relabel(n, base, rng), rng)))
    for name, copies in EGR_COPIES.items():
        n, base = decode(bases[name])
        for _ in range(copies):
            graphs.append(("egr_relabel", name, n, relabel(n, base, rng)))
            graphs.append(("egr_switch", name, n, switch(relabel(n, base, rng), rng)))
    rng.shuffle(graphs)
    return graphs
