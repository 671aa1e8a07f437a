"""Simple-graph data model, exact girth/cycle-count verifiers, and
graph6 I/O.

Girth and cycle counts come from one pass over the non-backtracking walk
matrices A_l (entry [u, w]: walks of l edges from u to w that never
reverse the edge just used).  The girth g is the first l with a nonzero
diagonal.  In a graph of girth g, a non-backtracking walk of fewer than g
edges repeats no vertex, so a walk of g-1 edges between the ends of an
edge uv is a path that closes one g-cycle through uv.  A closed
non-backtracking walk shorter than 2g holds a single cycle; unless it is
that cycle, it adds a tail walked out and back, for at least g+2 edges.
So a closed walk of g or g+1 edges from v is a cycle through v, counted
once in each direction.

The counts are exact integers under one rule, ``_exact_dtype``: a
computation runs in float64 while no integer it forms can pass 2**53, where
float64 holds every integer, and in Python ints beyond, so no count can
wrap.  With maximum degree k, at most N_l = k(k-1)**(l-1) non-backtracking
walks of l steps leave a vertex.  The step forming A_l forms the entries
of A_l (at most N_l), the partial sums of A_{l-1} A (sums over one row of
A_{l-1}, at most N_{l-1}) and A_{l-1}(D - I) (each walk it counts extends
in deg - 1 ways, at most N_l).  So that step runs in float64 while
k * max(k-1, 1)**(l-1) <= 2**53; the max covers k = 1, where A A forms ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# float64 holds every integer up to 2**53 exactly
_FLOAT_EXACT_MAX = 2**53

# The largest vertex count the walk pass takes, measured on one thread: it
# holds four dense n x n float64 matrices and makes one n x n product per
# step, g - 1 of them to reach the girth g, and a graph of degree >= 3 on
# 4096 vertices has g <= 22 (Moore bound).  22 walk matrices of a random
# cubic graph took 54 s / 575 MiB peak at n = 4096 and 66 s / 655 MiB at
# n = 4400 (2 CPUs, OpenBLAS, one thread).
MAX_VERIFY_VERTICES = 4096


class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency
    lists and optional per-vertex labels (geometric provenance tags).

    Equality and hashing consider adjacency only; labels are metadata.
    """

    __slots__ = ("adj", "labels")

    def __init__(self, adj, labels=None):
        adj = [sorted(neigh) for neigh in adj]
        n = len(adj)
        seen = []
        for u, neigh in enumerate(adj):
            prev = -1
            for v in neigh:
                if v == u:
                    raise ValueError(f"loop at vertex {u}")
                if v == prev:
                    raise ValueError(f"parallel edge {u}-{v}")
                if not 0 <= v < n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                prev = v
            seen.append(set(neigh))
        for u in range(n):
            for v in seen[u]:
                if u not in seen[v]:
                    raise ValueError(f"asymmetric adjacency {u}-{v}")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal vertex count")
        self.adj = adj
        self.labels = list(labels) if labels is not None else None

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj, labels)

    @property
    def n(self) -> int:
        return len(self.adj)

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        for u, neigh in enumerate(self.adj):
            for v in neigh:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(tuple(tuple(a) for a in self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


@dataclass(frozen=True)
class EgrSignature:
    """Verified egr(n, k, g, lambda) record."""

    n: int
    k: int
    g: int
    lam: int
    bipartite: bool

    def __post_init__(self):
        if not (self.n >= self.g >= 3):
            raise ValueError("need n >= g >= 3")
        if self.k < 3:
            raise ValueError("need degree k >= 3")
        if self.lam < 1:
            raise ValueError("need lambda >= 1")
        if self.bipartite and self.g % 2 != 0:
            raise ValueError("bipartite graphs have even girth")

    def __str__(self):
        tag = "bipartite " if self.bipartite else ""
        return f"{tag}egr({self.n}, {self.k}, {self.g}, {self.lam})"


class NotEdgeGirthRegular(Exception):
    """Verification failure report: which condition broke, with a witness.

    kind is one of "disconnected", "not_regular", "degree_too_small",
    "nonuniform_cycle_counts".  For nonuniform counts,
    ``details`` carries the min/max per-edge counts seen.
    """

    def __init__(self, kind: str, witness, message: str, details: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness
        self.details = details or {}


def bfs_distances(G: Graph, root: int) -> list:
    """BFS distances from root (math.inf when unreachable)."""
    dist = [math.inf] * G.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in G.adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance_layers(G: Graph, root: int) -> list[list[int]]:
    """Vertices of root's component grouped by BFS distance D_0, D_1, ..."""
    dist = bfs_distances(G, root)
    reach = [d for d in dist if d != math.inf]
    layers = [[] for _ in range(int(max(reach)) + 1)]
    for v, d in enumerate(dist):
        if d != math.inf:
            layers[int(d)].append(v)
    return layers


def bipartition(G: Graph):
    """A 2-coloring as a list of 0/1, or None if an odd cycle exists."""
    color = [None] * G.n
    for start in range(G.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in G.adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def girth(G: Graph):
    """Length of a shortest cycle, or math.inf for a forest.

    BFS from every vertex; a non-tree edge (u,w) seen from root r closes
    a walk of length dist[u]+dist[w]+1 through r, and the minimum over
    all roots and edges is exact.
    """
    best = math.inf
    for root in range(G.n):
        dist = [-1] * G.n
        parent = [-1] * G.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue
            for w in G.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def _exact_dtype(bound: int):
    """The one exactness rule for walk counts: float64 when ``bound``, an
    upper bound on every integer a computation forms, is at most 2**53,
    else object (Python ints).

    The counts are nonnegative, so no partial sum passes its final value,
    and float64 forms them exactly in any order under the bound.
    """
    return np.float64 if bound <= _FLOAT_EXACT_MAX else object


def _adjacency(G: Graph, dtype) -> np.ndarray:
    """Dense adjacency matrix of G."""
    A = np.zeros((G.n, G.n), dtype=dtype)
    for u, neigh in enumerate(G.adj):
        A[u, neigh] = 1
    return A


def _nb_walks(G: Graph):
    """Yield the non-backtracking walk matrices A_1, A_2, ... of G, exactly,
    and stop at the first all-zero one (G is then a forest).

    A_1 = A, A_2 = A^2 - D, A_{l+1} = A_l A - A_{l-1}(D - I).  The step
    forming A_l runs in float64 while k * max(k-1, 1)**(l-1) <= 2**53 (k the
    maximum degree; see the module docstring) and in Python ints once that
    bound is crossed.  Raises ValueError before allocating anything when G
    has more than MAX_VERIFY_VERTICES vertices.
    """
    if G.n > MAX_VERIFY_VERTICES:
        raise ValueError(
            f"verification is capped at {MAX_VERIFY_VERTICES} vertices (got n = {G.n})"
        )
    deg = np.array([len(neigh) for neigh in G.adj], dtype=np.float64)
    k = int(deg.max(initial=0))
    A = _adjacency(G, np.float64)
    back, cur, step = np.diag(deg), A, deg - 1
    length = 1
    while cur.any():
        yield cur
        length += 1
        if _exact_dtype(k * max(k - 1, 1) ** (length - 1)) is object and A.dtype != object:
            A, back, cur, step = (m.astype(np.int64).astype(object) for m in (A, back, cur, step))
        nxt = cur @ A
        nxt -= back
        np.multiply(cur, step, out=back)
        cur = nxt


def _walks_at_girth(G: Graph, beyond: int = 0):
    """The girth g of G (math.inf for a forest) and the walk matrices
    [A_{g-1}, A_g, ..., A_{g+beyond}] ([] for a forest), from one pass."""
    walks = _nb_walks(G)
    prev = None
    for length, cur in enumerate(walks, start=1):
        if cur.diagonal().any():
            return length, [prev, cur] + [next(walks) for _ in range(beyond)]
        prev = cur
    return math.inf, []


def count_girth_cycles_through_edge(G: Graph, edge, g: int) -> int:
    """Number of distinct g-cycles containing the edge, where g must be
    the girth of G.  Each cycle corresponds to exactly one simple path of
    length g-1 between the endpoints that avoids the edge itself, read off
    as a non-backtracking walk count."""
    girth_g, walks = _walks_at_girth(G)
    if g != girth_g:
        raise ValueError(f"g={g} is not the girth of the graph")
    u, v = edge
    if not G.has_edge(u, v):
        raise ValueError(f"{edge} is not an edge")
    return int(walks[0][u, v])


def count_cycles_through_vertex(G: Graph, v: int, length: int) -> int:
    """Number of distinct cycles of the given length through vertex v,
    for length g or g+1 where g is the girth of G.

    Closed non-backtracking walks of these lengths are exactly the cycles
    through v, each traversed in both directions.  Other lengths raise
    ValueError.
    """
    g, walks = _walks_at_girth(G, beyond=1)
    if length not in (g, g + 1):
        raise ValueError(f"length {length} is neither the girth {g} nor girth + 1")
    return int(walks[length - g + 1][v, v]) // 2


def verify_egr(G: Graph) -> EgrSignature:
    """Check Definition: connected, k-regular, and every edge on exactly
    lambda girth cycles.  Returns the verified signature, or raises
    NotEdgeGirthRegular with the first violated condition and a witness.
    The girth and the counts come from one walk pass, which raises
    ValueError for a connected regular graph of degree >= 3 on more than
    MAX_VERIFY_VERTICES vertices.
    """
    if G.n == 0:
        raise NotEdgeGirthRegular("disconnected", None, "empty graph")
    dist = bfs_distances(G, 0)
    for v, d in enumerate(dist):
        if d == math.inf:
            raise NotEdgeGirthRegular("disconnected", v, f"vertex {v} unreachable from 0")
    degrees = [G.degree(v) for v in range(G.n)]
    k = max(set(degrees), key=degrees.count)
    for v, d in enumerate(degrees):
        if d != k:
            raise NotEdgeGirthRegular(
                "not_regular", v, f"vertex {v} has degree {d}, expected {k}"
            )
    if k < 3:
        raise NotEdgeGirthRegular("degree_too_small", k, f"degree {k} < 3")
    # connected and k-regular with k >= 3, so G has a cycle
    g, walks = _walks_at_girth(G)
    edges = list(G.edges())
    us, vs = zip(*edges)
    counts = walks[0][us, vs]
    lam = int(counts[0])
    deviant = np.flatnonzero(counts != lam)
    if deviant.size:
        e, c = edges[deviant[0]], int(counts[deviant[0]])
        raise NotEdgeGirthRegular(
            "nonuniform_cycle_counts",
            e,
            f"edge {e} lies on {c} girth cycles, expected {lam}",
            details={"min_count": int(counts.min()), "max_count": int(counts.max())},
        )
    return EgrSignature(n=G.n, k=k, g=g, lam=lam, bipartite=bipartition(G) is not None)


# ----------------------------------------------------------------------
# graph6 format (printable bytes 63..126, column-major upper triangle)
# ----------------------------------------------------------------------

GRAPH6_MAX_N = 10**6  # practical cap; the format itself allows 2^36 - 1
_G6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


def _column_starts(n: int) -> np.ndarray:
    """The graph6 bit map: graph6 lists the upper triangle column by
    column, so edge (u, v), u < v, is bit _column_starts(n)[v] + u, where
    entry v is v(v-1)/2 for v = 0..n."""
    v = np.arange(n + 1, dtype=np.int64)
    return v * (v - 1) // 2


def graph6_encode(G: Graph) -> str:
    """Encode as a graph6 string (labels are not representable and are
    dropped)."""
    n = G.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding capped at n <= {GRAPH6_MAX_N}")
    if n <= 62:
        head = [63 + n]
    elif n <= 258047:
        head = [126] + [63 + ((n >> s) & 63) for s in (12, 6, 0)]
    else:
        head = [126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)]
    deg = [len(neigh) for neigh in G.adj]
    us = np.repeat(np.arange(n, dtype=np.int64), deg)
    vs = np.fromiter((v for neigh in G.adj for v in neigh), dtype=np.int64, count=len(us))
    below = us < vs
    bits = _column_starts(n)[vs[below]] + us[below]
    body = np.zeros((n * (n - 1) // 2 + 5) // 6, dtype=np.uint8)
    np.bitwise_or.at(body, bits // 6, (32 >> (bits % 6)).astype(np.uint8))
    return bytes(head).decode("ascii") + (body + 63).tobytes().decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header allowed).
    Raises Graph6Error with a byte offset on malformed input."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 input", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    raw = np.frombuffer(data, dtype=np.uint8)
    bad = np.flatnonzero((raw < 63) | (raw > 126))
    if bad.size:
        off = int(bad[0])
        raise Graph6Error(f"byte {data[off]!r} outside graph6 range 63..126", off)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form vertex count", len(data))
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        pos = 8
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph6 decoding capped at n <= {GRAPH6_MAX_N}, got n={n}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}", pos
        )
    # each byte carries six bits, most significant first, below its two top bits
    bits = np.unpackbits(raw[pos:] - 63).reshape(-1, 8)[:, 2:].ravel()
    padding = np.flatnonzero(bits[nbits:])
    if padding.size:
        raise Graph6Error("nonzero padding bits", pos + (nbits + int(padding[0])) // 6)
    edge_bits = np.flatnonzero(bits[:nbits])
    starts = _column_starts(n)
    vs = np.searchsorted(starts, edge_bits, side="right") - 1
    us = edge_bits - starts[vs]
    return Graph.from_edges(n, zip(us.tolist(), vs.tolist()))
