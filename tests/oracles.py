"""Brute-force and depth-first oracles, deliberately independent of the
library's non-backtracking walk engine, of its subspace enumerator and of
its graph6 block decoder: used to cross-check derived expected values and
the engines themselves."""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from egrtools.bounds import DegenerateBound
from egrtools.geometry import IncidenceGeometry
from egrtools.graph_core import GRAPH6_MAX_N, Graph, Graph6Error


def all_cycles(G: Graph, length: int) -> list[tuple[int, ...]]:
    """Every cycle of exactly ``length`` vertices, canonically rooted at
    its smallest vertex with second vertex < last vertex."""
    found = []

    def extend(path, allowed):
        if len(path) == length:
            if path[0] in G.adj[path[-1]] and path[1] < path[-1]:
                found.append(tuple(path))
            return
        for w in G.adj[path[-1]]:
            if w in allowed and w > path[0]:
                allowed.remove(w)
                path.append(w)
                extend(path, allowed)
                path.pop()
                allowed.add(w)

    for root in range(G.n):
        extend([root], set(range(G.n)) - {root})
    return found


def count_cycles(G: Graph, length: int) -> int:
    return len(all_cycles(G, length))


def edge_cycle_count_naive(G: Graph, edge, length: int) -> int:
    """Cycles of the given length through an edge, from the global list."""
    u, v = min(edge), max(edge)
    hits = 0
    for cyc in all_cycles(G, length):
        k = len(cyc)
        for i in range(k):
            a, b = cyc[i], cyc[(i + 1) % k]
            if (min(a, b), max(a, b)) == (u, v):
                hits += 1
                break
    return hits


def vertex_cycle_count_naive(G: Graph, v: int, length: int) -> int:
    return sum(1 for cyc in all_cycles(G, length) if v in cyc)


def _distances_avoiding(G: Graph, root: int, banned_edge=None) -> list:
    """BFS distances from root that never traverse banned_edge."""
    dist = [math.inf] * G.n
    dist[root] = 0
    queue = deque([root])
    banned = {banned_edge, banned_edge[::-1]} if banned_edge else set()
    while queue:
        u = queue.popleft()
        for v in G.adj[u]:
            if (u, v) not in banned and dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def edge_cycle_count_dfs(G: Graph, edge, length: int) -> int:
    """Cycles of the given length through an edge: simple paths of
    length-1 edges between its endpoints that avoid the edge, counted by
    DFS pruned with BFS distances to the target."""
    u, v = min(edge), max(edge)
    dist_v = _distances_avoiding(G, v, (u, v))
    visited = [False] * G.n
    visited[u] = True

    def dfs(c: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if c == v else 0
        total = 0
        for w in G.adj[c]:
            if visited[w] or (w == v and remaining > 1):
                continue
            if {c, w} == {u, v}:
                continue
            if dist_v[w] > remaining - 1:
                continue
            visited[w] = True
            total += dfs(w, remaining - 1)
            visited[w] = False
        return total

    return dfs(u, length - 1)


def vertex_cycle_count_dfs(G: Graph, v: int, length: int) -> int:
    """Cycles of the given length through v, by DFS pruned with BFS
    distances to v; each is rooted at v and kept in the orientation whose
    second vertex is smaller than its last."""
    dist_v = _distances_avoiding(G, v)
    visited = [False] * G.n
    visited[v] = True

    def dfs(c: int, first: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if c in G.adj[v] and c > first else 0
        total = 0
        for w in G.adj[c]:
            if visited[w] or dist_v[w] > remaining:
                continue
            visited[w] = True
            total += dfs(w, first, remaining - 1)
            visited[w] = False
        return total

    total = 0
    for first in G.adj[v]:
        visited[first] = True
        total += dfs(first, first, length - 2)
        visited[first] = False
    return total


def degree_preserving_switch(G: Graph, keep_sides: bool = False) -> Graph:
    """One degree-preserving switch, replacing edges ab, cd (a < b, c < d)
    by ad, cb or by ac, bd: the first choice, in G.edges() order, that
    keeps G simple.  With keep_sides only ad, cb is tried, which keeps a
    bipartite graph bipartite when every edge runs from its lower-numbered
    side to the other, as in a Levi graph."""
    edges = list(G.edges())
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            for new in (((a, d), (c, b)), ((a, c), (b, d)))[: 1 if keep_sides else 2]:
                if not any(G.has_edge(x, y) for x, y in new):
                    return Graph.from_edges(G.n, kept + list(new))
    raise AssertionError("no switch keeps the graph simple")


def symmetric_design_identity(G: Graph, k: int) -> bool:
    """Whether G is the incidence graph of a symmetric design: connected
    and bipartite with colour classes of n/2 vertices each, n >= 4,
    mu = k(k-1)/(n/2 - 1) an integer, and its biadjacency matrix N with
    NN^T = N^TN = (k - mu)I + mu J.  Colour classes from a plain BFS, both
    products in int64."""
    if G.n < 4:
        return False
    side = [-1] * G.n
    side[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if side[w] < 0:
                side[w] = 1 - side[u]
                queue.append(w)
            elif side[w] == side[u]:
                return False
    rows = [v for v in range(G.n) if side[v] == 0]
    cols = [v for v in range(G.n) if side[v] == 1]
    if -1 in side or 2 * len(rows) != G.n:  # disconnected, or unequal classes
        return False
    half = G.n // 2
    mu, rem = divmod(k * (k - 1), half - 1)
    if rem:
        return False
    A = np.zeros((G.n, G.n), dtype=np.int64)
    for u, nbrs in enumerate(G.adj):
        A[u, nbrs] = 1
    N = A[np.ix_(rows, cols)]
    target = (k - mu) * np.eye(half, dtype=np.int64) + mu
    return np.array_equal(N @ N.T, target) and np.array_equal(N.T @ N, target)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def generalized_petersen(n: int, k: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges + [(n + i, n + (i + k) % n) for i in range(n)])


def coxeter() -> Graph:
    """egr(28, 3, 7, 4): the 3-subsets of 0..6 that are not lines of the
    Fano plane, adjacent when disjoint."""
    lines = {frozenset({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)}
    verts = [set(t) for t in combinations(range(7), 3) if frozenset(t) not in lines]
    return Graph.from_edges(len(verts), [(i, j) for i, j in combinations(range(len(verts)), 2) if not verts[i] & verts[j]])


def truncated_tree(k: int, depth: int) -> Graph:
    """Explicit k-regular tree truncated at the given depth (leaves have
    degree 1), rooted at vertex 0."""
    adj = [[]]
    frontier = [0]
    for d in range(depth):
        nxt = []
        for u in frontier:
            want = k if d == 0 else k - 1
            for _ in range(want):
                adj.append([u])
                adj[u].append(len(adj) - 1)
                nxt.append(len(adj) - 1)
        frontier = nxt
    return Graph(adj)


def closed_walks_at_root(G: Graph, root: int, length: int) -> int:
    """Closed walks of the given length from root, by vector propagation."""
    x = [0] * G.n
    x[root] = 1
    for _ in range(length):
        y = [0] * G.n
        for u, c in enumerate(x):
            if c:
                for w in G.adj[u]:
                    y[w] += c
        x = y
    return x[root]


def matrix_power_traces(G: Graph, L: int) -> list[int]:
    """trace(A**l) for l = 0..L, from integer matrix powers of the dense
    adjacency matrix in int64.  With maximum degree k, every entry and
    partial sum of A**l is at most k**l, so k**L < 2**63 keeps them exact;
    a larger k**L raises ValueError."""
    k = max(map(len, G.adj), default=0)
    if k**L >= 2**63:
        raise ValueError(f"k**L = {k}**{L} is past int64")
    A = np.zeros((G.n, G.n), dtype=np.int64)
    for u, nbrs in enumerate(G.adj):
        A[u, nbrs] = 1
    power = np.eye(G.n, dtype=np.int64)
    traces = [G.n]
    for _ in range(L):
        power = power @ A
        traces.append(int(power.trace()))
    return traces


def tree_walk_counts(L: int, k: int) -> list[int]:
    """Closed walks of lengths 0..L from the root of the infinite k-regular
    tree, by a dynamic program over the distance from the root: stepping
    away has multiplicity k at the root and k-1 elsewhere, stepping back
    has multiplicity 1."""
    counts = [1]
    ways = {0: 1}
    for _ in range(L):
        nxt: dict[int, int] = {}
        for d, c in ways.items():
            nxt[d + 1] = nxt.get(d + 1, 0) + c * (k if d == 0 else k - 1)
            if d > 0:
                nxt[d - 1] = nxt.get(d - 1, 0) + c
        ways = nxt
        counts.append(ways.get(0, 0))
    return counts


def catalan(s: int) -> int:
    """The s-th Catalan number, binom(2s,s) - binom(2s,s+1)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return math.comb(2 * s, s) - math.comb(2 * s, s + 1)


def tree_walk_polynomial(length: int) -> list[int]:
    """Coefficients (ascending in k) of the closed tree-walk count as a
    polynomial in the degree k: the sum of ``tree_walk_count`` with each
    (k-1)^(s-j) expanded binomially.  The leading coefficient is the
    Catalan number C_{length//2}, the number of Dyck paths."""
    if length % 2:
        raise ValueError("odd walk lengths count zero walks; no polynomial")
    s = length // 2
    if s == 0:
        return [1]
    coeffs, ballot = [0] * (s + 1), 1
    for j in range(s, 0, -1):  # the ballot numbers R_j as in tree_walk_count
        m = s - j
        for i in range(m + 1):  # k^j * binom(m, i) k^i (-1)^(m-i)
            coeffs[j + i] += (-1) ** (m - i) * ballot * math.comb(m, i)
        ballot = ballot * (j - 1) * (2 * s - j) // (j * (s - j + 1))
    return coeffs


def odd_girth_bound_g5(k: int, lam: int) -> Fraction:
    """Expanded polynomial form of the odd-girth bound at g = 5; agrees
    with odd_girth_bound(k, 5, lam) identically (tested on a grid)."""
    num = 3 * k**6 + k**5 - 3 * k**4 + k**3 - 2 * k**4 * lam - k**3 * lam
    den = 2 * k**4 + 3 * k**3 - 8 * k**2 + 5 * k - 1 - lam * lam - 2 * k * lam + lam
    if den == 0:
        raise DegenerateBound(f"odd-girth bound degenerate at k={k}, g=5, lambda={lam}")
    return Fraction(num, den)


def _first_cover_solution(n_items: int, compat: list[int], target: int, cover_masks: list[int]):
    """Lexicographically first size-``target`` subset of 0..n_items-1 that is
    pairwise compatible and hits every cover mask, or None.

    ``compat[i]`` is a bitmask of items compatible with item i.
    ``cover_masks`` are bitmasks over items; every mask must intersect the
    chosen set (ovoids must meet every line, spreads must cover every
    point).  Depth-first in increasing index order, so the first solution
    found is the lexicographically smallest.  Its own stack, a level per
    chosen item (the items still to try there, the chosen mask), frees its
    depth from Python's recursion limit: W(32)'s spread takes 1025 levels.
    """

    def feasible(depth: int, reach: int, cand: int) -> bool:
        return depth + cand.bit_count() >= target and all(mask & reach for mask in cover_masks)

    full = (1 << n_items) - 1
    if not target:
        return ()
    stack = [[full, 0]] if feasible(0, full, full) else []
    while stack:
        level = stack[-1]
        rest, mask = level
        if not rest:
            stack.pop()
            continue
        v = (rest & -rest).bit_length() - 1
        level[0] = rest = rest & (rest - 1)
        mask |= 1 << v
        if len(stack) == target:
            return tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")
        cand = rest & compat[v]
        if feasible(len(stack), mask | cand, cand):
            stack.append([cand, mask])
    return None


def rows_through(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse of an (m x k) array holding each index 0..n-1 equally often:
    row p lists, ascending, the rows that hold p (for a geometry's blocks,
    the blocks through each point)."""
    return (np.argsort(rows, axis=None, kind="stable") // rows.shape[1]).reshape(n, -1)


def _cover_search(rows: np.ndarray, n_items: int, target: int):
    """``_first_cover_solution`` over items 0..n_items-1 where the items of
    one row of the (m x s) array ``rows`` clash pairwise and every row must
    be hit, each item lying in equally many rows.  numpy sets the bits of
    each mask in a row of little-endian bytes: a row's own mask, then, ORed
    together, the masks of the rows through an item (the item itself
    included, a bit the search never reads)."""
    m, s = rows.shape
    cover = np.zeros((m, n_items // 8 + 1), dtype=np.uint8)
    np.bitwise_or.at(cover, (np.arange(m).repeat(s), rows.ravel() >> 3), (1 << (rows.ravel() & 7)).astype(np.uint8))
    clash = np.zeros((n_items, cover.shape[1]), dtype=np.uint8)
    for through in rows_through(rows, n_items).T:
        clash |= cover[through]
    full = (1 << n_items) - 1
    compat = [full ^ int.from_bytes(bits.tobytes(), "little") for bits in clash]
    return _first_cover_solution(n_items, compat, target, [int.from_bytes(bits.tobytes(), "little") for bits in cover])


def spread_search(G: IncidenceGeometry):
    """Lexicographically smallest spread of a GQ of order (q,q): q^2+1
    pairwise disjoint lines, covering every point.  Returns None when none
    exists."""
    q = G.blocks.shape[1] - 1
    return _cover_search(rows_through(G.blocks, G.n_points), G.n_blocks, q * q + 1)


def ovoid_search(G: IncidenceGeometry):
    """Lexicographically smallest ovoid of a GQ of order (q,q) by
    exhaustive search: q^2+1 pairwise non-collinear points, meeting every
    line.  None when there is none (W(q) for odd q).  It finishes up to
    W(4); W(8) did not finish in 200 s."""
    q = G.blocks.shape[1] - 1
    return _cover_search(G.blocks, G.n_points, q * q + 1)


def dot(F, a, x) -> int:
    """Bilinear form sum(a_i * x_i) in F, one scalar operation at a time."""
    s = 0
    for ai, xi in zip(a, x):
        s = F.add(s, F.mul(ai, xi))
    return s


def incidence(F, duals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean (len(duals) x len(points)) matrix, entry [i, j] true when
    sum_k duals[i, k] * points[j, k] == 0 in F, from the bulk field tables
    (the dense incidence the plane rows of PG(3,q) once came from)."""
    tab = F.tables
    acc = tab.mul[duals[:, :1], points[:, 0]]
    for k in range(1, duals.shape[1]):
        acc = tab.add[acc, tab.mul[duals[:, k : k + 1], points[:, k]]]
    return acc == 0


def normalize_point(F, coords) -> tuple[int, ...]:
    """Canonical projective representative: scale so the first nonzero
    coordinate equals 1."""
    coords = tuple(coords)
    for c in coords:
        if c != 0:
            if c == 1:
                return coords
            s = F.inv(c)
            return tuple(F.mul(s, x) for x in coords)
    raise ValueError("the all-zero vector is not a projective point")


def line_through(F, x, y) -> tuple[tuple[int, ...], ...]:
    """The q+1 canonical points of the projective line spanned by x, y."""
    pts = {normalize_point(F, y)}
    for t in range(F.q):
        pts.add(normalize_point(F, tuple(F.add(xi, F.mul(t, yi)) for xi, yi in zip(x, y))))
    return tuple(sorted(pts))


def coeff_ops(F):
    """Scalar add, sub and mul of F's coefficient field: ints mod p for a
    prime-built field, else the base field's own (table) arithmetic."""
    if F.base is None:
        p = F.p
        return (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p), (lambda a, b: (a * b) % p)
    return F.base.add, F.base.sub, F.base.mul


def schoolbook_mul(F, a: int, b: int) -> int:
    """a * b in F by schoolbook polynomial multiplication and reduction by
    F.modulus, independent of F's own tables."""
    cadd, csub, cmul = coeff_ops(F)
    m = F.degree
    u, w = F.coords(a), F.coords(b)
    prod = [0] * (2 * m - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, wj in enumerate(w):
            if wj:
                prod[i + j] = cadd(prod[i + j], cmul(ui, wj))
    # reduce: x^t = -(modulus minus leading term) * x^(t-m), top down
    for t in range(2 * m - 2, m - 1, -1):
        c = prod[t]
        if c == 0:
            continue
        prod[t] = 0
        for j in range(m):
            prod[t - m + j] = csub(prod[t - m + j], cmul(c, F.modulus[j]))
    return F.from_coords(prod[:m])


def schoolbook_pow(F, a: int, n: int) -> int:
    """a**n in F by square-and-multiply on schoolbook_mul."""
    r = 1
    while n:
        if n & 1:
            r = schoolbook_mul(F, r, a)
        a = schoolbook_mul(F, a, a)
        n >>= 1
    return r


def smallest_generator(F) -> int:
    """The smallest element of multiplicative order q - 1, by one
    schoolbook power per prime factor of q - 1 and candidate."""
    order = F.q - 1
    factors = [r for r in range(2, order + 1) if order % r == 0 and all(r % s for s in range(2, math.isqrt(r) + 1))]
    return next((g for g in range(2, F.q) if all(schoolbook_pow(F, g, order // r) != 1 for r in factors)), 1)


def smallest_irreducible(csize: int, degree: int, cadd, csub, cmul) -> list[int]:
    """Lexicographically smallest monic irreducible polynomial of the given
    degree over a coefficient field of size csize, low-degree coefficients
    compared first, by trial division against every monic polynomial of
    degree 1..degree//2."""
    if degree == 1:
        return [0, 1]

    def divides(div: list[int], poly: list[int]) -> bool:
        rem = list(poly)
        dd = len(div) - 1
        for t in range(len(rem) - 1, dd - 1, -1):
            c = rem[t]
            if c == 0:
                continue
            for j in range(dd + 1):
                rem[t - dd + j] = csub(rem[t - dd + j], cmul(c, div[j]))
        return all(c == 0 for c in rem)

    monic_divisors = [list(tail) + [1] for dd in range(1, degree // 2 + 1) for tail in product(range(csize), repeat=dd)]
    for coeffs in product(range(csize), repeat=degree):
        cand = list(coeffs) + [1]
        if cand[0] != 0 and not any(divides(d, cand) for d in monic_divisors):
            return cand
    raise ArithmeticError("no irreducible polynomial found")


def graph6_line(text: str) -> Graph:
    """One graph6 string decoded on its own, by the per-string rules the
    block decoder applied before its array pass: whitespace stripped, an
    optional >>graph6<< header, ASCII bytes in 63..126, a short, long or
    very-long vertex count up to GRAPH6_MAX_N, exactly (n(n-1)/2 + 5) // 6
    body bytes and zero padding bits; the edges come from networkx.  Raises
    Graph6Error with the decoder's message and byte offset."""
    import networkx as nx

    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 input", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte!r} outside graph6 range 63..126", i)
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        n, pos = 0, 4
        for byte in data[1:4]:
            n = n * 64 + byte - 63
    else:
        if len(data) < 8:
            raise Graph6Error("truncated very-long-form vertex count", len(data))
        n, pos = 0, 8
        for byte in data[2:8]:
            n = n * 64 + byte - 63
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph6 decoding capped at n <= {GRAPH6_MAX_N}, got n={n}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}", pos)
    if nbytes and (data[-1] - 63) % 2 ** (6 * nbytes - nbits):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    G = nx.from_graph6_bytes(data)
    return Graph.from_edges(n, list(G.edges()))


def biaffine_keep_masks(geom: IncidenceGeometry, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """The point and block keep masks of a biaffine plane as build_biaffine
    computed them on their own: delete point 0, the first line through it
    (kind 1) or missing it (kind 2), every line through point 0 and every
    point on that line."""
    P = 0
    on_P = (geom.blocks == P).any(axis=1)
    ell = int(np.argmax(on_P == (kind == 1)))
    keep_points = np.ones(geom.n_points, dtype=bool)
    keep_points[P] = keep_points[geom.blocks[ell]] = False
    keep_blocks = ~on_P
    keep_blocks[ell] = False
    return keep_points, keep_blocks


def gq_truncation_keep_masks(geom: IncidenceGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The point and block keep masks of W(q)'s truncation as
    build_gq_truncation computed them on their own: delete every point on a
    line through point 0 and every line meeting the first of those lines."""
    on_P = np.flatnonzero((geom.blocks == 0).any(axis=1))
    keep_points = np.ones(geom.n_points, dtype=bool)
    keep_points[geom.blocks[on_P]] = False
    on_e0 = np.zeros(geom.n_points, dtype=bool)
    on_e0[geom.blocks[on_P[0]]] = True
    return keep_points, ~on_e0[geom.blocks].any(axis=1)
