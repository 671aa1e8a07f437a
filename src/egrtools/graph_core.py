"""Simple-graph data model, exact girth/cycle-count verifiers, and
graph6 I/O.

A ``Graph`` holds its adjacency as compressed sparse rows (see its
docstring).

One block core verifies graphs: ``verify_many`` takes a list of graphs as
one disjoint union in CSR (``_Union``; one graph's own arrays serve, with
no copy), a stream block stays one union from the graph6 block decoder to
its verdicts, and ``verify_egr(G)`` is ``verify_many([G])``.  One frontier
BFS over the union (``_bfs_levels``, the package's one BFS) gives
connectivity, bipartiteness and each Graph's colour classes, kept on it
for the spectral stage, and each graph's segment of the degrees
its regularity; the graphs that pass fill (B, n, n) stacks by order for
the one walk engine (``_girth_walks`` over ``_nb_walks``), and one pass
over their edges' counts settles the rest.  So a block's fixed costs
grow with its number of distinct orders, not with its number of graphs.
The block core's product is a verdict table (``_Verdicts``), one int64
column per field with a row per graph, which has two readers:
``verify_many`` makes each row an EgrSignature or an exception, and the
stream verify (``cli._verify_block``) writes each row as a JSON line.
One table, ``_FAILURES``, words each failing kind for both, as %
templates of ints: ``_failure`` formats a row from it, and ``cli`` turns
it into one JSON line template per kind.  The stream and
``graph6_decode_many`` read graph6 lines in the blocks of one rule,
``_blocks``: at most MAX_DECODE_BYTES characters, a longer line a block
of its own.  A graph6 body of b bytes sets at most 6b bits, each one
edge, so it holds at most 12b adjacency entries, and so does a block's
union.

Girth and cycle counts come from one pass over the non-backtracking walk
matrices A_l (entry [u, w]: walks of l edges from u to w that never
reverse the edge just used).  The girth g of each graph in a stack is the
first l at which its A_l has a nonzero diagonal.  In a graph of girth g,
a non-backtracking walk of fewer than g edges repeats no vertex, so a
walk of g-1 edges between the ends of an edge uv is a path that closes
one g-cycle through uv.  The pass reads each diagonal one step early, as
the closing diagonal: A_{l+1} = A_l A - A_{l-1}(D - I), and while a graph
has girth above l the diagonal of A_{l-1} is zero, so the diagonal of
A_{l+1} is that of A_l A, the row sums of the entrywise product A_l * A
(A is symmetric).  Its zero test is exact in float32 and float64 alike:
each term is a nonnegative integer formed exactly (an exact count times 0
or 1), so the sum is zero exactly when every term is, whatever its
rounding.  A stack thus stops at the A_{g-1} of its largest girth g,
after g-2 products, and never forms an A_g, nor widens to float64 for it.

The counts are exact integers in floats.  float32 holds every integer up
to 2**24 and float64 every one up to 2**53, and since the counts are
nonnegative every partial sum of a product lies between 0 and the final
sum, so a sum is formed exactly in any order, with or without fused
multiply-adds (``galois._float_dtype`` rests on the same argument).  With
maximum degree k, at most N_l = k(k-1)**(l-1) non-backtracking walks of l
steps leave a vertex.  The step forming A_l forms the entries of A_l (at
most N_l), the partial sums of A_{l-1} A (at most N_{l-1}) and
A_{l-1}(D - I) (each walk it counts extends in deg - 1 ways, at most
N_l), so it is exact in float32 while k * max(k-1, 1)**(l-1) <= 2**24, k
the stack's largest degree (the max covers k = 1, where A A forms ones).
A stack runs in float32 that far and in float64 after it.

float64 suffices because the pass's one caller, ``_girth_counts``, stacks
only connected graphs, regular of degree k >= 3, on at most
MAX_VERIFY_VERTICES vertices.  A member still open at step l has girth
g >= l, so the step's entries for it are at most k(k-1)**(g-1), and the
Moore bound (``bounds.moore_bound``) caps that: n >= 1 + k(k-1)**(d-1)
for g = 2d+1 gives k(k-1)**(g-1) < n**3, and n >= 2(k-1)**(d-1) for
g = 2d gives k(k-1)**(g-1) <= k(k-1)n**2/4.  Over every pair (k, g) with
moore_bound(k, g) <= 4096 the largest value is 1.76e13 < 2**44 (k = 2048,
g = 4).  A closed member's slice may stop being exact, but it is never
read again, and it cannot overflow: only n <= 362 gives a stack more than
one member (MAX_STACK_CELLS // n**2 >= 2), where the girth is at most 14
and the entries stay below 361 * 360**13 < 2**119.  ``_exact_dtype``
states the rule for ``spectral``'s moments too, which refuse a bound
past 2**53.

graph6 (McKay's format) stores the upper triangle column by column, six
bits to a printable byte, so bit i of a body is the pair u < v with
v(v-1)/2 <= i < v(v+1)/2 and u = i - v(v-1)/2, whatever the vertex count n:
the column v is floor((1 + sqrt(1 + 8i))/2), taken in float64 and
corrected in integers (``_column``).  The block decoder ``_decode_block``
reads a block of lines into one union (``graph6_decode_many`` splits it
into Graphs).  It joins the block's lines and checks them with array
operations over their bytes (``_canonical``) for the canonical form that
``graph6_encode`` and networkx write: one optional trailing newline, bytes
in 63..126, a short or long vertex count, the exact body length and zero
padding bits.  A line that fails this pass, whether malformed or in
another form (a header, other whitespace, non-ASCII text, the very-long
count), goes to ``_graph6_body``, the one place that decides those forms
and words every Graph6Error.  The union's entries are codes r*W + c, r
the row in the union's vertex numbering and W the least power of two at
or above the largest n.  A code is below V*W, V the union's vertex count;
a line of n vertices has at least n/62 bytes (one header byte for n <= 62,
else at least n(n-1)/12 body bytes), so V is at most 62 times the input's
bytes, and W is at most 2**20, the power of two above GRAPH6_MAX_N =
10**6: the codes fit int64 for any block under 10**11 bytes.  A block's
checks hold its bytes a few times over, one byte each, and the bodies are
unpacked only from their nonzero bytes, UNPACK_BYTES at a time, so
the decoder's peak, besides the graphs it returns, stays near the size of
the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise
from operator import index
from typing import NamedTuple

import numpy as np

# float32 holds every integer up to 2**24 exactly, float64 every one up to 2**53
_FLOAT32_EXACT_MAX = 2**24
_FLOAT_EXACT_MAX = 2**53

# The largest vertex count the walk pass takes, measured on one thread: it
# holds four dense n x n float64 matrices and makes one n x n product per
# step, g - 2 of them to settle the girth g, and a graph of degree >= 3 on
# 4096 vertices has g <= 22 (Moore bound).  22 walk matrices of a random
# cubic graph took 54 s / 575 MiB peak at n = 4096 and 66 s / 655 MiB at
# n = 4400 (2 CPUs, OpenBLAS, one thread), measured in float64; the steps
# of a cubic graph up to length 22 now run in float32 (3 * 2**21 <= 2**24).
MAX_VERIFY_VERTICES = 4096

# The most entries a stack of walk matrices holds (2 MiB each in float64):
# verify_many splits the graphs of one order n into stacks of at most
# MAX_STACK_CELLS // n**2 members, and a larger graph runs alone.
MAX_STACK_CELLS = 2**18


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as compressed
    sparse rows (CSR), with optional per-vertex labels (geometric
    provenance tags).

    The neighbours of v are ``indices[indptr[v]:indptr[v + 1]]`` in
    ascending order and ``deg[v]`` is their count; all three are read-only
    int64 arrays.  ``adj`` is the same adjacency as a list of sorted lists
    of Python ints, built on first use and cached, for JSON output; the
    colour classes of ``_bipartition`` are cached beside it.

    ``Graph(adj)`` takes a sequence whose entry v holds the neighbours of v
    in any order; ``Graph.from_edges`` takes the edges.  Both validate with
    numpy: neighbours in range, no loops, no parallel edges, symmetric
    adjacency.  On a fault they raise ValueError naming the first one in
    vertex order, then neighbour order, a loop before a parallel edge
    before an out-of-range neighbour; asymmetry is reported only when no
    other fault exists.  Geometric builds pass CSR arrays valid by
    construction to the private ``Graph._from_csr``, and their labels are a
    read-only ``constructions.VertexLabels`` sequence, not a list.

    Equality and hashing consider adjacency only; labels are metadata.
    """

    __slots__ = ("indptr", "indices", "deg", "labels", "_adj", "_sides")

    def __init__(self, adj, labels=None):
        n = len(adj)
        deg = np.fromiter(map(len, adj), dtype=np.int64, count=n)
        rows = np.arange(n, dtype=np.int64).repeat(deg)
        cols = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=len(rows))
        # with every neighbour in range, sorting the codes u*width + v sorts
        # each row and keeps the rows in place
        width = _code_width(n)
        start = rows * width
        codes = start + cols
        codes.sort()
        indices = codes - start
        if not (
            _in_range(cols, n)
            and not (indices == rows).any()
            and _distinct(codes)
            and np.array_equal(codes, np.sort(indices * width + rows))
        ):
            raise ValueError(_first_fault(n, rows, cols))
        self._store(*_split(_from_codes([n], width, codes))[0], labels)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        """Graph from its edges: an iterable of (u, v) pairs, or an m x 2
        integer array, in any order and orientation.  n is any integer,
        numpy's too (read with ``operator.index``); TypeError otherwise,
        and ValueError when it is negative."""
        n = index(n)
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.shape[1:] != (2,):
            raise ValueError("edges must be (u, v) pairs")
        if not _in_range(e, n):
            i, j = np.argwhere((e < 0) | (e >= n))[0]
            raise ValueError(f"neighbor {e[i, j]} of {e[i, 1 - j]} out of range")
        rows = np.concatenate((e[:, 0], e[:, 1]))
        cols = np.concatenate((e[:, 1], e[:, 0]))
        width = _code_width(n)
        codes = rows * width + cols
        codes.sort()
        # both orientations are listed, so the adjacency is symmetric and a
        # loop shows up as a repeated code, like a repeated edge
        if not _distinct(codes):
            raise ValueError(_first_fault(n, rows, cols))
        G = cls.__new__(cls)
        G._store(*_split(_from_codes([n], width, codes))[0], labels)
        return G

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray, labels) -> "Graph":
        """Graph from valid int64 CSR arrays (rows sorted, no loops or
        repeats, symmetric), kept read-only, and ``labels`` as they are."""
        G = cls.__new__(cls)
        G._store(indptr, indices, np.diff(indptr), None)
        for a in (indptr, indices, G.deg):
            a.setflags(write=False)
        G.labels = labels
        return G

    def _store(self, indptr, indices, deg, labels) -> None:
        if labels is not None and len(labels) != len(deg):
            raise ValueError("labels length must equal vertex count")
        self.indptr, self.indices, self.deg = indptr, indices, deg
        self.labels = list(labels) if labels is not None else None
        self._adj = self._sides = None

    @property
    def adj(self) -> list[list[int]]:
        """Sorted neighbour lists of Python ints (cached; do not mutate)."""
        if self._adj is None:
            flat = self.indices.tolist()
            self._adj = [flat[a:b] for a, b in pairwise(self.indptr.tolist())]
        return self._adj

    @property
    def n(self) -> int:
        return len(self.deg)

    def num_edges(self) -> int:
        return len(self.indices) // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as int64 arrays (us, vs) with us < vs, in the order of
        ``edges()``."""
        rows = np.arange(self.n, dtype=np.int64).repeat(self.deg)
        below = rows < self.indices
        return rows[below], self.indices[below]

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, as Python ints, sorted."""
        us, vs = self.edge_arrays()
        return list(zip(us.tolist(), vs.tolist()))

    def degree(self, v: int) -> int:
        return int(self.deg[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, read from row u of the CSR arrays; raises
        ValueError when u or v is not a vertex 0..n-1."""
        for x in (u, v):
            if not 0 <= x < self.n:
                raise ValueError(f"vertex {x} out of range 0..{self.n - 1}")
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        i = row.searchsorted(v)
        return bool(i < len(row) and row[i] == v)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _in_range(a: np.ndarray, n: int) -> bool:
    """Whether every entry of the int64 array ``a`` lies in 0..n-1."""
    # read as unsigned, a negative entry is past n too
    return not a.size or a.view(np.uint64).max() < n


def _distinct(codes: np.ndarray) -> bool:
    """Whether the sorted array ``codes`` holds no value twice."""
    return not (codes[1:] == codes[:-1]).any()


class _Union(NamedTuple):
    """Graphs as one disjoint union in CSR: graph b's vertices are the union
    rows first[b]..first[b+1]-1, with entries from indptr[r] on and degree
    deg[r]; entry i joins union row rows[i] to vertex cols[i] of its graph,
    numbered within that graph."""

    first: np.ndarray
    indptr: np.ndarray
    deg: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _code_width(n: int) -> int:
    """The width of the codes r*width + v of the entries of graphs on at
    most n vertices: the least power of two >= n, so that ``_from_codes``
    splits a code with a shift and a mask."""
    return 1 << max(n - 1, 0).bit_length()


def _from_codes(orders, width: int, codes: np.ndarray) -> _Union:
    """The union of graphs of the given orders from the sorted codes
    r*width + v of their entries, width from ``_code_width``: entry v
    (below width) of union row r."""
    first = np.cumsum([0, *orders])
    rows = codes >> (width.bit_length() - 1)
    cols = codes & (width - 1)
    deg = np.bincount(rows, minlength=first[-1])
    indptr = np.zeros(len(deg) + 1, dtype=np.int64)  # no temporary: the size caps rest on this peak
    np.cumsum(deg, out=indptr[1:])
    return _Union(first, indptr, deg, rows, cols)


def _union_of(graphs) -> _Union:
    """The union of a list of graphs; one graph's own CSR arrays serve as
    the union's, with no copy."""
    if len(graphs) == 1:
        (G,) = graphs
        first, indptr, deg, cols = np.array([0, G.n]), G.indptr, G.deg, G.indices
    else:
        first = np.cumsum([0] + [G.n for G in graphs])
        deg = np.concatenate([G.deg for G in graphs])
        cols = np.concatenate([G.indices for G in graphs])
        indptr = np.concatenate(([0], deg.cumsum()))
    return _Union(first, indptr, deg, np.arange(len(deg)).repeat(deg), cols)


def _split(u: _Union) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each graph's CSR arrays (indptr, indices, deg), read-only views into
    the union's, but for the shifted indptr of a graph after the first."""
    first, ends, deg, _, cols = u
    for a in (ends, deg, cols):
        a.setflags(write=False)
    vs, es = first.tolist(), ends[first].tolist()
    csrs = []
    for a, c, x, y in zip(vs, vs[1:], es, es[1:]):
        indptr = ends[a : c + 1] - x if a else ends[: c + 1]
        indptr.setflags(write=False)
        csrs.append((indptr, cols[x:y], deg[a:c]))
    return csrs


def _first_fault(n: int, rows: np.ndarray, cols: np.ndarray) -> str:
    """The message for the first fault of the adjacency given as pairs
    (rows[i], cols[i]), rows in range: in row order and ascending
    neighbour order, the first entry that is a loop, repeats the previous
    entry of its row, or is out of range, checked in that order; failing
    those, the first entry whose reverse is missing."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    loop = cols == rows
    # a row's first entry repeats nothing
    parallel = np.zeros(len(cols), dtype=bool)
    parallel[1:] = (cols[1:] == cols[:-1]) & (rows[1:] == rows[:-1])
    bad = np.flatnonzero(loop | parallel | (cols < 0) | (cols >= n))
    if bad.size:
        i = bad[0]
        u, v = int(rows[i]), int(cols[i])
        if loop[i]:
            return f"loop at vertex {u}"
        if parallel[i]:
            return f"parallel edge {u}-{v}"
        return f"neighbor {v} of {u} out of range"
    i = np.flatnonzero(~np.isin(rows * n + cols, cols * n + rows))[0]
    return f"asymmetric adjacency {rows[i]}-{cols[i]}"


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


def _exact_dtype(bound: int):
    """The dtype that forms every integer up to ``bound``, an upper bound
    on every integer a count computation forms, exactly (see the module
    docstring): float32 when it is at most 2**24, float64 when it is at
    most 2**53, else ValueError.  The walk pass starts from its float32
    tier; ``spectral``'s moments take both."""
    if bound > _FLOAT_EXACT_MAX:
        raise ValueError(f"exact counts up to {bound} pass 2**53, past which float64 does not hold every integer")
    return np.float32 if bound <= _FLOAT32_EXACT_MAX else np.float64


def _adjacency(G: Graph, dtype) -> np.ndarray:
    """The dense n x n adjacency matrix of G in ``dtype``."""
    A = np.zeros((G.n, G.n), dtype=dtype)
    A[np.arange(G.n).repeat(G.deg), G.indices] = 1
    return A


def _cap_error(n: int) -> ValueError:
    """The error for a graph of n vertices, over MAX_VERIFY_VERTICES."""
    return ValueError(f"verification is capped at {MAX_VERIFY_VERTICES} vertices (got n = {n})")


def _nb_walks(A: np.ndarray):
    """Yield the non-backtracking walk matrices A_1 = A, A_2, ... of a
    prebuilt float32 (B, n, n) stack A of adjacency matrices, as (B, n, n)
    stacks, without end.  A_2 = A^2 - D, with D subtracted on the diagonal
    alone, and A_{l+1} = A_l A - A_{l-1}(D - I): one stacked product per
    step.  The steps run in float32 while k * max(k-1, 1)**(l-1) <= 2**24,
    k the stack's largest degree, and in float64 after that; the module
    docstring shows why that keeps every count ``_girth_walks`` reads
    exact."""
    B, n, _ = A.shape
    deg = A.sum(axis=1)
    k = int(deg.max())
    # (D - I) acts on the right, scaling column w by deg(w) - 1
    step = (deg - 1)[:, None, :]
    bound, prev, cur = k, None, A
    while True:
        yield cur
        if A.dtype == np.float32 and (bound := bound * max(k - 1, 1)) > _FLOAT32_EXACT_MAX:
            A, deg, step, cur = (m.astype(np.float64) for m in (A, deg, step, cur))
            prev = None if prev is None else prev.astype(np.float64)
        nxt = cur @ A
        if prev is None:
            nxt.reshape(B, -1)[:, :: n + 1] -= deg
        else:
            nxt -= prev * step
        prev, cur = cur, nxt


def _girth_walks(A: np.ndarray) -> tuple[list, np.ndarray]:
    """The girths of the graphs of a prebuilt (B, n, n) adjacency stack A
    and, from one walk pass, their A_{g-1}, a (B, n, n) stack whose slice b
    belongs to graph b.  From A_2 on, each A_l gives the diagonal of
    A_{l+1}, the closing diagonal, as the row sums of A_l * A (see the
    module docstring); a member whose closing diagonal is nonzero has girth
    l + 1 and its counts in A_l.  So the pass stops at the A_{g-1} of the
    stack's largest girth g, and never forms an A_g.  Every member must
    have a cycle (``_girth_counts`` sends only connected graphs of degree
    >= 3): a member still without a closed walk at length n, the longest a
    cycle can be, raises AssertionError."""
    B, n, _ = A.shape
    girth = np.zeros(B, dtype=np.int64)  # 0 until found
    # the members still without their girth; their A_{g-1} stack once one has it
    left, walks = B, None
    for length, cur in enumerate(_nb_walks(A), start=1):
        # A_1 and A_2 have zero diagonals, so the first closing diagonal is A_3's
        if length > 1 and np.count_nonzero(closing := np.einsum("bij,bij->bi", cur, A)):
            fresh = closing.any(axis=1).nonzero()[0]
            if (fresh := fresh[girth[fresh] == 0]).size:
                girth[fresh] = length + 1
                left -= fresh.size
                if fresh.size == B:
                    walks = cur  # the pass never writes to a stack it has yielded
                else:
                    # the dtype of the pass only widens, so the stack takes cur's dtype
                    walks = np.zeros_like(cur) if walks is None else walks.astype(cur.dtype, copy=False)
                    walks[fresh] = cur[fresh]
        if not left:
            return girth.tolist(), walks
        if length + 1 >= n:
            raise AssertionError("a member of the walk stack has no cycle")


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integers lo[i], ..., lo[i] + counts[i] - 1, range after range,
    for a nonempty lo."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) + (lo - ends + counts).repeat(counts)


def _bfs_levels(u: _Union) -> tuple[np.ndarray, np.ndarray]:
    """One frontier BFS over the union, rooted at every nonempty graph's
    vertex 0: the level of each union vertex (its distance from its graph's
    vertex 0, -1 when unreached), and the reached vertices with a neighbour
    at their own level.  Each level gathers the entries of its frontier's
    rows alone, so every entry is read once."""
    first, indptr, deg, _, cols = u
    if len(first) > 2:  # number the neighbours in the union
        cols = cols + first[:-1].repeat(np.diff(indptr[first]))
    level = np.full(len(deg), -1)
    front = first[:-1][first[:-1] < first[1:]]
    level[front] = 0
    clash, depth = [front[:0]], 0
    while front.size:
        nbr = cols[_ranges(indptr[front], deg[front])]
        at = level[nbr]
        clash.append(nbr[at == depth])
        depth += 1
        level[nbr[at < 0]] = depth
        front = (level == depth).nonzero()[0]
    return level, np.concatenate(clash)


def _bipartition(G: Graph) -> np.ndarray | None:
    """G's colour classes when G is connected, bipartite and has an edge:
    a read-only bool array, True at the vertices an odd distance from
    vertex 0; else None.  Kept on G (``G._sides``: None until computed,
    False when there are no classes) by the ``_bfs_levels`` pass of
    ``verify_many``, or of the first call here."""
    if G._sides is None:
        level, clash = _bfs_levels(_union_of([G]))
        _keep_sides(G, level, not clash.size)
    return None if G._sides is False else G._sides


def _keep_sides(G: Graph, level: np.ndarray, bipartite: bool) -> None:
    """Set ``G._sides`` from G's levels in a ``_bfs_levels`` pass and
    whether no edge of G joins two vertices of one level."""
    G._sides = False
    if G.num_edges() and bipartite and level.min() >= 0:
        G._sides = level % 2 == 1
        G._sides.setflags(write=False)


def verify_many(graphs) -> list:
    """Verify each graph as ``verify_egr`` does, and return for each, in
    order, its EgrSignature, or the NotEdgeGirthRegular or ValueError
    instance that ``verify_egr`` would raise.  The Graphs are concatenated
    into one union, which the block core ``_verify_union`` verifies, and
    keep their colour classes from its BFS (``_bipartition``); each row of
    its verdict table becomes one verdict (``_verdict``)."""
    graphs = list(graphs)
    return [_verdict(row) for row in _verify_union(_union_of(graphs), graphs).rows()] if graphs else []


# The verdict table's kind codes, in the order verify_egr checks them: an
# empty graph, a vertex unreachable from vertex 0, two degrees, degree
# below 3, more than MAX_VERIFY_VERTICES vertices, edges on different
# numbers of girth cycles; EGR passes every check.
EGR, EMPTY, DISCONNECTED, NOT_REGULAR, DEGREE_TOO_SMALL, OVER_CAP, NONUNIFORM = range(7)


class _Verdicts(NamedTuple):
    """The block core's verdict table: one int64 column per field, entry i
    for graph i of the union.  Every row has its kind code and order n; the
    other fields hold what its kind reports:

    - k: the degree (EGR, DEGREE_TOO_SMALL, NONUNIFORM), the expected,
      most common, degree (NOT_REGULAR);
    - g, lam, bipartite (1 or 0): the signature (EGR); g and lam, the count
      on the graph's first edge, also for NONUNIFORM;
    - x, y: the unreached vertex x (DISCONNECTED), the vertex x of degree
      y (NOT_REGULAR), the first edge (x, y) off lam (NONUNIFORM);
    - count, least, most: that edge's count and the least and largest
      count on any edge (NONUNIFORM).

    ``_failure`` words a failing row, ``_verdict`` makes it a verdict."""

    kind: np.ndarray
    n: np.ndarray
    k: np.ndarray
    g: np.ndarray
    lam: np.ndarray
    bipartite: np.ndarray
    x: np.ndarray
    y: np.ndarray
    count: np.ndarray
    least: np.ndarray
    most: np.ndarray

    def rows(self, *extra):
        """The table's rows, in order, as tuples of Python ints, each
        followed by its entry of every sequence in ``extra``."""
        return zip(*(column.tolist() for column in self), *extra)


class _Failure(NamedTuple):
    """The wording of a failing kind: its NotEdgeGirthRegular kind, its
    message as a % template of ints over the verdict-table fields
    ``reads``, and the repr of its witness as a % template over the first
    of them, one per %: no field (the witness is None), one (an int) or two
    (a tuple)."""

    kind: str
    message: str
    witness: str
    reads: tuple[str, ...]

    @property
    def shown(self) -> tuple[str, ...]:
        """The fields the witness reads."""
        return self.reads[: self.witness.count("%")]


# Every failing kind but OVER_CAP (``_cap_error`` words that): ``_failure``
# formats it for verify_many, and ``cli`` writes stream records from it.
_FAILURES = {
    EMPTY: _Failure("disconnected", "empty graph", "None", ()),
    DISCONNECTED: _Failure("disconnected", "vertex %d unreachable from 0", "%d", ("x",)),
    NOT_REGULAR: _Failure("not_regular", "vertex %d has degree %d, expected %d", "%d", ("x", "y", "k")),
    DEGREE_TOO_SMALL: _Failure("degree_too_small", "degree %d < 3", "%d", ("k",)),
    NONUNIFORM: _Failure(
        "nonuniform_cycle_counts",
        "edge (%d, %d) lies on %d girth cycles, expected %d",
        "(%d, %d)",
        ("x", "y", "count", "lam"),
    ),
}


def _failure(row) -> tuple[str, object, str]:
    """The NotEdgeGirthRegular kind, witness and message of a verdict-table
    row of a failing kind, from its ``_FAILURES`` entry."""
    failure = _FAILURES[row[0]]
    values = tuple(row[_Verdicts._fields.index(field)] for field in failure.reads)
    shown = values[: len(failure.shown)]
    witness = shown[0] if len(shown) == 1 else shown or None
    return failure.kind, witness, failure.message % values


def _verdict(row):
    """The ``verify_many`` verdict of a verdict-table row: an EgrSignature,
    the ValueError of ``_cap_error``, or a NotEdgeGirthRegular."""
    kind, n, k, g, lam, bipartite, *_, least, most = row
    if kind == EGR:
        return EgrSignature(n=n, k=k, g=g, lam=lam, bipartite=bool(bipartite))
    if kind == OVER_CAP:
        return _cap_error(n)
    details = {"min_count": least, "max_count": most} if kind == NONUNIFORM else None
    return NotEdgeGirthRegular(*_failure(row), details=details)


def _verify_union(u: _Union, graphs=()) -> _Verdicts:
    """The block core: the verdict table of the union's graphs, in order.
    Connectivity and bipartiteness come from one ``_bfs_levels`` pass, the
    degree checks from one reduction per bound over the degrees, and each
    graph's kind from masks over both; only an irregular graph's witness
    takes a count of its own degrees.  The graphs that pass take the walk
    pass (``_girth_counts``), and one pass over all their edges compares
    each edge's count with its graph's first edge's.  ``graphs``, the
    Graphs the union was made of, if any, keep their colour classes."""
    first, _, deg, _, _ = u
    orders = first[1:] - first[:-1]
    level, clash = _bfs_levels(u)
    # x: the first unreached vertex at or after each graph's vertex 0, in its graph's numbering
    missing = (level < 0).nonzero()[0]
    x = np.concatenate((missing, [len(level)]))[missing.searchsorted(first[:-1])] - first[:-1]
    # a component is bipartite exactly when no edge joins two vertices at the same level
    bipartite = np.ones(len(orders), dtype=np.int64)
    bipartite[first[1:].searchsorted(clash, side="right")] = 0
    for i, G in enumerate(graphs):
        _keep_sides(G, level[first[i] : first[i + 1]], bipartite[i])
    # a pad after the degrees ends the last graph's segment; an empty
    # graph's segment reads the next graph's first degree, never used
    padded = np.concatenate((deg, [0]))
    k, high = np.minimum.reduceat(padded, first)[:-1], np.maximum.reduceat(padded, first)[:-1]
    # every kind starts as EGR (0); the first check a graph fails sets its
    # kind, so the later checks go first
    kind, g, lam, y, count, least, most = np.zeros((7, len(orders)), dtype=np.int64)
    kind[orders > MAX_VERIFY_VERTICES] = OVER_CAP
    kind[k < 3] = DEGREE_TOO_SMALL
    kind[k != high] = NOT_REGULAR
    kind[x < orders] = DISCONNECTED
    kind[orders == 0] = EMPTY
    table = _Verdicts(kind, orders, k, g, lam, bipartite, x, y, count, least, most)
    for i in (kind == NOT_REGULAR).nonzero()[0].tolist():
        d = deg[first[i] : first[i + 1]]
        k[i] = np.bincount(d).argmax()  # argmax takes the first, so the smallest, mode
        x[i] = (d != k[i]).argmax()
        y[i] = d[x[i]]
    # connected and k-regular with k >= 3, so each has a cycle; sorted by order
    w = (kind == EGR).nonzero()[0]
    if not w.size:
        return table
    w = w[orders[w].argsort(kind="stable")]
    girth, us, vs, counts, seg, edges = _girth_counts(u, w)
    # each graph's edges are one nonempty segment, and a graph has a deviant
    # edge exactly when its least and largest counts differ
    g[w], lam[w] = girth, counts[seg]
    deviant = (counts != lam[w].repeat(edges)).nonzero()[0]
    if deviant.size:
        fewest, largest = np.minimum.reduceat(counts, seg), np.maximum.reduceat(counts, seg)
        off = (fewest != largest).nonzero()[0]
        at = deviant[deviant.searchsorted(seg[off])]  # each graph's first deviant edge
        i = w[off]
        kind[i], x[i], y[i], count[i] = NONUNIFORM, us[at], vs[at], counts[at]
        least[i], most[i] = fewest[off], largest[off]
    return table


def _girth_counts(u: _Union, w: np.ndarray) -> tuple:
    """The walk pass over the union's graphs w, sorted by order, each
    connected, regular of degree >= 3 and under the vertex cap: their
    girths, then for their edges (u, v), u < v, in ``edges()`` order, graph
    after graph, the arrays u, v and A_{g-1}[u, v] (the girth cycles through
    uv), and where each graph's edges start and how many it has.  The graphs
    of one order n fill (B, n, n) stacks of at most MAX_STACK_CELLS entries
    (a larger graph runs alone) straight from the union's entries."""
    first, indptr, _, rows, cols = u
    start, stop = first[w], first[w + 1]
    lo = indptr[start]
    cnt, orders = indptr[stop] - lo, stop - start  # each graph's entries and vertices
    edges = cnt // 2
    # each array over the entries is dropped after its last use, and only
    # the upper entries' u, v and positions live through the walk pass
    at = _ranges(lo, cnt)
    us = rows[at] - start.repeat(cnt)
    vs = cols[at]
    del at
    # a run of one order fills stacks of `size` members, each at its slot
    size = np.maximum(1, MAX_STACK_CELLS // (orders * orders))
    pos = np.arange(len(w))
    head = pos * np.concatenate(([True], orders[1:] != orders[:-1]))
    slot = (pos - np.maximum.accumulate(head)) % size
    nn = orders.repeat(cnt)
    flat = (slot.repeat(cnt) * nn + us) * nn + vs  # entry (slot, u, v) of its stack
    del nn
    # an index array: a boolean mask this irregular gathers several times slower
    upper = (us < vs).nonzero()[0]
    us = us[upper]
    vs = vs[upper]
    read = flat[upper]
    del upper
    ends, tops, ns = [0, *cnt.cumsum().tolist()], [0, *edges.cumsum().tolist()], orders.tolist()
    girth, parts = [], []
    for a, b in pairwise([*(slot == 0).nonzero()[0].tolist(), len(w)]):
        n = ns[a]
        A = np.zeros((b - a, n, n), dtype=_exact_dtype(1))
        A.reshape(-1)[flat[ends[a] : ends[b]]] = 1
        g, walks = _girth_walks(A)
        girth += g
        parts.append(walks.reshape(-1)[read[tops[a] : tops[b]]])
    counts = np.concatenate(parts).astype(np.int64)  # float64 holds each count exactly
    return girth, us, vs, counts, edges.cumsum() - edges, edges


def verify_egr(G: Graph) -> EgrSignature:
    """Check Definition: connected, k-regular, and every edge on exactly
    lambda girth cycles.  Returns the verified signature, or raises
    NotEdgeGirthRegular with the first violated condition and a witness.
    The expected degree k is the most common degree, ties going to the
    smallest; an irregular graph fails at its first vertex of another
    degree.  A connected regular graph of degree >= 3 on more than
    MAX_VERIFY_VERTICES vertices raises ValueError.  This is
    ``verify_many([G])``, on G's own arrays."""
    result = verify_many([G])[0]
    if isinstance(result, Exception):
        raise result
    return result


# ----------------------------------------------------------------------
# graph6 format (printable bytes 63..126, column-major upper triangle)
# ----------------------------------------------------------------------

GRAPH6_MAX_N = 10**6  # practical cap; the format itself allows 2^36 - 1
_G6_HEADER = ">>graph6<<"
_G6_BYTES = bytes(range(63, 127))
# a translate table: 0 for each graph6 byte, 1 for every other byte
_G6_OUTSIDE = bytes(not 63 <= byte <= 126 for byte in range(256))
# bytes outside the graph6 range after a block's strings, so that reading
# any string's first four bytes stays in the block
_G6_PAD = "\0" * 4

# The most characters of graph6 lines in one block (``_blocks``), but for
# a longer line, which is a block of its own.
MAX_DECODE_BYTES = 2**16
# The most body bytes a decode pass unpacks at a time, one byte per bit:
# 512 KiB of bits, whatever the line lengths, the number of lines and the
# block budget.
UNPACK_BYTES = 2**16


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


def _column(bit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair u < v of each graph6 bit i, for any 0 <= i < 2**60 and
    whatever the vertex count: the column v, with v(v-1)/2 <= i < v(v+1)/2,
    and u = i - v(v-1)/2.  v is the closed form floor((1 + sqrt(1 + 8i))/2),
    that is floor(sqrt(2i + 1/4) + 1/2), in float64, corrected in integers.
    The float is never below the column: each step rounds monotonically,
    and the root of the rounded square of a half-integer under 2**31
    rounds back to it.  Once 2i + 1/4 is rounded (past 2**51) it can be
    one above, which makes u negative, and then it is moved back a column."""
    x = bit * 2.0
    x += 0.25
    np.sqrt(x, out=x)
    x += 0.5
    v = x.astype(np.int64)
    u = bit - (v * (v - 1) >> 1)
    over = u >> 63  # -1 where v is one too many, else 0
    v += over
    u += v & over
    return u, v


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
    us, vs = G.edge_arrays()
    bits = vs * (vs - 1) // 2 + us
    body = np.zeros((n * (n - 1) // 2 + 5) // 6, dtype=np.uint8)
    np.bitwise_or.at(body, bits // 6, (32 >> (bits % 6)).astype(np.uint8))
    return bytes(head).decode("ascii") + (body + 63).tobytes().decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header allowed).
    Raises Graph6Error with a byte offset on malformed input.  This is
    ``graph6_decode_many([text])``."""
    result = graph6_decode_many([text])[0]
    if isinstance(result, Graph6Error):
        raise result
    return result


def graph6_decode_many(texts) -> list:
    """Decode each of the graph6 strings ``texts`` as ``graph6_decode``
    does, and return for each, in order, its Graph or the Graph6Error that
    ``graph6_decode`` would raise: ``_decode_block`` on each block of
    ``_blocks``, then a split."""
    results = []
    for block in _blocks(texts):
        errors, union = _decode_block(block)
        decoded = iter([Graph._from_csr(indptr, cols, None) for indptr, cols, _ in _split(union)])
        results += [next(decoded) if exc is None else exc for exc in errors]
    return results


def _blocks(lines):
    """The strings ``lines`` in blocks of at most MAX_DECODE_BYTES
    characters: a block closes before a line that would take it past the
    budget, or once it holds that many, so a line longer than the budget is
    a block of its own.  A block is yielded as soon as it closes, so a
    stream's records of one block are written before the next is read."""
    budget = MAX_DECODE_BYTES
    block, size = [], 0
    for line in lines:
        size += len(line)
        if size > budget and block:
            yield block
            block, size = [], len(line)
        block.append(line)
        if size >= budget:
            yield block
            block, size = [], 0
    if block:
        yield block


def _graph6_body(text: str) -> tuple[int, memoryview]:
    """The vertex count n and the adjacency bytes of one graph6 string,
    which must be (n(n-1)/2 + 5) // 6 bytes in 63..126 whose padding bits
    are zero; raises Graph6Error with a byte offset on malformed input.
    The block decoder calls it for each string its array pass rejects, so
    it decides every form but the canonical one and words every error."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 input", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    bad = data.translate(None, _G6_BYTES)
    if bad:
        # every occurrence of bad[0] is out of range, so the first is the first fault
        raise Graph6Error(f"byte {bad[0]!r} outside graph6 range 63..126", data.index(bad[0]))
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
    # the padding bits are the low 6*nbytes - nbits bits of the last byte
    if nbytes and (data[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    return n, memoryview(data)[pos:]


def _decode_block(texts: list[str]) -> tuple[list, _Union]:
    """The block decoder: for each of the graph6 strings ``texts``, a block
    of ``_blocks``, the Graph6Error that ``graph6_decode`` would raise, or
    None, and the union of the valid strings' graphs, in order.

    The block takes one array pass, ``_canonical``, over its joined bytes,
    and each string that pass rejects takes ``_graph6_body``, which raises
    its error or returns its body.  The canonical bodies and then the bodies
    ``_graph6_body`` returned take ``_body_entries``, and both orientations
    of every edge, as codes r*width + c in the union's vertex numbering
    (``_code_width``), take one sort."""
    errors: list = [None] * len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    bodies, body_lengths, n, ok = _canonical(texts, lengths)
    valid = ok.copy()
    rest, rest_lengths = bytearray(), []
    for i in (~ok).nonzero()[0].tolist():
        try:
            n[i], body = _graph6_body(texts[i])
        except Graph6Error as exc:
            errors[i] = exc
            continue
        valid[i] = True
        rest += body
        rest_lengths.append(len(body))
    orders = n[valid].tolist()
    width = _code_width(max(orders, default=0))
    # each string's first union vertex, times width; read only where it is valid
    offsets = np.cumsum([0, *orders])[valid.cumsum() - 1] * width
    parts = _body_entries(bodies, body_lengths, offsets[ok], width)
    rest_bodies = np.frombuffer(rest, dtype=np.uint8)
    parts += _body_entries(rest_bodies, np.array(rest_lengths, dtype=np.int64), offsets[valid & ~ok], width)
    codes = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
    codes.sort()
    # the bit map gives each graph's pairs u < v once, in range; checked all the same
    if not (_in_range(codes, sum(orders) * width) and _distinct(codes)):
        raise AssertionError("graph6 bit map formed a repeated or out-of-range entry")
    return errors, _from_codes(orders, width, codes)


def _canonical(texts: list[str], lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The array pass over a block of graph6 strings, of the given lengths:
    the bodies of the strings in canonical form, concatenated in order, and
    their lengths; each string's vertex count, read only where it is
    canonical; and which strings are.  Canonical is the form that
    ``graph6_encode`` and networkx write: one optional trailing newline,
    every other byte in 63..126, a short or long vertex count, exactly
    (n(n-1)/2 + 5) // 6 body bytes and zero padding bits.  These are the
    checks of ``_graph6_body`` on such a string, so it decodes the same.
    Every other string is left to ``_graph6_body``: one with a header,
    other whitespace, non-ASCII text or a very-long vertex count, and
    every malformed one."""
    joined = "".join([*texts, _G6_PAD])
    if not joined.isascii():  # a non-ASCII string takes no bytes, so it is rejected as empty
        texts = [text if text.isascii() else "" for text in texts]
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        joined = "".join([*texts, _G6_PAD])
    raw = joined.encode("ascii")
    del joined
    data = np.frombuffer(raw, dtype=np.uint8)
    stop = lengths.cumsum()
    start = stop - lengths
    # one trailing newline dropped (an empty string reads the byte before it, and fails all the same)
    end = stop - (data[stop - 1] == 10)
    head = data[start[:, None] + np.arange(4)].astype(np.int64) - 63
    long = head[:, 0] == 63
    n = np.where(long, (head[:, 1] << 12) | (head[:, 2] << 6) | head[:, 3], head[:, 0])
    body = start + 1 + 3 * long
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    # whether a byte outside 63..126 lies in each string's content, then in what follows it
    edges = np.empty(2 * len(texts), dtype=np.int64)
    edges[::2], edges[1::2] = start, end
    outside = np.logical_or.reduceat(np.frombuffer(raw.translate(_G6_OUTSIDE), dtype=bool), edges)
    ok = (
        ~outside[::2]
        & (end - body == nbytes)
        & ~(long & (head[:, 1] == 63))
        & ((data[end - 1] - 63) & ((1 << (6 * nbytes - nbits)) - 1) == 0)
    )
    body, end = body[ok], end[ok]
    # the bodies [body, end) of the canonical strings, as a running sum of
    # 1 at each body's first byte and -1 after its last
    keep = np.zeros(len(raw), dtype=np.int8)
    keep[body] = 1
    keep[end] -= 1
    return data[keep.cumsum(dtype=np.int8).view(bool)], end - body, n, ok


def _body_entries(bodies: np.ndarray, lengths: np.ndarray, offsets: np.ndarray, width: int) -> list:
    """The codes r*width + c of both orientations of every edge of the
    graph6 bodies concatenated in ``bodies``, of the given lengths, whose
    graphs' first union rows r0 give ``offsets`` r0*width.  The set bits,
    read UNPACK_BYTES bytes at a time and unpacked only from their
    nonzero bytes, take their bodies from an array of each byte's body, one
    repeat over the bodies' lengths in that span, and their pairs u < v
    from ``_column``, which does not depend on the vertex count."""
    stop = lengths.cumsum()
    start = stop - lengths
    parts = []
    for lo in range(0, len(bodies), UNPACK_BYTES):
        hi = min(lo + UNPACK_BYTES, len(bodies))
        # the bodies a..z-1 that meet bytes lo..hi-1, and each byte's body,
        # numbered from a
        a, z = np.searchsorted(stop, [lo, hi - 1], side="right") + [0, 1]
        which = np.arange(z - a).repeat(np.minimum(stop[a:z], hi) - np.maximum(start[a:z], lo))
        chunk = bodies[lo:hi]
        full = np.flatnonzero(chunk != 63)
        body = which[full]
        # each byte carries six data bits, most significant first, below two
        # zero bits: unpacked bit j is data bit (j & 7) - 2 of byte j >> 3,
        # and byte p of the chunk starts bit 6(p + lo - start) of its body
        ones = np.flatnonzero(np.unpackbits(chunk[full] - 63).view(bool))
        byte = ones >> 3
        u, v = _column((6 * full + (6 * (lo - start[a:z]) - 2)[body])[byte] + (ones & 7))
        row = offsets[a:z][body][byte]
        parts += [row + u * width + v, row + v * width + u]
    return parts
