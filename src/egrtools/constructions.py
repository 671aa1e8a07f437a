"""Edge-girth-regular graph families built from finite geometries, plus
the named reference graphs used throughout the test suite.

The biaffine planes and the paper's C_q are one rule, ``_truncation``
(Araujo-Pardo, Balbuena and Heger, Discrete Math. 310, 2010): delete from
a Levi graph the ball of radius r around a point P and a line l.
biaffine1 is PG(2,q), (P, l) a flag, r = 1; biaffine2 PG(2,q), an
anti-flag, r = 1; gq_truncation W(q), a flag, r = 2.  The split Cayley
hexagon, a flag, r = 4 would be the next.  ``check_order`` is the one
guard on q: each family's size cap, and degree 3 or more at q.

Every graph is given by one side's rows, each listing its neighbours on
the other side: a geometry's blocks, or the pencil's right vertices;
``_two_sided_graph`` masks them and sorts their transpose for the other
side.  Every builder is a pure function of its parameters: P is point 0
and l the first block through or missing it, and W(q)'s ovoid and spread
are the elliptic quadric and the regular spread of a pencil of
alternating forms, so two runs produce identical adjacency lists.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .galois import GF, Field
from .geometry import (
    IncidenceGeometry,
    _singer_plane,
    elliptic_quadric,
    pg2_geometry,
    point_array,
    regular_spread,
    singer_pencil,
    symplectic_gq,
)
from .graph_core import Graph, _code_width

# Largest q whose field and build take under 60 s and 870 MiB peak RSS,
# 15% under 1 GiB; biaffine's cap is also galois.MAX_TABLE_ORDER.  One
# process each, 2 CPUs, one BLAS thread, Python 3.11, numpy 2.4: biaffine
# q=256 0.9-1.2 s / 566 MiB; gq_truncation q=67 2.7-3.1 s / 707 MiB, q=71
# 3.6 s / 881 MiB; ovoid_spread q=64 2.3-2.4 s / 594 MiB; pencil q=29
# 1.1-1.3 s / 658 MiB, q=31 1.6 s / 900 MiB.
MAX_ORDER = {"biaffine1": 256, "biaffine2": 256, "gq_truncation": 67, "ovoid_spread": 64, "pencil": 29}


# Round sizes of complete_bipartite(k) and cycle(n) that build in under
# 60 s and 1 GiB peak RSS, on the same machine as MAX_ORDER; memory binds:
# complete_bipartite(3000) 2.1 s / 993 MiB, 3050 1025 MiB; cycle(9000000)
# 1.3 s / 992 MiB, 9500000 1046 MiB.
MAX_NAMED_SIZE = {"complete_bipartite": 3000, "cycle": 9_000_000}


def check_order(family: str, q: int) -> None:
    """ValueError when q is above the family's size cap, MAX_ORDER, or
    when its closed form in FAMILIES has degree below 3 at q."""
    if q > MAX_ORDER[family]:
        raise ValueError(f"{family} is capped at q <= {MAX_ORDER[family]} (got q = {q})")
    k = FAMILIES[family].signature(q)[1]
    if k < 3:
        raise ValueError(f"{family} at q = {q} has degree {k}; verification needs degree k >= 3")


def _check_size(kind: str, size: int) -> None:
    """ValueError when a named graph's size is above its cap, MAX_NAMED_SIZE."""
    if size > MAX_NAMED_SIZE[kind]:
        raise ValueError(
            f"{kind}({size}) is past the size cap {kind}({MAX_NAMED_SIZE[kind]}); "
            "larger graphs do not build in 60 s and 1 GiB"
        )


class VertexLabels(Sequence):
    """Read-only labels of a geometric graph, each made when read: a run
    (tag, ids, rows) of ``parts`` labels its vertex i (tag, coordinates of
    point ids[i]), or (tag, coordinates of the points in rows[ids[i]])."""

    def __init__(self, coords: np.ndarray, parts):
        self._coords, self._parts = coords, parts
        self._ends = np.cumsum([len(ids) for _, ids, _ in parts]).tolist()

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, v):
        if isinstance(v, slice):
            return [self[i] for i in range(*v.indices(len(self)))]
        v = range(len(self))[v]  # negative v counts from the end; IndexError past it
        i = bisect_right(self._ends, v)
        tag, ids, rows = self._parts[i]
        at = ids[v - self._ends[i] + len(ids)]
        if rows is None:
            return tag, tuple(self._coords[at].tolist())
        return tag, tuple(map(tuple, self._coords[rows[at]].tolist()))


def _two_sided_graph(rows, keep_first, keep_rows, labels) -> Graph:
    """The bipartite graph on the kept first-side vertices, then the kept
    rows of ``rows``, row j listing, ascending, the first-side vertices
    joined to j.  A kept row less its deleted entries, renumbered by a
    cumulative sum of ``keep_first``, is a sorted CSR row of the second
    side.  The first side's rows are the transpose of those entries: the
    codes v*width + j (``graph_core._code_width``) sorted in place."""
    # checked once here, so the take can clip: with mode="raise", numpy
    # always buffers out, a second copy of the largest array of the build
    if rows.size and not 0 <= rows.min() <= rows.max() < len(keep_first):
        raise AssertionError("a row lists a vertex outside the other side")
    mask = keep_rows[:, None] & keep_first[rows]
    a, deg = int(np.count_nonzero(keep_first)), np.count_nonzero(mask, axis=1)[keep_rows]
    width = _code_width(a + len(deg))
    indices = np.empty(2 * int(deg.sum()), dtype=np.int64)
    first, second = np.split(indices, 2)
    np.take(np.cumsum(keep_first) - 1, rows[mask], out=second, mode="clip")
    np.multiply(second, width, out=first)
    first += np.arange(a, a + len(deg)).repeat(deg)
    first.sort()
    deg = np.concatenate((np.bincount(first >> (width.bit_length() - 1), minlength=a), deg))
    first &= width - 1
    return Graph._from_csr(np.concatenate(([0], np.cumsum(deg))), indices, labels)


def levi_graph(geom: IncidenceGeometry, keep_points=None, keep_blocks=None) -> Graph:
    """Bipartite incidence graph of a geometry, optionally restricted by
    boolean masks over its points and blocks (None keeps all).  Point
    vertices come first and carry ("point", coordinates) as labels; block
    vertices carry ("line", the coordinates of the block's points)."""
    keep_points = np.ones(geom.n_points, dtype=bool) if keep_points is None else keep_points
    keep_blocks = np.ones(geom.n_blocks, dtype=bool) if keep_blocks is None else keep_blocks
    parts = [("point", np.flatnonzero(keep_points), None), ("line", np.flatnonzero(keep_blocks), geom.blocks)]
    return _two_sided_graph(geom.blocks, keep_points, keep_blocks, VertexLabels(geom.coords, parts))


def _truncation(geom: IncidenceGeometry, incident: bool, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep masks over the points and blocks of ``geom`` that delete the
    ball of the given radius, at least 1, around point P = 0 and block l
    (the first through P when ``incident``, else the first missing P) in
    its Levi graph.  Each step past radius 1 adds the blocks through the
    ball's points and the points on its blocks."""
    # a block's row is ascending, so it holds point 0 exactly when it starts with it
    on_P = geom.blocks[:, 0] == 0
    ell = int(np.argmax(on_P == incident))
    points = np.zeros(geom.n_points, dtype=bool)
    points[0] = points[geom.blocks[ell]] = True
    blocks = on_P
    blocks[ell] = True
    for _ in range(radius - 1):
        grown = blocks | points[geom.blocks].any(axis=1)
        points[geom.blocks[blocks]] = True
        blocks = grown
    return ~points, ~blocks


def build_biaffine(F: Field, kind: int) -> Graph:
    """Incidence graph of a biaffine plane of order q: PG(2,q) less the
    ball of radius 1 around a point P and a line l (``_truncation``), a flag
    for kind 1 and an anti-flag for kind 2 (rows biaffine1 and biaffine2 of
    FAMILIES)."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    check_order(f"biaffine{kind}", F.q)
    geom = pg2_geometry(F)
    return levi_graph(geom, *_truncation(geom, kind == 1, 1))


def build_gq_truncation(F: Field) -> Graph:
    """The paper's C_q: the symplectic quadrangle W(q) less the ball of
    radius 2 around a flag (P, l) (``_truncation``), every point collinear
    with P and every line meeting l."""
    check_order("gq_truncation", F.q)
    geom = symplectic_gq(F)
    return levi_graph(geom, *_truncation(geom, True, 2))


def build_ovoid_spread(F: Field) -> Graph:
    """Levi graph of W(q) minus an ovoid and a spread (q even, q >= 4).
    The ovoid is the elliptic quadric (``geometry.elliptic_quadric``), the
    spread the regular spread (``geometry.regular_spread``), which is the
    lexicographically smallest spread at q <= 32."""
    check_order("ovoid_spread", F.q)
    ovoid = elliptic_quadric(F)
    geom = symplectic_gq(F)
    keep_points = np.ones(geom.n_points, dtype=bool)
    keep_points[ovoid] = False
    keep_blocks = np.ones(geom.n_blocks, dtype=bool)
    keep_blocks[regular_spread(F)] = False
    return levi_graph(geom, keep_points, keep_blocks)


def build_pencil_graph(F: Field) -> Graph:
    """Bipartite graph on two copies of the PG(3,q) point set, joining p
    on the left to r' on the right exactly when r lies on the tangent
    plane, at p, of the pencil ovoid through p.

    It contains every diagonal edge (p, p'), since each point lies on its
    own tangent plane.  In the exponents of ``_singer_plane``, D + c is
    the one plane through w^0 that meets member 0 only there.
    Multiplication by w^e is a collineation taking w^0 to w^e, member 0 to
    the member through w^e and plane D + t to D + t + e, so the tangent
    plane at w^e is D + e + c, and right vertex w^f is joined to left
    vertex w^e exactly when e is in f - c - D.
    """
    check_order("pencil", F.q)
    singer_pencil(F)  # its members are ovoids
    q, (point_of, D) = F.q, _singer_plane(F)
    n = len(point_of)
    # |plane D + t & member 0|, invariant under t -> t + q+1 as member 0 is,
    # so the tangency at w^0 speaks for every point of member 0
    meets = np.bincount((np.arange(0, n, q + 1)[:, None] - D).ravel() % n, minlength=n)
    through = -D % n  # the planes D + t through w^0
    c = through[meets[through] == 1]
    if len(c) != 1:
        raise ArithmeticError("pencil member has a point without exactly one tangent plane")
    right = np.empty((n, len(D)), dtype=point_of.dtype)
    right[point_of] = np.sort(point_of[(np.arange(n)[:, None] - c - D) % n], axis=1)
    everything = np.ones(n, dtype=bool)
    labels = VertexLabels(point_array(3, F), [("left", np.arange(n), None), ("right", np.arange(n), None)])
    return _two_sided_graph(right, everything, everything, labels)


class Family(NamedTuple):
    """A row of FAMILIES: the builder, which takes the field GF(q), and the
    closed-form signature (n, k, g, lambda) at q.  Its n lets a size cap be
    checked before any field is built; construct and report check each
    verified build against the whole signature."""

    build: Callable[[Field], Graph]
    signature: Callable[[int], tuple[int, int, int, int]]


FAMILIES = {
    # the paper's biaffine planes, the deleted flag (P, l) incident
    "biaffine1": Family(lambda F: build_biaffine(F, 1), lambda q: (2 * q * q, q, 6, (q - 1) ** 2 * (q - 2))),
    # the flag non-incident; lambda is fitted, not cited: builds verify to it
    # at every prime power q from 3 to 43, all the 4096-vertex cap admits
    "biaffine2": Family(
        lambda F: build_biaffine(F, 2), lambda q: (2 * q * q - 2, q, 6, (q - 1) * (q * q - 3 * q + 3))
    ),
    # the paper's corollary
    "gq_truncation": Family(build_gq_truncation, lambda q: (2 * q**3, q, 8, (q - 1) ** 2 * ((q - 2) ** 2 + 1))),
    # Kiss, Miklavic and Szonyi, as the paper quotes them
    "ovoid_spread": Family(build_ovoid_spread, lambda q: (2 * q * (q * q + 1), q, 8, ((q - 1) * (q - 2)) ** 2)),
    # the paper's tangent-plane pencil graphs
    "pencil": Family(build_pencil_graph, lambda q: (2 * (q**3 + q**2 + q + 1), q * q + q + 1, 4, q * q * (q + 1))),
}


# ----------------------------------------------------------------------
# named reference graphs
# ----------------------------------------------------------------------


def petersen() -> Graph:
    """Petersen graph: outer pentagon, inner pentagram, spokes."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, 5 + i))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def hoffman_singleton() -> Graph:
    """Hoffman-Singleton graph via the pentagon/pentagram construction:
    five pentagons P_h, five pentagrams Q_i, and vertex j of P_h joined
    to vertex h*i + j (mod 5) of Q_i."""
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph.from_edges(50, {(min(e), max(e)) for e in edges})


def heawood() -> Graph:
    """Heawood graph, as the incidence graph of the Fano plane."""
    return levi_graph(pg2_geometry(GF(2)))


def tutte_coxeter() -> Graph:
    """Tutte-Coxeter graph (the 8-cage), as the incidence graph of W(2)."""
    return levi_graph(symplectic_gq(GF(2)))


def complete_bipartite(k: int) -> Graph:
    if k < 1:
        raise ValueError("k must be positive")
    _check_size("complete_bipartite", k)
    left, right = np.divmod(np.arange(k * k), k)
    labels = [("left", i) for i in range(k)] + [("right", i) for i in range(k)]
    return Graph.from_edges(2 * k, np.stack((left, right + k), axis=1), labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    _check_size("cycle", n)
    return Graph.from_edges(n, np.stack((np.arange(n), (np.arange(n) + 1) % n), axis=1))


# name -> (order, degree, builder)
_NAMED = {
    "petersen": (10, 3, petersen),
    "hoffman_singleton": (50, 7, hoffman_singleton),
    "heawood": (14, 3, heawood),
    "tutte_coxeter": (30, 3, tutte_coxeter),
}


def _named(name: str):
    """(order, degree, builder) of a reference graph by name; ValueError
    for an unknown name or a size past its cap."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]
    m = re.fullmatch(r"(complete_bipartite|cycle)\((\d+)\)", key)
    if m:
        size = int(m.group(2))
        _check_size(m.group(1), size)
        if m.group(1) == "complete_bipartite":
            return 2 * size, size, lambda: complete_bipartite(size)
        return size, 2, lambda: cycle_graph(size)
    raise ValueError(
        f"unknown graph name {name!r}; expected one of {sorted(_NAMED)}, "
        "complete_bipartite(k), or cycle(n)"
    )


def named_order(name: str) -> int:
    """Vertex count of ``named_graph(name)``, without building it."""
    return _named(name)[0]


def named_degree(name: str) -> int:
    """Degree of ``named_graph(name)``, every one regular, without
    building it."""
    return _named(name)[1]


def named_graph(name: str) -> Graph:
    """Reference graph by name: petersen, hoffman_singleton, heawood,
    tutte_coxeter, complete_bipartite(k), cycle(n)."""
    return _named(name)[2]()
