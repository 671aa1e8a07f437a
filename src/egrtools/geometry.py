"""Projective geometries over GF(q) as numpy incidence arrays: PG(2,q),
PG(3,q), the symplectic generalized quadrangle W(q), pencils of ovoids
from a Singer cycle, tangent planes, and deterministic ovoid/spread
search.

Points are the rows of an (N x d) array of field-element indices
(``point_array``), normalized so the first nonzero coordinate is 1 and
sorted lexicographically; ``pg_points`` gives the same points as
tuples.  A hyperplane is named by the same kind of canonical vector, its
dual coordinates, so plane i of PG(3,q) is the plane with the
coordinates of point i.

Each line is listed once, from its reduced row-echelon basis (r, s):
pivot columns i < j, r leading at i with a 0 at j, s leading at j.

- PG(2,q): every such basis of GF(q)^3 is a line.
- W(q): the bases of GF(q)^4 with <r, s> = 0, the totally isotropic lines
  of PG(3,q) (Payne & Thas, Finite Generalized Quadrangles, 3.1).
- PG(3,q): the planes x points incidence (``plane_incidence``) gives
  tangent planes, the pencil's cap check and the pencil graph's edges.

An ``IncidenceGeometry`` holds its blocks as one read-only
(blocks x (q+1)) int64 array of point indices, a sorted row per block;
``blocks_through()`` is its inverse, a (points x (q+1)) array of block
indices.  Builders index and mask these arrays directly.

A dense incidence array is never allocated past ``MAX_INCIDENCE_CELLS``
entries; larger requests raise ValueError.  Block and point indices are
reproducible: every enumeration is in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .galois import Field

# Largest dense incidence array, in entries (256 MiB of bool): the planes
# x points of PG(3,25) fit, those of PG(3,27) do not.  The table lookups that
# fill it run over blocks of at most _BLOCK_CELLS entries.
MAX_INCIDENCE_CELLS = 2**28
_BLOCK_CELLS = 2**20


def normalize_point(F: Field, coords) -> tuple[int, ...]:
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


@lru_cache(maxsize=None)
def point_array(dim: int, F: Field) -> np.ndarray:
    """The points of PG(dim, q) as a read-only (N x (dim+1)) int64 array
    of canonical coordinates in lexicographic order, N =
    (q**(dim+1) - 1) // (q - 1).

    Sorted order groups the points by the position of their leading 1,
    latest position first; within a group the free tail coordinates run
    through GF(q)^m in lexicographic order."""
    if dim not in (2, 3):
        raise ValueError("only PG(2,q) and PG(3,q) are supported")
    q = F.q
    groups = []
    for lead in range(dim, -1, -1):
        m = dim - lead
        group = np.zeros((q**m, dim + 1), dtype=np.int64)
        group[:, lead] = 1
        group[:, lead + 1 :] = (np.arange(q**m)[:, None] // q ** np.arange(m - 1, -1, -1)) % q
        groups.append(group)
    pts = np.concatenate(groups)
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=None)
def pg_points(dim: int, F: Field) -> tuple[tuple[int, ...], ...]:
    """All points of PG(dim, q) as canonical coordinate tuples, sorted
    lexicographically.  There are (q**(dim+1) - 1) // (q - 1) of them."""
    return tuple(map(tuple, point_array(dim, F).tolist()))


def point_index(F: Field, vectors: np.ndarray) -> np.ndarray:
    """Index into point_array(d-1, F) of the projective point of each
    nonzero row of the (K x d) array ``vectors``."""
    q = F.q
    dim = vectors.shape[1] - 1
    tab = F.tables
    lead = (vectors != 0).argmax(axis=1)
    scale = tab.inv[vectors[np.arange(len(vectors)), lead]]
    canon = tab.mul[scale[:, None], vectors].astype(np.int64)
    # rank = (points whose leading 1 comes later) + (tail read in base q)
    top = q ** (dim - lead)
    return (top - 1) // (q - 1) + canon @ (q ** np.arange(dim, -1, -1)) - top


def incidence(F: Field, duals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean (len(duals) x len(points)) matrix, entry [i, j] true when
    sum_k duals[i, k] * points[j, k] == 0 in F.  Built in blocks of rows,
    so the table lookups never hold more than _BLOCK_CELLS entries; a
    matrix of more than MAX_INCIDENCE_CELLS entries raises ValueError."""
    if len(duals) * len(points) > MAX_INCIDENCE_CELLS:
        raise ValueError(
            f"incidence array of {len(duals)} x {len(points)} exceeds the cap of {MAX_INCIDENCE_CELLS} entries"
        )
    tab = F.tables
    out = np.empty((len(duals), len(points)), dtype=bool)
    rows = max(1, _BLOCK_CELLS // max(1, len(points)))
    for lo in range(0, len(duals), rows):
        block = duals[lo : lo + rows]
        acc = tab.mul[block[:, :1], points[:, 0]]
        for k in range(1, duals.shape[1]):
            acc = tab.add[acc, tab.mul[block[:, k : k + 1], points[:, k]]]
        np.equal(acc, 0, out=out[lo : lo + rows])
    return out


@lru_cache(maxsize=None)
def plane_incidence(F: Field) -> np.ndarray:
    """Read-only planes x points incidence of PG(3,q); plane i has the
    dual coordinates of point i."""
    pts = point_array(3, F)
    inc = incidence(F, pts, pts)
    inc.setflags(write=False)
    return inc


# eq=False: numpy compares the blocks arrays entrywise, so field-wise == and
# hash do not apply; geometries compare by identity.
@dataclass(frozen=True, eq=False)
class IncidenceGeometry:
    """Point-block incidence structure with indexed points and blocks.

    points: canonical coordinate tuples, lexicographically sorted.
    blocks: read-only (blocks x (q+1)) int64 array; row b holds the point
        indices of block b in ascending order, and the rows are sorted
        lexicographically.
    """

    points: tuple[tuple[int, ...], ...]
    blocks: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def blocks_through(self) -> np.ndarray:
        """(points x (q+1)) array: row p holds the indices of the blocks
        through point p in ascending order.  Every point must lie on the
        same number of blocks, as in PG(2,q) and W(q)."""
        order = np.argsort(self.blocks, axis=None, kind="stable")
        return (order // self.blocks.shape[1]).reshape(self.n_points, -1)


def _echelon_bases(F: Field, dim: int):
    """For each pivot pair i < j, the echelon bases (r, s) of the lines of
    PG(dim, q) with those pivots as two uint8 arrays: every point with its
    leading 1 at i and a 0 at j, paired with every point leading at j."""
    pts = point_array(dim, F).astype(np.uint8)
    lead = (pts != 0).argmax(axis=1)
    for i, j in combinations(range(dim + 1), 2):
        r, s = pts[(lead == i) & (pts[:, j] == 0)], pts[lead == j]
        yield np.repeat(r, len(s), axis=0), np.tile(s, (len(r), 1))


def _geometry(F: Field, dim: int, bases) -> IncidenceGeometry:
    """The geometry on the points of PG(dim, q) with a line for each
    echelon basis (r, s) in ``bases``: the points s and r + t s, canonical
    as they stand.  ArithmeticError unless, as in PG(2,q) and W(q), there
    are as many lines as points, q+1 on each line and q+1 through each."""
    tab, q, n = F.tables, F.q, len(point_array(dim, F))
    t = np.arange(q, dtype=np.uint8)[:, None]
    rows = [np.concatenate([s[:, None], tab.add[r[:, None], tab.mul[t, s[:, None]]]], axis=1) for r, s in bases]
    blocks = np.sort(point_index(F, np.concatenate(rows).reshape(-1, dim + 1)).reshape(-1, q + 1), axis=1)
    blocks = blocks[np.lexsort(blocks.T[::-1])]
    # blocks[0, 0] is the least index; a zero vector gives a negative one
    ok = len(blocks) == n and blocks[0, 0] >= 0 and (blocks[:, 1:] > blocks[:, :-1]).all()
    if not (ok and (np.bincount(blocks.ravel(), minlength=n) == q + 1).all()):
        raise ArithmeticError(f"lines of PG({dim},{q}) do not form the geometry; field arithmetic is broken")
    blocks.setflags(write=False)
    return IncidenceGeometry(points=pg_points(dim, F), blocks=blocks)


@lru_cache(maxsize=None)
def pg2_geometry(F: Field) -> IncidenceGeometry:
    """The projective plane PG(2,q): q^2+q+1 points and lines, one line
    for every echelon basis of GF(q)^3."""
    return _geometry(F, 2, _echelon_bases(F, 2))


@lru_cache(maxsize=None)
def symplectic_gq(F: Field) -> IncidenceGeometry:
    """The generalized quadrangle W(q): all points of PG(3,q) together with
    the lines that are totally isotropic for the alternating form
    <x,y> = x0*y1 - x1*y0 + x2*y3 - x3*y2, those whose echelon basis has
    <r, s> = 0."""
    add, neg, mul = F.tables.add, F.tables.neg, F.tables.mul

    def isotropic(r, s):
        # <r, s> = (J r) . s with J r = (-r1, r0, -r3, r2)
        form = mul[neg[r[:, 1]], s[:, 0]]
        for jr, k in ((r[:, 0], 1), (neg[r[:, 3]], 2), (r[:, 2], 3)):
            form = add[form, mul[jr, s[:, k]]]
        return r[form == 0], s[form == 0]

    return _geometry(F, 3, (isotropic(r, s) for r, s in _echelon_bases(F, 3)))


@lru_cache(maxsize=None)
def singer_pencil(F: Field) -> tuple[tuple[int, ...], ...]:
    """Partition of the points of PG(3,q) into q+1 disjoint ovoids.

    PG(3,q) points are identified with GF(q^4)* / GF(q)*.  Multiplication
    by a generator w of GF(q^4)* induces a cyclic (Singer) permutation of
    the q^3+q^2+q+1 points; the orbits of its subgroup of order q^2+1
    (generated by the (q+1)-st power) are the pencil members.  Returned as
    q+1 sorted tuples of point indices into pg_points(3, F).

    The construction is verified before returning: the members partition
    the point set, each has q^2+1 points, and none contains three
    collinear points.  A failure raises ArithmeticError -- it would mean
    an arithmetic bug, not a mathematical possibility.
    """
    q = F.q
    E = F.extension(4)
    n = (q**4 - 1) // (q - 1)  # q^3 + q^2 + q + 1; w^t for t < n meets each point once
    powers = np.array(E._exp[:n], dtype=np.int64)
    point_of_exponent = point_index(F, (powers[:, None] // q ** np.arange(4)) % q)
    members = []
    for r in range(q + 1):
        orbit = np.sort(point_of_exponent[r :: q + 1])
        if (orbit[1:] == orbit[:-1]).any():
            raise ArithmeticError("pencil member has wrong cardinality")
        members.append(orbit)

    if not (np.sort(np.concatenate(members)) == np.arange(n)).all():
        raise ArithmeticError("pencil members do not partition PG(3,q)")
    for member in members:
        if _collinear_triples(F, member):
            raise ArithmeticError("pencil member contains three collinear points")
    return tuple(tuple(member.tolist()) for member in members)


def _collinear_triples(F: Field, points) -> int:
    """Number of collinear triples in a set of PG(3,q) point indices.  A
    non-collinear triple lies on one plane and a collinear one on q+1, so
    the sum over planes of C(|plane & set|, 3) is C(m, 3) plus q times
    the collinear triples."""
    members = np.array(sorted(set(points)), dtype=np.intp)
    c = plane_incidence(F)[:, members].sum(axis=1, dtype=np.int64)
    m = len(members)
    on_planes = int((c * (c - 1) * (c - 2)).sum()) // 6
    return (on_planes - m * (m - 1) * (m - 2) // 6) // F.q


def tangent_planes(F: Field, ovoid) -> tuple[np.ndarray, np.ndarray]:
    """(M, planes): the sorted distinct points M of the ovoid and, for each,
    the index of its tangent plane, the one plane meeting the set in that
    point alone.  ValueError unless every point has exactly one."""
    members = np.array(sorted(set(ovoid)), dtype=np.intp)
    on = plane_incidence(F)[:, members]
    tangent = on & (on.sum(axis=1) == 1)[:, None]
    counts = tangent.sum(axis=0)
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        raise ValueError(
            f"expected exactly one tangent plane through point {members[bad[0]]}, "
            f"found {counts[bad[0]]}; the point set is not an ovoid"
        )
    return members, tangent.argmax(axis=0)


def _gq_order(G: IncidenceGeometry) -> int:
    return G.blocks.shape[1] - 1


def _first_cover_solution(n_items: int, compat: list[int], target: int, cover_masks: list[int]):
    """Lexicographically first size-``target`` subset of 0..n_items-1 that is
    pairwise compatible and hits every cover mask, or None.

    ``compat[i]`` is a bitmask of items compatible with item i.
    ``cover_masks`` are bitmasks over items; every mask must intersect the
    chosen set (ovoids must meet every line, spreads must cover every
    point).  Depth-first in increasing index order, so the first solution
    found is the lexicographically smallest.
    """
    full = (1 << n_items) - 1
    chosen: list[int] = []
    result: list[int] | None = None

    def feasible(chosen_mask: int, cand: int) -> bool:
        if (len(chosen) + (cand.bit_count())) < target:
            return False
        reach = chosen_mask | cand
        return all(mask & reach for mask in cover_masks)

    def dfs(cand: int, chosen_mask: int) -> bool:
        nonlocal result
        if len(chosen) == target:
            result = list(chosen)
            return True
        if not feasible(chosen_mask, cand):
            return False
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            chosen.append(v)
            if dfs(cand & compat[v] & ~((1 << (v + 1)) - 1), chosen_mask | (1 << v)):
                return True
            chosen.pop()
        return False

    dfs(full, 0)
    return tuple(result) if result is not None else None


def ovoid_search(G: IncidenceGeometry):
    """Lexicographically smallest ovoid of a GQ of order (q,q): q^2+1
    pairwise non-collinear points.  Returns None when the exhaustive
    search finds none (e.g. W(q) for odd q)."""
    q = _gq_order(G)
    n = G.n_points
    blocks = G.blocks.tolist()
    collinear = [0] * n
    for blk in blocks:
        for a, b in combinations(blk, 2):
            collinear[a] |= 1 << b
            collinear[b] |= 1 << a
    full = (1 << n) - 1
    compat = [full & ~(collinear[v] | (1 << v)) for v in range(n)]
    line_masks = [sum(1 << p for p in blk) for blk in blocks]
    return _first_cover_solution(n, compat, q * q + 1, line_masks)


def spread_search(G: IncidenceGeometry):
    """Lexicographically smallest spread of a GQ of order (q,q): q^2+1
    pairwise disjoint lines.  Returns None when none exists."""
    q = _gq_order(G)
    m = G.n_blocks
    meets = [0] * m
    through = G.blocks_through().tolist()
    for lines in through:
        for a, b in combinations(lines, 2):
            meets[a] |= 1 << b
            meets[b] |= 1 << a
    full = (1 << m) - 1
    compat = [full & ~(meets[b] | (1 << b)) for b in range(m)]
    point_masks = [sum(1 << b for b in lines) for lines in through]
    return _first_cover_solution(m, compat, q * q + 1, point_masks)
