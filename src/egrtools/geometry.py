"""Projective geometries over GF(q) as numpy index arrays: PG(2,q),
PG(3,q) and its planes, the symplectic generalized quadrangle W(q),
pencils of ovoids from a Singer cycle, tangent planes, the elliptic-quadric
ovoid of W(q) for q even, and a deterministic spread search.

Points are the rows of an (N x d) array of field-element indices
(``point_array``), normalized so the first nonzero coordinate is 1 and
sorted lexicographically; ``pg_points`` gives the same points as tuples.
A hyperplane is named by the same kind of canonical vector, its dual
coordinates, so plane i of PG(3,q) is the plane with the coordinates of
point i.

One enumerator lists every subspace once, as a sorted row of point
indices, from its reduced row-echelon basis: the lines of PG(2,q), the
totally isotropic lines of W(q) (Payne & Thas, Finite Generalized
Quadrangles, 3.1) and the planes of PG(3,q) (``plane_rows``), with no
dense points x planes array.  An ``IncidenceGeometry`` holds its lines as
one read-only (blocks x (q+1)) int64 array, which builders index and mask
directly.  Every enumeration is in lexicographic order, so indices are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .galois import Field


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
    nonzero row of the (K x d) array ``vectors``, in int32 while q**d fits
    it.  Scaled to lead with 1 and read as a base-q number v, a row leading
    at position d-1-m lies in [q**m, 2 q**m): its index is v - q**m plus
    the (q**m - 1)/(q - 1) points that lead later."""
    q, (K, d) = F.q, vectors.shape
    tab = F.tables
    lead = (vectors != 0).argmax(axis=1)
    canon = tab.mul[tab.inv[vectors[np.arange(K), lead]][:, None], vectors]
    v = np.zeros(K, dtype=np.int32 if q**d < 2**31 else np.int64)
    for c in range(d):
        v *= q
        v += canon[:, c]
    tops = (q ** np.arange(d)).astype(v.dtype)
    offset = tops - (tops - 1) // (q - 1)
    v -= offset[tops.searchsorted(v, side="right") - 1]
    return v


# eq=False: numpy compares the blocks arrays entrywise, so field-wise == and
# hash do not apply; geometries compare by identity.
@dataclass(frozen=True, eq=False)
class IncidenceGeometry:
    """Point-block incidence structure with indexed points and blocks.

    coords: read-only (points x d) array of canonical point coordinates,
        lexicographically sorted (``point_array``).
    blocks: read-only (blocks x (q+1)) int64 array; row b holds the point
        indices of block b in ascending order, and the rows are sorted
        lexicographically.
    """

    coords: np.ndarray
    blocks: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.coords)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def blocks_through(self) -> np.ndarray:
        """(points x (q+1)) array: row p lists, ascending, the blocks through
        point p, each point being on equally many (as in PG(2,q) and W(q))."""
        return rows_through(self.blocks, self.n_points)


def rows_through(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse of an (m x k) array holding each index 0..n-1 equally often:
    row p lists, ascending, the rows that hold p."""
    return (np.argsort(rows, axis=None, kind="stable") // rows.shape[1]).reshape(n, -1)


def _echelon_bases(F: Field, dim: int, rank: int):
    """For each pivot tuple p_0 < ... < p_{rank-1}, the pivots and the
    reduced echelon bases (b_0, ..., b_{rank-1}) of the subspaces of
    GF(q)^(dim+1) with those pivots, as uint8 arrays: b_l runs over the
    points leading at p_l with a 0 at every later pivot."""
    pts = point_array(dim, F).astype(np.uint8)
    lead = (pts != 0).argmax(axis=1)
    for pivots in combinations(range(dim + 1), rank):
        choices = [pts[(lead == p) & (pts[:, pivots[l + 1 :]] == 0).all(axis=1)] for l, p in enumerate(pivots)]
        picks = np.indices([len(c) for c in choices]).reshape(rank, -1)
        yield pivots, [c[i] for c, i in zip(choices, picks)]


def _subspace_rows(F: Field, dim: int, groups) -> np.ndarray:
    """A sorted row of point indices per subspace of ``groups``, as
    ``_echelon_bases`` lists them.  The points leading at p_l are b_l +
    sum_{m>l} t_m b_m, canonical as they stand (1 at p_l, t_m at p_m), so
    the index of each, as in ``point_index``, is summed column by column
    with field arithmetic only in the columns that are no pivot."""
    tab, q = F.tables, F.q
    dtype = np.int32 if q ** (dim + 1) < 2**31 else np.int64
    w = (q ** np.arange(dim, -1, -1)).astype(dtype)  # place value of each coordinate
    t = np.arange(q, dtype=dtype)
    rows = []
    for pivots, basis in groups:
        free = [c for c in range(dim + 1) if c not in pivots]
        parts = []
        for l, lead in enumerate(pivots):
            base = np.full(1, (w[lead] - 1) // (q - 1), dtype=dtype)
            for p in pivots[l + 1 :]:
                base = (base[:, None] + t * w[p]).ravel()
            index = np.repeat(base[None, :], len(basis[l]), axis=0)
            for c in free:
                x = basis[l][:, c, None]
                for b in basis[l + 1 :]:
                    x = tab.add[x[:, :, None], tab.mul[t, b[:, c, None]][:, None, :]].reshape(len(x), x.shape[1] * q)
                index += x.astype(dtype) * w[c]
            parts.append(index)
        rows.append(np.concatenate(parts, axis=1))
    return np.sort(np.concatenate(rows), axis=1)


def _geometry(F: Field, dim: int, groups) -> IncidenceGeometry:
    """The points of PG(dim, q) with a line per echelon basis in
    ``groups``.  ArithmeticError unless, as in PG(2,q) and W(q), there are
    as many lines as points, q+1 on each line and q+1 through each."""
    q, n = F.q, len(point_array(dim, F))
    blocks = _subspace_rows(F, dim, groups).astype(np.int64)
    # two lines share at most one point, so their first two points order
    # them; distinct pairs (checked) make that the lexicographic order
    blocks = blocks[np.lexsort((blocks[:, 1], blocks[:, 0]))]
    pairs = blocks[:, 0] * n + blocks[:, 1]
    ok = len(blocks) == n and (pairs[1:] > pairs[:-1]).all() and (blocks[:, 1:] > blocks[:, :-1]).all()
    if not (ok and (np.bincount(blocks.ravel(), minlength=n) == q + 1).all()):
        raise ArithmeticError(f"lines of PG({dim},{q}) do not form the geometry; field arithmetic is broken")
    blocks.setflags(write=False)
    return IncidenceGeometry(coords=point_array(dim, F), blocks=blocks)


@lru_cache(maxsize=None)
def pg2_geometry(F: Field) -> IncidenceGeometry:
    """The projective plane PG(2,q): q^2+q+1 points and lines, one line
    for every echelon basis of a 2-space of GF(q)^3."""
    return _geometry(F, 2, _echelon_bases(F, 2, 2))


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

    return _geometry(F, 3, ((pivots, isotropic(*basis)) for pivots, basis in _echelon_bases(F, 3, 2)))


@lru_cache(maxsize=None)
def plane_rows(F: Field) -> np.ndarray:
    """The planes of PG(3,q) as a read-only (N x (q^2+q+1)) int64 array:
    row i holds, ascending, the points x with point_i . x = 0.  The form is
    symmetric, so row i also lists the planes through point i.  A 3-space
    with echelon basis b, pivots all columns but m, has the dual vector
    with 1 at m and -b_l[m] at the pivot of b_l.  ArithmeticError unless
    the duals are the N points and each point is on q^2+q+1 planes."""
    q, neg = F.q, F.tables.neg
    n = len(point_array(3, F))
    groups = list(_echelon_bases(F, 3, 3))
    duals = []
    for pivots, basis in groups:
        m = 6 - sum(pivots)  # the column that is no pivot
        d = np.ones((len(basis[0]), 4), dtype=np.uint8)
        d[:, pivots] = neg[np.stack([b[:, m] for b in basis], axis=1)]
        duals.append(d)
    rows = _subspace_rows(F, 3, groups).astype(np.int64)
    plane = point_index(F, np.concatenate(duals))
    planes = np.full(n, -1, dtype=np.int64)
    planes[plane] = np.arange(len(plane))
    ok = len(plane) == n and (planes >= 0).all() and (rows[:, 1:] > rows[:, :-1]).all()
    if not (ok and (np.bincount(rows.ravel(), minlength=n) == q * q + q + 1).all()):
        raise ArithmeticError(f"planes of PG(3,{q}) do not form the geometry; field arithmetic is broken")
    rows = rows[planes]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def singer_pencil(F: Field) -> tuple[tuple[int, ...], ...]:
    """Partition of the points of PG(3,q) into q+1 disjoint ovoids.

    PG(3,q) points are identified with GF(q^4)* / GF(q)*.  Multiplication
    by a generator w of GF(q^4)* induces a cyclic (Singer) permutation of
    the q^3+q^2+q+1 points; the orbits of its subgroup of order q^2+1
    (generated by the (q+1)-st power) are the pencil members, returned as
    q+1 sorted tuples of point indices.  ArithmeticError, an arithmetic
    bug, unless they partition the points and none holds three collinear
    points.
    """
    q = F.q
    E = F.extension(4)
    n = (q**4 - 1) // (q - 1)  # q^3 + q^2 + q + 1; w^t for t < n meets each point once
    point_of_exponent = point_index(F, (E._exp[:n, None] // q ** np.arange(4)) % q)
    if not (np.sort(point_of_exponent) == np.arange(n)).all():
        raise ArithmeticError("pencil members do not partition PG(3,q)")
    # q+1 orbits of q^2+1 exponents each, r, r + q+1, ...: a partition, as no point repeats
    members = np.sort(point_of_exponent.reshape(-1, q + 1).T, axis=1)
    if _collinear_triples(F, members).any():
        raise ArithmeticError("pencil member contains three collinear points")
    return tuple(map(tuple, members.tolist()))


def _plane_meets(F: Field, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an (m x s) array whose row i holds s distinct points of PG(3,q),
    the (row, plane) pairs of the planes through each point, as codes
    i * planes + plane in an (m x s x (q^2+q+1)) array (row r of
    ``plane_rows`` lists the planes through point r), and the count of
    each code, |plane & row i|, from one bincount."""
    rows = plane_rows(F)
    codes = rows[sets]
    codes += len(rows) * np.arange(len(sets))[:, None, None]
    return codes, np.bincount(codes.ravel(), minlength=len(sets) * len(rows))


def _collinear_triples(F: Field, sets: np.ndarray) -> np.ndarray:
    """Number of collinear triples in each row of an (m x s) array of
    distinct PG(3,q) points.  A non-collinear triple lies on one plane and
    a collinear one on q+1, so the sum over planes of C(|plane & row|, 3)
    is C(s, 3) plus q times the collinear triples."""
    c = _plane_meets(F, sets)[1].reshape(len(sets), -1)
    on_planes = (c * (c - 1) * (c - 2)).sum(axis=1) // 6
    return (on_planes - math.comb(sets.shape[1], 3)) // F.q


def _tangent_planes(F: Field, sets: np.ndarray) -> np.ndarray:
    """The tangent plane of each point of an (m x s) array of distinct
    PG(3,q) points, row by row: the one plane meeting the point's row in
    that point alone.  ValueError unless every point has exactly one."""
    codes, c = _plane_meets(F, sets)
    tangent = c[codes] == 1
    counts = tangent.sum(axis=2)
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        raise ValueError(
            f"expected exactly one tangent plane through point {sets.flat[bad[0]]}, "
            f"found {counts.flat[bad[0]]}; the point set is not an ovoid"
        )
    return codes[tangent].reshape(sets.shape) % len(plane_rows(F))


def elliptic_quadric(F: Field) -> np.ndarray:
    """The ovoid of W(q), q even, as ascending point indices: the zeros of
    the elliptic quadric Q(x) = d x0^2 + x0 x1 + x1^2 + x2 x3, d the
    smallest field element of absolute trace 1 (Payne & Thas, Finite
    Generalized Quadrangles, 1.8 and 3.2).  In characteristic 2 the polar
    form of Q is W(q)'s alternating form, and with trace 1, x^2 + x + d has
    no root, so Q is elliptic.  ValueError for odd q; ArithmeticError, an
    arithmetic bug, unless the zeros are q^2+1 points and every line of
    W(q) meets them once (``_check_ovoid``)."""
    if F.p != 2:
        raise ValueError(f"W({F.q}) has no ovoid for odd q; construction unavailable")
    add, mul = F.tables.add, F.tables.mul
    trace = power = np.arange(F.q)
    for _ in range(F.e - 1):  # x + x^2 + x^4 + ... + x^(q/2)
        power = mul[power, power]
        trace = add[trace, power]
    d = int(np.argmax(trace == 1))
    x0, x1, x2, x3 = point_array(3, F).T
    form = add[add[mul[d, mul[x0, x0]], mul[x0, x1]], add[mul[x1, x1], mul[x2, x3]]]
    return _check_ovoid(F, np.flatnonzero(form == 0))


def _check_ovoid(F: Field, points: np.ndarray) -> np.ndarray:
    """``points`` when they are q^2+1 points of W(q) and every line of W(q)
    meets them once; else ArithmeticError."""
    q, blocks = F.q, symplectic_gq(F).blocks
    on = np.zeros(len(point_array(3, F)), dtype=bool)
    on[points] = True
    if len(points) != q * q + 1 or not (on[blocks].sum(axis=1) == 1).all():
        raise ArithmeticError(f"the elliptic quadric is not an ovoid of W({q}); field arithmetic is broken")
    return points


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


def _cover_search(rows: list[list[int]], n_items: int, target: int):
    """``_first_cover_solution`` over items 0..n_items-1 where the items of
    one row clash pairwise and every row must be hit."""
    clash = [0] * n_items
    for row in rows:
        for a, b in combinations(row, 2):
            clash[a] |= 1 << b
            clash[b] |= 1 << a
    full = (1 << n_items) - 1
    compat = [full & ~(clash[v] | (1 << v)) for v in range(n_items)]
    return _first_cover_solution(n_items, compat, target, [sum(1 << v for v in row) for row in rows])


def spread_search(G: IncidenceGeometry):
    """Lexicographically smallest spread of a GQ of order (q,q): q^2+1
    pairwise disjoint lines, covering every point.  Returns None when none
    exists."""
    q = G.blocks.shape[1] - 1
    return _cover_search(G.blocks_through().tolist(), G.n_blocks, q * q + 1)
