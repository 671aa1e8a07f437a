"""Projective geometries over GF(q) as numpy index arrays: PG(2,q),
PG(3,q) and its Singer cycle, the symplectic generalized quadrangle W(q),
pencils of ovoids, and the elliptic-quadric ovoid and the regular spread
of W(q) for q even, each in closed form and checked as it is built.

Points are the rows of an (N x d) array of field-element indices
(``point_array``), normalized so the first nonzero coordinate is 1 and
sorted lexicographically; ``pg_points`` gives the same points as tuples.

One enumerator lists every line once, as a sorted row of point indices,
from its reduced row-echelon basis: the lines of PG(2,q) and the totally
isotropic lines of W(q) (Payne & Thas, Finite Generalized Quadrangles,
3.1), with no dense points x points array.  An ``IncidenceGeometry``
holds its lines as one read-only (blocks x (q+1)) int64 array, which
builders index and mask directly; no points x blocks inverse is formed.
Every enumeration is in lexicographic order, so indices are reproducible.
The planes of PG(3,q) are not enumerated: numbered by the powers of a
generator of GF(q^4), the points of one plane form a planar difference
set D mod (q^4-1)/(q-1), and every plane is a translate D + t
(``_singer_plane``; Singer 1938).
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


def _echelon_bases(F: Field, dim: int):
    """For each pivot pair p0 < p1, the pivots and the reduced echelon bases
    (b0, b1) of the lines of PG(dim,q) with those pivots, as uint8 arrays:
    b0 runs over the points leading at p0 with a 0 at p1, b1 over the
    points leading at p1, in every pairing."""
    pts = point_array(dim, F).astype(np.uint8)
    lead = (pts != 0).argmax(axis=1)
    for p0, p1 in combinations(range(dim + 1), 2):
        b0, b1 = pts[(lead == p0) & (pts[:, p1] == 0)], pts[lead == p1]
        yield (p0, p1), (np.repeat(b0, len(b1), axis=0), np.tile(b1, (len(b0), 1)))


def _line_rows(F: Field, dim: int, groups) -> np.ndarray:
    """A sorted row of point indices per line of ``groups``, as
    ``_echelon_bases`` lists them.  The line's points are b1 and b0 + t b1,
    t in GF(q), canonical as they stand (1 at p1, or 1 at p0 and t at p1),
    so the index of each, as in ``point_index``, is summed column by column
    with field arithmetic only in the columns that are no pivot."""
    tab, q = F.tables, F.q
    dtype = np.int32 if q ** (dim + 1) < 2**31 else np.int64
    w = (q ** np.arange(dim, -1, -1)).astype(dtype)  # place value of each coordinate
    t = np.arange(q, dtype=dtype)
    rows = []
    for (p0, p1), (b0, b1) in groups:
        moving = np.repeat(((w[p0] - 1) // (q - 1) + t * w[p1])[None, :], len(b0), axis=0)  # b0 + t b1
        fixed = np.full(len(b1), (w[p1] - 1) // (q - 1), dtype=dtype)  # b1
        for c in [c for c in range(dim + 1) if c not in (p0, p1)]:
            moving += tab.add[b0[:, c, None], tab.mul[t, b1[:, c, None]]].astype(dtype) * w[c]
            fixed += b1[:, c].astype(dtype) * w[c]
        rows.append(np.concatenate((moving, fixed[:, None]), axis=1))
    return np.sort(np.concatenate(rows), axis=1)


def _geometry(F: Field, dim: int, groups) -> IncidenceGeometry:
    """The points of PG(dim, q) with a line per echelon basis in
    ``groups``.  ArithmeticError unless, as in PG(2,q) and W(q), there are
    as many lines as points, q+1 on each line and q+1 through each."""
    q, n = F.q, len(point_array(dim, F))
    blocks = _line_rows(F, dim, groups).astype(np.int64)
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

    return _geometry(F, 3, ((pivots, isotropic(*basis)) for pivots, basis in _echelon_bases(F, 3)))


@lru_cache(maxsize=None)
def _singer_plane(F: Field) -> tuple[np.ndarray, np.ndarray]:
    """The Singer cycle of PG(3,q) as exponents (Singer 1938).  With w the
    generator of GF(q^4)* and n = (q^4 - 1)/(q - 1), the powers w^i, i < n,
    meet each point once: ``point_of[i]`` is the point index of w^i, its
    base-q digits read as coordinates.  Multiplication by w is GF(q)-linear,
    so plane D + t (mod n) is a plane for every t, D the exponents of the
    plane x0 = 0, and these are the n planes.  ArithmeticError unless
    point_of is a bijection and D is a planar difference set: every nonzero
    residue mod n is d - d' exactly q+1 times, as two planes share a line."""
    q, exp = F.q, F.extension(4)._exp
    n = (q**4 - 1) // (q - 1)
    point_of = point_index(F, (exp[:n, None] // q ** np.arange(4)) % q)
    if not (np.sort(point_of) == np.arange(n)).all():
        raise ArithmeticError(f"the powers of w do not meet each point of PG(3,{q}) once")
    D = np.flatnonzero(exp[:n] % q == 0)
    differences = np.bincount(((D[:, None] - D) % n).ravel(), minlength=n)
    if differences[0] != q * q + q + 1 or not (differences[1:] == q + 1).all():
        raise ArithmeticError(f"the plane x0 = 0 of PG(3,{q}) is not a planar difference set")
    return point_of, D


@lru_cache(maxsize=None)
def singer_pencil(F: Field) -> tuple[tuple[int, ...], ...]:
    """Partition of the points of PG(3,q) into q+1 disjoint ovoids.

    The orbits of the subgroup of order q^2+1 of the Singer cycle
    (``_singer_plane``), generated by w^(q+1), are the pencil members:
    member r holds the exponents r, r + q+1, ..., returned as q+1 sorted
    tuples of point indices.  ArithmeticError, an arithmetic bug, when a
    member holds three collinear points.  Member r and plane D + t are
    member 0 and plane D + t - r moved by w^r, so member 0 speaks for all:
    a non-collinear triple lies on one plane and a collinear one on q+1, so
    the sum over planes of C(|plane & member 0|, 3) is C(q^2+1, 3) plus q
    times the collinear triples.
    """
    q, (point_of, D) = F.q, _singer_plane(F)
    n = len(point_of)
    c = np.bincount(((np.arange(0, n, q + 1)[:, None] - D) % n).ravel())
    if (c * (c - 1) * (c - 2)).sum() // 6 != math.comb(q * q + 1, 3):
        raise ArithmeticError("pencil member contains three collinear points")
    return tuple(map(tuple, np.sort(point_of.reshape(-1, q + 1).T, axis=1).tolist()))


def _absolute_trace(F: Field) -> np.ndarray:
    """Tr(x) = x + x^2 + x^4 + ... + x^(q/2) of every element x of GF(q),
    q even, indexed by x: 0 or 1, as Tr maps GF(q) onto GF(2)."""
    add, mul = F.tables.add, F.tables.mul
    trace = power = np.arange(F.q)
    for _ in range(F.e - 1):
        power = mul[power, power]
        trace = add[trace, power]
    return trace


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
    d = int(np.argmax(_absolute_trace(F) == 1))
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


def regular_spread(F: Field) -> np.ndarray:
    """A spread of W(q), q even, as ascending line indices: the lines of
    W(q) that are totally isotropic for a second alternating form too,
    B2(x, y) = d (x0 y1 + x1 y0) + (x0 y3 + x3 y0) + (x1 y2 + x2 y1), d the
    smallest field element with Tr(1/d) = 1 (a regular spread; Payne &
    Thas, Finite Generalized Quadrangles, 1.8 and 3.2).  A line is
    isotropic when B2 vanishes on its first two points, which span it.
    Every form B2 + t B1 of the pencil, B1 W(q)'s own form, has Pfaffian
    t^2 + d t + 1, which has no root as Tr(1/d^2) = Tr(1/d) = 1; so none
    is degenerate, and through each point x the one line on both x^B1 and
    x^B2 is the one spread line.  It is the lexicographically smallest
    spread of W(q) at q = 2, 4, 8, 16 and 32.  ValueError for odd q;
    ArithmeticError, an arithmetic bug, unless the lines are q^2+1 and
    cover every point once (``_check_spread``)."""
    if F.p != 2:
        raise ValueError(f"the regular spread of W({F.q}) is built for even q only")
    add, mul, inv = F.tables.add, F.tables.mul, F.tables.inv
    d = int(np.argmax(_absolute_trace(F)[inv] == 1))
    coords, blocks = point_array(3, F), symplectic_gq(F).blocks
    r, s = coords[blocks[:, 0]].T, coords[blocks[:, 1]].T

    def polar(i, j):  # x_i y_j + x_j y_i
        return add[mul[r[i], s[j]], mul[r[j], s[i]]]

    form = add[add[mul[d, polar(0, 1)], polar(0, 3)], polar(1, 2)]
    return _check_spread(F, np.flatnonzero(form == 0))


def _check_spread(F: Field, lines: np.ndarray) -> np.ndarray:
    """``lines`` when they are q^2+1 lines of W(q) that cover every point
    once; else ArithmeticError."""
    q, blocks = F.q, symplectic_gq(F).blocks
    covered = np.bincount(blocks[lines].ravel(), minlength=len(point_array(3, F)))
    if len(lines) != q * q + 1 or not (covered == 1).all():
        raise ArithmeticError(f"the regular spread is not a spread of W({q}); field arithmetic is broken")
    return lines
