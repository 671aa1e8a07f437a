import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from geometry_pins import GEOMETRY_SPECS, PLANE_ORDERS, build_uncached, pin_of, plane_pin_of, spec_id
from oracles import _first_cover_solution, dot, incidence, line_through, normalize_point, ovoid_search, rows_through, spread_search

from egrtools import constructions, geometry
from egrtools.constructions import build_pencil_graph
from egrtools.galois import GF, prime_power
from egrtools.geometry import (
    _check_ovoid,
    _check_spread,
    _singer_plane,
    elliptic_quadric,
    pg2_geometry,
    pg_points,
    point_array,
    point_index,
    regular_spread,
    singer_pencil,
    symplectic_gq,
)

FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}
GEOMETRY_PINS = json.loads((Path(__file__).with_name("data") / "geometry_pins.json").read_text())["geometries"]
PLANE_PINS = json.loads((Path(__file__).with_name("data") / "plane_pins.json").read_text())["planes"]


def plane_rows(F) -> np.ndarray:
    """The planes of PG(3,q) as the Singer translates D + t of
    ``_singer_plane`` give them, in the order of the dense incidence: row i
    holds, ascending, the points x with point_i . x = 0.  Plane D + t is
    the zero set of the linear form x -> digit 0 of w^-t x, whose dual
    vector holds digit 0 of w^-t e_j at j, e_j the element with digit j
    alone (index q^j)."""
    point_of, D = _singer_plane(F)
    q, n, E = F.q, len(point_of), F.extension(4)
    t = np.arange(n)[:, None]
    dual = E._exp[(E._log[q ** np.arange(4)] - t) % (q**4 - 1)] % q
    rows = np.empty((n, len(D)), dtype=np.int64)
    rows[point_index(F, dual)] = np.sort(point_of[(D + t) % n], axis=1)
    return rows


def tangent_rows(F) -> np.ndarray:
    """Row p lists, ascending, the points of the tangent plane at p of the
    pencil member through p, read off the pencil graph's left vertex p."""
    G = build_pencil_graph(F)
    return np.array([G.adj[p] for p in range(G.n // 2)]) - G.n // 2


def test_point_counts():
    assert len(pg_points(2, FIELDS[2])) == 7
    assert len(pg_points(3, FIELDS[3])) == 40
    assert len(pg_points(3, FIELDS[4])) == 85


def test_normalization():
    assert normalize_point(FIELDS[5], (0, 2, 4)) == (0, 1, 2)
    with pytest.raises(ValueError):
        normalize_point(FIELDS[5], (0, 0, 0))


def test_points_sorted_and_canonical():
    for q in (2, 3, 4, 5):
        pts = pg_points(2, FIELDS[q])
        assert list(pts) == sorted(pts)
        assert all(normalize_point(FIELDS[q], p) == p for p in pts)
        assert len(set(pts)) == len(pts)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_projective_plane_axioms(q):
    F = FIELDS[q]
    geom = pg2_geometry(F)
    assert geom.n_points == q * q + q + 1
    assert geom.n_blocks == q * q + q + 1
    assert all(len(b) == q + 1 for b in geom.blocks)
    through = rows_through(geom.blocks, geom.n_points)
    assert all(len(t) == q + 1 for t in through)
    # two distinct points lie on exactly one common line
    for a, b in combinations(range(geom.n_points), 2):
        assert len(set(through[a]) & set(through[b])) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symplectic_gq_counts(q):
    F = FIELDS[q]
    geom = symplectic_gq(F)
    assert geom.n_points == q**3 + q**2 + q + 1
    assert geom.n_blocks == (q + 1) * (q * q + 1)
    assert all(len(b) == q + 1 for b in geom.blocks)
    through = rows_through(geom.blocks, geom.n_points)
    assert all(len(t) == q + 1 for t in through)


@pytest.mark.parametrize("name,q", [("pg2", 2), ("pg2", 3), ("pg2", 4), ("pg2", 5), ("w", 2), ("w", 3), ("w", 4)])
def test_blocks_array_and_blocks_through_match_scan(name, q):
    geom = (pg2_geometry if name == "pg2" else symplectic_gq)(FIELDS[q])
    blocks = geom.blocks
    assert isinstance(blocks, np.ndarray) and blocks.dtype == np.int64
    assert blocks.shape == (geom.n_blocks, q + 1)
    assert not blocks.flags.writeable
    with pytest.raises(ValueError):
        blocks[0, 0] = 1
    rows = blocks.tolist()
    assert rows == sorted(rows) and all(row == sorted(row) for row in rows)
    through = rows_through(geom.blocks, geom.n_points)
    assert through.tolist() == [[b for b, row in enumerate(rows) if p in row] for p in range(geom.n_points)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gq_unique_trace_axiom(q):
    geom = symplectic_gq(FIELDS[q])
    through = rows_through(geom.blocks, geom.n_points)
    line_sets = [set(b) for b in geom.blocks]
    collinear = [set() for _ in range(geom.n_points)]
    for blk in geom.blocks:
        for a, b in combinations(blk, 2):
            collinear[a].add(b)
            collinear[b].add(a)
    for P in range(geom.n_points):
        for blk in line_sets:
            if P in blk:
                continue
            assert sum(1 for Q in blk if Q in collinear[P]) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_singer_pencil_partitions_into_caps(q):
    F = FIELDS[q]
    members = singer_pencil(F)  # construction self-verifies sizes and cap property
    assert len(members) == q + 1
    assert all(len(m) == q * q + 1 for m in members)
    union = set()
    for m in members:
        assert union.isdisjoint(m)
        union.update(m)
    assert union == set(range(q**3 + q**2 + q + 1))


def test_singer_pencil_members_have_no_three_collinear_q2():
    F = FIELDS[2]
    pts = pg_points(3, F)
    for member in singer_pencil(F):
        coords = [pts[i] for i in member]
        for a, b, c in combinations(coords, 3):
            line = set(line_through(F, a, b))
            assert c not in line


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_planes_biject_points_to_planes(q):
    F = FIELDS[q]
    # pairwise distinct and exhaust all planes
    assert sorted(tangent_rows(F).tolist()) == sorted(plane_rows(F).tolist())


def test_tangent_plane_counts_planes_through_point():
    F = FIELDS[2]
    pts = pg_points(3, F)
    x = pts[0]
    through = [a for a in pg_points(3, F) if dot(F, a, x) == 0]
    assert len(through) == 7  # q^2 + q + 1


def test_tangent_plane_rejects_non_ovoid(monkeypatch):
    F = FIELDS[2]
    point_of, _ = _singer_plane(F)
    # with runs of 7 consecutive exponents as the "planes", every one meets
    # member 0 (the multiples of 3 mod 15) in 2 or 3 points: no tangents
    monkeypatch.setattr(constructions, "_singer_plane", lambda F: (point_of, np.arange(7)))
    monkeypatch.setattr(constructions, "singer_pencil", lambda F: None)
    with pytest.raises(ArithmeticError, match="without exactly one tangent plane"):
        build_pencil_graph(F)


def test_plane_points_size():
    F = FIELDS[3]
    point_of, D = _singer_plane(F)
    translates = [sorted(point_of[(D + t) % 40].tolist()) for t in range(40)]
    assert [len(set(row)) for row in translates] == [13] * 40  # q^2 + q + 1 points on each plane
    assert len(set(map(tuple, translates))) == 40


def test_ovoid_and_spread_of_w2():
    geom = symplectic_gq(FIELDS[2])
    ovoid = ovoid_search(geom)
    spread = spread_search(geom)
    assert ovoid is not None and len(ovoid) == 5
    assert spread is not None and len(spread) == 5
    # ovoid: pairwise non-collinear
    for a, b in combinations(ovoid, 2):
        assert not any(a in blk and b in blk for blk in geom.blocks)
    # spread: pairwise disjoint, covering all points
    covered = set()
    for b in spread:
        blk = set(geom.blocks[b])
        assert covered.isdisjoint(blk)
        covered |= blk
    assert covered == set(range(geom.n_points))


def test_w3_has_no_ovoid_but_has_spread():
    geom = symplectic_gq(FIELDS[3])
    assert ovoid_search(geom) is None
    spread = spread_search(geom)
    assert spread is not None and len(spread) == 10


def test_w4_has_ovoid_and_spread():
    geom = symplectic_gq(FIELDS[4])
    ovoid = ovoid_search(geom)
    spread = spread_search(geom)
    assert ovoid is not None and len(ovoid) == 17
    assert spread is not None and len(spread) == 17


def test_searches_are_deterministic_and_lex_minimal_on_w2():
    geom = symplectic_gq(FIELDS[2])
    first = ovoid_search(geom)
    assert first == ovoid_search(geom)
    # no lexicographically smaller ovoid exists: check all 5-subsets below it
    from itertools import combinations as comb

    collinear = [set() for _ in range(geom.n_points)]
    for blk in geom.blocks:
        for a, b in comb(blk, 2):
            collinear[a].add(b)
            collinear[b].add(a)
    for cand in comb(range(geom.n_points), 5):
        if cand >= first:
            break
        assert any(b in collinear[a] for a, b in comb(cand, 2))


@pytest.mark.parametrize("dim,q", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4)])
def test_incidence_matches_scalar_form(dim, q):
    F = GF(2, 3) if q == 8 else GF(3, 2) if q == 9 else FIELDS[q]
    pts = pg_points(dim, F)
    assert point_array(dim, F).tolist() == [list(p) for p in pts]
    # the dense oracle against the scalar form, and the plane rows against it
    inc = incidence(F, point_array(dim, F), point_array(dim, F))
    assert inc.tolist() == [[dot(F, a, x) == 0 for x in pts] for a in pts]
    if dim == 3:
        assert plane_rows(F).tolist() == [np.flatnonzero(row).tolist() for row in inc]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_index_inverts_scaling(q):
    F = FIELDS[q]
    pts = point_array(3, F)
    for s in range(1, q):
        scaled = F.tables.mul[s, pts]
        assert point_index(F, scaled).tolist() == list(range(len(pts)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symplectic_lines_match_pairwise_scan(q):
    F = FIELDS[q]
    pts = pg_points(3, F)
    index = {pt: i for i, pt in enumerate(pts)}

    def form(x, y):
        t1 = F.sub(F.mul(x[0], y[1]), F.mul(x[1], y[0]))
        t2 = F.sub(F.mul(x[2], y[3]), F.mul(x[3], y[2]))
        return F.add(t1, t2)

    lines = {
        tuple(sorted(index[z] for z in line_through(F, x, y)))
        for x, y in combinations(pts, 2)
        if form(x, y) == 0
    }
    assert symplectic_gq(F).blocks.tolist() == [list(line) for line in sorted(lines)]


def test_collinear_triples_match_brute_force():
    # singer_pencil's count: a non-collinear triple lies on one plane D + t
    # and a collinear one on q+1, so sum_t C(|S & (D + t)|, 3) = C(|S|, 3) + q
    # times the collinear triples, here for sets S of exponents
    F = FIELDS[3]
    pts = pg_points(3, F)
    point_of, D = _singer_plane(F)

    def by_planes(S):
        c = np.bincount(((np.array(S)[:, None] - D) % 40).ravel())
        return ((c * (c - 1) * (c - 2)).sum() // 6 - math.comb(len(S), 3)) // 3

    def brute(S):
        triples = combinations(point_of[S].tolist(), 3)
        return sum(1 for a, b, c in triples if pts[c] in line_through(F, pts[a], pts[b]))

    rng = random.Random(3)
    for S in [rng.sample(range(40), size) for size in (3, 6, 10, 14)]:
        assert by_planes(S) == brute(S)
    members = [list(range(r, 40, 4)) for r in range(4)]
    assert [by_planes(S) for S in members] == [brute(S) for S in members] == [0] * 4


@pytest.mark.parametrize("q", [2, 3, 4])
def test_tangent_planes_match_single_point_search(q):
    F = FIELDS[q]
    pts = pg_points(3, F)
    rows = tangent_rows(F)
    for member in singer_pencil(F):
        # by the scalar form: the planes that meet the member in one point
        tangent = {}
        for dual in pts:
            on = [i for i in member if dot(F, dual, pts[i]) == 0]
            if len(on) == 1:
                tangent.setdefault(on[0], []).append([i for i, x in enumerate(pts) if dot(F, dual, x) == 0])
        assert [[rows[p].tolist()] for p in member] == [tangent[p] for p in member]


def test_tangent_planes_reject_non_ovoid(monkeypatch):
    F = FIELDS[3]
    point_of, _ = _singer_plane(F)
    # runs of 13 consecutive exponents as the "planes" meet member 0 (the
    # multiples of 4 mod 40) in 3 or 4 points: the count finds collinear triples
    monkeypatch.setattr(geometry, "_singer_plane", lambda F: (point_of, np.arange(13)))
    with pytest.raises(ArithmeticError, match="three collinear points"):
        singer_pencil.__wrapped__(F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pencil_tangent_rows_match_dense_incidence(q):
    F = GF(*prime_power(q))
    pts = point_array(3, F)
    inc = incidence(F, pts, pts)  # row b: the points of the plane with the coordinates of point b
    expected = np.full((len(pts), q * q + q + 1), -1)
    for member in map(list, singer_pencil(F)):
        meets = inc[:, member]
        for b in np.flatnonzero(meets.sum(axis=1) == 1):
            p = member[int(np.argmax(meets[b]))]
            assert (expected[p] == -1).all()  # one tangent plane at each point
            expected[p] = np.flatnonzero(inc[b])
    assert (tangent_rows(F) == expected).all()


def test_singer_plane_rejects_a_corrupted_exponent_map(monkeypatch):
    F = GF(3)
    E = F.extension(4)
    exp = E._exp.copy()
    exp[7] = exp[8]  # w^7 and w^8 at one point, and a point that no power meets
    monkeypatch.setattr(E, "_exp", exp)
    with pytest.raises(ArithmeticError, match="do not meet each point of PG"):
        _singer_plane.__wrapped__(F)


def test_singer_plane_rejects_a_corrupted_difference_set(monkeypatch):
    F = GF(3)
    E = F.extension(4)
    point_of, D = _singer_plane(F)
    a, b = D[1], np.setdiff1d(np.arange(40), D)[0]
    exp = E._exp.copy()
    exp[[a, b]] = exp[[b, a]]  # still one power per point, but D loses a and gains b
    monkeypatch.setattr(E, "_exp", exp)
    with pytest.raises(ArithmeticError, match="not a planar difference set"):
        _singer_plane.__wrapped__(F)


def test_plane_points_match_scalar_form():
    F = FIELDS[4]
    pts = pg_points(3, F)
    for dual in [(0, 0, 0, 1), (1, 2, 3, 1), (2, 3, 1, 0), (3, 0, 0, 0)]:
        row = plane_rows(F)[pts.index(normalize_point(F, dual))]
        assert row.tolist() == [i for i, x in enumerate(pts) if dot(F, dual, x) == 0]


def test_planes_and_lines_build_without_a_dense_array():
    # PG(3,27), with 20440 points, was past the dense incidence cap; its
    # planes are the translates of one difference set, and PG(2,131) lists
    # a row per line
    point_of, D = _singer_plane.__wrapped__(GF(3, 3))
    assert point_of.shape == (20440,) and D.shape == (757,)
    assert pg2_geometry(GF(131)).blocks.shape == (17293, 132)


def test_geometry_pins_cover_the_specs():
    assert [(pin["geometry"], pin["q"]) for pin in GEOMETRY_PINS] == GEOMETRY_SPECS


@pytest.mark.parametrize("spec,pin", zip(GEOMETRY_SPECS, GEOMETRY_PINS), ids=[spec_id(s) for s in GEOMETRY_SPECS])
def test_lines_are_pinned(spec, pin):
    # the blocks array of PG(2,q) or W(q), byte for byte
    assert pin_of(spec, build_uncached(spec)) == pin


def test_plane_pins_cover_the_orders():
    assert [pin["q"] for pin in PLANE_PINS] == PLANE_ORDERS


@pytest.mark.parametrize("pin", PLANE_PINS, ids=[f"PG(3,{pin['q']})" for pin in PLANE_PINS])
def test_planes_are_pinned(pin):
    # the Singer translates, byte for byte as the dense incidence gave the planes
    q = pin["q"]
    assert plane_pin_of(q, plane_rows(GF(*prime_power(q)))) == pin


def test_cover_search_runs_deeper_than_the_recursion_limit():
    import sys

    n = 2 * sys.getrecursionlimit() + 50
    full = (1 << n) - 1
    # every item compatible with every other: the only n-subset is all of them
    assert _first_cover_solution(n, [full] * n, n, [full, 1 << (n - 1)]) == tuple(range(n))
    # items i and i+1 clash, so the first n/2-subset alternates from 0
    compat = [full & ~(1 << max(i - 1, 0) | 1 << i | 1 << min(i + 1, n - 1)) for i in range(n)]
    assert _first_cover_solution(n, compat, (n + 1) // 2, [full]) == tuple(range(0, n, 2))


# recorded from the recursive search, before it kept its own stack; both
# searches are test oracles
SEARCH_PINS = {
    2: ((0, 1, 6, 10, 14), (0, 4, 8, 12, 13)),
    4: ((0, 1, 10, 16, 19, 27, 30, 36, 43, 46, 52, 60, 63, 66, 76, 79, 82),
        (0, 6, 12, 18, 24, 39, 44, 45, 50, 55, 60, 61, 66, 71, 76, 77, 82)),
}


@pytest.mark.parametrize("q", sorted(SEARCH_PINS))
def test_ovoid_and_spread_searches_are_pinned(q):
    geom = symplectic_gq(FIELDS[q])
    assert (ovoid_search(geom), spread_search(geom)) == SEARCH_PINS[q]


def test_elliptic_quadric_is_the_searched_ovoid_of_w4():
    F = FIELDS[4]
    assert tuple(elliptic_quadric(F).tolist()) == ovoid_search(symplectic_gq(F)) == SEARCH_PINS[4][0]


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_elliptic_quadric_meets_every_line_once(q):
    F = GF(*prime_power(q))
    ovoid = elliptic_quadric(F)
    assert len(ovoid) == q * q + 1
    on = np.zeros(len(point_array(3, F)), dtype=int)
    on[ovoid] = 1
    assert (on[symplectic_gq(F).blocks].sum(axis=1) == 1).all()


def test_ovoid_check_refuses_a_swapped_point():
    F = FIELDS[4]
    ovoid = elliptic_quadric(F)
    outside = np.setdiff1d(np.arange(len(point_array(3, F))), ovoid)
    for swap in (0, 8, 16):
        for new in (outside[0], outside[-1]):
            points = np.sort(np.concatenate((np.delete(ovoid, swap), [new])))
            with pytest.raises(ArithmeticError, match="not an ovoid of W"):
                _check_ovoid(F, points)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_elliptic_quadric_needs_q_even(q):
    with pytest.raises(ValueError, match="no ovoid for odd q"):
        elliptic_quadric(GF(*prime_power(q)))


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_regular_spread_is_the_searched_spread(q):
    F = GF(*prime_power(q))
    assert tuple(regular_spread(F).tolist()) == spread_search(symplectic_gq(F))


def test_regular_spread_of_w32_is_the_searched_spread():
    # sha256 of spread_search at q = 32, printed by data/make_spread_pin.py
    searched = "9c74e02d4d04499494d95dc362cf827e80c43d84fdb8da2f60515ce8b085ce72"
    spread = np.asarray(regular_spread(GF(2, 5)), dtype="<i8")
    assert hashlib.sha256(spread.tobytes()).hexdigest() == searched


def test_spread_check_refuses_a_swapped_line():
    F = FIELDS[4]
    spread, blocks = regular_spread(F), symplectic_gq(F).blocks
    for swap in (0, 8, 16):
        # the other lines through the first and last point of the swapped line
        meeting = np.flatnonzero(np.isin(blocks, blocks[spread[swap], [0, -1]]).any(axis=1))
        for new in np.setdiff1d(meeting, spread)[[0, -1]]:
            lines = np.sort(np.concatenate((np.delete(spread, swap), [new])))
            with pytest.raises(ArithmeticError, match="not a spread of W"):
                _check_spread(F, lines)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_regular_spread_needs_q_even(q):
    with pytest.raises(ValueError, match="even q only"):
        regular_spread(GF(*prime_power(q)))
