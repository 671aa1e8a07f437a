import hashlib
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from geometry_pins import PENCIL_ORDERS, _prime_powers, pencil_pin_of
from oracles import biaffine_keep_masks, gq_truncation_keep_masks

from egrtools import galois
from egrtools.bounds import certify_extremal
from egrtools.constructions import (
    FAMILIES,
    MAX_NAMED_SIZE,
    MAX_ORDER,
    _truncation,
    build_biaffine,
    build_gq_truncation,
    build_ovoid_spread,
    build_pencil_graph,
    check_order,
    complete_bipartite,
    cycle_graph,
    named_degree,
    named_graph,
    named_order,
)
from egrtools.galois import GF, prime_power
from egrtools.geometry import pg2_geometry, symplectic_gq
from egrtools.graph_core import EgrSignature, Graph, graph6_encode, verify_egr

F = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}


def _signature_of(G):
    sig = verify_egr(G)
    assert sig.bipartite
    return (sig.n, sig.k, sig.g, sig.lam)


# each family's closed form written out, checked against the build and FAMILIES
@pytest.mark.parametrize("q", [3, 4, 5])
def test_biaffine_type1_signature(q):
    expected = (2 * q * q, q, 6, (q - 1) ** 2 * (q - 2))
    assert _signature_of(build_biaffine(F[q], 1)) == expected == FAMILIES["biaffine1"].signature(q)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_biaffine_type2_signature(q):
    expected = (2 * q * q - 2, q, 6, (q - 1) * (q * q - 3 * q + 3))
    assert _signature_of(build_biaffine(F[q], 2)) == expected == FAMILIES["biaffine2"].signature(q)


@pytest.mark.parametrize("q", [3, 4])
def test_gq_truncation_signature(q):
    expected = (2 * q**3, q, 8, (q - 1) ** 2 * ((q - 2) ** 2 + 1))
    assert _signature_of(build_gq_truncation(F[q])) == expected == FAMILIES["gq_truncation"].signature(q)


def test_ovoid_spread_signature():
    # egr(2q(q^2+1), q, 8, ((q-1)(q-2))^2) (Kiss, Miklavic and Szonyi)
    for field, expected in ((F[4], (136, 4, 8, 36)), (GF(2, 3), (1040, 8, 8, 1764))):
        q = field.q
        assert expected == (2 * q * (q * q + 1), q, 8, ((q - 1) * (q - 2)) ** 2)
        assert _signature_of(build_ovoid_spread(field)) == expected == FAMILIES["ovoid_spread"].signature(q)


@pytest.mark.parametrize("q", [2, 3])
def test_pencil_signature(q):
    n = q**3 + q**2 + q + 1
    expected = (2 * n, q * q + q + 1, 4, q**3 + q**2)
    assert _signature_of(build_pencil_graph(F[q])) == expected == FAMILIES["pencil"].signature(q)


def test_gq_truncation_deletion_counts():
    q = 3
    geom = symplectic_gq(F[q])
    G = build_gq_truncation(F[q])
    points_kept = sum(1 for lbl in G.labels if lbl[0] == "point")
    lines_kept = G.n - points_kept
    assert geom.n_points - points_kept == 1 + (q + 1) * q
    assert geom.n_blocks - lines_kept == q + 1 + q * q


def test_pencil_contains_diagonal_edges():
    G = build_pencil_graph(F[2])
    half = G.n // 2
    for p in range(half):
        assert G.has_edge(p, half + p)


def test_truncation_masks_match_the_masks_they_replace():
    # keep masks only, nothing built
    for q in _prime_powers(49):
        geom = pg2_geometry(GF(*prime_power(q)))
        for kind in (1, 2):
            for got, expected in zip(_truncation(geom, kind == 1, 1), biaffine_keep_masks(geom, kind)):
                assert np.array_equal(got, expected), (kind, q)
    for q in _prime_powers(16):
        geom = symplectic_gq(GF(*prime_power(q)))
        for got, expected in zip(_truncation(geom, True, 2), gq_truncation_keep_masks(geom)):
            assert np.array_equal(got, expected), q


def test_builders_reject_degenerate_q():
    # check_order reads the degree off each family's closed form; at q = 2
    # only the pencil's is 3 or more
    for family in ("biaffine1", "biaffine2", "gq_truncation", "ovoid_spread"):
        message = rf"^{family} at q = 2 has degree 2; verification needs degree k >= 3$"
        with pytest.raises(ValueError, match=message):
            check_order(family, 2)
        with pytest.raises(ValueError, match=message):
            FAMILIES[family].build(F[2])
    check_order("pencil", 2)
    with pytest.raises(ValueError, match="no ovoid"):
        build_ovoid_spread(F[3])
    with pytest.raises(ValueError, match="kind must be 1 or 2"):
        build_biaffine(F[3], 3)


def test_bipartition_respects_labels():
    for G in (
        build_biaffine(F[3], 1),
        build_biaffine(F[3], 2),
        build_gq_truncation(F[3]),
        build_ovoid_spread(F[4]),
        build_pencil_graph(F[2]),
    ):
        colors = nx.bipartite.color(nx.Graph(G.edges()))
        sides = {lbl[0]: set() for lbl in G.labels}
        for v, lbl in enumerate(G.labels):
            sides[lbl[0]].add(colors[v])
        left, right = sorted(sides)
        assert sides[left] != sides[right]
        assert all(len(s) == 1 for s in sides.values())


def test_builders_are_deterministic():
    a = build_biaffine(F[3], 1)
    b = build_biaffine(F[3], 1)
    assert a.adj == b.adj and list(a.labels) == list(b.labels)
    assert build_pencil_graph(F[2]).adj == build_pencil_graph(F[2]).adj


def test_named_graphs():
    assert verify_egr(named_graph("petersen")).n == 10
    assert named_graph("heawood").n == 14
    assert named_graph("tutte_coxeter").n == 30
    assert named_graph("complete_bipartite(4)").n == 8
    assert named_graph("cycle(6)").n == 6
    with pytest.raises(ValueError, match="unknown graph name"):
        named_graph("kneser")


def test_sized_named_graphs_match_their_edge_lists():
    for k in (1, 2, 5):
        edges = [(i, k + j) for i in range(k) for j in range(k)]
        G = complete_bipartite(k)
        assert G.adj == Graph.from_edges(2 * k, edges).adj
        assert G.labels == [("left", i) for i in range(k)] + [("right", i) for i in range(k)]
    for n in (3, 4, 9):
        assert cycle_graph(n).adj == Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).adj


@pytest.mark.parametrize("name", ["complete_bipartite", "cycle"])
def test_named_size_cap_is_checked_before_building(name):
    cap = MAX_NAMED_SIZE[name]
    builder = complete_bipartite if name == "complete_bipartite" else cycle_graph
    with pytest.raises(ValueError, match=rf"{name}\({cap + 1}\) is past the size cap {name}\({cap}\)"):
        builder(cap + 1)
    with pytest.raises(ValueError, match="past the size cap"):
        named_order(f"{name}({cap + 1})")
    assert named_order(f"{name}({cap})") == (2 * cap if name == "complete_bipartite" else cap)


def test_named_order_matches_the_built_graph():
    for name in ("petersen", "hoffman_singleton", "heawood", "tutte_coxeter", "complete_bipartite(4)", "cycle(7)"):
        G = named_graph(name)
        assert named_order(name) == G.n
        assert (G.deg == named_degree(name)).all()


def test_named_graph_values():
    sig = verify_egr(named_graph("hoffman_singleton"))
    assert (sig.n, sig.k, sig.g, sig.lam) == (50, 7, 5, 36)
    k33 = verify_egr(complete_bipartite(3))
    assert (k33.n, k33.k, k33.g, k33.lam) == (6, 3, 4, 4)


def test_heawood_is_extremal_reference():
    sig = verify_egr(named_graph("heawood"))
    assert certify_extremal(sig).certified


def test_cycle_graph_bounds_args():
    with pytest.raises(ValueError):
        cycle_graph(2)


@pytest.mark.parametrize(
    "family,q",
    [(f, q) for f in ("biaffine1", "biaffine2", "gq_truncation") for q in (3, 4, 5, 7, 8, 9)]
    + [("ovoid_spread", q) for q in (4, 8)]
    + [("pencil", q) for q in (2, 3, 4, 5, 7, 8, 9)],
)
def test_family_order_is_the_built_order(family, q):
    # the row's whole closed form, its order n included, is the verified signature
    row = FAMILIES[family]
    sig = verify_egr(row.build(GF(*prime_power(q))))
    assert (sig.n, sig.k, sig.g, sig.lam) == row.signature(q)
    assert sig.bipartite


# gap = n - best lower bound of each closed form, as certify_extremal gives
# it; the paper's Remark puts gq_truncation's at 2(6q-10), from q = 5 on
EXTREMALITY_GAP = {
    "biaffine1": lambda q: 0,
    "biaffine2": lambda q: 0,
    "gq_truncation": lambda q: {3: 18, 4: 30}.get(q, 2 * (6 * q - 10)),
    "ovoid_spread": lambda q: 12 * q - 16,
    "pencil": lambda q: 0,
}


def _orders_taken(family):
    """Each q up to the family's size cap that its builder takes: a prime
    power, 3 or more (2 or more for the pencil), even for ovoid_spread."""
    low = 2 if family == "pencil" else 3
    return [q for q in _prime_powers(MAX_ORDER[family]) if q >= low and (family != "ovoid_spread" or q % 2 == 0)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_extremality_gap_of_each_closed_form_up_to_the_cap(family):
    # nothing is built
    for q in _orders_taken(family):
        # every family is the Levi graph of an incidence structure, so bipartite
        verdict = certify_extremal(EgrSignature(*FAMILIES[family].signature(q), bipartite=True))
        assert verdict.gap == EXTREMALITY_GAP[family](q), q


# sha256 of graph6_encode of each family/q, recorded with the per-element
# (scalar field arithmetic, per-pair geometry scan) implementation.
GRAPH6_SHA256 = {
    ("biaffine1", 3): "d6bdca56a65d918d1d872d9dded8900e27f219347e005630cd7c8b6f3f0b7f5f",
    ("biaffine1", 4): "c305de1d0fa4164889cbb235256a5a849261f55e19f1cb2af1d0d1ffed2f8ae0",
    ("biaffine1", 5): "6a9f8c1d8e7ded142a77fd1fb919a8642104366afd6e6e9e7e758df08b8b063a",
    ("biaffine1", 7): "7369e78c3511bca161f5e235183ac5b12115bbb10948de14a5adfbe21c839d9d",
    ("biaffine1", 8): "46b5bdf59188eab80f2bc9fc20b540c470f4d3293e74b665fb4a3375e7a50c1c",
    ("biaffine1", 9): "7c68c4cc7e9bf12a47904e379460da2f09ac979c3b68d59182b73cecc920c5bf",
    ("biaffine1", 11): "7b650301b50e9564e0f7f68021dbbfa9ffdf819279441a9242be7c7c72958d76",
    ("biaffine2", 3): "13a90b8f1dd6737337be766b428bb36ce442787efe126bafff991344369fc118",
    ("biaffine2", 4): "57083bc4a42e3fd9e3ffdf4c20516647d56dc303ba4433718da80c2a97c5b828",
    ("biaffine2", 5): "a8f07b8650654cc87f2bec7f5705f7bc67160eff18c9bc6bbb6ee89581cd1804",
    ("biaffine2", 7): "0f54ce7ac7cb865abbea3062b960d0d4c849cbd1943d8dca0c0d093db8c31888",
    ("biaffine2", 8): "83754335c66a0efcc29ac25a4a8f63449ce5a519a643d9cf931363b958f7ba9a",
    ("biaffine2", 9): "8eaca50c0b6d40879fd655cec5c69767a0299d7746a0de814382c730221c512d",
    ("biaffine2", 11): "387a78b6c6c865873505bf8dcb7e6a0c299aabc890aa686996eb42294db96110",
    ("gq_truncation", 3): "0b9d666da913de8c080ddaf0063a6f2321df58536a3fe4147eadf80888557c68",
    ("gq_truncation", 4): "9e048932be2984cac3bc92682ad1b50fd6e460d77256c0d3f4cad3c74dffb0df",
    ("gq_truncation", 5): "3ee2192c021a157a94ed543a1752ff7f7fba9bc1d35327531dbfa796a827df76",
    ("gq_truncation", 7): "745c726430e55648f5f0c0c67b9ca6a11bd73a8a4a7de51b6120710c9547efb7",
    ("ovoid_spread", 4): "ef88384a797dfde44d26bff86f4a46fd642513f25525e549c0492a90177723db",
    ("pencil", 2): "5527224266ddc50454865cfbed72c7c22f4302b1412aecec451355af6e95bfab",
    ("pencil", 3): "4934eb80f49c8789547be016befd76e2e075e440a8ccf57d2dd6c421ba960ed8",
    ("pencil", 4): "ad34d3746512ec6ab9aacc94f7734dcc18bcc7502e52437632ce926264cc8a82",
    ("pencil", 5): "5051a036a1ca63a7fea466c1f43e4798ba712903bd16bb0a3766affff03f4539",
    ("pencil", 7): "cfe2cf22269c7b61d8d2d12bd9b7f11f5c8e7c4a60821eb45e91865b08680f77",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,q", sorted(GRAPH6_SHA256))
def test_graph6_is_pinned(family, q):
    G = FAMILIES[family].build(GF(*prime_power(q)))
    assert _sha256(graph6_encode(G)) == GRAPH6_SHA256[family, q]


PENCIL_PINS = json.loads((Path(__file__).parent / "data" / "pencil_pins.json").read_text())["pencils"]


def test_pencil_pins_cover_the_orders():
    assert [pin["q"] for pin in PENCIL_PINS] == PENCIL_ORDERS


@pytest.mark.parametrize("pin", PENCIL_PINS, ids=[f"q{pin['q']}" for pin in PENCIL_PINS])
def test_pencil_is_pinned(pin):
    # graph6 and labels, byte for byte as the enumerated planes gave them
    assert pencil_pin_of(pin["q"]) == pin


# (family, q): (vertex count, first label, last label, sha256 of repr(labels))
LABELS = {
    ("biaffine1", 3): (
        18,
        ("point", (1, 0, 0)),
        ("line", ((0, 1, 2), (1, 0, 2), (1, 1, 1), (1, 2, 0))),
        "d253ec6036c683428ef970d66448aa88a01dc7e8559e8350271342fd1e616910",
    ),
    ("biaffine2", 3): (
        16,
        ("point", (0, 1, 1)),
        ("line", ((0, 1, 2), (1, 0, 2), (1, 1, 1), (1, 2, 0))),
        "2f9960b14b8cc83d719c267d309e37a506d349d898b4d71ce77e6814f089935c",
    ),
    ("gq_truncation", 3): (
        54,
        ("point", (0, 0, 1, 0)),
        ("line", ((0, 1, 2, 2), (1, 0, 2, 1), (1, 1, 1, 0), (1, 2, 0, 2))),
        "ec7cc6207c996f554ac406f9aa11563807a8d0232f66b2a8cd26e2acb68e112a",
    ),
    ("ovoid_spread", 4): (
        136,
        ("point", (0, 0, 1, 1)),
        ("line", ((0, 1, 3, 3), (1, 0, 3, 1), (1, 1, 0, 2), (1, 2, 2, 0), (1, 3, 1, 3))),
        "0abddfa56da4053d3e3bf4adc619564eb354759258818980080f9b1860f3efba",
    ),
    ("pencil", 2): (
        30,
        ("left", (0, 0, 0, 1)),
        ("right", (1, 1, 1, 1)),
        "719b494341ef325046ea2ad69119f2f49027756b5292ec976f1c3431ad238146",
    ),
}


@pytest.mark.parametrize("family,q", sorted(LABELS))
def test_labels_are_pinned(family, q):
    n, first, last, digest = LABELS[family, q]
    labels = FAMILIES[family].build(GF(*prime_power(q))).labels
    assert (len(labels), labels[0], labels[-1]) == (n, first, last)
    assert all(type(c) is int for _, coords in labels[:3] for c in coords)
    assert _sha256(repr(list(labels))) == digest


# The next q above each family's cap that the family takes (ovoid_spread
# needs q a power of 2).
OVER_CAP = {"biaffine1": 257, "biaffine2": 257, "gq_truncation": 71, "ovoid_spread": 128, "pencil": 31}


@pytest.mark.parametrize("family", sorted(OVER_CAP))
def test_size_cap_rejects_next_q_before_building(family):
    from egrtools import geometry

    q = OVER_CAP[family]
    assert MAX_ORDER[family] < q
    check_order(family, MAX_ORDER[family])
    with pytest.raises(ValueError, match=rf"^{family} is capped at q <= {MAX_ORDER[family]} \(got q = {q}\)$"):
        check_order(family, q)
    caches = [geometry.point_array, geometry.pg2_geometry, geometry.symplectic_gq,
              geometry.singer_pencil, geometry._singer_plane]
    misses = [c.cache_info().misses for c in caches]
    with pytest.raises(ValueError, match="capped"):
        FAMILIES[family].build(GF(*prime_power(q)))
    assert [c.cache_info().misses for c in caches] == misses


def test_every_field_a_family_builds_at_its_cap_is_within_the_field_cap(monkeypatch):
    # a build at q = 4 records the extension degrees d its builder asks
    # for (the pencil's Singer cycle takes GF(q^4)); at MAX_ORDER each field,
    # GF(q) and every GF(q^d), must be one galois builds.  A fresh GF(4)
    # keeps every cache keyed on the field cold, so each call is seen.
    degrees = []
    extension = galois.Field.extension
    monkeypatch.setattr(galois.Field, "extension", lambda F, d: degrees.append(d) or extension(F, d))
    asked = {}
    for family, row in FAMILIES.items():
        degrees.clear()
        row.build(galois.GF.__wrapped__(2, 2))
        asked[family] = sorted(set(degrees))
        q = MAX_ORDER[family]
        assert all(q**d <= galois.MAX_FIELD_ORDER for d in [1, *degrees]), family
    assert asked == {family: [4] if family == "pencil" else [] for family in FAMILIES}


# sha256 of repr(G.adj), repr(G.labels) and graph6_encode(G) of each Levi
# graph, keyed "family/q" or by name, recorded while geometry blocks were
# still tuples of tuples.
LEVI_PINS = json.loads((Path(__file__).parent / "data" / "levi_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(LEVI_PINS))
def test_levi_graphs_match_tuple_block_record(key):
    family, _, q = key.partition("/")
    G = FAMILIES[family].build(GF(*prime_power(int(q)))) if q else named_graph(family)
    got = {"adj": repr(G.adj), "labels": repr(list(G.labels)), "graph6": graph6_encode(G)}
    assert {k: _sha256(v) for k, v in got.items()} == LEVI_PINS[key]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [-1, -2])
def test_two_sided_graph_rejects_a_negative_row_entry(side, bad):
    # two disjoint edges as the rows of a 2 x 2 incidence, the bad entry in
    # row ``side``; the take clips, so a negative entry, which indexing
    # would wrap, must fail a check (one past the first side fails the
    # first indexing already)
    from egrtools.constructions import _two_sided_graph

    rows = np.array([[0], [1]])
    everything = np.ones(2, dtype=bool)
    G = _two_sided_graph(rows, everything, everything, None)
    assert G.edges() == [(0, 2), (1, 3)]
    rows[side, 0] = bad
    with pytest.raises(AssertionError, match="outside the other side"):
        _two_sided_graph(rows, everything, everything, None)


def _incidence_rows(kind, q):
    """The rows of one incidence, each listing its first-side vertices:
    the blocks of PG(2,q) or W(q), or the pencil graph's right rows."""
    F = GF(*prime_power(q))
    if kind == "pencil":
        G = build_pencil_graph(F)
        n = G.n // 2
        return G.indices[G.indptr[n] :].reshape(n, -1), n
    geom = (pg2_geometry if kind == "pg2" else symplectic_gq)(F)
    return geom.blocks, geom.n_points


@pytest.mark.parametrize(
    "kind,q", [(kind, q) for kind in ("pg2", "w") for q in (2, 3, 4, 5, 7, 8, 9)] + [("pencil", q) for q in (2, 3, 4, 5)]
)
def test_two_sided_graph_matches_the_edges_of_the_kept_incidences(kind, q):
    # random keep masks, plus a kept row with every entry deleted and a kept
    # first-side vertex with no kept row; the CSR must be that of from_edges
    from egrtools.constructions import _two_sided_graph

    rows, n_first = _incidence_rows(kind, q)
    rng = np.random.default_rng(q)
    for _ in range(3):
        keep_first = rng.random(n_first) < 0.8
        keep_rows = rng.random(len(rows)) < 0.8
        empty = rng.choice(len(rows))
        lonely = rng.choice(np.setdiff1d(np.arange(n_first), rows[empty]))
        keep_first[rows[empty]] = False
        keep_rows[empty] = True
        keep_rows[(rows == lonely).any(axis=1)] = False
        keep_first[lonely] = True
        first_id, row_id = np.cumsum(keep_first) - 1, np.cumsum(keep_rows) - 1 + keep_first.sum()
        edges = [(first_id[v], row_id[j]) for j in np.flatnonzero(keep_rows) for v in rows[j] if keep_first[v]]
        G = _two_sided_graph(rows, keep_first, keep_rows, None)
        assert G == Graph.from_edges(keep_first.sum() + keep_rows.sum(), edges)
        assert G.deg[row_id[empty]] == 0 and G.deg[first_id[lonely]] == 0
