"""verify_many and the stacked walk pass against per-graph verification,
networkx and the path-enumeration oracles."""

from collections import Counter

import networkx as nx
import numpy as np
import pytest

from egrtools import graph_core
from egrtools.constructions import (
    build_biaffine,
    build_gq_truncation,
    complete_bipartite,
    cycle_graph,
    heawood,
    hoffman_singleton,
    petersen,
    tutte_coxeter,
)
from egrtools.galois import GF
from egrtools.graph_core import (
    EgrSignature,
    Graph,
    NotEdgeGirthRegular,
    _girth_walks,
    _nb_walks,
    _bfs_levels,
    _union_of,
    verify_egr,
    verify_many,
)
from engine import stack
from oracles import complete, coxeter, degree_preserving_switch, edge_cycle_count_dfs, generalized_petersen


def two_diamonds() -> Graph:
    """A cubic graph on 10 vertices with girth 3: two K4 minus an edge,
    joined through vertices 8 and 9; edge 8-9 lies on no triangle."""
    diamond = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    edges = diamond + [(u + 4, v + 4) for u, v in diamond]
    return Graph.from_edges(10, edges + [(0, 8), (4, 8), (3, 9), (7, 9), (8, 9)])


def tied_degrees() -> Graph:
    """Ten vertices of degree 9 and ten of degree 3."""
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10) if not (j == i + 1 and i % 2 == 0)]
    edges += [(i, 10 + i) for i in range(10)] + [(10 + i, 10 + (i + 1) % 10) for i in range(10)]
    return Graph.from_edges(20, edges)


# the (10, 3) members reach their girths at lengths 3, 4, 5 and 4
STACK_10_3 = {
    "two_diamonds": two_diamonds,
    "prism_5": lambda: generalized_petersen(5, 1),
    "petersen": petersen,
    "petersen_switch": lambda: degree_preserving_switch(petersen()),
}

MIXED = {
    **STACK_10_3,
    "K4": lambda: complete(4),
    "K5": lambda: complete(5),
    "K44": lambda: complete_bipartite(4),
    "cube": lambda: generalized_petersen(4, 1),
    "dodecahedron": lambda: generalized_petersen(10, 2),
    "hoffman_singleton": hoffman_singleton,
    "heawood": heawood,
    "heawood_switch": lambda: degree_preserving_switch(heawood()),
    "biaffine1_q3": lambda: build_biaffine(GF(3), 1),
    "coxeter": coxeter,
    "tutte_coxeter": tutte_coxeter,
    "gp_24_5": lambda: generalized_petersen(24, 5),
    "two_triangles": lambda: Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "isolated_0": lambda: Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "petersen_minus_edge": lambda: Graph.from_edges(10, petersen().edges()[1:]),
    "tied_degrees": tied_degrees,
    "cycle_8": lambda: cycle_graph(8),
    "empty": lambda: Graph([]),
    "one_vertex": lambda: Graph([[]]),
}


def verdict_key(verdict):
    """Everything a verdict carries, for comparison."""
    if isinstance(verdict, NotEdgeGirthRegular):
        return ("not_egr", verdict.kind, repr(verdict.witness), str(verdict), verdict.details)
    if isinstance(verdict, ValueError):
        return ("error", str(verdict))
    return ("egr", repr(verdict))


def one_by_one(graphs):
    """verify_egr on each graph, its exception taken as the verdict."""
    verdicts = []
    for G in graphs:
        try:
            verdicts.append(verify_egr(G))
        except (NotEdgeGirthRegular, ValueError) as exc:
            verdicts.append(exc)
    return verdicts


def oracle_verdict(G: Graph):
    """The verdict from networkx and the DFS path counter alone."""
    if G.n == 0:
        return ("not_egr", "disconnected", "None")
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    unreached = set(H) - nx.node_connected_component(H, 0)
    if unreached:
        return ("not_egr", "disconnected", repr(min(unreached)))
    degrees = [d for _, d in sorted(H.degree())]
    k = min(Counter(degrees).items(), key=lambda item: (-item[1], item[0]))[0]
    if any(d != k for d in degrees):
        return ("not_egr", "not_regular", repr(next(v for v, d in enumerate(degrees) if d != k)))
    if k < 3:
        return ("not_egr", "degree_too_small", repr(k))
    g = nx.girth(H)
    counts = [edge_cycle_count_dfs(G, e, g) for e in G.edges()]
    if len(set(counts)) > 1:
        edge = next(e for e, c in zip(G.edges(), counts) if c != counts[0])
        return ("not_egr", "nonuniform_cycle_counts", repr(edge), min(counts), max(counts))
    return ("egr", EgrSignature(G.n, k, g, counts[0], nx.is_bipartite(H)))


def brief(verdict):
    """verdict_key cut down to what oracle_verdict states."""
    if isinstance(verdict, NotEdgeGirthRegular):
        extra = (verdict.details["min_count"], verdict.details["max_count"]) if verdict.details else ()
        return ("not_egr", verdict.kind, repr(verdict.witness), *extra)
    return ("egr", verdict)


def test_verify_many_matches_per_graph_verification_and_oracles(monkeypatch):
    graphs = [build() for build in MIXED.values()]
    # lower the cap so that Hoffman-Singleton (n = 50) is over it
    monkeypatch.setattr(graph_core, "MAX_VERIFY_VERTICES", 49)
    together = verify_many(graphs)
    assert [verdict_key(v) for v in together] == [verdict_key(v) for v in one_by_one(graphs)]
    kinds = Counter(verdict_key(v)[1] if verdict_key(v)[0] == "not_egr" else verdict_key(v)[0] for v in together)
    assert kinds == {
        "egr": 11,
        "nonuniform_cycle_counts": 4,
        "disconnected": 3,
        "not_regular": 2,
        "degree_too_small": 2,
        "error": 1,
    }
    assert {v.g for v in together if isinstance(v, EgrSignature)} == {3, 4, 5, 6, 7, 8}
    for name, G, verdict in zip(MIXED, graphs, together):
        if isinstance(verdict, ValueError):
            assert name == "hoffman_singleton"
            assert str(verdict) == "verification is capped at 49 vertices (got n = 50)"
        else:
            assert brief(verdict) == oracle_verdict(G), name
    # the witnesses and counts are plain Python ints
    for verdict in together:
        if isinstance(verdict, NotEdgeGirthRegular):
            w = verdict.witness
            assert w is None or type(w) is int or all(type(x) is int for x in w)
            assert all(type(c) is int for c in verdict.details.values())
        elif isinstance(verdict, EgrSignature):
            assert type(verdict.lam) is int and type(verdict.bipartite) is bool


def test_stack_members_reach_their_girths_at_different_lengths():
    graphs = [build() for build in STACK_10_3.values()]
    girth, walks = _girth_walks(stack(*graphs))
    assert girth == [3, 4, 5, 4]
    assert walks.shape == (4, 10, 10)
    for b, G in enumerate(graphs):
        alone_g, alone = _girth_walks(stack(G))
        assert alone_g == [girth[b]]
        assert np.array_equal(walks[b], alone[0])
    # one stacked product per step, each member's slice its own walk matrix
    for _, stacked, *alone in zip(range(8), _nb_walks(stack(*graphs)), *(_nb_walks(stack(G)) for G in graphs)):
        assert stacked.shape == (4, 10, 10)
        assert all(np.array_equal(stacked[b], a[0]) for b, a in enumerate(alone))


def _recorded_walks(monkeypatch) -> list:
    """Patch ``_nb_walks`` to log the dtype of each walk stack it yields, one
    list per pass; A_1 is the prebuilt stack, so a pass forms one product
    per entry after its first."""
    passes = []

    def recorded(A):
        passes.append([])
        for walks in _nb_walks(A):
            passes[-1].append(walks.dtype)
            yield walks

    monkeypatch.setattr(graph_core, "_nb_walks", recorded)
    return passes


@pytest.mark.parametrize("graphs", [["petersen"], list(STACK_10_3)], ids=["petersen", "stack_10_3"])
def test_the_pass_stops_at_the_walks_of_the_largest_girth(graphs, monkeypatch):
    # the closing diagonal of A_5 is read off A_4, so a stack whose largest
    # girth is 5 forms A_2, A_3 and A_4 (three products) and never A_5
    built = [STACK_10_3[name]() for name in graphs]
    expected = [verdict_key(v) for v in verify_many(built)]
    passes = _recorded_walks(monkeypatch)
    assert [verdict_key(v) for v in verify_many(built)] == expected
    assert [len(dtypes) - 1 for dtypes in passes] == [3]


def test_the_closing_step_does_not_widen_the_pass(monkeypatch):
    # with the float32 bound at 24, Petersen's A_1..A_4 fit float32 and
    # only A_5 (3 * 2**4) would cross into float64; the pass reads A_5's
    # diagonal off A_4 and forms no A_5, so it stays in float32
    expected = verdict_key(verify_many([petersen()])[0])
    monkeypatch.setattr(graph_core, "_FLOAT32_EXACT_MAX", 24)
    passes = _recorded_walks(monkeypatch)
    assert verdict_key(verify_many([petersen()])[0]) == expected == ("egr", repr(EgrSignature(10, 3, 5, 4, False)))
    assert passes == [[np.dtype(np.float32)] * 4]


def test_a_forest_member_does_not_hold_up_the_stack():
    # the walk pass takes graphs with a cycle only: a forest member stops the
    # stack at length n with an AssertionError rather than run on
    path = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
    with pytest.raises(AssertionError, match="no cycle"):
        _girth_walks(stack(path, cycle_graph(10), petersen()))


def test_stacked_python_int_path_matches_float64(monkeypatch):
    # the stacked counterpart of the single-graph switch test: with the
    # float32 bound at 3 * 2**3, A_1..A_4 of a stack of cubic graphs are
    # float32 and A_5 on float64, with the same counts and verdicts, and a
    # float64 bound of 1 changes nothing
    graphs = [build() for build in STACK_10_3.values()]
    exact = [w for _, w in zip(range(7), _nb_walks(stack(*graphs)))]
    verdicts = [verdict_key(v) for v in verify_many(graphs)]
    monkeypatch.setattr(graph_core, "_FLOAT32_EXACT_MAX", 3 * 2**3)
    monkeypatch.setattr(graph_core, "_FLOAT_EXACT_MAX", 1)
    walks = [w for _, w in zip(range(7), _nb_walks(stack(*graphs)))]
    assert [w.dtype for w in walks] == [np.float32] * 4 + [np.float64] * 3
    for got, want in zip(walks, exact):
        assert got.tolist() == want.tolist()
    assert [verdict_key(v) for v in verify_many(graphs)] == verdicts


def test_a_mixed_degree_stack_stays_in_floats(monkeypatch):
    # K_128 closes at length 3 and the truncated W(4), also on 128 vertices,
    # runs on to its girth in the same stack, where K_128's slice grows as
    # 127 * 126**(l-1): the pass goes to float64 and no further
    graphs = [complete(128), build_gq_truncation(GF(2, 2))]
    expected = [verdict_key(v) for v in one_by_one(graphs)]
    stacks = []

    def recorded(A):
        for walks in _nb_walks(A):
            stacks.append((walks.shape, walks.dtype))
            yield walks

    monkeypatch.setattr(graph_core, "_nb_walks", recorded)
    assert [verdict_key(v) for v in verify_many(graphs)] == expected
    assert {shape for shape, _ in stacks} == {(2, 128, 128)}
    assert {dtype for _, dtype in stacks} == {np.dtype(np.float32), np.dtype(np.float64)}


@pytest.mark.parametrize("cells, sizes", [(2**18, [4]), (250, [2, 2]), (99, [1, 1, 1, 1])])
def test_stacks_are_capped_by_cell_count(cells, sizes, monkeypatch):
    graphs = [build() for build in STACK_10_3.values()] + [complete(4), generalized_petersen(10, 2)]
    expected = [verdict_key(v) for v in one_by_one(graphs)]
    seen = []

    def recorded(A):
        seen.append(len(A))
        return _girth_walks(A)

    monkeypatch.setattr(graph_core, "MAX_STACK_CELLS", cells)
    monkeypatch.setattr(graph_core, "_girth_walks", recorded)
    assert [verdict_key(v) for v in verify_many(graphs)] == expected
    # K4 and the dodecahedron are alone in their order groups
    assert sorted(seen) == sorted(sizes + [1, 1])


def test_union_bfs_matches_networkx():
    graphs = [
        Graph([]),
        Graph([[]]),
        Graph.from_edges(3, []),
        Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),
        cycle_graph(7),
        cycle_graph(8),
        petersen(),
        heawood(),
        Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (5, 6), (7, 8)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6)]),
    ]
    # the BFS reads as _verify_union reads it: each graph's first unreached
    # vertex, and whether a vertex of its component meets its own level
    union = _union_of(graphs)
    level, clash = _bfs_levels(union)
    for G, start in zip(graphs, union.first.tolist()):
        unreached = np.flatnonzero(level[start : start + G.n] < 0).tolist()
        v = unreached[0] if unreached else None
        bip = not ((clash >= start) & (clash < start + G.n)).any()
        if G.n == 0:
            assert (v, bip) == (None, True)
            continue
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        component = nx.node_connected_component(H, 0)
        missing = sorted(set(H) - component)
        assert v == (missing[0] if missing else None)
        assert bip == nx.is_bipartite(H.subgraph(component))
        assert v is None or type(v) is int


def complement(G: Graph) -> Graph:
    return Graph.from_edges(G.n, [(u, v) for u in range(G.n) for v in range(u + 1, G.n) if not G.has_edge(u, v)])


# five graphs on 10 vertices of degrees 3..7, which share one walk stack
ORDER_10_DEGREES = {
    "petersen": petersen,
    "circulant_10_12": lambda: Graph.from_edges(10, [(i, (i + j) % 10) for i in range(10) for j in (1, 2)]),
    "K55": lambda: complete_bipartite(5),
    "petersen_complement": lambda: complement(petersen()),
    "cycle_10_complement": lambda: complement(cycle_graph(10)),
}


def test_one_block_mixes_orders_degrees_and_verdicts(monkeypatch):
    names = list(MIXED) + list(ORDER_10_DEGREES)
    graphs = [build() for build in MIXED.values()] + [build() for build in ORDER_10_DEGREES.values()]
    monkeypatch.setattr(graph_core, "MAX_VERIFY_VERTICES", 49)  # Hoffman-Singleton (n = 50) is over it
    stacks = []

    def recorded(A):
        # each member's vertex 0 has the degree of its row 0
        stacks.append((A.shape[1], sorted(set(A[:, 0].sum(axis=1).astype(int).tolist()))))
        return _girth_walks(A)

    monkeypatch.setattr(graph_core, "_girth_walks", recorded)
    together = verify_many(graphs)
    # one stack per order, whatever the degrees of its members
    orders = [n for n, _ in stacks]
    assert len(orders) == len(set(orders))
    assert dict(stacks)[10] == [3, 4, 5, 6, 7]
    assert [verdict_key(v) for v in together] == [verdict_key(v) for v in one_by_one(graphs)]
    kinds = {verdict_key(v)[1] if verdict_key(v)[0] == "not_egr" else verdict_key(v)[0] for v in together}
    assert kinds == {"egr", "nonuniform_cycle_counts", "not_regular", "degree_too_small", "disconnected", "error"}
    assert any(isinstance(v, NotEdgeGirthRegular) and str(v) == "empty graph" for v in together)
    walked = [
        G.degree(0)
        for G, v in zip(graphs, together)
        if isinstance(v, EgrSignature) or getattr(v, "kind", None) == "nonuniform_cycle_counts"
    ]
    assert set(walked) == {3, 4, 5, 6, 7}
    assert {v.g for v in together if isinstance(v, EgrSignature)} == {3, 4, 5, 6, 7, 8}
    for name, G, verdict in zip(names, graphs, together):
        if isinstance(verdict, NotEdgeGirthRegular):
            w = verdict.witness
            assert w is None or type(w) is int or all(type(x) is int for x in w), name
            assert all(type(c) is int for c in verdict.details.values()), name
        elif isinstance(verdict, EgrSignature):
            assert all(type(x) is int for x in (verdict.n, verdict.k, verdict.g, verdict.lam)), name
            assert type(verdict.bipartite) is bool, name


def test_stacked_pass_crosses_float32_float64_and_python_ints(monkeypatch):
    # with the float32 bound at 6, the step bounds 3 * 2**(l-1) of a stack of
    # cubic graphs put A_1, A_2 in float32 and A_3 on in float64, with the
    # same counts and verdicts, and a float64 bound of 1 changes nothing:
    # the pass has no tier past float64
    graphs = [build() for build in STACK_10_3.values()]
    exact = [w for _, w in zip(range(7), _nb_walks(stack(*graphs)))]
    girth, found = _girth_walks(stack(*graphs))
    verdicts = [verdict_key(v) for v in verify_many(graphs)]
    monkeypatch.setattr(graph_core, "_FLOAT32_EXACT_MAX", 6)
    monkeypatch.setattr(graph_core, "_FLOAT_EXACT_MAX", 1)
    walks = [w for _, w in zip(range(7), _nb_walks(stack(*graphs)))]
    assert [w.dtype for w in walks] == [np.float32] * 2 + [np.float64] * 5
    for got, want in zip(walks, exact):
        assert got.tolist() == want.tolist()
    # the members close at lengths 3, 4, 5 and 4, so the returned A_{g-1}
    # stack gathers A_2 (float32), A_3 and A_4 (float64) and widens to
    # float64 to hold them exactly
    crossed_girth, crossed = _girth_walks(stack(*graphs))
    assert crossed_girth == girth == [3, 4, 5, 4]
    assert crossed.dtype == np.float64
    assert crossed.tolist() == found.tolist()
    assert [verdict_key(v) for v in verify_many(graphs)] == verdicts
