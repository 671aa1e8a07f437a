import random

import networkx as nx
import pytest

from egrtools.constructions import (
    build_biaffine,
    complete_bipartite,
    cycle_graph,
    heawood,
    hoffman_singleton,
    petersen,
    tutte_coxeter,
)
import numpy as np

from egrtools import graph_core
from egrtools.bounds import moore_bound
from egrtools.galois import GF
from egrtools.graph_core import (
    EgrSignature,
    Graph,
    NotEdgeGirthRegular,
    _bfs_levels,
    _exact_dtype,
    _girth_walks,
    _nb_walks,
    _union_of,
    graph6_decode,
    graph6_encode,
    verify_egr,
)
from egrtools.spectral import walk_moments
from engine import edge_counts, stack, vertex_counts
from oracles import (
    all_cycles,
    complete,
    degree_preserving_switch,
    edge_cycle_count_dfs,
    edge_cycle_count_naive,
    matrix_power_traces,
    vertex_cycle_count_dfs,
    vertex_cycle_count_naive,
)


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        Graph([[0]])
    with pytest.raises(ValueError, match="parallel"):
        Graph([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph([[1], []])
    with pytest.raises(ValueError, match="out of range"):
        Graph([[5]])


# Graphs with several faults and the message the list-based validator
# gave for each (recorded before the CSR storage): the first fault in
# vertex order, then neighbour order, a loop before a parallel edge before
# an out-of-range neighbour, and asymmetry only when nothing else is wrong.
FAULTY_ADJACENCIES = [
    ([[5], [1]], "neighbor 5 of 0 out of range"),
    ([[1], [1, 0]], "loop at vertex 1"),
    ([[1], [2, 2], [1, 1]], "parallel edge 1-2"),
    ([[1, 1], [], [0]], "parallel edge 0-1"),
    ([[-1, 1], [0]], "neighbor -1 of 0 out of range"),
    ([[0, 0], []], "loop at vertex 0"),
    ([[1, 1, 0], [0]], "loop at vertex 0"),
    ([[1], [0, 7]], "neighbor 7 of 1 out of range"),
    ([[1, 2], [], []], "asymmetric adjacency 0-1"),
    ([[], [2], []], "asymmetric adjacency 1-2"),
    ([[1], [0, 0, 2, 2], [1, 2]], "parallel edge 1-0"),
    ([[3, 1, 1], [0], [], [0]], "parallel edge 0-1"),
    # a row's first entry repeats nothing, a neighbour -1 included
    ([[-1], [0]], "neighbor -1 of 0 out of range"),
    ([[1], [0, -1]], "neighbor -1 of 1 out of range"),
]


@pytest.mark.parametrize("adj, message", FAULTY_ADJACENCIES)
def test_graph_validation_reports_the_first_fault(adj, message):
    with pytest.raises(ValueError) as err:
        Graph(adj)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, edges, message",
    [
        # recorded before the CSR storage, like FAULTY_ADJACENCIES
        (3, [(1, 2), (0, 0), (1, 2)], "loop at vertex 0"),
        (3, [(0, 1), (1, 2), (1, 0)], "parallel edge 0-1"),
        (4, [(3, 3), (0, 2), (2, 0)], "parallel edge 0-2"),
        # these raised IndexError, or wrapped a negative vertex, before
        (3, [(0, 1), (1, 5)], "neighbor 5 of 1 out of range"),
        (3, [(0, 1), (-1, 2)], "neighbor -1 of 2 out of range"),
    ],
)
def test_from_edges_reports_the_first_fault(n, edges, message):
    for given in (edges, np.array(edges)):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(n, given)
        assert str(err.value) == message


def test_from_edges_takes_any_integer_vertex_count():
    path = Graph([[1], [0, 2], [1], []])
    for n in (np.int64(4), np.int32(4)):
        assert Graph.from_edges(n, [(0, 1), (1, 2)]) == path
    for n in (4.0, "4"):
        with pytest.raises(TypeError):
            Graph.from_edges(n, [(0, 1)])
    for n in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match=r"^vertex count -1 is negative$"):
            Graph.from_edges(n, [])


def test_from_edges_rejects_anything_but_pairs():
    with pytest.raises(ValueError, match="pairs"):
        Graph.from_edges(3, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="pairs"):
        Graph.from_edges(3, np.array([0, 1]))
    assert Graph.from_edges(3, np.empty((0, 2), dtype=np.int64)) == Graph([[], [], []])


def test_labels_length_is_checked_after_the_adjacency():
    with pytest.raises(ValueError, match="labels length"):
        Graph([[1], [0]], labels=["a"])
    with pytest.raises(ValueError, match="loop"):
        Graph([[0]], labels=[])


def _shuffled_routes(G: Graph, seed: int):
    """G rebuilt four ways: from its lists, from shuffled pairs of mixed
    orientation, from an m x 2 array, and through graph6."""
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in G.edges()]
    rng.shuffle(pairs)
    return [
        Graph([list(a) for a in G.adj]),
        Graph.from_edges(G.n, pairs),
        Graph.from_edges(G.n, np.array(pairs[::-1], dtype=np.int32)),
        graph6_decode(graph6_encode(G)),
    ]


@pytest.mark.parametrize("build", [petersen, lambda: build_biaffine(GF(3), 1)], ids=["petersen", "biaffine1_q3"])
def test_construction_routes_agree_on_equality_and_hash(build):
    G = build()
    routes = _shuffled_routes(G, seed=7)
    for H in routes:
        assert H == G and G == H
        assert hash(H) == hash(G)
        assert H.adj == G.adj
        assert H.indptr.tolist() == G.indptr.tolist() and H.indices.tolist() == G.indices.tolist()
    # labels are metadata: they change neither equality nor the hash
    labelled = Graph(G.adj, labels=[("v", i) for i in range(G.n)])
    assert labelled == routes[1] and hash(labelled) == hash(routes[1])
    assert len({G, *routes, labelled}) == 1
    other = Graph.from_edges(G.n, G.edges()[1:])
    assert other != G


def test_csr_arrays_and_adjacency_view():
    G = Graph.from_edges(5, [(3, 0), (0, 1), (4, 3), (1, 3)])
    assert G.indptr.tolist() == [0, 2, 4, 4, 7, 8]
    assert G.indices.tolist() == [1, 3, 0, 3, 0, 1, 4, 3]
    assert G.deg.tolist() == [2, 2, 0, 3, 1]
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in (G.indptr, G.indices, G.deg))
    assert G.adj == [[1, 3], [0, 3], [], [0, 1, 4], [3]]
    assert all(type(v) is int for row in G.adj for v in row)
    assert G.adj is G.adj
    us, vs = G.edge_arrays()
    assert list(zip(us.tolist(), vs.tolist())) == G.edges() == [(0, 1), (0, 3), (1, 3), (3, 4)]
    assert (G.n, G.num_edges(), G.degree(3), G.has_edge(4, 3), G.has_edge(2, 3)) == (5, 4, 3, True, False)


def test_has_edge_rejects_vertices_out_of_range():
    # a negative index must not wrap round to the last row
    G = petersen()
    assert G.has_edge(9, 4) and not G.has_edge(4, 4)
    for u, v in [(-1, 4), (10, 4), (4, -1), (4, 10)]:
        with pytest.raises(ValueError, match="out of range"):
            G.has_edge(u, v)


def test_majority_degree_ties_go_to_the_smallest():
    # ten vertices of degree 9 (K_10 minus a perfect matching, plus one edge
    # each to the rest) and ten of degree 3 (a 10-cycle plus that edge)
    def tied(high: list[int], low: list[int]) -> Graph:
        edges = [(high[i], high[j]) for i in range(10) for j in range(i + 1, 10) if not (j == i + 1 and i % 2 == 0)]
        edges += [(high[i], low[i]) for i in range(10)] + [(low[i], low[(i + 1) % 10]) for i in range(10)]
        return Graph.from_edges(20, edges)

    for high, low, first_deviant in ((range(10), range(10, 20), 0), (range(10, 20), range(10), 10)):
        G = tied(list(high), list(low))
        assert sorted(G.deg.tolist()) == [3] * 10 + [9] * 10
        with pytest.raises(NotEdgeGirthRegular) as err:
            verify_egr(G)
        assert err.value.kind == "not_regular"
        assert err.value.witness == first_deviant and type(err.value.witness) is int
        assert str(err.value) == f"vertex {first_deviant} has degree 9, expected 3"


def test_graph_basics():
    G = petersen()
    assert G.n == 10
    assert G.num_edges() == 15
    assert all(G.degree(v) == 3 for v in range(10))
    assert sorted(G.edges())[0] == (0, 1)


def test_girth_examples():
    assert [verify_egr(G).g for G in (petersen(), complete_bipartite(3), heawood(), tutte_coxeter())] == [5, 4, 6, 8]
    assert _girth_walks(stack(cycle_graph(8)))[0][0] == 8
    # the walk pass takes graphs with a cycle only, and a forest breaks that contract
    tree = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(AssertionError, match="no cycle"):
        _girth_walks(stack(tree))


def test_girth_against_brute_force():
    G = petersen()
    lengths = [length for length in range(3, 11) if all_cycles(G, length)]
    assert min(lengths) == verify_egr(G).g


def test_edge_counts_petersen():
    assert edge_counts(petersen()) == (5, [4] * 15)


def test_edge_counts_match_naive_oracle():
    G = heawood()
    g, counts = edge_counts(G)
    assert g == 6
    assert counts[:7] == [edge_cycle_count_naive(G, e, 6) for e in G.edges()[:7]] == [8] * 7


def test_edge_count_sum_counts_each_cycle_g_times():
    G = petersen()
    assert sum(edge_counts(G)[1]) == 5 * len(all_cycles(G, 5))
    assert len(all_cycles(G, 5)) == 12  # the 12 pentagons


def test_vertex_counts_petersen():
    G = petersen()
    assert vertex_counts(G, edge_counts(G)[1])[0] == 6  # k * lambda / 2
    assert vertex_cycle_count_dfs(G, 0, 6) == 6
    assert vertex_cycle_count_dfs(G, 3, 6) == vertex_cycle_count_naive(G, 3, 6)


def test_vertex_count_consistency_with_global():
    G = petersen()
    assert sum(vertex_cycle_count_dfs(G, v, 6) for v in range(G.n)) == 6 * len(all_cycles(G, 6))


def test_girth_cycles_per_vertex_is_half_k_lambda():
    for G in (petersen(), heawood(), complete_bipartite(4)):
        sig = verify_egr(G)
        per_vertex = vertex_counts(G, edge_counts(G)[1])
        assert per_vertex == [vertex_cycle_count_dfs(G, v, sig.g) for v in range(G.n)]
        assert per_vertex == [sig.k * sig.lam // 2] * G.n


def test_exact_dtype_boundary():
    # float32 holds every integer up to 2**24, float64 up to 2**53, and no further
    assert _exact_dtype(0) is np.float32
    assert _exact_dtype(2**24) is np.float32
    assert _exact_dtype(2**24 + 1) is np.float64
    assert _exact_dtype(2**53) is np.float64
    with pytest.raises(ValueError, match=r"pass 2\*\*53"):
        _exact_dtype(2**53 + 1)


@pytest.mark.parametrize("bound", [2**53, 3 * 2**3, 1, 2, 6, 7])
def test_object_length_matches_the_per_step_rule(bound, monkeypatch):
    # with the float32 bound patched, the walk pass goes to float64 at the
    # first l >= 2 at which k * max(k-1, 1)**(l-1) passes it, stays there,
    # and a float64 bound of 1 changes nothing; K_{k+1} is
    # k-regular and its walks never die out
    monkeypatch.setattr(graph_core, "_FLOAT32_EXACT_MAX", bound)
    monkeypatch.setattr(graph_core, "_FLOAT_EXACT_MAX", 1)
    for k in range(2, 9):
        first = next((l for l in range(2, 61) if k * max(k - 1, 1) ** (l - 1) > bound), 61)
        dtypes = [w.dtype for _, w in zip(range(60), _nb_walks(stack(complete(k + 1))))]
        assert dtypes == [np.float32] * (first - 1) + [np.float64] * (60 - first + 1), k


def test_walk_pass_switches_to_python_ints_past_the_walk_bound(monkeypatch):
    # the step forming A_l stays in float32 while k(k-1)**(l-1) is within
    # the float32 bound: with that bound at 3 * 2**3, Petersen's A_1..A_4 are
    # float32 and A_5 on, whose entries reach 3 * 2**4 in general, float64;
    # a float64 bound of 1 changes nothing
    G = petersen()
    exact = [walks for _, walks in zip(range(7), _nb_walks(stack(G)))]
    monkeypatch.setattr(graph_core, "_FLOAT32_EXACT_MAX", 3 * 2**3)
    monkeypatch.setattr(graph_core, "_FLOAT_EXACT_MAX", 1)
    walks = [walks for _, walks in zip(range(7), _nb_walks(stack(G)))]
    assert [w.dtype for w in walks] == [np.float32] * 4 + [np.float64] * 3
    for got, want in zip(walks, exact):
        assert got.tolist() == want.tolist()


def test_float64_covers_the_walk_pass_up_to_the_vertex_cap():
    # a k-regular graph with at most MAX_VERIFY_VERTICES vertices has
    # moore_bound(k, g) <= MAX_VERIFY_VERTICES, and the walk pass forms no
    # count above k(k-1)**(g-1) for a member still open; float64 must hold
    # every one of them exactly
    cap = graph_core.MAX_VERIFY_VERTICES
    largest = 0
    for k in range(3, cap):
        g = 3
        while moore_bound(k, g) <= cap:
            largest = max(largest, k * (k - 1) ** (g - 1))
            g += 1
    assert 0 < largest <= graph_core._FLOAT_EXACT_MAX


def _random_regular(k: int, n: int, seed: int) -> Graph:
    H = nx.random_regular_graph(k, n, seed=seed)
    return Graph.from_edges(n, H.edges())


# seeds chosen so the random graphs cover girths 3, 4 and 5
DIFFERENTIAL_GRAPHS = {
    **{
        f"rr_k{k}_n{n}_s{seed}": (lambda k=k, n=n, seed=seed: _random_regular(k, n, seed))
        for k, n, seed in [
            (3, 10, 0), (3, 16, 12), (3, 20, 114), (3, 24, 2), (3, 24, 64),
            (4, 12, 4), (4, 18, 5), (4, 24, 83),
        ]
    },
    "petersen_switch": lambda: degree_preserving_switch(petersen()),
    "heawood_switch": lambda: degree_preserving_switch(heawood()),
    "k44_switch": lambda: degree_preserving_switch(complete_bipartite(4)),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_engine_matches_independent_oracles(name):
    G = DIFFERENTIAL_GRAPHS[name]()
    H = nx.Graph(G.edges())
    g, counts = edge_counts(G)
    assert g == nx.girth(H)
    cycles = [set(c) for c in nx.simple_cycles(H, length_bound=g + 1)]
    edges = list(G.edges())
    assert counts == [edge_cycle_count_dfs(G, e, g) for e in edges]
    assert counts == [sum(len(c) == g and set(e) <= c for c in cycles) for e in edges]
    per_vertex = {length: [vertex_cycle_count_dfs(G, v, length) for v in range(G.n)] for length in (g, g + 1)}
    assert vertex_counts(G, counts) == per_vertex[g]
    for length, dfs in per_vertex.items():
        assert dfs == [sum(len(c) == length and v in c for c in cycles) for v in range(G.n)]
    # every case is connected and regular but not edge-girth-regular
    with pytest.raises(NotEdgeGirthRegular) as err:
        verify_egr(G)
    assert err.value.kind == "nonuniform_cycle_counts"
    assert err.value.witness == next(e for e, c in zip(edges, counts) if c != counts[0])
    assert err.value.details == {"min_count": min(counts), "max_count": max(counts)}


def _walk_results(G: Graph):
    """G's A_{g-1} stack from the walk pass, and verify_egr's verdict, G's
    girth and its per-edge counts from the block core."""
    try:
        verdict = verify_egr(G)
    except NotEdgeGirthRegular as exc:
        verdict = (exc.kind, exc.witness, str(exc), exc.details)
    girth, walks = _girth_walks(stack(G))
    return walks, (verdict, girth, edge_counts(G))


ONE_RULE_GRAPHS = {
    "petersen": petersen,
    "hoffman_singleton": hoffman_singleton,
    "heawood": heawood,
    **DIFFERENTIAL_GRAPHS,
}


@pytest.mark.parametrize("name", sorted(ONE_RULE_GRAPHS))
def test_python_int_path_matches_float64(name, monkeypatch):
    # a float64 bound of 1 makes the moments refuse, as they do past 2**53,
    # and leaves the walk pass in floats: its results must not change, down
    # to their types
    G = ONE_RULE_GRAPHS[name]()
    walks, expected = _walk_results(G)
    moments = walk_moments(G, 8)
    monkeypatch.setattr(graph_core, "_FLOAT_EXACT_MAX", 1)
    with pytest.raises(ValueError, match=r"pass 2\*\*53"):
        walk_moments(G, 8)
    got_walks, got = _walk_results(G)
    assert moments == matrix_power_traces(G, 8)
    assert got_walks.dtype == walks.dtype == np.float32
    assert np.array_equal(got_walks, walks)
    assert got == expected
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("G", [petersen(), heawood(), hoffman_singleton(), tutte_coxeter(), complete_bipartite(4)])
def test_verified_girth_is_the_bfs_girth(G):
    assert verify_egr(G).g == nx.girth(nx.Graph(G.edges()))


def _distance_layers(G: Graph, root: int) -> list[list[int]]:
    """The vertices of root's component grouped by distance D_0, D_1, ...,
    from networkx."""
    dist = nx.single_source_shortest_path_length(nx.Graph(G.edges()), root)
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for v, d in sorted(dist.items()):
        layers[d].append(v)
    return layers


def test_distance_layers_partition():
    G = petersen()
    layers = _distance_layers(G, 0)
    assert [len(layer) for layer in layers] == [1, 3, 6]
    assert sorted(v for layer in layers for v in layer) == list(range(10))


def test_layer_edge_counts_on_petersen():
    # girth 5 = 2h+1 with h=2: edges inside D_h number k*lambda/2,
    # edges onward to D_{h+1} number k((k-1)^h - lambda)
    G = petersen()
    layers = _distance_layers(G, 0)
    D2 = set(layers[2])
    inside = sum(1 for u, v in G.edges() if u in D2 and v in D2)
    assert inside == 3 * 4 // 2
    assert len(layers) == 3  # D_3 empty: 3 * ((3-1)**2 - 4) = 0 edges leave D_2


def test_verify_egr_signatures():
    assert verify_egr(petersen()) == EgrSignature(10, 3, 5, 4, False)
    assert verify_egr(complete_bipartite(3)) == EgrSignature(6, 3, 4, 4, True)
    assert verify_egr(heawood()) == EgrSignature(14, 3, 6, 8, True)


def test_verify_egr_failures():
    G = petersen()
    adj = [list(a) for a in G.adj]
    adj[0].remove(1)
    adj[1].remove(0)
    with pytest.raises(NotEdgeGirthRegular) as err:
        verify_egr(Graph(adj))
    assert err.value.kind == "not_regular"
    assert err.value.witness in (0, 1)

    two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotEdgeGirthRegular) as err:
        verify_egr(two)
    assert err.value.kind == "disconnected"

    with pytest.raises(NotEdgeGirthRegular) as err:
        verify_egr(cycle_graph(8))
    assert err.value.kind == "degree_too_small"


def test_verify_egr_nonuniform_reports_min_max():
    # triangular prism: triangle edges lie on one triangle, rung edges on none
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(NotEdgeGirthRegular) as err:
        verify_egr(prism)
    assert err.value.kind == "nonuniform_cycle_counts"
    assert err.value.details["min_count"] == 0
    assert err.value.details["max_count"] == 1
    # the first deviant edge in G.edges() order, with plain Python ints
    assert repr(err.value.witness) == "(0, 3)"
    assert str(err.value) == "edge (0, 3) lies on 0 girth cycles, expected 1"
    assert all(type(c) is int for c in err.value.details.values())
    assert type(verify_egr(petersen()).lam) is int


def test_bipartition():
    # the parities of the BFS levels from vertex 0 are networkx's 2-colouring
    assert not verify_egr(petersen()).bipartite
    G = heawood()
    assert verify_egr(G).bipartite
    level, clash = _bfs_levels(_union_of([G]))
    rows, indices = np.arange(G.n).repeat(G.deg), G.indices
    assert (level[rows] % 2 != level[indices] % 2).all() and not clash.size
    colour = nx.bipartite.color(nx.Graph(G.edges()))
    assert (level % 2).tolist() == [int(colour[v] != colour[0]) for v in range(G.n)]


def test_hoffman_singleton_parameters():
    sig = verify_egr(hoffman_singleton())
    assert (sig.n, sig.k, sig.g, sig.lam, sig.bipartite) == (50, 7, 5, 36, False)


def test_signature_invariants():
    with pytest.raises(ValueError):
        EgrSignature(10, 2, 5, 4, False)
    with pytest.raises(ValueError):
        EgrSignature(10, 3, 5, 4, True)  # bipartite needs even girth
    with pytest.raises(ValueError):
        EgrSignature(4, 3, 5, 4, False)  # n < g
