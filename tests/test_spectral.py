import json
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from egrtools import bounds, cli, graph_core, spectral
from egrtools.bounds import egr4_bound
from egrtools.cli import EXIT_INTERNAL, main
from egrtools.constructions import (
    build_biaffine,
    build_gq_truncation,
    build_pencil_graph,
    complete_bipartite,
    heawood,
    petersen,
    tutte_coxeter,
)
from egrtools.galois import GF
from egrtools.graph_core import Graph, _exact_dtype, verify_egr
from egrtools.spectral import (
    MAX_MOMENT_LENGTH,
    certify_tight_spectrum,
    eigenvalues,
    tree_walk_count,
    walk_moments,
)
from oracles import (
    catalan,
    closed_walks_at_root,
    complete,
    degree_preserving_switch,
    matrix_power_traces,
    symmetric_design_identity,
    tree_walk_counts,
    tree_walk_polynomial,
    truncated_tree,
)

# closed-walk polynomials in the degree k, as printed lists of coefficients
PRINTED_POLYS = {
    2: lambda k: k,
    4: lambda k: 2 * k**2 - k,
    6: lambda k: 5 * k**3 - 6 * k**2 + 2 * k,
    8: lambda k: 14 * k**4 - 28 * k**3 + 20 * k**2 - 5 * k,
}


def test_moments_basics_petersen():
    m = walk_moments(petersen(), 6)
    assert m[0] == 10
    assert m[1] == 0
    assert m[2] == 30  # 2|E|
    assert m[4] == 150  # n * c(4,3); girth 5 so all closed 4-walks are tree-like
    assert m[5] == 120  # n * k * lambda
    assert m[6] == 990


def test_moments_match_eigenvalue_powers():
    for G in (petersen(), complete_bipartite(4), heawood(), build_pencil_graph(GF(2))):
        m = walk_moments(G, 8)
        vals = eigenvalues(G).values
        k = G.degree(0)
        for length in range(9):
            approx = sum(v**length for v in vals)
            assert abs(approx - m[length]) <= 1e-6 * G.n * k**length + 1e-9


def test_moments_match_walk_oracle():
    # seeded irregular graphs, sparse to dense, and K_{k,k}, at the longest
    # moment length with k**L within 2**53, one past which they refuse:
    # both tiers of the exactness rule are exercised
    rng = random.Random(11)
    graphs = [complete_bipartite(k) for k in (1, 2, 5, 9)]
    for _ in range(8):
        n, p = rng.randint(1, 18), rng.random()
        graphs.append(Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    dtypes = set()
    for G in graphs:
        k = max(map(len, G.adj))
        L = max(length for length in range(MAX_MOMENT_LENGTH + 1) if k**length <= 2**53)
        if L < MAX_MOMENT_LENGTH:
            with pytest.raises(ValueError, match=r"pass 2\*\*53"):
                walk_moments(G, L + 1)
        dtypes.add(_exact_dtype(k**L))
        expected = [sum(closed_walks_at_root(G, v, length) for v in range(G.n)) for length in range(L + 1)]
        moments = walk_moments(G, L)
        assert moments == expected
        assert all(type(m) is int for m in moments)
    assert dtypes == {np.float32, np.float64}


class _CountedProducts(np.ndarray):
    """An adjacency matrix that counts the matrix products taken with it."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return super().__matmul__(other)


def test_moments_form_only_the_powers_they_read(monkeypatch):
    # one product for each of A**2 .. A**ceil(L/2): at an even last length
    # L the moment reads A**(L/2) alone, so A**(L/2 + 1) is never formed
    def counted(G, dtype):
        return graph_core._adjacency(G, dtype).view(_CountedProducts)

    monkeypatch.setattr(spectral, "_adjacency", counted)
    G = petersen()
    full = walk_moments(G, 10)
    for L in range(11):
        _CountedProducts.products = 0
        assert walk_moments(G, L) == full[: L + 1]
        assert _CountedProducts.products == max(0, (L + 1) // 2 - 1)


def _spy_chains(monkeypatch) -> list:
    """Record the dtype and order of the matrix each moment chain runs on."""
    chains = []

    def spy(B, J):
        chains.append((B.dtype, len(B)))
        return power_traces(B, J)

    power_traces = spectral._power_traces
    monkeypatch.setattr(spectral, "_power_traces", spy)
    return chains


def test_moment_dtype_follows_k_to_the_L(monkeypatch):
    # every count walk_moments forms is at most k**L, so float64 serves
    # while k**L <= 2**53 whatever n is: 10**15 < 2**53 < 10**16
    chains = _spy_chains(monkeypatch)
    k10 = complete_bipartite(10)
    # K_{k,k} has eigenvalues +-k once and 0 otherwise
    assert walk_moments(k10, 15) == [20] + [0 if l % 2 else 2 * 10**l for l in range(1, 16)]
    with pytest.raises(ValueError, match=r"pass 2\*\*53"):
        walk_moments(k10, 16)
    # connected and bipartite: the chain runs on NN^T, of order 10
    assert chains == [(np.float64, 10)]
    # three disjoint K_{8,8}: n * k**16 = 48 * 2**48 > 2**53, k**16 = 2**48;
    # disconnected, so the chain runs on A
    edges = [(8 * c + i, 8 * c + 8 + j) for c in (0, 2, 4) for i in range(8) for j in range(8)]
    moments = walk_moments(Graph.from_edges(48, edges), 16)
    assert moments == [48] + [0 if l % 2 else 6 * 8**l for l in range(1, 17)]
    assert chains[1] == (np.float64, 48)


def test_moments_past_2_53_raise_before_any_product(monkeypatch):
    def unreached(*args):
        raise AssertionError("a matrix was built past 2**53")

    for name in ("_power_traces", "_biadjacency", "_adjacency"):
        monkeypatch.setattr(spectral, name, unreached)
    # k**16 = 10**16 > 2**53 on both: K_{10,10} would take the half-order
    # route on NN^T, K_11 the full-order route on A
    for G in (complete_bipartite(10), complete(11)):
        with pytest.raises(ValueError, match=r"exact counts up to 10000000000000000 pass 2\*\*53"):
            walk_moments(G, MAX_MOMENT_LENGTH)
        with pytest.raises(ValueError, match=r"exact counts up to 10000000000000000 pass 2\*\*53"):
            eigenvalues(G, length=MAX_MOMENT_LENGTH)


# (graph constructor, route): the half-order route runs the moment chain on
# NN^T, of the smaller colour class's order; the full-order route on A
HALF_ORDER_ORACLE_GRAPHS = {
    **{
        f"{family}_q{q}": (lambda family=family, q=q: cli.build_family(family, q), "half")
        for family in ("biaffine1", "biaffine2", "gq_truncation", "pencil")
        for q in (2, 3, 4, 5)
        if q > 2 or family == "pencil"
    },
    "ovoid_spread_q4": (lambda: cli.build_family("ovoid_spread", 4), "half"),
    "heawood": (heawood, "half"),
    "tutte_coxeter": (tutte_coxeter, "half"),
    "petersen": (petersen, "full"),
    "hoffman_singleton": (lambda: cli.build_family("named", name="hoffman_singleton"), "full"),
    "k33": (lambda: complete_bipartite(3), "half"),
    # at L = 15, k**L = 10**15, just within 2**53: M = NN^T takes float64
    "k10_10": (lambda: complete_bipartite(10), "half"),
    "k23": (lambda: Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)]), "half"),
    "path5": (lambda: Graph.from_edges(5, [(i, i + 1) for i in range(4)]), "half"),
    "two_k33": (
        lambda: Graph.from_edges(12, [(6 * c + i, 6 * c + 3 + j) for c in (0, 1) for i in range(3) for j in range(3)]),
        "full",
    ),
}


@pytest.mark.parametrize("name", sorted(HALF_ORDER_ORACLE_GRAPHS))
def test_half_order_route_matches_the_dense_oracles(name, monkeypatch):
    build, route = HALF_ORDER_ORACLE_GRAPHS[name]
    G = build()
    chains = _spy_chains(monkeypatch)
    k = int(G.deg.max())
    # the longest length whose counts float64 holds, at most 16
    L = max(length for length in range(MAX_MOMENT_LENGTH + 1) if k**length <= 2**53)
    assert walk_moments(G, L) == matrix_power_traces(G, L)
    dense = np.linalg.eigvalsh(graph_core._adjacency(G, float))[::-1]
    assert np.abs(np.array(eigenvalues(G).values) - dense).max() <= 1e-9
    order = G.n
    if route == "half":  # the smaller colour class
        order = min(np.bincount(list(nx.bipartite.color(nx.Graph(G.edges())).values())))
    # one chain for walk_moments(G, L), one for the check inside eigenvalues(G)
    assert [n for _, n in chains] == [order, order]


# the report-grid graphs, at the moment length ``report`` asks for
REPORT_GRID = [
    ("biaffine1", 7, None),
    ("gq_truncation", 4, None),
    ("ovoid_spread", 4, None),
    ("pencil", 3, None),
    ("pencil", 4, None),
    ("named", None, "hoffman_singleton"),
    ("named", None, "tutte_coxeter"),
]


@pytest.mark.parametrize("family,q,name", REPORT_GRID)
def test_float32_moments_match_python_ints_on_the_report_grid(family, q, name, monkeypatch):
    # the int64 oracle's traces, read as Python ints
    G = cli.build_family(family, q, name)
    L = min(verify_egr(G).g + 1, MAX_MOMENT_LENGTH)
    chains = _spy_chains(monkeypatch)
    moments = walk_moments(G, L)
    assert [dtype for dtype, _ in chains] == [np.float32]
    assert moments == matrix_power_traces(G, L) and all(type(m) is int for m in moments)


def test_trivial_lengths():
    assert walk_moments(petersen(), 0) == [10]
    assert tree_walk_count(0, 5) == 1
    assert walk_moments(Graph([]), 4) == [0, 0, 0, 0, 0]
    assert eigenvalues(Graph([])).moments == (0, 0, 0, 0, 0)


def test_moments_caps():
    with pytest.raises(ValueError):
        walk_moments(petersen(), 17)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_moments(petersen(), -1)


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_tree_walks_match_printed_polynomials(length):
    for k in range(3, 11):
        assert tree_walk_count(length, k) == PRINTED_POLYS[length](k)


def test_tree_walks_odd_lengths_vanish():
    assert all(tree_walk_count(length, 5) == 0 for length in (1, 3, 5, 7, 9))


def test_tree_walks_against_explicit_tree():
    for k in (3, 4, 6):
        for length in (2, 4, 6, 8):
            T = truncated_tree(k, depth=length // 2)
            assert tree_walk_count(length, k) == closed_walks_at_root(T, 0, length)


def test_tree_walk_closed_form_matches_distance_dp():
    for k in range(2, 40):
        dp = tree_walk_counts(40, k)
        assert [tree_walk_count(length, k) for length in range(41)] == dp
        for length in range(0, 41, 2):
            assert sum(c * k**t for t, c in enumerate(tree_walk_polynomial(length))) == dp[length]


def test_tree_walk_polynomial_coefficients():
    assert tree_walk_polynomial(2) == [0, 1]
    assert tree_walk_polynomial(4) == [0, -1, 2]
    assert tree_walk_polynomial(6) == [0, 2, -6, 5]
    assert tree_walk_polynomial(8) == [0, -5, 20, -28, 14]


def test_tree_walk_polynomial_leading_coefficient_is_catalan():
    for length in (2, 4, 6, 8, 10, 12):
        assert tree_walk_polynomial(length)[-1] == catalan(length // 2)


def test_catalan_values():
    assert [catalan(s) for s in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_sandwich():
    for s in range(1, 7):
        for k in range(3, 11):
            c = tree_walk_count(2 * s, k)
            assert catalan(s) * k * (k - 1) ** (s - 1) <= c <= catalan(s) * k**s


def test_moments_below_girth_are_tree_walks():
    for G in (petersen(), heawood(), tutte_coxeter()):
        sig = verify_egr(G)
        m = walk_moments(G, sig.g - 1)
        for length in range(sig.g):
            assert m[length] == G.n * tree_walk_count(length, sig.k)


def test_girth_moment_identity():
    for G in (petersen(), heawood(), tutte_coxeter(), build_pencil_graph(GF(2))):
        sig = verify_egr(G)
        m = walk_moments(G, sig.g)
        expected = sig.n * sig.k * sig.lam
        if sig.g % 2 == 0:
            expected += sig.n * tree_walk_count(sig.g, sig.k)
        assert m[sig.g] == expected


def test_eigenvalues_petersen():
    spec = eigenvalues(petersen())
    assert [(round(v, 6), m) for v, m in spec.groups] == [(3.0, 1), (1.0, 5), (-2.0, 4)]


def test_eigenvalues_k33():
    spec = eigenvalues(complete_bipartite(3))
    assert [(round(v, 6), m) for v, m in spec.groups] == [(3.0, 1), (0.0, 4), (-3.0, 1)]


def test_eigenvalues_regular_top_and_symmetry():
    for G in (heawood(), build_biaffine(GF(3), 2)):
        spec = eigenvalues(G)
        k = G.degree(0)
        assert abs(spec.largest - k) < 1e-8
        assert abs(spec.smallest + k) < 1e-8  # bipartite: symmetric spectrum
        vals = np.array(spec.values)
        assert np.allclose(vals, -vals[::-1], atol=1e-8)


def test_eigenvalues_match_numpy():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 24)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        G = Graph.from_edges(n, edges)
        A = np.zeros((n, n))
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        ours = np.array(eigenvalues(G).values)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(ours, ref, atol=1e-8)


def test_pencil_spectrum_q2():
    spec = eigenvalues(build_pencil_graph(GF(2)))
    assert [(round(v, 6), m) for v, m in spec.groups] == [(7.0, 1), (2.0, 14), (-2.0, 14), (-7.0, 1)]


def test_tight_spectrum_certificates():
    pen = build_pencil_graph(GF(2))
    res = certify_tight_spectrum(pen, verify_egr(pen))
    assert res.certified
    assert res.lambda2_squared == Fraction(30 * 7 - 2 * 49, 28) == 4

    k33 = complete_bipartite(3)
    res = certify_tight_spectrum(k33, verify_egr(k33))
    assert res.certified
    assert res.lambda2_squared == 0


def test_tight_spectrum_refusals():
    pet = petersen()
    res = certify_tight_spectrum(pet, verify_egr(pet))
    assert not res.certified
    assert "precondition" in res.reason

    hw = heawood()  # bipartite but girth 6
    res = certify_tight_spectrum(hw, verify_egr(hw))
    assert not res.certified


def test_tight_spectrum_accepts_the_3_cube():
    # Q3 = egr(8,3,4,2) meets the girth-4 bound with equality and its
    # spectrum {+-3, +-1^3} has the tight four-value shape
    cube = Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    sig = verify_egr(cube)
    assert (sig.n, sig.k, sig.g, sig.lam) == (8, 3, 4, 2)
    assert certify_tight_spectrum(cube, sig).certified


def test_tight_spectrum_rejects_loose_graph():
    # Q4 = egr(16,4,4,3) has spectrum {4, 2^4, 0^6, -2^4, -4}: five distinct
    # eigenvalues, so it cannot match the tight four-value pattern
    q4 = Graph.from_edges(16, [(i, i ^ (1 << b)) for i in range(16) for b in range(4) if i < i ^ (1 << b)])
    sig = verify_egr(q4)
    assert (sig.n, sig.k, sig.g, sig.lam) == (16, 4, 4, 3)
    res = certify_tight_spectrum(q4, sig)
    assert not res.certified
    assert "deviates" in res.reason


def test_moment_identity_on_gq_truncation():
    G = build_gq_truncation(GF(3))
    sig = verify_egr(G)
    m = walk_moments(G, 8)
    assert m[8] == sig.n * tree_walk_count(8, 3) + sig.n * 3 * sig.lam
    assert m[2] == sig.n * sig.k
    assert all(m[length] == 0 for length in (1, 3, 5, 7))


def test_moment_check_rejects_perturbed_spectrum(monkeypatch, capsys):
    # an eigensolver result that drifts from the exact walk moments must
    # never be returned, and the report turns the failure into exit 3
    def perturbed(A):
        vals = np.linalg.eigvalsh(A)
        vals[0] += 1e-6
        return vals

    monkeypatch.setattr(spectral, "eigvalsh", perturbed)
    with pytest.raises(ArithmeticError, match="moment check at length 1"):
        eigenvalues(petersen())
    code = main(["report", "--family", "named", "--name", "petersen"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: spectrum fails the exact moment check")


def _hypercube(d: int) -> Graph:
    return Graph.from_edges(2**d, [(i, i ^ (1 << b)) for i in range(2**d) for b in range(d) if i < i ^ (1 << b)])


def _crown(k: int) -> Graph:
    """K_{k,k} minus a perfect matching."""
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


# every family at q <= 5, the named graphs, K_{k,k} (k = 3..8), K_{k,k}
# minus a perfect matching (k = 4..8) and Q_d (d = 3..5): each verifies,
# with girth 4 or at least 5
MOMENT_PIN_GRAPHS = {
    **{
        f"{family}_q{q}": (lambda family=family, q=q: cli.build_family(family, q))
        for family in ("biaffine1", "biaffine2", "gq_truncation", "pencil")
        for q in (2, 3, 4, 5)
        if q > 2 or family == "pencil"
    },
    "ovoid_spread_q4": lambda: cli.build_family("ovoid_spread", 4),
    **{
        name: (lambda name=name: cli.build_family("named", name=name))
        for name in ("petersen", "hoffman_singleton", "heawood", "tutte_coxeter")
    },
    **{f"k{k}{k}": (lambda k=k: complete_bipartite(k)) for k in range(3, 9)},
    **{f"k{k}{k}_minus_matching": (lambda k=k: _crown(k)) for k in range(4, 9)},
    **{f"q{d}": (lambda d=d: _hypercube(d)) for d in range(3, 6)},
}


@pytest.mark.parametrize("name", list(MOMENT_PIN_GRAPHS))
def test_fourth_moment_is_fixed_by_the_signature(name):
    # each vertex starts k^2 + k(k - 1) closed 4-walks that trace no cycle,
    # and each of the nk lambda / 8 4-cycles gives 8 more: the certificate
    # rests on this, so on girth 4 it agrees with the bound and NN^T
    G = MOMENT_PIN_GRAPHS[name]()
    sig = verify_egr(G)
    n, k = sig.n, sig.k
    m4 = walk_moments(G, 4)[4]
    if sig.g == 4:
        assert m4 == n * k * (2 * k - 1 + sig.lam)
        tight = n == egr4_bound(k, sig.lam, bipartite=True)
        assert certify_tight_spectrum(G, sig).certified is tight is symmetric_design_identity(G, k)
    else:
        assert sig.g >= 5 and m4 == n * k * (2 * k - 1) == n * tree_walk_count(4, k)


def test_report_computes_moments_and_spectrum_once(monkeypatch, capsys):
    # per report: one matrix built (N, or A when G has no colour classes),
    # one moment chain and one eigensolve on it, one BFS (verify's), and no
    # separate walk_moments call; the certificate reads the spectrum's moments
    calls = {"matrix": 0, "_power_traces": 0, "eigensolve": 0, "_bfs_levels": 0, "walk_moments": 0}

    def counted(name, fn, built=lambda result: True):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += built(result)
            return result

        return wrapper

    monkeypatch.setattr(spectral, "_biadjacency", counted("matrix", spectral._biadjacency, lambda N: N is not None))
    monkeypatch.setattr(spectral, "_adjacency", counted("matrix", spectral._adjacency))
    monkeypatch.setattr(spectral, "_power_traces", counted("_power_traces", spectral._power_traces))
    for solver in ("eigvalsh", "svd"):
        monkeypatch.setattr(spectral, solver, counted("eigensolve", getattr(spectral, solver)))
    monkeypatch.setattr(graph_core, "_bfs_levels", counted("_bfs_levels", graph_core._bfs_levels))
    monkeypatch.setattr(spectral, "walk_moments", counted("walk_moments", spectral.walk_moments))
    for argv in (["--family", "pencil", "--q", "2"], ["--family", "named", "--name", "petersen"]):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["report", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        # pencil q=2 takes the half-order route, Petersen the full one
        assert doc["signature"]["bipartite"] is doc["tight_spectrum"]["certified"] is (argv[1] == "pencil")
        assert calls == {"matrix": 1, "_power_traces": 1, "eigensolve": 1, "_bfs_levels": 1, "walk_moments": 0}


def test_exact_identity_overrides_the_tolerance(monkeypatch):
    # Q4 = egr(16, 4, 4, 3) lies above its bound, 14; eigenvalues lie in
    # [-k, k], so a tolerance of 100 passes any spectrum and only the exact
    # verdict can refuse it
    monkeypatch.setattr(spectral, "TIGHT_TOL", 100.0)
    q4 = _hypercube(4)
    sig = verify_egr(q4)
    assert egr4_bound(sig.k, sig.lam, bipartite=True) == 14 < sig.n
    with pytest.raises(ArithmeticError, match="verdict True .* disagrees with the exact identity"):
        certify_tight_spectrum(q4, sig)
    # one switch breaks the symmetric design behind pencil q=3 (and here its
    # bipartiteness): its moments are not those of pencil's signature
    G = build_pencil_graph(GF(3))
    with pytest.raises(ValueError, match=r"not \(n, 0, nk, 0, nk\(2k - 1 \+ lambda\)\)"):
        certify_tight_spectrum(degree_preserving_switch(G), verify_egr(G))


def test_a_spectrum_of_another_graph_with_the_same_head_is_refused():
    # a switch between the two sides keeps pencil q=2 bipartite, connected
    # and 7-regular, so moments 0..3 agree; m_4 = 5298, not 30 * 7 * 25
    G = build_pencil_graph(GF(2))
    sig = verify_egr(G)
    switched = degree_preserving_switch(G, keep_sides=True)
    assert nx.is_bipartite(nx.Graph(switched.edges()))
    spec = eigenvalues(switched)
    assert spec.moments[:4] == (30, 0, 210, 0) and spec.moments[4] == 5298 != 30 * 7 * (2 * 7 - 1 + sig.lam) == 5250
    for graph, spectrum in ((G, spec), (switched, None)):
        with pytest.raises(ValueError, match=r"0\.\.4 are \(30, 0, 210, 0, 5298\), .* = \(30, 0, 210, 0, 5250\)"):
            certify_tight_spectrum(graph, sig, spectrum=spectrum)


# (graph constructor, verdict of the symmetric-design identity)
DESIGN_ORACLE_GRAPHS = {
    "pencil_q2": (lambda: build_pencil_graph(GF(2)), True),
    "pencil_q3": (lambda: build_pencil_graph(GF(3)), True),
    "pencil_q4": (lambda: build_pencil_graph(GF(2, 2)), True),
    "heawood": (heawood, True),
    "k33": (lambda: complete_bipartite(3), True),
    "k44": (lambda: complete_bipartite(4), True),  # k = mu, N = J
    "q3": (lambda: _hypercube(3), True),
    "q4": (lambda: _hypercube(4), False),  # mu = 12/7
    "petersen": (petersen, False),
    "tutte_coxeter": (tutte_coxeter, False),
    "biaffine1_q3": (lambda: cli.build_family("biaffine1", 3), False),
    "gq_truncation_q3": (lambda: cli.build_family("gq_truncation", 3), False),
    "ovoid_spread_q4": (lambda: cli.build_family("ovoid_spread", 4), False),
}


@pytest.mark.parametrize("name", list(DESIGN_ORACLE_GRAPHS))
def test_moment_identity_matches_the_design_oracle(name):
    # on a bipartite girth-4 signature, the certificate, the bound met with
    # equality and NN^T = N^TN = (k - mu)I + mu J agree; Heawood is a design
    # too, but of girth 6, outside the certificate's precondition
    build, verdict = DESIGN_ORACLE_GRAPHS[name]
    G = build()
    sig = verify_egr(G)
    assert symmetric_design_identity(G, sig.k) is verdict
    if sig.g == 4 and sig.bipartite:
        assert (sig.n == egr4_bound(sig.k, sig.lam, bipartite=True)) is verdict
        assert certify_tight_spectrum(G, sig).certified is verdict


def test_exact_identity_refuses_what_the_float_check_refuses(monkeypatch):
    q4 = _hypercube(4)
    sig = verify_egr(q4)
    # spectrum {+-4, +-2^4, 0^6}, five values: a bound of 16 would call it tight
    monkeypatch.setattr(bounds, "egr4_bound", lambda k, lam, bipartite=False: 16)
    with pytest.raises(ArithmeticError, match="verdict False"):
        certify_tight_spectrum(q4, sig)


def test_report_exits_3_when_the_exact_identity_disagrees(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bounds, "egr4_bound", lambda k, lam, bipartite=False: 0)
    out = tmp_path / "report.json"
    code = main(["report", "--family", "pencil", "--q", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == "" and not out.exists()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: tight-spectrum verdict True")


PASS_THROUGH_GRAPHS = {
    "pencil_q2": lambda: build_pencil_graph(GF(2)),
    "pencil_q3": lambda: build_pencil_graph(GF(3)),
    "k33": lambda: complete_bipartite(3),
    "k66": lambda: complete_bipartite(6),
    "q3": lambda: _hypercube(3),
    "q4": lambda: _hypercube(4),
    "petersen": petersen,
    "heawood": heawood,
}


@pytest.mark.parametrize("name", sorted(PASS_THROUGH_GRAPHS))
def test_pass_through_gives_the_same_results(name):
    G = PASS_THROUGH_GRAPHS[name]()
    sig = verify_egr(G)
    spec = eigenvalues(G)
    for L in (4, min(sig.g + 1, MAX_MOMENT_LENGTH)):
        longer = eigenvalues(G, length=L)
        assert longer.moments == tuple(walk_moments(G, L))
        assert (longer.values, longer.groups) == (spec.values, spec.groups)
    # dataclass equality compares every field: verdict, reason, lambda2^2, spectrum
    assert certify_tight_spectrum(G, sig, spectrum=spec) == certify_tight_spectrum(G, sig)


def test_pass_through_input_is_checked():
    G = petersen()
    for length in (-1, 3, MAX_MOMENT_LENGTH + 1):
        with pytest.raises(ValueError, match=f"must lie in 4..16, got {length}"):
            eigenvalues(G, length=length)
    # another graph's spectrum: another order, or the same order and another size
    for H, other in ((heawood(), G), (complete_bipartite(4), _hypercube(3))):
        with pytest.raises(ValueError, match=r"not \(n, 0, 2\|E\|\)"):
            certify_tight_spectrum(H, verify_egr(H), spectrum=eigenvalues(other))
