"""Acceptance suite: one test per shipped criterion, each printing a
PASS line on success (pytest -s shows them; any failure fails the test).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

import pytest

from egrtools.bounds import (
    DegenerateBound,
    certify_extremal,
    dfjr_bound,
    egr4_bound,
    even_girth_bound,
    odd_girth_bound,
    vertex_cycle_cap,
)
from egrtools.constructions import (
    build_biaffine,
    build_gq_truncation,
    build_ovoid_spread,
    build_pencil_graph,
    complete_bipartite,
    heawood,
    hoffman_singleton,
    petersen,
    tutte_coxeter,
)
from egrtools.galois import GF
from egrtools.graph_core import (
    Graph,
    Graph6Error,
    graph6_decode,
    graph6_encode,
    verify_egr,
)
from egrtools.spectral import (
    certify_tight_spectrum,
    eigenvalues,
    tree_walk_count,
    walk_moments,
)
from oracles import catalan, odd_girth_bound_g5, vertex_cycle_count_dfs

F = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}

CONSTRUCTIONS = [
    ("biaffine1 q=3", lambda: build_biaffine(F[3], 1), (18, 3, 6, 4)),
    ("biaffine1 q=4", lambda: build_biaffine(F[4], 1), (32, 4, 6, 18)),
    ("biaffine1 q=5", lambda: build_biaffine(F[5], 1), (50, 5, 6, 48)),
    ("biaffine2 q=3", lambda: build_biaffine(F[3], 2), (16, 3, 6, 6)),
    ("biaffine2 q=4", lambda: build_biaffine(F[4], 2), (30, 4, 6, 21)),
    ("biaffine2 q=5", lambda: build_biaffine(F[5], 2), (48, 5, 6, 52)),
    ("gq_truncation q=3", lambda: build_gq_truncation(F[3]), (54, 3, 8, 8)),
    ("gq_truncation q=4", lambda: build_gq_truncation(F[4]), (128, 4, 8, 45)),
    ("ovoid_spread q=4", lambda: build_ovoid_spread(F[4]), (136, 4, 8, 36)),
    ("pencil q=2", lambda: build_pencil_graph(F[2]), (30, 7, 4, 12)),
    ("pencil q=3", lambda: build_pencil_graph(F[3]), (80, 13, 4, 36)),
]


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_construction_signatures():
    for name, build, expected in CONSTRUCTIONS:
        sig = verify_egr(build())
        assert (sig.n, sig.k, sig.g, sig.lam) == expected, name
        assert sig.bipartite, name
    _ok(1, f"all {len(CONSTRUCTIONS)} constructed families verify to the exact formula signatures")


def test_criterion_2_petersen_chain():
    sig = verify_egr(petersen())
    assert (sig.n, sig.k, sig.g, sig.lam, sig.bipartite) == (10, 3, 5, 4, False)
    bound = odd_girth_bound(3, 5, 4)
    assert bound == Fraction(1458, 149)
    assert abs(float(bound) - 9.7852) <= 1e-4
    assert certify_extremal(sig).certified
    _ok(2, "petersen verifies as egr(10,3,5,4), bound 1458/149 ~ 9.7852, certified extremal")


def test_criterion_3_pencil_tightness_and_spectrum():
    assert egr4_bound(7, 12, bipartite=True) == 30
    for q, lam2 in ((2, 2.0), (3, 3.0)):
        G = build_pencil_graph(F[q])
        k = q * q + q + 1
        half_mult = q**3 + q**2 + q  # (n-2)/2
        spec = eigenvalues(G)
        expected = sorted(
            [float(k), float(-k)] + [lam2] * half_mult + [-lam2] * half_mult, reverse=True
        )
        assert len(spec.values) == 2 * (q**3 + q**2 + q + 1)
        assert max(abs(a - b) for a, b in zip(spec.values, expected)) <= 1e-6
        cert = certify_tight_spectrum(G, verify_egr(G))
        assert cert.certified
    _ok(3, "egr4(7,12)=30; pencil spectra are {+-k, +-q^((n-2)/2)} within 1e-6 and certify tight (q=2,3)")


def test_criterion_4_complete_bipartite_family():
    for k in (3, 4, 5, 6):
        sig = verify_egr(complete_bipartite(k))
        assert (sig.n, sig.k, sig.g, sig.lam, sig.bipartite) == (2 * k, k, 4, (k - 1) ** 2, True)
        assert egr4_bound(k, (k - 1) ** 2, bipartite=True) == 2 * k
    _ok(4, "K_{k,k} verifies as egr(2k,k,4,(k-1)^2) and meets the girth-4 bound exactly, k=3..6")


def test_criterion_5_walk_polynomial_suite():
    printed = {
        2: lambda k: k,
        4: lambda k: 2 * k**2 - k,
        6: lambda k: 5 * k**3 - 6 * k**2 + 2 * k,
        8: lambda k: 14 * k**4 - 28 * k**3 + 20 * k**2 - 5 * k,
    }
    for length, poly in printed.items():
        for k in range(3, 11):
            assert tree_walk_count(length, k) == poly(k)
    for s in range(1, 7):
        for k in range(3, 11):
            c = tree_walk_count(2 * s, k)
            assert catalan(s) * k * (k - 1) ** (s - 1) <= c <= catalan(s) * k**s
    for G in (petersen(), heawood(), tutte_coxeter()):
        sig = verify_egr(G)
        moments = walk_moments(G, sig.g - 1)
        for length in range(sig.g):
            assert moments[length] == sig.n * tree_walk_count(length, sig.k)
    _ok(5, "tree-walk counts match the printed polynomials, Catalan sandwich holds, sub-girth moments agree")


def test_criterion_6_moment_identities_on_constructions():
    for name, build, _ in CONSTRUCTIONS:
        G = build()
        sig = verify_egr(G)
        moments = walk_moments(G, sig.g)
        assert moments[1] == 0, name
        assert moments[2] == sig.n * sig.k, name
        expected = sig.n * sig.k * sig.lam
        if sig.g % 2 == 0:
            expected += sig.n * tree_walk_count(sig.g, sig.k)
        assert moments[sig.g] == expected, name
    _ok(6, "moments[1]=0, moments[2]=nk, moments[g]=n*c(g,k)+nk*lambda on every constructed family")


def test_criterion_7_cycle_cap_sharpness():
    t0 = time.time()
    pet = petersen()
    counts = [vertex_cycle_count_dfs(pet, v, 6) for v in range(pet.n)]
    assert max(counts) == vertex_cycle_cap(3, 5, 4) == 6
    hs = hoffman_singleton()
    counts = [vertex_cycle_count_dfs(hs, v, 6) for v in range(hs.n)]
    assert max(counts) == vertex_cycle_cap(7, 5, 36) == 630
    elapsed = time.time() - t0
    assert elapsed <= 60
    _ok(7, f"per-vertex 6-cycle maxima hit the caps: petersen 6, hoffman-singleton 630 ({elapsed:.1f}s)")


def test_criterion_8_dfjr_reproductions():
    assert dfjr_bound(3, 6, 6, bipartite=True) == 16
    assert verify_egr(build_biaffine(F[3], 2)).n == 16
    assert dfjr_bound(7, 4, 12, bipartite=True) == 22
    assert egr4_bound(7, 12, bipartite=True) == 30 > 22
    _ok(8, "dfjr(3,6,6)=16 tight for biaffine2 q=3; dfjr(7,4,12)=22 strictly dominated by girth-4 bound 30")


def test_criterion_9_bound_branch_identities():
    for k in range(3, 11):
        for lam in range(1, 61):
            assert even_girth_bound(k, 4, lam) == egr4_bound(k, lam)
            assert even_girth_bound(k, 4, lam, bipartite=True) == egr4_bound(k, lam, bipartite=True)
    for k in range(3, 11):
        for lam in range(1, 41):
            try:
                general = odd_girth_bound(k, 5, lam)
            except DegenerateBound:
                with pytest.raises(DegenerateBound):
                    odd_girth_bound_g5(k, lam)
                continue
            assert general == odd_girth_bound_g5(k, lam)
    _ok(9, "even-girth bound == girth-4 bound at g=4 (k<=10, lam<=60); odd general == g=5 polynomial (k<=10, lam<=40)")


def test_criterion_10_graph6_roundtrip():
    rng = random.Random(1729)
    for _ in range(100):
        n = rng.randint(0, 64)
        p = rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        G = Graph.from_edges(n, edges)
        assert graph6_decode(graph6_encode(G)) == G
    for name, build, _ in CONSTRUCTIONS:
        G = build()
        assert graph6_decode(graph6_encode(G)) == G, name
    malformed = ["", "~", "~~~", chr(62), "D", "DqKK", "Dq", "D\x7fK", "AC", "Bé"]
    for bad in malformed:
        with pytest.raises(Graph6Error):
            graph6_decode(bad)
    _ok(10, "graph6 round-trips 100 random + all constructed graphs; rejects 10 malformed inputs")
