from fractions import Fraction
from itertools import combinations

import pytest

from egrtools.bounds import (
    DegenerateBound,
    bound_report,
    certify_extremal,
    dfjr_bound,
    egr4_bound,
    even_girth_bound,
    feasible_order,
    moore_bound,
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
from egrtools.graph_core import Graph, verify_egr
from oracles import odd_girth_bound_g5, vertex_cycle_count_dfs

F = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}


def test_moore_values():
    assert moore_bound(3, 5) == 10
    assert moore_bound(3, 6) == 14
    assert moore_bound(7, 5) == 50
    assert moore_bound(3, 8) == 30
    assert moore_bound(7, 4) == 14


def test_dfjr_values():
    assert dfjr_bound(3, 6, 6, bipartite=True) == 16
    assert dfjr_bound(7, 4, 12, bipartite=True) == 22
    assert dfjr_bound(3, 5, 4) == 10
    assert dfjr_bound(3, 8, 8, bipartite=True) == 36


def test_dfjr_applicability():
    assert dfjr_bound(3, 5, 5) is None  # lambda > (k-1)^2
    assert dfjr_bound(3, 6, 9, bipartite=True) is None  # lambda > (k-1)^3
    with pytest.raises(ValueError):
        dfjr_bound(3, 5, 4, bipartite=True)


def test_dfjr_monotone_in_lambda():
    for k, g in ((3, 6), (4, 6), (5, 8)):
        cap = (k - 1) ** (g // 2)
        values = [dfjr_bound(k, g, lam, bipartite=True) for lam in range(1, cap + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_egr4_values():
    assert egr4_bound(7, 12, bipartite=True) == 30
    assert egr4_bound(3, 4, bipartite=True) == 6
    # pencil graph at q=3: bound equals the construction's order exactly
    assert egr4_bound(13, 36, bipartite=True) == 80


def test_egr4_complete_bipartite_family():
    for k in range(3, 7):
        assert egr4_bound(k, (k - 1) ** 2, bipartite=True) == 2 * k


def test_even_girth_values():
    assert even_girth_bound(3, 6, 8, bipartite=True) == Fraction(1458, 111)
    assert even_girth_bound(3, 8, 16, bipartite=True) == Fraction(9444, 366)
    assert even_girth_bound(7, 4, 12, bipartite=True) == 30
    with pytest.raises(ValueError):
        even_girth_bound(3, 5, 4)


def test_even_girth_reduces_to_egr4():
    for k in range(3, 11):
        for lam in range(1, 61):
            assert even_girth_bound(k, 4, lam) == egr4_bound(k, lam)
            assert even_girth_bound(k, 4, lam, bipartite=True) == egr4_bound(k, lam, bipartite=True)


def test_odd_girth_values():
    assert odd_girth_bound(3, 5, 4) == Fraction(1458, 149)
    assert abs(float(odd_girth_bound(3, 5, 4)) - 9.7852) < 1e-4
    # Hoffman-Singleton respects the bound
    assert float(odd_girth_bound(7, 5, 36)) <= 50
    with pytest.raises(ValueError):
        odd_girth_bound(3, 6, 4)


def test_odd_girth_general_equals_g5_polynomial():
    for k in range(3, 11):
        for lam in range(1, 41):
            try:
                general = odd_girth_bound(k, 5, lam)
            except DegenerateBound:
                with pytest.raises(DegenerateBound):
                    odd_girth_bound_g5(k, lam)
                continue
            assert general == odd_girth_bound_g5(k, lam)


def test_odd_girth_denominator_guard():
    # the division is guarded, but at g=5 the denominator
    # 2k^4+3k^3-8k^2+5k-1 - lam^2 - (2k-1)lam has no integer roots for any
    # k <= 30, lam <= 400: the guard is pure defense there
    assert issubclass(DegenerateBound, ArithmeticError)
    for k in range(3, 31):
        for lam in range(1, 401):
            den = 2 * k**4 + 3 * k**3 - 8 * k**2 + 5 * k - 1 - lam * lam - 2 * k * lam + lam
            assert den != 0
    # past the sign change the raw value is no longer a valid lower bound;
    # bound_report must drop it with a note
    rep = bound_report(3, 5, 4)
    assert "spectral_odd" in rep.contributions
    big = bound_report(3, 5, 16)  # den = 185 - 256 - 80 + 16 < 0
    assert "spectral_odd" not in big.contributions
    assert any("negative denominator" in note for note in big.notes)


def test_vertex_cycle_cap_values():
    assert vertex_cycle_cap(3, 5, 4) == 6
    assert vertex_cycle_cap(7, 5, 36) == 630
    assert vertex_cycle_cap(3, 5, 8) == 0
    assert vertex_cycle_cap(3, 5, 9) is None  # beyond (k-1)^(h+1)
    with pytest.raises(ValueError):
        vertex_cycle_cap(3, 6, 4)


def test_vertex_cap_sharp_on_petersen():
    G = petersen()
    counts = [vertex_cycle_count_dfs(G, v, 6) for v in range(G.n)]
    assert max(counts) == vertex_cycle_cap(3, 5, 4) == 6


def test_feasible_order_parity():
    assert feasible_order(Fraction(1458, 149), 3, False) == 10
    assert feasible_order(9, 4, False) == 9
    assert feasible_order(9, 3, False) == 10  # odd k forces even order
    assert feasible_order(9, 4, True) == 10  # bipartite forces even order


def test_bound_report_fields():
    rep = bound_report(3, 5, 4)
    assert rep.moore == 10
    assert rep.spectral_odd == Fraction(1458, 149)
    assert rep.spectral_even is None
    assert rep.vertex_cap == 6
    assert rep.best == 10
    rep = bound_report(7, 4, 12, bipartite=True)
    assert rep.dfjr == 22
    assert rep.spectral_even == 30
    assert rep.best == 30
    with pytest.raises(ValueError):
        bound_report(2, 5, 1)


def test_bound_report_out_of_range_lambda_noted():
    rep = bound_report(3, 5, 9)
    assert rep.dfjr is None
    assert any("dfjr" in note for note in rep.notes)
    assert any("vertex_cap" in note for note in rep.notes)


@pytest.mark.parametrize("n", [4, 5])
def test_complete_graphs_certify_at_girth_three(n):
    # K_n is egr(n, n-1, 3, n-2): Moore and dfjr both give n; the vertex cap
    # and the odd-girth bound need g >= 5 and are omitted with a note each
    sig = verify_egr(Graph.from_edges(n, combinations(range(n), 2)))
    assert (sig.n, sig.k, sig.g, sig.lam) == (n, n - 1, 3, n - 2)
    v = certify_extremal(sig)
    assert v.certified and v.gap == 0 and v.tight_bounds == ("dfjr", "moore")
    rep = v.report
    assert rep.vertex_cap is None and rep.spectral_odd is None
    assert rep.notes == (
        "vertex_cap: defined for odd girth g >= 5; omitted",
        "spectral_odd: defined for odd girth g >= 5; omitted",
    )


def test_soundness_on_all_constructions():
    graphs = [
        build_biaffine(F[3], 1),
        build_biaffine(F[3], 2),
        build_biaffine(F[4], 1),
        build_biaffine(F[4], 2),
        build_biaffine(F[5], 1),
        build_biaffine(F[5], 2),
        build_gq_truncation(F[3]),
        build_gq_truncation(F[4]),
        build_ovoid_spread(F[4]),
        build_pencil_graph(F[2]),
        build_pencil_graph(F[3]),
        petersen(),
        heawood(),
        tutte_coxeter(),
        hoffman_singleton(),
        complete_bipartite(3),
        complete_bipartite(6),
    ]
    for G in graphs:
        sig = verify_egr(G)
        rep = bound_report(sig.k, sig.g, sig.lam, sig.bipartite)
        assert sig.n >= rep.best, f"{sig} beats {rep.contributions}"


def test_cap_soundness_on_odd_girth_graphs():
    for G in (petersen(), hoffman_singleton()):
        sig = verify_egr(G)
        cap = vertex_cycle_cap(sig.k, sig.g, sig.lam)
        counts = [vertex_cycle_count_dfs(G, v, sig.g + 1) for v in range(G.n)]
        assert max(counts) == cap  # sharp for both


def test_certify_extremal_verdicts():
    assert certify_extremal(verify_egr(petersen())).certified
    assert certify_extremal(verify_egr(build_pencil_graph(F[2]))).certified
    assert certify_extremal(verify_egr(build_biaffine(F[3], 2))).certified
    assert certify_extremal(verify_egr(build_biaffine(F[3], 1))).certified
    v = certify_extremal(verify_egr(build_gq_truncation(F[3])))
    assert not v.certified
    assert v.gap == 54 - 36  # best applicable bound is dfjr = 36
    assert "gap" in v.statement


def test_certificate_names_tight_bound():
    v = certify_extremal(verify_egr(build_pencil_graph(F[2])))
    assert "spectral_even" in v.tight_bounds
    assert "not an exhaustive minimality proof" in v.statement


# The paper's Remark: the truncated W(q) is egr(2q^3, q, 8, (q-1)^2((q-2)^2+1))
# and n_2(q, 8, lambda) >= 2(q^3 - 6q + 10), an excess of 2(6q - 10).  The
# bound is the Moore bound plus 2 ceil(2(q-1)^2(q-2)/q), which equals the
# closed form only when 4/q < 1: at q = 3 and 4 the exact bound is 36 and
# 98, not 38 and 100, and the gaps are 18 and 30.
def _remark_signature(q: int):
    from egrtools.graph_core import EgrSignature

    return EgrSignature(n=2 * q**3, k=q, g=8, lam=(q - 1) ** 2 * ((q - 2) ** 2 + 1), bipartite=True)


@pytest.mark.parametrize("q,bound,gap", [(3, 36, 18), (4, 98, 30)] + [
    (q, 2 * (q**3 - 6 * q + 10), 2 * (6 * q - 10)) for q in (5, 7, 8, 9, 11, 13, 16, 49)
])
def test_remark_bound_and_gap(q, bound, gap):
    sig = _remark_signature(q)
    assert dfjr_bound(sig.k, sig.g, sig.lam, bipartite=True) == bound
    assert certify_extremal(sig).gap == gap


def test_remark_on_a_built_and_verified_gq_truncation(capsys):
    import json

    from egrtools.cli import main

    assert main(["report", "--family", "gq_truncation", "--q", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == {"n": 250, "k": 5, "g": 8, "lambda": 160, "bipartite": True}
    assert doc["bounds"]["best"] == 210 and doc["extremal"]["gap"] == 40
