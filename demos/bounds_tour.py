#!/usr/bin/env python3
"""Walk through the lower bounds and the extremality certificates.

Reproduces the headline numbers: n(3,5,4) >= 1458/149 ~ 9.79 (so the
Petersen graph is extremal), the tight girth-4 bound for the pencil
graphs and K_{k,k}, and the bound table for a non-tight family.
"""

from fractions import Fraction

from egrtools import (
    GF,
    bound_report,
    build_biaffine,
    build_gq_truncation,
    build_pencil_graph,
    certify_extremal,
    complete_bipartite,
    dfjr_bound,
    egr4_bound,
    odd_girth_bound,
    petersen,
    verify_egr,
)
from egrtools.constructions import FAMILIES

print("Petersen chain")
print("-" * 72)
sig = verify_egr(petersen())
bound = odd_girth_bound(3, 5, 4)
print(f"  verified: {sig}")
print(f"  odd-girth bound: {bound} = {float(bound):.4f}  ->  ceil to even order: 10")
verdict = certify_extremal(sig)
print(f"  verdict: {verdict.statement}")
assert bound == Fraction(1458, 149) and verdict.certified

print()
print("Girth-4 tightness: pencil graphs and K_{k,k}")
print("-" * 72)
for q in (2, 3):
    _, k, _, lam = FAMILIES["pencil"].signature(q)
    value = egr4_bound(k, lam, bipartite=True)
    sig = verify_egr(build_pencil_graph(GF(q)))
    print(f"  pencil q={q}: bound 2(k^3-2k^2+2k-1+lam)/(lam+k-1) = {value}, order = {sig.n}")
    assert value == sig.n
for k in (3, 4, 5, 6):
    sig = verify_egr(complete_bipartite(k))
    assert egr4_bound(k, (k - 1) ** 2, bipartite=True) == 2 * k
    print(f"  K_{{{k},{k}}}: bound = order = {2 * k}")

print()
print("Girth 6: the deficiency bound is tight for type-2 biaffine planes")
print("-" * 72)
sig = verify_egr(build_biaffine(GF(3), 2))
print(f"  biaffine2 q=3: {sig}; dfjr bound {dfjr_bound(3, 6, 6, bipartite=True)}")
print(f"  verdict: {certify_extremal(sig).statement}")

print()
print("Girth 8: the truncated GQ family is NOT known extremal; see the gap")
print("-" * 72)
sig = verify_egr(build_gq_truncation(GF(3)))
rep = bound_report(sig.k, sig.g, sig.lam, sig.bipartite)
print(f"  gq_truncation q=3: {sig}")
for name, value in sorted(rep.contributions.items()):
    print(f"    {name:>14}: {value}")
print(f"  order {sig.n} vs best bound {rep.best}: gap {sig.n - rep.best}")
