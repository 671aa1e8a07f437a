#!/usr/bin/env python3
"""Exact closed-walk moments vs. floating-point spectra.

Integer moments (traces of adjacency powers) are computed exactly; the
spectrum comes from LAPACK (eigvalsh, or svd of the biadjacency matrix of
a connected bipartite graph), is checked against the exact moments at
runtime before it is returned, and carries them
(``eigenvalues(G, length=L).moments``).  The four-eigenvalue
tight-spectrum certificate, cross-checked by the girth-4 bound met with
equality on the verified signature (n = egr4_bound(k, lambda,
bipartite=True)), is issued for the pencil graphs from the spectrum
already computed.
"""

from egrtools import (
    GF,
    build_pencil_graph,
    certify_tight_spectrum,
    eigenvalues,
    heawood,
    petersen,
    tree_walk_count,
    tutte_coxeter,
    verify_egr,
    walk_moments,
)

print("Cycle-free closed-walk counts on the k-regular tree")
print("-" * 72)
print(" " * 9 + "".join(f"{f'k = {k}':>12}" for k in range(3, 8)))
for length in (2, 4, 6, 8):
    print(f"  c({length}, k)" + "".join(f"{tree_walk_count(length, k):>12}" for k in range(3, 8)))

print()
print("Moments below the girth are pure tree walks: moments[l] = n * c(l, k)")
print("-" * 72)
for G, name in ((petersen(), "petersen"), (heawood(), "heawood"), (tutte_coxeter(), "tutte-coxeter")):
    sig = verify_egr(G)
    m = walk_moments(G, sig.g)
    below = all(m[length] == sig.n * tree_walk_count(length, sig.k) for length in range(sig.g))
    at_girth = m[sig.g] - sig.n * tree_walk_count(sig.g, sig.k)
    print(f"  {name}: {sig}; sub-girth agreement: {below}; girth excess = nk*lambda = {at_girth}")
    assert at_girth == sig.n * sig.k * sig.lam

print()
print("Spectra and the tight-spectrum certificate")
print("-" * 72)
for q in (2, 3):
    G = build_pencil_graph(GF(q))
    sig = verify_egr(G)
    spec = eigenvalues(G)
    groups = ", ".join(f"{v:+.4f} x{m}" for v, m in spec.groups)
    cert = certify_tight_spectrum(G, sig, spectrum=spec)
    print(f"  pencil q={q}: spectrum {{{groups}}}")
    print(f"    -> {cert.reason}")
    assert cert.certified

spec = eigenvalues(petersen(), length=6)
print(f"  petersen: {[(round(v, 6), m) for v, m in spec.groups]}")
m = spec.moments
print(f"  petersen exact moments 0..6: {list(m)}")
checks = [abs(sum(v**l for v in spec.values) - m[l]) < 1e-6 for l in range(7)]
print(f"  eigenvalue powers reproduce every exact moment: {all(checks)}")
