#!/usr/bin/env python3
"""Build every geometric family at small q and check the verified
signature against the closed form in its row of ``constructions.FAMILIES``.

The verifier counts girth cycles through every edge exactly, so an OK
line here means the (n, k, g, lambda) formula is machine-checked, not
assumed.  Exits 1 on a mismatch.
"""

from egrtools import GF, verify_egr
from egrtools.constructions import FAMILIES
from egrtools.galois import prime_power

SMALL_Q = {"biaffine1": (3, 4, 5), "biaffine2": (3, 4, 5), "gq_truncation": (3, 4), "ovoid_spread": (4,), "pencil": (2, 3)}

mismatches = 0
for family, row in FAMILIES.items():
    for q in SMALL_Q[family]:
        sig = verify_egr(row.build(GF(*prime_power(q))))
        formula = row.signature(q)
        ok = (sig.n, sig.k, sig.g, sig.lam) == formula
        mismatches += not ok
        print(f"  {family} q={q}: {sig}   closed form egr{formula}", "OK" if ok else "MISMATCH")

print()
print("Every edge of every graph above was checked by exact non-backtracking walk counts.")
raise SystemExit(1 if mismatches else 0)
