"""Fixed inputs of the report-grid and construct-grid workloads, and the
names of the per-layer metrics.  Shared by run.py, the
workload process and the reference recorder; imports nothing heavy."""

from __future__ import annotations

import hashlib

# (family, q, name) exactly as the `egrtools report` flags take them.
# Sizes that must stay out of a workload: ovoid_spread q=8 (did not finish
# in 12 min) and pencil q=5 verify (~25 s); see README.md.
REPORT_ITEMS = [
    ("biaffine1", 7, None),
    ("gq_truncation", 4, None),
    ("ovoid_spread", 4, None),
    ("pencil", 3, None),
    ("pencil", 4, None),
    ("named", None, "hoffman_singleton"),
    ("named", None, "tutte_coxeter"),
]

# The field GF(p^e) whose tables construct-grid builds first.
CONSTRUCT_FIELD = (2, 16)
# (family, q) built by construct-grid, each followed by graph6_encode.
CONSTRUCT_ITEMS = [
    ("biaffine1", 11),
    ("gq_truncation", 5),
    ("pencil", 5),
]

# The small item the workload process runs once, untimed, before its
# first timed pass, so one-time lazy imports do not land in pass 1.
WARMUP_ITEM = ("named", None, "petersen")

LAYER_SECONDS = [
    "galois.gf_s",
    "geometry.s",
    "constructions.s",
    "graph_core.verify_s",
    "graph_core.g6_decode_s",
    "graph_core.g6_encode_s",
    "spectral.moments_s",
    "spectral.eigen_s",
    "spectral.tight_s",
    "bounds.s",
]
# Per-layer counts and their units.
LAYER_COUNTS = {
    "galois.gf_calls": "count",
    "graph_core.verify_calls": "count",
    "graph_core.edges_verified": "count",
    "graph_core.g6_bytes": "bytes",
    "spectral.eigen_order_sum": "count",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def item_key(family: str, q: int | None, name: str | None) -> str:
    """Metric-safe name of a report item: `pencil_q4`, `named_petersen`."""
    return f"named_{name}" if family == "named" else f"{family}_q{q}"


def report_argv(family: str, q: int | None, name: str | None, out: str) -> list[str]:
    argv = ["report", "--family", family]
    argv += ["--name", name] if family == "named" else ["--q", str(q)]
    return argv + ["--out", out]


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p prime and p**e == q."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    e, r = 0, q
    while p and r % p == 0:
        r //= p
        e += 1
    if p is None or r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e
