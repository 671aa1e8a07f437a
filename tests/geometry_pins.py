"""The line sets pinned in data/geometry_pins.json, the plane rows of PG(3,q)
pinned in data/plane_pins.json, the pencil graphs pinned in
data/pencil_pins.json, and how each pin is taken.

A spec (name, q) names PG(2,q) when name is "pg2" and W(q) when it is
"w".  Geometries are built through the uncached builders, so that a pass
over every spec holds at most one large line set at a time."""

from __future__ import annotations

import hashlib

import numpy as np

from egrtools import geometry
from egrtools.constructions import build_pencil_graph
from egrtools.galois import GF, prime_power
from egrtools.graph_core import graph6_encode


def _prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


# every order the biaffine planes (q <= 127) and the GQ truncation (q <= 25)
# built from the dense points x points incidence
GEOMETRY_SPECS = [("pg2", q) for q in _prime_powers(127)] + [("w", q) for q in _prime_powers(25)]

_GEOMETRIES = {"pg2": geometry.pg2_geometry, "w": geometry.symplectic_gq}


def spec_id(spec) -> str:
    name, q = spec
    return f"PG(2,{q})" if name == "pg2" else f"W({q})"


def build_uncached(spec) -> geometry.IncidenceGeometry:
    name, q = spec
    return _GEOMETRIES[name].__wrapped__(GF(*prime_power(q)))


def pin_of(spec, geom: geometry.IncidenceGeometry) -> dict:
    name, q = spec
    blocks = np.ascontiguousarray(geom.blocks, dtype="<i8")
    return {
        "geometry": name,
        "q": q,
        "shape": list(blocks.shape),
        "blocks_sha256": hashlib.sha256(blocks.tobytes()).hexdigest(),
    }


# every order the dense planes x points incidence of PG(3,q) was built for
PLANE_ORDERS = _prime_powers(25)


def plane_pin_of(q: int, rows: np.ndarray) -> dict:
    """Shape and sha256 of the plane rows of PG(3,q) as little-endian int64."""
    rows = np.ascontiguousarray(rows, dtype="<i8")
    return {"q": q, "shape": list(rows.shape), "rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest()}


# the pencil orders up to the report cap (q = 9) and two above it
PENCIL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def pencil_pin_of(q: int) -> dict:
    """Vertex count and the sha256 of graph6_encode and of repr(list(labels))
    of the pencil graph at q."""
    G = build_pencil_graph(GF(*prime_power(q)))
    graph6, labels = graph6_encode(G).encode(), repr(list(G.labels)).encode()
    return {"q": q, "n": G.n, "graph6_sha256": hashlib.sha256(graph6).hexdigest(),
            "labels_sha256": hashlib.sha256(labels).hexdigest()}
