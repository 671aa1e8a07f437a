"""Write plane_pins.json, the pinned shape and row hash of the planes of
PG(3,q) for every q in PLANE_ORDERS.

    PYTHONPATH=src:tests python tests/data/make_plane_pins.py

Row i of a pin's array holds, ascending, the points of the plane with the
dual coordinates of point i, read off the dense planes x points incidence
(``oracles.incidence``), whose cost grows as the square of the point
count.  The pins were recorded from that dense builder, so they tie the
planes of the pencil, the Singer translates of one difference set
(``tests/test_geometry.py::plane_rows``), to it byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from geometry_pins import PLANE_ORDERS, plane_pin_of
from oracles import incidence

from egrtools.galois import GF, prime_power
from egrtools.geometry import point_array

OUT = Path(__file__).with_name("plane_pins.json")


def dense_rows(q: int) -> np.ndarray:
    F = GF(*prime_power(q))
    pts = point_array(3, F)
    return np.nonzero(incidence(F, pts, pts))[1].reshape(len(pts), -1)


def main() -> None:
    pins = [plane_pin_of(q, dense_rows(q)) for q in PLANE_ORDERS]
    rows = ",\n".join("  " + json.dumps(pin) for pin in pins)
    OUT.write_text('{"planes": [\n' + rows + "\n]}\n")
    print(f"wrote {len(pins)} pins to {OUT}")


if __name__ == "__main__":
    main()
