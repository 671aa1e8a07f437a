"""Print the q=32 spread pin of tests/test_geometry.py: the sha256 of the
lexicographically smallest spread of W(32), found by the exhaustive search
(``oracles.spread_search``), as little-endian int64 line indices.

    PYTHONPATH=src:tests python tests/data/make_spread_pin.py

The search takes 40-80 s and about 630 MiB, so the suite checks the
regular spread against the printed hash, not against the search.
"""

from __future__ import annotations

import hashlib

import numpy as np
from oracles import spread_search

from egrtools.galois import GF
from egrtools.geometry import symplectic_gq


def spread_sha256(spread) -> str:
    return hashlib.sha256(np.asarray(spread, dtype="<i8").tobytes()).hexdigest()


if __name__ == "__main__":
    print(spread_sha256(spread_search(symplectic_gq(GF(2, 5)))))
