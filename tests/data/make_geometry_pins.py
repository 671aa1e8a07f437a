"""Write geometry_pins.json, the pinned shape and block-array hash of every
line set in GEOMETRY_SPECS.

    PYTHONPATH=src:tests python tests/data/make_geometry_pins.py

Each entry records the shape of a geometry's ``blocks`` array and the
sha256 of its bytes as little-endian int64.  The pins were recorded from
the dense line builders (a points x points incidence matrix for PG(2,q),
an isotropy matrix and a walk over its rows for W(q)), so they tie every
later builder to its output byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from geometry_pins import GEOMETRY_SPECS, build_uncached, pin_of

OUT = Path(__file__).with_name("geometry_pins.json")


def main() -> None:
    pins = [pin_of(spec, build_uncached(spec)) for spec in GEOMETRY_SPECS]
    rows = ",\n".join("  " + json.dumps(pin) for pin in pins)
    OUT.write_text('{"geometries": [\n' + rows + "\n]}\n")
    print(f"wrote {len(pins)} pins to {OUT}")


if __name__ == "__main__":
    main()
