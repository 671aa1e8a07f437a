"""Write pencil_pins.json, the pinned vertex count, graph6 hash and labels
hash of the pencil graph for every q in PENCIL_ORDERS.

    PYTHONPATH=src:tests python tests/data/make_pencil_pins.py

The pins were recorded while the pencil took its tangent planes from the
enumerated planes of PG(3,q) and their meet counts with every member, so
they tie the difference-set construction to that one byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from geometry_pins import PENCIL_ORDERS, pencil_pin_of

OUT = Path(__file__).with_name("pencil_pins.json")


def main() -> None:
    pins = [pencil_pin_of(q) for q in PENCIL_ORDERS]
    rows = ",\n".join("  " + json.dumps(pin) for pin in pins)
    OUT.write_text('{"pencils": [\n' + rows + "\n]}\n")
    print(f"wrote {len(pins)} pins to {OUT}")


if __name__ == "__main__":
    main()
