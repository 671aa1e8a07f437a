"""Write field_pins.json, the pinned modulus, generator and table hashes
of every field in FIELD_SPECS.

    PYTHONPATH=src:tests python tests/data/make_field_pins.py

Each entry records a field's modulus and generator and the sha256 of its
``_exp`` and ``_log`` tables as little-endian int32 bytes.  The pins were
recorded from the schoolbook table builder (exhaustive trial division for
the modulus, one pure-Python power per generator candidate), so they tie
every later builder to its output byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from field_pins import FIELD_SPECS, build_uncached, pin_of

OUT = Path(__file__).with_name("field_pins.json")


def main() -> None:
    pins = [pin_of(spec, build_uncached(spec)) for spec in FIELD_SPECS]
    rows = ",\n".join("  " + json.dumps(pin) for pin in pins)
    OUT.write_text('{"fields": [\n' + rows + "\n]}\n")
    print(f"wrote {len(pins)} pins to {OUT}")


if __name__ == "__main__":
    main()
