"""Write report_pins.json, the pinned sha256 of the ``egrtools report``
JSON of every item in REPORT_PIN_ITEMS.

    PYTHONPATH=src:tests python tests/data/make_report_pins.py

A pin hashes the report as ``report_digest`` (``report_pins.py``) reads
it: the JSON the CLI writes, less its ``timestamp``, ``timing`` and
``command`` fields, dumped again with the CLI's own layout.  Every other
byte counts: the signature, the graph6 string, the moments, the spectrum
rounded to 9 digits, the tight-spectrum and extremal verdicts, and the
bounds.  The pins were recorded before the spectrum moved to the
biadjacency matrix of bipartite graphs, so they tie that route's reports
to the full-order ``eigvalsh`` ones byte for byte.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from report_pins import REPORT_PIN_ITEMS, report_digest

OUT = Path(__file__).with_name("report_pins.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pins = [
            {"family": family, "q": q, "name": name, "sha256": report_digest(family, q, name, Path(tmp) / "report.json")}
            for family, q, name in REPORT_PIN_ITEMS
        ]
    rows = ",\n".join("  " + json.dumps(pin) for pin in pins)
    OUT.write_text('{"reports": [\n' + rows + "\n]}\n")
    print(f"wrote {len(pins)} pins to {OUT}")


if __name__ == "__main__":
    main()
