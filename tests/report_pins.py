"""The reports pinned in data/report_pins.json, and how each pin is taken."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from egrtools.cli import main

# the seven report-grid items of the benchmark, then two near the report cap
REPORT_PIN_ITEMS = [
    ("biaffine1", 7, None),
    ("gq_truncation", 4, None),
    ("ovoid_spread", 4, None),
    ("pencil", 3, None),
    ("pencil", 4, None),
    ("named", None, "hoffman_singleton"),
    ("named", None, "tutte_coxeter"),
    ("pencil", 9, None),
    ("gq_truncation", 9, None),
]

# the fields that change from run to run
UNPINNED_FIELDS = ("timestamp", "timing", "command")


def report_argv(family: str, q: int | None, name: str | None, out: Path) -> list[str]:
    argv = ["report", "--family", family, "--out", str(out)]
    return argv + (["--name", name] if family == "named" else ["--q", str(q)])


def report_digest(family: str, q: int | None, name: str | None, out: Path) -> str:
    """The sha256 of the report of this item, written to ``out``, without
    its UNPINNED_FIELDS, dumped with the report's own layout."""
    code = main(report_argv(family, q, name, out))
    if code != 0:
        raise RuntimeError(f"report on {family} q={q} name={name} exited {code}")
    doc = json.loads(out.read_text())
    for field in UNPINNED_FIELDS:
        del doc[field]
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def item_id(item) -> str:
    family, q, name = item
    return name if family == "named" else f"{family}_q{q}"
