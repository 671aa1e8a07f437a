"""Reports byte for byte against the digests in data/report_pins.json
(see data/make_report_pins.py)."""

import json
from pathlib import Path

import pytest
from report_pins import REPORT_PIN_ITEMS, item_id, report_digest

PINS = json.loads((Path(__file__).with_name("data") / "report_pins.json").read_text())["reports"]


def test_report_pins_cover_the_items():
    assert [(pin["family"], pin["q"], pin["name"]) for pin in PINS] == REPORT_PIN_ITEMS


@pytest.mark.parametrize("pin", PINS, ids=[item_id(item) for item in REPORT_PIN_ITEMS])
def test_report_matches_its_pin(pin, tmp_path):
    assert report_digest(pin["family"], pin["q"], pin["name"], tmp_path / "report.json") == pin["sha256"]
