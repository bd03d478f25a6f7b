"""Every ``REPRO_*`` environment knob is documented, and only those.

The README's knob tables are the user-facing list of environment
variables.  This census compares them with the names the package
source mentions, so deleting a knob without its row (or adding one
without documenting it) fails tier-1 instead of drifting silently.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_0-9]+")


def _source_knobs() -> set[str]:
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in KNOB.findall(path.read_text(encoding="utf-8"))}


def _readme_table_rows() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [line for line in text.splitlines()
            if line.startswith("| `REPRO_")]


def test_readme_tables_document_every_source_knob():
    documented = {name for row in _readme_table_rows()
                  for name in KNOB.findall(row)}
    missing = _source_knobs() - documented
    assert not missing, f"knobs read in src/ with no README row: {missing}"


def test_readme_tables_name_no_retired_knob():
    source = _source_knobs()
    stale = {name for row in _readme_table_rows()
             for name in KNOB.findall(row)} - source
    assert not stale, f"README knob rows name knobs src/ never reads: {stale}"
