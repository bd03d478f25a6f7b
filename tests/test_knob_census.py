"""Every ``REPRO_*`` environment knob is documented, and only those.

The README's knob tables are the user-facing list of environment
variables.  This census compares them with the names the package
source mentions, so deleting a knob without its row (or adding one
without documenting it) fails tier-1 instead of drifting silently.
It also fails on a leftover setter of a retired knob in the tests, the
perf benches, CI or the verify notes: such a setter would silently run
the default path while claiming to test another.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_0-9]+")


#: Places that set knobs for the program.  ``benchmarks/e2e/`` is left
#: out: it is frozen with the benchmark it defines, and its passthrough
#: of the retired IPC-kernel knob is inert.
SETTERS = ("tests", "benchmarks/perf", ".github/workflows", ".claude")

#: Fake names ``test_swap_env_and_attr_restore`` sets to probe swap_env.
FAKE_KNOBS = {"REPRO_VALIDATE_PROBE", "REPRO_NEVER_SET"}


def _knobs_in(paths) -> set[str]:
    return {name for path in paths
            for name in KNOB.findall(path.read_text(encoding="utf-8"))}


def _source_knobs() -> set[str]:
    return _knobs_in((ROOT / "src").rglob("*.py"))


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


def test_setters_name_only_source_knobs():
    source = _source_knobs()
    for place in SETTERS:
        files = [p for p in (ROOT / place).rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts]
        stale = _knobs_in(files) - source - FAKE_KNOBS
        assert not stale, f"{place}/ sets knobs src/ never reads: {stale}"
