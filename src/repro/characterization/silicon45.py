"""The characterised reduced 45 nm CMOS library."""

from __future__ import annotations

from repro.cells.library_def import silicon_library_definition
from repro.characterization.harness import characterize_library
from repro.characterization.library import Library


def silicon_library() -> Library:
    """Characterise (or load from cache) the reduced silicon library."""
    return characterize_library(silicon_library_definition())
