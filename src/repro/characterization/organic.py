"""The characterised pentacene pseudo-E library."""

from __future__ import annotations

from repro.cells.library_def import organic_library_definition
from repro.characterization.harness import characterize_library
from repro.characterization.library import Library


def organic_library() -> Library:
    """Characterise (or load from cache) the organic library."""
    return characterize_library(organic_library_definition())
