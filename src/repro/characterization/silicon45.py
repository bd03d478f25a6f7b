"""The characterised reduced 45 nm CMOS library."""

from __future__ import annotations

from pathlib import Path

from repro.cells.library_def import silicon_library_definition
from repro.characterization.harness import (
    CharacterizationGrid,
    characterize_library,
)
from repro.characterization.library import Library


def silicon_library(grid: CharacterizationGrid | None = None,
                    cache_dir: Path | None = None,
                    use_cache: bool = True,
                    **definition_kwargs) -> Library:
    """Characterise (or load from cache) the reduced silicon library."""
    defn = silicon_library_definition(**definition_kwargs)
    return characterize_library(defn, grid=grid, cache_dir=cache_dir,
                                use_cache=use_cache)
