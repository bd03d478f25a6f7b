"""The characterised pentacene pseudo-E library."""

from __future__ import annotations

from pathlib import Path

from repro.cells.library_def import organic_library_definition
from repro.characterization.harness import (
    CharacterizationGrid,
    characterize_library,
)
from repro.characterization.library import Library
from repro.devices.tft_level61 import UnifiedTft


def organic_library(model: UnifiedTft | None = None,
                    grid: CharacterizationGrid | None = None,
                    cache_dir: Path | None = None,
                    use_cache: bool = True,
                    **definition_kwargs) -> Library:
    """Characterise (or load from cache) the organic library.

    Passing a level-61 ``model`` (e.g.
    :func:`repro.devices.materials.dntt_model`) retargets the library to
    a different organic semiconductor; any other
    keyword is forwarded to
    :func:`repro.cells.library_def.organic_library_definition`.
    """
    if model is not None:
        definition_kwargs["model"] = model
    defn = organic_library_definition(**definition_kwargs)
    return characterize_library(defn, grid=grid, cache_dir=cache_dir,
                                use_cache=use_cache)
