"""Every code name and repo path the docs cite exists.

DESIGN.md, README.md, EXPERIMENTS.md and the verify notes name modules,
functions and files in backticks.  Deleting or renaming one of them
without fixing the prose would leave the docs describing code that does
not exist, so this test resolves each reference:

- a dotted ``repro.*`` name must import (its longest importable module
  prefix) and every remaining part must be an attribute;
- a path must exist.  A path is a token that starts with a top-level
  repo directory (``src/``, ``tests/`` ...) or a package directory of
  ``src/repro`` (``synthesis/sta.py`` is read as
  ``src/repro/synthesis/sta.py``), or a bare file name with a source or
  data extension, which must exist somewhere in the tracked tree.  A
  package path may end in a dotted attribute
  (``devices/extraction._savgol``), which must resolve too.

Tokens that merely contain a slash (``C_unit/dt``, ``numpy/fast-python``)
and directories the program creates at run time (``runs/``,
``.bench_build/``) are not repo paths and are not checked.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")

TOP_DIRS = ("src", "tests", "benchmarks", "examples", ".github", ".claude")
PACKAGES = tuple(p.name for p in (ROOT / "src" / "repro").iterdir()
                 if (p / "__init__.py").exists())
FILE_EXT = re.compile(r"\.(py|json|md|toml|c|yml|yaml)$")

BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
TOKEN = re.compile(r"[\w./-]+")


def _spans() -> list[tuple[str, str]]:
    return [(doc, m.group(1)) for doc in DOCS
            for m in BACKTICKED.finditer(
                (ROOT / doc).read_text(encoding="utf-8"))]


def _resolve_dotted(name: str) -> None:
    """Import *name*'s longest module prefix, then walk the attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return
    raise ModuleNotFoundError(name)


def _tracked_names() -> set[str]:
    """Names of the files at the repo root and under its top dirs."""
    names = {p.name for p in ROOT.iterdir() if p.is_file()}
    names.update(p.name for top in TOP_DIRS if (ROOT / top).is_dir()
                 for p in (ROOT / top).rglob("*") if p.is_file())
    return names


def _check_path(token: str, names: set[str]) -> str | None:
    """None if *token* resolves (or is not a repo path), else a reason."""
    token = token.rstrip(".")
    head = token.split("/", 1)[0]
    if "/" not in token:
        if FILE_EXT.search(token) and token not in names:
            return "no tracked file of this name"
        return None
    if head in TOP_DIRS:
        return None if (ROOT / token).exists() else "missing"
    if head not in PACKAGES:
        return None
    path = ROOT / "src" / "repro" / token
    if path.exists():
        return None
    # ``pkg/module.attr``: the module file plus an attribute of it.
    module, _, attr = token.partition(".")
    if attr and not FILE_EXT.search(token):
        try:
            _resolve_dotted("repro." + module.replace("/", ".") + "."
                            + attr)
        except (ImportError, AttributeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return "missing"


def test_docs_cite_code_at_all():
    """The scan finds what it is meant to check (guards the regexes)."""
    spans = _spans()
    assert sum(len(DOTTED.findall(s)) for _, s in spans) >= 20
    paths = [t for _, s in spans for t in TOKEN.findall(s)
             if t.split("/", 1)[0] in TOP_DIRS + PACKAGES and "/" in t]
    assert len(paths) >= 40


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    broken = []
    for where, span in _spans():
        if where != doc:
            continue
        for name in DOTTED.findall(span):
            try:
                _resolve_dotted(name)
            except (ImportError, AttributeError) as exc:
                broken.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not broken, f"{doc} names code that does not exist: {broken}"


@pytest.mark.parametrize("doc", DOCS)
def test_paths_resolve(doc):
    names = _tracked_names()
    broken = []
    for where, span in _spans():
        if where != doc:
            continue
        for token in TOKEN.findall(span):
            reason = _check_path(token, names)
            if reason is not None:
                broken.append(f"{token} ({reason})")
    assert not broken, f"{doc} cites paths that do not exist: {broken}"
