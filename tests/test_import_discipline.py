"""Import discipline: no SciPy at run time, and no dead imports.

SciPy is a test-only dependency: the Figure 4 fits run on a numpy port of
its bounded least squares (``repro.devices.least_squares``), and every
other algorithm is numpy or a compiled kernel.  A fresh interpreter that
imports the entry points, solves a VTC or fits Figure 4 holds no
``scipy`` module, and Figure 4 runs unchanged where SciPy cannot be
imported at all.

Every name a ``src/`` module imports is used in that module; package
``__init__`` files, which import to re-export, are exempt.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.figures import fig4_model_fits


def _run(code: str) -> str:
    """Stdout of a fresh interpreter running *code* on this ``sys.path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout


def _scipy_modules_after(code: str) -> list[str]:
    """The ``scipy`` modules a fresh interpreter holds after *code*."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "      if m == 'scipy' or m.startswith('scipy.'))))\n")
    return json.loads(_run(code))


def test_entry_points_load_no_scipy():
    assert _scipy_modules_after(
        "import repro.__main__, repro.analysis.dse, "
        "repro.characterization.harness") == []


def test_compute_vtc_loads_no_scipy():
    """A VTC is a scalar DC sweep: every Newton step a scalar solve."""
    assert _scipy_modules_after(
        "from repro.cells.library_def import organic_library_definition\n"
        "from repro.cells.vtc import compute_vtc\n"
        "inv = organic_library_definition().cell('inv')\n"
        "assert len(compute_vtc(inv, n_points=11).vout) == 11") == []


def test_figure4_loads_no_scipy():
    assert _scipy_modules_after(
        "from repro.analysis.figures import fig4_model_fits\n"
        "assert fig4_model_fits().level1_much_worse") == []


def test_figure4_runs_without_scipy_installed():
    """``sys.modules['scipy'] = None`` makes any SciPy import fail, as on
    an install without SciPy; the fits come out bit for bit the same."""
    params = json.loads(_run(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.analysis.figures import fig4_model_fits\n"
        "fits = fig4_model_fits()\n"
        "print(json.dumps([{k: v.hex() for k, v in p.items()}\n"
        "                  for p in (fits.level1.params,\n"
        "                            fits.level61.params)]))\n"))
    fits = fig4_model_fits()
    assert [{k: float.fromhex(v) for k, v in p.items()}
            for p in params] == [fits.level1.params, fits.level61.params]


def _unused_imports(path: Path) -> list[str]:
    """Names *path* imports but never reads.

    A name counts as read where it appears as an identifier, as a whole
    string (an ``__all__`` entry), or inside a quoted annotation.  An
    import marked ``# noqa: F401`` is kept for its side effects.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) \
                        and isinstance(sub.value, str):
                    used.update(
                        n.id for n in ast.walk(ast.parse(sub.value,
                                                         mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_src_modules_import_nothing_they_do_not_use():
    src = Path(repro.__file__).resolve().parent
    dead = {str(path.relative_to(src)): names
            for path in sorted(src.rglob("*.py"))
            if path.name != "__init__.py"
            for names in [_unused_imports(path)] if names}
    assert not dead
