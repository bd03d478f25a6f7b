"""SciPy is loaded only by the algorithms that need it.

Importing the entry points of a library build, a DSE grid or the CLI
must leave every ``scipy`` module unloaded, and so must a scalar SPICE
solve: only the model fits import SciPy, when called.
"""

import json
import os
import subprocess
import sys


def _scipy_modules_after(code: str) -> list[str]:
    """The ``scipy`` modules a fresh interpreter holds after *code*."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "      if m == 'scipy' or m.startswith('scipy.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


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
