"""SciPy is loaded only by the algorithms that need it.

Importing the entry points of a library build, a DSE grid or the CLI
must leave every ``scipy`` module unloaded: the model fits and the
numpy backend's first scalar solve import what they use when called.
"""

import json
import os
import subprocess
import sys


def test_entry_points_load_no_scipy():
    code = ("import json, sys\n"
            "import repro.__main__, repro.analysis.dse, "
            "repro.characterization.harness\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "      if m == 'scipy' or m.startswith('scipy.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert json.loads(out.stdout) == []
