import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prudentbanker import errors

# the directory the tests import prudentbanker from, so the fresh interpreter
# loads the same copy
SRC = str(Path(errors.__file__).resolve().parents[1])

LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("prudentbanker."))))
"""


@pytest.mark.parametrize("module, loaded", [
    ("prudentbanker.errors", ["prudentbanker.errors"]),
    ("prudentbanker.mirror", ["numpy", "prudentbanker.errors", "prudentbanker.mirror",
                              "prudentbanker.rng"])])
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    # the package namespace holds no names of its own, so a module costs only
    # its own imports: errors loads no numpy, mirror no ledger, learner or harness
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", LOADED, module], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == loaded
