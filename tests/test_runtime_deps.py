"""The runtime imports only numpy: scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toleq


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_does_not_load_scipy(module):
    src = str(Path(toleq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
