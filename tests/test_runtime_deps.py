"""The runtime imports only numpy and the standard library: scipy is a test
dependency, and anything else an import pulls in is start-up time paid by
every CLI call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toleq


def _loaded_by(code: str) -> set[str]:
    """Names of the modules that running ``code`` loads in a fresh
    interpreter."""
    src = str(Path(toleq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = f"import sys; before = set(sys.modules)\n{code}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def _top_level(names: set[str]) -> set[str]:
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_does_not_load_scipy(module):
    assert "scipy" not in _top_level(_loaded_by(f"import {module}"))


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_loads_only_numpy_and_the_standard_library(module):
    assert _top_level(_loaded_by(f"import {module}")) - {"numpy", "toleq"} - set(sys.stdlib_module_names) == set()


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_does_not_load_numpy_random(module):
    # numpy loads numpy.random lazily; only drawing Monte Carlo samples needs it
    assert "numpy.random" not in _loaded_by(f"import {module}")


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_does_not_load_numpy_polynomial(module):
    # every polynomial in dilemmas is a power-basis list or array, evaluated
    # and integrated without numpy.polynomial
    assert "numpy.polynomial" not in _loaded_by(f"import {module}")


def test_bertrand_utilities_do_not_load_numpy_polynomial():
    code = (
        "import toleq as tq\n"
        "built = tq.build_game(tq.BertrandCompetition(3, 2, 12))\n"
        "profile = tq.beta_mixture_profile(built, 0.5)\n"
        "for player in range(3): tq.regrets(built.game, profile, player)"
    )
    assert "numpy.polynomial" not in _loaded_by(code)
