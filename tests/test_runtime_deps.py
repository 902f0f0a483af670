"""The runtime imports only numpy and the standard library: scipy is a test
dependency, and anything else an import pulls in is start-up time paid by
every CLI call.  numpy itself loads only where arrays are: ``import toleq``
and the CLI requests that do scalar work or fail their input checks start
without it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toleq

PACKAGE = Path(toleq.__file__).resolve().parent


def _env() -> dict[str, str]:
    src = str(PACKAGE.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _loaded_by(code: str) -> set[str]:
    """Names of the modules that running ``code`` loads in a fresh
    interpreter."""
    script = f"import sys; before = set(sys.modules)\n{code}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    result = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True, check=True)
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


@pytest.mark.parametrize("module", ["toleq", "toleq.cli"])
def test_import_does_not_load_numpy(module):
    assert "numpy" not in _top_level(_loaded_by(f"import {module}"))


DOCUMENTS = {
    "lo.json": {"type": "discrete", "support": [0.0, 1.0, 2.5], "probs": [0.5, 0.25, 0.25]},
    "hi.json": {"type": "discrete", "support": [0.5, 2.0, 3.0], "probs": [0.25, 0.5, 0.25]},
    "g.json": {"support": [0.0, 1.0, 2.5], "strategies": [[0.25, 0.75, 0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]]},
    "discrete.json": {"type": "discrete", "support": [0.5, 3.0], "probs": [0.5, 0.5]},
    "gaussian.json": {"type": "gaussian", "mean": 1.0, "sd": 1.0},
    "game.json": {"players": 2, "strategies": [["C", "D"], ["C", "D"]],
                  "payoffs": [[[3.0, 3.0], [-2.0, 5.0]], [[5.0, -2.0], [0.0, 0.0]]]},
    "profile.json": {"strategies": [[0.5, 0.5], [0.5, 0.5]]},
    "pi.json": {"players": [{"type": "discrete", "support": [0.0, 3.0], "probs": [0.5, 0.5]}] * 2},
    "shape.json": {"players": 2, "strategies": [["C", "D"], ["C", "D"]], "payoffs": [[[3.0, 3.0], [-2.0, 5.0]]]},
    "missing.json": {"strategy": [[0.5, 0.5], [0.5, 0.5]]},
    "nan-profile.json": {"strategies": [[float("nan"), float("nan")]] * 2},
    "nan-pi.json": {"players": [{"type": "discrete", "support": [0.0, float("nan")], "probs": [0.5, 0.5]}] * 2},
}
PD = ["--a", "3", "--b", "-1", "--c", "5", "--d", "0"]
REMAPPED = {"support": [0.5, 2.0, 3.0], "strategies": [[0.25, 0.75, 0.0], [0.375, 0.5, 0.125], [0.0, 0.0, 1.0]]}

# request -> (argv, exit code, stdout, stderr), the output pinned as it was
# when every request still loaded numpy
SCALAR_REQUESTS = {
    "threshold": (["threshold", "--kind", "bertrand", "--n", "3", "--low", "2", "--high", "30", "--beta", "0.75",
                   "--t-rel", "0.25"], 1, "threshold: 10.6875\nabsolute_tolerance: 2.5\nwill_cooperate: no\n", ""),
    "pd-solve-discrete": (["pd-solve", *PD, "--cdf", "discrete.json"], 0, "alpha_star: 0.5\n", ""),
    "remap": (["remap", "--pi", "lo.json", "--pi-prime", "hi.json", "--g", "g.json"], 0,
              json.dumps(REMAPPED, indent=2) + "\n", ""),
    "unknown-cdf-type": (["pd-solve", *PD, "--cdf", "gaussian.json"], 2, "",
                         "input error: gaussian.json: unknown distribution type 'gaussian'\n"),
    "missing-field": (["verify", "--game", "game.json", "--profile", "missing.json", "--pi", "pi.json"], 2, "",
                      "input error: missing.json: missing field 'strategies'\n"),
    "wrong-shape": (["verify", "--game", "shape.json", "--profile", "profile.json", "--pi", "pi.json"], 2, "",
                    "input error: shape.json: payoff tensor shape (1, 2, 2) does not match strategy counts (2, 2)"
                    " and 2 players\n"),
    "nan-profile": (["verify", "--game", "game.json", "--profile", "nan-profile.json", "--pi", "pi.json"], 2, "",
                    "input error: nan-profile.json: non-finite number NaN is not allowed\n"),
    "nan-pi": (["verify", "--game", "game.json", "--profile", "profile.json", "--pi", "nan-pi.json"], 2, "",
               "input error: nan-pi.json: non-finite number NaN is not allowed\n"),
}


@pytest.fixture
def documents(tmp_path):
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


def _run_cli(argv: list[str], cwd: Path) -> tuple[int, str, str, set[str]]:
    """Exit code, stdout, stderr and the modules imported by
    ``python -m toleq.cli`` on argv, in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "toleq.cli", *argv],
                            cwd=cwd, env=_env(), capture_output=True, text=True)
    imported, err = set(), []
    for line in result.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return result.returncode, result.stdout, "".join(err), imported


@pytest.mark.parametrize("request_name", sorted(SCALAR_REQUESTS))
def test_scalar_requests_and_input_errors_do_not_load_numpy(request_name, documents):
    argv, code, out, err = SCALAR_REQUESTS[request_name]
    got_code, got_out, got_err, imported = _run_cli(argv, documents)
    assert (got_code, got_out, got_err) == (code, out, err)
    assert "toleq" in imported and "numpy" not in _top_level(imported)


@pytest.mark.parametrize("argv, code", [
    (["verify", "--game", "game.json", "--profile", "profile.json", "--pi", "pi.json"], 0),
    (["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100", "--values", "2,3",
      "--seed", "1", "--samples", "100"], 0),
], ids=["verify", "sweep"])
def test_array_requests_still_run_on_numpy(argv, code, documents):
    got_code, out, err, imported = _run_cli(argv, documents)
    assert (got_code, err) == (code, "") and out
    assert "numpy" in imported


def _numpy_import_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.add(node.lineno)
    return lines


def test_only_the_lazy_handle_in_numeric_imports_numpy():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "numeric.py":
            handle = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_numpy_attribute")
            allowed = _numpy_import_lines(handle)
            assert len(allowed) == 1
        assert _numpy_import_lines(tree) == allowed, path.name
