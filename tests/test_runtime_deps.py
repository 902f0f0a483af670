"""The runtime imports only numpy and the standard library: scipy is a test
dependency, and anything else an import pulls in is start-up time paid by
every CLI call.  numpy itself loads only where arrays are: ``import toleq``
and the CLI requests that do scalar work or fail their input checks start
without it.  ``import toleq`` loads none of its modules, and each CLI
request loads only the toleq modules its command runs."""

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
    "uniform.json": {"type": "uniform", "lo": 0.0, "hi": 4.0},
    "pl.json": {"type": "piecewise_linear", "knots": [[0.0, 0.0], [1.2, 0.1], [1.5, 0.6], [3.0, 1.0]]},
    "texp.json": {"type": "truncated_exponential", "rate": 1.5, "cap": 3.0, "shift": 0.2},
    "pd.json": {"kind": "pd", "b": 5.0, "c": 2.0},
    "shape.json": {"players": 2, "strategies": [["C", "D"], ["C", "D"]], "payoffs": [[[3.0, 3.0], [-2.0, 5.0]]]},
    "missing.json": {"strategy": [[0.5, 0.5], [0.5, 0.5]]},
    "nan-profile.json": {"strategies": [[float("nan"), float("nan")]] * 2},
    "nan-pi.json": {"players": [{"type": "discrete", "support": [0.0, float("nan")], "probs": [0.5, 0.5]}] * 2},
}
PD = ["--a", "3", "--b", "-1", "--c", "5", "--d", "0"]
MULTI_PD = ["--a", "2", "--b", "-1.5", "--c", "3", "--d", "0.5"]  # delta_c < delta_d
REMAPPED = {"support": [0.5, 2.0, 3.0], "strategies": [[0.25, 0.75, 0.0], [0.375, 0.5, 0.125], [0.0, 0.0, 1.0]]}

# request -> (argv, exit code, stdout, stderr), the output pinned as it was
# when every request still loaded numpy (the truncated-exponential root
# apart)
SCALAR_REQUESTS = {
    "threshold": (["threshold", "--kind", "bertrand", "--n", "3", "--low", "2", "--high", "30", "--beta", "0.75",
                   "--t-rel", "0.25"], 1, "threshold: 10.6875\nabsolute_tolerance: 2.5\nwill_cooperate: no\n", ""),
    "pd-solve-discrete": (["pd-solve", *PD, "--cdf", "discrete.json"], 0, "alpha_star: 0.5\n", ""),
    "pd-solve-uniform": (["pd-solve", *PD, "--cdf", "uniform.json"], 0,
                         "classification: unique\nhas_zero_root: no\nuniqueness_certified: yes\n"
                         "alpha_star: 0.6 residual 0.0\n", ""),
    "pd-solve-piecewise-linear": (["pd-solve", *MULTI_PD, "--cdf", "pl.json"], 0,
                                  "classification: possibly-multiple\nhas_zero_root: no\n"
                                  "uniqueness_certified: no\n"
                                  "alpha_star: 0.36363636363636354 residual 1.1102230246251565e-16\n"
                                  "alpha_star: 0.6500000000000004 residual 1.6653345369377348e-16\n"
                                  "alpha_star: 0.9090909090909091 residual 2.7755575615628914e-17\n", ""),
    # math.expm1 rounds differently from numpy's, which printed 0.2107828200307703
    "pd-solve-truncated-exponential": (["pd-solve", *PD, "--cdf", "texp.json"], 0,
                                       "classification: unique\nhas_zero_root: no\nuniqueness_certified: yes\n"
                                       "alpha_star: 0.21078282003077034 residual 0.0\n", ""),
    "sweep-pd-alpha": (["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1.5,2.5", *PD,
                        "--cdf", "uniform.json"], 0,
                       "param_value,alpha_star,branch_id,marginal_flag\n1.5,0.6666666666666666,0,0\n"
                       "2.5,0.5454545454545454,0,0\n", ""),
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
    "values-not-a-number": (["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100",
                             "--values", "1:x:3", "--seed", "1"], 2, "",
                            "input error: --values: expected lo:hi:count (count >= 1) or a list like 1,2,3,"
                            " got '1:x:3'\n"),
    "values-count-zero": (["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100",
                           "--values", "2:4:0", "--seed", "1"], 2, "",
                          "input error: --values: expected lo:hi:count (count >= 1) or a list like 1,2,3,"
                          " got '2:4:0'\n"),
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


def test_pd_solve_out_still_writes_the_curve(documents):
    # the curve is the one continuous pd-solve output that is an array
    argv = ["pd-solve", *PD, "--cdf", "pl.json", "--grid", "4", "--out", "curve.csv"]
    got_code, out, err, imported = _run_cli(argv, documents)
    assert (got_code, err) == (0, "") and out.endswith("alpha_star: 0.4625000000000001 residual 0.0\n")
    assert (documents / "curve.csv").read_text(encoding="utf-8").splitlines() == [
        "alpha,lhs,rhs",
        "0.0,1.0,0.08333333333333334",
        "0.25,0.75,0.1833333333333334",
        "0.5,0.5,0.6",
        "0.75,0.25,0.6666666666666666",
        "1.0,0.0,0.7333333333333333",
    ]
    assert "numpy" in imported


# request -> the toleq modules it loads besides the package; the CLI itself
# runs as __main__
READ_DOCUMENTS = {"serialize", "specs", "tolerance", "games", "numeric"}
TOLEQ_MODULES = {
    "threshold": (SCALAR_REQUESTS["threshold"][0], {"specs", "dilemmas", "games", "numeric"}),
    "threshold-spec": (["threshold", "--spec", "pd.json"], {"specs", "dilemmas", "games", "numeric", "serialize",
                                                             "tolerance"}),
    "verify-input-error": (SCALAR_REQUESTS["missing-field"][0], READ_DOCUMENTS | {"equilibrium"}),
    "verify": (["verify", "--game", "game.json", "--profile", "profile.json", "--pi", "pi.json"],
               READ_DOCUMENTS | {"equilibrium"}),
    "pd-solve-discrete": (SCALAR_REQUESTS["pd-solve-discrete"][0], READ_DOCUMENTS | {"pd_tolerant"}),
    "pd-solve-continuous": (["pd-solve", *PD, "--cdf", "uniform.json"], READ_DOCUMENTS | {"pd_tolerant"}),
    "remap": (SCALAR_REQUESTS["remap"][0], READ_DOCUMENTS),
    "rate-sweep": (["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100", "--values", "2,3",
                    "--seed", "1", "--samples", "100"], {"specs", "dilemmas", "games", "numeric"}),
    "pd-alpha-sweep": (["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1.5,2.5", *PD,
                        "--cdf", "uniform.json"], READ_DOCUMENTS | {"pd_tolerant"}),
}


@pytest.mark.parametrize("request_name", sorted(TOLEQ_MODULES))
def test_each_request_loads_only_the_modules_its_command_runs(request_name, documents):
    argv, modules = TOLEQ_MODULES[request_name]
    _, _, err, imported = _run_cli(argv, documents)
    assert "Traceback" not in err
    assert {name for name in imported if name.startswith("toleq.")} == {f"toleq.{m}" for m in modules}


# the package's public names, by the module that defines each
EXPORTS = {
    "dilemmas": "BertrandCompetition BuiltDilemma CooperationRate DilemmaSpec PrisonersDilemma PublicGoods"
                " RelativeType RelativeTypeDistribution TravelersDilemma all_cooperate_payoff bertrand_f"
                " beta_mixture_profile build_game cooperation_rate cooperation_threshold exact_cooperation_rate"
                " relative_to_absolute will_cooperate",
    "equilibrium": "EquilibriumVerdict Violation symmetric_alpha_intervals verify_gp_epsilon_nash verify_nash"
                   " verify_tolerant_equilibrium witness_is_valid",
    "games": "Game MixedProfile MixedStrategy expected_utility is_consistent regret regrets strategy_utilities",
    "numeric": "DEFAULT_EPSNUM epsnum set_epsnum",
    "pd_tolerant": "FixedPointReport FixedPointRoot PdPayoffs SweepPoint as_game comparative_statics_sweep"
                   " cooperation_probability fixed_point_curve solve_asymmetric solve_discrete solve_symmetric"
                   " willingness_gap",
    "tolerance": "ContinuousCdf DiscreteToleranceDist DiscreteToleranceProfile PiecewiseLinearCdf TransportPlan"
                 " TruncatedExponentialCdf TypeStrategyMap UniformCdf dist_dominates dominance_remap point_mass"
                 " remap_preserves_mixture stochastically_dominates transport_plan",
}


def _fresh(code: str) -> str:
    result = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    return result.stdout


def test_import_toleq_loads_no_toleq_module():
    assert {name for name in _loaded_by("import toleq") if name.startswith("toleq")} == {"toleq"}


def test_dir_lists_the_re_exports_the_modules_and_the_version():
    names = sum((names.split() for names in EXPORTS.values()), [])
    assert len(names) == len(set(names)) == 62
    listed = _fresh("import toleq; print(' '.join(dir(toleq)))").split()
    public = {n for n in listed if not n.startswith("_") or n == "__version__"}
    assert public == {*names, *EXPORTS, "__version__"}


def test_every_name_is_its_module_s_object():
    for module, names in EXPORTS.items():
        for name in names.split():
            assert getattr(toleq, name) is getattr(getattr(toleq, module), name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        toleq.solve_everything  # noqa: B018


def test_a_name_is_kept_in_the_package_dict():
    code = ("import toleq\n"
            "print('build_game' in vars(toleq))\n"
            "toleq.build_game\n"
            "print(vars(toleq)['build_game'] is toleq.dilemmas.build_game, 'equilibrium' in vars(toleq))")
    assert _fresh(code).split() == ["False", "True", "False"]


def test_a_name_keeps_the_object_its_module_loaded_with():
    # replacing a module attribute after the module loaded, as the benchmark's
    # spans do while they trace, does not change the package's name
    code = ("import toleq.dilemmas as d\n"
            "original = d.build_game\n"
            "d.build_game = print\n"
            "import toleq\n"
            "print(toleq.build_game is original)")
    assert _fresh(code).split() == ["True"]


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
