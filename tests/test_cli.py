"""End-to-end CLI behavior: exit codes, file formats, determinism."""

import inspect
import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq import serialize
from toleq.cli import _parse_values, main


@pytest.fixture
def pd_files(tmp_path):
    built = tq.build_game(tq.PrisonersDilemma(5, 2))
    game = tmp_path / "game.json"
    serialize.dump_json(serialize.game_to_obj(built.game), str(game))
    pi = tmp_path / "pi.json"
    dist = tq.DiscreteToleranceDist((0.0, 3.0), (0.7, 0.3))
    serialize.dump_json(
        serialize.tolerance_profile_to_obj(tq.DiscreteToleranceProfile.iid(dist, 2)), str(pi)
    )

    def profile_file(alpha, name):
        path = tmp_path / name
        profile = tq.MixedProfile((tq.MixedStrategy((alpha, 1 - alpha)),) * 2)
        serialize.dump_json(serialize.profile_to_obj(profile), str(path))
        return str(path)

    return {"game": str(game), "pi": str(pi), "profile_file": profile_file, "dir": tmp_path}


def test_verify_exit_codes(pd_files, capsys):
    nash = pd_files["profile_file"](0.0, "nash.json")
    assert main(["verify", "--game", pd_files["game"], "--profile", nash, "--pi", pd_files["pi"]]) == 0
    assert "equilibrium: yes" in capsys.readouterr().out

    too_much = pd_files["profile_file"](0.5, "half.json")
    assert (
        main(["verify", "--game", pd_files["game"], "--profile", too_much, "--pi", pd_files["pi"]])
        == 1
    )
    assert "equilibrium: no" in capsys.readouterr().out


def test_verify_structured_output(pd_files, capsys):
    ok = pd_files["profile_file"](0.3, "three.json")
    code = main(
        [
            "verify",
            "--game",
            pd_files["game"],
            "--profile",
            ok,
            "--pi",
            pd_files["pi"],
            "--format",
            "structured-object",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equilibrium"] is True
    assert obj["witness"]["0"]["3.0"] == [1.0, 0.0]


def test_verify_rejects_malformed_probabilities(pd_files, tmp_path, capsys):
    bad = tmp_path / "bad_profile.json"
    bad.write_text('{"strategies": [[0.5, 0.4], [0.5, 0.5]]}')
    code = main(
        ["verify", "--game", pd_files["game"], "--profile", str(bad), "--pi", pd_files["pi"]]
    )
    assert code == 2


def test_epsnum_flag_relaxes_validation(pd_files, tmp_path):
    near = tmp_path / "near_profile.json"
    near.write_text('{"strategies": [[0.0000002, 0.9999999], [0.0, 1.0]]}')
    base = ["verify", "--game", pd_files["game"], "--profile", str(near), "--pi", pd_files["pi"]]
    assert main(base) == 2  # sums to 1 + 1e-7, beyond the default tolerance
    assert main(["--epsnum", "1e-6"] + base[1:] if False else ["--epsnum", "1e-6"] + base) == 0


def test_epsnum_env_override(pd_files, tmp_path, monkeypatch):
    near = tmp_path / "near_profile.json"
    near.write_text('{"strategies": [[0.0000002, 0.9999999], [0.0, 1.0]]}')
    base = ["verify", "--game", pd_files["game"], "--profile", str(near), "--pi", pd_files["pi"]]
    monkeypatch.setenv("TOLEQ_EPSNUM", "1e-6")
    assert main(base) == 0


def test_epsnum_is_scoped_to_one_main_call(capsys):
    args = ["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2"]
    assert main(["--epsnum", "0.01"] + args) == 0
    assert tq.epsnum() == tq.DEFAULT_EPSNUM
    assert main(args) == 0
    assert tq.epsnum() == tq.DEFAULT_EPSNUM


def test_epsnum_env_is_scoped_to_one_main_call(monkeypatch, capsys):
    monkeypatch.setenv("TOLEQ_EPSNUM", "0.01")
    assert main(["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2"]) == 0
    assert tq.epsnum() == tq.DEFAULT_EPSNUM


def test_set_epsnum_stays_in_its_thread():
    seen = []

    def worker():
        tq.set_epsnum(0.5)
        seen.append(tq.epsnum())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [0.5]
    assert tq.epsnum() == tq.DEFAULT_EPSNUM


def test_format_csv_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_sweep_grid_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1.5,2.5",
              "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", "cdf.json", "--grid", "2000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


def test_no_public_callable_takes_its_own_tolerance():
    # the comparison tolerance is read from epsnum() alone, and the root
    # residual is a constant of pd_tolerant
    knobs = {"eps", "mix_tol", "tol_root"}
    for name in (n for n in dir(tq) if not n.startswith("_")):
        obj = getattr(tq, name)
        members = [getattr(obj, m) for m in dir(obj) if not m.startswith("_")] if inspect.isclass(obj) else []
        for fn in [obj, *members]:
            if callable(fn):
                assert not knobs & set(inspect.signature(fn).parameters), (name, fn)
    assert not inspect.signature(tq.epsnum).parameters


def test_library_compares_only_within_epsnum():
    # numpy's allclose and isclose carry their own rtol and atol
    for path in Path(tq.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "allclose(" not in source and "isclose(" not in source, path.name


def test_pd_solve_without_a_payoff_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--cdf", "cdf.json"])
    assert exc.value.code == 2
    assert "--d" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", "cdf.json"],
    ["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1.5,2.5",
     "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", "cdf.json"],
], ids=["pd-solve", "sweep"])
def test_tol_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--kind", "td", "--param", "bonus", "--low", "2", "--high", "100", "--values", "2.5,3"],
    ["--kind", "bertrand", "--param", "n", "--low", "2", "--high", "20", "--values", "2.7"],
    ["--kind", "td", "--param", "bonus", "--low", "2", "--high", "100", "--values", "inf"],
], ids=["td-bonus-2.5", "bertrand-n-2.7", "td-bonus-inf"])
def test_sweep_integer_params_reject_non_integers(flags, capsys):
    # int() used to solve bonus 2 under the label 2.5, and crashed on inf
    assert main(["sweep", *flags, "--seed", "1", "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: --values:" in captured.err


@pytest.mark.parametrize("flag, env", [("inf", None), (None, "inf"), (None, "abc")],
                         ids=["flag-inf", "env-inf", "env-abc"])
def test_bad_epsnum_exits_2_naming_its_source(flag, env, monkeypatch, capsys):
    # --epsnum inf used to print a verdict and exit 0
    if env is not None:
        monkeypatch.setenv("TOLEQ_EPSNUM", env)
    prefix = ["--epsnum", flag] if flag is not None else []
    assert main([*prefix, "threshold", "--kind", "td", "--low", "2", "--high", "100", "--bonus", "2",
                 "--beta", "0.5", "--t-rel", "0.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {'--epsnum' if flag else 'TOLEQ_EPSNUM'}:" in captured.err
    assert tq.epsnum() == tq.DEFAULT_EPSNUM


def test_bertrand_threshold_with_many_firms(capsys):
    # the binomial form of bertrand_f overflowed a float above about 1,030 firms
    n, beta = 1100, 0.5
    code = main(["threshold", "--kind", "bertrand", "--n", str(n), "--low", "2", "--high", "100",
                 "--beta", str(beta)])
    assert code == 0
    out = capsys.readouterr().out
    expected = 2 * (1 - beta**n) / (n * (1 - beta)) - beta ** (n - 1) * 100 / n
    assert float(out.split("threshold:")[1]) == pytest.approx(expected, rel=1e-12)


def test_remap_round_trip(tmp_path, capsys):
    lo = tmp_path / "pi.json"
    hi = tmp_path / "pi_prime.json"
    g = tmp_path / "g.json"
    out = tmp_path / "g_prime.json"
    serialize.dump_json(
        serialize.discrete_dist_to_obj(tq.DiscreteToleranceDist((0.0, 3.0), (0.5, 0.5))), str(lo)
    )
    serialize.dump_json(
        serialize.discrete_dist_to_obj(tq.DiscreteToleranceDist((1.0, 4.0), (0.5, 0.5))), str(hi)
    )
    serialize.dump_json(
        serialize.type_strategy_map_to_obj(
            tq.TypeStrategyMap((0.0, 3.0), (tq.MixedStrategy((0.0, 1.0)), tq.MixedStrategy((1.0, 0.0))))
        ),
        str(g),
    )
    code = main(["remap", "--pi", str(lo), "--pi-prime", str(hi), "--g", str(g), "--out", str(out)])
    assert code == 0
    g_prime = serialize.type_strategy_map_from_obj(serialize.load_json(str(out)))
    assert g_prime.support == (1.0, 4.0)
    assert g_prime.strategies[0].probs == pytest.approx((0.0, 1.0))
    assert g_prime.strategies[1].probs == pytest.approx((1.0, 0.0))

    # swapping the files breaks dominance
    code = main(["remap", "--pi", str(hi), "--pi-prime", str(lo), "--g", str(g), "--out", str(out)])
    assert code == 1
    assert "dominance failure" in capsys.readouterr().out


def test_remap_keeps_an_atom_lighter_than_eps(tmp_path, capsys):
    lo = tq.DiscreteToleranceDist((0.0, 3.0), (0.5, 0.5))
    hi = tq.DiscreteToleranceDist((0.0, 3.0, 4.0), (0.5, 0.4999999999995, 5e-13))
    g = tq.TypeStrategyMap((0.0, 3.0), (tq.MixedStrategy((0.0, 1.0)), tq.MixedStrategy((1.0, 0.0))))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("pi", "pi_prime", "g", "out")}
    serialize.dump_json(serialize.discrete_dist_to_obj(lo), paths["pi"])
    serialize.dump_json(serialize.discrete_dist_to_obj(hi), paths["pi_prime"])
    serialize.dump_json(serialize.type_strategy_map_to_obj(g), paths["g"])
    code = main(["remap", "--pi", paths["pi"], "--pi-prime", paths["pi_prime"], "--g", paths["g"],
                 "--out", paths["out"]])
    assert code == 0, capsys.readouterr().err
    g_prime = serialize.type_strategy_map_from_obj(serialize.load_json(paths["out"]))
    assert tq.remap_preserves_mixture(lo, hi, g, g_prime)
    # the light atom at 4 plays what the type at 3 played
    assert g_prime.strategies[2].probs == pytest.approx((1.0, 0.0))


def test_remap_under_a_coarse_epsnum_keeps_small_overlaps(tmp_path, capsys):
    # hi dominates lo exactly; the 0.0005 of lo's type 0 that hi's type 1
    # covers used to be dropped at --epsnum 1e-3, which broke the mixture
    docs = {
        "pi": {"type": "discrete", "support": [0, 1], "probs": [0.5, 0.5]},
        "pi_prime": {"type": "discrete", "support": [0, 1], "probs": [0.4995, 0.5005]},
        "g": {"support": [0, 1], "strategies": [[1, 0], [0, 1]]},
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        serialize.dump_json(doc, paths[name])
    argv = ["remap", "--pi", paths["pi"], "--pi-prime", paths["pi_prime"], "--g", paths["g"]]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(["--epsnum", "1e-3", *argv]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out == default


def _remap_files(tmp_path, pi, pi_prime, g):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("pi", "pi_prime", "g")}
    serialize.dump_json(serialize.discrete_dist_to_obj(pi), paths["pi"])
    serialize.dump_json(serialize.discrete_dist_to_obj(pi_prime), paths["pi_prime"])
    serialize.dump_json(serialize.type_strategy_map_to_obj(g), paths["g"])
    return paths, ["remap", "--pi", paths["pi"], "--pi-prime", paths["pi_prime"], "--g", paths["g"]]


def test_remap_gives_a_light_atom_a_strategy_of_a_lower_type(tmp_path, capsys):
    lo = tq.DiscreteToleranceDist((0.0, 3.0), (0.5, 0.5))
    hi = tq.DiscreteToleranceDist((0.0, 2.0, 3.0), (0.5, 5e-10, 0.5 - 5e-10))
    g = tq.TypeStrategyMap((0.0, 3.0), (tq.MixedStrategy((0.0, 1.0)), tq.MixedStrategy((1.0, 0.0))))
    _, argv = _remap_files(tmp_path, lo, hi, g)
    assert main(argv) == 0, capsys.readouterr().err
    g_prime = serialize.type_strategy_map_from_obj(json.loads(capsys.readouterr().out))
    assert tq.remap_preserves_mixture(lo, hi, g, g_prime)


def test_remap_without_an_exact_answer_names_the_target_file(tmp_path, capsys):
    # hi dominates lo within eps, but its light atom at 0 lies below every
    # type of lo, so no type may hand it a strategy
    lo = tq.point_mass(0.5)
    hi = tq.DiscreteToleranceDist((0.0, 1.0), (5e-10, 1 - 5e-10))
    paths, argv = _remap_files(tmp_path, lo, hi, tq.TypeStrategyMap((0.5,), (tq.MixedStrategy((1.0, 0.0)),)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"input error: {paths['pi_prime']}: ")


def make_cdf_file(tmp_path, obj, name="cdf.json"):
    path = tmp_path / name
    serialize.dump_json(obj, str(path))
    return str(path)


def test_pd_solve_continuous(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 4})
    curve = tmp_path / "curve.csv"
    code = main(
        ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf, "--out", str(curve)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha_star: 0.6" in out
    assert "uniqueness_certified: yes" in out
    header, first = curve.read_text().splitlines()[:2]
    assert header == "alpha,lhs,rhs"
    assert first.startswith("0.0,1.0,")


def test_pd_solve_zero_root_flag(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 1})
    code = main(["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf])
    assert code == 0
    assert "has_zero_root: yes" in capsys.readouterr().out


def test_pd_solve_non_existence(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "discrete", "support": [1.5], "probs": [1.0]})
    code = main(["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf])
    assert code == 1
    assert "NON-EXISTENCE" in capsys.readouterr().out


def test_pd_solve_rejects_bad_ordering(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 4})
    code = main(["pd-solve", "--a", "3", "--b", "1", "--c", "5", "--d", "0", "--cdf", cdf])
    assert code == 2


def test_pd_solve_structured_output_brackets_each_root(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "truncated_exponential", "rate": 1.5, "cap": 3.0})
    code = main(
        ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf,
         "--format", "structured-object"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert "method" not in obj  # every root is exact
    assert [root["bracket"][0] <= root["alpha_star"] <= root["bracket"][1] for root in obj["roots"]] == [True]


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_pd_solve_grid_below_one_names_the_flag(grid, tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 4})
    curve = tmp_path / "curve.csv"
    argv = ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf, "--grid", grid]
    assert main([*argv, "--out", str(curve)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: --grid: ")
    assert not curve.exists()


@pytest.mark.parametrize("cdf_obj, grid, with_out", [
    ({"type": "uniform", "lo": 0, "hi": 4}, "0", False),
    ({"type": "discrete", "support": [1.5], "probs": [1.0]}, "-3", False),
    ({"type": "discrete", "support": [1.5], "probs": [1.0]}, "-3", True),
], ids=["uniform-stdout", "discrete-stdout", "discrete-out"])
def test_pd_solve_checks_grid_for_every_cdf(cdf_obj, grid, with_out, tmp_path, capsys):
    # --grid only shapes the --out curve, but a bad value is bad input even
    # where no curve is drawn
    cdf = make_cdf_file(tmp_path, cdf_obj)
    curve = tmp_path / "curve.csv"
    argv = ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf, "--grid", grid]
    assert main([*argv, *(["--out", str(curve)] if with_out else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: --grid: ")
    assert not curve.exists()


NON_FINITE_DOCUMENTS = {
    "profile": '{"strategies": [[NaN, NaN], [NaN, NaN]]}',
    "pi": '{"players": [{"type": "discrete", "support": [0.0, NaN], "probs": [0.5, 0.5]},'
          ' {"type": "discrete", "support": [0.0, 3.0], "probs": [0.5, 0.5]}]}',
    "game": '{"players": 2, "strategies": [["C", "D"], ["C", "D"]],'
            ' "payoffs": [[[3, 3], [-2, Infinity]], [[5, -2], [0, 0]]]}',
    "cdf": '{"type": "uniform", "lo": 0, "hi": -Infinity}',
}


@pytest.mark.parametrize("which", sorted(NON_FINITE_DOCUMENTS))
def test_non_finite_documents_exit_2_naming_the_file(which, pd_files, tmp_path, capsys):
    bad = tmp_path / f"nonfinite_{which}.json"
    bad.write_text(NON_FINITE_DOCUMENTS[which])
    if which == "cdf":
        args = ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", str(bad)]
    else:
        files = {"game": pd_files["game"], "profile": pd_files["profile_file"](0.0, "nash.json"),
                 "pi": pd_files["pi"], which: str(bad)}
        args = ["verify", "--game", files["game"], "--profile", files["profile"], "--pi", files["pi"]]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert str(bad) in captured.err and captured.out == ""


def test_threshold_command(capsys):
    code = main(["threshold", "--kind", "pg", "--n", "3", "--rho", "0.4"])
    assert code == 0
    assert "threshold: 0.6" in capsys.readouterr().out

    code = main(
        ["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2", "--t-rel", "0.7", "--beta", "0.5"]
    )
    assert code == 0
    assert "will_cooperate: yes" in capsys.readouterr().out

    code = main(
        ["threshold", "--kind", "td", "--low", "2", "--high", "100", "--bonus", "2",
         "--t-rel", "0.004", "--beta", "0.5"]
    )
    assert code == 1
    assert "will_cooperate: no" in capsys.readouterr().out


def test_threshold_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "bertrand", "n": 2, "L": 2, "H": 100}')
    code = main(["threshold", "--spec", str(spec), "--beta", "0.8"])
    assert code == 0
    assert "threshold: 39.2" in capsys.readouterr().out


def test_rate_sweep_requires_seed(capsys):
    code = main(
        ["sweep", "--kind", "pd", "--param", "benefit", "--values", "3:8:6", "--cost", "2"]
    )
    assert code == 2


def test_rate_sweep_csv(tmp_path):
    out = tmp_path / "rates.csv"
    args = [
        "sweep", "--kind", "pd", "--param", "benefit", "--values", "3:8:6",
        "--cost", "2", "--seed", "5", "--samples", "2000", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "benefit,exact_rate,mc_rate,mc_stderr"
    assert len(lines) == 7
    exact = [float(line.split(",")[1]) for line in lines[1:]]
    assert exact == sorted(exact)  # more benefit, more cooperation


def test_rate_sweep_travelers_bonus_one(tmp_path):
    # bonus 1 makes the undercut branch of the threshold identically 0
    out = tmp_path / "rates.csv"
    args = [
        "sweep", "--kind", "td", "--param", "bonus", "--low", "3", "--high", "201",
        "--values", "1,2", "--samples", "1000", "--seed", "1", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bonus,exact_rate,mc_rate,mc_stderr"
    exact = float(lines[1].split(",")[1])
    assert exact == pytest.approx(1 - 1 / (2 * 198 * 201), abs=1e-12)
    assert exact == pytest.approx(0.99998744, abs=1e-8)


def test_alpha_sweep_csv(tmp_path):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 4})
    out = tmp_path / "alphas.csv"
    args = [
        "sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1.5:3.5:9",
        "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf, "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param_value,alpha_star,branch_id,marginal_flag"
    alphas = [float(line.split(",")[1]) for line in lines[1:]]
    assert alphas == sorted(alphas, reverse=True)


def test_cli_outputs_are_deterministic(tmp_path, capsys, pd_files):
    cdf = make_cdf_file(tmp_path, {"type": "uniform", "lo": 0, "hi": 4})

    def run(args, out_name):
        out = tmp_path / out_name
        assert main(args + ["--out", str(out)]) in (0, 1)
        return out.read_bytes(), capsys.readouterr().out

    sweep_args = [
        "sweep", "--kind", "bertrand", "--param", "n", "--values", "2,3,4",
        "--low", "2", "--high", "100", "--beta-point", "0.8", "--seed", "9", "--samples", "3000",
    ]
    first, _ = run(sweep_args, "a.csv")
    second, _ = run(sweep_args, "b.csv")
    assert first == second

    solve_args = ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf]
    c1, s1 = run(solve_args, "c1.csv")
    c2, s2 = run(solve_args, "c2.csv")
    assert c1 == c2 and s1 == s2

    nash = pd_files["profile_file"](0.0, "nash.json")
    verify_args = ["verify", "--game", pd_files["game"], "--profile", nash, "--pi", pd_files["pi"]]
    v1, _ = run(verify_args, "v1.txt")
    v2, _ = run(verify_args, "v2.txt")
    assert v1 == v2


def test_missing_file_is_input_error(pd_files):
    code = main(
        ["verify", "--game", "nope.json", "--profile", "nope.json", "--pi", pd_files["pi"]]
    )
    assert code == 2


def test_threshold_d_disposition_never_cooperates(capsys):
    code = main(
        ["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2",
         "--t-rel", "0.9", "--beta", "0.5", "--disposition", "D"]
    )
    assert code == 1
    assert "will_cooperate: no" in capsys.readouterr().out


def test_pd_solve_discrete_structured_output(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "discrete", "support": [2.5], "probs": [1.0]})
    code = main(
        ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf,
         "--format", "structured-object"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"exists": True, "solutions": [1.0]}


# Each kind's spec, and for each of its CLI flags the spec field it sets and
# two values to sweep it over.
KIND_SPECS = {
    "pd": (
        tq.PrisonersDilemma(5.0, 2.0),
        {"benefit": ("benefit", [3.0, 6.5]), "cost": ("cost", [1.0, 2.5])},
    ),
    "td": (
        tq.TravelersDilemma(2, 100, 3),
        {"low": ("low", [2, 5]), "high": ("high", [50, 80]), "bonus": ("bonus", [2, 4])},
    ),
    "pg": (
        tq.PublicGoods(3, 0.7),
        {"n": ("num_players", [2, 4]), "rho": ("marginal_return", [0.6, 0.8])},
    ),
    "bertrand": (
        tq.BertrandCompetition(3, 2, 30),
        {"n": ("num_firms", [2, 4]), "low": ("price_floor", [2, 5]), "high": ("price_cap", [20, 40])},
    ),
}


def _kind_flags(kind: str, skip: str | None = None) -> list[str]:
    spec, params = KIND_SPECS[kind]
    flags = ["--kind", kind]
    for flag, (field, _) in params.items():
        if flag != skip:
            flags += [f"--{flag}", str(getattr(spec, field))]
    return flags


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_every_kind_from_flags_spec_file_and_sweeps(kind, tmp_path, capsys):
    spec, params = KIND_SPECS[kind]
    path = tmp_path / "spec.json"
    serialize.dump_json(serialize.dilemma_spec_to_obj(spec), str(path))
    decide = ["--beta", "0.5", "--t-rel", "0.5"]
    from_flags = main(["threshold", *_kind_flags(kind), *decide]), capsys.readouterr()
    from_file = main(["threshold", "--spec", str(path), *decide]), capsys.readouterr()
    assert from_flags == from_file
    assert from_flags[1].out.startswith("threshold: ")

    samples, seed = 300, 17
    for flag, (field, values) in params.items():
        argv = ["sweep", *_kind_flags(kind, skip=flag), "--param", flag,
                "--values", ",".join(map(str, values)), "--seed", str(seed), "--samples", str(samples)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        children = np.random.SeedSequence(seed).spawn(len(values))
        want = [f"{flag},exact_rate,mc_rate,mc_stderr"]
        for value, child in zip(values, children):
            swept = replace(spec, **{field: value})
            rate = tq.cooperation_rate(swept, tq.RelativeTypeDistribution(), samples,
                                       int(child.generate_state(1)[0]))
            want.append(f"{float(value)!r},{rate.exact_rate!r},{rate.mc_rate!r},{rate.mc_stderr!r}")
        assert lines == want


@pytest.mark.parametrize("values", ["1:2:0", "2:3:x", "1:2", "", "1,,2", "nan,1", "1:inf:3", "1e308:-1e308:3"])
def test_malformed_sweep_values_name_the_flag(values, capsys):
    argv = ["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100",
            "--values", values, "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: --values: ")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(lo=FINITE, hi=FINITE | st.none(), count=st.integers(1, 40))
@example(lo=1.5, hi=None, count=4)
@example(lo=-0.0, hi=None, count=3)
@example(lo=-0.0, hi=2.0, count=1)
@example(lo=0.0, hi=1e-323, count=6)  # the step underflows to zero
@example(lo=-1e308, hi=1e308, count=3)  # the span overflows
def test_values_range_matches_numpy_linspace(lo, hi, count):
    hi = lo if hi is None else hi
    text = f"{lo!r}:{hi!r}:{count}"
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, count)
    if np.isfinite(want).all():
        assert list(map(repr, _parse_values(text))) == list(map(repr, want.tolist()))
    else:
        with pytest.raises(serialize.SchemaError, match="^--values: values must be finite"):
            _parse_values(text)


def test_infinite_pd_benefit_is_input_error(capsys):
    assert main(["threshold", "--kind", "pd", "--benefit", "inf", "--cost", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["--kind", "pd", "--benefit", "5", "--cost", "2", "--beta", "2"],
    ["--kind", "pg", "--n", "3", "--rho", "0.5", "--beta", "nan"],
], ids=["pd-beta-2", "pg-beta-nan"])
def test_threshold_checks_beta_for_every_dilemma(argv, capsys):
    assert main(["threshold", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "beta must lie in [0, 1]" in captured.err


def test_spec_file_names_the_dilemma_kind(tmp_path, capsys):
    spec = tmp_path / "pg.json"
    serialize.dump_json(serialize.dilemma_spec_to_obj(tq.PublicGoods(3, 0.7)), str(spec))
    sweep = ["sweep", "--spec", str(spec), "--param", "n", "--values", "3,4", "--seed", "1", "--samples", "50"]
    assert main(sweep) == 0
    assert main([*sweep, "--kind", "pg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,exact_rate,mc_rate,mc_stderr\n") and out.count("\n") == 6
    for argv in (["threshold", "--spec", str(spec), "--kind", "td"], [*sweep, "--kind", "bertrand"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: --kind: ")


PD_FLAGS = ["--a", "3", "--b", "-1", "--c", "5", "--d", "0"]
RATE_SWEEP = ["sweep", "--kind", "td", "--param", "bonus", "--low", "2", "--high", "100", "--values", "2,3",
              "--seed", "1"]
TD_THRESHOLD = ["threshold", "--kind", "td", "--low", "2", "--high", "100", "--bonus", "2"]


@pytest.mark.parametrize("argv, flag", [
    ([*TD_THRESHOLD, "--beta", "2"], "--beta"),
    ([*RATE_SWEEP, "--beta-point", "1.5"], "--beta-point"),
    ([*RATE_SWEEP, "--q", "1.5"], "--q"),
    ([*RATE_SWEEP, "--samples", "0"], "--samples"),
    (["threshold", "--kind", "pd", "--benefit", "5", "--cost", "2", "--t-rel", "nan"], "--t-rel"),
    (["threshold", "--kind", "bertrand", "--n", "3", "--low", "2", "--high", "10"], "--beta"),
    (["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "nan,1", *PD_FLAGS, "--cdf", "cdf.json"],
     "--values"),
    (["pd-solve", "--a", "nan", "--b", "-1", "--c", "5", "--d", "0", "--cdf", "cdf.json"], "--a"),
    (["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d=-inf", "--cdf", "cdf.json"], "--d"),
    (["sweep", "--kind", "pd-alpha", "--param", "delta_c", "--values", "1,2", "--a", "3", "--b", "inf",
      "--c", "5", "--d", "0", "--cdf", "cdf.json"], "--b"),
], ids=["beta", "beta-point", "q", "samples", "t-rel", "bertrand-without-beta", "sweep-values-nan", "pd-solve-a-nan",
        "pd-solve-d-inf", "sweep-b-inf"])
def test_belief_and_sampling_flags_name_themselves(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"input error: {flag}: ")


GOOD_GAME = {"players": 2, "strategies": [["C", "D"], ["C", "D"]],
             "payoffs": [[[3.0, 3.0], [-2.0, 5.0]], [[5.0, -2.0], [0.0, 0.0]]]}
GOOD_PROFILE = {"strategies": [[0.25, 0.75], [0.25, 0.75]]}
GOOD_PI = {"players": [{"type": "discrete", "support": [0.0, 3.0], "probs": [0.75, 0.25]}] * 2}
FAULTS = {
    "game-labels": ("game", dict(GOOD_GAME, strategies=[["C", "D"]])),
    "game-shape": ("game", dict(GOOD_GAME, payoffs=[[[3.0, 3.0], [-2.0, 5.0]]])),
    "profile-parse": ("profile", "{"),
    "profile-schema": ("profile", {"strategy": GOOD_PROFILE["strategies"]}),
    "pi-parse": ("pi", "{"),
    "pi-schema": ("pi", {"players": [{"type": "discrete", "support": [0.0, 3.0], "probs": [0.5, 0.25]}] * 2}),
}


@pytest.mark.parametrize("faults, named", [
    (("game-shape", "profile-schema"), "game"),
    (("game-shape", "pi-parse"), "pi"),
    (("game-labels", "profile-schema"), "game"),
    (("profile-schema", "pi-parse"), "pi"),
    (("game-labels", "profile-parse"), "profile"),
    (("profile-schema", "pi-schema"), "profile"),
], ids=lambda v: "+".join(v) if isinstance(v, tuple) else v)
def test_verify_names_the_first_fault_in_the_documented_order(faults, named, tmp_path, capsys):
    # files that do not parse, then the game's labels and payoff shape, the
    # profile and the tolerance profile
    docs = {"game": GOOD_GAME, "profile": GOOD_PROFILE, "pi": GOOD_PI}
    docs.update(FAULTS[fault] for fault in faults)
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--game", str(paths["game"]), "--profile", str(paths["profile"]),
                 "--pi", str(paths["pi"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"input error: {paths[named]}")
