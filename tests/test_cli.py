"""End-to-end CLI behavior: exit codes, file formats, determinism."""

import json
import threading

import pytest

import toleq as tq
from toleq import serialize
from toleq.cli import main


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


def test_pd_solve_structured_output_names_method(tmp_path, capsys):
    cdf = make_cdf_file(tmp_path, {"type": "truncated_exponential", "rate": 1.5, "cap": 3.0})
    code = main(
        ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", cdf,
         "--format", "structured-object"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["method"] == "exact"
    assert [root["bracket"][0] <= root["alpha_star"] <= root["bracket"][1] for root in obj["roots"]] == [True]


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
