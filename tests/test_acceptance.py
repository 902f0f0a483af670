"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

import toleq as tq
from toleq import serialize
from toleq.cli import main as cli_main
from toleq_oracles import (
    bertrand_f_enum,
    dominating_dist,
    feasible_instance,
    is_standard_epsilon_nash,
    oracle_tolerant_verdict,
    random_game,
    random_profile,
    random_tolerance_profile,
)

EPS = 1e-9


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def profile(*rows):
    return tq.MixedProfile(tuple(tq.MixedStrategy(tuple(r)) for r in rows))


def pure_profile(indices, counts):
    return tq.MixedProfile(
        tuple(tq.MixedStrategy.pure(i, k) for i, k in zip(indices, counts))
    )


def known_nash_games():
    """20 small games paired with a known Nash profile."""
    games = []
    for b, c in ((5.0, 2.0), (3.0, 1.0), (10.0, 7.0), (2.5, 1.0)):
        built = tq.build_game(tq.PrisonersDilemma(b, c))
        games.append((built.game, pure_profile((1, 1), built.game.num_strategies)))
    for low, high, bonus in ((2, 6, 2), (2, 10, 3), (3, 8, 2)):
        built = tq.build_game(tq.TravelersDilemma(low, high, bonus))
        games.append((built.game, pure_profile((0, 0), built.game.num_strategies)))
    for n, rho in ((2, 0.6), (3, 0.5), (4, 0.3), (5, 0.75)):
        built = tq.build_game(tq.PublicGoods(n, rho))
        games.append((built.game, pure_profile((0,) * n, built.game.num_strategies)))
    for n, low, high in ((2, 2, 6), (3, 2, 5), (2, 3, 8)):
        built = tq.build_game(tq.BertrandCompetition(n, low, high))
        games.append((built.game, pure_profile((0,) * n, built.game.num_strategies)))
    for scale in (1.0, 2.0):
        payoffs = scale * np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float)
        game = tq.Game((("H", "T"), ("H", "T")), payoffs)
        games.append((game, profile((0.5, 0.5), (0.5, 0.5))))
    stag = tq.Game(
        (("S", "H"), ("S", "H")),
        np.array([[[4, 4], [0, 3]], [[3, 0], [3, 3]]], dtype=float),
    )
    games.append((stag, pure_profile((0, 0), (2, 2))))
    coord = tq.Game(
        (("L", "R"), ("L", "R")),
        np.array([[[2, 2], [0, 0]], [[0, 0], [1, 1]]], dtype=float),
    )
    games.append((coord, pure_profile((0, 0), (2, 2))))
    dominant = tq.Game(
        (("x", "y"), ("x", "y")),
        np.array([[[5, 5], [5, 3]], [[3, 5], [3, 3]]], dtype=float),
    )
    games.append((dominant, pure_profile((0, 0), (2, 2))))
    sexes = tq.Game(
        (("A", "B"), ("A", "B")),
        np.array([[[3, 2], [0, 0]], [[0, 0], [2, 3]]], dtype=float),
    )
    games.append((sexes, pure_profile((0, 0), (2, 2))))
    assert len(games) == 20
    return games


def test_criterion_01_nash_inclusion():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    ok = True
    for game, nash in known_nash_games():
        for _ in range(10):
            pi, _ = random_tolerance_profile(rng, game, generous=bool(rng.integers(0, 2)))
            verdict = tq.verify_tolerant_equilibrium(game, nash, pi)
            ok = ok and verdict.is_equilibrium
            checked += 1
    elapsed = time.perf_counter() - start
    _report(1, "nash inclusion", ok and checked == 200 and elapsed < 5.0,
            f"{checked} checks in {elapsed:.2f}s")


def test_criterion_02_gp_epsilon_equivalence():
    rng = np.random.default_rng(1002)
    agree = 0
    for _ in range(500):
        game = random_game(rng)
        prof, _ = random_profile(rng, game)
        epsilon = float(rng.uniform(0.0, 6.0))
        pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(epsilon), game.num_players)
        gp = tq.verify_gp_epsilon_nash(game, prof, epsilon)
        tolerant = tq.verify_tolerant_equilibrium(game, prof, pi).is_equilibrium
        agree += gp == tolerant
    # a sliver of cooperation is a standard epsilon-Nash but not support-restricted
    game = tq.build_game(tq.PrisonersDilemma(5, 2)).game
    slight = profile((0.05, 0.95), (0.05, 0.95))
    counterexample = is_standard_epsilon_nash(game, slight, 1.9) and not tq.verify_gp_epsilon_nash(
        game, slight, 1.9
    )
    _report(2, "gp epsilon-nash equivalence", agree == 500 and counterexample,
            f"{agree}/500 agree, counterexample {'holds' if counterexample else 'fails'}")


def test_criterion_03_maxflow_oracle_equivalence():
    rng = np.random.default_rng(1003)
    disagreements = 0
    positives = 0
    for i in range(500):
        game = random_game(rng)
        prof, sigma_units = random_profile(rng, game)
        pi, pi_units = random_tolerance_profile(rng, game, generous=i % 3 == 0)
        ours = tq.verify_tolerant_equilibrium(game, prof, pi).is_equilibrium
        oracle = oracle_tolerant_verdict(game, prof, pi, pi_units, sigma_units)
        disagreements += ours != oracle
        positives += oracle
    _report(3, "max-flow oracle equivalence", disagreements == 0,
            f"0 disagreements target, saw {disagreements}; {positives}/500 feasible")


def test_criterion_04_dominance_remap_preserves_equilibrium():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(200):
        game, prof, pi = feasible_instance(rng)
        verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
        if not verdict.is_equilibrium:
            ok = False
            break
        dominating = tq.DiscreteToleranceProfile(
            tuple(dominating_dist(rng, d) for d in pi.per_player)
        )
        remapped = tuple(
            tq.dominance_remap(lo, hi, g)
            for lo, hi, g in zip(pi.per_player, dominating.per_player, verdict.witness)
        )
        # consistency and mixture reconstruction at 1e-9, plus re-verification
        if not tq.witness_is_valid(game, prof, dominating, remapped, mix_tol=1e-9):
            ok = False
            break
        if not tq.verify_tolerant_equilibrium(game, prof, dominating).is_equilibrium:
            ok = False
            break
    _report(4, "dominance remap preserves equilibrium", ok, "200 random triples")


CROSS_VALIDATION = (
    (tq.PrisonersDilemma(5, 2), 3.0),
    (tq.TravelersDilemma(2, 100, 2), 3.5),
    (tq.PublicGoods(3, 0.5), 1.0),
    (tq.BertrandCompetition(2, 2, 100), 60.0),
    (tq.BertrandCompetition(3, 2, 30), 45.0),
)


def test_criterion_05_threshold_cross_validation():
    points = 0
    mismatches = 0
    for spec, t_max in CROSS_VALIDATION:
        built = tq.build_game(spec)
        betas = np.linspace(0.0, 1.0, 33)
        t_grid = np.linspace(0.0, t_max, 33) + 1.37e-4  # keep off exact thresholds
        for beta in betas:
            raw_regret = tq.regret(built.game, tq.beta_mixture_profile(built, float(beta)), 0, built.cooperate)
            threshold = tq.cooperation_threshold(spec, float(beta))
            if abs(raw_regret - threshold) > 1e-9:
                mismatches += 1
            for t in t_grid:
                raw = tq.is_consistent(built.game, tq.beta_mixture_profile(built, float(beta)), 0, built.cooperate, float(t))
                formula = t >= threshold - EPS
                if raw != formula and abs(t - threshold) > 10 * EPS:
                    mismatches += 1
                points += 1
    enum_ok = all(
        abs(tq.bertrand_f(n, beta) - bertrand_f_enum(n, beta)) <= 1e-12
        for n in range(2, 13)
        for beta in (0.0, 0.2, 0.5, 0.8, 1.0)
    )
    _report(5, "threshold formulas vs raw payoffs", mismatches == 0 and enum_ok and points >= 5000,
            f"{points} grid points, {mismatches} mismatches")


def _monotone(rates, direction, slack=EPS):
    pairs = list(zip(rates, rates[1:]))
    if direction == "up":
        return all(b >= a - slack for a, b in pairs) and rates[-1] > rates[0]
    return all(b <= a + slack for a, b in pairs) and rates[-1] < rates[0]


def test_criterion_06_regularities():
    start = time.perf_counter()
    uniform = tq.RelativeTypeDistribution()

    def rate(spec, dist=uniform):
        return tq.exact_cooperation_rate(spec, dist)

    checks = {
        "pd benefit up": _monotone([rate(tq.PrisonersDilemma(b, 2)) for b in (3, 4, 5, 6, 8)], "up"),
        "pd cost up": _monotone([rate(tq.PrisonersDilemma(5, c)) for c in (0.5, 1, 1.5, 2, 2.5)], "down"),
        "td bonus up": _monotone(
            [rate(tq.TravelersDilemma(2, 100, b)) for b in (2, 3, 5, 8)], "down"
        ),
        "pg return up": _monotone(
            [rate(tq.PublicGoods(4, r)) for r in (0.4, 0.5, 0.6, 0.75, 0.9)], "up"
        ),
        "pg players up": _monotone(
            [rate(tq.PublicGoods(n, 0.5)) for n in (3, 4, 6, 10)], "up"
        ),
        "bertrand floor up": _monotone(
            [rate(tq.BertrandCompetition(2, low, 100)) for low in (2, 5, 10, 20)], "down"
        ),
        "bertrand firms up": _monotone(
            [
                rate(tq.BertrandCompetition(n, 2, 100), tq.RelativeTypeDistribution(beta_point=0.8))
                for n in (2, 3, 4)
            ],
            "down",
        ),
    }
    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks.items() if not ok]
    _report(6, "observed regularities", not failed and elapsed < 10.0,
            f"{len(checks)} directions in {elapsed:.2f}s" + (f"; failed: {failed}" if failed else ""))


def _random_pd(rng, delta_c_dominant):
    cd = float(rng.uniform(-4, 0))
    dd = cd + float(rng.uniform(0.2, 1.5))
    cc = dd + float(rng.uniform(0.2, 2))
    delta_d = dd - cd
    if delta_c_dominant:
        dc = cc + delta_d + float(rng.uniform(0.05, 2))
    else:
        dc = cc + float(rng.uniform(0.05, delta_d))
    return tq.PdPayoffs(cc=cc, cd=cd, dc=dc, dd=dd)


def _random_cdf(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        lo = float(rng.uniform(0, 1.5))
        return tq.UniformCdf(lo, lo + float(rng.uniform(0.5, 5)))
    if kind == 1:
        return tq.TruncatedExponentialCdf(
            rate=float(rng.uniform(0.3, 3)), cap=float(rng.uniform(1, 6)),
            shift=float(rng.uniform(0, 1)),
        )
    xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.5, 4))))
    ys = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]))
    return tq.PiecewiseLinearCdf(tuple(xs), tuple(ys))


def test_criterion_07_fixed_point_structure():
    report = tq.solve_symmetric(tq.PdPayoffs(3, -1, 5, 0), tq.UniformCdf(0, 4))
    closed_form = (
        len(report.roots) == 1
        and abs(report.roots[0].alpha_star - 0.6) <= 1e-9
        and report.uniqueness_certified
    )

    rng = np.random.default_rng(1007)
    zero_root_ok = True
    for _ in range(50):
        p = _random_pd(rng, delta_c_dominant=bool(rng.integers(0, 2)))
        cdf = _random_cdf(rng)
        rep = tq.solve_symmetric(p, cdf, grid=2000)
        zero_root_ok = zero_root_ok and rep.has_zero_root == (cdf(p.delta_d) >= 1 - EPS)
    by_construction = tq.solve_symmetric(tq.PdPayoffs(3, -1, 5, 0), tq.UniformCdf(0, 1))
    zero_root_ok = zero_root_ok and by_construction.has_zero_root and any(
        abs(r.alpha_star) <= 1e-9 for r in by_construction.roots
    )

    unique_ok = True
    for _ in range(200):
        p = _random_pd(rng, delta_c_dominant=True)
        rep = tq.solve_symmetric(p, _random_cdf(rng), grid=2000)
        unique_ok = unique_ok and len(rep.roots) == 1 and rep.roots[0].residual <= 1e-9

    multi = tq.solve_symmetric(
        tq.PdPayoffs(cc=2, cd=-1.5, dc=3, dd=0.5),
        tq.PiecewiseLinearCdf((0, 1, 1.2, 1.5, 1.8, 2.5), (0, 0.05, 0.4, 0.45, 0.9, 1.0)),
    )
    multi_ok = len(multi.roots) >= 2 and not multi.uniqueness_certified

    ok = closed_form and zero_root_ok and unique_ok and multi_ok
    _report(7, "fixed-point structure", ok,
            f"closed_form={closed_form} zero_root={zero_root_ok} unique={unique_ok} multi={len(multi.roots)} roots")


def test_criterion_08_non_existence():
    solutions = tq.solve_discrete(tq.PdPayoffs(3, -1, 5, 0), tq.point_mass(1.5))
    _report(8, "discrete non-existence", solutions == [], "point mass at 1.5")


def test_criterion_09_comparative_statics():
    start = time.perf_counter()
    base = tq.PdPayoffs(3, -1, 5, 0)
    cdf = tq.UniformCdf(0, 4)

    def branch(param, values):
        points = tq.comparative_statics_sweep(base, cdf, param, list(values))
        return [p.alpha_star for p in points if p.branch_id == 0]

    checks = {
        "delta_c": _monotone(branch("delta_c", np.linspace(1.5, 3.5, 11)), "down"),
        "delta_d": _monotone(branch("delta_d", np.linspace(0.5, 2.8, 11)), "down"),
        "a": _monotone(branch("a", np.linspace(2.0, 4.5, 11)), "up"),
        "b": _monotone(branch("b", np.linspace(-2.0, -0.1, 11)), "up"),
        "shift": _monotone(branch("shift", np.linspace(0.0, 2.0, 11)), "up"),
    }
    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks.items() if not ok]
    _report(9, "comparative statics", not failed and elapsed < 10.0,
            f"5 sweeps in {elapsed:.2f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_cli_determinism(tmp_path, capsys):
    built = tq.build_game(tq.PrisonersDilemma(5, 2))
    game = tmp_path / "game.json"
    serialize.dump_json(serialize.game_to_obj(built.game), str(game))
    prof = tmp_path / "profile.json"
    serialize.dump_json(
        serialize.profile_to_obj(tq.MixedProfile((tq.MixedStrategy((0.3, 0.7)),) * 2)), str(prof)
    )
    pi = tmp_path / "pi.json"
    serialize.dump_json(
        serialize.tolerance_profile_to_obj(
            tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 3.0), (0.7, 0.3)), 2)
        ),
        str(pi),
    )
    cdf = tmp_path / "cdf.json"
    serialize.dump_json({"type": "uniform", "lo": 0, "hi": 4}, str(cdf))

    commands = [
        ["verify", "--game", str(game), "--profile", str(prof), "--pi", str(pi),
         "--format", "structured-object"],
        ["pd-solve", "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", str(cdf)],
        ["threshold", "--kind", "bertrand", "--n", "2", "--low", "2", "--high", "100",
         "--beta", "0.8"],
        ["sweep", "--kind", "pg", "--param", "rho", "--values", "0.4:0.9:6", "--n", "4",
         "--seed", "17", "--samples", "4000"],
        ["sweep", "--kind", "pd-alpha", "--param", "shift", "--values", "0:2:9",
         "--a", "3", "--b", "-1", "--c", "5", "--d", "0", "--cdf", str(cdf)],
    ]
    ok = True
    for args in commands:
        outputs = []
        for run in (0, 1):
            out_file = tmp_path / f"out_{run}.dat"
            code = cli_main(args + ["--out", str(out_file)])
            stdout = capsys.readouterr().out
            outputs.append((code, out_file.read_bytes(), stdout))
        ok = ok and outputs[0] == outputs[1]
    _report(10, "cli determinism", ok, f"{len(commands)} commands, two runs each")
