"""Self-tests of the benchmark's oracles.

    python3 perfbench/test_oracles.py        # or: python3 -m pytest perfbench/test_oracles.py

Known answers first (the tangent instance, the three-root curve of
scripts/fixed_point_curves.py, a discrete example), then agreement with
brute-force versions, and last a cross-check with toleq on the inputs the
benchmark cannot draw at random: the five comparative-statics sweeps.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracles as orc  # noqa: E402
import toleq as tq  # noqa: E402
import workloads  # noqa: E402


def test_tangent_instance_has_two_roots():
    (cc, cd, dc, dd), xs, ys = workloads.TANGENT
    roots = orc.pl_symmetric_roots(dc - cc, dd - cd, xs, ys)
    assert len(roots) == 2
    assert abs(roots[0] - 0.50005) < 1e-12 and roots[1] == 1.0


def test_curve_multiple_has_three_roots():
    roots = orc.pl_symmetric_roots(1.0, 2.0, (0, 1, 1.2, 1.5, 1.8, 2.5), (0, 0.05, 0.4, 0.45, 0.9, 1.0))
    assert all(abs(a - b) < 1e-12 for a, b in zip(roots, (1 / 12, 0.4, 0.56))) and len(roots) == 3


def test_texp_roots_match_a_dense_scan():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 30:
        d_c, d_d = rng.uniform(0.2, 4.0, size=2)
        rate, cap, shift = rng.uniform(0.3, 3.0), rng.uniform(1.0, 5.0), rng.uniform(0.0, 1.5)
        roots = orc.texp_symmetric_roots(d_c, d_d, rate, cap, shift)
        h = orc.symmetric_h(d_c, d_d, orc.texp_cdf(rate, cap, shift))
        if not orc.well_conditioned(h, roots):
            continue
        values = np.array([h(a) for a in np.linspace(0.0, 1.0, 20_001)])
        crossings = np.count_nonzero(values[:-1] * values[1:] < 0)
        assert crossings == sum(0.0 < r < 1.0 for r in roots)
        assert all(abs(h(r)) < 1e-12 for r in roots)
        checked += 1


def test_asymmetric_contains_the_symmetric_roots():
    knots = ((0, 1, 1.2, 1.5, 1.8, 2.5), (0, 0.05, 0.4, 0.45, 0.9, 1.0))
    symmetric = orc.pl_symmetric_roots(1.0, 2.0, *knots)
    asymmetric = orc.pl_asymmetric_roots((1.0, 2.0), (1.0, 2.0), knots, knots)
    for r in symmetric:
        assert any(abs(r - a) < 1e-9 for a in asymmetric)


def test_discrete_fixed_points_are_suffix_masses():
    assert orc.discrete_fixed_points(2.0, 1.0, (0.0, 3.0), (0.5, 0.5)) == [0.5]
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        support = tuple(np.sort(rng.uniform(0, 4, size=m)))
        probs = tuple(rng.dirichlet(np.ones(m)))
        d_c, d_d = rng.uniform(0.2, 4.0, size=2)
        suffixes = [sum(probs[k:]) for k in range(m + 1)]
        for s in orc.discrete_fixed_points(d_c, d_d, support, probs):
            assert any(abs(s - x) <= 1e-12 for x in suffixes)
        # Brute force on a fine alpha grid: every grid fixed point is found.
        for a in np.linspace(0, 1, 401):
            if abs(orc.mass_at_least(support, probs, orc.gap(d_c, d_d, a)) - a) <= 1e-12:
                assert any(abs(a - s) <= 1e-9 for s in orc.discrete_fixed_points(d_c, d_d, support, probs))


def test_rates_agree_with_toleq_exact_rates():
    specs = [
        {"kind": "td", "L": 2, "H": 100, "b": 2},
        {"kind": "td", "L": 5, "H": 60, "b": 7},
        {"kind": "bertrand", "n": 2, "L": 2, "H": 100},
        {"kind": "bertrand", "n": 3, "L": 10, "H": 100},
        {"kind": "bertrand", "n": 4, "L": 2, "H": 50},
    ]
    for spec in specs:
        want = tq.exact_cooperation_rate(workloads._library_spec(spec), tq.RelativeTypeDistribution())
        assert abs(orc.cooperation_rate(spec, 1.0, None) - want) < 1e-11, spec


def test_bertrand_share_matches_the_binomial_sum():
    beta = np.linspace(0, 1, 11)
    for n in (2, 3, 4, 5):
        closed = sum(math.comb(n - 1, k) * beta**k * (1 - beta) ** (n - 1 - k) / (n - k) for k in range(n))
        assert np.allclose(orc.bertrand_share(n, beta), closed, rtol=0, atol=1e-15)


def test_regrets_match_a_loop_over_pure_profiles():
    rng = np.random.default_rng(2)
    counts = (3, 2, 4)
    payoffs = rng.integers(-5, 6, size=counts + (3,)).astype(float)
    sigma = [rng.dirichlet(np.ones(k)) for k in counts]
    for player in range(3):
        utils = np.zeros(counts[player])
        for pure in itertools.product(*(range(k) for k in counts)):
            weight = np.prod([sigma[j][s] for j, s in enumerate(pure) if j != player])
            utils[pure[player]] += weight * payoffs[pure + (player,)]
        assert np.allclose(orc.regrets(payoffs, sigma, player), utils.max() - utils, atol=1e-12)


def test_max_flow_matches_halls_condition():
    rng = np.random.default_rng(3)
    for _ in range(200):
        types, strategies = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        type_units = list(np.bincount(rng.integers(0, types, size=orc.MASS_UNITS), minlength=types))
        sigma_units = list(np.bincount(rng.integers(0, strategies, size=orc.MASS_UNITS), minlength=strategies))
        support = sorted(set(rng.uniform(0, 3, size=types).tolist()))
        types = len(support)
        type_units = type_units[:types]
        type_units[-1] += orc.MASS_UNITS - sum(type_units)
        regret_vec = rng.uniform(0, 3, size=strategies)
        hall = all(
            sum(type_units[j] for j in subset)
            <= sum(u for s, u in enumerate(sigma_units) if any(regret_vec[s] <= support[j] + orc.EPS for j in subset))
            for r in range(1, types + 1)
            for subset in itertools.combinations(range(types), r)
        )
        assert orc.player_feasible(regret_vec, sigma_units, support, type_units) == hall


def test_dilemma_tensors_match_and_a_changed_entry_is_caught():
    built = tq.build_game(tq.BertrandCompetition(3, 2, 8))
    assert orc.check_dilemma_tensor("bertrand", {"floor": 2, "cap": 8}, built.game.payoffs)
    changed = built.game.payoffs.copy()
    changed[1, 2, 3, 0] += 1e-6
    assert not orc.check_dilemma_tensor("bertrand", {"floor": 2, "cap": 8}, changed)
    built = tq.build_game(tq.TravelersDilemma(2, 30, 3))
    assert orc.check_dilemma_tensor("td", {"low": 2, "high": 30, "bonus": 3}, built.game.payoffs)
    built = tq.build_game(tq.PublicGoods(4, 0.6), levels=3)
    assert orc.check_dilemma_tensor("pg", {"levels": 3, "rho": 0.6}, built.game.payoffs)


def test_witness_and_remap_checks_reject_bad_answers():
    regret_vec = [0.0, 1.0]
    assert orc.witness_ok(regret_vec, [0.5, 0.5], (0.0, 2.0), (0.5, 0.5), (0.0, 2.0), ([1, 0], [0, 1]))
    assert not orc.witness_ok(regret_vec, [0.5, 0.5], (0.0, 2.0), (0.5, 0.5), (0.0, 2.0), ([0, 1], [1, 0]))
    assert not orc.witness_ok(regret_vec, [0.5, 0.5], (0.0, 2.0), (0.5, 0.5), (0.0, 2.0), ([1, 0], [1, 0]))
    g = ([1.0, 0.0], [0.0, 1.0])
    assert orc.remap_ok((0.0, 1.0), (0.5, 0.5), g, (0.5, 1.0), (0.5, 0.5), (0.5, 1.0), g)
    assert not orc.remap_ok((0.0, 1.0), (0.5, 0.5), g, (0.5, 1.0), (0.5, 0.5), (0.5, 1.0), g[::-1])


def test_every_sweep_instance_matches_toleq():
    for parameter, lo, hi in workloads.SWEEPS:
        for value in np.linspace(lo, hi, workloads.SWEEP_POINTS):
            (cc, cd, dc, dd), (a, b) = workloads.sweep_instance(parameter, float(value))
            want = orc.pl_symmetric_roots(dc - cc, dd - cd, (a, b), (0.0, 1.0))
            got = [r.alpha_star for r in tq.solve_symmetric(tq.PdPayoffs(cc, cd, dc, dd), tq.UniformCdf(a, b)).roots]
            assert len(got) == len(want) and all(abs(x - y) <= 1e-9 for x, y in zip(got, want)), (parameter, value)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    sys.exit(1 if failures else 0)
