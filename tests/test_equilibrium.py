"""Tolerant-equilibrium verification against the max-flow oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq_oracles import (
    dominating_dist,
    feasible_instance,
    is_standard_epsilon_nash,
    oracle_tolerant_verdict,
    random_game,
    random_profile,
    random_tolerance_profile,
    reference_violation,
)


def profile(*rows):
    return tq.MixedProfile(tuple(tq.MixedStrategy(tuple(r)) for r in rows))


def pd_game():
    return tq.build_game(tq.PrisonersDilemma(5, 2)).game


def matching_pennies():
    payoffs = np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float)
    return tq.Game((("H", "T"), ("H", "T")), payoffs)


PD_PI = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 3.0), (0.7, 0.3)), 2)


def test_nash_profile_accepted_under_any_tolerances():
    game = pd_game()
    both_defect = profile((0, 1), (0, 1))
    for pi in (PD_PI, tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)):
        verdict = tq.verify_tolerant_equilibrium(game, both_defect, pi)
        assert verdict.is_equilibrium
        assert tq.witness_is_valid(game, both_defect, pi, verdict.witness)


def test_partial_cooperation_supported_by_tolerant_types():
    game = pd_game()
    prof = profile((0.3, 0.7), (0.3, 0.7))
    verdict = tq.verify_tolerant_equilibrium(game, prof, PD_PI)
    assert verdict.is_equilibrium
    for g in verdict.witness:
        assert g.strategies[0].probs == pytest.approx((0.0, 1.0))  # type 0 defects
        assert g.strategies[1].probs == pytest.approx((1.0, 0.0))  # type 3 cooperates
    assert tq.witness_is_valid(game, prof, PD_PI, verdict.witness)


def test_excess_cooperation_is_rejected_at_threshold_zero():
    game = pd_game()
    verdict = tq.verify_tolerant_equilibrium(game, profile((0.5, 0.5), (0.5, 0.5)), PD_PI)
    assert not verdict.is_equilibrium
    assert verdict.violation.threshold == 0.0
    assert verdict.violation.excess_mass == pytest.approx(0.2)


def test_mass_on_strategy_no_type_accepts_is_named():
    game = pd_game()
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(1.0), 2)
    verdict = tq.verify_tolerant_equilibrium(game, profile((0.5, 0.5), (0.0, 1.0)), pi)
    assert not verdict.is_equilibrium
    assert "every tolerance type" in verdict.violation.detail


def test_type_lighter_than_eps_gets_a_consistent_strategy():
    # sigma sums to 1 - 5e-10, so the 1e-10 atom lies wholly past the
    # supported mass in the quantile coupling
    game = pd_game()
    prof = profile((0.5, 0.5 - 5e-10), (0.5, 0.5 - 5e-10))
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((3.0, 4.0), (1 - 1e-10, 1e-10)), 2)
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium
    for g in verdict.witness:
        assert g.strategies[1].probs == (0.0, 1.0)  # the best response
    assert tq.witness_is_valid(game, prof, pi, verdict.witness)


def test_verify_nash_examples():
    game = pd_game()
    assert tq.verify_nash(game, profile((0, 1), (0, 1)))
    assert not tq.verify_nash(game, profile((1, 0), (1, 0)))
    assert tq.verify_nash(matching_pennies(), profile((0.5, 0.5), (0.5, 0.5)))


def test_gp_epsilon_nash_examples():
    game = pd_game()
    # a hair of cooperation is a fine standard epsilon-Nash but has an
    # inconsistent support strategy, so the support-restricted test fails
    slight = profile((0.1, 0.9), (0.1, 0.9))
    assert is_standard_epsilon_nash(game, slight, 1.9)
    assert not tq.verify_gp_epsilon_nash(game, slight, 1.9)
    assert tq.verify_gp_epsilon_nash(game, profile((1, 0), (1, 0)), 2.0)
    # epsilon = 0 reduces to Nash
    assert tq.verify_gp_epsilon_nash(game, profile((0, 1), (0, 1)), 0.0)
    with pytest.raises(ValueError):
        tq.verify_gp_epsilon_nash(game, slight, -0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tq.verify_gp_epsilon_nash(game, profile((0.5, 0.5), (0.5, 0.5)), bad)


def test_symmetric_grid_search_nash_only():
    game = pd_game()
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    found = tq.find_symmetric_2x2_equilibria(game, pi, 101)
    assert [p[0].probs[0] for p in found] == [0.0]
    assert tq.symmetric_alpha_intervals(game, pi, 101) == [(0.0, 0.0)]


def test_symmetric_grid_search_tolerant_interval():
    game = pd_game()
    found = tq.find_symmetric_2x2_equilibria(game, PD_PI, 1001)
    alphas = [p[0].probs[0] for p in found]
    assert 0.0 in alphas and pytest.approx(0.3) == max(alphas)
    assert tq.symmetric_alpha_intervals(game, PD_PI, 1001) == [(0.0, pytest.approx(0.3))]


def test_symmetric_grid_search_everything_passes():
    game = pd_game()
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(10.0), 2)
    found = tq.find_symmetric_2x2_equilibria(game, pi, 101)
    assert len(found) == 101
    assert tq.symmetric_alpha_intervals(game, pi, 101) == [(0.0, 1.0)]


def test_grid_search_rejects_wrong_shape():
    built = tq.build_game(tq.TravelersDilemma(2, 4, 2))
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    with pytest.raises(ValueError):
        tq.find_symmetric_2x2_equilibria(built.game, pi, 11)


def test_grid_search_rejects_asymmetric_payoffs():
    payoffs = np.array([[[3, 1], [0, 2]], [[2, 0], [1, 3]]], dtype=float)
    game = tq.Game((("x", "y"), ("x", "y")), payoffs)
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    with pytest.raises(ValueError):
        tq.find_symmetric_2x2_equilibria(game, pi, 11)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_maxflow_oracle(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, sigma_units = random_profile(rng, game)
    pi, pi_units = random_tolerance_profile(rng, game, generous=bool(rng.integers(0, 2)))
    ours = tq.verify_tolerant_equilibrium(game, prof, pi).is_equilibrium
    oracle = oracle_tolerant_verdict(game, prof, pi, pi_units, sigma_units)
    assert ours == oracle


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_violation_matches_reference(seed, generous):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    pi, _ = random_tolerance_profile(rng, game, generous=generous)
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    expected = reference_violation(game, prof, pi)
    assert verdict.is_equilibrium == (expected is None)
    if expected is None:
        return
    player, threshold, excess, stranded = expected
    v = verdict.violation
    assert (v.player, v.threshold) == (player, threshold)
    assert abs(v.excess_mass - excess) <= 1e-12
    if stranded is None:
        assert "every tolerance type" not in v.detail
    else:
        regret = tq.regrets(game, prof, player)[stranded]
        assert v.detail == (
            f"strategy {stranded} carries probability {prof[player].probs[stranded]:.6g} "
            f"but its regret {regret:.6g} exceeds every tolerance type"
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_gp_equivalent_to_point_mass(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    epsilon = float(rng.uniform(0.0, 6.0))
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(epsilon), game.num_players)
    assert tq.verify_gp_epsilon_nash(game, prof, epsilon) == (
        tq.verify_tolerant_equilibrium(game, prof, pi).is_equilibrium
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_witness_valid_on_feasible_instances(seed):
    rng = np.random.default_rng(seed)
    game, prof, pi = feasible_instance(rng)
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium
    assert tq.witness_is_valid(game, prof, pi, verdict.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_monotone_under_dominance_with_remapped_witness(seed):
    rng = np.random.default_rng(seed)
    game, prof, pi = feasible_instance(rng)
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium
    dominated = tq.DiscreteToleranceProfile(
        tuple(dominating_dist(rng, dist) for dist in pi.per_player)
    )
    assert tq.stochastically_dominates(dominated, pi)
    again = tq.verify_tolerant_equilibrium(game, prof, dominated)
    assert again.is_equilibrium
    remapped = tuple(
        tq.dominance_remap(lo, hi, g)
        for lo, hi, g in zip(pi.per_player, dominated.per_player, verdict.witness)
    )
    assert tq.witness_is_valid(game, prof, dominated, remapped)
