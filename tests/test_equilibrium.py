"""Tolerant-equilibrium verification against the max-flow oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq.equilibrium import _player_check
from toleq.numeric import reset_epsnum
from toleq_oracles import (
    dominating_dist,
    feasible_instance,
    is_standard_epsilon_nash,
    oracle_tolerant_verdict,
    random_game,
    random_profile,
    random_tolerance_profile,
    reference_player_check,
    reference_violation,
    verifier_instance,
    with_light_atoms,
    with_light_entries,
    with_tail_slack,
    witness_exists,
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


def test_type_lighter_than_eps_is_not_given_a_strategy_above_its_tolerance():
    # claim 5 has regret 1 > 0; the tail test at 0 passes within eps, so the
    # quantile coupling used to hand the 1e-10 type at 0 its share of claim 5
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    strategy = tq.MixedStrategy.pure(3, 4)
    prof = tq.MixedProfile((strategy, strategy))
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 1.5), (1e-10, 1 - 1e-10)), 2)
    verdict = tq.verify_tolerant_equilibrium(built.game, prof, pi)
    assert verdict.is_equilibrium
    for g in verdict.witness:
        assert g.strategies[0].probs == (0.0, 0.0, 1.0, 0.0)  # claim 4, the best response
    assert tq.witness_is_valid(built.game, prof, pi, verdict.witness)


def test_light_types_in_two_gaps_do_not_pile_onto_one_strategy():
    # regrets (0, 0.5, 1); the types at 0.1 and 0.6 each cover 2**-30 of a
    # strategy above their tolerance, and both on strategy 0 would move it
    # by 2**-29 > eps
    d = 2.0**-30
    game = tq.Game((("a", "b", "c"),), np.array([[1.0], [0.5], [0.0]]))
    prof = tq.MixedProfile((tq.MixedStrategy((0.25, 0.25, 0.5)),))
    dist = tq.DiscreteToleranceDist((0.0, 0.1, 0.5, 0.6, 1.0), (0.25, d, 0.25 - d, d, 0.5 - d))
    pi = tq.DiscreteToleranceProfile((dist,))
    assert reference_violation(game, prof, pi) is None
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert [s.probs for s in verdict.witness[0].strategies[1:4:2]] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    assert tq.witness_is_valid(game, prof, pi, verdict.witness)


def test_type_whose_mass_rounds_away_plays_a_best_response():
    # 1.0 + 1e-17 rounds to 1.0, so the cumulative type mass gives the type at
    # 4 no quantile interval at all
    game = pd_game()
    prof = profile((0.3, 0.7), (0.3, 0.7))
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 3.0, 4.0), (0.7, 0.3, 1e-17)), 2)
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium
    for g in verdict.witness:
        assert g.strategies[2].probs == (0.0, 1.0)  # defect, the best response
    assert tq.witness_is_valid(game, prof, pi, verdict.witness)


def test_witness_when_no_entry_is_supported():
    # under eps = 0.5 neither entry of (0.5, 0.5) is supported, so the
    # coupling has no mass to share and every type plays the profile itself
    token = tq.set_epsnum(0.5)
    try:
        prof = profile((0.5, 0.5), (0.5, 0.5))
        verdict = tq.verify_tolerant_equilibrium(pd_game(), prof, PD_PI)
        assert verdict.is_equilibrium
        for g in verdict.witness:
            assert all(s.probs == (0.5, 0.5) for s in g.strategies)
    finally:
        reset_epsnum(token)


@pytest.mark.parametrize(
    "probs",
    [
        (1 - 0.5e-9, 0.5e-9, 0.0, 0.0),
        (1 - 2e-9, 1e-9, 0.0, 1e-9),
        (1 - 2.7e-9, 0.9e-9, 0.9e-9, 0.9e-9),
    ],
)
@pytest.mark.parametrize(
    "dist",
    [tq.point_mass(0.0), tq.point_mass(0.5), tq.DiscreteToleranceDist((0.0, 0.5), (1 - 1e-6, 1e-6))],
)
def test_entries_below_eps_demand_no_type(probs, dist):
    # claims 3 to 5 have regret 2 or more; each carries at most eps, together
    # they may exceed eps, and the 0.5 type of the last distribution weighs
    # 1e-6, so giving it their mass would lift its share of them far above eps
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    strategy = tq.MixedStrategy(probs)
    prof = tq.MixedProfile((strategy, strategy))
    pi = tq.DiscreteToleranceProfile.iid(dist, 2)
    verdict = tq.verify_tolerant_equilibrium(built.game, prof, pi)
    assert verdict.is_equilibrium
    assert tq.witness_is_valid(built.game, prof, pi, verdict.witness)
    for g in verdict.witness:
        assert max(max(s.probs[1:]) for s in g.strategies) <= 1e-9
        assert g.mixture(dist) == pytest.approx(probs, abs=1e-15)


def test_dropped_mass_profile_is_nash():
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    strategy = tq.MixedStrategy((1 - 2.7e-9, 0.9e-9, 0.9e-9, 0.9e-9))
    prof = tq.MixedProfile((strategy, strategy))
    assert tq.verify_nash(built.game, prof)
    assert tq.verify_gp_epsilon_nash(built.game, prof, 0.5)


def test_stranded_mass_just_above_eps_fails():
    # claim 5 has regret 2 against claim 2, above the only tolerance 0.5; its
    # mass exceeds eps by less than the rounding of cumulative sums near 1
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    m = 1e-9 + 1e-17
    strategy = tq.MixedStrategy((1 - m, 0.0, 0.0, m))
    prof = tq.MixedProfile((strategy, strategy))
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.5), 2)
    verdict = tq.verify_tolerant_equilibrium(built.game, prof, pi)
    assert not verdict.is_equilibrium
    assert verdict.violation.threshold == 0.5
    assert "exceeds every tolerance type" in verdict.violation.detail


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
    assert tq.symmetric_alpha_intervals(game, pi, 101) == [(0.0, 0.0)]


def test_symmetric_grid_search_tolerant_interval():
    game = pd_game()
    assert tq.symmetric_alpha_intervals(game, PD_PI, 1001) == [(0.0, pytest.approx(0.3))]


def test_symmetric_grid_search_everything_passes():
    game = pd_game()
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(10.0), 2)
    assert tq.symmetric_alpha_intervals(game, pi, 101) == [(0.0, 1.0)]


def test_grid_search_rejects_wrong_shape():
    built = tq.build_game(tq.TravelersDilemma(2, 4, 2))
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    with pytest.raises(ValueError):
        tq.symmetric_alpha_intervals(built.game, pi, 11)


def test_grid_search_rejects_asymmetric_payoffs():
    payoffs = np.array([[[3, 1], [0, 2]], [[2, 0], [1, 3]]], dtype=float)
    game = tq.Game((("x", "y"), ("x", "y")), payoffs)
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    with pytest.raises(ValueError):
        tq.symmetric_alpha_intervals(game, pi, 11)


def _pd_with_offset(offset):
    payoffs = tq.as_game(tq.PdPayoffs(3, -1, 5, 0)).payoffs.copy()
    payoffs[0, 1, 0] += offset
    return tq.Game((("C", "D"), ("C", "D")), payoffs)


def test_grid_search_compares_symmetry_within_epsnum():
    pi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    with pytest.raises(ValueError, match="symmetric"):
        tq.symmetric_alpha_intervals(_pd_with_offset(1e-6), pi, 11)
    assert tq.symmetric_alpha_intervals(_pd_with_offset(1e-10), pi, 11) == [(0.0, 0.0)]
    token = tq.set_epsnum(1e-5)
    try:
        assert tq.symmetric_alpha_intervals(_pd_with_offset(1e-6), pi, 11) == [(0.0, 0.0)]
    finally:
        reset_epsnum(token)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_witness_valid_with_types_lighter_than_eps(seed, feasible):
    # the tail comparisons allow eps of slack, so the quantile coupling can
    # pair a type lighter than eps with a strategy above its tolerance
    rng = np.random.default_rng(seed)
    if feasible:
        game, prof, pi = feasible_instance(rng)
    else:
        game = random_game(rng)
        prof, _ = random_profile(rng, game)
        pi, _ = random_tolerance_profile(rng, game)
    pi = tq.DiscreteToleranceProfile(tuple(with_light_atoms(rng, dist) for dist in pi.per_player))
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium == (reference_violation(game, prof, pi) is None)
    if verdict.is_equilibrium:
        assert tq.witness_is_valid(game, prof, pi, verdict.witness)


def test_witness_keeps_the_mixture_when_an_entry_below_eps_shares_the_upper_types():
    # claim 2 carries 0.9e-9, at most eps; were every type to play it with
    # that probability, the type at 1.5 would bring only 1 - 0.9e-9 of its
    # mass to claims 4 and 5, and claim 5 would lose 1.35e-9 to claim 4
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    prof = profile((0.9e-9, 0.0, 0.5 - 0.9e-9, 0.5), (0.0, 0.0, 0.0, 1.0))
    pi = tq.DiscreteToleranceProfile(
        (tq.DiscreteToleranceDist((0.0, 1.5), (0.5 + 0.9e-9, 0.5 - 0.9e-9)), tq.point_mass(10.0))
    )
    verdict = tq.verify_tolerant_equilibrium(built.game, prof, pi)
    # a negative verdict has no witness, and indexing None raises TypeError
    assert tq.witness_is_valid(built.game, prof, pi, verdict.witness)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_witness_valid_with_entries_lighter_than_eps(seed, feasible):
    # entries at or below eps demand no type, but the witness must still
    # reproduce them, and the mass they take, within eps, also where a tail
    # comparison passes by its slack and types are lighter than eps; the
    # verdict can pass where no witness exists (the strict xfail below), so
    # the witness is held to be valid wherever a linear program finds one
    rng = np.random.default_rng(seed)
    if feasible:
        game, prof, pi = feasible_instance(rng)
    else:
        game = random_game(rng)
        prof, _ = random_profile(rng, game)
        pi, _ = random_tolerance_profile(rng, game)
    pi = tq.DiscreteToleranceProfile(tuple(with_tail_slack(rng, dist) for dist in pi.per_player))
    if rng.random() < 0.5:
        pi = tq.DiscreteToleranceProfile(tuple(with_light_atoms(rng, dist) for dist in pi.per_player))
    prof = tq.MixedProfile(tuple(with_light_entries(rng, s) for s in prof.strategies))
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert verdict.is_equilibrium == (reference_violation(game, prof, pi) is None)
    if verdict.is_equilibrium and not tq.witness_is_valid(game, prof, pi, verdict.witness):
        assert not witness_exists(game, prof, pi, verdict.witness)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the tail comparisons do not count entries at or "
                   "below eps, so a verdict can pass where no witness reproduces the profile")
def test_no_passing_verdict_without_a_witness_when_an_entry_below_eps_meets_a_tail_at_its_slack():
    # the supported mass above 0 exceeds the type mass above 0 by 0.9e-9,
    # within eps; c carries 0.9e-9 and its regret exceeds every tolerance, so
    # the type at 0 must put 0.2 of mass on a, which carries 0.2 - 1.8e-9,
    # and can move at most 0.2e-9 to each of b and c: a is 1.4e-9 too heavy
    game = tq.Game((("a", "b", "c"),), np.array([[1.0], [0.0], [-1.0]]))  # regrets 0, 1, 2
    prof = tq.MixedProfile((tq.MixedStrategy((0.2 - 1.8e-9, 0.8 + 0.9e-9, 0.9e-9)),))
    pi = tq.DiscreteToleranceProfile((tq.DiscreteToleranceDist((0.0, 1.0), (0.2, 0.8)),))
    verdict = tq.verify_tolerant_equilibrium(game, prof, pi)
    assert not verdict.is_equilibrium or tq.witness_is_valid(game, prof, pi, verdict.witness)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_player_check_matches_numpy_reference(seed):
    # the plain-float check decides with the same floats as the numpy one;
    # only sums of more than seven terms (numpy adds them pairwise) and the
    # row totals of the witness may differ in the last bits
    rng = np.random.default_rng(seed)
    game, prof, pi = verifier_instance(rng)
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, prof, player)
        ours = _player_check(prof[player].probs, regret_vec.tolist(), pi[player], player)
        want = reference_player_check(np.asarray(prof[player].probs), regret_vec, pi[player], player)
        assert type(ours) is type(want)
        if isinstance(want, tq.Violation):
            assert (ours.player, ours.threshold, ours.detail) == (want.player, want.threshold, want.detail)
            assert abs(ours.excess_mass - want.excess_mass) <= 1e-15
        else:
            assert ours.support == want.support
            for got, expected in zip(ours.strategies, want.strategies):
                assert max(abs(a - b) for a, b in zip(got.probs, expected.probs)) <= 1e-15
