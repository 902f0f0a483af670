"""Expected utility, regret, and consistency, checked against enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq_oracles import brute_expected_utility, random_game, random_profile


def pd_game(b=5.0, c=2.0):
    return tq.build_game(tq.PrisonersDilemma(b, c)).game


def profile(*rows):
    return tq.MixedProfile(tuple(tq.MixedStrategy(tuple(r)) for r in rows))


def test_zero_payoff_game_has_zero_utility():
    game = tq.Game((("a", "b"), ("a", "b")), np.zeros((2, 2, 2)))
    assert tq.expected_utility(game, profile((0.3, 0.7), (0.9, 0.1)), 0) == 0.0
    assert tq.expected_utility(game, profile((1.0, 0.0), (0.0, 1.0)), 1) == 0.0


def test_pd_mutual_cooperation_pays_benefit_minus_cost():
    game = pd_game()
    both_c = profile((1, 0), (1, 0))
    assert tq.expected_utility(game, both_c, 0) == pytest.approx(3.0)
    assert tq.expected_utility(game, both_c, 1) == pytest.approx(3.0)


def test_pd_cooperate_against_coin_flip():
    game = pd_game()
    mixed = profile((1, 0), (0.5, 0.5))
    # oracle: average of the two pure outcomes
    pure_c = tq.expected_utility(game, profile((1, 0), (1, 0)), 0)
    pure_d = tq.expected_utility(game, profile((1, 0), (0, 1)), 0)
    assert tq.expected_utility(game, mixed, 0) == pytest.approx(0.5 * pure_c + 0.5 * pure_d)
    assert tq.expected_utility(game, mixed, 0) == pytest.approx(0.5)


def test_best_response_has_zero_regret():
    game = pd_game()
    opponents = profile((0.5, 0.5), (0.2, 0.8))
    assert tq.regret(game, opponents, 0, 1) == pytest.approx(0.0)


def test_pd_cooperation_regret_equals_cost():
    game = pd_game()
    for mix in ((1.0, 0.0), (0.0, 1.0), (0.42, 0.58)):
        opponents = profile((1, 0), mix)
        assert tq.regret(game, opponents, 0, 0) == pytest.approx(2.0)


def test_travelers_dilemma_regret_of_high_claim():
    built = tq.build_game(tq.TravelersDilemma(2, 100, 2))
    pure_high = tq.MixedStrategy.pure(built.cooperate, 99)
    opponents = tq.MixedProfile((pure_high, pure_high))
    # oracle: enumerate all 99 claims against a pure-H opponent
    utilities = [
        brute_expected_utility(
            built.game, tq.MixedProfile((tq.MixedStrategy.pure(s, 99), pure_high)), 0
        )
        for s in range(99)
    ]
    expected = max(utilities) - utilities[built.cooperate]
    assert expected == pytest.approx(1.0)
    assert tq.regret(built.game, opponents, 0, built.cooperate) == pytest.approx(expected)


def test_consistency_examples():
    game = pd_game()
    opponents = profile((1, 0), (0.3, 0.7))
    assert tq.is_consistent(game, opponents, 0, 1, 0.0)  # best response at t = 0
    assert tq.is_consistent(game, opponents, 0, 0, 2.0)
    assert not tq.is_consistent(game, opponents, 0, 0, 1.9)


def test_public_goods_full_contribution_consistency():
    built = tq.build_game(tq.PublicGoods(3, 0.5))
    opponents = tq.beta_mixture_profile(built, 0.5)
    assert tq.is_consistent(built.game, opponents, 0, built.cooperate, 0.5)
    assert not tq.is_consistent(built.game, opponents, 0, built.cooperate, 0.49)


def test_negative_tolerance_rejected():
    game = pd_game()
    with pytest.raises(ValueError):
        tq.is_consistent(game, profile((1, 0), (1, 0)), 0, 0, -0.1)


def test_dimension_mismatch_rejected():
    game = pd_game()
    with pytest.raises(ValueError):
        tq.expected_utility(game, profile((1, 0)), 0)
    with pytest.raises(ValueError):
        tq.expected_utility(game, profile((1, 0, 0), (0.5, 0.5, 0.0)), 0)


def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError):
        tq.MixedStrategy((0.5, 0.4))
    with pytest.raises(ValueError):
        tq.MixedStrategy((1.2, -0.2))


def test_non_finite_probabilities_rejected():
    inf, nan = float("inf"), float("nan")
    for probs in ((nan, nan), (0.5, nan), (inf, -inf), (1.0, 0.0, nan)):
        with pytest.raises(ValueError):
            tq.MixedStrategy(probs)


def test_payoff_tensor_shape_checked():
    with pytest.raises(ValueError):
        tq.Game((("a", "b"),), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        tq.Game((("a", "b"), ("a", "b")), np.full((2, 2, 2), np.nan))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_expected_utility_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    for player in range(game.num_players):
        assert tq.expected_utility(game, prof, player) == pytest.approx(
            brute_expected_utility(game, prof, player), abs=1e-9
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_utility_linear_in_each_opponent(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    for player in range(game.num_players):
        value = tq.expected_utility(game, prof, player)
        # probability-weighted sum over pure profiles of all *other* players
        others = [j for j in range(game.num_players) if j != player]
        total = 0.0
        for combo in itertools.product(*(range(game.num_strategies[j]) for j in others)):
            weight = 1.0
            strategies = list(prof.strategies)
            for j, s in zip(others, combo):
                weight *= prof[j].probs[s]
                strategies[j] = tq.MixedStrategy.pure(s, game.num_strategies[j])
            total += weight * tq.expected_utility(game, tq.MixedProfile(tuple(strategies)), player)
        assert value == pytest.approx(total, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_regret_nonnegative_and_attained(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, prof, player)
        assert np.all(regret_vec >= 0)
        assert regret_vec.min() == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.floats(0, 5), st.floats(0, 5))
def test_consistency_monotone_in_tolerance(seed, t1, t2):
    rng = np.random.default_rng(seed)
    game = random_game(rng)
    prof, _ = random_profile(rng, game)
    lo, hi = min(t1, t2), max(t1, t2)
    for player in range(game.num_players):
        for s in range(game.num_strategies[player]):
            if tq.is_consistent(game, prof, player, s, lo):
                assert tq.is_consistent(game, prof, player, s, hi)
