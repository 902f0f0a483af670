"""Dilemma games, closed-form thresholds, and cooperation rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq_oracles import bertrand_f_enum, brute_expected_utility


def test_pd_game_payoffs():
    built = tq.build_game(tq.PrisonersDilemma(5, 2))
    expected = np.array([[[3, 3], [-2, 5]], [[5, -2], [0, 0]]], dtype=float)
    assert np.array_equal(built.game.payoffs, expected)
    assert (built.cooperate, built.defect) == (0, 1)


def test_travelers_game_payoffs():
    built = tq.build_game(tq.TravelersDilemma(2, 3, 2))
    # claims (2, 3); profiles (3,3) (2,3) (3,2) (2,2) hand-applied bonus rule
    game = built.game
    assert game.payoffs[1, 1].tolist() == [3, 3]
    assert game.payoffs[0, 1].tolist() == [4, 0]
    assert game.payoffs[1, 0].tolist() == [0, 4]
    assert game.payoffs[0, 0].tolist() == [2, 2]
    assert built.cooperate == 1 and built.defect == 0


def test_bertrand_game_payoffs():
    built = tq.build_game(tq.BertrandCompetition(2, 2, 3))
    game = built.game
    assert game.payoffs[1, 1].tolist() == [1.5, 1.5]
    assert game.payoffs[0, 1].tolist() == [2, 0]
    assert game.payoffs[0, 0].tolist() == [1, 1]


def test_public_goods_payoff_formula():
    built = tq.build_game(tq.PublicGoods(3, 0.5))
    game = built.game
    # contributions are 0 or the whole endowment; check u = 1 - x_i + rho * total
    for profile in np.ndindex(2, 2, 2):
        contributions = [float(x) for x in profile]
        total = sum(contributions)
        for i in range(3):
            assert game.payoffs[profile + (i,)] == pytest.approx(
                1.0 - contributions[i] + 0.5 * total
            )


def test_public_goods_contribution_grid():
    built = tq.build_game(tq.PublicGoods(2, 0.75), levels=5)
    assert built.game.num_strategies == (5, 5)
    assert built.cooperate == 4 and built.defect == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        tq.PrisonersDilemma(2, 2)
    with pytest.raises(ValueError):
        tq.TravelersDilemma(2, 2, 1)
    with pytest.raises(ValueError):
        tq.PublicGoods(3, 0.2)  # below 1/N
    with pytest.raises(ValueError):
        tq.BertrandCompetition(2, 1, 100)  # floor below 2
    with pytest.raises(ValueError):
        tq.TravelersDilemma(2.0, 100, 2)  # non-integer


def test_thresholds_closed_forms():
    assert tq.cooperation_threshold(tq.PrisonersDilemma(5, 2)) == pytest.approx(2.0)
    assert tq.cooperation_threshold(tq.PublicGoods(3, 0.4)) == pytest.approx(0.6)
    td = tq.TravelersDilemma(2, 100, 2)
    assert tq.cooperation_threshold(td) == pytest.approx(3.0)  # 2b - 1
    assert tq.cooperation_threshold(td, beta=0.5) == pytest.approx(0.5)
    bc = tq.BertrandCompetition(2, 2, 100)
    assert tq.cooperation_threshold(bc, beta=0.8) == pytest.approx(39.2)
    with pytest.raises(ValueError):
        tq.cooperation_threshold(bc)


def test_threshold_takes_an_array_of_beliefs():
    betas = np.linspace(0.0, 1.0, 7).reshape(7, 1)
    for spec in (
        tq.PrisonersDilemma(5, 2),
        tq.PublicGoods(3, 0.4),
        tq.TravelersDilemma(2, 100, 3),
        tq.BertrandCompetition(3, 2, 40),
    ):
        curve = tq.cooperation_threshold(spec, betas)
        assert curve.shape == betas.shape
        for beta, value in zip(betas.ravel(), curve.ravel()):
            assert value == tq.cooperation_threshold(spec, float(beta))
    for bad in (-0.1, 1.5, float("nan"), np.array([0.2, 1.1])):
        with pytest.raises(ValueError):
            tq.cooperation_threshold(tq.BertrandCompetition(3, 2, 40), bad)


def test_traveler_threshold_against_direct_expected_utilities():
    # independent check: compute u(H), u(H-1), u(L) against the beta mixture
    low, high, bonus, beta = 2, 100, 2, 0.5
    u_high = beta * high + (1 - beta) * (low - bonus)
    u_under = beta * (high - 1 + bonus) + (1 - beta) * (low - bonus)
    u_low = beta * (low + bonus) + (1 - beta) * low
    expected = max(u_under, u_low) - u_high
    assert tq.cooperation_threshold(tq.TravelersDilemma(low, high, bonus), beta) == pytest.approx(
        expected
    )


def test_bertrand_f_values_and_enumeration():
    assert tq.bertrand_f(4, 0.0) == pytest.approx(0.25)
    assert tq.bertrand_f(4, 1.0) == pytest.approx(1.0)
    assert tq.bertrand_f(2, 0.8) == pytest.approx(0.9)
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        for beta in rng.uniform(0, 1, 4):
            assert tq.bertrand_f(n, float(beta)) == pytest.approx(
                bertrand_f_enum(n, float(beta)), abs=1e-12
            )


def test_bertrand_f_closed_form():
    # the sum telescopes to (1 - beta^n) / (n (1 - beta))
    for n in (2, 5, 9):
        for beta in (0.1, 0.5, 0.93):
            closed = (1 - beta**n) / (n * (1 - beta))
            assert tq.bertrand_f(n, beta) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize(
    "spec,beta",
    [
        (tq.PrisonersDilemma(5, 2), 0.3),
        (tq.PrisonersDilemma(9, 1.5), 0.8),
        (tq.TravelersDilemma(2, 100, 2), 0.5),
        (tq.TravelersDilemma(2, 100, 2), 0.97),
        (tq.TravelersDilemma(3, 4, 2), 0.6),  # degenerate high-1 == low
        (tq.PublicGoods(3, 0.5), 0.4),
        (tq.PublicGoods(6, 0.3), 0.9),
        (tq.BertrandCompetition(2, 2, 100), 0.8),
        (tq.BertrandCompetition(3, 2, 30), 0.9),
        (tq.BertrandCompetition(3, 5, 30), 0.2),
    ],
)
def test_threshold_matches_raw_regret(spec, beta):
    # the closed form must equal the cooperate action's regret in the
    # explicit game against independent beta-mixing opponents
    built = tq.build_game(spec)
    opponents = tq.beta_mixture_profile(built, beta)
    raw = tq.regret(built.game, opponents, 0, built.cooperate)
    assert tq.cooperation_threshold(spec, beta) == pytest.approx(raw, abs=1e-9)


def test_relative_to_absolute():
    assert tq.relative_to_absolute(tq.PrisonersDilemma(5, 2), 0.0) == 0.0
    assert tq.relative_to_absolute(tq.TravelersDilemma(2, 100, 2), 0.02) == pytest.approx(2.0)
    assert tq.relative_to_absolute(tq.PublicGoods(4, 0.5), 0.3) == pytest.approx(0.6)
    assert tq.relative_to_absolute(tq.BertrandCompetition(2, 2, 100), 0.5) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        tq.relative_to_absolute(tq.PrisonersDilemma(5, 2), 1.5)


def test_will_cooperate():
    pd = tq.PrisonersDilemma(5, 2)
    assert not tq.will_cooperate(pd, tq.RelativeType(0.9, 0.5, "D"))
    assert tq.will_cooperate(pd, tq.RelativeType(0.7, 0.5, "C"))  # 2.1 >= 2
    assert not tq.will_cooperate(pd, tq.RelativeType(0.6, 0.5, "C"))  # 1.8 < 2
    td = tq.TravelersDilemma(2, 100, 2)
    assert not tq.will_cooperate(td, tq.RelativeType(0.004, 0.5, "C"))  # 0.4 < 0.5
    assert tq.will_cooperate(td, tq.RelativeType(0.006, 0.5, "C"))


def test_rate_zero_when_no_cooperative_dispositions():
    dist = tq.RelativeTypeDistribution(q=0.0)
    result = tq.cooperation_rate(tq.PrisonersDilemma(5, 2), dist, samples=2000, seed=3)
    assert result.mc_rate == 0.0
    assert result.exact_rate == 0.0


def test_exact_rates_closed_forms():
    dist = tq.RelativeTypeDistribution()
    # thresholds are belief-free, so the area is 1 - threshold/scale
    assert tq.exact_cooperation_rate(tq.PrisonersDilemma(5, 2), dist) == pytest.approx(1 / 3)
    assert tq.exact_cooperation_rate(tq.PublicGoods(4, 0.5), dist) == pytest.approx(0.75)
    # scaling q scales the rate
    half = tq.RelativeTypeDistribution(q=0.5)
    assert tq.exact_cooperation_rate(tq.PublicGoods(4, 0.5), half) == pytest.approx(0.375)


def test_exact_rate_matches_midpoint_grid():
    # independent oracle: average the conditional rate over a fine beta grid
    spec = tq.TravelersDilemma(2, 100, 2)
    dist = tq.RelativeTypeDistribution()
    betas = (np.arange(200_000) + 0.5) / 200_000
    thresholds = np.maximum(betas * (spec.bonus - 1), spec.bonus - betas * (spec.high - spec.low))
    grid_rate = float(np.clip(1 - thresholds / spec.high, 0, 1).mean())
    assert tq.exact_cooperation_rate(spec, dist) == pytest.approx(grid_rate, abs=1e-6)

    bc = tq.BertrandCompetition(2, 2, 100)
    thresholds = np.maximum(betas * 99, tq.bertrand_f(2, betas) * 2) - betas * 50
    grid_rate = float(np.clip(1 - thresholds / 50.0, 0, 1).mean())
    assert tq.exact_cooperation_rate(bc, dist) == pytest.approx(grid_rate, abs=1e-6)


def test_travelers_bonus_one_exact_rate():
    # with bonus 1 the threshold max(0, 1 - beta*(H-L)) vanishes on [1/(H-L), 1],
    # so the rate is 1 - 1/(2*(H-L)*H)
    for low, high in ((3, 201), (1, 2), (10, 40)):
        spec = tq.TravelersDilemma(low, high, 1)
        closed = 1 - 1 / (2 * (high - low) * high)
        assert tq.exact_cooperation_rate(spec, tq.RelativeTypeDistribution()) == pytest.approx(
            closed, abs=1e-12
        )
        half = tq.RelativeTypeDistribution(q=0.7)
        assert tq.exact_cooperation_rate(spec, half) == pytest.approx(0.7 * closed, abs=1e-12)
    rate = tq.exact_cooperation_rate(tq.TravelersDilemma(3, 201, 1), tq.RelativeTypeDistribution())
    assert rate == pytest.approx(0.99998744, abs=1e-8)


_U = tq.RelativeTypeDistribution


@pytest.mark.parametrize(
    "spec,dist,value",
    [
        (tq.PrisonersDilemma(5, 2), _U(), 0.33333333333333337),
        (tq.PrisonersDilemma(5, 2), _U(q=0.0), 0.0),
        (tq.PublicGoods(4, 0.5), _U(), 0.75),
        (tq.PublicGoods(4, 0.5), _U(q=0.5), 0.375),
        (tq.TravelersDilemma(2, 100, 2), _U(), 0.9947979797979798),
        (tq.TravelersDilemma(2, 100, 3), _U(), 0.98955),
        (tq.TravelersDilemma(2, 100, 5), _U(), 0.9787745098039214),
        (tq.TravelersDilemma(2, 100, 8), _U(), 0.9619523809523811),
        (tq.BertrandCompetition(2, 2, 100), _U(), 0.5098979591836735),
        (tq.BertrandCompetition(2, 5, 100), _U(), 0.5093523316062175),
        (tq.BertrandCompetition(2, 10, 100), _U(), 0.5073404255319149),
        (tq.BertrandCompetition(2, 20, 100), _U(), 0.4987640449438202),
        (tq.BertrandCompetition(2, 2, 100), _U(beta_point=0.8), 0.21599999999999997),
        (tq.BertrandCompetition(3, 2, 100), _U(beta_point=0.8), 0.0),
    ],
)
def test_exact_rates_keep_quadrature_values(spec, dist, value):
    # values of these specs when the rate was computed by adaptive quadrature
    assert tq.exact_cooperation_rate(spec, dist) == pytest.approx(value, abs=1e-12)


def _quad_rate(spec, q):
    """The uniform-belief rate by scipy quad, with the kinks located by a
    4097-point scan and brentq."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    scale = tq.all_cooperate_payoff(spec)
    if isinstance(spec, tq.TravelersDilemma):
        b, spread = spec.bonus, spec.high - spec.low

        def branches(x):
            return x * (b - 1.0), b - x * spread

    else:
        n, low, high = spec.num_firms, spec.price_floor, spec.price_cap

        def branches(x):
            lead = x ** (n - 1)
            return lead * (high - 1.0) - lead * high / n, tq.bertrand_f(n, x) * low - lead * high / n

    def threshold(x):
        return np.maximum(*branches(x))

    def gap(x):
        undercut, floor_value = branches(x)
        return undercut - floor_value

    grid = np.linspace(0.0, 1.0, 4097)
    kinks = []
    for fn in (gap, threshold, lambda x: threshold(x) - scale):
        vals = fn(grid)
        kinks += list(grid[1:-1][vals[1:-1] == 0.0])
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            kinks.append(brentq(lambda x: float(fn(np.asarray(x))), grid[i], grid[i + 1], xtol=1e-14))
    value, _ = quad(
        lambda x: float(np.clip(1.0 - threshold(np.asarray(x)) / scale, 0.0, 1.0)),
        0.0, 1.0, points=sorted(kinks) or None, limit=200,
    )
    return q * value


_travelers = st.builds(
    lambda low, spread, bonus: tq.TravelersDilemma(low, low + spread, bonus),
    st.integers(1, 20), st.integers(1, 200), st.integers(2, 30),
)
_bertrand = st.builds(
    lambda n, low, spread: tq.BertrandCompetition(n, low, low + spread),
    st.integers(2, 8), st.integers(2, 30), st.integers(1, 200),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_travelers, _bertrand), st.sampled_from((1.0, 0.7)))
def test_exact_rate_matches_quadrature(spec, q):
    exact = tq.exact_cooperation_rate(spec, tq.RelativeTypeDistribution(q=q))
    assert exact == pytest.approx(_quad_rate(spec, q), abs=1e-12)


def test_monte_carlo_converges_to_exact():
    dist = tq.RelativeTypeDistribution()
    for spec in (tq.PrisonersDilemma(5, 2), tq.TravelersDilemma(2, 100, 2)):
        result = tq.cooperation_rate(spec, dist, samples=200_000, seed=11)
        assert result.mc_rate == pytest.approx(result.exact_rate, abs=5 * result.mc_stderr + 1e-4)


def test_monte_carlo_deterministic_per_seed():
    dist = tq.RelativeTypeDistribution(q=0.7)
    a = tq.cooperation_rate(tq.PublicGoods(3, 0.5), dist, samples=5000, seed=42)
    b = tq.cooperation_rate(tq.PublicGoods(3, 0.5), dist, samples=5000, seed=42)
    assert a == b


def test_custom_sampler_is_mc_only():
    def sampler(rng, n):
        return np.full(n, 0.9), np.full(n, 0.5), np.ones(n, dtype=bool)

    dist = tq.RelativeTypeDistribution(sampler=sampler)
    result = tq.cooperation_rate(tq.PrisonersDilemma(5, 2), dist, samples=100, seed=0)
    assert result.exact_rate is None
    assert result.mc_rate == 1.0  # 0.9 * 3 >= 2 for every sample
    with pytest.raises(ValueError):
        tq.exact_cooperation_rate(tq.PrisonersDilemma(5, 2), dist)


def test_large_n_bertrand_limit():
    # for many firms the relative threshold approaches L / ((1 - beta) H)
    for n in (200, 500, 1000):
        for beta in (0.3, 0.5, 0.7):
            spec = tq.BertrandCompetition(n, 2, 100)
            threshold = tq.cooperation_threshold(spec, beta)
            relative = threshold / tq.all_cooperate_payoff(spec)
            limit = spec.price_floor / ((1 - beta) * spec.price_cap)
            assert abs(relative - limit) <= 0.1 * limit


def test_pinned_belief_rates():
    # Bertrand with belief pinned at 0.8: hand-computed relative thresholds
    dist = tq.RelativeTypeDistribution(beta_point=0.8)
    r2 = tq.exact_cooperation_rate(tq.BertrandCompetition(2, 2, 100), dist)
    assert r2 == pytest.approx(1 - 0.784)
    r3 = tq.exact_cooperation_rate(tq.BertrandCompetition(3, 2, 100), dist)
    assert r3 == 0.0  # required relative tolerance exceeds 1
