"""Independent oracles and instance generators for the test suite.

Everything here deliberately avoids the library's computation paths: expected
utilities are plain loops over pure profiles, feasibility goes through an
integer max-flow, the first failed threshold inequality is found by plain
loops over atoms and strategies, and the Bertrand share factor is enumerated
outcome by outcome.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

import toleq as tq

MASS_UNITS = 24  # all random masses are multiples of 1/24, so flow is exact


def brute_expected_utility(game, profile, player):
    total = 0.0
    for pure in itertools.product(*(range(k) for k in game.num_strategies)):
        prob = 1.0
        for i, s in enumerate(pure):
            prob *= profile[i].probs[s]
        total += prob * game.payoffs[pure + (player,)]
    return total


def maxflow_feasible(type_units, strategy_units, edges):
    """Exact transportation feasibility on integer masses.

    edges[j] is the set of strategy indices type j may play; feasible iff a
    flow saturates every source (totals on both sides are equal).
    """
    total = sum(type_units)
    assert total == sum(strategy_units)
    n_types, n_strats = len(type_units), len(strategy_units)
    size = 2 + n_types + n_strats
    graph = np.zeros((size, size), dtype=np.int64)
    for j, units in enumerate(type_units):
        graph[0, 1 + j] = units
    for s, units in enumerate(strategy_units):
        graph[1 + n_types + s, size - 1] = units
    for j, allowed in enumerate(edges):
        for s in allowed:
            graph[1 + j, 1 + n_types + s] = total
    result = maximum_flow(csr_matrix(graph), 0, size - 1)
    return result.flow_value == total


def oracle_tolerant_verdict(game, profile, pi, pi_units, sigma_units, eps=1e-9):
    """Max-flow verdict on integer-mass instances, one player at a time."""
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        dist = pi[player]
        edges = [
            {s for s in range(len(regret_vec)) if regret_vec[s] <= t + eps}
            for t in dist.support
        ]
        if not maxflow_feasible(pi_units[player], sigma_units[player], edges):
            return False
    return True


def reference_violation(game, profile, pi, eps=1e-9):
    """First failed threshold inequality, by plain loops over players and atoms.

    Returns None when every inequality holds, else (player, threshold,
    excess_mass, stranded) where stranded is the lowest index of a supported
    strategy whose regret exceeds every tolerance, or None.
    """
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        sigma = profile[player].probs
        dist = pi[player]
        top = dist.support[-1]
        stranded = [s for s, p in enumerate(sigma) if p > eps and regret_vec[s] > top + eps]
        if stranded:
            return player, top, sum(sigma[s] for s in stranded), stranded[0]
        cumulative = 0.0
        for t, mass in zip(dist.support, dist.probs):
            cumulative += mass
            available = sum(
                p for s, p in enumerate(sigma) if p > eps and regret_vec[s] <= t + eps
            )
            if cumulative > available + eps:
                return player, t, cumulative - available, None
    return None


def is_standard_epsilon_nash(game, profile, epsilon, tol=1e-12):
    """Textbook payoff-gap check: no pure deviation gains more than epsilon."""
    for player in range(game.num_players):
        current = brute_expected_utility(game, profile, player)
        size = game.num_strategies[player]
        for s in range(size):
            strategies = list(profile.strategies)
            strategies[player] = tq.MixedStrategy.pure(s, size)
            deviation = brute_expected_utility(game, tq.MixedProfile(tuple(strategies)), player)
            if deviation > current + epsilon + tol:
                return False
    return True


def bertrand_f_enum(n, beta):
    """Expected floor-price share by enumerating every rival outcome."""
    total = 0.0
    for outcome in itertools.product((1, 0), repeat=n - 1):
        k = sum(outcome)
        total += beta**k * (1.0 - beta) ** (n - 1 - k) / (n - k)
    return total


def integer_composition(rng, total, parts, allow_zero):
    """Random non-negative integers summing to total."""
    if not allow_zero:
        base = integer_composition(rng, total - parts, parts, allow_zero=True)
        return [u + 1 for u in base]
    cuts = sorted(rng.integers(0, total + 1, size=parts - 1).tolist())
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_game(rng, max_players=3, max_strategies=4):
    n_players = int(rng.integers(2, max_players + 1))
    counts = [int(rng.integers(2, max_strategies + 1)) for _ in range(n_players)]
    payoffs = rng.integers(-5, 6, size=tuple(counts) + (n_players,)).astype(float)
    labels = tuple(tuple(f"s{i}" for i in range(k)) for k in counts)
    return tq.Game(labels, payoffs)


def random_profile(rng, game):
    """Profile with masses in multiples of 1/MASS_UNITS; returns (profile, units)."""
    units, strategies = [], []
    for k in game.num_strategies:
        row = integer_composition(rng, MASS_UNITS, k, allow_zero=True)
        units.append(row)
        strategies.append(tq.MixedStrategy(tuple(u / MASS_UNITS for u in row)))
    return tq.MixedProfile(tuple(strategies)), units


def random_tolerance_profile(rng, game, generous=False):
    """Random discrete tolerance profile; returns (profile, units per player).

    Generous profiles put their top atom above any possible regret so the
    instance is always feasible; tight ones often fail.
    """
    dists, all_units = [], []
    for _ in range(game.num_players):
        n_atoms = int(rng.integers(1, 5))
        units = integer_composition(rng, MASS_UNITS, n_atoms, allow_zero=False)
        steps = rng.uniform(0.05, 3.0, size=n_atoms)
        atoms = np.cumsum(steps) - steps[0] * rng.integers(0, 2)
        if generous:
            atoms = atoms + 30.0
        dists.append(
            tq.DiscreteToleranceDist(
                tuple(float(t) for t in atoms), tuple(u / MASS_UNITS for u in units)
            )
        )
        all_units.append(units)
    return tq.DiscreteToleranceProfile(tuple(dists)), all_units


def feasible_instance(rng):
    """Game, profile, and a tolerance profile built to verify.

    Atoms sit exactly on the distinct regret values of the supported
    strategies, with matching masses, so the threshold inequalities hold
    with equality.
    """
    game = random_game(rng)
    profile, sigma_units = random_profile(rng, game)
    dists = []
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        units = sigma_units[player]
        by_regret: dict[float, int] = {}
        for s, u in enumerate(units):
            if u > 0:
                key = float(np.round(regret_vec[s], 9))
                by_regret[key] = by_regret.get(key, 0) + u
        atoms = sorted(by_regret)
        dists.append(
            tq.DiscreteToleranceDist(
                tuple(atoms), tuple(by_regret[t] / MASS_UNITS for t in atoms)
            )
        )
    return game, profile, tq.DiscreteToleranceProfile(tuple(dists))


def dominating_dist(rng, dist):
    """Random distribution stochastically dominating dist: every chunk of mass
    moves weakly right, sometimes splitting."""
    placed: dict[float, float] = {}
    for t, p in zip(dist.support, dist.probs):
        if rng.random() < 0.35:
            share = rng.uniform(0.2, 0.8)
            chunks = [p * share, p * (1.0 - share)]
        else:
            chunks = [p]
        for mass in chunks:
            shift = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0))
            spot = float(t + shift)
            placed[spot] = placed.get(spot, 0.0) + mass
    atoms = sorted(placed)
    out = tq.DiscreteToleranceDist(tuple(atoms), tuple(placed[t] for t in atoms))
    assert tq.dist_dominates(out, dist)
    return out


def random_map(rng, dist, n_strategies):
    """Arbitrary type-to-strategy assignment over dist's support."""
    strategies = []
    for _ in dist.support:
        weights = rng.dirichlet(np.ones(n_strategies))
        strategies.append(tq.MixedStrategy(tuple(float(w) for w in weights / weights.sum())))
    return tq.TypeStrategyMap(dist.support, tuple(strategies))
