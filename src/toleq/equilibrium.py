"""Verification of tolerant equilibria with constructive witnesses.

A profile passes for player i when the player's strategy mass can be split
across tolerance types so that each type only plays strategies whose regret
is within its tolerance (type consistency) and the mass-weighted mixture
reconstructs the player's strategy exactly.  Because the set of strategies a
type may play only grows with the tolerance, feasibility reduces to
threshold inequalities: for every atom t, the cumulative type mass up to t
must fit inside the supported strategy mass with regret <= t.

The verifier decides this in one pass per player over cumulative masses.
Mass on a strategy whose regret exceeds every tolerance is reported first;
otherwise the strategies are sorted by regret once, and the cumulative type
mass is compared with the cumulative strategy mass at every atom.  When no
inequality fails, the lowest-regret-first witness is the quantile
(north-west-corner) coupling of type mass and strategy mass, the same
coupling ``tolerance.dominance_remap`` uses to move an assignment onto a
dominating distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, MixedProfile, MixedStrategy, regrets
from .numeric import epsnum
from .tolerance import (
    DiscreteToleranceDist,
    DiscreteToleranceProfile,
    TypeStrategyMap,
    _quantile_overlap,
    point_mass,
)


@dataclass(frozen=True)
class Violation:
    """First failed threshold: cumulative type mass F(threshold) exceeds the
    strategy mass available at that tolerance by excess_mass."""

    player: int
    threshold: float
    excess_mass: float
    detail: str


@dataclass(frozen=True)
class EquilibriumVerdict:
    is_equilibrium: bool
    witness: tuple[TypeStrategyMap, ...] | None
    violation: Violation | None

    def __post_init__(self) -> None:
        if self.is_equilibrium != (self.witness is not None):
            raise ValueError("a positive verdict carries a witness for every player")
        if self.is_equilibrium == (self.violation is not None):
            raise ValueError("a negative verdict carries a violation")


def _check_pi(game: Game, pi: DiscreteToleranceProfile) -> None:
    if len(pi) != game.num_players:
        raise ValueError(
            f"tolerance profile has {len(pi)} players, game has {game.num_players}"
        )


def _player_check(
    sigma: np.ndarray,
    regret_vec: np.ndarray,
    dist: DiscreteToleranceDist,
    player: int,
    eps: float,
) -> TypeStrategyMap | Violation:
    """Witness for one player, or the first threshold the player fails."""
    in_support = sigma > eps
    stranded = in_support & (regret_vec > dist.max_tolerance + eps)
    if stranded.any():
        worst = int(np.argmax(stranded))
        return Violation(
            player=player,
            threshold=dist.max_tolerance,
            excess_mass=float(sigma[stranded].sum()),
            detail=(
                f"strategy {worst} carries probability {sigma[worst]:.6g} "
                f"but its regret {regret_vec[worst]:.6g} exceeds every "
                "tolerance type"
            ),
        )

    order = np.argsort(regret_vec, kind="stable")
    strategy_cum = np.zeros(len(sigma) + 1)
    np.cumsum(np.where(in_support, sigma, 0.0)[order], out=strategy_cum[1:])
    type_cum = np.cumsum((0.0, *dist.probs))
    tolerances = np.asarray(dist.support) + eps
    # available[j]: the supported strategy mass with regret <= support[j] + eps
    available = strategy_cum[np.searchsorted(regret_vec[order], tolerances, side="right")]
    failed = np.flatnonzero(type_cum[1:] > available + eps)
    if failed.size:
        j = int(failed[0])
        t, cumulative, mass = dist.support[j], float(type_cum[j + 1]), float(available[j])
        return Violation(
            player=player,
            threshold=t,
            excess_mass=cumulative - mass,
            detail=(
                f"types with tolerance <= {t:.6g} have mass {cumulative:.6g} but only "
                f"{mass:.6g} of the strategy mass is consistent with them"
            ),
        )

    alloc = np.empty((len(tolerances), len(sigma)))
    alloc[:, order] = _quantile_overlap(type_cum, strategy_cum)
    totals = alloc.sum(axis=1)
    if not totals.all():
        # An atom lighter than eps can lie wholly past the supported mass; it
        # plays a best response, which every tolerance allows.
        empty = totals == 0.0
        alloc[empty, order[0]] = 1.0
        totals[empty] = 1.0
    alloc /= totals[:, None]
    return TypeStrategyMap(dist.support, tuple(MixedStrategy(tuple(row)) for row in alloc.tolist()))


def verify_tolerant_equilibrium(
    game: Game,
    profile: MixedProfile,
    pi: DiscreteToleranceProfile,
    eps: float | None = None,
) -> EquilibriumVerdict:
    """Check decomposition feasibility for every player, building a witness if it holds."""
    e = epsnum(eps)
    _check_pi(game, pi)
    witnesses = []
    for player in range(game.num_players):
        sigma = np.asarray(profile[player].probs)
        outcome = _player_check(sigma, regrets(game, profile, player), pi[player], player, e)
        if isinstance(outcome, Violation):
            return EquilibriumVerdict(False, None, outcome)
        witnesses.append(outcome)
    return EquilibriumVerdict(True, tuple(witnesses), None)


def verify_gp_epsilon_nash(
    game: Game, profile: MixedProfile, epsilon: float, eps: float | None = None
) -> bool:
    """Support-restricted epsilon-Nash test: every supported strategy must be
    an epsilon-best response, i.e. a tolerant equilibrium under a point mass
    at epsilon."""
    pi = DiscreteToleranceProfile.iid(point_mass(epsilon), game.num_players)
    return verify_tolerant_equilibrium(game, profile, pi, eps).is_equilibrium


def verify_nash(game: Game, profile: MixedProfile, eps: float | None = None) -> bool:
    """Nash test: every player's supported strategies are exact best responses."""
    return verify_gp_epsilon_nash(game, profile, 0.0, eps)


def _symmetric_profile(alpha: float) -> MixedProfile:
    strategy = MixedStrategy((alpha, 1.0 - alpha))
    return MixedProfile((strategy, strategy))


def _check_symmetric_2x2(game: Game) -> None:
    if game.num_players != 2 or game.num_strategies != (2, 2):
        raise ValueError("grid search requires a 2-player, 2-strategy game")
    if not np.allclose(game.payoffs[..., 0], game.payoffs[..., 1].T):
        raise ValueError("grid search requires a symmetric game")


def find_symmetric_2x2_equilibria(
    game: Game,
    pi: DiscreteToleranceProfile,
    grid: int,
    eps: float | None = None,
) -> list[MixedProfile]:
    """All symmetric profiles (alpha on strategy 0) on the grid that verify."""
    _check_symmetric_2x2(game)
    out = []
    for alpha in np.linspace(0.0, 1.0, grid):
        profile = _symmetric_profile(float(alpha))
        if verify_tolerant_equilibrium(game, profile, pi, eps).is_equilibrium:
            out.append(profile)
    return out


def symmetric_alpha_intervals(
    game: Game,
    pi: DiscreteToleranceProfile,
    grid: int,
    eps: float | None = None,
) -> list[tuple[float, float]]:
    """Passing grid alphas merged into maximal runs, reported by endpoints."""
    alphas = np.linspace(0.0, 1.0, grid)
    found = find_symmetric_2x2_equilibria(game, pi, grid, eps)
    passing = np.isin(alphas, [profile[0].probs[0] for profile in found])
    edges = np.diff(np.concatenate(([0], passing.astype(int), [0])))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return [(float(alphas[i]), float(alphas[j])) for i, j in zip(starts, stops)]


def witness_is_valid(
    game: Game,
    profile: MixedProfile,
    pi: DiscreteToleranceProfile,
    witness: tuple[TypeStrategyMap, ...],
    eps: float | None = None,
    mix_tol: float = 1e-9,
) -> bool:
    """Check an explicit witness: type consistency plus exact mixture reconstruction."""
    e = epsnum(eps)
    for player in range(game.num_players):
        g = witness[player]
        dist = pi[player]
        if not g.matches(dist):
            return False
        regret_vec = regrets(game, profile, player)
        for t, strategy in zip(g.support, g.strategies):
            for s in strategy.support(e):
                if regret_vec[s] > t + e:
                    return False
        mixture = g.mixture(dist)
        if np.max(np.abs(mixture - np.asarray(profile[player].probs))) > mix_tol:
            return False
    return True
