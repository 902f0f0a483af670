"""Finite normal-form games: expected utilities, regrets, t-best responses.

A game holds one payoff tensor of shape ``(*strategy_counts, num_players)``;
entry ``payoffs[s1, ..., sn, i]`` is player ``i``'s payoff when each player
``k`` plays pure strategy ``sk``.  All types are immutable after construction
and all operations are pure functions, so everything here is safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import epsnum


@dataclass(frozen=True, eq=False)
class Game:
    """Finite n-player game in normal form.

    strategy_labels[i] names player i's pure strategies (length >= 1 each);
    payoffs has shape (*strategy_counts, num_players) with finite entries.
    """

    strategy_labels: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(tuple(str(s) for s in row) for row in self.strategy_labels)
        if not labels:
            raise ValueError("game needs at least one player")
        if any(len(row) == 0 for row in labels):
            raise ValueError("every player needs at least one strategy")
        tensor = np.asarray(self.payoffs, dtype=float)
        expected = tuple(len(row) for row in labels) + (len(labels),)
        if tensor.shape != expected:
            raise ValueError(
                f"payoff tensor shape {tensor.shape} does not match "
                f"strategy counts {expected[:-1]} and {len(labels)} players"
            )
        if not np.all(np.isfinite(tensor)):
            raise ValueError("payoffs must be finite")
        tensor = tensor.copy()
        tensor.setflags(write=False)
        object.__setattr__(self, "strategy_labels", labels)
        object.__setattr__(self, "payoffs", tensor)

    @property
    def num_players(self) -> int:
        return len(self.strategy_labels)

    @property
    def num_strategies(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.strategy_labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self.strategy_labels == other.strategy_labels and np.array_equal(
            self.payoffs, other.payoffs
        )


@dataclass(frozen=True)
class MixedStrategy:
    """Distribution over one player's pure strategies."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        eps = epsnum()
        if not probs:
            raise ValueError("mixed strategy needs at least one entry")
        if not all(-eps <= p <= 1 + eps for p in probs):
            raise ValueError(f"probabilities must lie in [0, 1], got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > eps:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "probs", probs)

    def support(self, eps: float | None = None) -> tuple[int, ...]:
        """Indices carrying positive probability."""
        e = epsnum(eps)
        return tuple(i for i, p in enumerate(self.probs) if p > e)

    @staticmethod
    def pure(index: int, size: int) -> "MixedStrategy":
        probs = [0.0] * size
        probs[index] = 1.0
        return MixedStrategy(tuple(probs))

    @staticmethod
    def uniform(size: int) -> "MixedStrategy":
        return MixedStrategy(tuple(1.0 / size for _ in range(size)))


@dataclass(frozen=True)
class MixedProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]


def _check_profile(game: Game, profile: MixedProfile) -> None:
    if len(profile) != game.num_players:
        raise ValueError(
            f"profile has {len(profile)} strategies for a "
            f"{game.num_players}-player game"
        )
    for i, (strategy, count) in enumerate(zip(profile.strategies, game.num_strategies)):
        if len(strategy.probs) != count:
            raise ValueError(
                f"player {i}: strategy has {len(strategy.probs)} entries, "
                f"game has {count} pure strategies"
            )


def strategy_utilities(game: Game, opponents: MixedProfile, player: int) -> np.ndarray:
    """Expected payoff of each of `player`'s pure strategies.

    `opponents` is a full profile whose component for `player` is ignored;
    all other components are integrated out by linearity.
    """
    _check_profile(game, opponents)
    tensor = game.payoffs[..., player]
    n = game.num_players
    operands: list = [tensor, list(range(n))]
    for j in range(n):
        if j == player:
            continue
        operands.append(np.asarray(opponents[j].probs))
        operands.append([j])
    operands.append([player])
    return np.einsum(*operands)


def expected_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected payoff to `player` under a full mixed profile (linear extension)."""
    utilities = strategy_utilities(game, profile, player)
    return float(np.dot(utilities, np.asarray(profile[player].probs)))


def regrets(game: Game, opponents: MixedProfile, player: int) -> np.ndarray:
    """Best-response payoff minus each pure strategy's payoff; all entries >= 0."""
    utilities = strategy_utilities(game, opponents, player)
    return utilities.max() - utilities


def regret(game: Game, opponents: MixedProfile, player: int, strategy: int) -> float:
    """Regret of one pure strategy against the opponents' mixture."""
    return float(regrets(game, opponents, player)[strategy])


def is_consistent(
    game: Game,
    opponents: MixedProfile,
    player: int,
    strategy: int,
    t: float,
    eps: float | None = None,
) -> bool:
    """Whether `strategy` is a t-best response to the opponents' mixture."""
    if t < 0:
        raise ValueError(f"tolerance must be non-negative, got {t}")
    return regret(game, opponents, player, strategy) <= t + epsnum(eps)
