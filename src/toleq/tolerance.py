"""Tolerance distributions, stochastic dominance, and equilibrium remapping.

Discrete distributions carry the finite type supports used by the verifier;
the continuous CDF families back the Prisoner's Dilemma fixed-point analysis.
``dominance_remap`` rebuilds a type-to-strategy assignment for a dominating
distribution by transporting quantile mass left to right, which preserves the
aggregate mixture exactly and never assigns a type a strategy that belonged
to a higher type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import MixedStrategy
from .numeric import epsnum


@dataclass(frozen=True)
class DiscreteToleranceDist:
    """Finite-support distribution over non-negative tolerances."""

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(float(t) for t in self.support)
        probs = tuple(float(p) for p in self.probs)
        eps = epsnum()
        if len(support) != len(probs) or not support:
            raise ValueError("support and probs must be non-empty and aligned")
        if not all(0.0 <= t < math.inf for t in support):
            raise ValueError(f"tolerances must be finite and non-negative, got {support}")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if not all(0.0 < p <= 1 + eps for p in probs):
            raise ValueError(f"atom masses must lie in (0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > eps:
            raise ValueError(f"atom masses must sum to 1, got {sum(probs)}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def cdf(self, t: float) -> float:
        """Total mass on atoms <= t."""
        return float(sum(p for atom, p in zip(self.support, self.probs) if atom <= t))

    @property
    def max_tolerance(self) -> float:
        return self.support[-1]


def point_mass(t: float) -> DiscreteToleranceDist:
    """Distribution with all mass on a single tolerance."""
    return DiscreteToleranceDist((float(t),), (1.0,))


@dataclass(frozen=True)
class DiscreteToleranceProfile:
    """One tolerance distribution per player."""

    per_player: tuple[DiscreteToleranceDist, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_player", tuple(self.per_player))
        if not self.per_player:
            raise ValueError("profile needs at least one player")

    def __len__(self) -> int:
        return len(self.per_player)

    def __getitem__(self, player: int) -> DiscreteToleranceDist:
        return self.per_player[player]

    @staticmethod
    def iid(dist: DiscreteToleranceDist, num_players: int) -> "DiscreteToleranceProfile":
        return DiscreteToleranceProfile(tuple(dist for _ in range(num_players)))


def dist_dominates(
    hi: DiscreteToleranceDist, lo: DiscreteToleranceDist, eps: float | None = None
) -> bool:
    """Whether hi's CDF lies pointwise at or below lo's (mass shifted right)."""
    e = epsnum(eps)
    points = sorted(set(hi.support) | set(lo.support))
    return all(hi.cdf(t) <= lo.cdf(t) + e for t in points)


def stochastically_dominates(
    hi: DiscreteToleranceProfile, lo: DiscreteToleranceProfile, eps: float | None = None
) -> bool:
    """Pointwise CDF comparison for every player."""
    if len(hi) != len(lo):
        raise ValueError("profiles must have the same number of players")
    return all(dist_dominates(h, l, eps) for h, l in zip(hi.per_player, lo.per_player))


@dataclass(frozen=True)
class TypeStrategyMap:
    """Assignment of a mixed strategy to each atom of a tolerance distribution."""

    support: tuple[float, ...]
    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self) -> None:
        support = tuple(float(t) for t in self.support)
        strategies = tuple(self.strategies)
        if len(support) != len(strategies) or not support:
            raise ValueError("support and strategies must be non-empty and aligned")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        sizes = {len(s.probs) for s in strategies}
        if len(sizes) != 1:
            raise ValueError("all strategies must cover the same pure-strategy set")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "strategies", strategies)

    def matches(self, dist: DiscreteToleranceDist) -> bool:
        return self.support == dist.support

    def mixture(self, dist: DiscreteToleranceDist) -> np.ndarray:
        """Mass-weighted average strategy: sum over atoms of prob * strategy."""
        if not self.matches(dist):
            raise ValueError("map domain does not match the distribution support")
        stacked = np.array([s.probs for s in self.strategies])
        return np.asarray(dist.probs) @ stacked


@dataclass(frozen=True)
class TransportPlan:
    """How a dominating distribution's atoms draw mass from the dominated one.

    weights[j, h] is the mass that atom j of the dominating distribution takes
    from atom h of the dominated one.  alpha[j] is the last contributing atom
    index (0-based) and beta[j] the mass drawn from it, so
    beta[j] in [0, hi.probs[j]] and lo.support[alpha[j]] <= hi.support[j].
    """

    weights: np.ndarray
    alpha: tuple[int, ...]
    beta: tuple[float, ...]


def _quantile_overlap(row_cum: np.ndarray, col_cum: np.ndarray) -> np.ndarray:
    """North-west-corner coupling of two distributions given by cumulative masses.

    ``row_cum`` and ``col_cum`` start at 0 and end at the total mass; entry
    [j, h] is the length of the overlap of the quantile intervals
    [row_cum[j], row_cum[j + 1]] and [col_cum[h], col_cum[h + 1]].
    """
    lo = np.maximum.outer(row_cum[:-1], col_cum[:-1])
    hi = np.minimum.outer(row_cum[1:], col_cum[1:])
    return np.maximum(hi - lo, 0.0)


def transport_plan(
    lo_dist: DiscreteToleranceDist,
    hi_dist: DiscreteToleranceDist,
    eps: float | None = None,
) -> TransportPlan:
    """Quantile-interval overlap between a dominated and a dominating distribution."""
    e = epsnum(eps)
    if not dist_dominates(hi_dist, lo_dist, eps):
        raise ValueError("target distribution does not stochastically dominate the source")
    weights = _quantile_overlap(np.cumsum((0.0, *hi_dist.probs)), np.cumsum((0.0, *lo_dist.probs)))
    contributing = weights > e
    weights *= contributing
    fed = contributing.any(axis=1)
    if not fed.all():
        raise ValueError(
            f"atom {int(np.argmin(fed))} of the dominating distribution received no mass; "
            "inputs are inconsistent"
        )
    alpha = weights.shape[1] - 1 - np.argmax(contributing[:, ::-1], axis=1)
    if np.any(np.asarray(lo_dist.support)[alpha] > np.asarray(hi_dist.support) + e):
        raise ValueError(
            "transport would give a type a strategy of a higher type; "
            "dominance is violated"
        )
    beta = weights[np.arange(len(alpha)), alpha]
    weights.setflags(write=False)
    return TransportPlan(weights, tuple(alpha.tolist()), tuple(beta.tolist()))


def dominance_remap(
    lo_dist: DiscreteToleranceDist,
    hi_dist: DiscreteToleranceDist,
    g: TypeStrategyMap,
    eps: float | None = None,
) -> TypeStrategyMap:
    """Rebuild a type-to-strategy map over a dominating distribution.

    Each atom of ``hi_dist`` plays the mixture of the ``g`` strategies whose
    quantile mass it covers.  The output map satisfies
    ``sum_j hi.probs[j] * g'(t_j')`` = ``sum_h lo.probs[h] * g(t_h)`` exactly,
    and every pure strategy used by atom t_j' comes from some g(t_h) with
    t_h <= t_j'.
    """
    if not g.matches(lo_dist):
        raise ValueError("map domain does not match the source distribution support")
    mix = transport_plan(lo_dist, hi_dist, eps).weights @ np.array([s.probs for s in g.strategies])
    mix = np.clip(mix / mix.sum(axis=1, keepdims=True), 0.0, 1.0)
    return TypeStrategyMap(hi_dist.support, tuple(MixedStrategy(tuple(row)) for row in mix.tolist()))


def remap_preserves_mixture(
    lo_dist: DiscreteToleranceDist,
    hi_dist: DiscreteToleranceDist,
    g: TypeStrategyMap,
    g_prime: TypeStrategyMap,
    eps: float | None = None,
    mix_tol: float = 1e-9,
) -> bool:
    """Game-free structural check of a remapped assignment.

    The mass-weighted mixtures must agree, and every pure strategy a
    dominating atom plays must be played by some dominated atom with a
    tolerance no larger than it (so consistency carries over).
    """
    e = epsnum(eps)
    if not (g.matches(lo_dist) and g_prime.matches(hi_dist)):
        return False
    if np.max(np.abs(g.mixture(lo_dist) - g_prime.mixture(hi_dist))) > mix_tol:
        return False
    for t_hi, strategy in zip(g_prime.support, g_prime.strategies):
        allowed: set[int] = set()
        for t_lo, source in zip(g.support, g.strategies):
            if t_lo <= t_hi + e:
                allowed.update(source.support(e))
        if any(index not in allowed for index in strategy.support(e)):
            return False
    return True


class ContinuousCdf:
    """Base for the continuous tolerance CDF families used by the PD analysis.

    Subclasses are immutable, evaluate on scalars or arrays, are continuous
    everywhere, satisfy F(x) = 0 left of their domain and F(inf) = 1, and are
    closed under rightward shift.
    """

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._evaluate(arr)
        return float(out) if arr.ndim == 0 else out

    def shifted(self, delta: float) -> "ContinuousCdf":
        raise NotImplementedError


def _check_finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"CDF parameters must be finite, got {values}")


def _check_shift(delta: float) -> float:
    delta = float(delta)
    if delta < 0:
        raise ValueError("only rightward (non-negative) shifts preserve dominance")
    return delta


@dataclass(frozen=True)
class UniformCdf(ContinuousCdf):
    """Uniform distribution on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _check_finite(self.lo, self.hi)
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def shifted(self, delta: float) -> "UniformCdf":
        delta = _check_shift(delta)
        return UniformCdf(self.lo + delta, self.hi + delta)


@dataclass(frozen=True)
class PiecewiseLinearCdf(ContinuousCdf):
    """CDF interpolated linearly between knots (x strictly increasing, F 0 to 1)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two aligned knots")
        _check_finite(*xs, *ys)
        if xs[0] < 0:
            raise ValueError("tolerance domain starts at 0 or above")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot values must be non-decreasing")
        if abs(ys[0]) > epsnum() or abs(ys[-1] - 1.0) > epsnum():
            raise ValueError("knot values must run from 0 to 1 for a continuous CDF")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.ys)

    def shifted(self, delta: float) -> "PiecewiseLinearCdf":
        delta = _check_shift(delta)
        return PiecewiseLinearCdf(tuple(x + delta for x in self.xs), self.ys)


@dataclass(frozen=True)
class TruncatedExponentialCdf(ContinuousCdf):
    """Exponential(rate) truncated to [shift, shift + cap]."""

    rate: float
    cap: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self.rate, self.cap, self.shift)
        if self.rate <= 0 or self.cap <= 0 or self.shift < 0:
            raise ValueError("need rate > 0, cap > 0, shift >= 0")

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        z = np.clip(x - self.shift, 0.0, self.cap)
        ratio = -np.expm1(-self.rate * z) / -math.expm1(-self.rate * self.cap)
        return np.clip(ratio, 0.0, 1.0)

    def shifted(self, delta: float) -> "TruncatedExponentialCdf":
        delta = _check_shift(delta)
        return TruncatedExponentialCdf(self.rate, self.cap, self.shift + delta)
