"""Tolerance distributions, stochastic dominance, and equilibrium remapping.

Discrete distributions carry the finite type supports used by the verifier;
the continuous CDF families back the Prisoner's Dilemma fixed-point analysis.
``dominance_remap`` rebuilds a type-to-strategy assignment for a dominating
distribution by transporting quantile mass left to right with
``_quantile_coupling``, which also builds the verifier's witness and holds the
one rule for atoms lighter than eps; no type is handed a strategy that
belonged to a higher type.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, islice

from .games import MixedStrategy
from .numeric import epsnum, np


def _check_support(support: tuple[float, ...]) -> None:
    """Tolerance atoms must be finite, non-negative and strictly increasing."""
    # min skips a NaN after the first entry; isfinite does not
    if not (all(map(math.isfinite, support)) and min(support) >= 0.0):
        raise ValueError(f"tolerances must be finite and non-negative, got {support}")
    if not all(map(operator.lt, support, support[1:])):
        raise ValueError("support must be strictly increasing")


@dataclass(frozen=True)
class DiscreteToleranceDist:
    """Finite-support distribution over non-negative tolerances."""

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(map(float, self.support))
        probs = tuple(map(float, self.probs))
        eps = epsnum()
        if len(support) != len(probs) or not support:
            raise ValueError("support and probs must be non-empty and aligned")
        _check_support(support)
        if not (0.0 < min(probs) and max(probs) <= 1 + eps):
            raise ValueError(f"atom masses must lie in (0, 1], got {probs}")
        total = sum(probs)
        # min and max skip a NaN after the first entry; the sum does not
        if not abs(total - 1.0) <= eps:
            raise ValueError(f"atom masses must sum to 1, got {total}")
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


def dist_dominates(hi: DiscreteToleranceDist, lo: DiscreteToleranceDist) -> bool:
    """Whether hi's CDF lies pointwise at or below lo's (mass shifted right).

    One walk over both supports keeps each CDF as the running sum that
    ``cdf`` would add.  Only hi's atoms are compared: between them hi's CDF
    stays put while lo's can only grow.
    """
    eps = epsnum()
    hi_cdf = lo_cdf = 0.0
    h = 0
    for t, p in zip(hi.support, hi.probs):
        while h < len(lo.support) and lo.support[h] <= t:
            lo_cdf += lo.probs[h]
            h += 1
        hi_cdf += p
        if hi_cdf > lo_cdf + eps:
            return False
    return True


def stochastically_dominates(hi: DiscreteToleranceProfile, lo: DiscreteToleranceProfile) -> bool:
    """Pointwise CDF comparison for every player."""
    if len(hi) != len(lo):
        raise ValueError("profiles must have the same number of players")
    return all(dist_dominates(h, l) for h, l in zip(hi.per_player, lo.per_player))


@dataclass(frozen=True)
class TypeStrategyMap:
    """Assignment of a mixed strategy to each atom of a tolerance distribution."""

    support: tuple[float, ...]
    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self) -> None:
        support = tuple(map(float, self.support))
        strategies = tuple(self.strategies)
        if len(support) != len(strategies) or not support:
            raise ValueError("support and strategies must be non-empty and aligned")
        _check_support(support)
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


def _quantile_coupling(
    row_pos: Sequence[float], row_cum: Sequence[float], col_pos: Sequence[float], col_cum: Sequence[float]
) -> list[list[float]]:
    """North-west-corner coupling of two distributions on sorted positions.

    Entry [j][h] is the overlap of [row_cum[j], row_cum[j+1]] and [B[h],
    B[h+1]].  A row may take only from columns at most eps above it, so B,
    the one rule for atoms lighter than eps, is col_cum with each boundary
    moved right, up to the column total, by the largest shortfall so far of
    the rows that may not pass it: at most eps under dominance within eps.
    A row left without mass, past the column total or too light to widen the
    cumulative sum, takes its mass or the smallest normal float from column 0.

    Both cumulative sequences are non-decreasing, so the overlaps that are
    not zero form a staircase, and one walk down the rows that keeps its
    place among the columns finds them all.
    """
    eps = epsnum()
    cols = len(col_pos)
    reach = [bisect_right(col_pos, t + eps) for t in row_pos]
    # how far each row ends past the columns it may use
    debt = [end - col_cum[r] for end, r in zip(row_cum[1:], reach)]
    bounds = col_cum
    if max(debt) > 0.0:
        # shift[h] is the largest debt of the rows that may not pass
        # boundary h: those that reach at most h columns
        shift = [0.0] * (cols + 1)
        worst = 0.0
        for r, d in zip(reach, debt):
            worst = max(worst, d)
            shift[r:] = [worst] * (cols + 1 - r)
        # the moved boundaries never fall, so those past the total form a suffix
        bounds = list(map(operator.add, col_cum, shift))
        cut = bisect_left(bounds, col_cum[-1])
        bounds[cut:] = [col_cum[-1]] * (cols + 1 - cut)
        bounds[0] = col_cum[0]
    # only a column of positive width can overlap a row
    wide = list(compress(range(cols), map(operator.lt, bounds, islice(bounds, 1, None))))
    rows = []
    first = 0  # the first wide column that ends after the current row starts
    for start, end in zip(row_cum, row_cum[1:]):
        while first < len(wide) and bounds[wide[first] + 1] <= start:
            first += 1
        row = [0.0] * cols
        for h in islice(wide, first, None):
            lo, hi = bounds[h], bounds[h + 1]
            if lo >= end:
                break
            overlap = (end if end < hi else hi) - (start if start > lo else lo)
            if overlap > 0.0:
                row[h] = overlap
        if not any(row):
            row[0] = max(end - start, sys.float_info.min)
        rows.append(row)
    return rows


def _coupled_rows(lo_dist: DiscreteToleranceDist, hi_dist: DiscreteToleranceDist) -> tuple[list[list[float]], list[int]]:
    """The rows of ``transport_plan``'s weights and the last column each row
    takes from, with its two errors."""
    if not dist_dominates(hi_dist, lo_dist):
        raise ValueError("target distribution does not stochastically dominate the source")
    hi_cum = list(accumulate(hi_dist.probs, initial=0.0))
    lo_cum = list(accumulate(lo_dist.probs, initial=0.0))
    rows = _quantile_coupling(hi_dist.support, hi_cum, lo_dist.support, lo_cum)
    eps = epsnum()
    alpha = []
    for row, t in zip(rows, hi_dist.support):
        last = max(h for h, w in enumerate(row) if w > 0.0)
        if lo_dist.support[last] > t + eps:
            raise ValueError("transport would give a type a strategy of a higher type; no exact remap exists")
        alpha.append(last)
    return rows, alpha


def transport_plan(lo_dist: DiscreteToleranceDist, hi_dist: DiscreteToleranceDist) -> TransportPlan:
    """Quantile coupling of a dominating distribution (rows) with a dominated
    one (columns).  It moves the mass exactly whenever dominance is exact; it
    fails only for a dominating atom lighter than eps below every dominated
    type, which no type may hand a strategy.
    """
    rows, alpha = _coupled_rows(lo_dist, hi_dist)
    weights = np.array(rows)
    weights.setflags(write=False)
    return TransportPlan(weights, tuple(alpha), tuple(row[h] for row, h in zip(rows, alpha)))


def dominance_remap(
    lo_dist: DiscreteToleranceDist,
    hi_dist: DiscreteToleranceDist,
    g: TypeStrategyMap,
) -> TypeStrategyMap:
    """Rebuild a type-to-strategy map over a dominating distribution.

    Each atom of ``hi_dist`` plays the mixture of the ``g`` strategies whose
    quantile mass it covers, summed in plain floats over the coupling's
    entries that are not zero and divided by its total.  The output map
    satisfies ``sum_j hi.probs[j] * g'(t_j')`` = ``sum_h lo.probs[h] * g(t_h)`` exactly
    when ``hi_dist`` dominates exactly, and otherwise to within the largest
    excess of hi's CDF over lo's, at most eps; every pure strategy used by
    atom t_j' comes from some g(t_h) with t_h <= t_j' + eps.
    """
    if not g.matches(lo_dist):
        raise ValueError("map domain does not match the source distribution support")
    rows, _ = _coupled_rows(lo_dist, hi_dist)
    sources = [s.probs for s in g.strategies]
    remapped = []
    for row in rows:
        mix = None
        for w, probs in zip(row, sources):
            if w:
                part = [w * p for p in probs]
                mix = part if mix is None else list(map(operator.add, mix, part))
        total = sum(mix)
        remapped.append(MixedStrategy(tuple([min(max(m / total, 0.0), 1.0) for m in mix])))
    return TypeStrategyMap(hi_dist.support, tuple(remapped))


def _mixture(dist: DiscreteToleranceDist, g: TypeStrategyMap) -> list[float]:
    """``g.mixture(dist)`` as plain floats, for a map whose support matches."""
    return [sum(map(operator.mul, dist.probs, column)) for column in zip(*(s.probs for s in g.strategies))]


def remap_preserves_mixture(
    lo_dist: DiscreteToleranceDist,
    hi_dist: DiscreteToleranceDist,
    g: TypeStrategyMap,
    g_prime: TypeStrategyMap,
) -> bool:
    """Game-free structural check of a remapped assignment.

    The mass-weighted mixtures must agree within eps in every pure
    strategy, and every pure strategy a dominating atom plays must be played
    by some dominated atom with a tolerance no larger than it (so
    consistency carries over).  The mixtures are summed in plain floats; maps
    over different numbers of pure strategies do not agree.
    """
    eps = epsnum()
    if not (g.matches(lo_dist) and g_prime.matches(hi_dist)):
        return False
    mixtures = [_mixture(lo_dist, g), _mixture(hi_dist, g_prime)]
    if len(mixtures[0]) != len(mixtures[1]) or any(abs(a - b) > eps for a, b in zip(*mixtures)):
        return False
    for t_hi, strategy in zip(g_prime.support, g_prime.strategies):
        allowed: set[int] = set()
        for t_lo, source in zip(g.support, g.strategies):
            if t_lo <= t_hi + eps:
                allowed.update(source.support())
        if any(index not in allowed for index in strategy.support()):
            return False
    return True


class ContinuousCdf:
    """Base for the continuous tolerance CDF families used by the PD analysis.

    Subclasses are immutable, are continuous everywhere, satisfy F(x) = 0 left
    of their domain and F(inf) = 1, and are closed under rightward shift.
    Each family defines one evaluation, ``_evaluate``, on a Python float; a
    fixed-point solve evaluates F at a few breakpoints, where a numpy call
    costs more than the arithmetic it does.  ``__call__`` is defined here
    only, so that one wrapper around it sees every evaluation: it returns a
    float for a number and maps an array elementwise.
    """

    def _evaluate(self, x: float) -> float:
        raise NotImplementedError

    def __call__(self, x):
        if isinstance(x, (float, int)):
            return self._evaluate(float(x))
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return self._evaluate(float(arr))
        return np.fromiter(map(self._evaluate, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)

    def shifted(self, delta: float) -> "ContinuousCdf":
        raise NotImplementedError


def _clamp01(t: float) -> float:
    """t clamped to [0, 1] as ``np.minimum(np.maximum(t, 0.0), 1.0)`` clamps
    it: a NaN stays NaN and -0.0 becomes 0.0."""
    return 0.0 if t <= 0.0 else min(t, 1.0)


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

    def _evaluate(self, x: float) -> float:
        return _clamp01((x - self.lo) / (self.hi - self.lo))

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

    def _evaluate(self, x: float) -> float:
        """``np.interp(x, xs, ys)``: its knot search and its formula."""
        xs, ys = self.xs, self.ys
        if x != x:
            return x
        j = bisect_right(xs, x) - 1
        if j < 0:
            return ys[0]
        if j == len(xs) - 1 or xs[j] == x:
            return ys[j]
        # finite knots, and x strictly inside the piece: never NaN, so
        # np.interp's retry from the right end is never taken
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (x - xs[j]) + ys[j]

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

    def _evaluate(self, x: float) -> float:
        z = x - self.shift
        z = 0.0 if z <= 0.0 else min(z, self.cap)
        return _clamp01(-math.expm1(-self.rate * z) / -math.expm1(-self.rate * self.cap))

    def shifted(self, delta: float) -> "TruncatedExponentialCdf":
        delta = _check_shift(delta)
        return TruncatedExponentialCdf(self.rate, self.cap, self.shift + delta)
