"""Four social dilemmas: explicit games, cooperation thresholds, and rates.

Each dilemma has a unique Nash profile (everyone defects) and a unique
welfare-maximizing profile (everyone cooperates).  ``cooperation_threshold``
gives the minimal tolerance that makes cooperating consistent, in closed
form; ``build_game`` materializes the full payoff tensor so the closed forms
can be cross-checked against raw regrets.  Cooperation rates over relative
types are available both exactly (uniform relative tolerance, uniform or
pinned belief) and by seeded Monte Carlo.  An exact rate under a uniform
belief integrates a piecewise polynomial: the pieces end at real roots of
explicit polynomials, and Gauss-Legendre with enough nodes for each piece's
degree integrates every piece without error beyond rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as poly

from .games import Game, MixedProfile, MixedStrategy
from .numeric import epsnum


@dataclass(frozen=True)
class PrisonersDilemma:
    """Pay a cost to hand the other player a larger benefit."""

    benefit: float
    cost: float

    def __post_init__(self) -> None:
        if not self.benefit > self.cost > 0:
            raise ValueError(f"need benefit > cost > 0, got b={self.benefit}, c={self.cost}")


@dataclass(frozen=True)
class TravelersDilemma:
    """Claim an integer amount; the lower claim wins a bonus, the higher pays it."""

    low: int
    high: int
    bonus: int

    def __post_init__(self) -> None:
        if not (
            isinstance(self.low, int) and isinstance(self.high, int) and isinstance(self.bonus, int)
        ):
            raise ValueError("claims and bonus must be integers")
        if not (self.high > self.low >= 1 and self.bonus >= 1):
            raise ValueError(f"need high > low >= 1 and bonus >= 1, got {self}")


@dataclass(frozen=True)
class PublicGoods:
    """Contribute to a pool multiplied by rho * N and split evenly."""

    num_players: int
    marginal_return: float

    def __post_init__(self) -> None:
        if self.num_players < 2:
            raise ValueError("need at least two contributors")
        if not (1.0 / self.num_players < self.marginal_return < 1.0):
            raise ValueError(
                f"marginal return must lie in (1/{self.num_players}, 1), "
                f"got {self.marginal_return}"
            )


@dataclass(frozen=True)
class BertrandCompetition:
    """Price an identical product; the lowest price takes (or splits) the sale."""

    num_firms: int
    price_floor: int
    price_cap: int

    def __post_init__(self) -> None:
        if not (
            isinstance(self.num_firms, int)
            and isinstance(self.price_floor, int)
            and isinstance(self.price_cap, int)
        ):
            raise ValueError("firm count and prices must be integers")
        if not (self.num_firms >= 2 and self.price_cap > self.price_floor >= 2):
            raise ValueError(
                "need >= 2 firms and cap > floor >= 2 "
                f"(floor >= 2 keeps the defect profile the unique Nash), got {self}"
            )


DilemmaSpec = Union[PrisonersDilemma, TravelersDilemma, PublicGoods, BertrandCompetition]


@dataclass(frozen=True)
class BuiltDilemma:
    """Explicit game plus the strategy indices for cooperating and defecting."""

    game: Game
    cooperate: int
    defect: int


def build_game(spec: DilemmaSpec, levels: int = 2) -> BuiltDilemma:
    """Materialize the full normal-form game for a dilemma.

    ``levels`` only applies to Public Goods and sets the number of evenly
    spaced contribution levels between nothing and the full endowment.
    """
    if isinstance(spec, PrisonersDilemma):
        b, c = spec.benefit, spec.cost
        payoffs = np.array(
            [
                [[b - c, b - c], [-c, b]],
                [[b, -c], [0.0, 0.0]],
            ]
        )
        game = Game((("C", "D"), ("C", "D")), payoffs)
        return BuiltDilemma(game, cooperate=0, defect=1)

    if isinstance(spec, TravelersDilemma):
        claims = np.arange(spec.low, spec.high + 1, dtype=float)
        mine, theirs = np.meshgrid(claims, claims, indexing="ij")
        row = np.where(mine == theirs, mine, np.where(mine < theirs, mine + spec.bonus, theirs - spec.bonus))
        payoffs = np.stack([row, row.T], axis=-1)
        labels = tuple(str(int(m)) for m in claims)
        game = Game((labels, labels), payoffs)
        return BuiltDilemma(game, cooperate=len(claims) - 1, defect=0)

    if isinstance(spec, PublicGoods):
        if levels < 2:
            raise ValueError("need at least the zero and full contribution levels")
        n = spec.num_players
        amounts = np.linspace(0.0, 1.0, levels)
        idx = np.indices((levels,) * n)
        contrib = amounts[idx]
        total = contrib.sum(axis=0)
        payoffs = np.stack([1.0 - contrib[i] + spec.marginal_return * total for i in range(n)], axis=-1)
        labels = tuple(f"{a:g}" for a in amounts)
        game = Game(tuple(labels for _ in range(n)), payoffs)
        return BuiltDilemma(game, cooperate=levels - 1, defect=0)

    if isinstance(spec, BertrandCompetition):
        n = spec.num_firms
        prices = np.arange(spec.price_floor, spec.price_cap + 1, dtype=float)
        k = len(prices)
        idx = np.indices((k,) * n)
        chosen = prices[idx]
        lowest = chosen.min(axis=0)
        ties = (chosen == lowest).sum(axis=0)
        payoffs = np.stack(
            [np.where(chosen[i] == lowest, lowest / ties, 0.0) for i in range(n)], axis=-1
        )
        labels = tuple(str(int(p)) for p in prices)
        game = Game(tuple(labels for _ in range(n)), payoffs)
        return BuiltDilemma(game, cooperate=k - 1, defect=0)

    raise TypeError(f"unknown dilemma spec {spec!r}")


def beta_mixture_profile(built: BuiltDilemma, beta: float) -> MixedProfile:
    """Every player independently cooperates with probability beta, else defects."""
    size = built.game.num_strategies[0]
    probs = [0.0] * size
    probs[built.cooperate] += beta
    probs[built.defect] += 1.0 - beta
    strategy = MixedStrategy(tuple(probs))
    return MixedProfile(tuple(strategy for _ in range(built.game.num_players)))


def bertrand_f(n: int, beta):
    """Expected share factor when pricing at the floor against n-1 rivals who
    each price high with probability beta:
    sum_k beta^k (1-beta)^(n-1-k) C(n-1, k) / (n-k).

    Accepts a scalar or an array of beta values.
    """
    if n < 2:
        raise ValueError("need at least two firms")
    arr = np.asarray(beta, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("beta must lie in [0, 1]")
    total = np.zeros_like(arr)
    for k in range(n):
        coeff = math.comb(n - 1, k) / (n - k)
        total = total + coeff * arr**k * (1.0 - arr) ** (n - 1 - k)
    return float(total) if arr.ndim == 0 else total


def all_cooperate_payoff(spec: DilemmaSpec) -> float:
    """Per-player payoff when everyone cooperates; the relative-tolerance scale."""
    if isinstance(spec, PrisonersDilemma):
        return spec.benefit - spec.cost
    if isinstance(spec, TravelersDilemma):
        return float(spec.high)
    if isinstance(spec, PublicGoods):
        return spec.num_players * spec.marginal_return
    if isinstance(spec, BertrandCompetition):
        return spec.price_cap / spec.num_firms
    raise TypeError(f"unknown dilemma spec {spec!r}")


def cooperation_threshold(spec: DilemmaSpec, beta: float | None = None) -> float:
    """Minimal absolute tolerance making cooperation consistent.

    For the Prisoner's Dilemma and Public Goods the threshold does not depend
    on beliefs and ``beta`` is ignored.  For Traveler's Dilemma, ``beta=None``
    gives the worst-case threshold 2b-1; with a belief it is
    max(beta*(b-1), b - beta*(high-low)).  Bertrand requires a belief.
    """
    if isinstance(spec, PrisonersDilemma):
        return spec.cost
    if isinstance(spec, PublicGoods):
        return 1.0 - spec.marginal_return
    if isinstance(spec, TravelersDilemma):
        if beta is None:
            return 2.0 * spec.bonus - 1.0
        return max(beta * (spec.bonus - 1.0), spec.bonus - beta * (spec.high - spec.low))
    if isinstance(spec, BertrandCompetition):
        if beta is None:
            raise ValueError("the Bertrand threshold depends on the belief beta")
        n, low, high = spec.num_firms, spec.price_floor, spec.price_cap
        undercut = beta ** (n - 1) * (high - 1.0)
        floor_value = bertrand_f(n, beta) * low
        return max(undercut, floor_value) - beta ** (n - 1) * high / n
    raise TypeError(f"unknown dilemma spec {spec!r}")


def _threshold_curve(spec: DilemmaSpec, betas: np.ndarray) -> np.ndarray:
    """Vectorized cooperation_threshold over an array of beliefs."""
    if isinstance(spec, PrisonersDilemma):
        return np.full_like(betas, spec.cost)
    if isinstance(spec, PublicGoods):
        return np.full_like(betas, 1.0 - spec.marginal_return)
    if isinstance(spec, TravelersDilemma):
        return np.maximum(
            betas * (spec.bonus - 1.0), spec.bonus - betas * (spec.high - spec.low)
        )
    if isinstance(spec, BertrandCompetition):
        n, low, high = spec.num_firms, spec.price_floor, spec.price_cap
        lead = betas ** (n - 1)
        return np.maximum(lead * (high - 1.0), bertrand_f(n, betas) * low) - lead * high / n
    raise TypeError(f"unknown dilemma spec {spec!r}")


def relative_to_absolute(spec: DilemmaSpec, t_rel: float) -> float:
    """Scale a relative tolerance in [0, 1] by the all-cooperate payoff."""
    if not 0.0 <= t_rel <= 1.0:
        raise ValueError(f"relative tolerance must lie in [0, 1], got {t_rel}")
    return t_rel * all_cooperate_payoff(spec)


@dataclass(frozen=True)
class RelativeType:
    """Relative tolerance, believed cooperation probability, and disposition."""

    t_rel: float
    beta: float
    disposition: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_rel <= 1.0:
            raise ValueError("relative tolerance must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("belief must lie in [0, 1]")
        if self.disposition not in ("C", "D"):
            raise ValueError("disposition must be 'C' or 'D'")


def will_cooperate(spec: DilemmaSpec, rel_type: RelativeType, eps: float | None = None) -> bool:
    """Whether a relative type cooperates: C-disposed and tolerant enough."""
    if rel_type.disposition != "C":
        return False
    threshold = cooperation_threshold(spec, rel_type.beta)
    return relative_to_absolute(spec, rel_type.t_rel) >= threshold - epsnum(eps)


Sampler = Callable[["np.random.Generator", int], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class RelativeTypeDistribution:
    """Distribution over relative types.

    The default is the product of uniforms on [0,1]^2 for (t_rel, beta) with
    disposition C with probability q; ``beta_point`` pins the belief instead.
    A custom ``sampler`` (returning t_rel, beta, is_C arrays) switches rate
    estimation to Monte Carlo only.
    """

    q: float = 1.0
    beta_point: float | None = None
    sampler: Sampler | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.beta_point is not None and not 0.0 <= self.beta_point <= 1.0:
            raise ValueError("pinned belief must lie in [0, 1]")

    def sample(self, rng: np.random.Generator, n: int):
        if self.sampler is not None:
            return self.sampler(rng, n)
        t_rel = rng.random(n)
        beta = np.full(n, self.beta_point) if self.beta_point is not None else rng.random(n)
        is_c = rng.random(n) < self.q
        return t_rel, beta, is_c


def _threshold_branches(spec: TravelersDilemma | BertrandCompetition) -> tuple[np.ndarray, np.ndarray]:
    """Power-basis coefficients of the two polynomials in beta whose maximum
    is the cooperation threshold.

    Traveler's Dilemma: undercutting by one, beta*(b-1), against claiming the
    floor, b - beta*(H-L).  Bertrand: undercutting, beta^(n-1)*(H-1), against
    pricing at the floor, bertrand_f(n, beta)*L, both less beta^(n-1)*H/n.
    The binomial sum of bertrand_f telescopes to (1 + beta + ... + beta^(n-1))/n,
    so its power-basis coefficients are all 1/n.
    """
    if isinstance(spec, TravelersDilemma):
        undercut = np.array([0.0, spec.bonus - 1.0])
        floor_value = np.array([float(spec.bonus), -float(spec.high - spec.low)])
        return undercut, floor_value
    n, low, high = spec.num_firms, spec.price_floor, spec.price_cap
    lead = np.zeros(n)
    lead[-1] = 1.0
    undercut = lead * (high - 1.0 - high / n)
    floor_value = np.full(n, low / n) - lead * (high / n)
    return undercut, floor_value


def _kinks(polys: list[np.ndarray]) -> np.ndarray:
    """Real roots in (0, 1) of the polynomials, sorted and without repeats.

    Zero coefficients are trimmed from both ends first: high-order ones lower
    the degree, low-order ones are roots at 0, and Bertrand's undercut branch
    is a single monomial.  A double root can come back as a complex pair
    about sqrt(eps) apart, so roots with an imaginary part up to 1e-7 count
    as real; a breakpoint that is not a kink only splits a polynomial piece.
    """
    trimmed = [np.trim_zeros(c) for c in polys]
    roots = np.concatenate([poly.polyroots(c) for c in trimmed if len(c) > 1])
    real = roots.real[np.abs(roots.imag) <= 1e-7]
    return np.unique(real[(real > 0.0) & (real < 1.0)])


def exact_cooperation_rate(spec: DilemmaSpec, dist: RelativeTypeDistribution) -> float:
    """Probability of cooperation under the default relative-type family.

    With t_rel uniform on [0, 1], the conditional rate at belief beta is
    clip(1 - threshold(beta) / all_cooperate_payoff, 0, 1).  A pinned belief
    evaluates it once.  A uniform belief integrates it over [0, 1]: the
    threshold is the maximum of two polynomials in beta (linear for the
    Traveler's Dilemma, of degree n-1 for Bertrand), so the integrand is a
    polynomial between the real roots of A - B, A, B, A - S and B - S, where
    A and B are the two branches and S the all-cooperate payoff.  Each piece
    is integrated by Gauss-Legendre with deg//2 + 1 nodes, which is exact for
    that degree.
    """
    if dist.sampler is not None:
        raise ValueError("exact rates are only available for the built-in family")
    scale = all_cooperate_payoff(spec)

    def conditional(betas: np.ndarray) -> np.ndarray:
        return np.clip(1.0 - _threshold_curve(spec, betas) / scale, 0.0, 1.0)

    if dist.beta_point is not None:
        return dist.q * float(conditional(np.asarray(dist.beta_point)))
    if isinstance(spec, (PrisonersDilemma, PublicGoods)):
        return dist.q * float(conditional(np.asarray(0.0)))

    a, b = _threshold_branches(spec)
    kinks = _kinks([poly.polysub(a, b), a, b, poly.polysub(a, [scale]), poly.polysub(b, [scale])])
    edges = np.concatenate(([0.0], kinks, [1.0]))
    nodes, weights = legendre.leggauss((len(a) - 1) // 2 + 1)
    half = np.diff(edges)[:, None] / 2.0
    betas = np.clip(edges[:-1, None] + half * (nodes + 1.0), 0.0, 1.0)
    return dist.q * float(np.sum(half * weights * conditional(betas)))


@dataclass(frozen=True)
class CooperationRate:
    mc_rate: float
    mc_stderr: float
    exact_rate: float | None


def cooperation_rate(
    spec: DilemmaSpec,
    dist: RelativeTypeDistribution,
    samples: int,
    seed: int,
    eps: float | None = None,
) -> CooperationRate:
    """Monte Carlo cooperation rate (deterministic per seed), with the exact
    rate attached whenever the distribution supports it."""
    if samples < 1:
        raise ValueError("need at least one sample")
    e = epsnum(eps)
    rng = np.random.default_rng(seed)
    t_rel, beta, is_c = dist.sample(rng, samples)
    thresholds = _threshold_curve(spec, np.asarray(beta, dtype=float))
    scale = all_cooperate_payoff(spec)
    cooperates = np.asarray(is_c, dtype=bool) & (t_rel * scale >= thresholds - e)
    rate = float(cooperates.mean())
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    exact = None if dist.sampler is not None else exact_cooperation_rate(spec, dist)
    return CooperationRate(rate, stderr, exact)
