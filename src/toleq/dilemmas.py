"""Four social dilemmas: explicit games, cooperation thresholds, and rates.

Each dilemma has a unique Nash profile (everyone defects) and a unique
welfare-maximizing profile (everyone cooperates).  ``cooperation_threshold``
gives the minimal tolerance that makes cooperating consistent, in closed
form.  ``build_game`` materializes the full payoff tensor, which defines the
game and is what equality, serialization and cross-checks read.  Built
Bertrand and Public Goods games evaluate expected utilities in closed form
instead of contracting that tensor: a Public Goods payoff is linear in every
contribution, and a Bertrand sale is split by an integral of a polynomial in
one variable.  Cooperation rates over relative types are available both
exactly (uniform relative tolerance, uniform or pinned belief) and by seeded
Monte Carlo.  The Monte Carlo rate reads its n tolerances, beliefs and
dispositions in fixed-size blocks from the seed's PCG64 stream at offsets
0, n and 2n (0 and n for a pinned belief, which draws no beliefs): the rate
is identical to drawing the whole arrays, and memory does not grow with n.
Every polynomial is held by its power-basis coefficients.  The threshold
branches are plain-float lists, evaluated by one Horner loop in
``numpy.polynomial.polynomial.polyval``'s operation order, on a float or in
place on an array, so the thresholds match polyval's bit for bit.  A built
Bertrand game expands its tie-split integrand into coefficients one rival at
a time and integrates it on [0, 1] as sum_m c_m / (m + 1).  An exact rate
under a uniform belief integrates a piecewise polynomial: each of the five
polynomials whose roots end the pieces has at most one root in (0, 1), found
by one bracketed search when its ends differ in sign, and each piece is
integrated through the antiderivative of its branch, all in time linear in
the degree.

The four spec classes are defined in ``specs``, which the CLI's parser reads
without loading this module; they are the same objects here.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .games import Game, MixedProfile, MixedStrategy
from .numeric import _bracketed_root, epsnum, np
from .specs import BertrandCompetition, DilemmaSpec, PrisonersDilemma, PublicGoods, TravelersDilemma


@dataclass(frozen=True, eq=False)
class _PublicGoodsGame(Game):
    """A built Public Goods game with closed-form utilities; its payoff
    tensor is still built and stays the game's definition."""

    amounts: np.ndarray
    marginal_return: float

    def _utilities(self, opponents: MixedProfile, player: int) -> np.ndarray:
        # u_i(x) = 1 - x + rho * (x + sum over rivals of their expected contribution)
        rivals = (s for j, s in enumerate(opponents.strategies) if j != player)
        pool = sum(float(np.dot(s.probs, self.amounts)) for s in rivals)
        return 1.0 - self.amounts + self.marginal_return * (self.amounts + pool)


@dataclass(frozen=True, eq=False)
class _BertrandGame(Game):
    """A built Bertrand game with closed-form utilities; its payoff tensor is
    still built and stays the game's definition."""

    prices: np.ndarray

    def _utilities(self, opponents: MixedProfile, player: int) -> np.ndarray:
        # u_i(p) = p * int_0^1 prod_j (P(s_j > p) + P(s_j = p) * z) dz over rivals j:
        # a tie among m firms pays 1/m = int_0^1 z^(m-1) dz.  The product is
        # expanded one rival at a time into power-basis coefficients in z, one
        # row per power and one column per price, and sum_m c_m / (m + 1)
        # integrates it exactly.
        others = np.array([s.probs for j, s in enumerate(opponents.strategies) if j != player])
        above = np.zeros_like(others)
        above[:, :-1] = np.cumsum(others[:, :0:-1], axis=1)[:, ::-1]
        coefs = np.zeros((len(others) + 1, len(self.prices)))
        coefs[0] = 1.0
        for at_p, above_p in zip(others, above):
            coefs[1:] = coefs[1:] * above_p + coefs[:-1] * at_p
            coefs[0] *= above_p
        return self.prices * ((1.0 / np.arange(1, len(coefs) + 1)) @ coefs)


def _bertrand_payoffs(prices: np.ndarray, n: int) -> np.ndarray:
    """Payoff tensor of n firms on a price grid: the lowest price takes the
    sale, split evenly among the firms that tie at it.

    Each firm's price is a broadcast view along its own axis, so no index
    grid is built: the full-size temporaries are the lowest price, the tie
    count, the share and one mask at a time.
    """
    k = len(prices)
    chosen = [prices.reshape((1,) * i + (k,) + (1,) * (n - 1 - i)) for i in range(n)]
    lowest = chosen[0]
    for price in chosen[1:]:
        lowest = np.minimum(lowest, price)
    ties = np.zeros(lowest.shape, dtype=np.int64)
    for price in chosen:
        ties += price == lowest
    share = lowest / ties
    payoffs = np.empty(lowest.shape + (n,))
    for i, price in enumerate(chosen):
        np.multiply(share, price == lowest, out=payoffs[..., i])
    return payoffs


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
    Public Goods and Bertrand games come back as a ``Game`` subclass that
    evaluates expected utilities in closed form.
    """
    if isinstance(spec, PrisonersDilemma):
        b, c = spec.benefit, spec.cost
        payoffs = np.array(
            [
                [[b - c, b - c], [-c, b]],
                [[b, -c], [0.0, 0.0]],
            ]
        )
        payoffs.setflags(write=False)
        game = Game((("C", "D"), ("C", "D")), payoffs)
        return BuiltDilemma(game, cooperate=0, defect=1)

    if isinstance(spec, TravelersDilemma):
        claims = np.arange(spec.low, spec.high + 1, dtype=float)
        mine, theirs = np.meshgrid(claims, claims, indexing="ij")
        row = np.where(mine == theirs, mine, np.where(mine < theirs, mine + spec.bonus, theirs - spec.bonus))
        payoffs = np.stack([row, row.T], axis=-1)
        labels = tuple(str(int(m)) for m in claims)
        payoffs.setflags(write=False)
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
        amounts.setflags(write=False)
        payoffs.setflags(write=False)
        game = _PublicGoodsGame(tuple(labels for _ in range(n)), payoffs, amounts, spec.marginal_return)
        return BuiltDilemma(game, cooperate=levels - 1, defect=0)

    if isinstance(spec, BertrandCompetition):
        n = spec.num_firms
        prices = np.arange(spec.price_floor, spec.price_cap + 1, dtype=float)
        payoffs = _bertrand_payoffs(prices, n)
        labels = tuple(str(int(p)) for p in prices)
        prices.setflags(write=False)
        payoffs.setflags(write=False)
        game = _BertrandGame(tuple(labels for _ in range(n)), payoffs, prices)
        return BuiltDilemma(game, cooperate=len(prices) - 1, defect=0)

    raise TypeError(f"unknown dilemma spec {spec!r}")


def beta_mixture_profile(built: BuiltDilemma, beta: float) -> MixedProfile:
    """Every player independently cooperates with probability beta, else defects."""
    size = built.game.num_strategies[0]
    probs = [0.0] * size
    probs[built.cooperate] += beta
    probs[built.defect] += 1.0 - beta
    strategy = MixedStrategy(tuple(probs))
    return MixedProfile(tuple(strategy for _ in range(built.game.num_players)))


def _beliefs(beta) -> float | np.ndarray:
    """A belief as a float, or beliefs as an array; each must be a
    probability (NaN is not).  A Python int or float, np.float64 among them,
    is checked without numpy."""
    if isinstance(beta, (int, float)):
        beta = float(beta)
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        return beta
    arr = np.asarray(beta, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("beta must lie in [0, 1]")
    return float(arr) if arr.ndim == 0 else arr


def _horner(coefs: list[float], x, out: np.ndarray | None = None):
    """The polynomial with power-basis coefficients ``coefs`` at x, in
    ``polyval``'s operation order: start from the top coefficient, then
    multiply by x and add the next one.  x is a float, or an array evaluated
    into ``out``, which must not be x.
    """
    if out is None:
        total = coefs[-1]
        for c in reversed(coefs[:-1]):
            total = total * x + c
        return total
    out.fill(coefs[-1])
    for c in reversed(coefs[:-1]):
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def bertrand_f(n: int, beta):
    """Expected share factor when pricing at the floor against n-1 rivals who
    each price high with probability beta:
    sum_k beta^k (1-beta)^(n-1-k) C(n-1, k) / (n-k).

    The binomial sum telescopes to (1 + beta + ... + beta^(n-1)) / n, which is
    what is evaluated.  Accepts a scalar or an array of beta values.
    """
    if n < 2:
        raise ValueError("need at least two firms")
    betas = _beliefs(beta)
    coefs = [1.0 / n] * n
    return _horner(coefs, betas) if isinstance(betas, float) else _horner(coefs, betas, np.empty(betas.shape))


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


def cooperation_threshold(spec: DilemmaSpec, beta=None):
    """Minimal absolute tolerance making cooperation consistent.

    For the Prisoner's Dilemma and Public Goods the threshold does not depend
    on beliefs and ``beta`` only sets the shape of the result.  For Traveler's
    Dilemma, ``beta=None`` gives the worst-case threshold 2b-1; with a belief
    it is max(beta*(b-1), b - beta*(high-low)).  Bertrand requires a belief.
    ``beta`` may be a scalar, giving a float, or an array of beliefs in
    [0, 1], giving an array of the same shape.
    """
    if isinstance(spec, (PrisonersDilemma, PublicGoods)):
        value = spec.cost if isinstance(spec, PrisonersDilemma) else 1.0 - spec.marginal_return
        betas = 0.0 if beta is None else _beliefs(beta)
        return value if isinstance(betas, float) else np.full(betas.shape, float(value))
    if not isinstance(spec, (TravelersDilemma, BertrandCompetition)):
        raise TypeError(f"unknown dilemma spec {spec!r}")
    if beta is None:
        if isinstance(spec, BertrandCompetition):
            raise ValueError("the Bertrand threshold depends on the belief beta")
        return 2.0 * spec.bonus - 1.0
    betas = _beliefs(beta)
    branches = _threshold_branches(spec)
    if isinstance(betas, float):
        return max(_horner(branch, betas) for branch in branches)
    return _thresholds(branches, betas, np.empty(betas.shape), np.empty(betas.shape))


def _thresholds(branches, betas: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The threshold at an array of beliefs, written into ``out``; ``scratch``
    holds the second branch."""
    undercut, floor_value = branches
    return np.maximum(_horner(undercut, betas, out), _horner(floor_value, betas, scratch), out=out)


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


def will_cooperate(spec: DilemmaSpec, rel_type: RelativeType) -> bool:
    """Whether a relative type cooperates: C-disposed and tolerant enough."""
    if rel_type.disposition != "C":
        return False
    threshold = cooperation_threshold(spec, rel_type.beta)
    return relative_to_absolute(spec, rel_type.t_rel) >= threshold - epsnum()


@dataclass(frozen=True)
class RelativeTypeDistribution:
    """Distribution over relative types.

    The default is the product of uniforms on [0,1]^2 for (t_rel, beta) with
    disposition C with probability q; ``beta_point`` pins the belief instead.
    """

    q: float = 1.0
    beta_point: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.beta_point is not None and not 0.0 <= self.beta_point <= 1.0:
            raise ValueError("pinned belief must lie in [0, 1]")


def _threshold_branches(spec: TravelersDilemma | BertrandCompetition) -> tuple[list[float], list[float]]:
    """Power-basis coefficients of the two polynomials in beta whose maximum
    is the cooperation threshold.

    Traveler's Dilemma: undercutting by one, beta*(b-1), against claiming the
    floor, b - beta*(H-L).  Bertrand: undercutting, beta^(n-1)*(H-1), against
    pricing at the floor, bertrand_f(n, beta)*L, both less beta^(n-1)*H/n.
    The power-basis coefficients of bertrand_f are all 1/n.
    """
    if isinstance(spec, TravelersDilemma):
        return [0.0, spec.bonus - 1.0], [float(spec.bonus), -float(spec.high - spec.low)]
    n, low, high = spec.num_firms, spec.price_floor, spec.price_cap
    share = high / n
    return [0.0] * (n - 1) + [high - 1.0 - share], [low / n] * (n - 1) + [low / n - share]


def _unit_roots(coefs: list[float]) -> list[float]:
    """The root in (0, 1) of a polynomial with at most one there, as a list
    of zero or one.

    Zero coefficients at either end are dropped: high-order ones lower the
    degree, and low-order ones are roots at 0.  A root in (0, 1) is then
    searched once, on the whole interval, when the ends differ in sign.  The
    five polynomials of ``exact_cooperation_rate`` meet the precondition.
    A - B, A, B, A - S and the Traveler's Dilemma's B - S change coefficient
    sign at most once, so by Descartes' rule each has at most one positive
    root.  Bertrand's B - S changes sign at most twice and is (L - H) / n < 0
    at 0.  Since beta^k + beta^(n-1-k) <= 1 + beta^(n-1) for every k, B - S
    positive anywhere in (0, 1] is positive at 1, so it cannot have two roots
    in (0, 1), positive between them and negative after.
    """
    nonzero = [k for k, c in enumerate(coefs) if c != 0.0]
    if len(nonzero) < 2:
        return []
    coefs = coefs[nonzero[0] : nonzero[-1] + 1]
    f_0, f_1 = coefs[0], _horner(coefs, 1.0)
    if not ((f_0 < 0.0 < f_1) or (f_1 < 0.0 < f_0)):
        return []
    root = _bracketed_root(functools.partial(_horner, coefs), 0.0, 1.0, f_0, f_1)
    # a root within a float of 0 or 1 can round onto it
    return [root] if 0.0 < root < 1.0 else []


def exact_cooperation_rate(spec: DilemmaSpec, dist: RelativeTypeDistribution) -> float:
    """Probability of cooperation under the default relative-type family.

    With t_rel uniform on [0, 1], the conditional rate at belief beta is
    clip(1 - threshold(beta) / all_cooperate_payoff, 0, 1).  A pinned belief
    evaluates it once.  A uniform belief integrates it over [0, 1]: the
    threshold is the maximum of two polynomials in beta (linear for the
    Traveler's Dilemma, of degree n-1 for Bertrand), so the integrand is 0,
    1 or 1 - P / S between the roots in (0, 1) of A - B, A, B, A - S and
    B - S, where A and B are the two branches, P the larger and S the
    all-cooperate payoff.  The branch values at a piece's midpoint pick its
    regime, and 1 - P / S is integrated exactly through the antiderivative
    of P, evaluated by Horner at the piece's ends.
    """
    scale = all_cooperate_payoff(spec)
    if dist.beta_point is not None or isinstance(spec, (PrisonersDilemma, PublicGoods)):
        threshold = cooperation_threshold(spec, dist.beta_point)
        return dist.q * min(max(1.0 - threshold / scale, 0.0), 1.0)

    a, b = _threshold_branches(spec)
    kinks = set()
    for coefs in (list(map(operator.sub, a, b)), a, b, [a[0] - scale, *a[1:]], [b[0] - scale, *b[1:]]):
        kinks.update(_unit_roots(coefs))
    edges = [0.0, *sorted(kinks), 1.0]
    primitive_a, primitive_b = ([0.0, *(c / k for k, c in enumerate(p, 1))] for p in (a, b))
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        at_a, at_b = _horner(a, mid), _horner(b, mid)
        threshold = max(at_a, at_b)
        if threshold <= 0.0:
            total += hi - lo
        elif threshold < scale:
            primitive = primitive_a if at_a >= at_b else primitive_b
            total += hi - lo - (_horner(primitive, hi) - _horner(primitive, lo)) / scale
    return dist.q * total


_BLOCK = 8192  # samples per block: 64 KB float arrays, below glibc's 128 KB mmap threshold


@dataclass(frozen=True)
class CooperationRate:
    mc_rate: float
    mc_stderr: float
    exact_rate: float


def cooperation_rate(
    spec: DilemmaSpec,
    dist: RelativeTypeDistribution,
    samples: int,
    seed: int,
) -> CooperationRate:
    """Monte Carlo cooperation rate (deterministic per seed), with the exact
    rate attached.

    The draws are those of ``np.random.default_rng(seed)`` filling, in turn,
    ``samples`` relative tolerances, ``samples`` beliefs (unless the belief
    is pinned) and ``samples`` dispositions.  Each float64 takes one output
    of the seed's PCG64, so each of the three arrays is read in blocks of
    ``_BLOCK`` from its own PCG64 advanced to the array's offset: 0, n and
    2n, or 0 and n for a pinned belief.  The rate is identical to drawing
    the whole arrays, and memory does not grow with ``samples``.  A pinned
    belief, the Prisoner's Dilemma and Public Goods have one threshold, and
    no belief is drawn for them; with q = 1 every disposition is C, and none
    is drawn.  A block's thresholds are evaluated in place, bit for bit as
    ``cooperation_threshold`` gives them.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    pinned = dist.beta_point is not None
    per_sample = not pinned and isinstance(spec, (TravelersDilemma, BertrandCompetition))
    scale, eps = all_cooperate_payoff(spec), epsnum()
    limit = None if per_sample else cooperation_threshold(spec, dist.beta_point) - eps
    branches = _threshold_branches(spec) if per_sample else None

    def stream(offset: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(seed).advance(offset))

    tolerances = stream(0)
    beliefs = stream(samples) if per_sample else None
    dispositions = stream(samples if pinned else 2 * samples) if dist.q < 1.0 else None
    t_buf, b_buf, d_buf, l_buf = (np.empty(_BLOCK) for _ in range(4))
    ok_buf, c_buf = np.empty(_BLOCK, dtype=bool), np.empty(_BLOCK, dtype=bool)
    count = 0
    for start in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - start)
        t_rel = tolerances.random(out=t_buf[:size])
        if beliefs is not None:
            # the disposition buffer is free until the thresholds are done
            limit = _thresholds(branches, beliefs.random(out=b_buf[:size]), l_buf[:size], d_buf[:size])
            np.subtract(limit, eps, out=limit)
        ok = np.greater_equal(np.multiply(t_rel, scale, out=t_rel), limit, out=ok_buf[:size])
        if dispositions is not None:
            ok &= np.less(dispositions.random(out=d_buf[:size]), dist.q, out=c_buf[:size])
        count += int(np.count_nonzero(ok))
    rate = count / samples
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    return CooperationRate(rate, stderr, exact_cooperation_rate(spec, dist))
