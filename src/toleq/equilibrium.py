"""Verification of tolerant equilibria with constructive witnesses.

A profile passes for player i when the player's strategy mass can be split
across tolerance types so that each type only plays strategies whose regret
is within its tolerance (type consistency) and the mass-weighted mixture
reconstructs the player's strategy exactly.  Because the set of strategies a
type may play only grows with the tolerance, feasibility reduces to
threshold inequalities: for every atom t, the supported strategy mass with
regret above t must fit inside the type mass with tolerance above t.
Entries at or below eps are not supported, so they demand no type, however
many of them there are.

The verifier decides this in one pass per player over tail masses.  Mass on
a strategy whose regret exceeds every tolerance is reported first;
otherwise the strategies are sorted by regret once, and at every atom the
strategy mass above it is compared with the type mass above it.  When no
inequality fails, every type of the witness plays each entry at or below
eps with that entry's own probability, so the entry demands no type, and
fills the rest from the quantile coupling of type mass and supported mass,
lowest regret first, that ``tolerance.dominance_remap`` also uses.  It
never hands a type a strategy above its tolerance, and moves no strategy's
mass by more than the largest shortfall that the eps slack of the tail
comparisons leaves.  Where entries at or below eps, which take a share of
the types above a threshold, make that shortfall more than eps,
``_repaired_witness`` rebuilds the coupling so that no strategy's mass
moves by eps; it finds such a witness whenever one exists on the instances
the tests draw.  The tail comparisons do not count those entries, so a
verdict can still pass where no witness keeps the mixture within eps.

Both steps run on plain Python floats: a player has 2 to 99 strategies and a
few atoms, where a numpy call costs more than the arithmetic it does.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, product, repeat

from .games import Game, MixedProfile, MixedStrategy, regrets
from .numeric import epsnum, np
from .tolerance import (
    DiscreteToleranceDist,
    DiscreteToleranceProfile,
    TypeStrategyMap,
    _quantile_coupling,
    point_mass,
)


@dataclass(frozen=True)
class Violation:
    """First failed threshold: the supported strategy mass with regret above
    threshold exceeds the type mass with tolerance above it by excess_mass."""

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
    sigma: tuple[float, ...], regret_vec: list[float], dist: DiscreteToleranceDist, player: int
) -> TypeStrategyMap | Violation:
    """Witness for one player, or the first threshold the player fails."""
    eps = epsnum()
    k = len(sigma)
    supported = list(compress(range(k), map(operator.gt, sigma, repeat(eps))))
    top = dist.max_tolerance + eps
    stranded = [s for s in supported if regret_vec[s] > top]
    if stranded:
        worst = stranded[0]
        return Violation(
            player=player,
            threshold=dist.max_tolerance,
            excess_mass=sum(sigma[s] for s in stranded),
            detail=(
                f"strategy {worst} carries probability {sigma[worst]:.6g} "
                f"but its regret {regret_vec[worst]:.6g} exceeds every "
                "tolerance type"
            ),
        )

    order = sorted(range(k), key=regret_vec.__getitem__)
    ranked = sorted(regret_vec)
    mass = [0.0] * k
    for s in supported:
        mass[s] = sigma[s]
    supported_cum = list(accumulate(map(mass.__getitem__, order), initial=0.0))
    type_cum = list(accumulate(dist.probs, initial=0.0))
    type_total, supported_total = type_cum[-1], supported_cum[-1]
    # The supported mass with regret above support[j] + eps must fit inside
    # the type mass above support[j], plus eps.  With both tails written as
    # total less cumulative mass, that is one comparison of cumulative masses
    # whose slack includes the mass no entry above eps carries.
    slack = type_total - supported_total
    for j, t in enumerate(dist.support):
        kept = supported_cum[bisect_right(ranked, t + eps)]
        if type_cum[j + 1] > kept + slack + eps:
            demand, room = supported_total - kept, type_total - type_cum[j + 1]
            return Violation(
                player=player,
                threshold=t,
                excess_mass=demand - room,
                detail=(
                    f"strategies with regret above {t:.6g} carry mass {demand:.6g} but only "
                    f"{room:.6g} of the type mass has a higher tolerance"
                ),
            )

    # Column 0 of the coupling, order[0], is a best response, so every type
    # may take from at least one column.
    unsupported = [p if 0.0 < p <= eps else 0.0 for p in sigma]
    rest = 1.0 - sum(unsupported)
    scale = rest / type_total
    row_cum = [c * scale for c in type_cum]
    if rest < 1.0:
        # the tail comparisons leave the coupling a shortfall of at most
        # eps, plus the share of the entries at or below eps that the types
        # above a threshold play; past eps it would move a strategy's mass
        # by more than eps
        reach = [bisect_right(ranked, t + eps) for t in dist.support]
        if max(map(operator.sub, row_cum[1:], map(supported_cum.__getitem__, reach))) > eps:
            return _repaired_witness(sigma, order, ranked, dist, reach)
    coupling = _quantile_coupling(dist.support, row_cum, ranked, supported_cum)
    strategies = []
    for row in coupling:
        share = rest / sum(row)
        alloc = unsupported.copy()
        for s, w in compress(zip(order, row), row):
            alloc[s] += w * share
        strategies.append(MixedStrategy(tuple(alloc)))
    return TypeStrategyMap(dist.support, tuple(strategies))


def _repaired_witness(
    sigma: tuple[float, ...], order: list[int], ranked: list[float], dist: DiscreteToleranceDist, reach: list[int]
) -> TypeStrategyMap:
    """A witness that moves no strategy's mass by eps, where the one from the
    plain coupling would.

    Entries at or below eps take a share of every type's mass there, and the
    tail comparisons do not count them.  Here every entry above 0 is a
    column of the coupling with its own mass, in regret order, and every
    type a row with its own.  Rows are fed bottom up; a row j whose mass
    runs past the columns it may use, the first ``reach[j]``, is helped by
    two moves, in this order:

    - a type at or below j plays a column beyond j's reach with probability
      at most eps, which leaves the type's support as it is; the highest
      column first, so that the most rows above gain too;
    - a column j may use grows and one beyond its reach shrinks by the same
      mass, each by less than eps in all: the lowest, which every row may
      use, and the highest, which the fewest rows may use, first.

    The totals are matched first in the same way.  What neither move covers
    stays a shortfall for the coupling to shift.
    """
    eps = epsnum()
    budget = eps * (1.0 - 1e-6)  # less than eps, by more than a sum rounds off
    probs = dist.probs
    rows = list(probs)
    cols = [max(sigma[s], 0.0) for s in order]
    moved = [0.0] * len(cols)
    side: list[dict[int, float]] = [{} for _ in rows]  # per type: column -> probability

    def move(mass: float, up: int | None = None, down: int | None = None) -> float:
        """Grow cols[up] and shrink cols[down] by up to ``mass``, within
        their budgets; returns the mass moved."""
        if up is not None:
            mass = min(mass, budget - moved[up])
        if down is not None:
            mass = min(mass, budget + moved[down], cols[down])
        if mass <= 0.0:
            return 0.0
        if up is not None:
            cols[up] += mass
            moved[up] += mass
        if down is not None:
            cols[down] -= mass
            moved[down] -= mass
        return mass

    last = len(cols)
    gap = sum(rows) - sum(cols)
    for h in range(last):
        gap -= move(gap, up=h) if gap > 0.0 else -move(-gap, down=last - 1 - h)
    for j, r in enumerate(reach):
        need = sum(rows[: j + 1]) - sum(cols[:r])
        for i, h in product(range(j, -1, -1), reversed(range(r, last))):
            if need <= 0.0:
                break
            q = min(eps - side[i].get(h, 0.0), min(need, cols[h]) / probs[i])
            if q > 0.0:
                side[i][h] = side[i].get(h, 0.0) + q
                rows[i] -= q * probs[i]
                cols[h] -= q * probs[i]
                need -= q * probs[i]
        for up, down in product(range(r), reversed(range(r, last))):
            if need <= 0.0:
                break
            need -= move(need, up, down)

    coupling = _quantile_coupling(
        dist.support, list(accumulate(rows, initial=0.0)), ranked, list(accumulate(cols, initial=0.0))
    )
    strategies = []
    for row, played in zip(coupling, side):
        alloc = [0.0] * len(sigma)
        for h, q in played.items():
            alloc[order[h]] = q
        share = (1.0 - sum(played.values())) / sum(row)
        for s, w in compress(zip(order, row), row):
            alloc[s] += w * share
        strategies.append(MixedStrategy(tuple(alloc)))
    return TypeStrategyMap(dist.support, tuple(strategies))


def verify_tolerant_equilibrium(
    game: Game, profile: MixedProfile, pi: DiscreteToleranceProfile
) -> EquilibriumVerdict:
    """Check decomposition feasibility for every player, building a witness if it holds."""
    _check_pi(game, pi)
    witnesses = []
    for player in range(game.num_players):
        regret_vec = regrets(game, profile, player).tolist()
        outcome = _player_check(profile[player].probs, regret_vec, pi[player], player)
        if isinstance(outcome, Violation):
            return EquilibriumVerdict(False, None, outcome)
        witnesses.append(outcome)
    return EquilibriumVerdict(True, tuple(witnesses), None)


def verify_gp_epsilon_nash(game: Game, profile: MixedProfile, epsilon: float) -> bool:
    """Support-restricted epsilon-Nash test: every supported strategy must be
    an epsilon-best response, i.e. a tolerant equilibrium under a point mass
    at epsilon."""
    pi = DiscreteToleranceProfile.iid(point_mass(epsilon), game.num_players)
    return verify_tolerant_equilibrium(game, profile, pi).is_equilibrium


def verify_nash(game: Game, profile: MixedProfile) -> bool:
    """Nash test: every player's supported strategies are exact best responses."""
    return verify_gp_epsilon_nash(game, profile, 0.0)


def _check_symmetric_2x2(game: Game) -> None:
    if game.num_players != 2 or game.num_strategies != (2, 2):
        raise ValueError("grid search requires a 2-player, 2-strategy game")
    if np.max(np.abs(game.payoffs[..., 0] - game.payoffs[..., 1].T)) > epsnum():
        raise ValueError("grid search requires a symmetric game")


def symmetric_alpha_intervals(
    game: Game, pi: DiscreteToleranceProfile, grid: int
) -> list[tuple[float, float]]:
    """Symmetric profiles (alpha on strategy 0) at ``grid`` evenly spaced
    alphas that verify, merged into maximal runs and reported by endpoints."""
    _check_symmetric_2x2(game)
    alphas = np.linspace(0.0, 1.0, grid)
    passing = []
    for alpha in alphas.tolist():
        strategy = MixedStrategy((alpha, 1.0 - alpha))
        profile = MixedProfile((strategy, strategy))
        passing.append(int(verify_tolerant_equilibrium(game, profile, pi).is_equilibrium))
    edges = np.diff([0, *passing, 0])
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return [(float(alphas[i]), float(alphas[j])) for i, j in zip(starts, stops)]


def witness_is_valid(
    game: Game, profile: MixedProfile, pi: DiscreteToleranceProfile, witness: tuple[TypeStrategyMap, ...]
) -> bool:
    """Check an explicit witness: type consistency plus mixture reconstruction,
    both at the comparison tolerance."""
    eps = epsnum()
    for player in range(game.num_players):
        g = witness[player]
        dist = pi[player]
        if not g.matches(dist):
            return False
        regret_vec = regrets(game, profile, player)
        for t, strategy in zip(g.support, g.strategies):
            for s in strategy.support():
                if regret_vec[s] > t + eps:
                    return False
        mixture = g.mixture(dist)
        if np.max(np.abs(mixture - np.asarray(profile[player].probs))) > eps:
            return False
    return True
