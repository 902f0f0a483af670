"""JSON schemas for games, profiles, distributions, maps, and verdicts.

All on-disk formats round-trip exactly: parse(write(x)) == x.  The payoff
tensor is nested player-major, i.e. payoffs[s1][s2]...[sn] is the per-player
payoff vector at that pure profile.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .equilibrium import EquilibriumVerdict, Violation
from .games import Game, MixedProfile, MixedStrategy
from .tolerance import (
    ContinuousCdf,
    DiscreteToleranceDist,
    DiscreteToleranceProfile,
    PiecewiseLinearCdf,
    TruncatedExponentialCdf,
    TypeStrategyMap,
    UniformCdf,
)


class SchemaError(ValueError):
    """Input file does not match the documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(path, f"missing field '{key}'")
    return obj[key]


def _float_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of numbers")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise SchemaError(path, "expected a list of numbers") from None


def game_to_obj(game: Game) -> dict:
    return {
        "players": game.num_players,
        "strategies": [list(row) for row in game.strategy_labels],
        "payoffs": game.payoffs.tolist(),
    }


def game_from_obj(obj: Any, path: str = "game") -> Game:
    players = _require(obj, "players", path)
    strategies = _require(obj, "strategies", path)
    payoffs = _require(obj, "payoffs", path)
    if not isinstance(strategies, list) or len(strategies) != players:
        raise SchemaError(path, f"'strategies' must list labels for {players} players")
    try:
        return Game(
            tuple(tuple(str(s) for s in row) for row in strategies),
            np.asarray(payoffs, dtype=float),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def profile_to_obj(profile: MixedProfile) -> dict:
    return {"strategies": [list(s.probs) for s in profile.strategies]}


def profile_from_obj(obj: Any, path: str = "profile") -> MixedProfile:
    strategies = _require(obj, "strategies", path)
    if not isinstance(strategies, list) or not strategies:
        raise SchemaError(path, "'strategies' must be a non-empty list")
    out = []
    for i, row in enumerate(strategies):
        try:
            out.append(MixedStrategy(tuple(_float_list(row, f"{path}.strategies[{i}]"))))
        except ValueError as exc:
            raise SchemaError(f"{path}.strategies[{i}]", str(exc)) from None
    return MixedProfile(tuple(out))


def discrete_dist_to_obj(dist: DiscreteToleranceDist) -> dict:
    return {"type": "discrete", "support": list(dist.support), "probs": list(dist.probs)}


def cdf_to_obj(cdf: ContinuousCdf) -> dict:
    if isinstance(cdf, UniformCdf):
        return {"type": "uniform", "lo": cdf.lo, "hi": cdf.hi}
    if isinstance(cdf, PiecewiseLinearCdf):
        return {"type": "piecewise_linear", "knots": [[x, y] for x, y in zip(cdf.xs, cdf.ys)]}
    if isinstance(cdf, TruncatedExponentialCdf):
        return {
            "type": "truncated_exponential",
            "rate": cdf.rate,
            "cap": cdf.cap,
            "shift": cdf.shift,
        }
    raise TypeError(f"unknown CDF family {type(cdf).__name__}")


def distribution_from_obj(obj: Any, path: str = "distribution"):
    """Parse either a discrete distribution or a continuous CDF family."""
    kind = _require(obj, "type", path)
    try:
        if kind == "discrete":
            return DiscreteToleranceDist(
                tuple(_float_list(_require(obj, "support", path), f"{path}.support")),
                tuple(_float_list(_require(obj, "probs", path), f"{path}.probs")),
            )
        if kind == "uniform":
            return UniformCdf(float(_require(obj, "lo", path)), float(_require(obj, "hi", path)))
        if kind == "piecewise_linear":
            knots = _require(obj, "knots", path)
            if not isinstance(knots, list) or any(len(k) != 2 for k in knots):
                raise SchemaError(f"{path}.knots", "expected a list of [x, F(x)] pairs")
            return PiecewiseLinearCdf(
                tuple(float(k[0]) for k in knots), tuple(float(k[1]) for k in knots)
            )
        if kind == "truncated_exponential":
            return TruncatedExponentialCdf(
                float(_require(obj, "rate", path)),
                float(_require(obj, "cap", path)),
                float(obj.get("shift", 0.0)),
            )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from None
    raise SchemaError(path, f"unknown distribution type {kind!r}")


def tolerance_profile_to_obj(pi: DiscreteToleranceProfile) -> dict:
    return {"players": [discrete_dist_to_obj(d) for d in pi.per_player]}


def tolerance_profile_from_obj(obj: Any, path: str = "pi") -> DiscreteToleranceProfile:
    players = _require(obj, "players", path)
    if not isinstance(players, list) or not players:
        raise SchemaError(path, "'players' must be a non-empty list of distributions")
    dists = []
    for i, entry in enumerate(players):
        dist = distribution_from_obj(entry, f"{path}.players[{i}]")
        if not isinstance(dist, DiscreteToleranceDist):
            raise SchemaError(f"{path}.players[{i}]", "tolerance profiles must be discrete")
        dists.append(dist)
    return DiscreteToleranceProfile(tuple(dists))


def type_strategy_map_to_obj(g: TypeStrategyMap) -> dict:
    return {"support": list(g.support), "strategies": [list(s.probs) for s in g.strategies]}


def type_strategy_map_from_obj(obj: Any, path: str = "map") -> TypeStrategyMap:
    support = _float_list(_require(obj, "support", path), f"{path}.support")
    strategies = _require(obj, "strategies", path)
    if not isinstance(strategies, list) or len(strategies) != len(support):
        raise SchemaError(path, "'strategies' must align with 'support'")
    try:
        return TypeStrategyMap(
            tuple(support),
            tuple(
                MixedStrategy(tuple(_float_list(row, f"{path}.strategies[{i}]")))
                for i, row in enumerate(strategies)
            ),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def verdict_to_obj(verdict: EquilibriumVerdict) -> dict:
    obj: dict = {"equilibrium": verdict.is_equilibrium}
    if verdict.witness is not None:
        obj["witness"] = {
            str(player): {repr(t): list(s.probs) for t, s in zip(g.support, g.strategies)}
            for player, g in enumerate(verdict.witness)
        }
    if verdict.violation is not None:
        v = verdict.violation
        obj["violation"] = {
            "player": v.player,
            "threshold": v.threshold,
            "excess_mass": v.excess_mass,
            "detail": v.detail,
        }
    return obj


def verdict_from_obj(obj: Any, path: str = "verdict") -> EquilibriumVerdict:
    is_eq = bool(_require(obj, "equilibrium", path))
    witness = None
    violation = None
    if "witness" in obj:
        players = sorted(obj["witness"], key=int)
        maps = []
        for key in players:
            entries = obj["witness"][key]
            support = sorted(float(t) for t in entries)
            maps.append(
                TypeStrategyMap(
                    tuple(support),
                    tuple(
                        MixedStrategy(tuple(float(p) for p in entries[repr(t)]))
                        for t in support
                    ),
                )
            )
        witness = tuple(maps)
    if "violation" in obj:
        v = obj["violation"]
        violation = Violation(
            int(_require(v, "player", f"{path}.violation")),
            float(_require(v, "threshold", f"{path}.violation")),
            float(_require(v, "excess_mass", f"{path}.violation")),
            str(_require(v, "detail", f"{path}.violation")),
        )
    return EquilibriumVerdict(is_eq, witness, violation)


def dilemma_spec_to_obj(spec) -> dict:
    from .dilemmas import BertrandCompetition, PrisonersDilemma, PublicGoods, TravelersDilemma

    if isinstance(spec, PrisonersDilemma):
        return {"kind": "pd", "b": spec.benefit, "c": spec.cost}
    if isinstance(spec, TravelersDilemma):
        return {"kind": "td", "L": spec.low, "H": spec.high, "b": spec.bonus}
    if isinstance(spec, PublicGoods):
        return {"kind": "pg", "N": spec.num_players, "rho": spec.marginal_return}
    if isinstance(spec, BertrandCompetition):
        return {"kind": "bertrand", "n": spec.num_firms, "L": spec.price_floor, "H": spec.price_cap}
    raise TypeError(f"unknown dilemma spec {spec!r}")


def dilemma_spec_from_obj(obj: Any, path: str = "spec"):
    from .dilemmas import BertrandCompetition, PrisonersDilemma, PublicGoods, TravelersDilemma

    kind = _require(obj, "kind", path)
    try:
        if kind == "pd":
            return PrisonersDilemma(float(_require(obj, "b", path)), float(_require(obj, "c", path)))
        if kind == "td":
            return TravelersDilemma(
                int(_require(obj, "L", path)), int(_require(obj, "H", path)), int(_require(obj, "b", path))
            )
        if kind == "pg":
            return PublicGoods(int(_require(obj, "N", path)), float(_require(obj, "rho", path)))
        if kind == "bertrand":
            return BertrandCompetition(
                int(_require(obj, "n", path)), int(_require(obj, "L", path)), int(_require(obj, "H", path))
            )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from None
    raise SchemaError(path, f"unknown dilemma kind {kind!r}")


def load_json(path: str) -> Any:
    """Parse a JSON file, rejecting NaN, Infinity and -Infinity (which
    Python's json module accepts) and numbers too large for a float."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise SchemaError(path, f"non-finite number {text} is not allowed")
        return value

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")
