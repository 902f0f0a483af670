"""JSON schemas for games, profiles, distributions, maps, and verdicts.

All on-disk formats round-trip exactly: parse(write(x)) == x.  The payoff
tensor is nested player-major, i.e. payoffs[s1][s2]...[sn] is the per-player
payoff vector at that pure profile.  Parsing is strict: a number must be a
JSON number (not a string or a boolean), a count must be an integer, a label
must be a string, and every failure raises ``SchemaError`` naming the path
of the offending value.  A verdict is built by ``equilibrium``, which is
imported only when one is read, so reading the other documents does not load
the verifier.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import TYPE_CHECKING, Any, NamedTuple

from .games import Game, MixedProfile, MixedStrategy, _check_shape, _strategy_labels
from .numeric import np
from .specs import _DILEMMAS, SchemaError
from .tolerance import (
    ContinuousCdf,
    DiscreteToleranceDist,
    DiscreteToleranceProfile,
    PiecewiseLinearCdf,
    TruncatedExponentialCdf,
    TypeStrategyMap,
    UniformCdf,
)

if TYPE_CHECKING:
    from .equilibrium import EquilibriumVerdict


def _require(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(path, f"missing field '{key}'")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if type(value) not in (int, float):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if type(value) is not int:
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _float_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _check_numbers(value: Any, path: str) -> None:
    """Nested lists whose innermost lists hold only numbers."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        for i, item in enumerate(value):
            _check_numbers(item, f"{path}[{i}]")
    elif not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise SchemaError(path, "expected nested lists of numbers")


def game_to_obj(game: Game) -> dict:
    return {
        "players": game.num_players,
        "strategies": [list(row) for row in game.strategy_labels],
        "payoffs": game.payoffs.tolist(),
    }


class _GameHeader(NamedTuple):
    """A game document's strategy labels, which the profile and tolerance
    profile are checked against before the payoff tensor is built."""

    strategy_labels: tuple[tuple[str, ...], ...]

    @property
    def num_players(self) -> int:
        return len(self.strategy_labels)

    @property
    def num_strategies(self) -> tuple[int, ...]:
        return tuple(map(len, self.strategy_labels))


def _shape(value: list) -> tuple[int, ...] | None:
    """The shape of nested lists that ``_check_numbers`` passed, as numpy
    gives it, or None where their lengths or depths differ."""
    if not value or not isinstance(value[0], list):
        return (len(value),)
    shapes = set(map(_shape, value))
    return (len(value), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None


def _game(labels: tuple[tuple[str, ...], ...], payoffs: list, path: str) -> Game:
    try:
        return Game(labels, np.asarray(payoffs, dtype=float))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _game_header(obj: Any, path: str = "game") -> _GameHeader:
    """The strategy labels of a game document, checked with the numbers and
    the shape of its payoffs in plain Python.  Ragged payoffs build the
    tensor instead, which rejects them with numpy's own message."""
    players = _integer(_require(obj, "players", path), f"{path}.players")
    strategies = _require(obj, "strategies", path)
    payoffs = _require(obj, "payoffs", path)
    if not isinstance(strategies, list) or len(strategies) != players:
        raise SchemaError(path, f"'strategies' must list labels for {players} players")
    for i, row in enumerate(strategies):
        if not isinstance(row, list) or not all(isinstance(s, str) for s in row):
            raise SchemaError(f"{path}.strategies[{i}]", "expected a list of string labels")
    _check_numbers(payoffs, f"{path}.payoffs")
    shape = _shape(payoffs)
    try:
        labels = _strategy_labels(strategies)
        if shape is not None:
            _check_shape(labels, shape)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None
    if shape is None:
        _game(labels, payoffs, path)
    return _GameHeader(labels)


def game_from_obj(obj: Any, path: str = "game") -> Game:
    return _game(_game_header(obj, path).strategy_labels, obj["payoffs"], path)


def profile_to_obj(profile: MixedProfile) -> dict:
    return {"strategies": [list(s.probs) for s in profile.strategies]}


def profile_from_obj(obj: Any, path: str = "profile", game: Game | _GameHeader | None = None) -> MixedProfile:
    """Parse a mixed profile; with ``game``, its strategy counts must match."""
    strategies = _require(obj, "strategies", path)
    if not isinstance(strategies, list) or not strategies:
        raise SchemaError(path, "'strategies' must be a non-empty list")
    out = []
    for i, row in enumerate(strategies):
        try:
            out.append(MixedStrategy(tuple(_float_list(row, f"{path}.strategies[{i}]"))))
        except ValueError as exc:
            raise SchemaError(f"{path}.strategies[{i}]", str(exc)) from None
    counts = tuple(len(s.probs) for s in out)
    if game is not None and counts != game.num_strategies:
        raise SchemaError(path, f"strategy counts {counts} do not match the game's {game.num_strategies}")
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
            return UniformCdf(
                _number(_require(obj, "lo", path), f"{path}.lo"),
                _number(_require(obj, "hi", path), f"{path}.hi"),
            )
        if kind == "piecewise_linear":
            knots = _require(obj, "knots", path)
            if not isinstance(knots, list) or not all(isinstance(k, list) and len(k) == 2 for k in knots):
                raise SchemaError(f"{path}.knots", "expected a list of [x, F(x)] pairs")
            pairs = [_float_list(k, f"{path}.knots[{i}]") for i, k in enumerate(knots)]
            return PiecewiseLinearCdf(tuple(x for x, _ in pairs), tuple(y for _, y in pairs))
        if kind == "truncated_exponential":
            return TruncatedExponentialCdf(
                _number(_require(obj, "rate", path), f"{path}.rate"),
                _number(_require(obj, "cap", path), f"{path}.cap"),
                _number(obj.get("shift", 0.0), f"{path}.shift"),
            )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from None
    raise SchemaError(path, f"unknown distribution type {kind!r}")


def tolerance_profile_to_obj(pi: DiscreteToleranceProfile) -> dict:
    return {"players": [discrete_dist_to_obj(d) for d in pi.per_player]}


def tolerance_profile_from_obj(
    obj: Any, path: str = "pi", game: Game | _GameHeader | None = None
) -> DiscreteToleranceProfile:
    """Parse a tolerance profile; with ``game``, it must have one entry per player."""
    players = _require(obj, "players", path)
    if not isinstance(players, list) or not players:
        raise SchemaError(path, "'players' must be a non-empty list of distributions")
    if game is not None and len(players) != game.num_players:
        raise SchemaError(path, f"{len(players)} players do not match the game's {game.num_players}")
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
    from .equilibrium import EquilibriumVerdict, Violation

    is_eq = _require(obj, "equilibrium", path)
    if not isinstance(is_eq, bool):
        raise SchemaError(f"{path}.equilibrium", "expected true or false")
    witness = None
    violation = None
    if "witness" in obj:
        players = obj["witness"]
        if not players or not isinstance(players, dict) or set(players) != {str(i) for i in range(len(players))}:
            raise SchemaError(f"{path}.witness", "expected an object keyed by player 0, 1, ...")
        witness = tuple(_witness_map(players[str(i)], f"{path}.witness.{i}") for i in range(len(players)))
    if "violation" in obj:
        v = obj["violation"]
        where = f"{path}.violation"
        detail = _require(v, "detail", where)
        if not isinstance(detail, str):
            raise SchemaError(f"{where}.detail", "expected a string")
        violation = Violation(
            _integer(_require(v, "player", where), f"{where}.player"),
            _number(_require(v, "threshold", where), f"{where}.threshold"),
            _number(_require(v, "excess_mass", where), f"{where}.excess_mass"),
            detail,
        )
    try:
        return EquilibriumVerdict(is_eq, witness, violation)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _witness_map(entries: Any, path: str) -> TypeStrategyMap:
    """One player's witness: tolerance (as its repr) -> mixed strategy."""
    if not isinstance(entries, dict):
        raise SchemaError(path, "expected an object mapping tolerances to strategies")
    try:
        keys = sorted(entries, key=float)
        return TypeStrategyMap(
            tuple(float(t) for t in keys),
            tuple(MixedStrategy(tuple(_float_list(entries[t], f"{path}.{t}"))) for t in keys),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def dilemma_spec_to_obj(spec) -> dict:
    kinds = {cls: kind for kind, cls in _DILEMMAS.items()}
    if type(spec) not in kinds:
        raise TypeError(f"unknown dilemma spec {spec!r}")
    return {"kind": kinds[type(spec)], **{f.metadata["key"]: getattr(spec, f.name) for f in fields(spec)}}


def dilemma_spec_from_obj(obj: Any, path: str = "spec"):
    kind = _require(obj, "kind", path)
    if not isinstance(kind, str) or kind not in _DILEMMAS:
        raise SchemaError(path, f"unknown dilemma kind {kind!r}")
    cls = _DILEMMAS[kind]
    values = {}
    for f in fields(cls):
        key = f.metadata["key"]
        parse = _integer if f.type == "int" else _number
        values[f.name] = parse(_require(obj, key, path), f"{path}.{key}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from None


def load_json(path: str) -> Any:
    """Parse a JSON file, rejecting NaN, Infinity and -Infinity (which
    Python's json module accepts) and numbers too large for a float."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise SchemaError(path, f"non-finite number {text} is not allowed")
        return value

    def integer(text: str) -> int:
        try:
            value = int(text)
            float(value)
        except (ValueError, OverflowError):
            raise SchemaError(path, f"integer {text[:20]}... is too large for a float") from None
        return value

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_float=finite, parse_int=integer, parse_constant=finite)
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except OSError as exc:
        raise SchemaError(path, exc.strerror or "cannot be read") from None
    except UnicodeDecodeError:
        raise SchemaError(path, "not UTF-8 text") from None
    except RecursionError:
        raise SchemaError(path, "nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")
