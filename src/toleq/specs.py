"""The four dilemma specs and the input error, which the CLI reads before it
loads any of the code that computes.

Each spec class is described once, by its fields: a field's annotation
(``int`` or ``float``) says how it is parsed and checked, and its metadata
names its JSON key and its CLI flag.  ``serialize`` and ``cli`` loop over
these fields, and ``_DILEMMAS`` maps each kind (``pd``, ``td``, ``pg``,
``bertrand``) to its class.  ``dilemmas`` computes with these classes and
re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union


class SchemaError(ValueError):
    """Input file does not match the documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _param(key: str, flag: str):
    """A spec field whose JSON key is ``key`` and whose CLI flag is ``--flag``."""
    return field(metadata={"key": key, "flag": flag})


def _check_integers(spec) -> None:
    """Every field annotated ``int`` must hold an integer."""
    for f in fields(spec):
        if f.type == "int" and not isinstance(getattr(spec, f.name), int):
            raise ValueError(f"{f.name} must be an integer, got {getattr(spec, f.name)!r}")


@dataclass(frozen=True)
class PrisonersDilemma:
    """Pay a cost to hand the other player a larger benefit."""

    benefit: float = _param("b", "benefit")
    cost: float = _param("c", "cost")

    def __post_init__(self) -> None:
        if not math.isfinite(self.benefit):
            raise ValueError(f"benefit must be finite, got {self.benefit}")
        if not self.benefit > self.cost > 0:
            raise ValueError(f"need benefit > cost > 0, got b={self.benefit}, c={self.cost}")


@dataclass(frozen=True)
class TravelersDilemma:
    """Claim an integer amount; the lower claim wins a bonus, the higher pays it."""

    low: int = _param("L", "low")
    high: int = _param("H", "high")
    bonus: int = _param("b", "bonus")

    def __post_init__(self) -> None:
        _check_integers(self)
        if not (self.high > self.low >= 1 and self.bonus >= 1):
            raise ValueError(f"need high > low >= 1 and bonus >= 1, got {self}")


@dataclass(frozen=True)
class PublicGoods:
    """Contribute to a pool multiplied by rho * N and split evenly."""

    num_players: int = _param("N", "n")
    marginal_return: float = _param("rho", "rho")

    def __post_init__(self) -> None:
        _check_integers(self)
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

    num_firms: int = _param("n", "n")
    price_floor: int = _param("L", "low")
    price_cap: int = _param("H", "high")

    def __post_init__(self) -> None:
        _check_integers(self)
        if not (self.num_firms >= 2 and self.price_cap > self.price_floor >= 2):
            raise ValueError(
                "need >= 2 firms and cap > floor >= 2 "
                f"(floor >= 2 keeps the defect profile the unique Nash), got {self}"
            )


DilemmaSpec = Union[PrisonersDilemma, TravelersDilemma, PublicGoods, BertrandCompetition]

_DILEMMAS = {
    "pd": PrisonersDilemma,
    "td": TravelersDilemma,
    "pg": PublicGoods,
    "bertrand": BertrandCompetition,
}
