"""Numeric comparison tolerance, scoped to the current context.

Every equality/inequality test in the library (probability sums, regret
thresholds, CDF comparisons, mixture reconstruction) reads one tolerance,
``epsnum()``; no function takes its own.  The one other threshold is the
1e-12 residual at which ``pd_tolerant`` counts a breakpoint as a fixed-point
root.  The tolerance lives in a ``contextvars.ContextVar``: a value set in one
thread or task does not reach another, and ``reset_epsnum`` restores the
value a ``set_epsnum`` call replaced.
"""

from __future__ import annotations

import math
from contextvars import ContextVar, Token

DEFAULT_EPSNUM = 1e-9

_epsnum: ContextVar[float] = ContextVar("toleq_epsnum", default=DEFAULT_EPSNUM)


def epsnum() -> float:
    """The comparison tolerance of the current context (1e-9 unless set)."""
    return _epsnum.get()


def set_epsnum(value: float | str) -> Token:
    """Set the tolerance for the current context (the CLI wires --epsnum and
    TOLEQ_EPSNUM through here for one run).  Returns the token that
    ``reset_epsnum`` takes to restore the previous value."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"comparison tolerance must be finite and positive, got {value}")
    return _epsnum.set(value)


def reset_epsnum(token: Token) -> None:
    """Restore the tolerance that the ``set_epsnum`` call returning ``token`` replaced."""
    _epsnum.reset(token)
