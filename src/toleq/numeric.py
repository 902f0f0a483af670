"""Numeric comparison tolerance, scoped to the current context.

Every equality/inequality test in the library (probability sums, regret
thresholds, CDF comparisons) funnels through one configurable tolerance so
that consistency semantics stay uniform across modules.  The tolerance lives
in a ``contextvars.ContextVar``: a value set in one thread or task does not
reach another, and ``reset_epsnum`` restores the value a ``set_epsnum`` call
replaced.
"""

from __future__ import annotations

from contextvars import ContextVar, Token

DEFAULT_EPSNUM = 1e-9

_epsnum: ContextVar[float] = ContextVar("toleq_epsnum", default=DEFAULT_EPSNUM)


def epsnum(override: float | None = None) -> float:
    """Resolve the effective comparison tolerance.

    Library functions take an optional ``eps`` argument; ``None`` means
    "use the current context's value" (1e-9 unless set).
    """
    return _epsnum.get() if override is None else override


def set_epsnum(value: float) -> Token:
    """Set the tolerance for the current context (the CLI wires --epsnum and
    TOLEQ_EPSNUM through here for one run).  Returns the token that
    ``reset_epsnum`` takes to restore the previous value."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"comparison tolerance must be positive, got {value}")
    return _epsnum.set(value)


def reset_epsnum(token: Token) -> None:
    """Restore the tolerance that the ``set_epsnum`` call returning ``token`` replaced."""
    _epsnum.reset(token)
