"""Numeric comparison tolerance, scoped to the current context, and the one
bracketed root search.

Every equality/inequality test in the library (probability sums, regret
thresholds, CDF comparisons, mixture reconstruction) reads one tolerance,
``epsnum()``; no function takes its own.  The one other threshold is the
1e-12 residual at which ``pd_tolerant`` counts a breakpoint as a fixed-point
root.  The tolerance lives in a ``contextvars.ContextVar``: a value set in one
thread or task does not reach another, and ``reset_epsnum`` restores the
value a ``set_epsnum`` call replaced.

``_bracketed_root`` finds the Prisoner's Dilemma fixed points that are not on
a linear piece and the kinks of the exact cooperation rates in ``dilemmas``.

``np`` is the one handle through which the library reaches numpy: every
module writes ``from .numeric import np``, and numpy is imported at the
first attribute looked up on it.  So the CLI requests that only do scalar
work (a threshold, fixed points and pd-alpha sweeps but not the ``--out``
curve of pd-solve, a remap, an input error) run without loading numpy,
which costs more than the interpreter's own start.
``import toleq`` loads not even this module; every CLI request loads it,
since the command line may set the tolerance.
"""

from __future__ import annotations

import math
import types
from contextvars import ContextVar, Token

DEFAULT_EPSNUM = 1e-9


def _numpy_attribute(name: str):
    """Import numpy and keep its attribute ``name`` on the handle."""
    import numpy

    value = getattr(numpy, name)
    setattr(np, name, value)
    return value


# numpy, imported at the first attribute looked up.  The handle is a module
# whose own __getattr__ keeps each name it returns in the module's dict, so a
# later lookup costs what one on numpy does; an instance of a class with
# __getattr__ would make every lookup about 4 ns slower on CPython 3.11.
np = types.ModuleType("numpy")
np.__getattr__ = _numpy_attribute

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


def _bracketed_root(fn, a: float, b: float, f_a: float, f_b: float) -> float:
    """Root of fn between a and b, where f_a and f_b have opposite signs.

    Anderson-Bjorck regula falsi: b is the latest point and the chord through
    (a, f_a) and (b, f_b) gives the next; when it lands on b's side, f_a is
    scaled down so that a does not stay put.  A step that fails to halve the
    bracket is followed by a midpoint step.  The search stops at an exact zero
    or when a and b are adjacent floats.
    """
    halve = False
    for _ in range(200):
        lo, hi = min(a, b), max(a, b)
        x = 0.5 * (a + b)
        if not halve:  # the chord's zero, kept at least one float inside the bracket
            secant = b - f_b * ((b - a) / (f_b - f_a))
            x = min(max(secant, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < x < hi:
            break
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) != (f_b > 0.0):
            a, f_a = b, f_b
        else:
            m = 1.0 - f_x / f_b
            f_a *= m if m > 0.0 else 0.5
        b, f_b = x, f_x
        halve = not halve and abs(b - a) > 0.5 * (hi - lo)
    return 0.5 * (a + b)
