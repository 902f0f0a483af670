"""Spans around toleq's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function with a timing wrapper in
every toleq module that holds it (so names that ``cli.py`` or the package
re-export imported are wrapped too), and ``uninstall`` puts the originals
back. A span records its duration and the time its child spans cover, so a
layer's self time is the difference.

A span opened inside an open span of the same name (``tolerance_profile_from_obj``
calls ``distribution_from_obj``, both ``serialize.load``) adds only its self
time: its duration is already in the outer span's total and is not counted
again, nor is the call. A span named in ``COUNTED_APART`` that opens inside
the span it names is part of that span's figure and is not recorded under
its own name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

import toleq
from toleq import tolerance

# (defining module, function) -> span name. A span name ending in '?' is
# split by the call's result: verify_tolerant_equilibrium into pass and fail.
SPANS = {
    ("games", "regrets"): "games.regrets",
    ("tolerance", "dominance_remap"): "tolerance.remap",
    ("tolerance", "dist_dominates"): "tolerance.dominates",
    ("equilibrium", "verify_tolerant_equilibrium"): "equilibrium.verify?",
    ("equilibrium", "symmetric_alpha_intervals"): "equilibrium.alpha_intervals",
    ("dilemmas", "build_game"): "dilemmas.build_game",
    ("dilemmas", "cooperation_rate"): "dilemmas.rate",
    ("dilemmas", "exact_cooperation_rate"): "dilemmas.exact_rate",
    ("pd_tolerant", "solve_symmetric"): "pd_tolerant.solve_symmetric",
    ("pd_tolerant", "solve_asymmetric"): "pd_tolerant.solve_asymmetric",
    ("pd_tolerant", "solve_discrete"): "pd_tolerant.solve_discrete",
    ("pd_tolerant", "comparative_statics_sweep"): "pd_tolerant.sweep",
    ("serialize", "load_json"): "serialize.load",
    ("serialize", "dump_json"): "serialize.dump",
    ("cli", "main"): "cli.main",
}
for _name in ("game", "profile", "distribution", "tolerance_profile", "type_strategy_map",
              "verdict", "dilemma_spec"):
    SPANS[("serialize", f"{_name}_from_obj")] = "serialize.load"
for _name in ("game", "profile", "discrete_dist", "cdf", "tolerance_profile", "type_strategy_map",
              "verdict", "dilemma_spec"):
    SPANS[("serialize", f"{_name}_to_obj")] = "serialize.dump"

# Span -> enclosing span whose inner calls it does not report:
# symmetric_alpha_intervals makes one 2x2 verdict per grid point, and those
# are reported in equilibrium.alpha_intervals_ms, not as verdicts.
COUNTED_APART = {"equilibrium.verify?": "equilibrium.alpha_intervals"}

# Work counted per call, from its arguments and result: points a CDF call
# evaluates, samples a rate draws, parameter values a sweep solves, bytes of
# the payoff tensor a game holds (k**n * n * 8).
UNITS = {
    "tolerance.cdf": lambda args, kwargs, result: getattr(args[1], "size", 1),
    "dilemmas.rate": lambda args, kwargs, result: kwargs.get("samples", args[2] if len(args) > 2 else 0),
    "pd_tolerant.sweep": lambda args, kwargs, result: len(kwargs.get("values", args[3] if len(args) > 3 else ())),
    "dilemmas.build_game": lambda args, kwargs, result: result.game.payoffs.nbytes,
}

MODULES = ("games", "tolerance", "equilibrium", "dilemmas", "pd_tolerant", "serialize", "cli")


class Stat:
    __slots__ = ("calls", "total", "own", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.units = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list] = []  # per open span: [child seconds, span id, name]
        self.spans: list | None = None  # span records, while recording
        self.next_id = 0
        self.patches: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        units = UNITS.get(name)
        enclosing = COUNTED_APART.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][1] if tracer.stack else None
            open_names = {entry[2] for entry in tracer.stack}
            tracer.stack.append([0.0, span_id, name])
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                child = tracer.stack.pop()[0]
                if tracer.stack:
                    tracer.stack[-1][0] += end - start
                label = name
                if name.endswith("?"):
                    label = name[:-1] + ("_pass" if getattr(result, "is_equilibrium", False) else "_fail")
                if enclosing is None or enclosing not in open_names:
                    stat = tracer.stats[label]
                    stat.own += end - start - child
                    if name not in open_names:
                        stat.calls += 1
                        stat.total += end - start
                        if units is not None and result is not None:
                            stat.units += units(args, kwargs, result)
                if tracer.spans is not None:
                    tracer.spans.append((span_id, parent, label, start, end))

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"toleq.{m}") for m in MODULES}
        holders = [toleq, *modules.values()]
        for (home, attr), name in SPANS.items():
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self.patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        call = tolerance.ContinuousCdf.__call__
        self.patches.append((tolerance.ContinuousCdf, "__call__", call))
        tolerance.ContinuousCdf.__call__ = self._wrap("tolerance.cdf", call)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()

    @contextlib.contextmanager
    def op(self, kind: str):
        """An operation's own span, the parent of the library spans inside it."""
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([0.0, span_id, f"op:{kind}"])
        start = perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            if self.spans is not None:
                self.spans.append((span_id, None, f"op:{kind}", start, perf_counter()))

    def take(self) -> dict[str, Stat]:
        """Return the statistics gathered so far and start afresh."""
        stats, self.stats = self.stats, defaultdict(Stat)
        return stats


def per_layer(setup: dict, ops: dict, n_ops: int, extra: dict) -> dict:
    """The per-layer metrics from set-up and operation statistics.

    Per-call times average over the calls made; per-operation counts and
    times divide by the number of traced operations.
    """
    def per_call_ms(stats, name):
        s = stats.get(name)
        return s.total / s.calls * 1e3 if s and s.calls else 0.0

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def get(name) -> Stat:
        return ops.get(name) or Stat()

    build = setup.get("dilemmas.build_game") or Stat()
    sweep = get("pd_tolerant.sweep")
    rate = get("dilemmas.rate")
    main = get("cli.main")
    verify_calls = get("equilibrium.verify_pass").calls + get("equilibrium.verify_fail").calls
    metrics = {
        "import.toleq_s": (extra["import_toleq_s"], "s"),
        "import.numpy_s": (extra["import_numpy_s"], "s"),
        "cli.main_ms": (per_call_ms(ops, "cli.main"), "ms/call"),
        "cli.self_ms": (main.own / main.calls * 1e3 if main.calls else 0.0, "ms/call"),
        "serialize.load_ms": (per_op(get("serialize.load").total * 1e3), "ms/op"),
        "serialize.dump_ms": (per_op(get("serialize.dump").total * 1e3), "ms/op"),
        "games.regrets_ms": (per_op(get("games.regrets").total * 1e3), "ms/op"),
        "games.regrets_calls": (per_op(get("games.regrets").calls), "calls/op"),
        "tolerance.cdf_calls": (per_op(get("tolerance.cdf").calls), "calls/op"),
        "tolerance.cdf_points": (per_op(get("tolerance.cdf").units), "points/op"),
        "tolerance.remap_ms": (per_call_ms(ops, "tolerance.remap"), "ms/call"),
        "tolerance.dominates_ms": (per_call_ms(ops, "tolerance.dominates"), "ms/call"),
        "equilibrium.verify_pass_ms": (per_call_ms(ops, "equilibrium.verify_pass"), "ms/call"),
        "equilibrium.verify_fail_ms": (per_call_ms(ops, "equilibrium.verify_fail"), "ms/call"),
        "equilibrium.verify_calls": (per_op(verify_calls), "calls/op"),
        "equilibrium.alpha_intervals_ms": (per_call_ms(ops, "equilibrium.alpha_intervals"), "ms/call"),
        "dilemmas.exact_rate_ms": (per_call_ms(ops, "dilemmas.exact_rate"), "ms/call"),
        "dilemmas.mc_ms": (rate.own / rate.calls * 1e3 if rate.calls else 0.0, "ms/call"),
        "dilemmas.mc_samples": (per_op(rate.units), "samples/op"),
        "dilemmas.build_game_ms": (build.total / build.calls * 1e3 if build.calls else 0.0, "ms/call"),
        "dilemmas.tensor_mb": (build.units / 1e6, "MB"),
        "pd_tolerant.solve_symmetric_ms": (per_call_ms(ops, "pd_tolerant.solve_symmetric"), "ms/call"),
        "pd_tolerant.solve_asymmetric_ms": (per_call_ms(ops, "pd_tolerant.solve_asymmetric"), "ms/call"),
        "pd_tolerant.solve_discrete_ms": (per_call_ms(ops, "pd_tolerant.solve_discrete"), "ms/call"),
        "pd_tolerant.sweep_point_ms": (sweep.total / sweep.units * 1e3 if sweep.units else 0.0, "ms/point"),
        "pd_tolerant.roots_found": (per_op(extra["roots_found"]), "roots/op"),
        "pd_tolerant.roots_missed": (per_op(extra["roots_missed"]), "roots/op"),
        "trace.overhead_ms_per_op": (extra["overhead_ms_per_op"], "ms/op"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
