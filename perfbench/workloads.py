"""The benchmark's four workloads: seeded inputs, one round of operations,
and a check of every output against the oracles in ``oracles.py``.

A workload is built from a seed and a directory to write into. ``ops`` is
one round: a fixed list of operations that the worker repeats whole until
the run's time is up, so the share of failed operations never depends on
run length. Every operation is one request a user would make; operations
whose single call is cheap bundle several calls so that no operation costs
far less than the workload's median.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as orc
import toleq as tq
import toleq.cli
from toleq import serialize

MATCH_TOL = 1e-9  # how close a reported root or rate must be to the oracle's


class Op:
    """One request: ``run`` is timed, ``check`` judges its output.

    ``known_fault`` marks a request that fails on every seed because of a
    fault in toleq; it is counted as failed, never as incorrect.
    """

    def __init__(self, kind: str, run, check, known_fault: bool = False):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_fault = known_fault


def _close_lists(got, want, tol: float = MATCH_TOL) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def _pd_payoffs(rng, delta_c: float, delta_d: float):
    """Row payoffs with dc > cc > dd > cd and the given defection gains."""
    cc = float(rng.uniform(1.0, 4.0))
    u = float(rng.uniform(0.2, 2.0))
    return tq.PdPayoffs(cc=cc, cd=cc - delta_d - u, dc=cc + delta_c, dd=cc - u)


def _deltas(p) -> tuple[float, float]:
    """The gains exactly as toleq computes them from the payoffs."""
    return p.dc - p.cc, p.dd - p.cd


DENSE = np.linspace(0.0, 1.0, 2001)


def _dense_clear(values, roots, floor: float = 1e-6, near: float = 2e-3) -> bool:
    """Away from its roots, h stays at least `floor` from zero on a dense grid.

    `values` is h on DENSE; with the checks in oracles.well_conditioned this
    keeps every root of a random instance resolvable by a grid of 1e-4.
    """
    far = np.all(np.abs(DENSE[:, None] - np.asarray(roots)[None, :]) > near, axis=1)
    return not np.any(far & (np.abs(values) < floor))


def _pl_vec(xs, ys):
    return lambda x: np.interp(x, xs, ys)


def _texp_vec(rate: float, cap: float, shift: float):
    return lambda x: -np.expm1(-rate * np.clip(x - shift, 0.0, cap)) / -math.expm1(-rate * cap)


# ---------------------------------------------------------------------------
# fixed-points


TANGENT = ((3.0, -1.0, 4.0, 2.0), (0.0, 1.49995, 1.9999, 4.0001), (0.0, 0.0, 0.49995, 1.0))

# The five sweeps of scripts/comparative_statics.py: base game, CDF, ranges.
SWEEP_BASE = (3.0, -1.0, 5.0, 0.0)
SWEEP_CDF = (0.0, 4.0)
SWEEPS = (
    ("delta_c", 1.5, 3.5),
    ("delta_d", 0.5, 2.8),
    ("a", 2.0, 4.5),
    ("b", -2.0, -0.1),
    ("shift", 0.0, 2.0),
)
SWEEP_POINTS = 21
DISCRETE_BUNDLE = 300


def sweep_instance(parameter: str, value: float):
    """Payoffs (cc, cd, dc, dd) and uniform bounds after moving one parameter."""
    cc, cd, dc, dd = SWEEP_BASE
    lo, hi = SWEEP_CDF
    if parameter == "delta_c":
        dc = cc + value
    elif parameter == "delta_d":
        dd = cd + value
    elif parameter == "a":
        cc = value
    elif parameter == "b":
        cd = value
    elif parameter == "shift":
        lo, hi = lo + value, hi + value
    return (cc, cd, dc, dd), (lo, hi)


def sweep_rows(parameter: str, values) -> list[tuple[float, float, int]]:
    """(value, alpha, branch) rows by nearest continuation over oracle roots."""
    rows, tracked = [], []
    for i, value in enumerate(values):
        (cc, cd, dc, dd), (lo, hi) = sweep_instance(parameter, value)
        roots = orc.pl_symmetric_roots(dc - cc, dd - cd, (lo, hi), (0.0, 1.0))
        if i == 0:
            tracked = list(roots)
        else:
            tracked = [min(roots, key=lambda r: abs(r - prev)) for prev in tracked]
        rows += [(value, alpha, branch) for branch, alpha in enumerate(tracked)]
    return rows


class FixedPoints:
    """Prisoner's Dilemma fixed points: symmetric, asymmetric, discrete, sweeps."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.roots_found = 0
        self.roots_missed = 0
        self.several_root = 0
        self.symmetric = 0
        ops = []
        for kind in ["uniform"] * 5 + ["pl"] * 5 + ["steep"] * 5 + ["texp"] * 5:
            ops.append(self._symmetric_op(*self._symmetric_instance(rng, kind), kind))
        for _ in range(6):
            ops.append(self._asymmetric_op(rng))
        for _ in range(6):
            ops.append(self._discrete_op(rng))
        for parameter, lo, hi in SWEEPS:
            grid = [float(v) for v in np.linspace(lo, hi, SWEEP_POINTS)]
            start = int(rng.integers(0, SWEEP_POINTS - 1))
            ops.append(self._sweep_op(parameter, grid[start : start + 2]))
        (cc, cd, dc, dd), xs, ys = TANGENT
        tangent = tq.PdPayoffs(cc, cd, dc, dd)
        ops.append(
            self._symmetric_op(tangent, tq.PiecewiseLinearCdf(xs, ys),
                               orc.pl_symmetric_roots(dc - cc, dd - cd, xs, ys), "tangent", known_fault=True)
        )
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def _symmetric_instance(self, rng, kind: str):
        while True:
            if kind == "steep":
                dc_, dd_ = sorted(rng.uniform(0.3, 3.5, size=2))
            else:
                dc_, dd_ = rng.uniform(0.2, 4.0, size=2)
            p = _pd_payoffs(rng, float(dc_), float(dd_))
            d_c, d_d = _deltas(p)
            if kind == "texp":
                rate, cap, shift = float(rng.uniform(0.3, 3.0)), float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.0, 1.5))
                cdf = tq.TruncatedExponentialCdf(rate, cap, shift)
                roots = orc.texp_symmetric_roots(d_c, d_d, rate, cap, shift)
                h = orc.symmetric_h(d_c, d_d, orc.texp_cdf(rate, cap, shift))
                F = _texp_vec(rate, cap, shift)
            else:
                xs, ys = self._knots(rng, kind, d_c, d_d)
                cdf = tq.UniformCdf(xs[0], xs[1]) if kind == "uniform" else tq.PiecewiseLinearCdf(xs, ys)
                roots = orc.pl_symmetric_roots(d_c, d_d, xs, ys)
                h = orc.symmetric_h(d_c, d_d, orc.pl_cdf(xs, ys))
                F = _pl_vec(xs, ys)
            values = 1.0 - DENSE - F(orc.gap(d_c, d_d, DENSE))
            if orc.well_conditioned(h, roots) and _dense_clear(values, roots):
                return p, cdf, roots

    @staticmethod
    def _knots(rng, kind: str, d_c: float, d_d: float):
        if kind == "uniform":
            lo = float(rng.uniform(0.0, 1.5))
            return (lo, lo + float(rng.uniform(0.5, 4.0))), (0.0, 1.0)
        if kind == "pl":
            m = int(rng.integers(3, 7))
            xs = np.sort(rng.uniform(0.0, 5.0, size=m))
            ys = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, size=m - 2)), [1.0]))
            return tuple(float(x) for x in xs), tuple(float(y) for y in ys)
        # steep: staircase inside the gap range, so 1 - F(gap(a)) can cross a
        # several times (d_c < d_d here).
        inner = np.sort(rng.uniform(d_c, d_d, size=4))
        y1 = rng.uniform(0.0, 0.15)
        y2 = y1 + rng.uniform(0.25, 0.45)
        y3 = y2 + rng.uniform(0.0, 0.1)
        y4 = min(y3 + rng.uniform(0.3, 0.5), 0.98)
        xs = (float(rng.uniform(0.0, d_c)), *map(float, inner), d_d + float(rng.uniform(0.1, 1.0)))
        ys = (0.0, float(y1), float(y2), float(y3), float(y4), 1.0)
        return xs, ys

    def _symmetric_op(self, p, cdf, roots, kind: str, known_fault: bool = False) -> Op:
        d_c, d_d = _deltas(p)
        self.symmetric += 1
        self.several_root += len(roots) > 1
        F = (orc.texp_cdf(cdf.rate, cdf.cap, cdf.shift) if isinstance(cdf, tq.TruncatedExponentialCdf)
             else orc.pl_cdf((cdf.lo, cdf.hi), (0.0, 1.0)) if isinstance(cdf, tq.UniformCdf)
             else orc.pl_cdf(cdf.xs, cdf.ys))

        def check(report) -> bool:
            got = [r.alpha_star for r in report.roots]
            found = sum(any(abs(g - r) <= MATCH_TOL for g in got) for r in roots)
            self.roots_found += found
            self.roots_missed += len(roots) - found
            return (
                _close_lists(got, roots)
                and report.has_zero_root == (F(d_d) >= 1.0 - orc.EPS)
                and report.uniqueness_certified == (d_c > d_d)
                and (len(roots) == 1 or d_c <= d_d)
            )

        return Op(f"symmetric-{kind}", lambda: tq.solve_symmetric(p, cdf), check, known_fault)

    def _asymmetric_op(self, rng) -> Op:
        while True:
            pair = []
            for _ in range(2):
                kind = "uniform" if rng.random() < 0.3 else "pl"
                dc_, dd_ = rng.uniform(0.2, 4.0, size=2)
                p = _pd_payoffs(rng, float(dc_), float(dd_))
                knots = self._knots(rng, kind, *_deltas(p))
                cdf = tq.UniformCdf(*knots[0]) if kind == "uniform" else tq.PiecewiseLinearCdf(*knots)
                pair.append((p, knots, cdf))
            (p1, k1, c1), (p2, k2, c2) = pair
            roots = orc.pl_asymmetric_roots(_deltas(p1), _deltas(p2), k1, k2)
            F1, F2 = orc.pl_cdf(*k1), orc.pl_cdf(*k2)
            respond2 = lambda a: 1.0 - F2(orc.gap(*_deltas(p2), a))
            phi = lambda a: 1.0 - F1(orc.gap(*_deltas(p1), respond2(a))) - a
            a2 = 1.0 - _pl_vec(*k2)(orc.gap(*_deltas(p2), DENSE))
            values = 1.0 - _pl_vec(*k1)(orc.gap(*_deltas(p1), a2)) - DENSE
            if orc.well_conditioned(phi, roots) and _dense_clear(values, roots):
                break
        respond1 = lambda a: 1.0 - F1(orc.gap(*_deltas(p1), a))

        def check(pairs) -> bool:
            got = [a1 for a1, _ in pairs]
            found = sum(any(abs(g - r) <= MATCH_TOL for g in got) for r in roots)
            self.roots_found += found
            self.roots_missed += len(roots) - found
            return _close_lists(got, roots) and all(
                abs(a2 - respond2(a1)) <= MATCH_TOL and abs(a1 - respond1(a2)) <= MATCH_TOL for a1, a2 in pairs
            )

        return Op("asymmetric", lambda: tq.solve_asymmetric(p1, p2, c1, c2), check)

    def _discrete_op(self, rng) -> Op:
        cases = []
        while len(cases) < DISCRETE_BUNDLE:
            m = int(rng.integers(2, 7))
            support = tuple(float(t) for t in np.sort(rng.uniform(0.0, 4.0, size=m)))
            probs = tuple(float(q) for q in rng.dirichlet(np.ones(m)))
            dc_, dd_ = rng.uniform(0.2, 4.0, size=2)
            p = _pd_payoffs(rng, float(dc_), float(dd_))
            d_c, d_d = _deltas(p)
            if len(set(support)) == m and orc.discrete_is_clear(d_c, d_d, support, probs):
                cases.append((p, tq.DiscreteToleranceDist(support, probs)))
        memo: list = []

        def run():
            return [tq.solve_discrete(p, pi) for p, pi in cases]

        def check(results) -> bool:
            if not memo:
                memo.extend(orc.discrete_fixed_points(*_deltas(p), pi.support, pi.probs) for p, pi in cases)
            return all(_close_lists(got, want, 1e-12) for got, want in zip(results, memo))

        return Op("discrete-bundle", run, check)

    def _sweep_op(self, parameter: str, values: list[float]) -> Op:
        base = tq.PdPayoffs(*SWEEP_BASE)
        cdf = tq.UniformCdf(*SWEEP_CDF)
        want = sweep_rows(parameter, values)

        def check(points) -> bool:
            got = [(p.param_value, p.alpha_star, p.branch_id) for p in points]
            return len(got) == len(want) and all(
                g[0] == w[0] and abs(g[1] - w[1]) <= MATCH_TOL and g[2] == w[2] for g, w in zip(got, want)
            )

        return Op(f"sweep-{parameter}",
                  lambda: tq.comparative_statics_sweep(base, cdf, parameter, values), check)


# ---------------------------------------------------------------------------
# rates

# Every call draws the samples that scripts/regularity_sweeps.py draws by
# default. A pinned-belief or closed-form call skips the quadrature and costs
# a fraction of a uniform-belief call, so those requests are short sweeps:
# consecutive calls bundled into one operation, as the regularity sweeps make.
SAMPLES = 50_000
SWEEP_CALLS = {"pin": 4, "firms": 3, "closed": 4}


def _library_spec(spec: dict):
    kind = spec["kind"]
    if kind == "td":
        return tq.TravelersDilemma(spec["L"], spec["H"], spec["b"])
    if kind == "bertrand":
        return tq.BertrandCompetition(spec["n"], spec["L"], spec["H"])
    if kind == "pd":
        return tq.PrisonersDilemma(spec["b"], spec["c"])
    return tq.PublicGoods(spec["N"], spec["rho"])


def _random_spec(rng, kind: str, n: int = 2) -> dict:
    if kind == "td":
        low = int(rng.integers(1, 11))
        return {"kind": "td", "L": low, "H": low + int(rng.integers(20, 141)), "b": int(rng.integers(2, 11))}
    if kind == "bertrand":
        low = int(rng.integers(2, 16))
        return {"kind": "bertrand", "n": n, "L": low, "H": low + int(rng.integers(20, 141))}
    if kind == "pd":
        c = float(rng.uniform(0.5, 3.0))
        return {"kind": "pd", "b": c + float(rng.uniform(0.5, 5.0)), "c": c}
    players = int(rng.integers(2, 9))
    return {"kind": "pg", "N": players, "rho": float(rng.uniform(1.0 / players + 0.02, 0.98))}


class Rates:
    """Cooperation rates: exact integration plus seeded Monte Carlo."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        plan = [("td", 2, None)] * 6 + [("bertrand", n, None) for n in (2, 3, 4, 2, 3, 4, 3, 4)]
        plan += [("td", 2, "pin")] * 2 + [("bertrand", None, "firms")] * 2
        plan += [("pd", 2, "closed"), ("pg", 2, "closed")]
        ops = [self._op(rng, kind, n, belief) for kind, n, belief in plan]
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def _op(self, rng, kind: str, n: int | None, belief) -> Op:
        q = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 1.0))
        beta_point = float(rng.uniform(0.0, 1.0)) if belief in ("pin", "firms") else None
        if belief == "firms":  # one market at n = 2, 3, 4 firms, as the firm-count sweep
            market = _random_spec(rng, kind)
            specs = [dict(market, n=firms) for firms in (2, 3, 4)]
        else:
            specs = [_random_spec(rng, kind, n) for _ in range(SWEEP_CALLS.get(belief, 1))]
        calls = [(spec, _library_spec(spec), int(rng.integers(0, 2**31))) for spec in specs]
        dist = tq.RelativeTypeDistribution(q=q, beta_point=beta_point)
        memo: dict = {}

        def run():
            return [tq.cooperation_rate(lib_spec, dist, SAMPLES, mc_seed) for _, lib_spec, mc_seed in calls]

        def check(rates) -> bool:
            if "exact" not in memo:
                memo["exact"] = [orc.cooperation_rate(spec, q, beta_point) for spec, _, _ in calls]
                memo["first"] = [(r.mc_rate, r.mc_stderr, r.exact_rate) for r in rates]
            return (
                [(r.mc_rate, r.mc_stderr, r.exact_rate) for r in rates] == memo["first"]
                and len(rates) == len(calls)
                and all(
                    rate.exact_rate is not None
                    and abs(rate.exact_rate - exact) <= MATCH_TOL
                    and orc.mc_agrees(rate.mc_rate, exact, SAMPLES)
                    and abs(rate.mc_stderr - math.sqrt(rate.mc_rate * (1 - rate.mc_rate) / SAMPLES)) <= 1e-12
                    for rate, exact in zip(rates, memo["exact"])
                )
            )

        name = f"rate-{kind}{n if kind == 'bertrand' and n else ''}-{belief or 'uniform'}"
        return Op(name, run, check)


# ---------------------------------------------------------------------------
# verify

UNITS = orc.MASS_UNITS
ALPHA_GRID = 101
REMAP_BUNDLE = 60
# Strategy counts of the random games. The shapes are fixed, and only the
# payoffs come from the seed, so an operation's cost does not hang on a drawn
# game size.
RANDOM_SHAPES = ((3, 4), (4, 4), (3, 3, 3))
# A passing verdict costs about ten failing ones, so an alpha-interval call's
# cost follows its share of passing grid points (from 1 to 95 of 101 with
# free draws). Instances have ALPHA_ATOMS atoms and pass on ALPHA_PASSING of
# the grid, so every seed makes calls of about the same cost.
ALPHA_ATOMS = 4
ALPHA_PASSING = (40, 60)


def _composition(rng, total: int, parts: int) -> list[int]:
    """Random positive integers summing to total."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    bounds = [0, *map(int, cuts), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _random_units(rng, k: int) -> list[int]:
    """24 mass units on 1 to 6 of k strategies."""
    size = int(rng.integers(1, min(k, 6) + 1))
    chosen = rng.choice(k, size=size, replace=False)
    units = [0] * k
    for s, u in zip(chosen, _composition(rng, UNITS, size)):
        units[int(s)] = u
    return units


def _design_pi(rng, regret_vec, units, fail: bool):
    """Tolerance atoms for one player, in mass units.

    A passing design puts one atom on each distinct regret of the supported
    strategies, carrying their mass, then may lift every atom by the same
    amount. A failing design drops the top atom below the regret it has to
    cover, so the strategies there are stranded.
    Returns None when a failing design is impossible (all regrets zero).
    """
    mass: dict = {}
    exact: dict = {}
    for s, u in enumerate(units):
        if u > 0:
            key = round(float(regret_vec[s]), 9)
            mass[key] = mass.get(key, 0) + u
            exact.setdefault(key, float(regret_vec[s]))
    keys = sorted(mass)
    atoms = [max(exact[k], 0.0) for k in keys]
    counts = [mass[k] for k in keys]
    regret_values = sorted({float(r) for r in regret_vec})

    def clear(x: float) -> bool:
        return all(abs(x - r) > 1e-6 for r in regret_values)

    if fail:
        if atoms[-1] <= 1e-6:
            return None
        floor = atoms[-2] if len(atoms) > 1 else 0.0
        for _ in range(100):
            x = float(rng.uniform(floor, atoms[-1]))
            if x > floor + 1e-6 and clear(x):
                atoms[-1] = x
                return atoms, counts
        return None
    if rng.random() < 0.5:
        lift = float(rng.uniform(0.01, 0.5))
        if all(clear(a + lift) for a in atoms):
            atoms = [a + lift for a in atoms]
    return atoms, counts


class Verify:
    """Tolerant-equilibrium verdicts, remaps and symmetric alpha intervals."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.games = []
        self.pass_verdicts = 0
        self.fail_verdicts = 0
        low = int(rng.integers(1, 6))
        td = {"low": low, "high": low + 98, "bonus": int(rng.integers(2, 9))}
        self._add_game("td", td, tq.TravelersDilemma(td["low"], td["high"], td["bonus"]))
        for n in (3, 4):
            floor = int(rng.integers(2, 7))
            params = {"floor": floor, "cap": floor + 29}
            self._add_game("bertrand", params, tq.BertrandCompetition(n, floor, floor + 29))
        for players, levels in ((6, 4), (4, 3)):
            params = {"levels": levels, "rho": float(rng.uniform(1.0 / players + 0.05, 0.95))}
            self._add_game("pg", params, tq.PublicGoods(players, params["rho"]), levels)
        for counts in RANDOM_SHAPES:
            n = len(counts)
            payoffs = rng.integers(-5, 6, size=counts + (n,)).astype(float)
            game = tq.Game(tuple(tuple(f"s{i}" for i in range(k)) for k in counts), payoffs)
            self.games.append(("random", None, None, game))

        # Calls per operation, sized so each operation costs about the same.
        batch = {0: 24, 1: 20, 2: 1, 3: 12, 4: 40}
        repeats = {0: 2, 1: 2, 2: 2, 3: 2, 4: 1}
        ops = []
        for g, (_, _, built, game) in enumerate(self.games):
            # Random games: 70 calls with two players, 45 with three.
            count = batch.get(g, 70 if game.num_players == 2 else 45)
            for r in range(repeats.get(g, 1)):
                ops.append(self._verify_op(rng, g, built, game, count, r * count))
        ops += [self._remap_op(rng) for _ in range(2)]
        ops += [self._alpha_op(rng) for _ in range(2)]
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def _add_game(self, kind, params, spec, levels: int = 2):
        built = tq.build_game(spec, levels)
        self.games.append((kind, params, built, built.game))

    def validate_inputs(self) -> bool:
        """Built payoff tensors match the dilemma formulas."""
        return all(
            orc.check_dilemma_tensor(kind, params, game.payoffs)
            for kind, params, _, game in self.games
            if kind != "random"
        )

    def _verify_op(self, rng, g: int, built, game, count: int, start: int) -> Op:
        """`count` verdicts on one game. Case c = start + i alternates a passing
        and a failing design, and pairs of cases alternate a beta mixture with
        an integer-mass profile."""
        cases = []
        for c in range(start, start + count):
            if built is not None and (c // 2) % 2 == 0:
                j = int(rng.integers(1, UNITS))
                profile = tq.beta_mixture_profile(built, j / UNITS)
                k = game.num_strategies[0]
                row = [0] * k
                row[built.cooperate] += j
                row[built.defect] += UNITS - j
                units = [row] * game.num_players
            else:
                units = [_random_units(rng, k) for k in game.num_strategies]
                profile = tq.MixedProfile(tuple(tq.MixedStrategy(tuple(u / UNITS for u in row)) for row in units))
            sigmas = [[u / UNITS for u in row] for row in units]
            regret_vecs = [orc.regrets(game.payoffs, sigmas, p) for p in range(game.num_players)]
            designs = [_design_pi(rng, regret_vecs[p], units[p], fail=False) for p in range(game.num_players)]
            if c % 2 == 1:
                for p in rng.permutation(game.num_players):
                    failing = _design_pi(rng, regret_vecs[p], units[p], fail=True)
                    if failing is not None:
                        designs[int(p)] = failing
                        break
            pi = tq.DiscreteToleranceProfile(
                tuple(tq.DiscreteToleranceDist(tuple(a), tuple(c / UNITS for c in counts)) for a, counts in designs)
            )
            cases.append((profile, pi, units, sigmas, regret_vecs, designs))
        memo: dict = {}

        def run():
            return [tq.verify_tolerant_equilibrium(game, profile, pi) for profile, pi, *_ in cases]

        def first_infeasible(c: int):
            if c not in memo:
                _, _, units, _, regret_vecs, designs = cases[c]
                memo[c] = next(
                    (p for p in range(game.num_players)
                     if not orc.player_feasible(regret_vecs[p], units[p], designs[p][0], designs[p][1])),
                    None,
                )
            return memo[c]

        def check(verdicts) -> bool:
            for c, verdict in enumerate(verdicts):
                _, pi, _, sigmas, regret_vecs, _ = cases[c]
                bad = first_infeasible(c)
                if verdict.is_equilibrium != (bad is None):
                    return False
                if bad is not None:
                    self.fail_verdicts += 1
                    if verdict.violation.player != bad:
                        return False
                    continue
                self.pass_verdicts += 1
                for p, g_map in enumerate(verdict.witness):
                    if not orc.witness_ok(regret_vecs[p], sigmas[p], pi[p].support, pi[p].probs,
                                          g_map.support, [s.probs for s in g_map.strategies]):
                        return False
            return True

        return Op(f"verify-{self.games[g][0]}{game.num_players}", run, check)

    def _remap_op(self, rng) -> Op:
        cases = []
        for _ in range(REMAP_BUNDLE):
            m = int(rng.integers(1, 6))
            lo_support = tuple(float(t) for t in np.sort(rng.uniform(0.0, 4.0, size=m)))
            lo_probs = tuple(float(q) for q in rng.dirichlet(np.ones(m)))
            placed: dict = {}
            for t, q in zip(lo_support, lo_probs):
                share = float(rng.uniform(0.2, 0.8))
                chunks = [q] if rng.random() < 0.65 else [q * share, q * (1.0 - share)]
                for mass in chunks:
                    spot = t if rng.random() < 0.3 else t + float(rng.uniform(0.0, 2.0))
                    placed[spot] = placed.get(spot, 0.0) + mass
            hi_support = tuple(sorted(placed))
            hi_probs = tuple(placed[t] for t in hi_support)
            if not orc.dominates(hi_support, hi_probs, lo_support, lo_probs):
                raise AssertionError("a rightward move must dominate")
            n_strategies = int(rng.integers(2, 6))
            g_strategies = [tuple(float(w) for w in rng.dirichlet(np.ones(n_strategies))) for _ in lo_support]
            lo = tq.DiscreteToleranceDist(lo_support, lo_probs)
            hi = tq.DiscreteToleranceDist(hi_support, hi_probs)
            g = tq.TypeStrategyMap(lo_support, tuple(tq.MixedStrategy(s) for s in g_strategies))
            cases.append((lo, hi, g, g_strategies))

        def run():
            return [tq.dominance_remap(lo, hi, g) for lo, hi, g, _ in cases]

        def check(maps) -> bool:
            return all(
                orc.remap_ok(lo.support, lo.probs, strategies, hi.support, hi.probs,
                             g2.support, [s.probs for s in g2.strategies])
                for (lo, hi, _, strategies), g2 in zip(cases, maps)
            )

        return Op("remap-bundle", run, check)

    def _alpha_op(self, rng) -> Op:
        alphas = [float(a) for a in np.linspace(0.0, 1.0, ALPHA_GRID)]
        while True:
            dc_, dd_ = rng.uniform(0.2, 4.0, size=2)
            p = _pd_payoffs(rng, float(dc_), float(dd_))
            m = ALPHA_ATOMS
            support = tuple(float(t) for t in np.sort(rng.uniform(0.0, 4.0, size=m)))
            probs = tuple(float(q) for q in rng.dirichlet(np.ones(m)))
            d_c, d_d = _deltas(p)
            if len(set(support)) == m and orc.symmetric_is_clear(d_c, d_d, support, probs, alphas):
                passing = [orc.symmetric_pass(d_c, d_d, support, probs, a) for a in alphas]
                if ALPHA_PASSING[0] <= sum(passing) <= ALPHA_PASSING[1]:
                    break
        want = orc.runs_of(alphas, passing)
        game = tq.as_game(p)
        pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist(support, probs), 2)

        def check(intervals) -> bool:
            return len(intervals) == len(want) and all(
                abs(a - c) <= 1e-12 and abs(b - d) <= 1e-12 for (a, b), (c, d) in zip(intervals, want)
            )

        return Op("alpha-intervals", lambda: tq.symmetric_alpha_intervals(game, pi, ALPHA_GRID), check)


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    """One cold ``python -m toleq.cli`` process per request.

    With ``in_process`` the same requests go through ``toleq.cli.main`` in
    this process instead, which is how the traced run sees inside them.
    """

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        rng = np.random.default_rng([seed, 4])
        self.dir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(Path(tq.__file__).resolve().parent.parent))
        self.validations = []
        ops = [
            self._verify_op(rng, passing=True),
            self._verify_op(rng, passing=False),
            self._remap_op(rng),
            self._discrete_op(rng),
            self._continuous_op(rng),
            self._threshold_op(rng),
            self._sweep_op(rng),
            *self._malformed_ops(rng),
            *self._nan_ops(),
        ]
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def validate_inputs(self) -> bool:
        return all(check() for check in self.validations)

    def _write(self, name: str, obj) -> str:
        path = self.dir / name
        serialize.dump_json(obj, str(path))
        return str(path)

    def _call(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = toleq.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "toleq.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _op(self, kind: str, argv: list[str], judge, known_fault: bool = False) -> Op:
        """A request whose output must also repeat exactly in every round."""
        first: list = []

        def check(result) -> bool:
            if not first:
                first.append(result)
            return result == first[0] and judge(*result)

        return Op(kind, lambda: self._call(argv), check, known_fault)

    def _game_case(self, rng, passing: bool):
        low = int(rng.integers(2, 6))
        params = {"low": low, "high": low + int(rng.integers(10, 25)), "bonus": int(rng.integers(2, 6))}
        built = tq.build_game(tq.TravelersDilemma(params["low"], params["high"], params["bonus"]))
        self.validations.append(lambda: orc.check_dilemma_tensor("td", params, built.game.payoffs))
        game = built.game
        while True:
            units = [_random_units(rng, k) for k in game.num_strategies]
            sigmas = [[u / UNITS for u in row] for row in units]
            regret_vecs = [orc.regrets(game.payoffs, sigmas, p) for p in range(2)]
            designs = [_design_pi(rng, regret_vecs[p], units[p], fail=False) for p in range(2)]
            if not passing:
                failing = _design_pi(rng, regret_vecs[1], units[1], fail=True)
                if failing is None:
                    continue
                designs[1] = failing
            return game, units, sigmas, regret_vecs, designs

    def _verify_op(self, rng, passing: bool) -> Op:
        game, units, sigmas, regret_vecs, designs = self._game_case(rng, passing)
        tag = "pass" if passing else "fail"
        files = [
            "--game", self._write(f"game-{tag}.json", serialize.game_to_obj(game)),
            "--profile", self._write(f"profile-{tag}.json", {"strategies": sigmas}),
            "--pi", self._write(f"pi-{tag}.json", {"players": [
                {"type": "discrete", "support": atoms, "probs": [c / UNITS for c in counts]}
                for atoms, counts in designs
            ]}),
        ]
        feasible = all(
            orc.player_feasible(regret_vecs[p], units[p], *designs[p]) for p in range(2)
        )

        def judge(code: int, out: str, err: str) -> bool:
            if not passing:
                return not feasible and code == 1 and out.startswith("equilibrium: no")
            if not feasible or code != 0:
                return False
            witness = json.loads(out)["witness"]
            for p in range(2):
                atoms, counts = designs[p]
                entries = witness[str(p)]
                keys = sorted(entries, key=float)
                if not orc.witness_ok(regret_vecs[p], sigmas[p], atoms, [c / UNITS for c in counts],
                                      [float(k) for k in keys], [entries[k] for k in keys]):
                    return False
            return True

        fmt = ["--format", "structured-object"] if passing else []
        return self._op(f"cli-verify-{tag}", ["verify", *files, *fmt], judge)

    def _remap_op(self, rng) -> Op:
        m = int(rng.integers(2, 5))
        lo_support = [float(t) for t in np.sort(rng.uniform(0.0, 3.0, size=m))]
        lo_probs = [float(q) for q in rng.dirichlet(np.ones(m))]
        hi_support = [t + float(rng.uniform(0.0, 1.0)) for t in lo_support]
        for i in range(1, m):
            hi_support[i] = max(hi_support[i], hi_support[i - 1] + 0.01)
        g = [[float(w) for w in rng.dirichlet(np.ones(3))] for _ in lo_support]
        out = str(self.dir / "g-prime.json")
        argv = [
            "remap",
            "--pi", self._write("lo.json", {"type": "discrete", "support": lo_support, "probs": lo_probs}),
            "--pi-prime", self._write("hi.json", {"type": "discrete", "support": hi_support, "probs": lo_probs}),
            "--g", self._write("g.json", {"support": lo_support, "strategies": g}),
            "--out", out,
        ]

        def judge(code: int, stdout: str, err: str) -> bool:
            if code != 0:
                return False
            with open(out, encoding="utf-8") as handle:
                g2 = json.load(handle)
            return orc.remap_ok(lo_support, lo_probs, g, hi_support, lo_probs, g2["support"], g2["strategies"])

        return self._op("cli-remap", argv, judge)

    @staticmethod
    def _payoff_flags(p) -> list[str]:
        return ["--a", repr(p.cc), "--b", repr(p.cd), "--c", repr(p.dc), "--d", repr(p.dd)]

    def _discrete_op(self, rng) -> Op:
        while True:
            m = int(rng.integers(2, 6))
            support = [float(t) for t in np.sort(rng.uniform(0.0, 4.0, size=m))]
            probs = [float(q) for q in rng.dirichlet(np.ones(m))]
            dc_, dd_ = rng.uniform(0.2, 4.0, size=2)
            p = _pd_payoffs(rng, float(dc_), float(dd_))
            if orc.discrete_is_clear(*_deltas(p), support, probs):
                break
        want = orc.discrete_fixed_points(*_deltas(p), support, probs)
        cdf = self._write("discrete.json", {"type": "discrete", "support": support, "probs": probs})

        def judge(code: int, out: str, err: str) -> bool:
            obj = json.loads(out)
            return code == (0 if want else 1) and obj["exists"] == bool(want) and _close_lists(
                obj["solutions"], want, 1e-12
            )

        argv = ["pd-solve", *self._payoff_flags(p), "--cdf", cdf, "--format", "structured-object"]
        return self._op("cli-pd-solve-discrete", argv, judge)

    def _continuous_op(self, rng) -> Op:
        while True:
            dc_, dd_ = sorted(rng.uniform(0.3, 3.5, size=2))
            p = _pd_payoffs(rng, float(dc_), float(dd_))
            xs, ys = FixedPoints._knots(rng, "steep", *_deltas(p))
            roots = orc.pl_symmetric_roots(*_deltas(p), xs, ys)
            h = orc.symmetric_h(*_deltas(p), orc.pl_cdf(xs, ys))
            values = 1.0 - DENSE - _pl_vec(xs, ys)(orc.gap(*_deltas(p), DENSE))
            if orc.well_conditioned(h, roots) and _dense_clear(values, roots):
                break
        cdf = self._write("continuous.json", {"type": "piecewise_linear", "knots": [list(k) for k in zip(xs, ys)]})

        def judge(code: int, out: str, err: str) -> bool:
            obj = json.loads(out)
            return code == 0 and _close_lists([r["alpha_star"] for r in obj["roots"]], roots)

        argv = ["pd-solve", *self._payoff_flags(p), "--cdf", cdf, "--format", "structured-object"]
        return self._op("cli-pd-solve-continuous", argv, judge)

    def _threshold_op(self, rng) -> Op:
        kind = "td" if rng.random() < 0.5 else "bertrand"
        spec = _random_spec(rng, kind, int(rng.integers(2, 5)))
        beta = float(rng.uniform(0.05, 0.95))
        thr = float(orc.threshold(spec, np.array([beta]))[0])
        unit = orc.scale(spec)
        while True:
            t_rel = float(rng.uniform(0.0, 1.0))
            if abs(t_rel * unit - thr) > 1e-6:
                break
        flags = (["--kind", "td", "--low", str(spec["L"]), "--high", str(spec["H"]), "--bonus", str(spec["b"])]
                 if kind == "td" else
                 ["--kind", "bertrand", "--n", str(spec["n"]), "--low", str(spec["L"]), "--high", str(spec["H"])])
        cooperates = t_rel * unit >= thr - orc.EPS

        def judge(code: int, out: str, err: str) -> bool:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            return (
                code == (0 if cooperates else 1)
                and abs(float(fields["threshold"]) - thr) <= 1e-12 * max(1.0, abs(thr))
                and abs(float(fields["absolute_tolerance"]) - t_rel * unit) <= 1e-12 * unit
                and fields["will_cooperate"] == ("yes" if cooperates else "no")
            )

        argv = ["threshold", *flags, "--beta", repr(beta), "--t-rel", repr(t_rel)]
        return self._op(f"cli-threshold-{kind}", argv, judge)

    def _sweep_op(self, rng) -> Op:
        samples = 4000
        if rng.random() < 0.5:
            base = _random_spec(rng, "td")
            values = sorted(int(v) for v in rng.choice(np.arange(2, 11), size=3, replace=False))
            specs = [dict(base, b=v) for v in values]
            flags = ["--kind", "td", "--param", "bonus", "--low", str(base["L"]), "--high", str(base["H"])]
        else:
            base = _random_spec(rng, "bertrand", int(rng.integers(2, 5)))
            values = sorted(int(v) for v in rng.choice(np.arange(2, 16), size=3, replace=False))
            specs = [dict(base, L=v) for v in values]
            flags = ["--kind", "bertrand", "--param", "low", "--n", str(base["n"]), "--high", str(base["H"])]
        memo: dict = {}

        def judge(code: int, out: str, err: str) -> bool:
            if "want" not in memo:
                memo["want"] = [orc.cooperation_rate(spec, 1.0, None) for spec in specs]
            rows = [line.split(",") for line in out.splitlines()[1:]]
            return code == 0 and len(rows) == len(specs) and all(
                float(row[0]) == value
                and abs(float(row[1]) - exact) <= MATCH_TOL
                and orc.mc_agrees(float(row[2]), exact, samples)
                for row, value, exact in zip(rows, values, memo["want"])
            )

        argv = ["sweep", *flags, "--values", ",".join(map(str, values)),
                "--seed", str(int(rng.integers(0, 2**31))), "--samples", str(samples)]
        return self._op(f"cli-sweep-{base['kind']}", argv, judge)

    def _malformed_ops(self, rng) -> list[Op]:
        """Documents that break the schema: toleq must exit 2 and name the file."""
        game, units, sigmas, regret_vecs, designs = self._game_case(rng, passing=True)
        game_doc = serialize.game_to_obj(game)
        pi_doc = {"players": [{"type": "discrete", "support": a, "probs": [c / UNITS for c in n]} for a, n in designs]}
        good_game = self._write("game-ok.json", game_doc)
        good_profile = self._write("profile-ok.json", {"strategies": sigmas})
        good_pi = self._write("pi-ok.json", pi_doc)
        missing = self._write("profile-missing.json", {"strategy": sigmas})
        shape = self._write("game-shape.json", dict(game_doc, payoffs=[row[:-1] for row in game_doc["payoffs"]]))
        unknown = self._write("cdf-unknown.json", {"type": "gaussian", "mean": float(rng.uniform(0, 3)), "sd": 1.0})
        p = _pd_payoffs(rng, float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)))

        def names(path: str):
            return lambda code, out, err: code == 2 and path in err and out == ""

        return [
            self._op("cli-missing-field", ["verify", "--game", good_game, "--profile", missing, "--pi", good_pi],
                     names(missing)),
            self._op("cli-wrong-shape", ["verify", "--game", shape, "--profile", good_profile, "--pi", good_pi],
                     names(shape)),
            self._op("cli-unknown-type", ["pd-solve", *self._payoff_flags(p), "--cdf", unknown], names(unknown)),
        ]

    def _nan_ops(self) -> list[Op]:
        """NaN in a profile or a tolerance support: invalid input, due exit 2.

        These documents do not depend on the seed. toleq accepts NaN today
        and returns a verdict, so both requests are counted as failed.
        """
        game = self._write("game-pd.json", serialize.game_to_obj(tq.build_game(tq.PrisonersDilemma(5.0, 2.0)).game))
        pi = {"players": [{"type": "discrete", "support": [0.0, 3.0], "probs": [0.5, 0.5]}] * 2}
        nan_profile = self._write("profile-nan.json", {"strategies": [[math.nan, math.nan]] * 2})
        nan_pi = self._write("pi-nan.json", {"players": [{"type": "discrete", "support": [0.0, math.nan],
                                                          "probs": [0.5, 0.5]}] * 2})
        profile = self._write("profile-pd.json", {"strategies": [[0.5, 0.5]] * 2})
        good_pi = self._write("pi-pd.json", pi)

        def rejects(path: str):
            return lambda code, out, err: code == 2 and path in err

        return [
            self._op("cli-nan-profile", ["verify", "--game", game, "--profile", nan_profile, "--pi", good_pi],
                     rejects(nan_profile), known_fault=True),
            self._op("cli-nan-pi", ["verify", "--game", game, "--profile", profile, "--pi", nan_pi],
                     rejects(nan_pi), known_fault=True),
        ]


WORKLOADS = {"fixed-points": FixedPoints, "rates": Rates, "verify": Verify, "cli-cold": CliCold}
