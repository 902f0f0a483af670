"""Reference computations the benchmark checks toleq's answers against.

Nothing here calls into toleq: each oracle recomputes an answer from the
paper's definitions by a different method than the library uses.

- Fixed points of h(a) = 1 - a - F(gap(a)) for piecewise-linear F are found
  by enumerating the pieces on which h is linear; for a truncated
  exponential F, h is convex between the two knots of F, so each piece has
  at most two roots, bracketed around its minimum.
- Discrete fixed points are picked from the candidate set: every fixed point
  of a step response equals a suffix mass of the tolerance distribution.
- Cooperation rates are a midpoint sum over 10**6 beliefs of the closed-form
  threshold, with the Bertrand floor share enumerated outcome by outcome.
- Equilibrium verdicts come from an integer max-flow between type mass and
  strategy mass, with regrets from a tensordot contraction of the payoffs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque

import numpy as np

ROOT_TOL = 1e-12  # |h| at or below this counts as a root, as in toleq's grid scan
EPS = 1e-9  # toleq's default comparison tolerance, used where the method defines ties
MASS_UNITS = 24  # integer-mass instances put every mass on a multiple of 1/24


# --------------------------------------------------------------------------
# Continuous CDFs, evaluated on scalars without numpy.


def pl_cdf(xs, ys):
    """F for knots (xs, ys): 0 left of xs[0], ys[-1] right of xs[-1], linear between."""

    def F(x: float) -> float:
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        k = bisect.bisect_right(xs, x) - 1
        x0, x1, y0, y1 = xs[k], xs[k + 1], ys[k], ys[k + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    return F


def texp_cdf(rate: float, cap: float, shift: float):
    """Exponential(rate) truncated to [shift, shift + cap]."""
    norm = 1.0 - math.exp(-rate * cap)

    def F(x: float) -> float:
        z = min(max(x - shift, 0.0), cap)
        return (1.0 - math.exp(-rate * z)) / norm

    return F


def gap(delta_c: float, delta_d: float, alpha: float) -> float:
    return alpha * delta_c + (1.0 - alpha) * delta_d


# --------------------------------------------------------------------------
# Roots of a function that is linear or convex between known breakpoints.


def _roots_between(h, points, convex: bool) -> list[float]:
    """Roots of h on [points[0], points[-1]].

    h is linear (or, with convex=True, convex) between consecutive points.
    A point with |h| <= ROOT_TOL is a root; inside a piece, a linear h has
    at most one crossing and a convex h at most two, found either side of
    its minimum.
    """
    values = [h(p) for p in points]
    roots = [p for p, v in zip(points, values) if abs(v) <= ROOT_TOL]
    for (a, fa), (b, fb) in zip(zip(points, values), zip(points[1:], values[1:])):
        if b <= a:
            continue
        if not convex:
            if abs(fa) > ROOT_TOL and abs(fb) > ROOT_TOL and (fa > 0) != (fb > 0):
                roots.append(a + fa * (b - a) / (fa - fb))
            continue
        m = _argmin_convex(h, a, b)
        fm = h(m)
        if abs(fm) <= ROOT_TOL:
            roots.append(m)
        elif fm < 0:
            if fa > ROOT_TOL:
                roots.append(_bisect(h, a, m, fa))
            if fb > ROOT_TOL:
                roots.append(_bisect(h, m, b, fm))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-12:
            merged.append(r)
    return merged


def _argmin_convex(h, a: float, b: float) -> float:
    """Golden-section search for the minimum of a convex function on [a, b]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, b
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        c = hi - inv * (hi - lo)
        d = lo + inv * (hi - lo)
        if h(c) <= h(d):
            hi = d
        else:
            lo = c
    return 0.5 * (lo + hi)


def _bisect(h, lo: float, hi: float, flo: float) -> float:
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid


def _crossings(delta_c: float, delta_d: float, xs) -> list[float]:
    """Where gap(a) crosses each knot, for a strictly inside (0, 1)."""
    if delta_c == delta_d:
        return []
    out = []
    for x in xs:
        a = (x - delta_d) / (delta_c - delta_d)
        if 0.0 < a < 1.0:
            out.append(a)
    return out


def symmetric_h(delta_c: float, delta_d: float, F):
    return lambda a: 1.0 - a - F(gap(delta_c, delta_d, a))


def pl_symmetric_roots(delta_c, delta_d, xs, ys) -> list[float]:
    """All roots of 1 - a - F(gap(a)) on [0, 1] for piecewise-linear F."""
    points = sorted({0.0, 1.0, *_crossings(delta_c, delta_d, xs)})
    return _roots_between(symmetric_h(delta_c, delta_d, pl_cdf(xs, ys)), points, convex=False)


def texp_symmetric_roots(delta_c, delta_d, rate, cap, shift) -> list[float]:
    """All roots for a truncated-exponential F (concave on its support)."""
    points = sorted({0.0, 1.0, *_crossings(delta_c, delta_d, (shift, shift + cap))})
    h = symmetric_h(delta_c, delta_d, texp_cdf(rate, cap, shift))
    return _roots_between(h, points, convex=True)


def pl_asymmetric_roots(p1, p2, knots1, knots2) -> list[float]:
    """Roots a1 of R1(R2(a1)) - a1 with R_i(a) = 1 - F_i(gap_i(a)), F_i piecewise linear.

    p1 and p2 are (delta_c, delta_d) pairs, knots1 and knots2 are (xs, ys).
    R2 is linear between the crossings of gap_2 with F_2's knots; on each
    such piece, gap_1(R2(a1)) is linear too, so its crossings with F_1's
    knots complete the breakpoints of the composition.
    """
    F1, F2 = pl_cdf(*knots1), pl_cdf(*knots2)
    r2 = lambda a: 1.0 - F2(gap(*p2, a))
    g1 = lambda a: gap(*p1, r2(a))
    points = sorted({0.0, 1.0, *_crossings(*p2, knots2[0])})
    extra = []
    for a, b in zip(points, points[1:]):
        ga, gb = g1(a), g1(b)
        if ga == gb:
            continue
        for x in knots1[0]:
            s = (x - ga) / (gb - ga)
            if 0.0 < s < 1.0:
                extra.append(a + s * (b - a))
    points = sorted(set(points) | set(extra))
    phi = lambda a: 1.0 - F1(g1(a)) - a
    return _roots_between(phi, points, convex=False)


def well_conditioned(h, roots, min_sep: float = 2e-3, probe: float = 1e-3, floor: float = 1e-5) -> bool:
    """Roots that a grid of spacing 1e-4 resolves: separated, and crossing.

    Interior roots must lie min_sep from each other and from 0 and 1, with
    |h| >= floor on both sides at distance probe and opposite signs there.
    A root at 0 or 1 must have |h| >= floor at distance probe inside.
    """
    if not roots:
        return False
    for a, b in zip(roots, roots[1:]):
        if b - a < min_sep:
            return False
    for r in roots:
        if r in (0.0, 1.0):
            inside = h(probe) if r == 0.0 else h(1.0 - probe)
            if abs(inside) < floor:
                return False
            continue
        if r < min_sep or r > 1.0 - min_sep:
            return False
        left, right = h(r - probe), h(r + probe)
        if abs(left) < floor or abs(right) < floor or (left > 0) == (right > 0):
            return False
    return True


# --------------------------------------------------------------------------
# Discrete tolerance distributions.


def mass_at_least(support, probs, x: float, eps: float = EPS) -> float:
    """Mass on atoms t >= x - eps (ties cooperate)."""
    return sum(p for t, p in zip(support, probs) if t >= x - eps)


def discrete_fixed_points(delta_c, delta_d, support, probs) -> list[float]:
    """Fixed points a = mass_at_least(gap(a)); each is a suffix mass of pi."""
    suffixes = [sum(probs[k:]) for k in range(len(probs) + 1)]
    found = sorted(
        {s for s in suffixes
         if abs(mass_at_least(support, probs, gap(delta_c, delta_d, min(max(s, 0.0), 1.0))) - s) <= 1e-12}
    )
    out: list[float] = []
    for s in found:
        if not out or s - out[-1] > EPS:
            out.append(min(max(s, 0.0), 1.0))
    return out


def discrete_is_clear(delta_c, delta_d, support, probs, margin: float = 1e-6) -> bool:
    """No tie within margin: every suffix-mass candidate keeps its gap away from
    every atom and away from the alphas at which gap crosses an atom."""
    suffixes = [sum(probs[k:]) for k in range(len(probs) + 1)]
    crossings = _crossings(delta_c, delta_d, support)
    for s in suffixes:
        g = gap(delta_c, delta_d, min(max(s, 0.0), 1.0))
        if any(abs(g - t) < margin for t in support):
            return False
        if any(abs(s - c) < margin for c in crossings):
            return False
    return abs(delta_c - delta_d) > margin


def symmetric_pass(delta_c, delta_d, support, probs, alpha: float) -> bool:
    """Verdict for the symmetric 2x2 PD profile (alpha, 1 - alpha).

    C has regret gap(alpha) and D none, so the profile passes iff the types
    able to play C (tolerance >= gap) carry at least the mass alpha.
    """
    if alpha <= EPS:
        return True
    return alpha <= mass_at_least(support, probs, gap(delta_c, delta_d, alpha)) + EPS


def symmetric_is_clear(delta_c, delta_d, support, probs, alphas, margin: float = 1e-7) -> bool:
    for a in alphas:
        g = gap(delta_c, delta_d, a)
        if any(abs(g - t) < margin for t in support):
            return False
        if a > EPS and abs(a - mass_at_least(support, probs, g)) < margin:
            return False
    return True


def runs_of(alphas, passing) -> list[tuple[float, float]]:
    """Maximal runs of passing grid points, by their first and last alpha."""
    out, start = [], None
    for i, ok in enumerate(passing):
        if ok and start is None:
            start = i
        if not ok and start is not None:
            out.append((alphas[start], alphas[i - 1]))
            start = None
    if start is not None:
        out.append((alphas[start], alphas[-1]))
    return out


def dominates(hi_support, hi_probs, lo_support, lo_probs, eps: float = EPS) -> bool:
    """hi's CDF at or below lo's at every atom of either."""
    cdf = lambda sup, pr, t: sum(p for a, p in zip(sup, pr) if a <= t)
    points = sorted(set(hi_support) | set(lo_support))
    return all(cdf(hi_support, hi_probs, t) <= cdf(lo_support, lo_probs, t) + eps for t in points)


# --------------------------------------------------------------------------
# Games: payoff formulas, regrets by contraction, max-flow feasibility.


def regrets(payoffs: np.ndarray, sigma, player: int) -> np.ndarray:
    """Best-response payoff minus each pure strategy's payoff, by tensordot."""
    n = payoffs.ndim - 1
    table = payoffs[..., player]
    for j in reversed(range(n)):
        if j != player:
            table = np.tensordot(table, np.asarray(sigma[j], dtype=float), axes=([j], [0]))
    return table.max() - table


def td_payoffs(low: int, high: int, bonus: int, mine, theirs):
    """Traveler's Dilemma payoff to the claimant of `mine`."""
    return np.where(mine == theirs, mine, np.where(mine < theirs, mine + bonus, theirs - bonus))


def bertrand_payoffs(prices, player: int):
    """Share of the sale to `player`: its price if lowest, split among ties."""
    lowest = np.minimum.reduce(prices)
    ties = sum((p == lowest).astype(float) for p in prices)
    return np.where(prices[player] == lowest, lowest / ties, 0.0)


def pg_payoffs(contributions, rho: float, player: int):
    return 1.0 - contributions[player] + rho * sum(contributions)


def check_dilemma_tensor(kind: str, params: dict, payoffs: np.ndarray) -> bool:
    """Compare a built payoff tensor with the dilemma's formula, one slice of
    the first player's strategy at a time so the check adds little memory."""
    n = payoffs.ndim - 1
    k = payoffs.shape[0]
    if kind == "td":
        values = np.arange(params["low"], params["high"] + 1, dtype=float)
    elif kind == "bertrand":
        values = np.arange(params["floor"], params["cap"] + 1, dtype=float)
    elif kind == "pg":
        values = np.linspace(0.0, 1.0, params["levels"])
    else:
        raise ValueError(kind)
    if len(values) != k or payoffs.shape != (k,) * n + (n,):
        return False
    for first in range(k):
        grids = np.meshgrid(*([values[first : first + 1]] + [values] * (n - 1)), indexing="ij")
        grids = [g[0] for g in grids]
        for i in range(n):
            if kind == "td":
                want = td_payoffs(params["low"], params["high"], params["bonus"], grids[i], grids[1 - i])
            elif kind == "bertrand":
                want = bertrand_payoffs(grids, i)
            else:
                want = pg_payoffs(grids, params["rho"], i)
            if not np.allclose(payoffs[first, ..., i], want, rtol=0.0, atol=1e-12):
                return False
    return True


def max_flow(capacity: dict, source, sink) -> int:
    """Edmonds-Karp on a dict-of-dicts of integer capacities."""
    residual = {u: dict(vs) for u, vs in capacity.items()}
    for u, vs in capacity.items():
        for v in vs:
            residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        push, v = None, sink
        while parent[v] is not None:
            u = parent[v]
            push = residual[u][v] if push is None else min(push, residual[u][v])
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        flow += push


def player_feasible(regret_vec, sigma_units, support, type_units, eps: float = EPS) -> bool:
    """Type mass can be routed onto strategy mass with each type playing only
    strategies whose regret is within its tolerance."""
    total = sum(type_units)
    if total != sum(sigma_units):
        raise ValueError("type and strategy masses differ")
    cap: dict = {"src": {}, "snk": {}}
    for j, (t, units) in enumerate(zip(support, type_units)):
        cap["src"][("t", j)] = units
        cap[("t", j)] = {
            ("s", s): total
            for s, u in enumerate(sigma_units)
            if u > 0 and regret_vec[s] <= t + eps
        }
    for s, u in enumerate(sigma_units):
        if u > 0:
            cap[("s", s)] = {"snk": u}
    return max_flow(cap, "src", "snk") == total


def witness_ok(regret_vec, sigma, support, probs, witness_support, witness_strategies,
               eps: float = EPS, mix_tol: float = 1e-9) -> bool:
    """Each type plays only strategies within its tolerance, and the
    mass-weighted mixture rebuilds sigma."""
    if tuple(witness_support) != tuple(support):
        return False
    mixture = np.zeros(len(sigma))
    for t, p, strategy in zip(support, probs, witness_strategies):
        strategy = np.asarray(strategy, dtype=float)
        if abs(strategy.sum() - 1.0) > mix_tol or np.any(strategy < -mix_tol):
            return False
        if np.any((strategy > eps) & (np.asarray(regret_vec) > t + eps)):
            return False
        mixture += p * strategy
    return float(np.max(np.abs(mixture - np.asarray(sigma, dtype=float)))) <= mix_tol


def remap_ok(lo_support, lo_probs, g_strategies, hi_support, hi_probs, g2_support, g2_strategies,
             eps: float = EPS, mix_tol: float = 1e-9) -> bool:
    """A remap keeps the mixture and gives no type a strategy that only
    higher-tolerance types of the source played."""
    if tuple(g2_support) != tuple(hi_support):
        return False
    before = sum(p * np.asarray(s, dtype=float) for p, s in zip(lo_probs, g_strategies))
    after = sum(p * np.asarray(s, dtype=float) for p, s in zip(hi_probs, g2_strategies))
    if float(np.max(np.abs(before - after))) > mix_tol:
        return False
    for t_hi, strategy in zip(hi_support, g2_strategies):
        allowed = set()
        for t_lo, source in zip(lo_support, g_strategies):
            if t_lo <= t_hi + eps:
                allowed.update(i for i, p in enumerate(source) if p > eps)
        if any(p > eps and i not in allowed for i, p in enumerate(strategy)):
            return False
    return True


# --------------------------------------------------------------------------
# Dilemma thresholds and cooperation rates.

QUAD_NODES = 10**6


def bertrand_share(n: int, beta: np.ndarray) -> np.ndarray:
    """Expected share when pricing at the floor against n - 1 rivals, each
    pricing high with probability beta, by enumerating every rival outcome."""
    total = np.zeros_like(beta)
    for outcome in itertools.product((True, False), repeat=n - 1):
        high = sum(outcome)
        prob = beta**high * (1.0 - beta) ** (n - 1 - high)
        total += prob / (n - high)
    return total


def threshold(spec: dict, beta: np.ndarray) -> np.ndarray:
    """The paper's closed-form cooperation threshold at belief beta."""
    kind = spec["kind"]
    if kind == "pd":
        return np.full_like(beta, spec["c"])
    if kind == "pg":
        return np.full_like(beta, 1.0 - spec["rho"])
    if kind == "td":
        b, span = spec["b"], spec["H"] - spec["L"]
        return np.maximum(beta * (b - 1.0), b - beta * span)
    if kind == "bertrand":
        n, low, high = spec["n"], spec["L"], spec["H"]
        lead = beta ** (n - 1)
        return np.maximum(lead * (high - 1.0), bertrand_share(n, beta) * low) - lead * high / n
    raise ValueError(kind)


def scale(spec: dict) -> float:
    """All-cooperate payoff, the unit of relative tolerance."""
    kind = spec["kind"]
    if kind == "pd":
        return spec["b"] - spec["c"]
    if kind == "pg":
        return spec["N"] * spec["rho"]
    if kind == "td":
        return float(spec["H"])
    return spec["H"] / spec["n"]


def cooperation_rate(spec: dict, q: float, beta_point: float | None, nodes: int = QUAD_NODES) -> float:
    """q times the mean over beliefs of clip(1 - threshold / scale, 0, 1).

    A pinned belief is evaluated directly; a uniform belief by the midpoint
    rule on `nodes` cells, summed in chunks to keep memory flat.
    """
    unit = scale(spec)
    conditional = lambda b: np.clip(1.0 - threshold(spec, b) / unit, 0.0, 1.0)
    if beta_point is not None:
        return q * float(conditional(np.array([float(beta_point)]))[0])
    total, chunk = 0.0, 100_000
    for start in range(0, nodes, chunk):
        stop = min(start + chunk, nodes)
        betas = (np.arange(start, stop, dtype=float) + 0.5) / nodes
        total += float(conditional(betas).sum())
    return q * total / nodes


def mc_agrees(mc_rate: float, exact: float, samples: int, sigmas: float = 5.0) -> bool:
    """Monte Carlo rate within `sigmas` standard errors of the exact rate."""
    stderr = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
    return abs(mc_rate - exact) <= sigmas * stderr + 1e-12
