"""Independent oracles and instance generators for the test suite.

Everything here deliberately avoids the library's computation paths: expected
utilities are plain loops over pure profiles, feasibility goes through an
integer max-flow, the first failed threshold inequality is found by plain
loops over atoms and strategies, the Bertrand share factor is enumerated
outcome by outcome, fixed-point roots come from a grid scan with plain
bisection, discrete fixed points, continuous CDF values and exact
continuous fixed points, the per-player verifier check and the quantile
coupling from the numpy code that the plain-float code replaced,
dominance from one ``cdf`` call per atom, and Monte Carlo cooperation rates
from the whole-array sampler that the blocked one replaced, thresholds from
the ``numpy.polynomial`` code that the Horner one replaced, exact rates from
companion-matrix kinks and Gauss-Legendre, built Bertrand utilities from
Gauss-Legendre, and remaps and their mixture check from the matmul.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as poly
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

import toleq as tq
from toleq.numeric import _bracketed_root, epsnum
from toleq.pd_tolerant import (
    _ROOT_RESIDUAL,
    _gap,
    _knots,
    _line_solver,
    _texp_alpha_at_density,
    _texp_minimum,
)

MASS_UNITS = 24  # all random masses are multiples of 1/24, so flow is exact


def brute_expected_utility(game, profile, player):
    total = 0.0
    for pure in itertools.product(*(range(k) for k in game.num_strategies)):
        prob = 1.0
        for i, s in enumerate(pure):
            prob *= profile[i].probs[s]
        total += prob * game.payoffs[pure + (player,)]
    return total


def maxflow_feasible(type_units, strategy_units, edges):
    """Exact transportation feasibility on integer masses.

    edges[j] is the set of strategy indices type j may play; feasible iff a
    flow saturates every source (totals on both sides are equal).
    """
    total = sum(type_units)
    assert total == sum(strategy_units)
    n_types, n_strats = len(type_units), len(strategy_units)
    size = 2 + n_types + n_strats
    graph = np.zeros((size, size), dtype=np.int64)
    for j, units in enumerate(type_units):
        graph[0, 1 + j] = units
    for s, units in enumerate(strategy_units):
        graph[1 + n_types + s, size - 1] = units
    for j, allowed in enumerate(edges):
        for s in allowed:
            graph[1 + j, 1 + n_types + s] = total
    result = maximum_flow(csr_matrix(graph), 0, size - 1)
    return result.flow_value == total


def oracle_tolerant_verdict(game, profile, pi, pi_units, sigma_units, eps=1e-9):
    """Max-flow verdict on integer-mass instances, one player at a time."""
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        dist = pi[player]
        edges = [
            {s for s in range(len(regret_vec)) if regret_vec[s] <= t + eps}
            for t in dist.support
        ]
        if not maxflow_feasible(pi_units[player], sigma_units[player], edges):
            return False
    return True


def reference_violation(game, profile, pi, eps=1e-9):
    """First failed threshold inequality, by plain loops over players and atoms.

    At each atom t, the supported strategy mass (entries above eps) with
    regret above t + eps must be at most the type mass above t, plus eps.
    Returns None when every inequality holds, else (player, threshold,
    excess_mass, stranded), where excess_mass is that strategy mass less
    that type mass, and stranded is the lowest index of a supported strategy
    whose regret exceeds every tolerance, or None.
    """
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        sigma = profile[player].probs
        dist = pi[player]
        top = dist.support[-1]
        stranded = [s for s, p in enumerate(sigma) if p > eps and regret_vec[s] > top + eps]
        if stranded:
            return player, top, sum(sigma[s] for s in stranded), stranded[0]
        for j, t in enumerate(dist.support):
            room = sum(dist.probs[j + 1:])
            needed = sum(
                p for s, p in enumerate(sigma) if p > eps and regret_vec[s] > t + eps
            )
            if needed > room + eps:
                return player, t, needed - room, None
    return None


def witness_exists(game, profile, pi, base, margin=0.99, eps=1e-9):
    """Whether some witness keeps every mixture entry within margin * eps of
    the profile, each type playing a strategy above its tolerance with
    probability at most margin * eps, by a linear program per player.

    The program is in the deviations from the assignment ``base`` (a witness
    map per player), in units of eps, so that the solver's tolerances, about
    1e-7 of a unit, stay far below eps.
    """
    bound = margin * eps
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        sigma = np.asarray(profile[player].probs)
        dist = pi[player]
        n, k = len(dist.support), len(sigma)
        x0 = np.array([np.asarray(g.probs) * p for g, p in zip(base[player].strategies, dist.probs)])
        rows = np.kron(np.eye(n), np.ones(k))
        cols = np.kron(np.ones(n), np.eye(k))
        bounds = [
            (-x0[j, s] / eps, None if regret_vec[s] <= t + eps else (dist.probs[j] * bound - x0[j, s]) / eps)
            for j, t in enumerate(dist.support)
            for s in range(k)
        ]
        mixture = x0.sum(axis=0)
        result = linprog(
            np.zeros(n * k),
            A_ub=np.vstack([cols, -cols]),
            b_ub=np.concatenate([(sigma + bound - mixture) / eps, (mixture - sigma + bound) / eps]),
            A_eq=rows,
            b_eq=(np.asarray(dist.probs) - x0.sum(axis=1)) / eps,
            bounds=bounds,
            method="highs",
        )
        if result.status != 0:
            return False
    return True


def is_standard_epsilon_nash(game, profile, epsilon, tol=1e-12):
    """Textbook payoff-gap check: no pure deviation gains more than epsilon."""
    for player in range(game.num_players):
        current = brute_expected_utility(game, profile, player)
        size = game.num_strategies[player]
        for s in range(size):
            strategies = list(profile.strategies)
            strategies[player] = tq.MixedStrategy.pure(s, size)
            deviation = brute_expected_utility(game, tq.MixedProfile(tuple(strategies)), player)
            if deviation > current + epsilon + tol:
                return False
    return True


def bisect_root(fn, lo, hi, f_lo):
    """Plain bisection of a scalar fn whose sign differs at lo and hi: halve
    until lo and hi are adjacent floats, or return an exact zero at once."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_and_bisect_roots(fn, intervals=10_000, tol=1e-12):
    """Roots of fn on [0, 1] by a plain loop over a uniform grid.

    fn takes an array of alphas, evaluated once on the grid.  A grid point
    with |fn| <= tol is a root; every other cell whose ends have opposite
    signs is bisected.  Roots closer together than a cell, and tangencies
    between grid points, are missed, so callers compare only on instances
    the grid resolves.
    """
    alphas = [k / intervals for k in range(intervals + 1)]
    values = [float(v) for v in fn(np.array(alphas))]

    def scalar(alpha):
        return float(fn(np.array([alpha]))[0])

    roots = []
    for k, (alpha, value) in enumerate(zip(alphas, values)):
        if abs(value) <= tol:
            roots.append(alpha)
        elif k and abs(values[k - 1]) > tol and (values[k - 1] > 0) != (value > 0):
            roots.append(bisect_root(scalar, alphas[k - 1], alpha, values[k - 1]))
    return roots


def reference_solve_discrete(p, pi):
    """The numpy solve_discrete that the plain-float one replaced, kept
    verbatim as the reference it must match bit for bit."""
    e = epsnum()
    atoms = np.asarray(pi.support)
    suffix = np.concatenate((np.cumsum(np.asarray(pi.probs)[::-1])[::-1], [0.0]))

    def mass_at_least(x: float) -> float:
        return float(suffix[np.searchsorted(atoms, x - e, side="left")])

    d_c, d_d = p.delta_c, p.delta_d

    def gap(alpha: float) -> float:
        return alpha * d_c + (1.0 - alpha) * d_d

    solutions: list[float] = []
    if abs(d_c - d_d) <= e:
        solutions.append(mass_at_least(d_d))
    else:
        breaks = sorted(
            {float((t - d_d) / (d_c - d_d)) for t in atoms if 0.0 < (t - d_d) / (d_c - d_d) < 1.0}
        )
        # Walk the pieces in the direction in which the response falls: up
        # from alpha = 0 when gap grows with alpha, down from 1 otherwise.
        # Each piece is evaluated at its far end, which it owns; its near end
        # belongs to the previous piece, or to the check at the start.
        sign = 1.0 if d_c > d_d else -1.0
        walk = [0.0, *breaks, 1.0][:: int(sign)]
        if abs(mass_at_least(gap(walk[0])) - walk[0]) <= e:
            solutions.append(walk[0])
        for near, far in zip(walk, walk[1:]):
            value = mass_at_least(gap(far))
            if sign * (near + sign * e) < sign * value <= sign * (far + sign * e):
                solutions.append(value)

    deduped: list[float] = []
    for s in sorted(solutions):
        if not deduped or s - deduped[-1] > e:
            deduped.append(min(max(s, 0.0), 1.0))
    return deduped


def reference_evaluate(cdf, x):
    """The numpy ``_evaluate`` of each shipped CDF family that the plain-float
    ones replaced, kept verbatim, on an array x."""
    if isinstance(cdf, tq.UniformCdf):
        return np.minimum(np.maximum((x - cdf.lo) / (cdf.hi - cdf.lo), 0.0), 1.0)
    if isinstance(cdf, tq.PiecewiseLinearCdf):
        return np.interp(x, cdf.xs, cdf.ys)
    z = np.minimum(np.maximum(x - cdf.shift, 0.0), cdf.cap)
    ratio = -np.expm1(-cdf.rate * z) / -math.expm1(-cdf.rate * cdf.cap)
    return np.minimum(np.maximum(ratio, 0.0), 1.0)


def reference_cdf(cdf):
    """F as ``ContinuousCdf.__call__`` evaluated it with the numpy
    ``_evaluate``: a float for a scalar, an array for an array."""

    def call(x):
        arr = np.asarray(x, dtype=float)
        out = reference_evaluate(cdf, arr)
        return float(out) if arr.ndim == 0 else out

    return call


def reference_linear_crossings(x0, x1, y0, y1, targets) -> np.ndarray:
    """The numpy ``pd_tolerant._linear_crossings`` that the segment loop
    replaced, kept verbatim."""
    x0, x1, y0, y1 = (np.array(v, dtype=float, ndmin=1) for v in (x0, x1, y0, y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (np.asarray(targets, dtype=float)[None, :] - y0[:, None]) / (y1 - y0)[:, None]
    inside = (s > 0.0) & (s < 1.0)
    return (x0[:, None] + s * (x1 - x0)[:, None])[inside]


def reference_breakpoints(p, knots) -> np.ndarray:
    """The numpy ``pd_tolerant._breakpoints``, kept verbatim."""
    return np.union1d([0.0, 1.0], reference_linear_crossings(0.0, 1.0, p.delta_d, p.delta_c, knots))


def _reference_density_on_piece(cdf, x: float):
    knots = _knots(cdf)
    k = int(np.searchsorted(knots, x, side="right"))
    if not 0 < k < len(knots):
        return lambda y: 0.0
    if isinstance(cdf, tq.TruncatedExponentialCdf):
        scale = cdf.rate / -math.expm1(-cdf.rate * cdf.cap)
        return lambda y: scale * math.exp(-cdf.rate * (y - cdf.shift))
    F = reference_cdf(cdf)
    slope = (F(knots[k]) - F(knots[k - 1])) / (knots[k] - knots[k - 1])
    return lambda y: slope


def _reference_with_critical_points(p1, p2, cdf1, cdf2, respond2, points: np.ndarray) -> np.ndarray:
    k1, k2 = p1.delta_c - p1.delta_d, p2.delta_c - p2.delta_d
    both_texp = isinstance(cdf1, tq.TruncatedExponentialCdf) and isinstance(cdf2, tq.TruncatedExponentialCdf)
    if both_texp and k1 * k2 > 0:
        points = np.union1d(points, _texp_alpha_at_density(p2, cdf2, cdf2.rate / (cdf1.rate * k1)))
    critical = []
    for a, b in zip(points[:-1].tolist(), points[1:].tolist()):
        mid = 0.5 * (a + b)
        f1 = _reference_density_on_piece(cdf1, _gap(p1, respond2(mid)))
        f2 = _reference_density_on_piece(cdf2, _gap(p2, mid))

        def dphi(alpha):
            return k1 * k2 * f1(_gap(p1, respond2(alpha))) * f2(_gap(p2, alpha)) - 1.0

        d_a, d_b = dphi(a), dphi(b)
        if d_a * d_b < 0:
            critical.append(_bracketed_root(dphi, a, b, d_a, d_b))
    return np.union1d(points, critical)


def reference_roots_on_pieces(points: np.ndarray, values: np.ndarray, fn, solve_piece):
    """The numpy ``pd_tolerant._roots_on_pieces``, kept verbatim."""
    zero = np.abs(values) <= _ROOT_RESIDUAL
    positive = values > 0.0
    last = len(points) - 1
    roots = []
    starts = np.flatnonzero(zero & ~np.concatenate(([False], zero[:-1])))
    ends = np.flatnonzero(zero & ~np.concatenate((zero[1:], [False])))
    for s, e in zip(starts, ends):
        marginal = bool(0 < s and e < last and positive[s - 1] == positive[e + 1])
        bracket = (float(points[s]), float(points[e]))
        for k in (s, e) if e > s else (s,):
            roots.append(tq.FixedPointRoot(float(points[k]), bracket, abs(float(values[k])), marginal))
    cells = np.flatnonzero(~zero[:-1] & ~zero[1:] & (positive[:-1] != positive[1:]))
    inside = [
        solve_piece(float(points[k]), float(points[k + 1]), float(values[k]), float(values[k + 1]))
        for k in cells
    ]
    if inside:
        residuals = np.abs(fn(np.array(inside)))
        for k, root, residual in zip(cells, inside, residuals):
            roots.append(tq.FixedPointRoot(root, (float(points[k]), float(points[k + 1])), float(residual)))
    return sorted(roots, key=lambda r: r.alpha_star)


def reference_solve_symmetric(p, cdf):
    """The numpy ``solve_symmetric`` that the plain-float one replaced, kept
    verbatim but for F, the numpy evaluation of ``reference_cdf``."""
    points = reference_breakpoints(p, _knots(cdf))
    F = reference_cdf(cdf)

    def h(alpha):
        return 1.0 - alpha - F(_gap(p, alpha))

    if isinstance(cdf, tq.TruncatedExponentialCdf):
        points = np.union1d(points, _texp_minimum(p, cdf))
        roots = reference_roots_on_pieces(points, h(points), h, partial(_bracketed_root, h))
    else:
        roots = reference_roots_on_pieces(points, h(points), h, _line_solver(h))
    return tq.FixedPointReport(
        roots=tuple(roots),
        has_zero_root=F(p.delta_d) >= 1.0 - epsnum(),
        uniqueness_certified=p.delta_c > p.delta_d,
        classification="unique" if p.delta_c > p.delta_d else "possibly-multiple",
    )


def reference_solve_asymmetric(p1, p2, cdf1, cdf2):
    """The numpy ``solve_asymmetric`` that the plain-float one replaced, kept
    verbatim but for F1 and F2, the numpy evaluations of ``reference_cdf``.
    Returns the roots of phi, not just the pairs."""
    knots1, knots2 = _knots(cdf1), _knots(cdf2)
    F1, F2 = reference_cdf(cdf1), reference_cdf(cdf2)

    def respond1(alpha2):
        return 1.0 - F1(_gap(p1, alpha2))

    def respond2(alpha1):
        return 1.0 - F2(_gap(p2, alpha1))

    def phi(alpha1):
        return respond1(respond2(alpha1)) - alpha1

    points = reference_breakpoints(p2, knots2)
    targets = reference_linear_crossings(0.0, 1.0, p1.delta_d, p1.delta_c, knots1)
    if isinstance(cdf2, tq.TruncatedExponentialCdf):
        # R2 = 1 - u where gap2 is the quantile shift - log1p(-u (1 - e^(-rate cap))) / rate
        norm = -math.expm1(-cdf2.rate * cdf2.cap)
        quantiles = cdf2.shift - np.log1p(-(1.0 - targets) * norm) / cdf2.rate
        preimages = reference_linear_crossings(0.0, 1.0, p2.delta_d, p2.delta_c, quantiles)
    else:
        r2 = respond2(points)
        preimages = reference_linear_crossings(points[:-1], points[1:], r2[:-1], r2[1:], targets)
    points = np.union1d(points, preimages)
    if isinstance(cdf1, tq.TruncatedExponentialCdf) or isinstance(cdf2, tq.TruncatedExponentialCdf):
        points = _reference_with_critical_points(p1, p2, cdf1, cdf2, respond2, points)
        roots = reference_roots_on_pieces(points, phi(points), phi, partial(_bracketed_root, phi))
    else:
        roots = reference_roots_on_pieces(points, phi(points), phi, _line_solver(phi))
    return roots, [(r.alpha_star, respond2(r.alpha_star)) for r in roots]


def reference_quantile_coupling(row_pos, row_cum, col_pos, col_cum):
    """The numpy ``tolerance._quantile_coupling`` that the plain-float one
    replaced, kept verbatim as the reference it must match.

    Entry [j, h] is the overlap of [row_cum[j], row_cum[j+1]] and [B[h],
    B[h+1]].  A row may take only from columns at most eps above it, so B,
    the one rule for atoms lighter than eps, is col_cum with each boundary
    moved right, up to the column total, by the largest shortfall so far of
    the rows that may not pass it: at most eps under dominance within eps.
    A row left without mass, past the column total or too light to widen the
    cumulative sum, takes its mass or the smallest normal float from column 0.
    """
    reach = np.searchsorted(col_pos, np.add(row_pos, epsnum()), side="right")
    bounds = col_cum
    debt = row_cum[1:] - col_cum[reach]  # how far each row ends past the columns it may use
    if debt.max() > 0.0:
        shift = np.maximum.accumulate(np.concatenate(((0.0,), debt)))
        shift = shift[np.searchsorted(reach, np.arange(1, len(col_pos) + 1), side="right")]
        bounds = np.concatenate((col_cum[:1], np.minimum(col_cum[1:] + shift, col_cum[-1])))
    weights = np.minimum.outer(row_cum[1:], bounds[1:]) - np.maximum.outer(row_cum[:-1], bounds[:-1])
    weights = np.maximum(weights, 0.0)
    fed = weights.any(axis=1)
    if not fed.all():
        weights[~fed, 0] = np.maximum(np.diff(row_cum)[~fed], np.finfo(float).tiny)
    return weights


def reference_player_check(sigma, regret_vec, dist, player):
    """The numpy ``equilibrium._player_check`` that the plain-float one
    replaced, kept verbatim (on numpy arrays sigma and regret_vec) as the
    reference it must match."""
    eps = epsnum()
    supported = sigma > eps
    stranded = supported & (regret_vec > dist.max_tolerance + eps)
    if stranded.any():
        worst = int(np.argmax(stranded))
        return tq.Violation(
            player=player,
            threshold=dist.max_tolerance,
            excess_mass=float(sigma[stranded].sum()),
            detail=(
                f"strategy {worst} carries probability {sigma[worst]:.6g} "
                f"but its regret {regret_vec[worst]:.6g} exceeds every "
                "tolerance type"
            ),
        )

    order = np.argsort(regret_vec, kind="stable")
    supported_cum = np.zeros(len(sigma) + 1)
    np.cumsum(np.where(supported, sigma, 0.0)[order], out=supported_cum[1:])
    type_cum = np.cumsum((0.0, *dist.probs))
    tolerances = np.asarray(dist.support) + eps
    ranked = regret_vec[order]
    kept = supported_cum[np.searchsorted(ranked, tolerances, side="right")]
    slack = type_cum[-1] - supported_cum[-1]
    failed = np.flatnonzero(type_cum[1:] > kept + slack + eps)
    if failed.size:
        j = int(failed[0])
        t = dist.support[j]
        demand, room = supported_cum[-1] - kept[j], type_cum[-1] - type_cum[j + 1]
        return tq.Violation(
            player=player,
            threshold=t,
            excess_mass=float(demand - room),
            detail=(
                f"strategies with regret above {t:.6g} carry mass {demand:.6g} but only "
                f"{room:.6g} of the type mass has a higher tolerance"
            ),
        )

    unsupported = np.where(supported, 0.0, np.maximum(sigma, 0.0))
    rest = 1.0 - unsupported.sum()
    shares = np.empty((len(tolerances), len(sigma)))
    shares[:, order] = reference_quantile_coupling(dist.support, type_cum * (rest / type_cum[-1]), ranked, supported_cum)
    alloc = unsupported + shares * (rest / shares.sum(axis=1))[:, None]
    return tq.TypeStrategyMap(dist.support, tuple(tq.MixedStrategy(tuple(row)) for row in alloc.tolist()))


def reference_dist_dominates(hi, lo):
    """The pairwise-cdf ``dist_dominates`` that the merge walk replaced: hi's
    CDF at or below lo's, plus eps, at every atom of either support."""
    eps = epsnum()
    points = sorted(set(hi.support) | set(lo.support))
    return all(hi.cdf(t) <= lo.cdf(t) + eps for t in points)


def _reference_threshold_branches(spec):
    """``dilemmas._threshold_branches`` as numpy coefficient arrays, as the
    polyval thresholds read them."""
    if isinstance(spec, tq.TravelersDilemma):
        undercut = np.array([0.0, spec.bonus - 1.0])
        floor_value = np.array([float(spec.bonus), -float(spec.high - spec.low)])
        return undercut, floor_value
    n, low, high = spec.num_firms, spec.price_floor, spec.price_cap
    lead = np.zeros(n)
    lead[-1] = 1.0
    undercut = lead * (high - 1.0 - high / n)
    floor_value = np.full(n, low / n) - lead * (high / n)
    return undercut, floor_value


def _reference_beliefs(beta):
    arr = np.asarray(beta, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("beta must lie in [0, 1]")
    return arr


def reference_cooperation_threshold(spec, beta=None):
    """The ``numpy.polynomial`` cooperation_threshold that the Horner one
    replaced, kept verbatim as the reference it must match bit for bit."""
    if isinstance(spec, (tq.PrisonersDilemma, tq.PublicGoods)):
        value = spec.cost if isinstance(spec, tq.PrisonersDilemma) else 1.0 - spec.marginal_return
        shape = () if beta is None else _reference_beliefs(beta).shape
        return np.full(shape, float(value)) if shape else value
    if beta is None:
        if isinstance(spec, tq.BertrandCompetition):
            raise ValueError("the Bertrand threshold depends on the belief beta")
        return 2.0 * spec.bonus - 1.0
    betas = _reference_beliefs(beta)
    undercut, floor_value = _reference_threshold_branches(spec)
    out = np.maximum(poly.polyval(betas, undercut), poly.polyval(betas, floor_value))
    return float(out) if out.ndim == 0 else out


def _reference_kinks(polys):
    """Real roots in (0, 1) of the polynomials, from companion-matrix
    eigenvalues, sorted and without repeats."""
    trimmed = [np.trim_zeros(c) for c in polys]
    roots = np.concatenate([poly.polyroots(c) for c in trimmed if len(c) > 1])
    real = roots.real[np.abs(roots.imag) <= 1e-7]
    return np.unique(real[(real > 0.0) & (real < 1.0)])


def reference_exact_cooperation_rate(spec, dist):
    """The exact_cooperation_rate that the Horner one replaced, kept verbatim
    as the reference it must match within rounding: kinks from
    companion-matrix eigenvalues, Gauss-Legendre on every piece."""
    scale = tq.all_cooperate_payoff(spec)

    def conditional(betas):
        return np.clip(1.0 - reference_cooperation_threshold(spec, betas) / scale, 0.0, 1.0)

    if dist.beta_point is not None:
        return dist.q * float(conditional(np.asarray(dist.beta_point)))
    if isinstance(spec, (tq.PrisonersDilemma, tq.PublicGoods)):
        return dist.q * float(conditional(np.asarray(0.0)))

    a, b = _reference_threshold_branches(spec)
    kinks = _reference_kinks([poly.polysub(a, b), a, b, poly.polysub(a, [scale]), poly.polysub(b, [scale])])
    edges = np.concatenate(([0.0], kinks, [1.0]))
    nodes, weights = legendre.leggauss((len(a) - 1) // 2 + 1)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    width = np.diff(edges)[:, None]
    betas = np.clip(edges[:-1, None] + width * nodes, 0.0, 1.0)
    return dist.q * float(np.sum(width * weights * conditional(betas)))


def reference_bertrand_utilities(game, opponents, player):
    """The Gauss-Legendre ``_BertrandGame._utilities`` that the power-basis
    one replaced, kept verbatim as the reference it must match within
    rounding."""
    # u_i(p) = p * int_0^1 prod_j (P(s_j > p) + P(s_j = p) * z) dz over rivals j:
    # a tie among m firms pays 1/m = int_0^1 z^(m-1) dz.  The integrand has
    # degree n - 1 in z, so n // 2 + 1 Gauss-Legendre nodes are exact.
    others = np.array([s.probs for j, s in enumerate(opponents.strategies) if j != player])
    above = np.zeros_like(others)
    above[:, :-1] = np.cumsum(others[:, :0:-1], axis=1)[:, ::-1]
    nodes, weights = legendre.leggauss(game.num_players // 2 + 1)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    return game.prices * (np.prod(above[..., None] + others[..., None] * nodes, axis=0) @ weights)


def reference_dominance_remap(lo_dist, hi_dist, g):
    """The matmul ``dominance_remap`` that the plain-float one replaced, kept
    verbatim as the reference it must match."""
    if not g.matches(lo_dist):
        raise ValueError("map domain does not match the source distribution support")
    mix = tq.transport_plan(lo_dist, hi_dist).weights @ np.array([s.probs for s in g.strategies])
    mix = np.clip(mix / mix.sum(axis=1, keepdims=True), 0.0, 1.0)
    return tq.TypeStrategyMap(hi_dist.support, tuple(tq.MixedStrategy(tuple(row)) for row in mix.tolist()))


def reference_remap_preserves_mixture(lo_dist, hi_dist, g, g_prime):
    """The ``remap_preserves_mixture`` whose mixtures came from the matmul in
    ``TypeStrategyMap.mixture``, kept verbatim as the reference that the
    plain-float sums must match."""
    eps = epsnum()
    if not (g.matches(lo_dist) and g_prime.matches(hi_dist)):
        return False
    if np.max(np.abs(g.mixture(lo_dist) - g_prime.mixture(hi_dist))) > eps:
        return False
    for t_hi, strategy in zip(g_prime.support, g_prime.strategies):
        allowed: set[int] = set()
        for t_lo, source in zip(g.support, g.strategies):
            if t_lo <= t_hi + eps:
                allowed.update(source.support())
        if any(index not in allowed for index in strategy.support()):
            return False
    return True


def reference_sample(dist, rng, n):
    """``RelativeTypeDistribution.sample``, which drew whole arrays, kept
    verbatim for ``reference_cooperation_rate``."""
    t_rel = rng.random(n)
    beta = np.full(n, dist.beta_point) if dist.beta_point is not None else rng.random(n)
    is_c = rng.random(n) < dist.q
    return t_rel, beta, is_c


def reference_cooperation_rate(spec, dist, samples, seed):
    """The whole-array cooperation_rate that the blocked one replaced, on the
    polyval thresholds, kept as the reference it must match bit for bit."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    t_rel, beta, is_c = reference_sample(dist, rng, samples)
    thresholds = reference_cooperation_threshold(spec, np.asarray(beta, dtype=float))
    scale = tq.all_cooperate_payoff(spec)
    cooperates = np.asarray(is_c, dtype=bool) & (t_rel * scale >= thresholds - epsnum())
    rate = float(cooperates.mean())
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    return tq.CooperationRate(rate, stderr, tq.exact_cooperation_rate(spec, dist))


def bertrand_f_enum(n, beta):
    """Expected floor-price share by enumerating every rival outcome."""
    total = 0.0
    for outcome in itertools.product((1, 0), repeat=n - 1):
        k = sum(outcome)
        total += beta**k * (1.0 - beta) ** (n - 1 - k) / (n - k)
    return total


def integer_composition(rng, total, parts, allow_zero):
    """Random non-negative integers summing to total."""
    if not allow_zero:
        base = integer_composition(rng, total - parts, parts, allow_zero=True)
        return [u + 1 for u in base]
    cuts = sorted(rng.integers(0, total + 1, size=parts - 1).tolist())
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_game(rng, max_players=3, max_strategies=4):
    n_players = int(rng.integers(2, max_players + 1))
    counts = [int(rng.integers(2, max_strategies + 1)) for _ in range(n_players)]
    payoffs = rng.integers(-5, 6, size=tuple(counts) + (n_players,)).astype(float)
    labels = tuple(tuple(f"s{i}" for i in range(k)) for k in counts)
    return tq.Game(labels, payoffs)


def random_profile(rng, game):
    """Profile with masses in multiples of 1/MASS_UNITS; returns (profile, units)."""
    units, strategies = [], []
    for k in game.num_strategies:
        row = integer_composition(rng, MASS_UNITS, k, allow_zero=True)
        units.append(row)
        strategies.append(tq.MixedStrategy(tuple(u / MASS_UNITS for u in row)))
    return tq.MixedProfile(tuple(strategies)), units


def random_tolerance_profile(rng, game, generous=False):
    """Random discrete tolerance profile; returns (profile, units per player).

    Generous profiles put their top atom above any possible regret so the
    instance is always feasible; tight ones often fail.
    """
    dists, all_units = [], []
    for _ in range(game.num_players):
        n_atoms = int(rng.integers(1, 5))
        units = integer_composition(rng, MASS_UNITS, n_atoms, allow_zero=False)
        steps = rng.uniform(0.05, 3.0, size=n_atoms)
        atoms = np.cumsum(steps) - steps[0] * rng.integers(0, 2)
        if generous:
            atoms = atoms + 30.0
        dists.append(
            tq.DiscreteToleranceDist(
                tuple(float(t) for t in atoms), tuple(u / MASS_UNITS for u in units)
            )
        )
        all_units.append(units)
    return tq.DiscreteToleranceProfile(tuple(dists)), all_units


def feasible_instance(rng):
    """Game, profile, and a tolerance profile built to verify.

    Atoms sit exactly on the distinct regret values of the supported
    strategies, with matching masses, so the threshold inequalities hold
    with equality.
    """
    game = random_game(rng)
    profile, sigma_units = random_profile(rng, game)
    dists = []
    for player in range(game.num_players):
        regret_vec = tq.regrets(game, profile, player)
        units = sigma_units[player]
        by_regret: dict[float, int] = {}
        for s, u in enumerate(units):
            if u > 0:
                key = float(np.round(regret_vec[s], 9))
                by_regret[key] = by_regret.get(key, 0) + u
        atoms = sorted(by_regret)
        dists.append(
            tq.DiscreteToleranceDist(
                tuple(atoms), tuple(by_regret[t] / MASS_UNITS for t in atoms)
            )
        )
    return game, profile, tq.DiscreteToleranceProfile(tuple(dists))


def dominating_dist(rng, dist):
    """Random distribution stochastically dominating dist: every chunk of mass
    moves weakly right, sometimes splitting."""
    placed: dict[float, float] = {}
    for t, p in zip(dist.support, dist.probs):
        if rng.random() < 0.35:
            share = rng.uniform(0.2, 0.8)
            chunks = [p * share, p * (1.0 - share)]
        else:
            chunks = [p]
        for mass in chunks:
            shift = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0))
            spot = float(t + shift)
            placed[spot] = placed.get(spot, 0.0) + mass
    atoms = sorted(placed)
    out = tq.DiscreteToleranceDist(tuple(atoms), tuple(placed[t] for t in atoms))
    assert tq.dist_dominates(out, dist)
    return out


def with_light_atoms(rng, dist, floor=0.0):
    """dist with one to three atoms lighter than 1e-9 added, at or above floor.

    Each sits in its own gap below an atom of dist, sometimes at the gap's
    left end, and takes its mass from that atom, so it raises the CDF by its
    own mass on an interval no other one touches.  Half the masses lie
    between 0.5e-9 and 0.999e-9, so two of them together outweigh 1e-9; the
    rest are spread log-uniformly from 1e-12.
    """
    placed = dict(zip(dist.support, dist.probs))
    above = [i for i, t in enumerate(dist.support) if t > floor]
    for i in rng.permutation(above)[: int(rng.integers(1, 4))]:
        left = max(floor, dist.support[i - 1]) if i else floor
        spot = left if rng.random() < 0.3 else float(rng.uniform(left, dist.support[i]))
        if spot not in placed:
            scale = rng.uniform(0.5, 1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 0.0)
            mass = min(0.999e-9 * float(scale), 0.5 * placed[dist.support[i]])
            placed[dist.support[i]] -= mass
            placed[spot] = mass
    atoms = sorted(placed)
    return tq.DiscreteToleranceDist(tuple(atoms), tuple(placed[t] for t in atoms))


def with_tail_slack(rng, dist):
    """dist with less than 1e-9 of one atom's mass moved to the atom below,
    so that a tail comparison can pass by using its slack."""
    if len(dist.support) < 2:
        return dist
    probs = list(dist.probs)
    i = int(rng.integers(1, len(probs)))
    mass = min(float(rng.uniform(0.1, 0.999)) * 1e-9, 0.5 * probs[i])
    probs[i] -= mass
    probs[i - 1] += mass
    return tq.DiscreteToleranceDist(dist.support, tuple(probs))


def with_light_entries(rng, strategy):
    """strategy with one to three of its zero entries raised to at most
    1e-9, each taking its mass from a supported entry.

    The masses are drawn as in ``with_light_atoms``, so two of them together
    can outweigh 1e-9.  A strategy with no zero entry is returned as it is.
    """
    probs = list(strategy.probs)
    zeros = [s for s, p in enumerate(probs) if p == 0.0]
    for s in rng.permutation(zeros)[: int(rng.integers(1, 4))]:
        scale = rng.uniform(0.5, 1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 0.0)
        donor = int(rng.choice([i for i, p in enumerate(probs) if p > 1e-9]))
        mass = min(0.999e-9 * float(scale), 0.5 * probs[donor])
        probs[donor] -= mass
        probs[int(s)] = mass
    return tq.MixedStrategy(tuple(probs))


def random_map(rng, dist, n_strategies):
    """Arbitrary type-to-strategy assignment over dist's support."""
    strategies = []
    for _ in dist.support:
        weights = rng.dirichlet(np.ones(n_strategies))
        strategies.append(tq.MixedStrategy(tuple(float(w) for w in weights / weights.sum())))
    return tq.TypeStrategyMap(dist.support, tuple(strategies))


def verifier_instance(rng):
    """Game, profile and tolerance profile that reach every branch of the
    per-player check.

    Two players with 1 to 99 strategies or three with 1 to 5, on payoffs in
    -3..3 so that regrets tie.  Each profile has one to six supported entries
    and up to three more at or below eps, some negative.  Half the tolerance
    profiles put one atom on each regret of the supported entries, sometimes
    shifted, so they usually verify; the rest are random.  Some get types
    lighter than eps, and some a top type whose mass rounds away in the
    cumulative sum, which the coupling leaves unfed.
    """
    n_players = int(rng.integers(2, 4))
    most = 99 if n_players == 2 else 5
    counts = tuple(int(rng.integers(1, most + 1)) for _ in range(n_players))
    payoffs = rng.integers(-3, 4, size=counts + (n_players,)).astype(float)
    game = tq.Game(tuple(tuple(f"s{i}" for i in range(k)) for k in counts), payoffs)
    strategies = []
    for k in counts:
        probs = np.zeros(k)
        chosen = rng.choice(k, size=int(rng.integers(1, min(k, 6) + 1)), replace=False)
        probs[chosen] = rng.dirichlet(np.ones(len(chosen)))
        free = np.setdiff1d(np.arange(k), chosen)
        for s in rng.choice(free, size=min(len(free), int(rng.integers(0, 4))), replace=False):
            probs[s] = rng.choice([-0.3e-9, 0.3e-9, 0.9e-9, 1e-9])
        probs[int(np.argmax(probs))] += 1.0 - probs.sum()
        strategies.append(tq.MixedStrategy(tuple(probs.tolist())))
    profile = tq.MixedProfile(tuple(strategies))
    dists = []
    for player in range(n_players):
        if rng.random() < 0.5:
            # a shift of -eps puts regrets exactly at or just past t + eps
            regret_vec = tq.regrets(game, profile, player)
            shift = float(rng.choice([0.0, -1e-9, 0.5e-9, 0.25]))
            placed: dict[float, float] = {}
            for s, p in enumerate(profile[player].probs):
                if p > 1e-9:
                    spot = max(float(regret_vec[s]) + shift, 0.0)
                    placed[spot] = placed.get(spot, 0.0) + p
            atoms = sorted(placed)
            masses = np.array([placed[t] for t in atoms])
            dist = tq.DiscreteToleranceDist(tuple(atoms), tuple(masses / masses.sum()))
        else:
            n_atoms = int(rng.integers(1, 6))
            atoms = np.cumsum(rng.choice([0.5, 1.0, 2.0], n_atoms)) - 0.5 * rng.integers(0, 2)
            dist = tq.DiscreteToleranceDist(tuple(atoms.tolist()), tuple(rng.dirichlet(np.ones(n_atoms)).tolist()))
        if rng.random() < 0.3:
            dist = with_light_atoms(rng, dist)
        if rng.random() < 0.15:
            dist = tq.DiscreteToleranceDist((*dist.support, dist.support[-1] + 1.0), (*dist.probs, 1e-17))
        dists.append(dist)
    return game, profile, tq.DiscreteToleranceProfile(tuple(dists))
