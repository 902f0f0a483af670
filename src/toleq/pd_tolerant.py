"""Prisoner's Dilemma under tolerance: willingness, fixed points, statics.

With payoff gains from defecting of ``delta_c`` (against a cooperator) and
``delta_d`` (against a defector), a player facing cooperation probability
``alpha`` is willing to cooperate iff their tolerance covers
``alpha * delta_c + (1 - alpha) * delta_d``.  When everyone who can
cooperate does, the symmetric cooperation level solves

    1 - alpha = F(alpha * delta_c + (1 - alpha) * delta_d)

The residual h(alpha) = 1 - alpha - F(gap(alpha)) changes form only where the
linear gap crosses a knot of F, so each shipped CDF family is solved exactly
between those breakpoints:

- uniform and piecewise-linear F: h is linear on each piece, solved in
  closed form;
- truncated-exponential F: h is linear off the support of F and convex on
  it; its minimum there, found in closed form, splits that piece into two
  monotone halves, each solved by one bracketed root search;
- asymmetric two-player systems, any pairing of the three families: the
  composed response is cut where either player's gap crosses a knot, and
  then at its critical points, which lie at most two to a cell; it is
  monotone between those points, linear when both F are.

One bracketed search, a safeguarded regula falsi, solves every piece that
is not linear and finds every critical point, in about a dozen evaluations
per root where plain bisection needs about 52.

The residual is evaluated at every breakpoint and critical point, so a root
there, including a tangency, cannot be missed; such a point is a root when
its residual is at most 1e-12, a fixed threshold.  The comparison tolerance
``numeric.epsnum()`` decides only ``has_zero_root`` and the ties and
duplicates of discrete solutions.  The CDF families are closed:
any other ContinuousCdf subclass is rejected with a TypeError.  Discrete
tolerance distributions give a piecewise-constant response whose pieces are
checked exactly; there a solution may not exist.

Every solver works on sorted lists of Python floats: a solve evaluates the
residual at a few breakpoints, where a numpy call costs more than the
arithmetic it does.  Only ``as_game`` and ``fixed_point_curve``, which build
arrays, reach numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, groupby

from .games import Game
from .numeric import _bracketed_root, epsnum, np
from .tolerance import (
    ContinuousCdf,
    DiscreteToleranceDist,
    PiecewiseLinearCdf,
    TruncatedExponentialCdf,
    UniformCdf,
)

# A point of the residual counts as a root when |residual| is at or below
# this.  It is not the comparison tolerance: at 1e-9, a residual that only
# comes near zero at a breakpoint would be reported as a root.
_ROOT_RESIDUAL = 1e-12


@dataclass(frozen=True)
class PdPayoffs:
    """Row-player payoffs cc, cd, dc, dd for (C,C), (C,D), (D,C), (D,D).

    The defining ordering is dc > cc > dd > cd, so both defection gains
    delta_c = dc - cc and delta_d = dd - cd are positive.
    """

    cc: float
    cd: float
    dc: float
    dd: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.cc, self.cd, self.dc, self.dd)):
            raise ValueError(
                "payoffs must be finite, got "
                f"cc={self.cc}, cd={self.cd}, dc={self.dc}, dd={self.dd}"
            )
        if not (self.dc > self.cc > self.dd > self.cd):
            raise ValueError(
                "payoffs must satisfy dc > cc > dd > cd, got "
                f"dc={self.dc}, cc={self.cc}, dd={self.dd}, cd={self.cd}"
            )

    @property
    def delta_c(self) -> float:
        return self.dc - self.cc

    @property
    def delta_d(self) -> float:
        return self.dd - self.cd


def as_game(p: PdPayoffs) -> Game:
    """The symmetric 2x2 game with these row payoffs (strategy 0 = C)."""
    payoffs = np.array(
        [
            [[p.cc, p.cc], [p.cd, p.dc]],
            [[p.dc, p.cd], [p.dd, p.dd]],
        ]
    )
    return Game((("C", "D"), ("C", "D")), payoffs)


def _gap(p: PdPayoffs, alpha):
    return alpha * p.delta_c + (1.0 - alpha) * p.delta_d


def willingness_gap(p: PdPayoffs, alpha_other: float) -> float:
    """Defection gain against an opponent cooperating with probability alpha;
    the minimal tolerance at which cooperation is consistent."""
    if not 0.0 <= alpha_other <= 1.0:
        raise ValueError(f"cooperation probability must lie in [0, 1], got {alpha_other}")
    return _gap(p, alpha_other)


def cooperation_probability(p: PdPayoffs, cdf: ContinuousCdf, alpha_other: float) -> float:
    """Probability that a player's tolerance covers the willingness gap."""
    return 1.0 - cdf(willingness_gap(p, alpha_other))


@dataclass(frozen=True)
class FixedPointRoot:
    """One root and the piece [a, b] of the residual that holds it.

    A root at a breakpoint has the bracket (a, a); both endpoints of an
    interval on which the residual vanishes carry that interval.
    """

    alpha_star: float
    bracket: tuple[float, float]
    residual: float
    marginal: bool = False


@dataclass(frozen=True)
class FixedPointReport:
    """Roots of the symmetric fixed point, each found exactly."""

    roots: tuple[FixedPointRoot, ...]
    has_zero_root: bool
    uniqueness_certified: bool
    classification: str


def _require_continuous(cdf) -> None:
    if isinstance(cdf, DiscreteToleranceDist):
        raise TypeError("tolerance distribution has atoms; use solve_discrete")
    if not isinstance(cdf, ContinuousCdf):
        raise TypeError(f"expected a continuous tolerance CDF, got {type(cdf).__name__}")


def _knots(cdf: ContinuousCdf) -> tuple[float, ...]:
    """Where F changes form: the knots of a uniform or piecewise-linear F, the
    ends of a truncated exponential's support.  Other families have no exact
    solver and raise TypeError."""
    _require_continuous(cdf)
    if isinstance(cdf, UniformCdf):
        return (cdf.lo, cdf.hi)
    if isinstance(cdf, PiecewiseLinearCdf):
        return cdf.xs
    if isinstance(cdf, TruncatedExponentialCdf):
        return (cdf.shift, cdf.shift + cdf.cap)
    raise TypeError(
        f"no exact fixed-point solver for the {type(cdf).__name__} family; "
        "use UniformCdf, PiecewiseLinearCdf or TruncatedExponentialCdf"
    )


def _linear_crossings(xs, ys, targets) -> list[float]:
    """Points strictly inside each segment [xs[k], xs[k + 1]] of the polyline
    through (xs, ys) at which the segment meets one of the targets."""
    crossings = []
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y1 == y0:  # a flat segment meets a target at its ends or nowhere inside
            continue
        for t in targets:
            s = (t - y0) / (y1 - y0)
            if 0.0 < s < 1.0:
                crossings.append(x0 + s * (x1 - x0))
    return crossings


def _breakpoints(p: PdPayoffs, knots) -> list[float]:
    """0, 1 and every alpha between at which gap(alpha) crosses a knot, sorted."""
    return sorted({0.0, 1.0, *_linear_crossings((0.0, 1.0), (p.delta_d, p.delta_c), knots)})


def _texp_alpha_at_density(p: PdPayoffs, cdf: TruncatedExponentialCdf, density: float) -> list[float]:
    """The alpha in (0, 1) at which gap(alpha) lies inside the support of F
    and F' there equals ``density``, if there is one (F' is monotone there)."""
    slope = p.delta_c - p.delta_d
    if density <= 0 or slope == 0:
        return []
    norm = -math.expm1(-cdf.rate * cdf.cap)
    x = cdf.shift + math.log(cdf.rate / (norm * density)) / cdf.rate
    alpha = (x - p.delta_d) / slope
    return [alpha] if cdf.shift < x < cdf.shift + cdf.cap and 0.0 < alpha < 1.0 else []


def _texp_minimum(p: PdPayoffs, cdf: TruncatedExponentialCdf) -> list[float]:
    """Where h is smallest on the support of a truncated-exponential F.

    There h'(a) = -1 - (delta_c - delta_d) F'(gap(a)) with F' decreasing, so h
    is convex and h' vanishes at most once, which needs delta_c < delta_d.
    """
    slope = p.delta_c - p.delta_d
    return _texp_alpha_at_density(p, cdf, -1.0 / slope) if slope < 0 else []


def _density_on_piece(cdf: ContinuousCdf, x: float):
    """F' on the piece of F that holds x, as a function on that closed piece."""
    knots = _knots(cdf)
    k = bisect_right(knots, x)
    if not 0 < k < len(knots):
        return lambda y: 0.0
    if isinstance(cdf, TruncatedExponentialCdf):
        scale = cdf.rate / -math.expm1(-cdf.rate * cdf.cap)
        return lambda y: scale * math.exp(-cdf.rate * (y - cdf.shift))
    slope = (cdf(knots[k]) - cdf(knots[k - 1])) / (knots[k] - knots[k - 1])
    return lambda y: slope


def _with_critical_points(p1, p2, cdf1, cdf2, respond2, points: list[float]) -> list[float]:
    """Sorted points, inside whose cells both F keep one form, plus the
    critical points of phi = R1(R2(a)) - a between them.

    On a cell phi'(a) + 1 = k1 k2 F1'(gap1(R2(a))) F2'(gap2(a)) with
    k_i = delta_c_i - delta_d_i, so phi' <= -1 when k1 k2 <= 0 or either F'
    is 0.  Otherwise log(phi' + 1) is convex or concave in a, because log F'
    is affine on each piece of every shipped family and R2 is affine or
    convex.  Its derivative has a constant sign unless both F are truncated
    exponentials; then it vanishes where F2'(gap2(a)) = rate2 / (rate1 k1),
    and that point is added first.  phi' is then monotone on every cell, and
    its one zero, if any, is found by the bracketed search.
    """
    k1, k2 = p1.delta_c - p1.delta_d, p2.delta_c - p2.delta_d
    both_texp = isinstance(cdf1, TruncatedExponentialCdf) and isinstance(cdf2, TruncatedExponentialCdf)
    if both_texp and k1 * k2 > 0:
        points = sorted({*points, *_texp_alpha_at_density(p2, cdf2, cdf2.rate / (cdf1.rate * k1))})
    critical = []
    for a, b in zip(points, points[1:]):
        mid = 0.5 * (a + b)
        f1 = _density_on_piece(cdf1, _gap(p1, respond2(mid)))
        f2 = _density_on_piece(cdf2, _gap(p2, mid))

        def dphi(alpha):
            return k1 * k2 * f1(_gap(p1, respond2(alpha))) * f2(_gap(p2, alpha)) - 1.0

        d_a, d_b = dphi(a), dphi(b)
        if d_a * d_b < 0:
            critical.append(_bracketed_root(dphi, a, b, d_a, d_b))
    return sorted({*points, *critical})


def _line_solver(fn):
    """Root of fn on a piece where it is linear: where the chord through the
    piece's ends meets zero, then one Newton step along the chord.  The step
    removes the rounding that an end carries when a steep piece of F meets it.
    """

    def solve(a: float, b: float, f_a: float, f_b: float) -> float:
        slope = (f_b - f_a) / (b - a)
        root = a - f_a / slope
        return min(max(root - fn(root) / slope, a), b)

    return solve


def _roots_on_pieces(points: list[float], fn, solve_piece) -> list[FixedPointRoot]:
    """Roots of fn from its values at sorted points, fn monotone between them.

    A point with |fn| <= _ROOT_RESIDUAL is a root.  A maximal run of such
    points is an interval on which fn vanishes, reported by its two endpoints.
    Such a root is marginal when fn has the same strict sign on both sides of it
    (the curve touches zero without crossing).  Every other piece whose ends
    have opposite signs holds one root, found by
    solve_piece(a, b, fn(a), fn(b)).
    """
    values = [fn(a) for a in points]
    zero = [abs(v) <= _ROOT_RESIDUAL for v in values]
    positive = [v > 0.0 for v in values]
    last = len(points) - 1
    roots: list[FixedPointRoot] = []
    start = 0
    for is_zero, run in groupby(zero):
        end = start + len(list(run)) - 1
        if is_zero:
            marginal = 0 < start and end < last and positive[start - 1] == positive[end + 1]
            bracket = (points[start], points[end])
            for k in (start, end) if end > start else (start,):
                roots.append(FixedPointRoot(points[k], bracket, abs(values[k]), marginal))
        start = end + 1
    for k in range(last):
        if not (zero[k] or zero[k + 1]) and positive[k] != positive[k + 1]:
            a, b = points[k], points[k + 1]
            root = solve_piece(a, b, values[k], values[k + 1])
            roots.append(FixedPointRoot(root, (a, b), abs(fn(root))))
    return sorted(roots, key=lambda r: r.alpha_star)


def solve_symmetric(p: PdPayoffs, cdf: ContinuousCdf) -> FixedPointReport:
    """All symmetric cooperation levels: roots of h(a) = 1 - a - F(gap(a)) on [0, 1].

    At least one root always exists: h is >= 0 at alpha = 0 and <= 0 at
    alpha = 1, and F is continuous.  F must be uniform, piecewise-linear or
    truncated-exponential, and the roots are exact.  A maximal interval on
    which h is identically zero is reported by its two endpoints, each
    bracketed by the interval.
    """
    points = _breakpoints(p, _knots(cdf))

    def h(alpha):
        return 1.0 - alpha - cdf(_gap(p, alpha))

    if isinstance(cdf, TruncatedExponentialCdf):
        points = sorted({*points, *_texp_minimum(p, cdf)})
        roots = _roots_on_pieces(points, h, partial(_bracketed_root, h))
    else:
        roots = _roots_on_pieces(points, h, _line_solver(h))
    return FixedPointReport(
        roots=tuple(roots),
        has_zero_root=cdf(p.delta_d) >= 1.0 - epsnum(),
        uniqueness_certified=p.delta_c > p.delta_d,
        classification="unique" if p.delta_c > p.delta_d else "possibly-multiple",
    )


def fixed_point_curve(p: PdPayoffs, cdf: ContinuousCdf, grid: int = 1000):
    """Grid samples of both sides of the fixed-point equation, for plotting,
    at grid + 1 evenly spaced alphas; grid must be at least 1."""
    _require_continuous(cdf)
    if grid < 1:
        raise ValueError(f"the curve needs at least one interval, got grid={grid}")
    alphas = np.linspace(0.0, 1.0, grid + 1)
    lhs = 1.0 - alphas
    rhs = cdf(_gap(p, alphas))
    return alphas, lhs, np.asarray(rhs)


def solve_discrete(p: PdPayoffs, pi: DiscreteToleranceDist) -> list[float]:
    """Self-consistent cooperation levels under a finite tolerance distribution.

    Ties cooperate: a type whose tolerance equals the gap plays C.  The
    response map is piecewise constant in alpha, so each piece is checked
    exactly; an empty result means no such equilibrium exists.
    """
    e = epsnum()
    atoms = pi.support
    suffix = [*reversed(list(accumulate(reversed(pi.probs)))), 0.0]

    def mass_at_least(x: float) -> float:
        return suffix[bisect_left(atoms, x - e)]

    d_c, d_d = p.delta_c, p.delta_d

    def gap(alpha: float) -> float:
        return alpha * d_c + (1.0 - alpha) * d_d

    solutions: list[float] = []
    if abs(d_c - d_d) <= e:
        solutions.append(mass_at_least(d_d))
    else:
        breaks = sorted(
            {(t - d_d) / (d_c - d_d) for t in atoms if 0.0 < (t - d_d) / (d_c - d_d) < 1.0}
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


def solve_asymmetric(
    p1: PdPayoffs,
    p2: PdPayoffs,
    cdf1: ContinuousCdf,
    cdf2: ContinuousCdf,
) -> list[tuple[float, float]]:
    """Mutually consistent cooperation probabilities (alpha1, alpha2).

    Player i cooperates with the probability that their own tolerance covers
    their own gap at the opponent's cooperation level; substituting player
    2's response R2 into player 1's equation leaves one unknown, a root of
    phi(alpha1) = R1(R2(alpha1)) - alpha1.  Its breakpoints are where gap2
    crosses a knot of F2, and the preimages under the monotone R2 of the
    alpha2 at which gap1 crosses a knot of F1.  With uniform or
    piecewise-linear F on both sides phi is linear between them and solved
    exactly; with a truncated exponential on either side the critical points
    of phi are added, and phi is searched between them.  As in
    solve_symmetric, an interval of roots is reported by its two endpoints.
    """
    knots1, knots2 = _knots(cdf1), _knots(cdf2)

    def respond1(alpha2):
        return 1.0 - cdf1(_gap(p1, alpha2))

    def respond2(alpha1):
        return 1.0 - cdf2(_gap(p2, alpha1))

    def phi(alpha1):
        return respond1(respond2(alpha1)) - alpha1

    points = _breakpoints(p2, knots2)
    targets = _linear_crossings((0.0, 1.0), (p1.delta_d, p1.delta_c), knots1)
    if isinstance(cdf2, TruncatedExponentialCdf):
        # R2 = 1 - u where gap2 is the quantile shift - log1p(-u (1 - e^(-rate cap))) / rate
        norm = -math.expm1(-cdf2.rate * cdf2.cap)
        quantiles = [cdf2.shift - math.log1p(-(1.0 - t) * norm) / cdf2.rate for t in targets]
        preimages = _linear_crossings((0.0, 1.0), (p2.delta_d, p2.delta_c), quantiles)
    else:
        preimages = _linear_crossings(points, [respond2(a) for a in points], targets)
    points = sorted({*points, *preimages})
    if isinstance(cdf1, TruncatedExponentialCdf) or isinstance(cdf2, TruncatedExponentialCdf):
        points = _with_critical_points(p1, p2, cdf1, cdf2, respond2, points)
        roots = _roots_on_pieces(points, phi, partial(_bracketed_root, phi))
    else:
        roots = _roots_on_pieces(points, phi, _line_solver(phi))
    return [(r.alpha_star, respond2(r.alpha_star)) for r in roots]


SWEEPABLE = ("a", "b", "c", "d", "delta_c", "delta_d", "shift")


@dataclass(frozen=True)
class SweepPoint:
    param_value: float
    alpha_star: float
    branch_id: int
    marginal: bool


def _instance_for(base: PdPayoffs, cdf: ContinuousCdf, parameter: str, value: float):
    if parameter == "a":
        return replace(base, cc=value), cdf
    if parameter == "b":
        return replace(base, cd=value), cdf
    if parameter == "c":
        return replace(base, dc=value), cdf
    if parameter == "d":
        return replace(base, dd=value), cdf
    if parameter == "delta_c":
        return replace(base, dc=base.cc + value), cdf
    if parameter == "delta_d":
        return replace(base, dd=base.cd + value), cdf
    if parameter == "shift":
        return base, cdf.shifted(value)
    raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE}")


def comparative_statics_sweep(
    base: PdPayoffs, cdf: ContinuousCdf, parameter: str, values: list[float]
) -> list[SweepPoint]:
    """Re-solve the symmetric fixed point along a parameter sweep.

    Every root of the first instance starts a branch; at each later value a
    branch continues to the nearest root, matching the informal notion of
    equilibria shifting continuously with the parameters.
    """
    _require_continuous(cdf)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows: list[SweepPoint] = []
    first_p, first_cdf = _instance_for(base, cdf, parameter, values[0])
    report = solve_symmetric(first_p, first_cdf)
    tracked = [root.alpha_star for root in report.roots]
    for branch_id, root in enumerate(report.roots):
        rows.append(SweepPoint(float(values[0]), root.alpha_star, branch_id, root.marginal))
    for value in values[1:]:
        swept_p, swept_cdf = _instance_for(base, cdf, parameter, value)
        report = solve_symmetric(swept_p, swept_cdf)
        for branch_id, previous in enumerate(tracked):
            nearest = min(report.roots, key=lambda r: abs(r.alpha_star - previous))
            tracked[branch_id] = nearest.alpha_star
            rows.append(SweepPoint(float(value), nearest.alpha_star, branch_id, nearest.marginal))
    return rows
