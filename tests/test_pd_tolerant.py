"""Willingness gaps, the cooperation fixed point, and comparative statics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq import numeric, pd_tolerant
from toleq.pd_tolerant import as_game
from toleq_oracles import (
    bisect_root,
    reference_cdf,
    reference_solve_asymmetric,
    reference_solve_discrete,
    reference_solve_symmetric,
    scan_and_bisect_roots,
)

EXAMPLE = tq.PdPayoffs(cc=3, cd=-1, dc=5, dd=0)  # delta_c = 2, delta_d = 1

# piecewise-linear CDF engineered so the response curve crosses the
# diagonal three times when delta_c < delta_d (hand-derived roots)
MULTI_PAYOFFS = tq.PdPayoffs(cc=2, cd=-1.5, dc=3, dd=0.5)  # delta_c = 1, delta_d = 2
MULTI_CDF = tq.PiecewiseLinearCdf((0, 1, 1.2, 1.5, 1.8, 2.5), (0, 0.05, 0.4, 0.45, 0.9, 1.0))
MULTI_ROOTS = (1 / 12, 0.4, 0.56)


def test_payoff_ordering_enforced():
    with pytest.raises(ValueError):
        tq.PdPayoffs(cc=3, cd=1, dc=5, dd=0)  # dd < cd violated
    with pytest.raises(ValueError):
        tq.PdPayoffs(cc=5, cd=-1, dc=3, dd=0)


def test_willingness_gap_endpoints_and_example():
    assert tq.willingness_gap(EXAMPLE, 0.0) == pytest.approx(1.0)  # delta_d
    assert tq.willingness_gap(EXAMPLE, 1.0) == pytest.approx(2.0)  # delta_c
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert tq.willingness_gap(EXAMPLE, alpha) == pytest.approx(alpha + 1.0)
    with pytest.raises(ValueError):
        tq.willingness_gap(EXAMPLE, 1.2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_gap_equals_utility_difference(seed):
    rng = np.random.default_rng(seed)
    cd = float(rng.uniform(-5, 0))
    dd = cd + float(rng.uniform(0.1, 3))
    cc = dd + float(rng.uniform(0.1, 3))
    dc = cc + float(rng.uniform(0.1, 3))
    p = tq.PdPayoffs(cc=cc, cd=cd, dc=dc, dd=dd)
    alpha = float(rng.uniform(0, 1))
    game = as_game(p)
    opponent = tq.MixedStrategy((alpha, 1 - alpha))
    prof = tq.MixedProfile((opponent, opponent))
    u_defect = tq.strategy_utilities(game, prof, 0)[1]
    u_cooperate = tq.strategy_utilities(game, prof, 0)[0]
    assert tq.willingness_gap(p, alpha) == pytest.approx(u_defect - u_cooperate, abs=1e-12)


def test_cooperation_probability():
    assert tq.cooperation_probability(EXAMPLE, tq.UniformCdf(0, 4), 0.6) == pytest.approx(0.6)
    assert tq.cooperation_probability(EXAMPLE, tq.UniformCdf(0, 1), 0.5) == 0.0
    assert tq.cooperation_probability(EXAMPLE, tq.UniformCdf(5, 10), 0.5) == 1.0


def test_symmetric_unique_root_closed_form():
    report = tq.solve_symmetric(EXAMPLE, tq.UniformCdf(0, 4))
    assert report.classification == "unique"
    assert report.uniqueness_certified
    assert not report.has_zero_root
    assert len(report.roots) == 1
    root = report.roots[0]
    assert root.alpha_star == pytest.approx(0.6, abs=1e-9)  # solves 1 - a = (1 + a)/4
    assert root.residual <= 1e-12
    assert not root.marginal


def test_zero_root_when_cdf_saturates_at_delta_d():
    report = tq.solve_symmetric(EXAMPLE, tq.UniformCdf(0, 1))  # F(delta_d) = 1
    assert report.has_zero_root
    assert any(r.alpha_star == pytest.approx(0.0, abs=1e-9) for r in report.roots)


def test_full_cooperation_root_when_cdf_above_delta_c():
    report = tq.solve_symmetric(EXAMPLE, tq.UniformCdf(5, 10))
    assert [r.alpha_star for r in report.roots] == [pytest.approx(1.0, abs=1e-12)]


def test_multi_root_instance():
    report = tq.solve_symmetric(MULTI_PAYOFFS, MULTI_CDF)
    assert report.classification == "possibly-multiple"
    assert not report.uniqueness_certified
    found = sorted(r.alpha_star for r in report.roots)
    assert len(found) == 3
    for got, want in zip(found, MULTI_ROOTS):
        assert got == pytest.approx(want, abs=1e-9)


def test_residuals_recompute_through_game_utilities():
    for payoffs, cdf in ((EXAMPLE, tq.UniformCdf(0, 4)), (MULTI_PAYOFFS, MULTI_CDF)):
        game = as_game(payoffs)
        for root in tq.solve_symmetric(payoffs, cdf).roots:
            alpha = root.alpha_star
            opponent = tq.MixedStrategy((alpha, 1 - alpha))
            prof = tq.MixedProfile((opponent, opponent))
            utilities = tq.strategy_utilities(game, prof, 0)
            gap = utilities[1] - utilities[0]
            assert 1 - alpha - cdf(gap) == pytest.approx(0.0, abs=1e-9)


def test_solver_requires_continuous_cdf():
    with pytest.raises(TypeError):
        tq.solve_symmetric(EXAMPLE, tq.point_mass(1.5))


def test_discrete_point_masses():
    assert tq.solve_discrete(EXAMPLE, tq.point_mass(2.0)) == [1.0]  # t >= delta_c
    assert tq.solve_discrete(EXAMPLE, tq.point_mass(0.5)) == [0.0]  # t < delta_d
    assert tq.solve_discrete(EXAMPLE, tq.point_mass(1.5)) == []  # the non-existence case


def test_discrete_tie_breaks_toward_cooperation():
    # gap(1) = delta_c exactly: a point mass right at delta_c still cooperates
    result = tq.solve_discrete(EXAMPLE, tq.point_mass(EXAMPLE.delta_c))
    assert result == [1.0]


def test_discrete_interior_solution():
    # mass 0.6 tolerant enough only while gap <= 1.7 (alpha <= 0.7): alpha = 0.6 solves
    pi = tq.DiscreteToleranceDist((0.2, 1.7), (0.4, 0.6))
    assert tq.solve_discrete(EXAMPLE, pi) == [pytest.approx(0.6)]


def test_discrete_matches_continuous_limit():
    # quantile discretization of uniform(0, 4) converges to the continuous root
    n = 10_000
    atoms = tuple(4.0 * (k + 0.5) / n for k in range(n))
    probs = tuple(1.0 / n for _ in range(n))
    pi = tq.DiscreteToleranceDist(atoms, probs)
    solutions = tq.solve_discrete(EXAMPLE, pi)
    assert len(solutions) == 1
    assert solutions[0] == pytest.approx(0.6, abs=1e-3)


@st.composite
def discrete_instances(draw):
    """A comparison tolerance and an instance under it.  Atoms and gains lie
    anywhere or on half-integers, where atoms can sit on gap(0), on gap(1), on
    each other's breakpoints, or eps below one of those; delta_c may lie
    within eps of delta_d."""
    eps = draw(st.sampled_from((numeric.DEFAULT_EPSNUM, 1e-3, 0.05)))
    half = draw(st.booleans())
    if half:
        atom = st.builds(lambda k, below: max(k / 2 - eps * below, 0.0), st.integers(0, 12), st.booleans())
    else:
        atom = st.floats(0.0, 6.0)
    gain = st.integers(1, 10).map(lambda k: k / 2) if half else st.floats(0.1, 5.0)
    atoms = sorted(draw(st.lists(atom, min_size=1, max_size=6, unique=True)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(atoms), max_size=len(atoms)))
    delta_d = draw(gain)
    delta_c = draw(st.one_of(gain, st.sampled_from((0.0, 0.5 * eps, eps, 0.04)).map(lambda d: delta_d + d)))
    p = tq.PdPayoffs(cc=3.0, cd=2.0 - delta_d, dc=3.0 + delta_c, dd=2.0)
    total = sum(weights)
    return eps, p, tq.DiscreteToleranceDist(tuple(atoms), tuple(w / total for w in weights))


@settings(max_examples=500, deadline=None)
@given(discrete_instances())
def test_solve_discrete_matches_the_numpy_reference(instance):
    eps, p, pi = instance
    token = numeric.set_epsnum(eps)
    try:
        assert repr(tq.solve_discrete(p, pi)) == repr(reference_solve_discrete(p, pi))
    finally:
        numeric.reset_epsnum(token)


def test_asymmetric_contains_symmetric_solution():
    pairs = tq.solve_asymmetric(EXAMPLE, EXAMPLE, tq.UniformCdf(0, 4), tq.UniformCdf(0, 4))
    assert any(
        a1 == pytest.approx(0.6, abs=1e-9) and a2 == pytest.approx(0.6, abs=1e-9)
        for a1, a2 in pairs
    )


def test_asymmetric_with_intolerant_opponent():
    # player 2's tolerances all sit below their gap, so alpha_2 = 0 and
    # player 1 solves 1 - a = F1(delta_d)
    f1 = tq.UniformCdf(0, 4)
    f2 = tq.UniformCdf(0, 0.5)
    pairs = tq.solve_asymmetric(EXAMPLE, EXAMPLE, f1, f2)
    assert len(pairs) == 1
    a1, a2 = pairs[0]
    assert a2 == pytest.approx(0.0, abs=1e-9)
    assert a1 == pytest.approx(1 - f1(EXAMPLE.delta_d), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_asymmetric_pairs_satisfy_both_equations(seed):
    rng = np.random.default_rng(seed)

    def random_payoffs():
        cd = float(rng.uniform(-4, 0))
        dd = cd + float(rng.uniform(0.2, 2))
        cc = dd + float(rng.uniform(0.2, 2))
        dc = cc + float(rng.uniform(0.2, 2))
        return tq.PdPayoffs(cc=cc, cd=cd, dc=dc, dd=dd)

    def random_cdf():
        lo = float(rng.uniform(0, 1.5))
        return tq.UniformCdf(lo, lo + float(rng.uniform(0.5, 4)))

    p1, p2 = random_payoffs(), random_payoffs()
    f1, f2 = random_cdf(), random_cdf()
    pairs = tq.solve_asymmetric(p1, p2, f1, f2)
    assert pairs
    for a1, a2 in pairs:
        assert a1 == pytest.approx(1 - f1(tq.willingness_gap(p1, a2)), abs=1e-8)
        assert a2 == pytest.approx(1 - f2(tq.willingness_gap(p2, a1)), abs=1e-8)


def sweep_alphas(points, branch=0):
    return [p.alpha_star for p in points if p.branch_id == branch]


def test_sweep_delta_c_decreases_cooperation():
    values = list(np.linspace(1.5, 3.5, 11))
    points = tq.comparative_statics_sweep(EXAMPLE, tq.UniformCdf(0, 4), "delta_c", values)
    alphas = sweep_alphas(points)
    assert all(b <= a + 1e-9 for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] < alphas[0]


def test_sweep_a_increases_cooperation():
    values = list(np.linspace(2.0, 4.5, 11))
    points = tq.comparative_statics_sweep(EXAMPLE, tq.UniformCdf(0, 4), "a", values)
    alphas = sweep_alphas(points)
    assert all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] > alphas[0]


def test_sweep_shift_increases_cooperation():
    values = list(np.linspace(0.0, 2.0, 9))
    points = tq.comparative_statics_sweep(EXAMPLE, tq.UniformCdf(0, 4), "shift", values)
    alphas = sweep_alphas(points)
    assert all(b >= a - 1e-9 for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] > alphas[0]


def test_sweep_rejects_ordering_violation():
    with pytest.raises(ValueError):
        tq.comparative_statics_sweep(EXAMPLE, tq.UniformCdf(0, 4), "a", [10.0])


def count_crossings(values):
    signs = np.sign(values)
    signs = signs[signs != 0]  # an exact zero sits inside one crossing
    return int(np.count_nonzero(np.diff(signs) != 0))


def test_fixed_point_curve_crossings():
    alphas, lhs, rhs = tq.fixed_point_curve(EXAMPLE, tq.UniformCdf(0, 4), grid=2000)
    assert count_crossings(lhs - rhs) == 1
    alphas, lhs, rhs = tq.fixed_point_curve(MULTI_PAYOFFS, MULTI_CDF, grid=2000)
    assert count_crossings(lhs - rhs) >= 2
    assert tq.fixed_point_curve(EXAMPLE, tq.UniformCdf(0, 4), grid=1)[0].tolist() == [0.0, 1.0]
    for grid in (0, -3):
        with pytest.raises(ValueError, match="at least one interval"):
            tq.fixed_point_curve(EXAMPLE, tq.UniformCdf(0, 4), grid=grid)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_root_always_exists(seed):
    # both gain regimes: the residual is >= 0 at alpha 0 and <= 0 at alpha 1,
    # so a continuous CDF always crosses
    rng = np.random.default_rng(seed)
    cd = float(rng.uniform(-4, 0))
    dd = cd + float(rng.uniform(0.2, 2.5))
    cc = dd + float(rng.uniform(0.2, 2.5))
    dc = cc + float(rng.uniform(0.05, 4))
    p = tq.PdPayoffs(cc=cc, cd=cd, dc=dc, dd=dd)
    lo = float(rng.uniform(0, 2))
    cdf = tq.UniformCdf(lo, lo + float(rng.uniform(0.3, 5)))
    report = tq.solve_symmetric(p, cdf)
    assert len(report.roots) >= 1
    assert all(r.residual <= 1e-9 for r in report.roots)


def test_sweep_c_and_d_decrease_cooperation():
    points = tq.comparative_statics_sweep(
        EXAMPLE, tq.UniformCdf(0, 4), "c", list(np.linspace(4.5, 6.5, 9))
    )
    alphas = sweep_alphas(points)
    assert all(b <= a + 1e-9 for a, b in zip(alphas, alphas[1:])) and alphas[-1] < alphas[0]
    points = tq.comparative_statics_sweep(
        EXAMPLE, tq.UniformCdf(0, 4), "d", list(np.linspace(0.0, 2.0, 9))
    )
    alphas = sweep_alphas(points)
    assert all(b <= a + 1e-9 for a, b in zip(alphas, alphas[1:])) and alphas[-1] < alphas[0]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_unique_root_when_delta_c_dominates(seed):
    rng = np.random.default_rng(seed)
    cd = float(rng.uniform(-4, 0))
    dd = cd + float(rng.uniform(0.2, 1.5))
    cc = dd + float(rng.uniform(0.2, 2))
    dc = cc + dd - cd + float(rng.uniform(0.05, 2))  # forces delta_c > delta_d
    p = tq.PdPayoffs(cc=cc, cd=cd, dc=dc, dd=dd)
    lo = float(rng.uniform(0, 1))
    cdf = tq.UniformCdf(lo, lo + float(rng.uniform(0.5, 5)))
    report = tq.solve_symmetric(p, cdf)
    assert report.uniqueness_certified
    assert len(report.roots) == 1
    assert report.roots[0].residual <= 1e-9


# ---------------------------------------------------------------------------
# Exact solvers for the shipped CDF families


class SmoothstepCdf(tq.ContinuousCdf):
    """F = 3t^2 - 2t^3 with t the position in [lo, hi]: a smooth CDF of no shipped family."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def _evaluate(self, x):
        t = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)


TANGENT_PAYOFFS = tq.PdPayoffs(3, -1, 4, 2)  # delta_c = 1, delta_d = 3
TANGENT_CDF = tq.PiecewiseLinearCdf((0, 1.49995, 1.9999, 4.0001), (0, 0, 0.49995, 1))
ZERO_PIECE_CDF = tq.PiecewiseLinearCdf((0, 1, 2, 3), (0, 0, 1, 1))  # h = 0 on [0, 1] with MULTI_PAYOFFS

DENSE = np.linspace(0.0, 1.0, 200_001)


def residual_fn(p, cdf):
    # F from the numpy oracle: one array call scans the dense grid, where the
    # library's elementwise map would make 200,001 scalar calls
    F = reference_cdf(cdf)
    return lambda a: 1.0 - a - F(a * p.delta_c + (1.0 - a) * p.delta_d)


def respond(p, cdf, a):
    return 1.0 - reference_cdf(cdf)(a * p.delta_c + (1.0 - a) * p.delta_d)


def random_payoffs(rng, delta_c, delta_d):
    cc = float(rng.uniform(1.0, 4.0))
    u = float(rng.uniform(0.2, 2.0))
    return tq.PdPayoffs(cc=cc, cd=cc - delta_d - u, dc=cc + delta_c, dd=cc - u)


def random_piecewise_linear(rng, p, steep):
    if steep:  # a staircase inside the gap range: several crossings when delta_c < delta_d
        lo, hi = sorted((p.delta_c, p.delta_d))
        inner = np.sort(rng.uniform(lo, hi, size=4))
        steps = np.cumsum(rng.uniform((0.0, 0.25, 0.0, 0.3), (0.15, 0.45, 0.1, 0.5)))
        xs = (float(rng.uniform(0.0, lo)), *map(float, inner), hi + float(rng.uniform(0.1, 1.0)))
        ys = (0.0, *map(float, np.minimum(steps, 0.98)), 1.0)
        return tq.PiecewiseLinearCdf(xs, ys)
    m = int(rng.integers(2, 7))
    xs = np.sort(rng.uniform(0.0, 5.0, size=m))
    ys = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, size=m - 2)), [1.0]))
    if m == 2 and rng.random() < 0.5:
        return tq.UniformCdf(float(xs[0]), float(xs[1]))
    return tq.PiecewiseLinearCdf(tuple(map(float, xs)), tuple(map(float, ys)))


def grid_resolves(fn, roots, sep=2e-3, probe=1e-3, floor=1e-5):
    """Whether a grid of spacing 1e-4 sees every root: apart, crossing, and
    with fn clear of zero elsewhere on a dense grid."""
    if any(b - a < sep for a, b in zip(roots, roots[1:])):
        return False
    for r in roots:
        if r in (0.0, 1.0):
            if abs(fn(probe if r == 0.0 else 1.0 - probe)) < floor:
                return False
            continue
        left, right = fn(r - probe), fn(r + probe)
        if min(r, 1.0 - r) < sep or min(abs(left), abs(right)) < floor or (left > 0) == (right > 0):
            return False
    away = np.all(np.abs(DENSE[:, None] - np.asarray(roots)[None, :]) > sep, axis=1)
    return not np.any(away & (np.abs(fn(DENSE)) < 1e-6))


def assert_dense_crossings_found(fn, alphas):
    """Every sign change of fn on DENSE lies in a cell that holds a reported root."""
    values = fn(DENSE)
    cells = np.flatnonzero((values[:-1] > 0) & (values[1:] < 0) | (values[:-1] < 0) & (values[1:] > 0))
    for k in cells:
        assert any(DENSE[k] - 1e-12 <= a <= DENSE[k + 1] + 1e-12 for a in alphas), DENSE[k]


def test_tangent_root_at_a_knot_is_found():
    report = tq.solve_symmetric(TANGENT_PAYOFFS, TANGENT_CDF)
    assert [r.alpha_star for r in report.roots] == [pytest.approx(0.50005, abs=1e-12), 1.0]
    assert [r.marginal for r in report.roots] == [True, False]
    assert all(r.residual <= 1e-12 for r in report.roots)


def test_zero_piece_is_reported_by_its_endpoints():
    report = tq.solve_symmetric(MULTI_PAYOFFS, ZERO_PIECE_CDF)
    assert [(r.alpha_star, r.bracket) for r in report.roots] == [(0.0, (0.0, 1.0)), (1.0, (0.0, 1.0))]
    assert not any(r.marginal for r in report.roots)
    # the asymmetric system with R2 = identity vanishes everywhere too
    pairs = tq.solve_asymmetric(MULTI_PAYOFFS, MULTI_PAYOFFS, ZERO_PIECE_CDF, ZERO_PIECE_CDF)
    assert pairs == [(0.0, pytest.approx(0.0, abs=1e-12)), (1.0, pytest.approx(1.0, abs=1e-12))]


def test_interior_zero_piece_between_crossing_signs():
    # h = 0 for alpha in [0.2, 0.5] (gap in [1.5, 1.8]), positive left, negative right
    cdf = tq.PiecewiseLinearCdf((0, 1.5, 1.8, 2.5), (0, 0.5, 0.8, 1))
    report = tq.solve_symmetric(MULTI_PAYOFFS, cdf)
    assert [r.alpha_star for r in report.roots] == [pytest.approx(0.2, abs=1e-12), pytest.approx(0.5, abs=1e-12)]
    assert all(r.bracket == pytest.approx((0.2, 0.5), abs=1e-12) and not r.marginal for r in report.roots)


def test_non_shipped_cdf_family_is_rejected():
    shipped = (tq.UniformCdf(0, 4), MULTI_CDF, tq.TruncatedExponentialCdf(1.5, 3.0))
    for cdf in shipped:
        assert tq.solve_symmetric(EXAMPLE, cdf).roots
    other = SmoothstepCdf(0, 4)
    calls = [
        lambda: tq.solve_symmetric(EXAMPLE, other),
        lambda: tq.comparative_statics_sweep(EXAMPLE, other, "a", [3.0]),
    ]
    for cdf in shipped:
        calls.append(lambda cdf=cdf: tq.solve_asymmetric(EXAMPLE, EXAMPLE, other, cdf))
        calls.append(lambda cdf=cdf: tq.solve_asymmetric(EXAMPLE, EXAMPLE, cdf, other))
    for call in calls:
        with pytest.raises(TypeError, match="SmoothstepCdf"):
            call()
    # plotting samples any continuous CDF
    alphas, lhs, rhs = tq.fixed_point_curve(EXAMPLE, other)
    assert rhs == pytest.approx(other(alphas * EXAMPLE.delta_c + (1 - alphas) * EXAMPLE.delta_d))


def test_texp_tangency_is_found():
    # choose delta_d so that h touches zero at its minimum on the support of F
    rate, cap, shift, slope = 1.5, 3.0, 0.2, -1.2
    norm = -np.expm1(-rate * cap)
    x_min = shift + np.log(-slope * rate / norm) / rate
    alpha_min = 1.0 - (1.0 - norm / (-slope * rate)) / norm
    delta_d = x_min - alpha_min * slope
    p = tq.PdPayoffs(cc=3.0, cd=2.0 - delta_d, dc=3.0 + delta_d + slope, dd=2.0)
    cdf = tq.TruncatedExponentialCdf(rate, cap, shift)
    report = tq.solve_symmetric(p, cdf)
    assert [r.alpha_star for r in report.roots] == [pytest.approx(alpha_min, abs=1e-9), 1.0]
    assert [r.marginal for r in report.roots] == [True, False]
    # the tangent pair of the two-player system, where phi' vanishes as well
    pairs = tq.solve_asymmetric(p, p, cdf, cdf)
    assert pairs == [(pytest.approx(alpha_min, abs=1e-9), pytest.approx(alpha_min, abs=1e-9)), (1.0, 1.0)]


def test_asymmetric_texp_with_equal_gains():
    # delta_c = delta_d for player 1: R1 is constant and phi is monotone
    flat = tq.PdPayoffs(cc=3, cd=0, dc=4, dd=1)
    cdf = tq.TruncatedExponentialCdf(1.5, 3.0)
    alpha = 1.0 - cdf(1.0)
    assert tq.solve_asymmetric(flat, EXAMPLE, cdf, cdf) == [
        (pytest.approx(alpha, abs=1e-12), pytest.approx(1.0 - cdf(tq.willingness_gap(EXAMPLE, alpha)), abs=1e-12))
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_exact_roots_match_scan_reference(seed, steep):
    rng = np.random.default_rng(seed)
    if steep:
        delta_c, delta_d = sorted(rng.uniform(0.3, 3.5, size=2))
    else:
        delta_c, delta_d = rng.uniform(0.2, 4.0, size=2)
    p = random_payoffs(rng, float(delta_c), float(delta_d))
    cdf = random_piecewise_linear(rng, p, steep)
    exact = tq.solve_symmetric(p, cdf)
    alphas = [r.alpha_star for r in exact.roots]
    assert alphas
    assert all(r.residual <= 1e-9 and r.bracket[0] <= r.alpha_star <= r.bracket[1] for r in exact.roots)
    assert_dense_crossings_found(residual_fn(p, cdf), alphas)
    assume(grid_resolves(residual_fn(p, cdf), alphas))
    assert scan_and_bisect_roots(residual_fn(p, cdf)) == pytest.approx(alphas, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_texp_roots_match_dense_scan(seed):
    rng = np.random.default_rng(seed)
    delta_c, delta_d = rng.uniform(0.2, 4.0, size=2)
    p = random_payoffs(rng, float(delta_c), float(delta_d))
    cdf = tq.TruncatedExponentialCdf(
        float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.0, 2.0))
    )
    report = tq.solve_symmetric(p, cdf)
    alphas = [r.alpha_star for r in report.roots]
    assert alphas
    assert all(r.residual <= 1e-9 and r.bracket[0] <= r.alpha_star <= r.bracket[1] for r in report.roots)
    assert_dense_crossings_found(residual_fn(p, cdf), alphas)
    # h is convex on the support of F, so no more than two roots lie strictly inside (0, 1)
    assert sum(0.0 < a < 1.0 for a in alphas) <= 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_exact_asymmetric_pairs_solve_both_responses(seed, steep):
    rng = np.random.default_rng(seed)
    players = []
    for _ in range(2):
        delta_c, delta_d = sorted(rng.uniform(0.3, 3.5, size=2)) if steep else rng.uniform(0.2, 4.0, size=2)
        p = random_payoffs(rng, float(delta_c), float(delta_d))
        players.append((p, random_piecewise_linear(rng, p, steep)))
    (p1, f1), (p2, f2) = players
    pairs = tq.solve_asymmetric(p1, p2, f1, f2)
    assert pairs
    for a1, a2 in pairs:
        assert a1 == pytest.approx(respond(p1, f1, a2), abs=1e-9)
        assert a2 == pytest.approx(respond(p2, f2, a1), abs=1e-9)
    assert_dense_crossings_found(lambda a: respond(p1, f1, respond(p2, f2, a)) - a, [a1 for a1, _ in pairs])


def random_texp(rng):
    return tq.TruncatedExponentialCdf(
        float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.0, 2.0))
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([(True, False), (False, True), (True, True)]))
def test_asymmetric_texp_pairs_solve_both_responses(seed, texp_sides):
    rng = np.random.default_rng(seed)
    players = []
    for texp in texp_sides:
        delta_c, delta_d = rng.uniform(0.2, 4.0, size=2)
        p = random_payoffs(rng, float(delta_c), float(delta_d))
        players.append((p, random_texp(rng) if texp else random_piecewise_linear(rng, p, bool(rng.integers(2)))))
    (p1, f1), (p2, f2) = players
    pairs = tq.solve_asymmetric(p1, p2, f1, f2)
    assert pairs
    for a1, a2 in pairs:
        assert a1 == pytest.approx(respond(p1, f1, a2), abs=1e-9)
        assert a2 == pytest.approx(respond(p2, f2, a1), abs=1e-9)
    assert_dense_crossings_found(lambda a: respond(p1, f1, respond(p2, f2, a)) - a, [a1 for a1, _ in pairs])
    # with both players alike, every symmetric root sits on the diagonal
    p, cdf = players[0] if texp_sides[0] else players[1]
    diagonal = tq.solve_asymmetric(p, p, cdf, cdf)
    for root in tq.solve_symmetric(p, cdf).roots:
        assert any(
            a1 == pytest.approx(root.alpha_star, abs=1e-9) and a2 == pytest.approx(root.alpha_star, abs=1e-9)
            for a1, a2 in diagonal
        )


@pytest.mark.parametrize("p, cdf", [
    (TANGENT_PAYOFFS, TANGENT_CDF), (MULTI_PAYOFFS, ZERO_PIECE_CDF), (MULTI_PAYOFFS, MULTI_CDF),
    (EXAMPLE, tq.UniformCdf(0, 4)), (EXAMPLE, tq.UniformCdf(0, 1)),
], ids=["tangent", "zero-piece", "three-roots", "uniform", "zero-root"])
def test_reports_on_hand_built_instances_match_the_numpy_reference(p, cdf):
    assert repr(tq.solve_symmetric(p, cdf)) == repr(reference_solve_symmetric(p, cdf))
    assert repr(tq.solve_asymmetric(p, p, cdf, cdf)) == repr(reference_solve_asymmetric(p, p, cdf, cdf)[1])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_reports_match_the_numpy_reference(seed, steep):
    # uniform and piecewise-linear F: the plain-float solvers do the numpy
    # code's operations on the same floats, so every report is repr-identical
    rng = np.random.default_rng(seed)
    players = []
    for _ in range(2):
        delta_c, delta_d = sorted(rng.uniform(0.3, 3.5, size=2)) if steep else rng.uniform(0.2, 4.0, size=2)
        p = random_payoffs(rng, float(delta_c), float(delta_d))
        players.append((p, random_piecewise_linear(rng, p, steep)))
    (p1, f1), (p2, f2) = players
    assert repr(tq.solve_symmetric(p1, f1)) == repr(reference_solve_symmetric(p1, f1))
    assert repr(tq.solve_asymmetric(p1, p2, f1, f2)) == repr(reference_solve_asymmetric(p1, p2, f1, f2)[1])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([(True, False), (False, True), (True, True)]))
def test_texp_roots_match_the_numpy_reference(seed, texp_sides):
    # math.expm1 and math.log1p round differently from numpy's in the last
    # bit, so a truncated-exponential root may move: a symmetric one by at
    # most 1e-14
    rng = np.random.default_rng(seed)
    players = []
    for texp in texp_sides:
        delta_c, delta_d = rng.uniform(0.2, 4.0, size=2)
        p = random_payoffs(rng, float(delta_c), float(delta_d))
        players.append((p, random_texp(rng) if texp else random_piecewise_linear(rng, p, bool(rng.integers(2)))))
    (p1, f1), (p2, f2) = players
    p, cdf = players[0] if texp_sides[0] else players[1]
    got, want = tq.solve_symmetric(p, cdf), reference_solve_symmetric(p, cdf)
    assert got.roots and len(got.roots) == len(want.roots)
    for ours, theirs in zip(got.roots, want.roots):
        assert abs(ours.alpha_star - theirs.alpha_star) <= 1e-14
        assert ours.bracket == pytest.approx(theirs.bracket, abs=1e-14)
        assert ours.residual == pytest.approx(theirs.residual, abs=1e-14)
        assert ours.marginal == theirs.marginal
    assert (got.has_zero_root, got.uniqueness_certified, got.classification) == (
        want.has_zero_root, want.uniqueness_certified, want.classification)
    # phi = R1(R2(a)) - a can be flat at a root, where a last-bit change in F
    # moves the root by that change over the slope: up to 2.9e-14 in 12,000
    # instances.  alpha2 = R2(alpha1) can be steep, so only alpha1 is compared
    pairs, (_, reference_pairs) = tq.solve_asymmetric(p1, p2, f1, f2), reference_solve_asymmetric(p1, p2, f1, f2)
    assert pairs and len(pairs) == len(reference_pairs)
    for (a1, a2), (b1, _) in zip(pairs, reference_pairs):
        assert abs(a1 - b1) <= 1e-12
        assert a2 == 1.0 - f2(tq.willingness_gap(p2, a1))


def test_bracketed_roots_match_bisection_in_few_evaluations(monkeypatch):
    """Every root the solvers find between two breakpoints or critical points
    lies within 1e-12 of plain bisection on the same bracket, and takes few
    evaluations; uniform and piecewise-linear pieces never reach the search."""
    solve = pd_tolerant._bracketed_root
    counts = []

    def recorded(fn, lo, hi, f_lo, f_hi):
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return fn(alpha)

        root = solve(counted, lo, hi, f_lo, f_hi)
        counts.append(len(calls))
        assert abs(root - bisect_root(fn, lo, hi, f_lo)) <= 1e-12
        return root

    monkeypatch.setattr(pd_tolerant, "_bracketed_root", recorded)
    rng = np.random.default_rng(12)
    for _ in range(120):
        p1, p2 = (random_payoffs(rng, *map(float, rng.uniform(0.2, 4.0, size=2))) for _ in range(2))
        f1, f2 = random_texp(rng), random_piecewise_linear(rng, p2, bool(rng.integers(2)))
        before = len(counts)
        tq.solve_symmetric(p2, f2)
        tq.solve_asymmetric(p1, p2, f2, f2)
        assert len(counts) == before
        tq.solve_symmetric(p1, f1)
        tq.solve_asymmetric(p1, p2, f1, f2)
        tq.solve_asymmetric(p2, p1, f2, f1)
        tq.solve_asymmetric(p1, p2, f1, random_texp(rng))
    assert len(counts) > 200
    assert max(counts) <= 130
    assert np.median(counts) <= 20


def test_non_finite_payoffs_rejected():
    with pytest.raises(ValueError, match="finite"):
        tq.PdPayoffs(cc=3, cd=-1, dc=float("inf"), dd=0)
    with pytest.raises(ValueError, match="finite"):
        tq.PdPayoffs(cc=float("nan"), cd=-1, dc=5, dd=0)
