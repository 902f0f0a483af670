"""Discrete distributions, CDF families, dominance, and the remap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq.numeric import reset_epsnum
from toleq_oracles import (
    dominating_dist,
    random_map,
    reference_dist_dominates,
    reference_dominance_remap,
    reference_evaluate,
    reference_quantile_coupling,
    reference_remap_preserves_mixture,
    with_light_atoms,
)


def dist(*pairs):
    return tq.DiscreteToleranceDist(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def pure(i, n=2):
    return tq.MixedStrategy.pure(i, n)


def test_cdf_point_mass():
    assert tq.point_mass(0.0).cdf(0.0) == 1.0


def test_cdf_between_atoms():
    d = dist((0.0, 0.7), (3.0, 0.3))
    assert d.cdf(1.0) == pytest.approx(0.7)


def test_cdf_below_support():
    assert dist((0.0, 0.7), (3.0, 0.3)).cdf(-1.0) == 0.0


def test_dist_validation():
    with pytest.raises(ValueError):
        dist((3.0, 0.5), (0.0, 0.5))  # not ascending
    with pytest.raises(ValueError):
        dist((-1.0, 1.0))  # negative tolerance
    with pytest.raises(ValueError):
        dist((0.0, 0.5), (1.0, 0.4))  # masses don't sum to 1


def test_dominance_reflexive():
    d = dist((0.0, 0.4), (2.0, 0.6))
    profile = tq.DiscreteToleranceProfile.iid(d, 2)
    assert tq.stochastically_dominates(profile, profile)


def test_point_mass_shift_dominates():
    lo = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.0), 2)
    hi = tq.DiscreteToleranceProfile.iid(tq.point_mass(0.25), 2)
    assert tq.stochastically_dominates(hi, lo)
    assert not tq.stochastically_dominates(lo, hi)


def test_dominance_counterexample():
    lo = dist((1.0, 0.5), (4.0, 0.5))
    hi = dist((0.0, 0.5), (5.0, 0.5))
    assert not tq.dist_dominates(hi, lo)  # F_hi(0) = 0.5 > F_lo(0) = 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_dominance_transitive_on_generated_chains(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 5))
    masses = rng.dirichlet(np.ones(n_atoms))
    atoms = np.cumsum(rng.uniform(0.1, 2.0, n_atoms))
    d1 = tq.DiscreteToleranceDist(tuple(atoms), tuple(masses))
    d2 = dominating_dist(rng, d1)
    d3 = dominating_dist(rng, d2)
    assert tq.dist_dominates(d2, d1)
    assert tq.dist_dominates(d3, d2)
    assert tq.dist_dominates(d3, d1)


def test_remap_identity_is_unchanged():
    d = dist((0.0, 0.5), (3.0, 0.5))
    g = tq.TypeStrategyMap(d.support, (pure(1), pure(0)))
    out = tq.dominance_remap(d, d, g)
    assert out.support == g.support
    for a, b in zip(out.strategies, g.strategies):
        assert a.probs == pytest.approx(b.probs, abs=1e-12)


def test_remap_parallel_shift():
    lo = dist((0.0, 0.5), (3.0, 0.5))
    hi = dist((1.0, 0.5), (4.0, 0.5))
    g = tq.TypeStrategyMap(lo.support, (pure(1), pure(0)))
    out = tq.dominance_remap(lo, hi, g)
    plan = tq.transport_plan(lo, hi)
    assert plan.alpha == (0, 1)
    assert plan.beta == pytest.approx((0.5, 0.5))
    assert out.strategies[0].probs == pytest.approx((0.0, 1.0))
    assert out.strategies[1].probs == pytest.approx((1.0, 0.0))


def test_remap_absorbs_into_point_mass():
    lo = dist((0.0, 0.25), (2.0, 0.75))
    hi = tq.point_mass(2.0)
    g = tq.TypeStrategyMap(lo.support, (pure(1), pure(0)))
    out = tq.dominance_remap(lo, hi, g)
    assert out.strategies[0].probs == pytest.approx((0.75, 0.25))


def test_remap_splits_one_atom_across_many():
    # one source atom feeding three target atoms: every piece of mass keeps
    # the source strategy, and the per-atom draw never exceeds the atom mass
    lo = tq.point_mass(0.0)
    hi = dist((1.0, 0.3), (2.0, 0.3), (3.0, 0.4))
    g = tq.TypeStrategyMap(lo.support, (tq.MixedStrategy((0.25, 0.75)),))
    plan = tq.transport_plan(lo, hi)
    assert plan.beta == pytest.approx((0.3, 0.3, 0.4))
    out = tq.dominance_remap(lo, hi, g)
    for s in out.strategies:
        assert s.probs == pytest.approx((0.25, 0.75))


def test_remap_rejects_non_dominating():
    lo = dist((1.0, 0.5), (4.0, 0.5))
    hi = dist((0.0, 0.5), (5.0, 0.5))
    g = tq.TypeStrategyMap(lo.support, (pure(1), pure(0)))
    with pytest.raises(ValueError):
        tq.dominance_remap(lo, hi, g)


def test_remap_rejects_domain_mismatch():
    lo = dist((0.0, 0.5), (3.0, 0.5))
    g = tq.TypeStrategyMap((0.0, 2.0), (pure(1), pure(0)))
    with pytest.raises(ValueError):
        tq.dominance_remap(lo, tq.point_mass(3.0), g)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1e-3]))
def test_remap_conserves_mixture_and_order(seed, eps):
    token = tq.set_epsnum(eps)
    try:
        _check_remap_conserves_mixture_and_order(seed)
    finally:
        reset_epsnum(token)


def _check_remap_conserves_mixture_and_order(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 6))
    masses = rng.dirichlet(np.ones(n_atoms))
    atoms = np.cumsum(rng.uniform(0.1, 2.0, n_atoms)) - 0.1
    lo = tq.DiscreteToleranceDist(tuple(atoms), tuple(masses))
    hi = dominating_dist(rng, lo)
    g = random_map(rng, lo, n_strategies=3)
    plan = tq.transport_plan(lo, hi)
    out = tq.dominance_remap(lo, hi, g)

    # mass conservation, componentwise
    assert np.max(np.abs(out.mixture(hi) - g.mixture(lo))) < 1e-9
    # every remapped strategy is a proper distribution
    for s in out.strategies:
        assert sum(s.probs) == pytest.approx(1.0, abs=1e-9)
    # each target atom draws only from source atoms at or below it,
    # and the final draw has sensible mass
    for j, (alpha_j, beta_j) in enumerate(zip(plan.alpha, plan.beta)):
        assert lo.support[alpha_j] <= hi.support[j] + 1e-9
        assert -1e-9 <= beta_j <= hi.probs[j] + 1e-9
        used = np.nonzero(plan.weights[j])[0]
        assert all(lo.support[h] <= hi.support[j] + 1e-9 for h in used)
    # the plan rows add up to the target masses, columns to the source masses
    assert np.allclose(plan.weights.sum(axis=1), hi.probs, atol=1e-9)
    assert np.allclose(plan.weights.sum(axis=0), lo.probs, atol=1e-9)
    assert tq.remap_preserves_mixture(lo, hi, g, out)


def test_remap_gives_a_light_atom_a_strategy_of_a_lower_type():
    # the 5e-10 atom at 2 covers quantile mass of the type at 3; dropping
    # that overlap used to leave it with no mass and raise
    lo = dist((0.0, 0.5), (3.0, 0.5))
    hi = dist((0.0, 0.5), (2.0, 5e-10), (3.0, 0.5 - 5e-10))
    assert tq.dist_dominates(hi, lo)
    plan = tq.transport_plan(lo, hi)
    assert plan.alpha == (0, 0, 1)
    assert plan.weights[1, 0] == pytest.approx(5e-10, rel=1e-6) and plan.weights[1, 1] == 0.0
    g = tq.TypeStrategyMap(lo.support, (pure(1), pure(0)))
    out = tq.dominance_remap(lo, hi, g)
    assert out.strategies[1].probs == (0.0, 1.0)
    assert tq.remap_preserves_mixture(lo, hi, g, out)


def test_remap_rejects_a_light_atom_below_every_source_type():
    lo = tq.point_mass(0.5)
    hi = dist((0.0, 5e-10), (1.0, 1 - 5e-10))
    assert tq.dist_dominates(hi, lo)
    g = tq.TypeStrategyMap(lo.support, (pure(0),))
    with pytest.raises(ValueError, match="no exact remap exists"):
        tq.dominance_remap(lo, hi, g)


def test_remap_spreads_light_atoms_over_the_types_they_may_use():
    # the atoms at 0.5 and 1.5 each cover 2**-30 of the next type up; sending
    # both to type 0 would move its mass by 2**-29 > eps
    d = 2.0**-30
    lo = dist((0.0, 0.25), (1.0, 0.25), (2.0, 0.5))
    hi = dist((0.0, 0.25), (0.5, d), (1.0, 0.25 - d), (1.5, d), (2.0, 0.5 - d))
    assert tq.dist_dominates(hi, lo)
    g = tq.TypeStrategyMap(lo.support, (pure(0, 3), pure(1, 3), pure(2, 3)))
    out = tq.dominance_remap(lo, hi, g)
    assert [s.probs for s in out.strategies[1:4:2]] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    assert tq.remap_preserves_mixture(lo, hi, g, out)


def test_remap_light_atoms_in_two_gaps_do_not_add_up():
    # types 0 and 2 play the same strategy, so a light atom fed from each
    # of them in turn would move that strategy by 2**-29 > eps
    d = 2.0**-30
    lo = dist((0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25))
    hi = dist((0.0, 0.25), (0.5, d), (1.0, 0.25 - d), (2.0, 0.25), (2.5, d), (3.0, 0.25 - d))
    assert tq.dist_dominates(hi, lo)
    g = tq.TypeStrategyMap(lo.support, (pure(0), pure(1), pure(0), pure(1)))
    assert tq.remap_preserves_mixture(lo, hi, g, tq.dominance_remap(lo, hi, g))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9))
def test_remap_serves_light_dominating_atoms(seed):
    # an exact remap exists whenever no atom of hi lies more than eps below
    # every atom of lo; light atoms each take mass from the atom above them,
    # so hi dominates lo only within eps, in up to three places.  Pure
    # strategies keep a misplaced light atom's mass from being diluted.
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.1, 2.0, int(rng.integers(1, 7)))
    lo = tq.DiscreteToleranceDist(tuple(np.cumsum(steps) - steps[0] * rng.integers(0, 2)),
                                  tuple(rng.dirichlet(np.ones(len(steps)))))
    base = lo if rng.random() < 0.5 else dominating_dist(rng, lo)
    hi = with_light_atoms(rng, base, floor=lo.support[0])
    assert tq.dist_dominates(hi, lo) and hi.support[0] >= lo.support[0]
    g = tq.TypeStrategyMap(lo.support, tuple(pure(int(k)) for k in rng.integers(0, 2, len(lo.support))))
    assert tq.remap_preserves_mixture(lo, hi, g, tq.dominance_remap(lo, hi, g))


def test_uniform_cdf_values():
    cdf = tq.UniformCdf(0.0, 4.0)
    assert cdf(-1.0) == 0.0
    assert cdf(1.6) == pytest.approx(0.4)
    assert cdf(5.0) == 1.0
    shifted = cdf.shifted(2.0)
    assert shifted(3.6) == pytest.approx(cdf(1.6))


def test_piecewise_linear_cdf():
    cdf = tq.PiecewiseLinearCdf((0.0, 1.0, 2.0), (0.0, 0.8, 1.0))
    assert cdf(0.5) == pytest.approx(0.4)
    assert cdf(1.5) == pytest.approx(0.9)
    assert cdf(-1.0) == 0.0 and cdf(3.0) == 1.0
    with pytest.raises(ValueError):
        tq.PiecewiseLinearCdf((0.0, 1.0), (0.1, 1.0))  # does not start at 0
    with pytest.raises(ValueError):
        tq.PiecewiseLinearCdf((1.0, 0.0), (0.0, 1.0))  # x not increasing


def test_truncated_exponential_cdf():
    cdf = tq.TruncatedExponentialCdf(rate=1.5, cap=3.0)
    assert cdf(0.0) == 0.0
    assert cdf(3.0) == pytest.approx(1.0)
    xs = np.linspace(0, 3, 50)
    values = cdf(xs)
    assert np.all(np.diff(values) > 0)
    shifted = cdf.shifted(1.0)
    assert shifted(1.0) == 0.0
    assert shifted(2.5) == pytest.approx(cdf(1.5))


def test_non_finite_cdf_parameters_rejected():
    inf, nan = float("inf"), float("nan")
    for make in (
        lambda: tq.UniformCdf(0.0, inf),
        lambda: tq.PiecewiseLinearCdf((0.0, nan, 2.0), (0.0, 0.5, 1.0)),
        lambda: tq.PiecewiseLinearCdf((0.0, inf), (0.0, 1.0)),
        lambda: tq.TruncatedExponentialCdf(rate=nan, cap=3.0),
        lambda: tq.TruncatedExponentialCdf(rate=1.0, cap=inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_non_finite_discrete_distributions_rejected():
    inf, nan = float("inf"), float("nan")
    for make in (
        lambda: tq.DiscreteToleranceDist((0.0, inf), (0.5, 0.5)),
        lambda: tq.DiscreteToleranceDist((0.0, nan), (0.5, 0.5)),
        lambda: tq.DiscreteToleranceDist((0.0, 1.0), (nan, nan)),
        lambda: tq.DiscreteToleranceDist((0.0, 1.0), (inf, 0.5)),
        lambda: tq.point_mass(nan),
        lambda: tq.point_mass(inf),
    ):
        with pytest.raises(ValueError):
            make()


def test_leftward_shift_rejected():
    with pytest.raises(ValueError):
        tq.UniformCdf(0.0, 1.0).shifted(-0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_cdf_families_are_proper_cdfs(seed):
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(0, 2))
    families = [
        tq.UniformCdf(lo, lo + float(rng.uniform(0.5, 4))),
        tq.TruncatedExponentialCdf(
            rate=float(rng.uniform(0.2, 4)),
            cap=float(rng.uniform(0.5, 5)),
            shift=float(rng.uniform(0, 2)),
        ),
        tq.PiecewiseLinearCdf(
            tuple(np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2, 4))))),
            tuple(np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 3)), [1.0]))),
        ),
    ]
    xs = np.linspace(-1, 12, 400)
    for cdf in families:
        values = cdf(xs)
        assert np.all(values >= 0) and np.all(values <= 1)
        assert np.all(np.diff(values) >= -1e-12)  # non-decreasing
        assert cdf(-1.0) == 0.0
        assert cdf(1e6) == pytest.approx(1.0)
        # rightward shift relocates the whole curve
        delta = float(rng.uniform(0, 3))
        moved = cdf.shifted(delta)
        probe = float(rng.uniform(0, 10))
        assert moved(probe + delta) == pytest.approx(cdf(probe), abs=1e-12)


def ulps_apart(a: float, b: float) -> int:
    """How many floats lie between a and b, plus one; 0 when equal."""
    if a == b:
        return 0
    steps, x = 0, min(a, b)
    while x < max(a, b) and steps < 10:
        x = math.nextafter(x, math.inf)
        steps += 1
    return steps


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 5.0), st.floats(0.01, 5.0),
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=7, unique=True), st.lists(st.floats(0.0, 1.0), max_size=5),
    st.floats(0.01, 8.0), st.floats(0.01, 8.0), st.floats(0.0, 3.0),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
)
def test_cdf_values_match_the_numpy_evaluation(lo, width, xs, ys, rate, cap, shift, points):
    # uniform and piecewise-linear: the same operations on the same floats,
    # with np.interp's knot search; truncated exponential: math.expm1 in
    # place of numpy's, whose results differ by at most one unit in the last
    # place, so their quotient F by at most two
    xs = sorted(xs)
    ys = [0.0, *sorted(ys)[: len(xs) - 2], 1.0]
    xs = xs[: len(ys)]
    ys = ys[: len(xs)]
    families = [tq.UniformCdf(lo, lo + width), tq.PiecewiseLinearCdf(tuple(xs), tuple(ys))]
    texp = tq.TruncatedExponentialCdf(rate, cap, shift)
    knots = [lo, lo + width, *xs, shift, shift + cap]
    for x in [*points, *knots, *(math.nextafter(k, math.inf) for k in knots), -0.0, math.inf, -math.inf, math.nan]:
        with np.errstate(over="ignore"):  # numpy warns where a huge x overflows to inf
            want = [float(reference_evaluate(cdf, np.asarray(x))) for cdf in (*families, texp)]
        for cdf, value in zip(families, want):
            assert repr(cdf(x)) == repr(value), (cdf, x)
        got, want = texp(x), want[-1]
        assert math.isnan(got) == math.isnan(want)
        assert math.isnan(got) or ulps_apart(got, want) <= 2, (texp, x, got, want)


def test_cdf_returns_a_float_for_a_number_and_maps_arrays_elementwise():
    families = [
        tq.UniformCdf(0.0, 4.0),
        tq.PiecewiseLinearCdf((0.0, 1.0, 2.0), (0.0, 0.8, 1.0)),
        tq.TruncatedExponentialCdf(1.5, 3.0, 0.2),
    ]
    grid = np.linspace(-1.0, 5.0, 12).reshape(3, 4)
    for cdf in families:
        for x in (1, 1.5, np.float64(1.5), np.array(1.5)):
            assert type(cdf(x)) is float and cdf(x) == cdf(float(x))
        values = cdf(grid)
        assert values.shape == grid.shape and values.dtype == float
        assert values.tolist() == [[cdf(x) for x in row] for row in grid.tolist()]
        assert cdf([0.5, 2.5]).tolist() == [cdf(0.5), cdf(2.5)]
        assert cdf(np.array([])).shape == (0,)


def _families(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _families(sub)


def test_only_the_base_class_defines_call():
    # the benchmark's spans wrap ContinuousCdf.__call__ to count CDF calls
    # and points; a family with its own __call__ would bypass the wrapper
    assert "__call__" in vars(tq.ContinuousCdf)
    families = list(_families(tq.ContinuousCdf))
    assert {tq.UniformCdf, tq.PiecewiseLinearCdf, tq.TruncatedExponentialCdf} <= set(families)
    for family in families:
        assert "__call__" not in vars(family), family.__name__
        assert "_evaluate" in vars(family), family.__name__


@pytest.mark.parametrize("position", range(3))
def test_nan_at_any_position_of_a_distribution_is_rejected(position):
    # min and max pass over a NaN after the first entry
    nan = float("nan")
    support, probs = [0.0, 1.0], [0.5, 0.5]
    support.insert(position, nan)
    with pytest.raises(ValueError):
        tq.DiscreteToleranceDist(tuple(support), (0.25, 0.25, 0.5))
    probs.insert(position, nan)
    with pytest.raises(ValueError):
        tq.DiscreteToleranceDist((0.0, 1.0, 2.0), tuple(probs))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1 / 64, 1 / 16]))
def test_dominance_walk_matches_pairwise_cdf(seed, eps):
    # masses in multiples of 1/64 and eps or eps + 1/64 of one atom moved left
    # make the CDF gap equal eps exactly, so ties are decided by the same sums
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 6))
    atoms = np.sort(rng.choice(np.arange(1, 9) * 0.5, n_atoms, replace=False))
    if rng.random() < 0.7:
        cuts = np.sort(rng.choice(np.arange(1, 64), n_atoms - 1, replace=False))
        masses = np.diff(cuts, prepend=0, append=64) / 64
    else:
        masses = rng.dirichlet(np.ones(n_atoms))
    lo = tq.DiscreteToleranceDist(tuple(atoms.tolist()), tuple(masses.tolist()))
    if rng.random() < 0.5:
        i = int(np.argmax(masses))
        moved = eps + float(rng.choice([0.0, 1 / 64]))
        placed = dict(zip(lo.support, lo.probs))
        placed[lo.support[i]] -= moved
        placed[lo.support[i] - 0.25] = moved
        hi = tq.DiscreteToleranceDist(tuple(sorted(placed)), tuple(placed[t] for t in sorted(placed)))
    else:
        steps = rng.choice(np.arange(1, 9) * 0.5, int(rng.integers(1, 6)), replace=False)
        hi = tq.DiscreteToleranceDist(tuple(np.sort(steps).tolist()), tuple(rng.dirichlet(np.ones(len(steps))).tolist()))
    token = tq.set_epsnum(eps)
    try:
        assert tq.dist_dominates(hi, lo) == reference_dist_dominates(hi, lo)
        assert tq.dist_dominates(lo, hi) == reference_dist_dominates(lo, hi)
    finally:
        reset_epsnum(token)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1e-3]))
def test_transport_plan_matches_numpy_coupling(seed, eps):
    # the plain-float coupling makes the same overlaps as the numpy one, bit
    # for bit, including light atoms that need their columns moved and light
    # atoms below every source type, which must raise
    token = tq.set_epsnum(eps)
    try:
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.1, 2.0, int(rng.integers(1, 7)))
        lo = tq.DiscreteToleranceDist(tuple(np.cumsum(steps) - steps[0] * rng.integers(0, 2)),
                                      tuple(rng.dirichlet(np.ones(len(steps)))))
        hi = lo if rng.random() < 0.3 else dominating_dist(rng, lo)
        if rng.random() < 0.6:
            hi = with_light_atoms(rng, hi, floor=lo.support[0] * rng.integers(0, 2))
        want = reference_quantile_coupling(
            hi.support, np.cumsum((0.0, *hi.probs)), lo.support, np.cumsum((0.0, *lo.probs))
        )
        last = want.shape[1] - 1 - np.argmax(want[:, ::-1] > 0.0, axis=1)
        if np.any(np.asarray(lo.support)[last] > np.asarray(hi.support) + eps):
            with pytest.raises(ValueError, match="no exact remap exists"):
                tq.transport_plan(lo, hi)
            return
        plan = tq.transport_plan(lo, hi)
        assert np.array_equal(plan.weights, want)
        assert not plan.weights.flags.writeable
        assert plan.alpha == tuple(last.tolist())
        assert plan.beta == tuple(want[np.arange(len(last)), last].tolist())
    finally:
        reset_epsnum(token)


def _outcome(remap, lo, hi, g):
    try:
        return remap(lo, hi, g)
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1e-3]))
def test_remap_matches_the_matmul_reference(seed, eps):
    # the plain-float mixture of each row matches the matmul, row division
    # and clip within 1e-15, and both fail with the same message: hi not
    # dominating lo, a light atom below every source type, a domain mismatch
    token = tq.set_epsnum(eps)
    try:
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.1, 2.0, int(rng.integers(1, 7)))
        lo = tq.DiscreteToleranceDist(tuple(np.cumsum(steps) - steps[0] * rng.integers(0, 2)),
                                      tuple(rng.dirichlet(np.ones(len(steps)))))
        hi = lo if rng.random() < 0.2 else dominating_dist(rng, lo)
        if rng.random() < 0.4:
            hi = with_light_atoms(rng, hi, floor=lo.support[0] * rng.integers(0, 2))
        if rng.random() < 0.1:
            lo, hi = hi, lo
        g = random_map(rng, lo, int(rng.integers(1, 9)))
        if rng.random() < 0.3 and len(g.strategies[0].probs) > 1:
            # entries just outside [0, 1], which the clip pulls back
            nudged = tq.MixedStrategy((-0.4 * eps, 1.0 + 0.4 * eps, *[0.0] * (len(g.strategies[0].probs) - 2)))
            g = tq.TypeStrategyMap(g.support, (nudged, *g.strategies[1:]))
        if rng.random() < 0.05:
            g = random_map(rng, hi, 3)
        got, want = _outcome(tq.dominance_remap, lo, hi, g), _outcome(reference_dominance_remap, lo, hi, g)
        if isinstance(want, str):
            assert got == want
            return
        assert got.support == want.support
        for mine, theirs in zip(got.strategies, want.strategies):
            assert np.max(np.abs(np.subtract(mine.probs, theirs.probs))) <= 1e-15
    finally:
        reset_epsnum(token)


def _moved(g, atom, source, target, mass):
    """g with ``mass`` of one type's probability moved from one pure strategy
    to another."""
    probs = list(g.strategies[atom].probs)
    probs[source] -= mass
    probs[target] += mass
    strategies = list(g.strategies)
    strategies[atom] = tq.MixedStrategy(tuple(probs))
    return tq.TypeStrategyMap(g.support, tuple(strategies))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1e-3]))
def test_remap_check_matches_the_matmul_reference_on_random_remaps(seed, eps):
    # the dominance remap of a random map, the same with one type's mass
    # moved by up to 3 eps, an arbitrary map over hi, and maps over a
    # different number of pure strategies
    token = tq.set_epsnum(eps)
    try:
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.1, 2.0, int(rng.integers(1, 7)))
        lo = tq.DiscreteToleranceDist(tuple(np.cumsum(steps) - steps[0] * rng.integers(0, 2)),
                                      tuple(rng.dirichlet(np.ones(len(steps)))))
        hi = lo if rng.random() < 0.2 else dominating_dist(rng, lo)
        if rng.random() < 0.3:
            hi = with_light_atoms(rng, hi, floor=lo.support[0] * rng.integers(0, 2))
        size = int(rng.integers(1, 6))
        g = random_map(rng, lo, size)
        draw = rng.random()
        if draw < 0.05:
            # the matmul cannot subtract these mixtures, or broadcasts one of size 1
            assert not tq.remap_preserves_mixture(lo, hi, g, random_map(rng, hi, size + 1))
            return
        if draw < 0.2:
            g_prime = random_map(rng, hi, size)
        else:
            try:
                g_prime = tq.dominance_remap(lo, hi, g)
            except ValueError:
                return
            if draw < 0.6 and size > 1:
                atom = int(rng.integers(len(hi.support)))
                source = int(np.argmax(g_prime.strategies[atom].probs))
                target = (source + int(rng.integers(1, size))) % size
                g_prime = _moved(g_prime, atom, source, target, float(rng.uniform(0.0, 3.0)) * eps)
        assert tq.remap_preserves_mixture(lo, hi, g, g_prime) == reference_remap_preserves_mixture(lo, hi, g, g_prime)
    finally:
        reset_epsnum(token)


def _halved_masses(rng, atoms):
    """``atoms`` masses that are powers of two and sum to 1."""
    masses = [1.0]
    while len(masses) < atoms:
        masses.append(masses.pop(int(rng.integers(len(masses)))) / 2.0)
        masses.append(masses[-1])
    return sorted(masses)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([tq.DEFAULT_EPSNUM, 1e-3]), st.integers(-3, 3))
def test_remap_check_matches_the_matmul_reference_within_ulps_of_eps(seed, eps, ulps):
    # one type's mass moves by eps plus or minus a few ulps of eps, to any
    # pure strategy.  The masses are powers of two and each type plays its
    # own pure strategies, so every mixture entry is one exact product or
    # the sum of two, rounded once in either form: the verdicts may differ
    # only if the two forms round differently
    token = tq.set_epsnum(eps)
    try:
        rng = np.random.default_rng(seed)
        masses = _halved_masses(rng, int(rng.integers(1, 5)))
        dist = tq.DiscreteToleranceDist(tuple(np.cumsum(rng.uniform(0.1, 2.0, len(masses)))), tuple(masses))
        blocks = [int(rng.integers(1, 4)) for _ in masses]
        size = sum(blocks) + int(rng.integers(0, 3))
        strategies, start = [], 0
        for block in blocks:
            probs = [0.0] * size
            probs[start : start + block] = rng.dirichlet(np.ones(block)).tolist()
            strategies.append(tq.MixedStrategy(tuple(probs)))
            start += block
        g = tq.TypeStrategyMap(dist.support, tuple(strategies))
        atom = int(rng.integers(len(masses)))
        source = int(np.argmax(g.strategies[atom].probs))
        target = (source + int(rng.integers(1, size))) % size if size > 1 else source
        moved = (eps + ulps * math.ulp(eps)) / masses[atom]
        g_prime = _moved(g, atom, source, target, moved)
        assert tq.remap_preserves_mixture(dist, dist, g, g_prime) == reference_remap_preserves_mixture(
            dist, dist, g, g_prime
        )
    finally:
        reset_epsnum(token)


@pytest.mark.parametrize("eps", [tq.DEFAULT_EPSNUM, 1e-3])
@pytest.mark.parametrize("ulps", range(-3, 4))
def test_remap_check_turns_at_the_last_ulp_of_eps(eps, ulps):
    # a single type moves eps plus or minus a few ulps from its second pure
    # strategy, which holds 2 eps, to its unused third: both subtractions are
    # exact, so each mixture is off by exactly the mass moved, and the moved
    # mass is in the support only when the mixtures disagree
    token = tq.set_epsnum(eps)
    try:
        dist = tq.point_mass(1.0)
        g = tq.TypeStrategyMap(dist.support, (tq.MixedStrategy((1.0 - 2.0 * eps, 2.0 * eps, 0.0)),))
        g_prime = _moved(g, 0, 1, 2, eps + ulps * math.ulp(eps))
        assert tq.remap_preserves_mixture(dist, dist, g, g_prime) is (ulps <= 0)
        assert reference_remap_preserves_mixture(dist, dist, g, g_prime) is (ulps <= 0)
    finally:
        reset_epsnum(token)
