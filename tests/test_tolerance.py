"""Discrete distributions, CDF families, dominance, and the remap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq_oracles import dominating_dist, random_map


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
@given(st.integers(0, 10**9))
def test_remap_conserves_mixture_and_order(seed):
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
