"""Tolerant equilibria of finite normal-form games.

Verification of tolerance-profile equilibria with constructive witnesses,
stochastic-dominance remapping of type assignments, closed-form cooperation
thresholds for four social dilemmas, and the Prisoner's Dilemma cooperation
fixed point with comparative statics.
"""

from .dilemmas import (
    BertrandCompetition,
    BuiltDilemma,
    CooperationRate,
    DilemmaSpec,
    PrisonersDilemma,
    PublicGoods,
    RelativeType,
    RelativeTypeDistribution,
    TravelersDilemma,
    all_cooperate_payoff,
    bertrand_f,
    beta_mixture_profile,
    build_game,
    cooperation_rate,
    cooperation_threshold,
    exact_cooperation_rate,
    relative_to_absolute,
    will_cooperate,
)
from .equilibrium import (
    EquilibriumVerdict,
    Violation,
    find_symmetric_2x2_equilibria,
    symmetric_alpha_intervals,
    verify_gp_epsilon_nash,
    verify_nash,
    verify_tolerant_equilibrium,
    witness_is_valid,
)
from .games import (
    Game,
    MixedProfile,
    MixedStrategy,
    expected_utility,
    is_consistent,
    regret,
    regrets,
    strategy_utilities,
)
from .numeric import DEFAULT_EPSNUM, epsnum, set_epsnum
from .pd_tolerant import (
    FixedPointReport,
    FixedPointRoot,
    PdPayoffs,
    SweepPoint,
    as_game,
    comparative_statics_sweep,
    cooperation_probability,
    fixed_point_curve,
    solve_asymmetric,
    solve_discrete,
    solve_symmetric,
    willingness_gap,
)
from .tolerance import (
    ContinuousCdf,
    DiscreteToleranceDist,
    DiscreteToleranceProfile,
    PiecewiseLinearCdf,
    TransportPlan,
    TruncatedExponentialCdf,
    TypeStrategyMap,
    UniformCdf,
    dist_dominates,
    dominance_remap,
    point_mass,
    remap_preserves_mixture,
    stochastically_dominates,
    transport_plan,
)

__version__ = "0.1.0"
