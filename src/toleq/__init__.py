"""Tolerant equilibria of finite normal-form games.

Verification of tolerance-profile equilibria with constructive witnesses,
stochastic-dominance remapping of type assignments, closed-form cooperation
thresholds for four social dilemmas, and the Prisoner's Dilemma cooperation
fixed point with comparative statics.

``import toleq`` loads none of the package's modules, so a CLI request
compiles only the modules its command runs.  A name is looked up in
``_EXPORTS`` the first time it is asked for, and its module is imported
then.  When the import system binds a submodule on the package, whoever
imported it, the package copies that module's names into its own dict:
every later lookup is a plain dict hit, and a name is the object its module
held when it finished loading, even if a module attribute is replaced later
(as a tracer that wraps functions does).
"""

import sys as _sys
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "dilemmas": (
        "BertrandCompetition",
        "BuiltDilemma",
        "CooperationRate",
        "DilemmaSpec",
        "PrisonersDilemma",
        "PublicGoods",
        "RelativeType",
        "RelativeTypeDistribution",
        "TravelersDilemma",
        "all_cooperate_payoff",
        "bertrand_f",
        "beta_mixture_profile",
        "build_game",
        "cooperation_rate",
        "cooperation_threshold",
        "exact_cooperation_rate",
        "relative_to_absolute",
        "will_cooperate",
    ),
    "equilibrium": (
        "EquilibriumVerdict",
        "Violation",
        "symmetric_alpha_intervals",
        "verify_gp_epsilon_nash",
        "verify_nash",
        "verify_tolerant_equilibrium",
        "witness_is_valid",
    ),
    "games": (
        "Game",
        "MixedProfile",
        "MixedStrategy",
        "expected_utility",
        "is_consistent",
        "regret",
        "regrets",
        "strategy_utilities",
    ),
    "numeric": ("DEFAULT_EPSNUM", "epsnum", "set_epsnum"),
    "pd_tolerant": (
        "FixedPointReport",
        "FixedPointRoot",
        "PdPayoffs",
        "SweepPoint",
        "as_game",
        "comparative_statics_sweep",
        "cooperation_probability",
        "fixed_point_curve",
        "solve_asymmetric",
        "solve_discrete",
        "solve_symmetric",
        "willingness_gap",
    ),
    "tolerance": (
        "ContinuousCdf",
        "DiscreteToleranceDist",
        "DiscreteToleranceProfile",
        "PiecewiseLinearCdf",
        "TransportPlan",
        "TruncatedExponentialCdf",
        "TypeStrategyMap",
        "UniformCdf",
        "dist_dominates",
        "dominance_remap",
        "point_mass",
        "remap_preserves_mixture",
        "stochastically_dominates",
        "transport_plan",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if isinstance(value, _ModuleType):
            for export in _EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


def __getattr__(name: str):
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})


_sys.modules[__name__].__class__ = _Package
