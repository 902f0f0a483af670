"""Command-line interface.

Commands: verify (tolerant-equilibrium check), remap (rebuild a type map
under a dominating distribution), pd-solve (cooperation fixed points),
threshold (dilemma cooperation thresholds), sweep (rate and fixed-point
parameter sweeps as CSV).

Exit codes: 0 success or affirmative verdict, 1 negative verdict
(not an equilibrium, dominance failure, non-existence, will not cooperate),
2 usage or input error.  The TOLEQ_EPSNUM environment variable (or the
--epsnum flag, which wins) overrides the comparison tolerance for one run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import serialize
from .dilemmas import (
    BertrandCompetition,
    PrisonersDilemma,
    PublicGoods,
    RelativeType,
    RelativeTypeDistribution,
    TravelersDilemma,
    cooperation_rate,
    cooperation_threshold,
    relative_to_absolute,
    will_cooperate,
)
from .equilibrium import verify_tolerant_equilibrium
from .numeric import reset_epsnum, set_epsnum
from .pd_tolerant import (
    DEFAULT_GRID,
    DEFAULT_TOL_ROOT,
    SWEEPABLE,
    PdPayoffs,
    comparative_statics_sweep,
    fixed_point_curve,
    solve_discrete,
    solve_symmetric,
)
from .serialize import SchemaError
from .tolerance import ContinuousCdf, DiscreteToleranceDist, dist_dominates, dominance_remap, remap_preserves_mixture


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: a single command plus its paths and knobs."""

    command: str
    game: str | None = None
    profile: str | None = None
    pi: str | None = None
    pi_prime: str | None = None
    g: str | None = None
    cdf: str | None = None
    spec: str | None = None
    out: str | None = None
    fmt: str = "text"
    grid: int = DEFAULT_GRID
    tol: float = DEFAULT_TOL_ROOT
    samples: int = 10_000
    seed: int | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None
    kind: str | None = None
    benefit: float | None = None
    cost: float | None = None
    low: int | None = None
    high: int | None = None
    bonus: int | None = None
    n: int | None = None
    rho: float | None = None
    beta: float | None = None
    t_rel: float | None = None
    disposition: str = "C"
    q: float = 1.0
    beta_point: float | None = None
    param: str | None = None
    values: str | None = None


def _parse_values(text: str) -> list[float]:
    if ":" in text:
        lo, hi, count = text.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
    return [float(v) for v in text.split(",")]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _dilemma_from_config(config: RunConfig):
    if config.spec is not None:
        return serialize.dilemma_spec_from_obj(serialize.load_json(config.spec), config.spec)
    kind = config.kind
    if kind == "pd":
        if config.benefit is None or config.cost is None:
            raise SchemaError("spec", "pd needs --benefit and --cost")
        return PrisonersDilemma(config.benefit, config.cost)
    if kind == "td":
        if None in (config.low, config.high, config.bonus):
            raise SchemaError("spec", "td needs --low, --high and --bonus")
        return TravelersDilemma(config.low, config.high, config.bonus)
    if kind == "pg":
        if config.n is None or config.rho is None:
            raise SchemaError("spec", "pg needs --n and --rho")
        return PublicGoods(config.n, config.rho)
    if kind == "bertrand":
        if None in (config.n, config.low, config.high):
            raise SchemaError("spec", "bertrand needs --n, --low and --high")
        return BertrandCompetition(config.n, config.low, config.high)
    raise SchemaError("spec", f"unknown dilemma kind {kind!r}")


def cmd_verify(config: RunConfig) -> int:
    game = serialize.game_from_obj(serialize.load_json(config.game), config.game)
    profile = serialize.profile_from_obj(serialize.load_json(config.profile), config.profile)
    pi = serialize.tolerance_profile_from_obj(serialize.load_json(config.pi), config.pi)
    verdict = verify_tolerant_equilibrium(game, profile, pi)
    if config.fmt == "structured-object":
        _emit(json.dumps(serialize.verdict_to_obj(verdict), indent=2) + "\n", config.out)
    else:
        if verdict.is_equilibrium:
            lines = ["equilibrium: yes"]
            for player, g in enumerate(verdict.witness):
                for t, s in zip(g.support, g.strategies):
                    probs = ", ".join(repr(p) for p in s.probs)
                    lines.append(f"  player {player} type {t!r} plays [{probs}]")
        else:
            v = verdict.violation
            lines = [
                "equilibrium: no",
                f"  player {v.player} fails at threshold {v.threshold!r} "
                f"(excess mass {v.excess_mass!r})",
                f"  {v.detail}",
            ]
        _emit("\n".join(lines) + "\n", config.out)
    return 0 if verdict.is_equilibrium else 1


def cmd_remap(config: RunConfig) -> int:
    lo = serialize.distribution_from_obj(serialize.load_json(config.pi), config.pi)
    hi = serialize.distribution_from_obj(serialize.load_json(config.pi_prime), config.pi_prime)
    g = serialize.type_strategy_map_from_obj(serialize.load_json(config.g), config.g)
    for name, dist in ((config.pi, lo), (config.pi_prime, hi)):
        if not isinstance(dist, DiscreteToleranceDist):
            raise SchemaError(name, "remap requires discrete distributions")
    if not dist_dominates(hi, lo):
        sys.stdout.write("dominance failure: the target does not dominate the source\n")
        return 1
    g_prime = dominance_remap(lo, hi, g)
    if not remap_preserves_mixture(lo, hi, g, g_prime):
        raise ValueError("remapped assignment failed its structural checks")
    payload = json.dumps(serialize.type_strategy_map_to_obj(g_prime), indent=2) + "\n"
    _emit(payload, config.out)
    return 0


def cmd_pd_solve(config: RunConfig) -> int:
    if None in (config.a, config.b, config.c, config.d):
        raise SchemaError("payoffs", "pd-solve needs --a, --b, --c and --d")
    payoffs = PdPayoffs(cc=config.a, cd=config.b, dc=config.c, dd=config.d)
    dist = serialize.distribution_from_obj(serialize.load_json(config.cdf), config.cdf)

    if isinstance(dist, DiscreteToleranceDist):
        solutions = solve_discrete(payoffs, dist)
        if config.fmt == "structured-object":
            obj = {"exists": bool(solutions), "solutions": solutions}
            _emit(json.dumps(obj, indent=2) + "\n", config.out)
        elif solutions:
            _emit("".join(f"alpha_star: {s!r}\n" for s in solutions), config.out)
        else:
            _emit("NON-EXISTENCE\n", config.out)
        return 0 if solutions else 1

    report = solve_symmetric(payoffs, dist, grid=config.grid, tol_root=config.tol)
    if config.out is not None:
        alphas, lhs, rhs = fixed_point_curve(payoffs, dist, grid=config.grid)
        rows = [[float(x), float(l), float(r)] for x, l, r in zip(alphas, lhs, rhs)]
        _emit(_csv(["alpha", "lhs", "rhs"], rows), config.out)
    if config.fmt == "structured-object":
        obj = {
            "roots": [
                {
                    "alpha_star": r.alpha_star,
                    "bracket": list(r.bracket),
                    "residual": r.residual,
                    "marginal": r.marginal,
                }
                for r in report.roots
            ],
            "has_zero_root": report.has_zero_root,
            "uniqueness_certified": report.uniqueness_certified,
            "classification": report.classification,
            "method": report.method,
        }
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        lines = [
            f"classification: {report.classification}",
            f"has_zero_root: {'yes' if report.has_zero_root else 'no'}",
            f"uniqueness_certified: {'yes' if report.uniqueness_certified else 'no'}",
        ]
        for r in report.roots:
            flag = " (marginal)" if r.marginal else ""
            lines.append(f"alpha_star: {r.alpha_star!r} residual {r.residual!r}{flag}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_threshold(config: RunConfig) -> int:
    spec = _dilemma_from_config(config)
    threshold = cooperation_threshold(spec, config.beta)
    lines = [f"threshold: {threshold!r}"]
    code = 0
    verdict_obj = {"threshold": threshold}
    if config.t_rel is not None:
        beta = config.beta if config.beta is not None else 0.0
        if config.beta is None and isinstance(spec, (TravelersDilemma, BertrandCompetition)):
            raise SchemaError("flags", "--t-rel needs --beta for belief-dependent dilemmas")
        rel = RelativeType(config.t_rel, beta, config.disposition)
        absolute = relative_to_absolute(spec, config.t_rel)
        cooperates = will_cooperate(spec, rel)
        lines.append(f"absolute_tolerance: {absolute!r}")
        lines.append(f"will_cooperate: {'yes' if cooperates else 'no'}")
        verdict_obj.update({"absolute_tolerance": absolute, "will_cooperate": cooperates})
        code = 0 if cooperates else 1
    if config.fmt == "structured-object":
        _emit(json.dumps(verdict_obj, indent=2) + "\n", config.out)
    else:
        _emit("\n".join(lines) + "\n", config.out)
    return code


_RATE_PARAMS = {
    "pd": ("benefit", "cost"),
    "td": ("bonus", "low", "high"),
    "pg": ("rho", "n"),
    "bertrand": ("low", "n", "high"),
}
_INT_PARAMS = {"n", "low", "high", "bonus"}


def _swept_spec(base, kind: str, param: str, value: float):
    field_by_cli = {
        "pd": {"benefit": "benefit", "cost": "cost"},
        "td": {"bonus": "bonus", "low": "low", "high": "high"},
        "pg": {"rho": "marginal_return", "n": "num_players"},
        "bertrand": {"low": "price_floor", "n": "num_firms", "high": "price_cap"},
    }[kind]
    cast = int if param in _INT_PARAMS else float
    return replace(base, **{field_by_cli[param]: cast(value)})


def cmd_sweep(config: RunConfig) -> int:
    if config.values is None or config.param is None:
        raise SchemaError("flags", "sweep needs --param and --values")
    values = _parse_values(config.values)

    if config.kind == "pd-alpha":
        if None in (config.a, config.b, config.c, config.d):
            raise SchemaError("payoffs", "pd-alpha sweeps need --a, --b, --c and --d")
        if config.param not in SWEEPABLE:
            raise SchemaError("flags", f"--param must be one of {SWEEPABLE}")
        payoffs = PdPayoffs(cc=config.a, cd=config.b, dc=config.c, dd=config.d)
        dist = serialize.distribution_from_obj(serialize.load_json(config.cdf), config.cdf)
        if not isinstance(dist, ContinuousCdf):
            raise SchemaError(config.cdf, "fixed-point sweeps need a continuous CDF")
        points = comparative_statics_sweep(payoffs, dist, config.param, values, tol_root=config.tol)
        rows = [[p.param_value, p.alpha_star, p.branch_id, p.marginal] for p in points]
        _emit(_csv(["param_value", "alpha_star", "branch_id", "marginal_flag"], rows), config.out)
        return 0

    if config.kind not in _RATE_PARAMS:
        raise SchemaError("flags", f"unknown sweep kind {config.kind!r}")
    if config.param not in _RATE_PARAMS[config.kind]:
        raise SchemaError(
            "flags", f"kind {config.kind!r} sweeps one of {_RATE_PARAMS[config.kind]}"
        )
    if config.seed is None:
        raise SchemaError("flags", "rate sweeps draw Monte Carlo samples; --seed is required")
    cast = int if config.param in _INT_PARAMS else float
    base = _dilemma_from_config(replace(config, **{config.param: cast(values[0])}))
    dist = RelativeTypeDistribution(q=config.q, beta_point=config.beta_point)
    child_seeds = [
        int(seq.generate_state(1)[0]) for seq in np.random.SeedSequence(config.seed).spawn(len(values))
    ]
    rows = []
    for value, child in zip(values, child_seeds):
        spec = _swept_spec(base, config.kind, config.param, value)
        rate = cooperation_rate(spec, dist, config.samples, child)
        rows.append([float(value), rate.exact_rate, rate.mc_rate, rate.mc_stderr])
    _emit(_csv([config.param, "exact_rate", "mc_rate", "mc_stderr"], rows), config.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toleq", description=__doc__)
    parser.add_argument("--epsnum", type=float, default=None, help="override the comparison tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "structured-object"),
            default="text",
        )

    p = sub.add_parser("verify", help="check a profile for tolerant equilibrium")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--pi", required=True)
    common(p)

    p = sub.add_parser("remap", help="rebuild a type map under a dominating distribution")
    p.add_argument("--pi", required=True)
    p.add_argument("--pi-prime", dest="pi_prime", required=True)
    p.add_argument("--g", required=True)
    common(p)

    p = sub.add_parser("pd-solve", help="cooperation fixed points for Prisoner's Dilemma")
    for flag in ("--a", "--b", "--c", "--d"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--cdf", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID, help="intervals of the --out curve")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_ROOT)
    common(p)

    def spec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default=None, help="dilemma spec JSON file")
        p.add_argument("--kind", choices=("pd", "td", "pg", "bertrand", "pd-alpha"))
        p.add_argument("--benefit", type=float)
        p.add_argument("--cost", type=float)
        p.add_argument("--low", type=int)
        p.add_argument("--high", type=int)
        p.add_argument("--bonus", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--rho", type=float)

    p = sub.add_parser("threshold", help="cooperation threshold for a dilemma")
    spec_flags(p)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--t-rel", dest="t_rel", type=float, default=None)
    p.add_argument("--disposition", choices=("C", "D"), default="C")
    common(p)

    p = sub.add_parser("sweep", help="rate or fixed-point sweeps as CSV")
    spec_flags(p)
    p.add_argument("--param", default=None)
    p.add_argument("--values", default=None, help="lo:hi:count or comma-separated list")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--beta-point", dest="beta_point", type=float, default=None)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    for flag in ("--a", "--b", "--c", "--d"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--cdf", default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_ROOT)
    common(p)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "remap": cmd_remap,
    "pd-solve": cmd_pd_solve,
    "threshold": cmd_threshold,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    config = RunConfig(**{k: v for k, v in vars(args).items() if k in fields and v is not None})
    epsnum_override = args.epsnum if args.epsnum is not None else os.environ.get("TOLEQ_EPSNUM")
    token = None
    try:
        if epsnum_override is not None:
            token = set_epsnum(float(epsnum_override))
        return _COMMANDS[config.command](config)
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if token is not None:
            reset_epsnum(token)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
