"""Command-line interface.

Commands: verify (tolerant-equilibrium check), remap (rebuild a type map
under a dominating distribution), pd-solve (cooperation fixed points),
threshold (dilemma cooperation thresholds), sweep (rate and fixed-point
parameter sweeps as CSV).

Exit codes: 0 success or affirmative verdict, 1 negative verdict
(not an equilibrium, dominance failure, non-existence, will not cooperate),
2 usage or input error.  The TOLEQ_EPSNUM environment variable (or the
--epsnum flag, which wins) overrides the comparison tolerance for one run.

Each command imports the modules it runs when it starts, so a request loads
only those: the parser needs only the dilemma specs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .numeric import np, reset_epsnum, set_epsnum
from .specs import _DILEMMAS, BertrandCompetition, SchemaError, TravelersDilemma


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """The values of ``np.linspace(lo, hi, count)``, in its order of
    operations: where the step underflows to zero numpy scales by the span
    instead, and it sets the last value to ``hi``."""
    if count < 2:
        return [0.0 * (hi - lo) + lo] if count == 1 else []
    div = count - 1
    step = (hi - lo) / div
    values = [i / div * (hi - lo) + lo if step == 0.0 else i * step + lo for i in range(count)]
    values[-1] = hi
    return values


def _parse_values(text: str) -> list[float]:
    """Sweep values from ``lo:hi:count`` or a comma-separated list; a
    malformed, empty or non-finite list is an input error that names
    --values."""
    values = []
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            values = _linspace(float(lo), float(hi), int(count))
        else:
            values = [float(v) for v in text.split(",")]
    except ValueError:
        pass
    if not values:
        raise SchemaError("--values", f"expected lo:hi:count (count >= 1) or a list like 1,2,3, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise SchemaError("--values", f"values must be finite, got {text!r}")
    return values


def _payoffs(args: argparse.Namespace):
    """The Prisoner's Dilemma payoffs that --a, --b, --c and --d give."""
    from .pd_tolerant import PdPayoffs

    for flag in ("a", "b", "c", "d"):
        if not math.isfinite(getattr(args, flag)):
            raise SchemaError(f"--{flag}", f"payoffs must be finite, got {getattr(args, flag)!r}")
    return PdPayoffs(cc=args.a, cd=args.b, dc=args.c, dd=args.d)


def _check_probability(flag: str, value: float | None, what: str) -> None:
    """A flag that holds a probability must lie in [0, 1] (NaN does not)."""
    if value is not None and not 0.0 <= value <= 1.0:
        raise SchemaError(flag, f"{what} must lie in [0, 1], got {value!r}")


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


def _dilemma_from_args(args: argparse.Namespace, **swept):
    """The dilemma that --spec (whose kind a given --kind must match) or
    --kind and its flags describe, with the fields whose CLI flags ``swept``
    names set to the given --values."""
    kind = args.kind
    if args.spec is not None:
        from . import serialize

        obj = serialize.load_json(args.spec)
        spec = serialize.dilemma_spec_from_obj(obj, args.spec)
        if kind not in (None, obj["kind"]):
            raise SchemaError("--kind", f"{kind!r} disagrees with the {obj['kind']!r} dilemma in {args.spec}")
        kind = obj["kind"]
    elif kind not in _DILEMMAS:
        raise SchemaError("spec", f"unknown dilemma kind {kind!r}")
    params = {f.metadata["flag"]: f for f in fields(_DILEMMAS[kind])}
    given = {flag: getattr(args, flag) if args.spec is None else getattr(spec, f.name)
             for flag, f in params.items()}
    for flag, value in swept.items():
        if flag not in params:
            raise SchemaError("--param", f"kind {kind!r} sweeps one of {tuple(params)}")
        if params[flag].type == "int" and not value.is_integer():
            raise SchemaError("--values", f"--param {flag} takes integers, got {value!r}")
        given[flag] = int(value) if params[flag].type == "int" else value
    if None in given.values():
        named = [f"--{flag}" for flag in given]
        raise SchemaError("spec", f"{kind} needs {', '.join(named[:-1])} and {named[-1]}")
    return _DILEMMAS[kind](*given.values())


def cmd_verify(args: argparse.Namespace) -> int:
    """Check a profile for tolerant equilibrium.

    The first input error found is reported, in this order: a file that
    cannot be read or parsed as JSON (--game, then --profile, then --pi);
    the game's players, strategy labels and payoff shape; the profile; the
    tolerance profile.  These checks run in plain Python, and the payoff
    tensor is built only after all of them pass, so a request that exits 2
    does not load numpy unless its payoffs are ragged.
    """
    from . import serialize
    from .equilibrium import verify_tolerant_equilibrium

    game_doc, profile_doc, pi_doc = map(serialize.load_json, (args.game, args.profile, args.pi))
    header = serialize._game_header(game_doc, args.game)
    profile = serialize.profile_from_obj(profile_doc, args.profile, header)
    pi = serialize.tolerance_profile_from_obj(pi_doc, args.pi, header)
    game = serialize.game_from_obj(game_doc, args.game)
    verdict = verify_tolerant_equilibrium(game, profile, pi)
    if args.fmt == "structured-object":
        _emit(json.dumps(serialize.verdict_to_obj(verdict), indent=2) + "\n", args.out)
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
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict.is_equilibrium else 1


def cmd_remap(args: argparse.Namespace) -> int:
    from . import serialize
    from .tolerance import DiscreteToleranceDist, dist_dominates, dominance_remap, remap_preserves_mixture

    lo = serialize.distribution_from_obj(serialize.load_json(args.pi), args.pi)
    hi = serialize.distribution_from_obj(serialize.load_json(args.pi_prime), args.pi_prime)
    g = serialize.type_strategy_map_from_obj(serialize.load_json(args.g), args.g)
    for name, dist in ((args.pi, lo), (args.pi_prime, hi)):
        if not isinstance(dist, DiscreteToleranceDist):
            raise SchemaError(name, "remap requires discrete distributions")
    if not dist_dominates(hi, lo):
        sys.stdout.write("dominance failure: the target does not dominate the source\n")
        return 1
    if not g.matches(lo):
        raise SchemaError(args.g, f"support {g.support} does not match {args.pi}")
    try:
        g_prime = dominance_remap(lo, hi, g)
    except ValueError as exc:  # a target atom lighter than eps lies below every source type
        raise SchemaError(args.pi_prime, str(exc)) from None
    if not remap_preserves_mixture(lo, hi, g, g_prime):
        raise ValueError("remapped assignment failed its structural checks")
    payload = json.dumps(serialize.type_strategy_map_to_obj(g_prime), indent=2) + "\n"
    _emit(payload, args.out)
    return 0


def cmd_pd_solve(args: argparse.Namespace) -> int:
    from . import serialize
    from .pd_tolerant import fixed_point_curve, solve_discrete, solve_symmetric
    from .tolerance import DiscreteToleranceDist

    if args.grid < 1:
        raise SchemaError("--grid", f"the curve needs at least one interval, got {args.grid}")
    payoffs = _payoffs(args)
    dist = serialize.distribution_from_obj(serialize.load_json(args.cdf), args.cdf)

    if isinstance(dist, DiscreteToleranceDist):
        solutions = solve_discrete(payoffs, dist)
        if args.fmt == "structured-object":
            obj = {"exists": bool(solutions), "solutions": solutions}
            _emit(json.dumps(obj, indent=2) + "\n", args.out)
        elif solutions:
            _emit("".join(f"alpha_star: {s!r}\n" for s in solutions), args.out)
        else:
            _emit("NON-EXISTENCE\n", args.out)
        return 0 if solutions else 1

    report = solve_symmetric(payoffs, dist)
    if args.out is not None:
        alphas, lhs, rhs = fixed_point_curve(payoffs, dist, grid=args.grid)
        rows = [[float(x), float(l), float(r)] for x, l, r in zip(alphas, lhs, rhs)]
        _emit(_csv(["alpha", "lhs", "rhs"], rows), args.out)
    if args.fmt == "structured-object":
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


def cmd_threshold(args: argparse.Namespace) -> int:
    from .dilemmas import RelativeType, cooperation_threshold, relative_to_absolute, will_cooperate

    _check_probability("--beta", args.beta, "beta")
    _check_probability("--t-rel", args.t_rel, "relative tolerance")
    spec = _dilemma_from_args(args)
    if args.beta is None and isinstance(spec, BertrandCompetition):
        raise SchemaError("--beta", "the Bertrand threshold depends on the belief beta")
    threshold = cooperation_threshold(spec, args.beta)
    lines = [f"threshold: {threshold!r}"]
    code = 0
    verdict_obj = {"threshold": threshold}
    if args.t_rel is not None:
        beta = args.beta if args.beta is not None else 0.0
        if args.beta is None and isinstance(spec, (TravelersDilemma, BertrandCompetition)):
            raise SchemaError("flags", "--t-rel needs --beta for belief-dependent dilemmas")
        rel = RelativeType(args.t_rel, beta, args.disposition)
        absolute = relative_to_absolute(spec, args.t_rel)
        cooperates = will_cooperate(spec, rel)
        lines.append(f"absolute_tolerance: {absolute!r}")
        lines.append(f"will_cooperate: {'yes' if cooperates else 'no'}")
        verdict_obj.update({"absolute_tolerance": absolute, "will_cooperate": cooperates})
        code = 0 if cooperates else 1
    if args.fmt == "structured-object":
        _emit(json.dumps(verdict_obj, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.values is None or args.param is None:
        raise SchemaError("flags", "sweep needs --param and --values")
    values = _parse_values(args.values)

    if args.kind == "pd-alpha":
        from . import serialize
        from .pd_tolerant import SWEEPABLE, comparative_statics_sweep
        from .tolerance import ContinuousCdf

        if None in (args.a, args.b, args.c, args.d):
            raise SchemaError("payoffs", "pd-alpha sweeps need --a, --b, --c and --d")
        if args.param not in SWEEPABLE:
            raise SchemaError("flags", f"--param must be one of {SWEEPABLE}")
        payoffs = _payoffs(args)
        dist = serialize.distribution_from_obj(serialize.load_json(args.cdf), args.cdf)
        if not isinstance(dist, ContinuousCdf):
            raise SchemaError(args.cdf, "fixed-point sweeps need a continuous CDF")
        points = comparative_statics_sweep(payoffs, dist, args.param, values)
        rows = [[p.param_value, p.alpha_star, p.branch_id, p.marginal] for p in points]
        _emit(_csv(["param_value", "alpha_star", "branch_id", "marginal_flag"], rows), args.out)
        return 0

    from .dilemmas import RelativeTypeDistribution, cooperation_rate

    if args.seed is None:
        raise SchemaError("flags", "rate sweeps draw Monte Carlo samples; --seed is required")
    _check_probability("--q", args.q, "q")
    _check_probability("--beta-point", args.beta_point, "pinned belief")
    if args.samples < 1:
        raise SchemaError("--samples", f"need at least one sample, got {args.samples}")
    specs = [_dilemma_from_args(args, **{args.param: value}) for value in values]
    dist = RelativeTypeDistribution(q=args.q, beta_point=args.beta_point)
    child_seeds = [
        int(seq.generate_state(1)[0]) for seq in np.random.SeedSequence(args.seed).spawn(len(values))
    ]
    rows = []
    for value, spec, child in zip(values, specs, child_seeds):
        rate = cooperation_rate(spec, dist, args.samples, child)
        rows.append([float(value), rate.exact_rate, rate.mc_rate, rate.mc_stderr])
    _emit(_csv([args.param, "exact_rate", "mc_rate", "mc_stderr"], rows), args.out)
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
    p.add_argument("--grid", type=int, default=10_000, help="intervals of the --out curve")
    common(p)

    def spec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default=None, help="dilemma spec JSON file")
        p.add_argument("--kind", choices=(*_DILEMMAS, "pd-alpha"))
        types = {f.metadata["flag"]: f.type for cls in _DILEMMAS.values() for f in fields(cls)}
        for flag, annotation in types.items():
            p.add_argument(f"--{flag}", type=int if annotation == "int" else float)

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
    source = "--epsnum" if args.epsnum is not None else "TOLEQ_EPSNUM"
    value = args.epsnum if args.epsnum is not None else os.environ.get(source)
    token = None
    try:
        if value is not None:
            try:
                token = set_epsnum(value)
            except ValueError as exc:
                raise SchemaError(source, str(exc)) from None
        return _COMMANDS[args.command](args)
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
