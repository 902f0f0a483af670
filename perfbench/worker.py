"""One workload in one fresh process: set up, then run whole rounds.

Started by run.py. It prints ``ready <json>`` once its inputs are built (the
parent times set-up from spawn to that line) and, unless ``--setup-only``,
a JSON line with the run's samples at the end.

With ``--trace 1`` every operation runs twice, once with spans installed and
once without, in alternating order, so the difference is the tracing
overhead measured under the same machine conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2  # so that every request has at least two repeats for its usual time


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import numpy  # noqa: F401

    t1 = perf_counter()
    import toleq  # noqa: F401

    t2 = perf_counter()
    import spans
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        factory = workloads.WORKLOADS[args.workload]
        if args.workload == "cli-cold":
            workload = factory(args.seed, workdir, in_process=bool(args.trace))
        else:
            workload = factory(args.seed, workdir)
        setup_stats = {}
        if tracer:
            tracer.uninstall()
            setup_stats = tracer.take()
        imports = {"import_numpy_s": t1 - t0, "import_toleq_s": t2 - t0}
        print("ready " + json.dumps(imports), flush=True)
        if args.setup_only:
            return 0
        result = run(workload, args, tracer)
        if tracer:
            # Outputs are checked after both the traced and the untraced
            # execution, so root counts cover twice the traced operations.
            extra = dict(
                imports,
                roots_found=getattr(workload, "roots_found", 0) / 2,
                roots_missed=getattr(workload, "roots_missed", 0) / 2,
                overhead_ms_per_op=result.pop("overhead_ms_per_op"),
            )
            result["per_layer"] = spans.per_layer(setup_stats, tracer.stats, result["attempted"] / 2, extra)
            trace_file = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
            with open(trace_file, "w", encoding="utf-8") as handle:
                for record in tracer.spans or ():
                    handle.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end"), record))) + "\n")
        if args.workload == "cli-cold" and not args.trace:
            result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        else:
            result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
        for name in ("pass_verdicts", "fail_verdicts", "several_root", "symmetric"):
            if hasattr(workload, name):
                result[name] = getattr(workload, name)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, args, tracer) -> dict:
    """Repeat whole rounds, at least MIN_ROUNDS, until the round end nearest
    the run's seconds."""
    valid = getattr(workload, "validate_inputs", lambda: True)()
    durations, kinds = [], []
    attempted = failed = rounds = 0
    unexpected: list[str] = []
    overhead = []
    started = perf_counter()
    deadline = started + args.seconds
    while True:
        if tracer and rounds == 0:
            tracer.spans = []
        for i, op in enumerate(workload.ops):
            timings = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,):
                if traced:
                    tracer.install()
                try:
                    with tracer.op(op.kind) if traced else contextlib.nullcontext():
                        start = perf_counter()
                        try:
                            output = op.run()
                        except Exception as exc:  # a request that raises has failed
                            output = exc
                        elapsed = perf_counter() - start
                finally:
                    if traced:
                        tracer.uninstall()
                timings[traced] = elapsed
                ok = not isinstance(output, Exception) and _judge(op, output)
                attempted += 1
                if not ok:
                    failed += 1
                    if not op.known_fault:
                        unexpected.append(op.kind)
                durations.append(elapsed * 1e3)
                kinds.append(op.kind)
            if tracer:
                overhead.append(timings[True] - timings[False])
        rounds += 1
        if tracer and rounds == 1:
            tracer.spans, first_round = None, tracer.spans
        # Stop at the round end nearest the deadline: the next round would
        # end later past it than this one ends short of it.
        now = perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - started) / rounds / 2 >= deadline:
            break
    if tracer:
        tracer.spans = first_round
    by_kind: dict = {}
    for kind, ms in zip(kinds, durations):
        by_kind.setdefault(kind, []).append(ms)
    result = {
        "valid_inputs": valid,
        "attempted": attempted,
        "failed": failed,
        "unexpected": sorted(set(unexpected)),
        "rounds": rounds,
        "round_size": len(workload.ops),
        "durations_ms": durations,
        "by_kind": {k: [len(v), statistics.median(v)] for k, v in sorted(by_kind.items())},
    }
    if tracer:
        result["overhead_ms_per_op"] = statistics.fmean(overhead) * 1e3
    return result


def _judge(op, output) -> bool:
    try:
        return bool(op.check(output))
    except Exception:  # a malformed output is a wrong output
        return False


if __name__ == "__main__":
    sys.exit(main())
