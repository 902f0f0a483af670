"""The toleq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fixed-points --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; toleq is imported from its ``src``. The
workload runs in a fresh worker process (see worker.py), after
SETUP_SAMPLES - 1 further fresh processes that only set up, so that
``setup_s`` is a median. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Samples of every run are kept in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 3

WORKLOADS = ("cli-cold", "fixed-points", "rates", "verify")


class WorkerFailed(RuntimeError):
    pass


def spawn(args, setup_only: bool, timeout: float) -> tuple[float, dict, dict | None]:
    """Start one worker; return its set-up seconds, import times and result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not line.startswith("ready "):
        raise WorkerFailed(f"worker exited with code {proc.returncode} ({' '.join(cmd[2:])})")
    imports = json.loads(line[len("ready "):])
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1]) if lines and not setup_only else None
    if not setup_only and result is None:
        raise WorkerFailed("worker printed no result")
    return setup_s, imports, result


def usual_times(durations: list[float], round_size: int) -> list[float]:
    """Each request's time at the machine's usual speed: the upper quartile
    of its repeats over the run's rounds.

    A round repeats the same requests in the same order, so request i of a
    round is sample i modulo the round size. The machine runs most of the
    time at its usual speed, with bursts up to twice as fast and stretches
    up to 2.5 times slower (README.md, "Machine speed"). The upper quartile
    stays at the usual speed while the bursts take under three quarters of
    the run and the slow stretches under a quarter.
    """
    return [
        statistics.quantiles(durations[i::round_size], n=4, method="inclusive")[2]
        for i in range(round_size)
    ]


def end_to_end(result: dict, setups: list[float]) -> dict:
    durations = result["durations_ms"]
    usual = usual_times(durations, result["round_size"])
    metrics = {
        "ops_per_s": (len(usual) / (sum(usual) / 1e3), "op/s"),
        "op_p50_ms": (statistics.median(usual), "ms"),
        "op_tail_ms": (max(usual), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    setups, imports = [], []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, imported, _ = spawn(args, setup_only=True, timeout=60)
            setups.append(setup_s)
            imports.append(imported)
        setup_s, imported, result = spawn(args, setup_only=False, timeout=args.seconds + 120)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    imports.append(imported)

    if args.trace:
        metrics = result.pop("per_layer")
        for key in ("import_toleq_s", "import_numpy_s"):
            metrics[key.replace("_", ".", 1)]["value"] = statistics.median(i[key] for i in imports)
    else:
        metrics = end_to_end(result, setups)
    correct = result["valid_inputs"] and not result["unexpected"]
    record = dict(vars(args), setup_samples_s=setups, imports=imports, metrics=metrics, **result)
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    if result["unexpected"]:
        print(f"wrong outputs from: {', '.join(result['unexpected'])}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
