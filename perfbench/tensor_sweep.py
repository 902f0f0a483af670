"""How build_game's time and memory grow with the payoff tensor.

    python3 perfbench/tensor_sweep.py            # table on stdout, JSON in perfbench/out/

Traveler's Dilemma with claims 2..H and Bertrand with n = 2..4 firms and k
prices. Each size is built in a fresh process, so its peak resident memory
is its own. A size whose tensor (k**n * n * 8 bytes) exceeds CAP_MB is
skipped, not built: build_game's temporaries take several times the tensor,
and the machine has 8 GB and no swap. This is a reference measurement for
the README, not a workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CAP_MB = 64.0

SIZES = (
    [("td", 2, h - 1) for h in (50, 100, 200, 400, 800, 1600, 2000, 2800)]
    + [("bertrand", 2, k) for k in (50, 200, 500, 1000, 2000, 3000)]
    + [("bertrand", 3, k) for k in (10, 30, 60, 90, 120, 150)]
    + [("bertrand", 4, k) for k in (10, 20, 30, 40, 50)]
)


def tensor_mb(n: int, k: int) -> float:
    return k**n * n * 8 / 1e6


def build_one(kind: str, n: int, k: int) -> dict:
    """Build one game in this process; report its time and memory."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import toleq as tq

    base_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spec = tq.TravelersDilemma(2, 2 + k - 1, 2) if kind == "td" else tq.BertrandCompetition(n, 2, 2 + k - 1)
    start = perf_counter()
    built = tq.build_game(spec)
    seconds = perf_counter() - start
    assert built.game.payoffs.shape == (k,) * n + (n,)
    return {
        "kind": kind, "players": n, "strategies": k,
        "build_ms": seconds * 1e3,
        "tensor_mb": tensor_mb(n, k),
        "baseline_rss_mb": base_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=3, metavar=("KIND", "N", "K"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        kind, n, k = args.one
        print(json.dumps(build_one(kind, int(n), int(k))))
        return 0

    rows = []
    print(f"{'game':10s} {'n':>2s} {'k':>5s} {'tensor MB':>10s} {'build ms':>9s} {'peak RSS MB':>12s}")
    for kind, n, k in SIZES:
        if tensor_mb(n, k) > CAP_MB:
            print(f"{kind:10s} {n:2d} {k:5d} {tensor_mb(n, k):10.1f} {'skipped: over the cap':>22s}")
            continue
        proc = subprocess.run([sys.executable, __file__, "--one", kind, str(n), str(k)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        row = json.loads(proc.stdout)
        rows.append(row)
        print(f"{kind:10s} {n:2d} {k:5d} {row['tensor_mb']:10.1f} {row['build_ms']:9.1f} {row['peak_rss_mb']:12.1f}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "tensor_sweep.json", "w", encoding="utf-8") as handle:
        json.dump({"cap_mb": CAP_MB, "rows": rows}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
