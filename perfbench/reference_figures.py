"""Reference figures for the README: single calls timed on this machine.

    python3 perfbench/reference_figures.py

Each figure is the median of several repeats; import and cold-CLI figures
use fresh processes. These are orientation figures, not benchmark metrics.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e3


def fresh(code: str, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        out.append(float(proc.stdout))
    return out


def main() -> None:
    import toleq as tq

    rows = []
    for module in ("numpy", "toleq"):
        code = f"from time import perf_counter as t; a = t(); import {module}; print(t() - a)"
        samples = fresh(code, 7)
        rows.append((f"import {module} (fresh process, s)", statistics.median(samples), min(samples), max(samples)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cold = []
    for _ in range(7):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "toleq.cli", "threshold", "--kind", "td", "--low", "2",
                        "--high", "100", "--bonus", "2"], capture_output=True, env=env, check=True)
        cold.append(perf_counter() - start)
    rows.append(("cold `toleq threshold` (s)", statistics.median(cold), min(cold), max(cold)))

    p, cdf = tq.PdPayoffs(3, -1, 5, 0), tq.UniformCdf(0, 4)
    rows.append(("solve_symmetric, grid 10k (ms)", timed(lambda: tq.solve_symmetric(p, cdf), 40), None, None))
    td = tq.TravelersDilemma(2, 100, 2)
    uniform = tq.RelativeTypeDistribution()
    rows.append(("exact_cooperation_rate, TD 2..100 (ms)", timed(lambda: tq.exact_cooperation_rate(td, uniform), 20), None, None))
    b4 = tq.BertrandCompetition(4, 2, 31)
    rows.append(("build_game(Bertrand(4, 2, 31)), 30 prices (ms)", timed(lambda: tq.build_game(b4), 5), None, None))
    built = tq.build_game(b4)
    profile = tq.beta_mixture_profile(built, 0.5)
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 3.0), (0.5, 0.5)), 4)
    rows.append(("verify on that game (ms)", timed(lambda: tq.verify_tolerant_equilibrium(built.game, profile, pi), 20), None, None))
    pd_pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 1.5, 3.0), (0.5, 0.3, 0.2)), 2)
    game = tq.as_game(p)
    rows.append(("symmetric_alpha_intervals, grid 1001 (ms)", timed(lambda: tq.symmetric_alpha_intervals(game, pd_pi, 1001), 5), None, None))

    print("| figure | median | min | max |")
    print("|---|---|---|---|")
    for name, median, lo, hi in rows:
        extra = f"{lo:.3g} | {hi:.3g}" if lo is not None else "- | -"
        print(f"| {name} | {median:.3g} | {extra} |")


if __name__ == "__main__":
    main()
