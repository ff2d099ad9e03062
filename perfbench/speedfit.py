"""Choose the elasticity that scales the benchmark's times to reference
speed, and record the runs it is chosen on.

    python3 perfbench/speedfit.py

Run it from the root of a kconn checkout; it takes about twenty minutes.  It
makes ``RUNS`` runs of each workload as ``run.py --trace 0`` makes them
(seeds 1 to ``RUNS``, ``run_seconds`` from BENCHMARK.json) and keeps every
process's time with the calibrations timed around it, in
``speedfit_runs.json``.  For each candidate elasticity it computes every
run's ``wall_s`` and ``setup_s`` as ``run.py`` does, and their quartile
spread across the runs as a share of their median.  It writes that table
under ``speed_fit`` in baseline.json, with the candidate whose largest
``wall_s`` spread over the workloads is smallest; ``run.py``'s
``SPEED_ELASTICITY`` is that candidate.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

from run import SETUP_LAUNCHES, SPEED_ELASTICITY, Bench, Timing, repeat_passes
from workloads import HERE, WORKLOADS

BASELINE_FILE = HERE / "baseline.json"
RUNS_FILE = HERE / "speedfit_runs.json"
RUNS = 10
CANDIDATES = tuple(k / 10 for k in range(13))  # 0.0, 0.1, ..., 1.2


def collect(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's timings: ``[seconds, before, after]`` of every
    set-up launch, and of every process of every pass."""
    rng = random.Random(seed)
    setup = bench.setup_times(SETUP_LAUNCHES)
    passes = repeat_passes(bench, workload, rng, seconds, False, (False,))[False]
    return {"seed": seed,
            "setup": [[t.seconds, t.before, t.after] for t in setup],
            "passes": [[[r.timing.seconds, r.timing.before, r.timing.after] for r in p.ops]
                       for p in passes]}


def _scaled(timing: list[float], elasticity: float) -> float:
    t = Timing(*timing)
    return t.seconds * t.speed_factor(elasticity)


def wall_s(run: dict, elasticity: float) -> float:
    return statistics.median(sum(_scaled(t, elasticity) for t in p) for p in run["passes"])


def setup_s(run: dict, elasticity: float) -> float:
    return statistics.median(_scaled(t, elasticity) for t in run["setup"])


def iqr_share(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def spread_table(runs: dict[str, list[dict]]) -> dict:
    """Per workload and candidate elasticity, the spread of wall_s and setup_s."""
    return {workload: {str(e): {"wall_s": round(iqr_share([wall_s(r, e) for r in rs]), 4),
                                "setup_s": round(iqr_share([setup_s(r, e) for r in rs]), 4)}
                       for e in CANDIDATES}
            for workload, rs in runs.items()}


def record(runs: dict[str, list[dict]]) -> dict:
    """Write ``runs`` to speedfit_runs.json and their table to baseline.json."""
    table = spread_table(runs)
    best = min(CANDIDATES, key=lambda e: max(t[str(e)]["wall_s"] for t in table.values()))
    fit = {"runs_per_workload": {w: [r["seed"] for r in rs] for w, rs in runs.items()},
           "best": best, "elasticity_used": SPEED_ELASTICITY, "iqr_share": table}
    with open(RUNS_FILE, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, separators=(",", ":"))
        fh.write("\n")
    with open(BASELINE_FILE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    baseline["speed_fit"] = fit
    with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return fit


def main() -> int:
    root = Path.cwd()
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    bench = Bench(root)
    runs = {w: [collect(bench, w, seed, seconds) for seed in range(1, RUNS + 1)]
            for w in WORKLOADS}
    fit = record(runs)
    for e in CANDIDATES:
        row = "  ".join(f"{w} {t[str(e)]['wall_s']:.3f}/{t[str(e)]['setup_s']:.3f}"
                        for w, t in fit["iqr_share"].items())
        print(f"elasticity {e:.1f}: wall_s/setup_s spread  {row}", file=sys.stderr)
    print(f"best {fit['best']}, used {SPEED_ELASTICITY}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
