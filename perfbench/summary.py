"""Print the end-to-end metrics of every workload by name and unit, plus
failed_op_share, the share of checked operations whose output differed.

    python3 perfbench/summary.py

Run it from the root of a kconn checkout.  Each workload runs with seed 0
for BENCHMARK.json's ``run_seconds``.  It exits 1 if any output differed.
"""

from __future__ import annotations

import json
import subprocess
import sys

from workloads import HERE, WORKLOADS

SEED = 0


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    print(f"{'workload':<12} {'metric':<16} {'value':>12} {'unit':<6} samples")
    any_failed = False
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(run_seconds), "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True)
        *_, details, result = map(json.loads, proc.stdout.splitlines())
        rows = [(name, m["value"], m["unit"], details["details"][name]["samples"],
                 details["details"][name].get("unscaled"))
                for name, m in result["metrics"].items()]
        rows.append(("failed_op_share", result["failed"] / result["attempted"], "share",
                     result["attempted"], None))
        for name, value, unit, samples, unscaled in rows:
            tail = "" if unscaled is None else f"  (unscaled {unscaled:.6g})"
            print(f"{workload:<12} {name:<16} {value:>12.6g} {unit:<6} {samples}{tail}")
        any_failed |= result["failed"] > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
