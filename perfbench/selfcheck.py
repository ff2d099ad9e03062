"""Fast self-check of the benchmark, at tiny sizes.

    python3 perfbench/selfcheck.py

Run it from the root of a kconn checkout; it exits 0 when every check holds.
For every workload it records the tiny operations' outputs, then checks that

- every metric BENCHMARK.json names is emitted with its unit, and with no
  key but ``value`` and ``unit``, with tracing off and on, and every output
  matches;
- one deliberately altered expected output is counted as exactly one failed
  operation, so the correctness gate can fail;

and that the tracer reaches ``cokernel_group`` through the copy bound in
``kunneth`` and every acceptance criterion through ``verify.ALL_CRITERIA``,
and reports a traced name that does not exist as absent.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
from record import record
from run import Bench, measure
from workloads import WORKLOADS

# Per-layer metrics that stay 0 unless the tracer reaches a copy of a name:
# cokernel_group through its binding in kunneth, and every criterion through
# the verify.ALL_CRITERIA tuple that verify-all iterates.
REACHED = {
    "tensor_even": ("abelian.cokernel_group.calls",),
    "acceptance": tuple(f"verify.criterion_{k}.wall_s" for k in range(1, 11)),
}


def _altered(expected: dict) -> dict:
    key = sorted(expected)[0]
    wrong = {"exit": -1, "sha256": ""} if "exit" in expected[key] else {"value": None}
    return {**expected, key: wrong}


def _absent_is_reported(root: Path) -> bool:
    sys.path.insert(0, str(root / "src"))
    import traced

    saved = layers.TRACED
    layers.TRACED = saved + (("abelian", "no_such_function", ("calls",)),)
    try:
        tracer = traced.Tracer()
        tracer.install()
    finally:
        layers.TRACED = saved
    return tracer.absent == ["abelian.no_such_function"]


def main() -> int:
    root = Path.cwd()
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    bench = Bench(root)
    problems = []
    for workload in WORKLOADS:
        expected = record(bench, workload, tiny=True)
        for trace, want in wanted.items():
            result, _ = measure(bench, workload, 1, 0, trace, expected, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            extra = sorted(name for name, m in result["metrics"].items()
                           if set(m) != {"value", "unit"})
            if extra or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={int(trace)}: keys beyond the "
                                f"contract's: {sorted(result)} {extra}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
            for name in REACHED.get(workload, ()) if trace else ():
                if not result["metrics"][name]["value"]:
                    problems.append(f"{workload}: {name} is 0, so its calls were not traced")
        result, _ = measure(bench, workload, 1, 0, False, _altered(expected), tiny=True)
        if result["failed"] != 1 or result["metrics"]["ok_op_share"]["value"] >= 1:
            problems.append(f"{workload}: an altered expected output was not counted "
                            f"({result['failed']} of {result['attempted']} failed)")
    if not _absent_is_reported(root):
        problems.append("a traced name that does not exist was not reported absent")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
