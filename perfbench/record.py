"""Record the expected output of every benchmark operation.

    python3 perfbench/record.py            # writes perfbench/expected.json

Run it from the root of a kconn checkout whose outputs are known good.  A CLI
operation is recorded as its exit code and the SHA-256 of its stdout; a
library query as its canonical JSON value.  Library answers that have an
independent engine are cross-checked before anything is written.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from run import EXPECTED_FILE, Bench
from workloads import WORKLOADS, cross_check_query, operations


def record(bench: Bench, workload: str, tiny: bool = False) -> dict:
    """Expected outputs of one pass of ``workload``."""
    out = {}
    result = bench.run_pass(operations(workload, random.Random(0), tiny), False, "record")
    for r in result.ops:
        keys = r.op.keys()
        if r.op.function is None:
            out[keys[0]] = {"exit": r.exit_code,
                            "sha256": hashlib.sha256(r.stdout).hexdigest()}
            continue
        if r.exit_code != 0:
            raise RuntimeError(f"{keys[0]} exited {r.exit_code}:\n{r.stderr.decode()}")
        for key, query, line in zip(keys, r.op.queries, r.stdout.decode().splitlines(),
                                    strict=True):
            value = json.loads(line)
            other = cross_check_query(r.op.function, query)
            if other is not None and bench.closed_form(r.op.function, other) != value:
                raise RuntimeError(f"{key} disagrees with {other}")
            out[key] = {"value": value}
    return out


def main() -> int:
    bench = Bench(Path.cwd())
    expected = {}
    for workload in WORKLOADS:
        expected.update(record(bench, workload))
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} outputs in {EXPECTED_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
