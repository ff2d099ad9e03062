"""kconn benchmark: run one workload as fresh processes and report its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload tensor_even --seed 1 --seconds 28 --trace 0

Run it from the root of a kconn checkout; the program is imported from
``src/``.  Compiled bytecode and span files go to ``.bench_build/``.

A run first times the ``setup_s`` launches, then repeats passes of the
workload (every operation once, in order, each a fresh process) for about
``--seconds``, and checks every operation's output against
``perfbench/expected.json``.  With ``--trace 0`` it reports the end-to-end
metrics, each the median over its samples.  With ``--trace 1`` untraced and
traced passes (see ``traced.py``) take turns, and it reports the per-layer
metrics of ``layers.py``; ``trace.overhead_s`` is the median difference
between a traced pass and the untraced pass before it.

Times are reported at a reference machine speed.  On a shared machine the
speed of a CPU drifts by up to 2x over tens of seconds, which no number of
repetitions averages out.  So the benchmark pins itself and its children to
one CPU, times a fixed calibration kernel before and after every process, and
scales each process's time by ``CALIBRATION_REF_S`` over the mean of those
two calibrations, raised to ``SPEED_ELASTICITY``.

Each metric on the result line holds only its ``value`` and ``unit``.  The
line before it is ``{"details": {...}}``: each metric's sample count, the
unscaled medians of ``wall_s`` and ``setup_s``, and ``"absent": true`` for a
traced name the program no longer has.  Standard error repeats all of it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import libop
from workloads import HERE, WORKLOADS, Operation, cross_check_query, operations

EXPECTED_FILE = HERE / "expected.json"
SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3
# The calibration kernel's time at the reference machine speed.
CALIBRATION_REF_S = 0.02
# How far a process's time is taken to move, in log terms, when the kernel's
# does.  speedfit.py chose it: of the candidates it tried on the same runs,
# it gives the smallest largest run-to-run spread of wall_s over the four
# workloads.  The table and the runs are under "speed_fit" in baseline.json
# and in speedfit_runs.json.
SPEED_ELASTICITY = 0.7
SETUP_CODE = ("import kconn.cli\n"
              "from kconn.exactseq import load_fixture_table\n"
              "load_fixture_table()\n")


def _kernel() -> float:
    start = perf_counter()
    rows = [[(i * j) % 5 for j in range(300)] for i in range(300)]
    acc: dict[tuple[int, int], int] = {}
    for row in rows:
        for j, v in enumerate(row):
            if v:
                acc[j, v] = acc.get((j, v), 0) + v
    return perf_counter() - start


def calibrate() -> float:
    """The faster of two timings of a fixed pure-Python kernel: dense integer
    rows folded into a sparse dict, like the relation matrices kconn builds.
    Its time tracks kconn's far better than a loop of arithmetic alone."""
    return min(_kernel(), _kernel())


@dataclass(frozen=True)
class Timing:
    """A process's wall time and the calibrations timed just before and
    after it."""

    seconds: float
    before: float
    after: float

    def speed_factor(self, elasticity: float = SPEED_ELASTICITY) -> float:
        """The factor that brings a time measured here to reference speed."""
        return (CALIBRATION_REF_S * 2 / (self.before + self.after)) ** elasticity

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed_factor()


@dataclass
class OpResult:
    op: Operation
    exit_code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timing: Timing


@dataclass
class PassResult:
    ops: list[OpResult]
    # (span file, the factor that brings its times to reference speed)
    span_files: list[tuple[str, float]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.timing.seconds for r in self.ops)

    @property
    def scaled_wall_s(self) -> float:
        return sum(r.timing.scaled for r in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kb for r in self.ops) / 1024


class Bench:
    """Spawns the program's processes from one checkout, one at a time.

    The benchmark and its children are pinned to one CPU, so that the
    calibrations between operations measure the CPU the operations ran on.
    """

    def __init__(self, root: Path):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.root = root
        self.build = root / ".bench_build"
        self.trace_dir = self.build / "trace"
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        for var in ("KCONN_FIXTURES", "PYTHONDONTWRITEBYTECODE"):
            env.pop(var, None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(self.build / "pycache")
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self._closed_forms: dict[tuple, object] = {}

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, object]:
        """Run ``argv`` to its exit; return exit code, stdout, stderr and the
        child's resource usage, read with ``os.wait4``."""
        with tempfile.TemporaryFile(dir=self.build) as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=self.root, env=self.env)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, out, err.read(), usage

    def run_pass(self, ops: list[Operation], traced: bool, tag: str) -> PassResult:
        spans = [str(self.trace_dir / f"{tag}-op{k}.json") if traced else None
                 for k in range(len(ops))]
        result = PassResult([])
        before = calibrate()
        for op, spans_file in zip(ops, spans):
            start = perf_counter()
            code, out, err, usage = self.spawn(op.argv(spans_file))
            seconds = perf_counter() - start
            after = calibrate()
            timing = Timing(seconds, before, after)
            if spans_file is not None and os.path.exists(spans_file):
                result.span_files.append((spans_file, timing.speed_factor()))
            before = after
            result.ops.append(OpResult(op, code, out, err, usage.ru_maxrss, timing))
        return result

    def setup_times(self, launches: int) -> list[Timing]:
        """Set-up launches, each timed between two calibrations."""
        argv = [sys.executable, "-c", SETUP_CODE]
        self.spawn(argv)  # compiles the bytecode once, untimed
        times = []
        before = calibrate()
        for _ in range(launches):
            start = perf_counter()
            code, _, err, _ = self.spawn(argv)
            seconds = perf_counter() - start
            after = calibrate()
            times.append(Timing(seconds, before, after))
            before = after
            if code != 0:
                raise RuntimeError(f"set-up launch failed:\n{err.decode(errors='replace')}")
        return times

    def import_times(self, launches: int) -> dict[str, float]:
        argv = [sys.executable, "-X", "importtime", "-c", "import kconn.cli"]
        samples: dict[str, list[float]] = {}
        for _ in range(launches):
            _, _, err, _ = self.spawn(argv)
            for module, secs in layers.parse_importtime(err.decode()).items():
                samples.setdefault(module, []).append(secs)
        return {m: statistics.median(v) for m, v in samples.items()}

    def closed_form(self, function: tuple[str, str], query: tuple):
        """Answer ``query`` in this process, for the cross-checks."""
        if query not in self._closed_forms:
            src = str(self.root / "src")
            if src not in sys.path:
                sys.path.insert(0, src)
            fn = getattr(importlib.import_module(f"kconn.{function[0]}"), function[1])
            self._closed_forms[query] = libop.canonical(fn(*query))
        return self._closed_forms[query]


def check_pass(bench: Bench, result: PassResult, expected: dict) -> tuple[int, list[str]]:
    """Compare every output of a pass with the recorded one; return the number
    of outputs checked and the keys of those that differ."""
    attempted, failed = 0, []
    for r in result.ops:
        keys = r.op.keys()
        attempted += len(keys)
        if r.op.function is None:
            want = expected.get(keys[0])
            got = {"exit": r.exit_code, "sha256": hashlib.sha256(r.stdout).hexdigest()}
            if want != got:
                failed.append(keys[0])
            continue
        lines = r.stdout.decode().splitlines() if r.exit_code == 0 else []
        for k, (key, query) in enumerate(zip(keys, r.op.queries)):
            value = json.loads(lines[k]) if k < len(lines) else None
            want = expected.get(key)
            ok = want is not None and value == want["value"]
            other = cross_check_query(r.op.function, query)
            if ok and other is not None:
                ok = value == bench.closed_form(r.op.function, other)
            if not ok:
                failed.append(key)
    return attempted, failed


class Metrics:
    """The result's metrics, ``{"value", "unit"}`` each, and their details."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        self.details: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int, **detail) -> None:
        self.values[name] = {"value": value, "unit": unit}
        self.details[name] = {"samples": samples, **detail}


def repeat_passes(bench, workload, rng, seconds, tiny, modes) -> dict[bool, list[PassResult]]:
    """Rounds of passes for about ``seconds``, at least one.  A round runs one
    pass in each of ``modes`` (untraced, traced) in turn, so that the modes
    see the same drift of the machine's speed.  Another round starts only if
    one as long as the last would end in time."""
    runs: dict[bool, list[PassResult]] = {traced: [] for traced in modes}
    start = perf_counter()
    while True:
        round_s = 0.0
        for traced, passes in runs.items():
            tag = f"{'pass' if traced else 'plain'}{len(passes)}"
            passes.append(bench.run_pass(operations(workload, rng, tiny), traced, tag))
            round_s += passes[-1].wall_s
        if perf_counter() - start + round_s > seconds:
            return runs


def measure(bench: Bench, workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result object printed on the last line
    and the details printed on the line before it."""
    rng = random.Random(seed)
    setup = bench.setup_times(SETUP_LAUNCHES)
    for old in bench.trace_dir.glob("pass*-op*.json"):
        old.unlink()
    runs = repeat_passes(bench, workload, rng, seconds, tiny,
                         (False, True) if trace else (False,))
    plain, traced = runs[False], runs.get(True, [])

    attempted, failed = 0, []
    for result in plain + traced:
        n, bad = check_pass(bench, result, expected)
        attempted += n
        failed += bad
    for key in dict.fromkeys(failed):
        print(f"perfbench: output differs from the recorded one: {key}", file=sys.stderr)

    metrics = Metrics()
    if not trace:
        metrics.add("wall_s", statistics.median(p.scaled_wall_s for p in plain), "s",
                    len(plain), unscaled=statistics.median(p.wall_s for p in plain))
        metrics.add("setup_s", statistics.median(t.scaled for t in setup), "s", len(setup),
                    unscaled=statistics.median(t.seconds for t in setup))
        metrics.add("peak_rss_mb", statistics.median(p.peak_rss_mb for p in plain), "MB",
                    len(plain))
        metrics.add("ok_op_share", 1 - len(failed) / attempted, "share", attempted)
    else:
        units = layers.metric_units()
        folded = [layers.fold_pass(p.span_files) for p in traced]
        absent = set().union(*(a for _, a in folded))
        for name in folded[0][0]:
            middle = statistics.median_low if units[name] == "count" else statistics.median
            value = middle(values[name] for values, _ in folded)
            gone = {"absent": True} if name.rsplit(".", 1)[0] in absent else {}
            metrics.add(name, value, units[name], len(traced), **gone)
        imports = bench.import_times(IMPORTTIME_LAUNCHES)
        for module in layers.IMPORTED:
            gone = {} if module in imports else {"absent": True}
            metrics.add(layers.import_metric(module), imports.get(module, 0.0), "s",
                        IMPORTTIME_LAUNCHES, **gone)
        overhead = statistics.median(t.scaled_wall_s - p.scaled_wall_s
                                     for p, t in zip(plain, traced))
        metrics.add("trace.overhead_s", overhead, "s", len(traced))
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics.values}
    return result, metrics.details


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kconn" / "cli.py").is_file():
        print("perfbench: no src/kconn here; run from the root of a kconn checkout",
              file=sys.stderr)
        return 2
    result, details = measure(Bench(root), args.workload, args.seed, args.seconds,
                              bool(args.trace), load_expected())
    for name, m in result["metrics"].items():
        d = details[name]
        flag = " (absent)" if d.get("absent") else ""
        if "unscaled" in d:
            flag += f", unscaled {d['unscaled']:.6g} {m['unit']}"
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={d['samples']}){flag}", file=sys.stderr)
    print(f"{args.workload} failed_op_share = {result['failed']}/{result['attempted']}",
          file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
