"""Per-layer metrics: which kconn public names the traced run wraps, and how
the spans it writes are folded into ``<module>.<public name>.<kind>`` values.

Kinds:

- ``calls``: calls made through the module bindings of the name;
- ``self_s``: span durations minus the time their traced child spans cover;
- ``wall_s``: span durations, children included;
- ``hit_ratio``: lru-cache hits over lookups, from ``cache_info()``;
- ``nonzeros``: nonzero relation entries handed to the call, summed;
- ``max_cells``: the largest rows x columns relation matrix handed to it;
- ``exponent``: log-log least-squares slope of the per-degree time, children
  included, against the degree, over the upper half of each process's degree
  sweep.

Span times are scaled to the reference machine speed described in
``run.py``.  The ``<module>.import_s`` times, parsed from ``python -X
importtime``, are self import times as measured, not scaled.
"""

from __future__ import annotations

import json
import math
import statistics

TRACED = (
    ("abelian", "cokernel_group", ("calls", "self_s", "nonzeros", "max_cells")),
    ("abelian", "IntegerMatrix", ("calls", "self_s")),
    ("abelian", "simplify_presentation", ("calls", "self_s")),
    ("abelian", "kernel_of_map", ("calls", "self_s")),
    ("abelian", "element_order", ("calls", "self_s")),
    ("kmods", "realize_slice", ("calls", "self_s", "hit_ratio")),
    ("kmods", "ku_smash_check", ("calls", "self_s")),
    ("kunneth", "tensor_degree", ("calls", "self_s", "hit_ratio", "exponent")),
    ("kunneth", "tor1_degree", ("calls", "self_s", "hit_ratio", "exponent")),
    ("kunneth", "kunneth_smash_group", ("calls", "self_s")),
    ("kunneth", "verify_bu_decomposition", ("self_s",)),
    ("steenrod", "hom_dim", ("calls", "self_s")),
    ("steenrod", "hom_basis", ("calls", "self_s")),
    ("steenrod", "f2_rank", ("calls", "self_s")),
    ("steenrod", "f2_echelon", ("calls", "self_s")),
    ("steenrod", "f2_nullspace", ("calls", "self_s")),
    ("steenrod", "verify_hom_sequence", ("self_s",)),
    ("exactseq", "bott_audit", ("self_s",)),
    ("exactseq", "bo1_les_consistency", ("self_s",)),
    ("exactseq", "load_fixture_table", ("self_s",)),
    *(("verify", f"criterion_{k}", ("wall_s",)) for k in range(1, 11)),
    ("cli", "main", ("self_s",)),
)

# spans of these names carry the relation matrix's size
MATRIX_PROBED = {"abelian.cokernel_group"}
# spans of these names carry the degree argument, for the scaling fit
DEGREE_PROBED = {"kunneth.tensor_degree", "kunneth.tor1_degree"}

IMPORTED = ("kconn", "kconn.abelian", "kconn.kmods", "kconn.kunneth",
            "kconn.steenrod", "kconn.exactseq", "kconn.verify", "kconn.cli")

UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "hit_ratio": "ratio",
         "nonzeros": "count", "max_cells": "count", "exponent": "1"}


def import_metric(module: str) -> str:
    return module.split(".", 1)[-1] + ".import_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, name, kinds in TRACED:
        for kind in kinds:
            out[f"{module}.{name}.{kind}"] = UNITS[kind]
    for module in IMPORTED:
        out[import_metric(module)] = "s"
    out["trace.overhead_s"] = "s"
    return out


def fit_exponent(points) -> float | None:
    """Least-squares slope of log(seconds) against log(degree)."""
    pts = [(math.log(d), math.log(t)) for d, t in points if d > 0 and t > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _upper_half_exponent(per_degree: dict[int, float]) -> float | None:
    degrees = sorted(per_degree)
    top = degrees[len(degrees) // 2:]
    return fit_exponent((d, per_degree[d]) for d in top)


def fold_pass(span_files) -> tuple[dict[str, float], set[str]]:
    """Fold the span files of one workload pass, given as (path, scale) with
    one file per process, into per-layer values, each span time multiplied by
    its file's scale; also return the traced labels that no longer exist."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    nonzeros: dict[str, int] = {}
    max_cells: dict[str, int] = {}
    hits: dict[str, list[int]] = {}
    exponents: dict[str, list[float]] = {}
    absent: set[str] = set()
    for path, scale in span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        absent.update(doc["absent"])
        labels = doc["labels"]
        per_degree: dict[str, dict[int, float]] = {}
        for label_idx, _, _, _, _, seconds, own, degree, nnz, cells in doc["spans"]:
            label = labels[label_idx]
            duration = seconds * scale
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + own * scale
            wall_s[label] = wall_s.get(label, 0.0) + duration
            if nnz is not None:
                nonzeros[label] = nonzeros.get(label, 0) + nnz
                max_cells[label] = max(max_cells.get(label, 0), cells)
            if degree is not None:
                sweep = per_degree.setdefault(label, {})
                # cache hits at a degree add microseconds to the miss
                sweep[degree] = sweep.get(degree, 0.0) + duration
        for label, sweep in per_degree.items():
            slope = _upper_half_exponent(sweep)
            if slope is not None:
                exponents.setdefault(label, []).append(slope)
        for label, (h, m) in doc["caches"].items():
            acc = hits.setdefault(label, [0, 0])
            acc[0] += h
            acc[1] += m
    values: dict[str, float] = {}
    for module, name, kinds in TRACED:
        label = f"{module}.{name}"
        for kind in kinds:
            if kind == "calls":
                v = calls.get(label, 0)
            elif kind == "self_s":
                v = self_s.get(label, 0.0)
            elif kind == "wall_s":
                v = wall_s.get(label, 0.0)
            elif kind == "nonzeros":
                v = nonzeros.get(label, 0)
            elif kind == "max_cells":
                v = max_cells.get(label, 0)
            elif kind == "hit_ratio":
                h, m = hits.get(label, (0, 0))
                v = h / (h + m) if h + m else 0.0
            else:  # exponent; 0.0 where the workload has no sweep of this name
                slopes = exponents.get(label)
                v = statistics.median(slopes) if slopes else 0.0
            values[f"{label}.{kind}"] = v
    return values, absent


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import seconds of each kconn module, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in IMPORTED and parts[0].isdigit():
            out[parts[2]] = int(parts[0]) / 1e6
    return out
