"""Run one benchmark operation with spans recorded around kconn's public
functions.

    python3 perfbench/traced.py SPANS_FILE cli VERB ARGS...
    python3 perfbench/traced.py SPANS_FILE lib MODULE FUNCTION QUERIES_JSON

Every name in ``layers.TRACED`` is resolved once, before the operation
starts, and every binding of that object across the loaded ``kconn.*``
modules (module globals and the tuples, lists and dicts they hold) is
replaced by one recording wrapper, so copies made by ``from .abelian import
cokernel_group`` are traced too.  A class is traced through its
``__init__``.  A name that no longer exists is listed as absent.  Spans stay
in memory and are written to SPANS_FILE as JSON when the operation ends.
The time spent measuring the matrices handed to a call is left out of every
span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter

import layers
import libop


def _matrix_size(args, kwargs) -> tuple[int, int] | tuple[None, None]:
    """Nonzeros and rows x columns of the first matrix-like argument."""
    width = next((a for a in args if isinstance(a, int)), 0)
    for arg in (*args, *kwargs.values()):
        rows = getattr(arg, "entries", arg)
        if not isinstance(rows, (list, tuple)):
            continue
        if rows and not isinstance(rows[0], (list, tuple, dict)):
            continue
        cols = getattr(arg, "cols", width)
        nnz = sum(len(r) if isinstance(r, dict) else len(r) - r.count(0) for r in rows)
        return nnz, len(rows) * cols
    return None, None


def _degree(args, kwargs) -> int | None:
    if isinstance(kwargs.get("n"), int):
        return kwargs["n"]
    return next((a for a in reversed(args) if isinstance(a, int)), None)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        # [label index, span id, parent id, start, end, seconds, self seconds,
        #  degree, nonzeros, cells]; seconds leave out the tracer's probes
        self.spans: list[tuple] = []
        self.caches: dict[str, object] = {}
        self.absent: list[str] = []
        # [span id, child seconds, probe seconds] per open span
        self._open: list[list] = []
        self._ids = itertools.count()

    def wrap(self, label: str, fn):
        idx = len(self.labels)
        self.labels.append(label)
        probe_matrix = label in layers.MATRIX_PROBED
        probe_degree = label in layers.DEGREE_PROBED
        open_spans, spans, ids = self._open, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nnz = cells = None
            if probe_matrix:
                # the probe is the tracer's work: every open span drops it
                probe_start = perf_counter()
                nnz, cells = _matrix_size(args, kwargs)
                probe_s = perf_counter() - probe_start
                for open_frame in open_spans:
                    open_frame[2] += probe_s
            degree = _degree(args, kwargs) if probe_degree else None
            parent = open_spans[-1][0] if open_spans else -1
            frame = [next(ids), 0.0, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                seconds = end - start - frame[2]
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += seconds
                spans.append((idx, frame[0], parent, start, end, seconds,
                              seconds - frame[1], degree, nnz, cells))

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        import kconn.cli  # noqa: F401  (loads every kconn module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kconn" or name.startswith("kconn.")]
        for module, name, _ in layers.TRACED:
            label = f"{module}.{name}"
            obj = getattr(sys.modules.get(f"kconn.{module}"), name, None)
            if obj is None:
                self.absent.append(label)
            elif isinstance(obj, type):
                obj.__init__ = self.wrap(label, obj.__init__)
            else:
                if hasattr(obj, "cache_info"):
                    self.caches[label] = obj
                wrapped = self.wrap(label, obj)
                for m in modules:
                    _rebind(vars(m), obj, wrapped)

    def write(self, path: str) -> None:
        caches = {}
        for label, fn in self.caches.items():
            info = fn.cache_info()
            caches[label] = [info.hits, info.misses]
        doc = {"labels": self.labels, "absent": self.absent,
               "caches": caches, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(namespace: dict, obj, wrapped) -> None:
    for key, value in list(namespace.items()):
        if value is obj:
            namespace[key] = wrapped
        elif type(value) is tuple and any(v is obj for v in value):
            namespace[key] = tuple(wrapped if v is obj else v for v in value)
        elif type(value) is list:
            value[:] = [wrapped if v is obj else v for v in value]
        elif type(value) is dict and any(v is obj for v in value.values()):
            for k, v in value.items():
                if v is obj:
                    value[k] = wrapped


def main(argv: list[str]) -> int:
    spans_file, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            from kconn import cli
            return cli.main(rest)
        libop.run(rest[0], rest[1], json.loads(rest[2]))
        return 0
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
