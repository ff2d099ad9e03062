"""The benchmark's workloads, each a fixed list of operations run as fresh
processes, one at a time.

An operation is either a kconn CLI verb, run as ``python3 -m kconn.cli``, or
a fresh interpreter running ``libop.py``, which calls one public library
function once per query.  Inputs are fixed: the seed only permutes the order
of the library queries, so every seed does the same work.  ``tiny=True``
gives the same operations at small sizes, for the self-check; ``verify-all``
takes no size and runs in full.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("tensor_even", "tor_odd", "acceptance", "functionals")


@dataclass(frozen=True)
class Operation:
    """A CLI verb (``verb``) or a library function (``function`` as
    ``(module, name)``) called once for each query in ``queries``."""

    verb: tuple[str, ...] = ()
    function: tuple[str, str] | None = None
    queries: tuple[tuple, ...] = ()

    def keys(self) -> list[str]:
        """One key per checked output: the verb line, or one per query."""
        if self.function is None:
            return ["kconn " + " ".join(self.verb)]
        module, name = self.function
        return [f"{module}.{name}({', '.join(map(repr, q))})" for q in self.queries]

    def argv(self, spans_file: str | None = None) -> list[str]:
        if self.function is None:
            tail = ["cli", *self.verb]
        else:
            tail = ["lib", *self.function, json.dumps(self.queries)]
        if spans_file is not None:
            return [sys.executable, str(HERE / "traced.py"), spans_file, *tail]
        if self.function is None:
            return [sys.executable, "-m", "kconn.cli", *self.verb]
        return [sys.executable, str(HERE / "libop.py"), *tail[1:]]


def _json_verb(*words) -> Operation:
    return Operation(verb=(*map(str, words), "--format", "json"))


def _library(module: str, name: str, queries, rng) -> Operation:
    queries = list(queries)
    rng.shuffle(queries)
    return Operation(function=(module, name), queries=tuple(queries))


def operations(workload: str, rng, tiny: bool = False) -> list[Operation]:
    """The operations of one pass of ``workload``, library queries ordered
    by ``rng``."""
    if workload == "tensor_even":
        grid = ((2, 8), (3, 8)) if tiny else ((2, 80), (3, 72), (5, 96))
        return [_json_verb("smash-bu", "--p", p, "--max", top, "--tor-method", "closed-form")
                for p, top in grid]
    if workload == "tor_odd":
        primes, top = ((2, 3), 11) if tiny else ((2, 3, 5), 121)
        return [_library("kunneth", "kunneth_smash_group",
                         ((p, n, "resolution") for n in range(1, top + 1, 2)), rng)
                for p in primes]
    if workload == "acceptance":
        audit = _json_verb("audit", "--space", "smash", "--max", 16 if tiny else 48)
        return [Operation(verb=("verify-all",)), audit]
    if workload == "functionals":
        return [_json_verb("hom-dim", "--space", "smash", "--max", 20 if tiny else 300),
                _library("steenrod", "verify_hom_sequence", [(12 if tiny else 200,)], rng)]
    raise ValueError(f"unknown workload {workload!r}")


def cross_check_query(function: tuple[str, str], query: tuple) -> tuple | None:
    """The query that answers ``query`` through an independent engine, if
    there is one: resolution-kernel Tor against the closed form."""
    if function == ("kunneth", "kunneth_smash_group") and query[2] == "resolution":
        return (query[0], query[1], "closed_form")
    return None
