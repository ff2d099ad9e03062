"""One library operation in a fresh interpreter: call one public kconn
function once per query and print each result as canonical JSON, one line
per query.

    python3 perfbench/libop.py MODULE FUNCTION QUERIES_JSON

QUERIES_JSON is a JSON list of positional-argument lists.
"""

from __future__ import annotations

import importlib
import json
import sys


def canonical(value):
    """Groups and reports by their canonical JSON form, scalars as they are."""
    to_json = getattr(value, "to_json_dict", None)
    return to_json() if to_json is not None else value


def run(module: str, function: str, queries: list) -> None:
    fn = getattr(importlib.import_module(f"kconn.{module}"), function)
    for args in queries:
        sys.stdout.write(json.dumps(canonical(fn(*args)), sort_keys=True) + "\n")


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2], json.loads(sys.argv[3]))
