"""The benchmark's traced run wraps kconn functions by name; a name that is
gone only shows there, in a slow self-check.  Catch it here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, name) for module, name, _ in layers.TRACED]


TRACED = _traced()


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"kconn.{module}"), name, None))
