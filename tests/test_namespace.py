"""The package namespace loads each name's home module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
# a stdlib module kconn imports, which loads inspect itself on some Python
# versions: only what kconn adds is checked
import importlib.resources
slow = {"dataclasses", "inspect"}
preloaded = slow & set(sys.modules)
import kconn.kunneth
loaded = [m for m in ("kconn.exactseq", "kconn.steenrod", "kconn.verify", "json")
          if m in sys.modules]
import importlib, json, kconn
namespace = {}
exec("from kconn import *", namespace)
# each name is the object of the module that defines it
wrong = [name for name in kconn.__all__ if namespace[name]
         is not getattr(importlib.import_module(namespace[name].__module__), name)]
import kconn.cli
print(json.dumps({"loaded": loaded, "wrong": wrong, "bound": sorted(set(namespace) & set(kconn.__all__)),
                  "dir": sorted(set(kconn.__all__) - set(dir(kconn))),
                  "slow": sorted(slow & set(sys.modules) - preloaded)}))
"""


def test_kunneth_loads_only_what_it_needs_and_star_binds_every_name():
    # and no kconn module loads dataclasses, or the inspect it imports: they
    # would add about 15 ms to the start of every process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    import kconn

    assert result["loaded"] == []
    assert result["wrong"] == []
    assert result["bound"] == sorted(kconn.__all__)
    assert result["dir"] == []
    assert result["slow"] == []


def test_unknown_name_is_an_attribute_error():
    import kconn

    with pytest.raises(AttributeError, match="no_such_name"):
        kconn.no_such_name
