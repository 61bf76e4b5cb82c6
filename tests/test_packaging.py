import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hvactrade

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements}


def test_runtime_needs_numpy_and_pyyaml_alone():
    """The solver is numpy alone; scipy serves the tests and perfbench/."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert _names(project["dependencies"]) == {"numpy", "pyyaml"}
    assert "scipy" in _names(project["optional-dependencies"]["test"])


def test_every_name_in_a_module_all_exists():
    """`from hvactrade.<module> import *` finds every name it exports."""
    for info in pkgutil.iter_modules(hvactrade.__path__):
        module = importlib.import_module(f"hvactrade.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
