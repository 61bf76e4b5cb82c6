import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements}


def test_runtime_needs_numpy_and_pyyaml_alone():
    """The solver is numpy alone; scipy serves the tests and perfbench/."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert _names(project["dependencies"]) == {"numpy", "pyyaml"}
    assert "scipy" in _names(project["optional-dependencies"]["test"])
