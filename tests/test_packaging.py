import importlib.util
import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_are_importable():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).replace("-", "_") for d in deps]
    assert names
    missing = [n for n in names if importlib.util.find_spec(n) is None]
    assert not missing, f"declared but not importable: {missing}"
