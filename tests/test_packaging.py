import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_are_importable():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).replace("-", "_") for d in deps]
    assert names
    missing = [n for n in names if importlib.util.find_spec(n) is None]
    assert not missing, f"declared but not importable: {missing}"


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the test process has imported scipy.optimize
# through other tests.  Each step asserts on sys.modules after it.
_IMPORT_GUARD = """
import sys
cfg_path, out_dir = sys.argv[1], sys.argv[2]

def guard(step):
    assert "scipy.optimize" not in sys.modules, "scipy.optimize imported by " + step

import quc.cli
from quc.config import parse_config
guard("import quc.cli")
parse_config(cfg_path)
guard("parse_config")
for command in ("solve", "analyze", "verify"):
    assert quc.cli.main(["--out-dir", out_dir, command, cfg_path]) == 0, command
    guard("quc " + command)
"""


def test_cli_path_does_not_import_scipy_optimize(tmp_path):
    # scipy.optimize serves only the refine step of cassels_oracle and costs
    # about a quarter of a second to import, more than a small solve
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "integrand": {"kind": "power", "p": 3.0},
        "problem": {"n": 9, "domain": [[0, 1], [0, 1]], "boundary": "x^2 - y^2"},
        "checks": [{"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5]}],
        "seed": 1,
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(cfg), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
