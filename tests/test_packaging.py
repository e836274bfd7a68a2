import ctypes
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from quc.config import ExperimentConfig

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_are_importable():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0).replace("-", "_") for d in deps]
    assert names
    missing = [n for n in names if importlib.util.find_spec(n) is None]
    assert not missing, f"declared but not importable: {missing}"


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the test process has imported scipy through
# other tests.  Each step asserts on sys.modules after it.
_IMPORT_GUARD = """
import sys
out_dir, cfg_paths = sys.argv[1], sys.argv[2:]

def guard(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, step + " imported " + ", ".join(loaded[:3])

import quc.cli
from quc.config import parse_config
guard("import quc.cli")
for cfg_path in cfg_paths:
    parse_config(cfg_path)
    guard("parse_config")
    for command in (["validate"], ["solve"], ["analyze"], ["verify"],
                    ["gauge", "--k", "1", "--angles", "16"]):
        argv = ["--out-dir", out_dir, command[0], cfg_path] + command[1:]
        assert quc.cli.main(argv) == 0, command
        guard("quc " + command[0] + " on " + cfg_path)
assert abs(quc.cassels_oracle([1.0, 4.0]) - 0.8) <= 1e-12
guard("quc.cassels_oracle")
"""


def _config(tmp_path, name, n, disk=False):
    problem = {"n": n, "domain": [[0, 1], [0, 1]], "boundary": "x^2 - y^2"}
    if disk:
        problem["mask"] = {"center": [0.5, 0.5], "radius": 0.45}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "integrand": {"kind": "power", "p": 3.0},
        "problem": problem,
        "checks": [{"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5]}],
        "seed": 1,
    }))
    return str(path)


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_path_does_not_import_scipy(tmp_path):
    # scipy serves only the SuperLU fallback of the solver; its import costs
    # more than a small solve.
    # n = 17 solves directly, n = 33 by multigrid CG, with and without a mask,
    # and the even n = 34 by multigrid CG on the padded grid 37.
    configs = [_config(tmp_path, "n17", 17), _config(tmp_path, "n33", 33),
               _config(tmp_path, "disk33", 33, disk=True),
               _config(tmp_path, "disk34", 34, disk=True)]
    proc = _run(_IMPORT_GUARD, tmp_path, *configs)
    assert proc.returncode == 0, proc.stderr[-2000:]


_SOLVE_GUARD = """
import sys
out_dir, cfg_paths = sys.argv[1], sys.argv[2:]
UNUSED = ("numpy.random", "secrets", "hashlib", "_hashlib")

def guard(step):
    loaded = [m for m in UNUSED if m in sys.modules]
    assert not loaded, step + " imported " + ", ".join(loaded)

import quc.cli
from quc.config import parse_config
guard("import quc.cli")
for cfg_path in cfg_paths:
    parse_config(cfg_path)
    guard("parse_config")
    assert quc.cli.main(["--out-dir", out_dir, "solve", cfg_path]) == 0
    guard("quc solve on " + cfg_path)
"""


def test_solve_loads_neither_numpy_random_nor_openssl(tmp_path):
    # a solve draws no samples, and the config digest needs no libcrypto
    power3 = {"kind": "power", "p": 3.0}
    ladder = {"kind": "mollified", "eps": 0.25, "mu": 0.25,
              "part": {"kind": "moreau", "delta": 0.25, "part": power3}}
    configs = []
    for name, integrand in (("power3", power3), ("ladder", ladder)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "integrand": integrand,
            "problem": {"n": 9, "boundary": "x^2 - y^2"},
        }))
        configs.append(path)
    proc = _run(_SOLVE_GUARD, tmp_path, *configs)
    assert proc.returncode == 0, proc.stderr[-2000:]


# With the interpreter's own SHA-256 modules blocked, quc.config takes hashlib's.
_DIGEST_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from quc.config import ExperimentConfig
assert "hashlib" in sys.modules
texts = json.loads(sys.argv[1])
print(json.dumps([ExperimentConfig(None, {}, None, [], source_text=t).sha256() for t in texts]))
"""


def test_config_digest_is_sha256_of_the_text_with_and_without_hashlib():
    texts = ['{"integrand": {"kind": "power", "p": 3.0}, "seed": 7}\n',
             '{"out_dir": "résultats/Ω₁", "problem": {"boundary": "x²"}}', ""]
    reference = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]
    assert [ExperimentConfig(None, {}, None, [], source_text=t).sha256()
            for t in texts] == reference
    proc = _run(_DIGEST_FALLBACK, json.dumps(texts))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == reference


_FALLBACK = """
import sys
import numpy as np
import quc, quc.solver as S
from quc.config import compile_boundary_expression

prob = lambda: quc.GridProblem(integrand=quc.make_power(3.0), n=33,
                               boundary=compile_boundary_expression("3.4*(x^2+y^2)^0.25"),
                               bounds=((1.0, 2.0), (1.0, 2.0)))
m = prob().mesh()
u = S._coons_init(m, prob().boundary_values(m))
_, g, _, _, hz, _ = S.assemble_energy(prob().integrand, m, u, order=2)
K, b = S._newton_matrix(m, hz, 0.0), np.where(m.interior, -g, 0.0)
S.PCG_MAXITER = 0
assert "scipy" not in sys.modules
x, its = S.spsolve(K, b, S.prolongations(m))
assert its == -1 and "scipy.sparse.linalg" in sys.modules
# the reference: K on its unknowns as a dense matrix, column by column
ii = np.flatnonzero(m.interior)
unit = np.zeros(m.n_nodes)
dense = np.empty((ii.size, ii.size))
for col, node in enumerate(ii):
    unit[node] = 1.0
    dense[:, col] = K.apply(unit)[ii]
    unit[node] = 0.0
ref = np.linalg.solve(dense, b[ii])
bound = 2.0 * np.linalg.cond(dense) * np.finfo(float).eps
assert np.linalg.norm(x[ii] - ref) <= bound * np.linalg.norm(ref) and not x[~m.interior].any()
sol = quc.solve(prob())
assert sol.stop_reason == "tol" and sol.linear_iterations == [-1] * sol.iterations
"""


def test_cg_failure_falls_back_to_a_lazily_imported_superlu():
    # a backward-stable solve is within cond(K) eps of the exact solution,
    # so two of them are within twice that of each other
    proc = _run(_FALLBACK)
    assert proc.returncode == 0, proc.stderr[-2000:]


_HEAP_REUSE = """
import json, resource, sys
import numpy as np
import quc.cli

out_dir, cfg_path = sys.argv[1:]
assert quc.cli.main(["--out-dir", out_dir, "solve", cfg_path]) == 0
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 16) for _ in range(5)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_cli_keeps_freed_numpy_temporaries_mapped(tmp_path):
    # every integrand pass allocates and frees the same few-MiB temporaries;
    # after quc.cli.main the allocator keeps their pages, so refilling five
    # freed 512 KiB arrays (640 pages) faults in nothing new after round 1.
    # Without the mmap threshold each array is a fresh mmap, and without the
    # trim threshold the freed heap top goes back to the kernel.
    proc = _run(_HEAP_REUSE, tmp_path, _config(tmp_path, "n9", 9))
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert max(faults[1:]) < 64, faults
