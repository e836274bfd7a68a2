"""The numeric block path of ``write_csv`` against the per-cell path.

``format_value`` on Python floats and ints is the reference rendering; an
ndarray table must give the same bytes.
"""

import json

import numpy as np
import pytest

from quc import cli
from quc.config import parse_config
from quc.csvio import BLOCK_ROWS, read_csv, write_csv
from quc.integrand import normalise

EDGE_VALUES = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e17, 1e22,
    0.1, 1.0 / 3.0, -2.5e-7, 123456789.0, 9007199254740993.0,
]


def _array_and_cells(tmp_path, fields, table, cells):
    write_csv(tmp_path / "array.csv", fields, table, "prov=test")
    write_csv(tmp_path / "cells.csv", fields, cells, "prov=test")
    return (tmp_path / "array.csv").read_bytes(), (tmp_path / "cells.csv").read_bytes()


def test_edge_values_match_per_cell(tmp_path):
    table = np.array(EDGE_VALUES * 3).reshape(-1, 7)
    got, ref = _array_and_cells(tmp_path, list("abcdefg"), table, table.tolist())
    assert got == ref
    assert b"nan,inf,-inf,0,-0,4.9406564584124654e-324" in got


@pytest.mark.parametrize("m", [0, 1, BLOCK_ROWS + 1])
def test_row_counts_match_per_cell(tmp_path, m):
    rng = np.random.default_rng(m)
    table = rng.standard_normal((m, 5)) * np.exp(rng.uniform(-700, 700, (m, 5)))
    got, ref = _array_and_cells(tmp_path, ["v1", "v2", "v3", "v4", "v5"], table,
                                table.tolist())
    assert got == ref
    assert got.count(b"\n") == m + 2


def test_integer_valued_floats_match_ints(tmp_path):
    steps = np.arange(BLOCK_ROWS + 3)
    x = 0.5 ** steps
    got, ref = _array_and_cells(tmp_path, ["step", "X"], np.column_stack([steps, x]),
                                [[int(n), float(v)] for n, v in zip(steps, x)])
    assert got == ref


@pytest.fixture
def p3_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "integrand": {"kind": "power", "p": 3.0},
        "problem": {"n": 17, "domain": [[1, 2], [1, 2]], "boundary": "3.4*(x^2+y^2)^0.25"},
        "seed": 3,
    }))
    return path


def test_cli_solution_matches_per_cell(tmp_path, p3_config):
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "solve", str(p3_config)]) == 0
    cfg = parse_config(p3_config)
    sol = cli._solve(cfg, normalise(cfg.integrand))
    st, mesh = sol.stress(), sol.mesh
    u_bary = sol.u[mesh.tris].mean(axis=1)
    rows = [[float(mesh.bary[t, 0]), float(mesh.bary[t, 1]), float(u_bary[t]),
             float(sol.du[t, 0]), float(sol.du[t, 1]), float(st.v[t, 0]), float(st.v[t, 1]),
             float(st.dv_tri[t, 0, 0]), float(st.dv_tri[t, 0, 1]),
             float(st.dv_tri[t, 1, 0]), float(st.dv_tri[t, 1, 1])]
            for t in range(mesh.n_tris)]
    write_csv(tmp_path / "cells.csv", cli.SOLUTION_FIELDS, rows, cli._provenance(cfg, 3))
    assert (out / "solution.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def _rewrite_per_cell(path, ref, convert):
    prov, fields, rows = read_csv(path)
    write_csv(ref, fields, [[conv(r[f]) for conv, f in zip(convert, fields)] for r in rows],
              prov)
    return path.read_bytes(), ref.read_bytes()


def test_cli_gauge_table_matches_per_cell(tmp_path, p3_config):
    assert cli.main(["--out-dir", str(tmp_path), "gauge", str(p3_config),
                     "--k", "0.5,2", "--angles", "16"]) == 0
    got, ref = _rewrite_per_cell(tmp_path / "gauge_table.csv", tmp_path / "cells.csv",
                                 (float, float, float))
    assert got == ref
    assert got.count(b"\n") == 2 + 2 * 16


def test_cli_degiorgi_sequence_matches_per_cell(tmp_path):
    out = tmp_path / "dg.csv"
    assert cli.main(["degiorgi", "--X0", "0.2", "--C", "1", "--b", "4", "--R", "1",
                     "--out", str(out)]) == 0
    got, ref = _rewrite_per_cell(out, tmp_path / "cells.csv", (int, float))
    assert got == ref
