"""The numeric block path of ``write_csv`` against the per-cell path.

``format_value`` on Python floats and ints is the reference rendering; an
ndarray table must give the same bytes.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quc import cli
from quc import dual_geometry as dg
from quc import qc_analysis as qa
from quc.config import parse_config
from quc.csvio import (_SLOT, BLOCK_ROWS, BlockTable, _ascii8, _encode_block, read_csv,
                       write_csv)
from quc.integrand import normalise
from quc.solver import GridProblem, GridSolution, stress_field

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


@pytest.mark.parametrize("m, cuts", [
    pytest.param(0, None, id="0"), pytest.param(1, None, id="1"),
    pytest.param(BLOCK_ROWS + 1, None, id=str(BLOCK_ROWS + 1)),
    # a BlockTable of uneven blocks: two empty ones, one of BLOCK_ROWS + 1 rows
    pytest.param(BLOCK_ROWS + 7, (0, 0, 5, 5, BLOCK_ROWS + 6, BLOCK_ROWS + 7),
                 id="block-table")])
def test_row_counts_match_per_cell(tmp_path, m, cuts):
    rng = np.random.default_rng(m)
    table = rng.standard_normal((m, 5)) * np.exp(rng.uniform(-700, 700, (m, 5)))
    rows = table if cuts is None else BlockTable(
        m, (table[a:b] for a, b in zip(cuts, cuts[1:])))
    got, ref = _array_and_cells(tmp_path, ["v1", "v2", "v3", "v4", "v5"], rows,
                                table.tolist())
    assert got == ref
    assert got.count(b"\n") == m + 2


def test_empty_block_encodes_to_nothing():
    assert _encode_block(np.empty((0, 3))) == b""


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


def _barycenters(mesh):
    """(M, 2) barycenters as the mean of the three vertex nodes, summed in
    vertex order."""
    t, N = mesh.triangles(), mesh.nodes
    return (N[t[:, 0]] + N[t[:, 1]] + N[t[:, 2]]) / 3


def _solution_and_cells(tmp_path, config):
    """The CLI's solution.csv and the same table written cell by cell."""
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "solve", str(config)]) == 0
    cfg = parse_config(config)
    sol = cli._solve(cfg, normalise(cfg.integrand))
    mesh = sol.mesh
    u_bary = sol.u[mesh.triangles()].mean(axis=1)
    bary, v, dv = _barycenters(mesh), sol.v, stress_field(sol)
    rows = [[float(bary[t, 0]), float(bary[t, 1]), float(u_bary[t]),
             float(sol.du[t, 0]), float(sol.du[t, 1]), float(v[t, 0]), float(v[t, 1]),
             float(dv[t, 0, 0]), float(dv[t, 0, 1]), float(dv[t, 1, 0]), float(dv[t, 1, 1])]
            for t in range(mesh.n_tris)]
    write_csv(tmp_path / "cells.csv", cli.SOLUTION_FIELDS, rows,
              cli._provenance(cfg, cfg.seed))
    return (out / "solution.csv").read_bytes(), (tmp_path / "cells.csv").read_bytes()


def test_cli_solution_matches_per_cell(tmp_path, p3_config):
    got, ref = _solution_and_cells(tmp_path, p3_config)
    assert got == ref


def test_cli_disk_blend_solution_matches_per_cell(tmp_path):
    """The degenerate blend on a disk mask has stress cells below 1e-4,
    which %.17g prints in exponent notation through the fallback."""
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({
        "integrand": {"kind": "blend", "p": 3.0, "q": 1.5, "w": [0.5, 0.0]},
        "problem": {"n": 33, "boundary": "0.5*(x - 0.25)^2 - 0.5*(y - 0.5)^2",
                    "mask": {"center": [0.5, 0.5], "radius": 0.49}},
        "seed": 801,
    }))
    got, ref = _solution_and_cells(tmp_path, path)
    assert got == ref
    assert b"e-" in got


def _random_solution(n, mask, seed, spread):
    """A GridSolution with random fields of magnitude e^-spread..e^spread
    and random signs on an n-grid, its recovered DV given, so nothing is
    solved."""
    rng = np.random.default_rng(seed)
    problem = GridProblem(integrand=None, n=n, boundary=None, mask=mask)
    mesh = problem.mesh()
    field = lambda *shape: rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(-spread, spread,
                                                                               shape))
    M = mesh.n_tris
    return GridSolution(problem=problem, mesh=mesh, u=field(mesh.n_nodes), du=field(M, 2),
                        energy_density=field(M), v=field(M, 2), energy=0.0, residual=0.0,
                        iterations=0, converged=True, method="newton", stop_reason="tol",
                        linear_iterations=[], _dv=field(M, 2, 2))


@pytest.mark.parametrize("n, mask", [
    (66, None),
    (66, (np.array([0.5, 0.5]), 0.45)),
    (257, (np.array([0.5, 0.5]), 0.2)),
], ids=["square", "disk", "small-disk"])
def test_streamed_solution_rows_match_the_whole_table(tmp_path, n, mask):
    """The blocks of ``_solution_rows`` write the bytes of the whole (M, 11)
    table; signed zeros at every vertex of some triangles check that the
    barycentre value keeps the sign the mean gives.  On the small disk
    whole bands of cell rows hold no triangle."""
    sol = _random_solution(n, mask, 4, spread=30.0)
    sol.u[np.random.default_rng(5).random(sol.u.size) < 0.5] = -0.0
    mesh = sol.mesh
    table = np.column_stack([_barycenters(mesh), sol.u[mesh.triangles()].mean(axis=1), sol.du,
                             sol.v, stress_field(sol).reshape(-1, 4)])
    rows = cli._solution_rows(sol)
    assert len(rows) == mesh.n_tris > BLOCK_ROWS
    got, ref = _array_and_cells(tmp_path, cli.SOLUTION_FIELDS, rows, table)
    assert got == ref
    assert got.count(b"\n") == mesh.n_tris + 2


def test_solution_rows_are_written_one_block_at_a_time(tmp_path):
    """Besides the solution's fields, which exist before the write, writing
    solution.csv holds the encoder's share of one block of 11 cells per row
    (the bound of ``test_numeric_writer_holds_one_block``) and the block
    itself, 8 bytes per cell.  At n = 257 the whole (M, 11) table alone
    would exceed that."""
    sol = _random_solution(257, None, 6, spread=1.0)
    stress_field(sol)
    bound = BLOCK_ROWS * 11 * (18 * 8 + 4 * _SLOT + 8)
    assert sol.mesh.n_tris * 11 * 8 > bound
    tracemalloc.start()
    try:
        rows = cli._solution_rows(sol)
        write_csv(tmp_path / "solution.csv", cli.SOLUTION_FIELDS, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == sol.mesh.n_tris
    assert peak <= bound


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


def test_cli_gauge_table_matches_recomputed_cells(tmp_path, p3_config):
    """gauge_table.csv against the gauge samples recomputed as the CLI does
    (H estimated with the config's seed) and written cell by cell; its
    first angle is 0.0, which takes the fallback."""
    assert cli.main(["--out-dir", str(tmp_path), "gauge", str(p3_config),
                     "--k", "0.5,2", "--angles", "16"]) == 0
    cfg = parse_config(p3_config)
    F = normalise(cfg.integrand)
    H = qa.estimate_H(F, rng=np.random.default_rng(cfg.seed)).H_est
    rows = []
    for k in (0.5, 2.0):
        gs = dg.gauge_bounds(F, k, n_angles=16, H=H)
        rows += [[k, float(t), float(g)] for t, g in zip(gs.angles, gs.values)]
    assert rows[0][1] == 0.0
    write_csv(tmp_path / "cells.csv", ["k", "angle", "g"], rows, cli._provenance(cfg, cfg.seed))
    assert (tmp_path / "gauge_table.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def _percent_rows(table):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60),
       st.integers(1, 4))
def test_encoder_matches_percent_format(values, cols):
    table = np.array(values * cols).reshape(-1, cols)
    assert _encode_block(table) == _percent_rows(table)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True), min_size=1,
                max_size=60),
       st.booleans())
def test_encoder_matches_percent_format_in_fixed_range(values, negate):
    """The range the encoder formats itself, where %.17g uses fixed notation."""
    table = np.array(values).reshape(-1, 1) * (-1.0 if negate else 1.0)
    assert _encode_block(table) == _percent_rows(table)


@pytest.mark.parametrize("value, text", [
    (1 + 2**-17, "1.0000076293945312"),              # a tie, rounded to even
    (9.9999999999999995, "10"),                      # rounds to the next decade
    (99999999999999999.0, "1e+17"),
    (1e-4, "0.0001"),                                # fixed/exponent switch
    (9.99999999999999999e-5, "0.0001"),
    (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
    (1e16, "10000000000000000"),
    (9999999999999998.0, "9999999999999998"),
    (0.09999999999999999, "0.099999999999999992"),   # hi rounds up to 1e16
    (np.nextafter(0.1, 1.0), "0.10000000000000002"),
    (-0.00012345678901234567, "-0.00012345678901234567"),
    (-123.5, "-123.5"),
    (-1e15, "-1000000000000000"),
    (2.0**53, "9007199254740992"),
    (2.0**53 + 2, "9007199254740994"),
    (-(2.0**60), "-1.152921504606847e+18"),
    (0.5, "0.5"),
])
def test_encoder_edge_corpus(value, text):
    assert "%.17g" % value == text
    assert _encode_block(np.array([[value, -value]])) == \
        f"{text},{'%.17g' % -value}\n".encode()


def test_fallback_cells_match_per_cell(tmp_path):
    """Blocks where some, all or none of the cells take the %.17g fallback,
    and fallbacks on both sides of a block boundary."""
    rng = np.random.default_rng(5)
    fallback = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 3e-5, -1e20, 1e16])
    mixed = rng.uniform(-10, 10, (64, 6))
    mixed.flat[::5] = np.resize(fallback, mixed.flat[::5].size)
    all_fallback = np.resize(fallback, (64, 6))
    no_fallback = rng.uniform(1e-4, 1e4, (64, 6)) * rng.choice([-1, 1], (64, 6))
    boundary = rng.uniform(-1, 1, (BLOCK_ROWS + 1, 6))
    boundary[BLOCK_ROWS - 1:BLOCK_ROWS + 1] = np.resize(fallback, (2, 6))
    for table in (mixed, all_fallback, no_fallback, boundary):
        got, ref = _array_and_cells(tmp_path, list("abcdef"), table, table.tolist())
        assert got == ref


def test_numeric_writer_holds_one_block(tmp_path):
    """Peak allocation while writing 8 blocks stays within one block's.

    For a block of C = BLOCK_ROWS * 11 cells the encoder holds at most 18
    arrays of 8 bytes per cell at a time (|x|, the power index s, the
    digits d and the Dekker terms; later the digit words, two uint64 per
    cell, and their temporaries) and at most 4 arrays of _SLOT bytes per
    cell (the digit buffer, the output, the shifted digits and a layout
    mask; at the end the output, its bytes and the compacted bytes).  So
    one block needs at most C * (18 * 8 + 4 * _SLOT) bytes; a writer that
    encoded the whole table at once would need eight times its share.
    The cells are normal variates, so no fallback text is built.
    """
    table = np.random.default_rng(9).standard_normal((8 * BLOCK_ROWS, 11))
    bound = BLOCK_ROWS * 11 * (18 * 8 + 4 * _SLOT)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", [f"c{i}" for i in range(11)], table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert (tmp_path / "big.csv").read_bytes().count(b"\n") == 8 * BLOCK_ROWS + 1


def test_ascii8_digits():
    """Every lane quotient the conversion relies on, and whole words."""
    x = np.arange(10**4)
    assert np.array_equal((x * 10486) >> 20, x // 100)
    assert np.array_equal((x[:100] * 103) >> 10, x[:100] // 10)
    v = np.concatenate([np.arange(1000), np.random.default_rng(2).integers(0, 10**8, 10**5),
                        [10**8 - 1, 10**7, 10**4, 9999]]).astype(np.uint64)
    text = (_ascii8(v) | 0x3030303030303030).astype("<u8").view("S8")
    assert text.tolist() == [b"%08d" % n for n in v.tolist()]
