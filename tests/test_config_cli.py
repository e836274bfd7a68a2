import json

import numpy as np
import pytest

import quc
from quc.cli import main
from quc.config import ConfigError, build_integrand, compile_boundary_expression, parse_config
from quc.csvio import read_csv


# ---------------------------------------------------------------------------
# boundary expressions
# ---------------------------------------------------------------------------

def test_expression_basic(rng):
    f = compile_boundary_expression("x^2 - y^2")
    x, y = rng.uniform(-2, 2, (2, 50))
    np.testing.assert_allclose(f(x, y), x**2 - y**2)


def test_expression_sqrt_abs_pow():
    f = compile_boundary_expression("3*(x^2 + y^2)^0.25 + abs(x) - sqrt(y)")
    assert f(0.0, 4.0) == pytest.approx(3.0 * 16.0**0.25 - 2.0)  # = 4


@pytest.mark.parametrize("bad", [
    "__import__('os')", "x + z", "x < y", "exp(x)", "x.real", "lambda: 1",
])
def test_expression_rejects(bad):
    with pytest.raises(ConfigError):
        compile_boundary_expression(bad)


# ---------------------------------------------------------------------------
# integrand schema
# ---------------------------------------------------------------------------

def test_build_nested_integrand():
    F = build_integrand({
        "kind": "sum",
        "parts": [
            {"kind": "power", "p": 3.0},
            {"kind": "scaled", "scale": 0.5,
             "part": {"kind": "anisotropic_quadratic", "A": [[2, 0], [0, 1]]}},
        ],
    })
    z = np.array([1.0, 1.0])
    assert F.eval(z) == pytest.approx(2.0**1.5 / 3.0 + 0.75)


def test_build_regularised_kinds():
    F = build_integrand({"kind": "moreau", "delta": 1.0,
                         "part": {"kind": "power", "p": 2.0}})
    assert F.eval(np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    G = build_integrand({"kind": "mollified", "eps": 0.3, "mu": 0.1,
                         "part": {"kind": "power", "p": 2.0}})
    assert G.eval(np.zeros(2)) > 0.0


def test_build_rejects_bad_exponent():
    with pytest.raises(ConfigError, match="exceed 1"):
        build_integrand({"kind": "power", "p": 0.5})


def test_build_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"integrand\.parts\[0\]\.mesh_style"):
        build_integrand({"kind": "sum",
                         "parts": [{"kind": "power", "p": 2.0, "mesh_style": "x"}]})


def test_build_fd_mode(rng):
    F = build_integrand({"kind": "power", "p": 2.5,
                         "derivatives": "finite_difference"})
    z = rng.uniform(-2, 2, (20, 2))
    np.testing.assert_allclose(F.grad(z), quc.make_power(2.5).grad(z), atol=1e-4)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "integrand": {"kind": "power", "p": 3.0},
        "problem": {"n": 17, "domain": [[0, 1], [0, 1]], "boundary": "x^2 - y^2"},
        "checks": [{"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5]}],
        "seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_parse_valid_config(tmp_path):
    cfg = parse_config(_config(tmp_path))
    assert cfg.integrand.kind == "power"
    assert cfg.problem_spec["n"] == 17
    assert len(cfg.checks) == 1


def test_parse_rejects_unknown_top_key(tmp_path):
    with pytest.raises(ConfigError, match="config.frobnicate"):
        parse_config(_config(tmp_path, frobnicate=1))


def test_parse_rejects_bad_check(tmp_path):
    with pytest.raises(ConfigError, match=r"checks\[0\]"):
        parse_config(_config(tmp_path, checks=[{"name": "nope"}]))
    with pytest.raises(ConfigError, match="rho < R"):
        parse_config(_config(tmp_path, checks=[
            {"name": "caccioppoli", "rho": 0.5, "R": 0.2, "center": [0.5, 0.5],
             "k": 0.1}]))


def test_parse_reports_syntax_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "integrand": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_small_grid_rejected(tmp_path):
    with pytest.raises(ConfigError, match="problem.n"):
        parse_config(_config(tmp_path, problem={"n": 5, "boundary": "x"}))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate(tmp_path, capsys):
    assert main(["validate", str(_config(tmp_path))]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_solve(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(["--out-dir", str(tmp_path), "solve", str(_config(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    prov, fields, rows = read_csv(out)
    assert fields == ["x", "y", "u", "du1", "du2", "v1", "v2",
                      "dv11", "dv12", "dv21", "dv22"]
    assert len(rows) == 2 * 16 * 16
    assert "config-sha256=" in prov


def test_cli_analyze(tmp_path):
    code = main(["--out-dir", str(tmp_path), "analyze", str(_config(tmp_path))])
    assert code == 0
    _, fields, rows = read_csv(tmp_path / "analyze.csv")
    assert fields == ["check", "measured", "bound", "margin"]
    assert any(r["check"] == "H_est_vs_analytic" for r in rows)


def test_cli_analyze_small_p_moreau_ladder(tmp_path):
    # the envelope of |z|^1.5 / 1.5 needs proximal points down to |z| ~ 1e-4,
    # where the Newton proximal solve stalled
    integrand = {"kind": "mollified", "eps": 0.25, "mu": 0.25,
                 "part": {"kind": "moreau", "delta": 0.25,
                          "part": {"kind": "power", "p": 1.5}}}
    cfg = _config(tmp_path, integrand=integrand, problem={"n": 17, "boundary": "x"})
    assert main(["--out-dir", str(tmp_path), "analyze", str(cfg)]) == 0


def test_cli_gauge(tmp_path):
    code = main(["--out-dir", str(tmp_path), "gauge", str(_config(tmp_path)),
                 "--k", "0.5,1", "--angles", "64"])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "gauge_table.csv")
    assert len(rows) == 2 * 64


def test_cli_verify_all_checks(tmp_path, capsys):
    cfg = _config(tmp_path, checks=[
        {"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5], "out": "lip.csv"},
        {"name": "degiorgi", "X0": 0.2, "C": 1.0, "b": 4.0, "R": 1.0, "N": 2,
         "expect": "vanishes", "out": "dg.csv"},
    ])
    code = main(["--out-dir", str(tmp_path), "verify", str(cfg)])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "lip.csv")
    assert rows[0]["name"] == "lipschitz"
    _, _, rows = read_csv(tmp_path / "dg.csv")
    assert rows[0]["verdict"] == "vanishes"


def test_cli_verify_single_check_flags(tmp_path):
    code = main(["--out-dir", str(tmp_path), "verify", str(_config(tmp_path)),
                 "--check", "caccioppoli", "--k", "0.05", "--rho", "0.2",
                 "--R", "0.4", "--center", "0.5,0.5", "--out", "cac.csv"])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "cac.csv")
    assert rows[0]["name"] == "caccioppoli"
    assert float(rows[0]["ratio"]) <= 1.2


def test_cli_nonconverged_exit(tmp_path, capsys):
    cfg = _config(tmp_path, solver={"max_iter": 0},
                  integrand={"kind": "power", "p": 3.0},
                  problem={"n": 17, "boundary": "x*y + x^3"})
    code = main(["--out-dir", str(tmp_path), "verify", str(cfg)])
    assert code == 1
    assert "non-converged (max_iter)" in capsys.readouterr().err


def test_cli_config_error_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"integrand": {"kind": "power", "p": 0.5}}')
    assert main(["validate", str(path)]) == 2


def _check(base, **changes):
    return {"checks": [{**base, **changes}]}


_CAC = {"name": "caccioppoli", "rho": 0.1, "R": 0.2, "center": [0.5, 0.5], "k": 0.1}
_LIP = {"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5]}
_DG = {"name": "degiorgi", "X0": 0.2, "C": 1.0, "b": 4.0, "R": 1.0, "N": 2}
_MALFORMED = {
    "p": ({"integrand": {"kind": "power", "p": "three"}}, "integrand"),
    "domain": ({"problem": {"n": 17, "domain": "abc", "boundary": "x"}}, "problem.domain"),
    "mask_radius": ({"problem": {"n": 17, "boundary": "x",
                                 "mask": {"center": [0.5, 0.5], "radius": "r"}}},
                    "problem.mask.radius"),
    "rho": (_check(_CAC, rho="a"), r"checks\[0\]\.rho"),
    "R": (_check(_LIP, R="a"), r"checks\[0\]\.R"),
    "R_negative": (_check(_LIP, R=-0.2), r"checks\[0\]\.R"),
    "center": (_check(_LIP, center="ab"), r"checks\[0\]\.center"),
    "center_length": (_check(_LIP, center=[0.5]), r"checks\[0\]\.center"),
    "k": (_check(_CAC, k="a"), r"checks\[0\]\.k"),
    "ell": (_check(_CAC, ell={"c": 0.1, "b": "ab"}), r"checks\[0\]\.ell"),
    "ell_keys": (_check(_CAC, ell={"c": 0.1}), r"checks\[0\]\.ell"),
    "assert_max_ratio": (_check(_LIP, assert_max_ratio="big"),
                         r"checks\[0\]\.assert_max_ratio"),
    "out": (_check(_LIP, out=5), r"checks\[0\]\.out"),
    "X0": (_check(_DG, X0="a"), r"checks\[0\]\.X0"),
    "C": (_check(_DG, C=[1]), r"checks\[0\]\.C"),
    "b": (_check(_DG, b=None), r"checks\[0\]\.b"),
    "degiorgi_R": (_check(_DG, R="a"), r"checks\[0\]\.R"),
    "N": (_check(_DG, N=2.5), r"checks\[0\]\.N"),
    "degiorgi_range": (_check(_DG, C=-1.0), r"checks\[0\]"),
    "mask_center": ({"problem": {"n": 17, "boundary": "x",
                                 "mask": {"center": "ab", "radius": 0.4}}},
                    "problem.mask.center"),
    "method": ({"solver": {"method": "bfgs"}}, "solver.method"),
    "tol_rel": ({"solver": {"tol_rel": "tiny"}}, "solver.tol_rel"),
    "tol_rel_zero": ({"solver": {"tol_rel": 0}}, "solver.tol_rel"),
    "max_iter": ({"solver": {"max_iter": 2.5}}, "solver.max_iter"),
    "max_iter_negative": ({"solver": {"max_iter": -1}}, "solver.max_iter"),
    "gd_max_iter": ({"solver": {"gd_max_iter": "many"}}, "solver.gd_max_iter"),
}


@pytest.mark.parametrize("overrides, where", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_cli_malformed_value_is_config_error(tmp_path, capsys, overrides, where):
    assert main(["validate", str(_config(tmp_path, **overrides))]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    with pytest.raises(ConfigError, match=f"^{where}: "):
        parse_config(tmp_path / "cfg.json")


_BAD_CHECK_FLAGS = {
    "caccioppoli_without_rho_or_k": ["--check", "caccioppoli", "--R", "0.4",
                                     "--center", "1.5,1.5"],
    "lipschitz_negative_R": ["--check", "lipschitz", "--R", "-0.4", "--center", "0.5,0.5"],
}


@pytest.mark.parametrize("flags", list(_BAD_CHECK_FLAGS.values()), ids=list(_BAD_CHECK_FLAGS))
def test_cli_verify_check_flags_are_config_error(tmp_path, capsys, flags):
    # checked before the solve: no traceback, exit code 2 and no CSV written
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", str(_config(tmp_path))] + flags) == 2
    assert capsys.readouterr().err.startswith("config error: --check")
    assert not list(out.glob("*.csv"))


_C = [1.5, 1.5]
_EMPTY_BALL = {
    "lipschitz": ({"name": "lipschitz", "R": 0.01, "center": _C}, "B_0.005(1.5,1.5)"),
    "sobolev": ({"name": "sobolev", "R": 0.01, "center": _C}, "B_0.01(1.5,1.5)"),
    "caccioppoli_l1": ({"name": "caccioppoli_l1", "R": 0.01, "center": _C},
                       "B_0.01(1.5,1.5)"),
    "caccioppoli": ({"name": "caccioppoli", "rho": 0.01, "R": 0.2, "k": 0.1, "center": _C,
                     "assert_max_ratio": 1e-9}, "B_0.01(1.5,1.5)"),
}


@pytest.mark.parametrize("check, ball", list(_EMPTY_BALL.values()), ids=list(_EMPTY_BALL))
def test_cli_check_on_a_ball_without_triangles_fails(tmp_path, capsys, check, ball):
    # at n = 17 on [1, 2]^2 the barycenters nearest (1.5, 1.5) lie 0.047 away
    cfg = _config(tmp_path, checks=[{**check, "out": "check.csv"}],
                  problem={"n": 17, "domain": [[1, 2], [1, 2]],
                           "boundary": "(x^2 + y^2)^0.25"})
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", str(cfg)]) == 1
    std = capsys.readouterr()
    assert f"error: ball {ball} holds no triangle barycenter on the grid n=17" in std.err
    assert "PASS" not in std.out and "check " not in std.out
    assert not (out / "check.csv").exists()


def test_cli_degiorgi(tmp_path, capsys):
    out = tmp_path / "dg.csv"
    code = main(["degiorgi", "--X0", "0.2", "--C", "1", "--b", "4", "--R", "1",
                 "--N", "2", "--out", str(out)])
    assert code == 0
    assert "vanishes" in capsys.readouterr().out
    _, fields, _ = read_csv(out)
    assert fields == ["step", "X"]


def test_cli_reproducible_bytes(tmp_path):
    cfg = _config(tmp_path, checks=[
        {"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5], "out": "lip.csv"},
    ])
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["--out-dir", str(d), "verify", str(cfg)]) == 0
    for name in ("analyze.csv", "solution.csv", "lip.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
