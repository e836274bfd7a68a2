import json

import numpy as np
import pytest

import quc
from quc.cli import VERIFY_CHECKS, main
from quc.config import (_KINDS, ConfigError, build_integrand, compile_boundary_expression,
                        parse_config)
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


@pytest.mark.parametrize("text, column, reason", [
    ("x +", 4, "invalid syntax"),                 # ends early: one past the end
    ("x^2 +* y", 6, "invalid syntax"),            # the *, after a ^ became **
    ("(x", 1, "'(' was never closed"),
])
def test_expression_syntax_error_names_the_users_column_and_the_reason(text, column, reason):
    with pytest.raises(ConfigError) as err:
        compile_boundary_expression(text)
    assert str(err.value) == (f"boundary expression syntax error at column {column} "
                              f"({reason}): {text!r}")


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


_A = [[2.0, 0.5], [0.5, 1.0]]
_POWER_SPEC = {"kind": "power", "p": 3.0}
# every kind with distinct values, as a config dict and through the public API
_EVERY_KIND = {
    "power": (_POWER_SPEC, lambda: quc.make_power(3.0)),
    "anisotropic_quadratic": ({"kind": "anisotropic_quadratic", "A": _A},
                              lambda: quc.make_anisotropic_quadratic(np.array(_A))),
    "uhlenbeck": ({"kind": "uhlenbeck",
                   "profile": {"type": "power_sum", "terms": [[1.0, 2.0], [0.5, 3.0]]}},
                  lambda: quc.make_uhlenbeck(quc.power_sum_profile([(1.0, 2.0), (0.5, 3.0)]))),
    "finsler": ({"kind": "finsler", "gauge_matrix": _A,
                 "profile": {"type": "power", "p": 2.5}},
                lambda: quc.make_finsler(np.array(_A), quc.power_profile(2.5))),
    "blend": ({"kind": "blend", "p": 3.0, "q": 1.5, "w": [0.5, 0.25], "eps": 2e-4},
              lambda: quc.make_blend(3.0, 1.5, [0.5, 0.25], 2e-4)),
    "sum": ({"kind": "sum", "parts": [_POWER_SPEC, {"kind": "anisotropic_quadratic", "A": _A}]},
            lambda: quc.combine("sum", [quc.make_power(3.0),
                                        quc.make_anisotropic_quadratic(np.array(_A))])),
    "scaled": ({"kind": "scaled", "scale": 0.5, "part": _POWER_SPEC},
               lambda: quc.combine("scaled", [quc.make_power(3.0)], scale=0.5)),
    "shifted": ({"kind": "shifted", "shift": [0.3, -0.2], "part": _POWER_SPEC},
                lambda: quc.combine("shifted", [quc.make_power(3.0)], shift=[0.3, -0.2])),
    "affine_add": ({"kind": "affine_add", "w": [0.1, 0.2], "c": 0.7, "part": _POWER_SPEC},
                   lambda: quc.combine("affine_add", [quc.make_power(3.0)], w=[0.1, 0.2],
                                       c=0.7)),
    "moreau": ({"kind": "moreau", "delta": 0.25, "part": _POWER_SPEC},
               lambda: quc.moreau_yosida(quc.make_power(3.0), 0.25)),
    "mollified": ({"kind": "mollified", "eps": 0.3, "mu": 0.1, "part": _POWER_SPEC},
                  lambda: quc.mollify_plus_quadratic(quc.make_power(3.0), 0.3, 0.1)),
}


def test_every_kind_is_covered():
    assert set(_EVERY_KIND) == set(_KINDS)


@pytest.mark.parametrize("spec, public", list(_EVERY_KIND.values()), ids=list(_EVERY_KIND))
def test_config_builds_what_the_public_constructors_build(spec, public):
    # a swapped key (eps for mu, say) changes describe(); affine_add's c shows in values
    F, G = build_integrand(spec), public()
    assert F.describe() == G.describe()
    z = np.array([[0.7, -0.4], [1.5, 2.0]])
    np.testing.assert_array_equal(F.eval(z), G.eval(z))


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
    assert cfg.problem["n"] == 17
    assert len(cfg.checks) == 1
    assert cfg.checks[0]["out"] == "lipschitz_0.csv"


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


def _analyze_rows_with(row):
    def rows(F, rng):
        return [{"check": "fine", "measured": 1.0, "bound": 2.0, "margin": 1.0}, row]
    return rows


# a nan margin (nan measurement against a bound), and a nan or infinite
# measurement without a bound: each is a failed analyze row
_UNUSABLE_ROWS = {
    "nan_margin": {"check": "H_est_vs_analytic", "measured": np.nan, "bound": 2.0,
                   "margin": np.nan},
    "nan_unbounded": {"check": "quasisymmetry_C", "measured": np.nan, "bound": None,
                      "margin": None},
    "inf_unbounded": {"check": "envelope_C", "measured": np.inf, "bound": None,
                      "margin": None},
}


@pytest.mark.parametrize("row", list(_UNUSABLE_ROWS.values()), ids=list(_UNUSABLE_ROWS))
def test_cli_analyze_fails_an_unusable_row(tmp_path, capsys, monkeypatch, row):
    monkeypatch.setattr(quc.cli, "analyze_rows", _analyze_rows_with(row))
    assert main(["--out-dir", str(tmp_path), "analyze", str(_config(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert f"analyze {row['check']}: measured={row['measured']:.6g} FAIL" in out
    assert "analyze fine: measured=1 PASS" in out


@pytest.mark.parametrize("row", list(_UNUSABLE_ROWS.values()), ids=list(_UNUSABLE_ROWS))
def test_run_fails_an_unusable_analyze_row(tmp_path, capsys, monkeypatch, row):
    monkeypatch.setattr(quc.cli, "analyze_rows", _analyze_rows_with(row))
    cfg = parse_config(_config(tmp_path, checks=[]))
    assert quc.cli.run(cfg, out_dir=str(tmp_path)) == 1
    assert f"analyze:{row['check']}" in capsys.readouterr().err
    # the same rows with a usable one in its place pass
    monkeypatch.setattr(quc.cli, "analyze_rows", _analyze_rows_with(
        {"check": "quasisymmetry_C", "measured": 3.0, "bound": None, "margin": None}))
    assert quc.cli.run(cfg, out_dir=str(tmp_path)) == 0


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


_VERIFY_FLAGS = {
    "caccioppoli": ["--ell", "0.05,0.1,0", "--rho", "0.2", "--R", "0.4",
                    "--center", "0.5,0.5"],
    "caccioppoli_l1": ["--R", "0.2", "--center", "0.5,0.5"],
    "sobolev": ["--R", "0.2", "--center", "0.5,0.5"],
    "lipschitz": ["--R", "0.2", "--center", "0.5,0.5"],
}


def test_every_verify_check_has_flags():
    assert set(_VERIFY_FLAGS) == set(VERIFY_CHECKS)


@pytest.mark.parametrize("check", list(_VERIFY_FLAGS))
def test_cli_verify_runs_every_check_choice(tmp_path, check):
    code = main(["--out-dir", str(tmp_path), "verify", str(_config(tmp_path)),
                 "--check", check, "--out", "check.csv"] + _VERIFY_FLAGS[check])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "check.csv")
    assert rows and all(r["name"].startswith(check) for r in rows)
    assert not (tmp_path / "lipschitz_0.csv").exists()


def test_cli_verify_has_no_degiorgi_check(tmp_path, capsys):
    # verify has no X0, C, b or N flags; ``quc degiorgi`` runs that check
    with pytest.raises(SystemExit) as err:
        main(["--out-dir", str(tmp_path), "verify", str(_config(tmp_path)),
              "--check", "degiorgi"])
    assert err.value.code == 2
    assert "invalid choice: 'degiorgi'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--R", "0.1"), ("--rho", "0.05"), ("--k", "0.1"),
                                         ("--ell", "0.1,0,0"), ("--center", "0.5,0.5"),
                                         ("--out", "mine.csv")])
def test_cli_verify_check_flag_without_check_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", str(_config(tmp_path)), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
    assert not list(out.glob("*.csv"))


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
_NAN, _INF = float("nan"), float("inf")
_BLEND = {"kind": "blend", "p": 3.0, "q": 1.5, "w": [0.5, 0.0]}


def _integrand(kind, **values):
    return {"integrand": {"kind": kind, "part": _POWER_SPEC, **values}}


_MALFORMED = {
    "p": ({"integrand": {"kind": "power", "p": "three"}}, r"integrand\.p"),
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
    # json reads NaN and Infinity: every number the pipeline uses is finite
    "center_nan": (_check(_LIP, center=[_NAN, 0.5]), r"checks\[0\]\.center"),
    "k_nan": (_check(_CAC, k=_NAN), r"checks\[0\]\.k"),
    "ell_c_inf": (_check(_CAC, ell={"c": _INF, "b": [0.0, 0.0]}), r"checks\[0\]\.ell"),
    "ell_b_nan": (_check(_CAC, ell={"c": 0.1, "b": [0.0, _NAN]}), r"checks\[0\]\.ell"),
    "assert_max_ratio_inf": (_check(_LIP, assert_max_ratio=_INF),
                             r"checks\[0\]\.assert_max_ratio"),
    "X0_nan": (_check(_DG, X0=_NAN), r"checks\[0\]\.X0"),
    "C_inf": (_check(_DG, C=_INF), r"checks\[0\]\.C"),
    "b_nan": (_check(_DG, b=_NAN), r"checks\[0\]\.b"),
    "mask_center_nan": ({"problem": {"n": 17, "boundary": "x",
                                     "mask": {"center": [0.5, _NAN], "radius": 0.4}}},
                        "problem.mask.center"),
    "domain_inf": ({"problem": {"n": 17, "domain": [[0, _INF], [0, 1]], "boundary": "x"}},
                   "problem.domain"),
    "boundary_name": ({"problem": {"n": 17, "boundary": "x + z"}}, "problem.boundary"),
    "boundary_syntax": ({"problem": {"n": 17, "boundary": "x +"}}, "problem.boundary"),
    "seed_negative": ({"seed": -5}, "config.seed"),
    "seed_bool": ({"seed": True}, "config.seed"),
    "expect": (_check(_DG, expect="vanish"), r"checks\[0\]\.expect"),
    # a report is one file in the output directory, beside the pipeline's own
    "out_solution": (_check(_LIP, out="solution.csv"), r"checks\[0\]\.out"),
    "out_analyze": (_check(_LIP, out="analyze.csv"), r"checks\[0\]\.out"),
    "out_absolute": (_check(_LIP, out="/tmp/x.csv"), r"checks\[0\]\.out"),
    "out_subdir": (_check(_LIP, out="sub/x.csv"), r"checks\[0\]\.out"),
    "out_twice": ({"checks": [{**_LIP, "out": "a.csv"}, {**_LIP, "out": "a.csv"}]},
                  r"checks\[1\]\.out"),
    "out_a_default": ({"checks": [_LIP, {**_LIP, "out": "lipschitz_0.csv"}]},
                      r"checks\[1\]\.out"),
    # B_R must lie in [0, 1]^2 for caccioppoli, B_2R for the other checks
    "ball_R": (_check(_CAC, R=0.6), r"checks\[0\]"),
    "ball_2R": (_check(_LIP, R=0.3), r"checks\[0\]"),
    "ball_2R_sobolev": (_check(_LIP, name="sobolev", center=[0.2, 0.5]), r"checks\[0\]"),
    # and in the mask's disk: B_2R(0.1, 0.1) lies in the square, not in B_0.49(0.5, 0.5)
    "ball_mask": ({"problem": {"n": 33, "boundary": "x",
                               "mask": {"center": [0.5, 0.5], "radius": 0.49}},
                   **_check(_LIP, R=0.05, center=[0.1, 0.1])}, r"checks\[0\]"),
    "k_and_ell": (_check(_CAC, ell={"c": 0.1, "b": [0.0, 0.0]}), r"checks\[0\]"),
    "out_dir_null": ({"out_dir": None}, "config.out_dir"),
    "out_dir_empty": ({"out_dir": ""}, "config.out_dir"),
    # a key that picks a table entry is a name, not any json value
    "kind_list": ({"integrand": {"kind": ["power"], "p": 3.0}}, r"integrand\.kind"),
    "check_name_list": (_check(_LIP, name=["lipschitz"]), r"checks\[0\]\.name"),
    # every integrand number is finite, at its own key path
    "scale_nan": (_integrand("scaled", scale=_NAN), r"integrand\.scale"),
    "shift_inf": (_integrand("shifted", shift=[_INF, 0.0]), r"integrand\.shift"),
    "affine_w_nan": (_integrand("affine_add", w=[_NAN, 0.0]), r"integrand\.w"),
    "affine_c_inf": (_integrand("affine_add", w=[0.1, 0.0], c=_INF), r"integrand\.c"),
    "delta_inf": (_integrand("moreau", delta=_INF), r"integrand\.delta"),
    "mollifier_eps_nan": (_integrand("mollified", eps=_NAN, mu=0.25), r"integrand\.eps"),
    "mollifier_mu_inf": (_integrand("mollified", eps=0.25, mu=_INF), r"integrand\.mu"),
    "blend_w_nan": ({"integrand": {**_BLEND, "w": [_NAN, 0.0]}}, r"integrand\.w"),
    "blend_eps_nan": ({"integrand": {**_BLEND, "eps": _NAN}}, r"integrand\.eps"),
    "nested_shift_nan": ({"integrand": {"kind": "sum", "parts": [
        _POWER_SPEC, {"kind": "shifted", "shift": [0.0, _NAN], "part": _POWER_SPEC}]}},
        r"integrand\.parts\[1\]\.shift"),
}


@pytest.mark.parametrize("overrides, where", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_cli_malformed_value_is_config_error(tmp_path, capsys, overrides, where):
    assert main(["validate", str(_config(tmp_path, **overrides))]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    with pytest.raises(ConfigError, match=f"^{where}: "):
        parse_config(tmp_path / "cfg.json")
    # rejected before anything runs
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(out.glob("*.csv"))


_BAD_CHECK_FLAGS = {
    "caccioppoli_without_rho_or_k": ["--check", "caccioppoli", "--R", "0.4",
                                     "--center", "1.5,1.5"],
    "lipschitz_negative_R": ["--check", "lipschitz", "--R", "-0.4", "--center", "0.5,0.5"],
    "ball_leaves_the_domain": ["--check", "lipschitz", "--R", "0.4", "--center", "0.5,0.5"],
    "out_is_the_solution": ["--check", "lipschitz", "--R", "0.2", "--center", "0.5,0.5",
                            "--out", "solution.csv"],
    "out_in_a_directory": ["--check", "lipschitz", "--R", "0.2", "--center", "0.5,0.5",
                           "--out", "sub/lip.csv"],
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


def test_cli_caccioppoli_with_an_empty_super_level_set_fails(tmp_path, capsys):
    # F(Du) stays far below 100 on B_0.2(1.5, 1.5), so both sides would be 0
    check = {"name": "caccioppoli", "k": 100, "rho": 0.1, "R": 0.2, "center": _C,
             "assert_max_ratio": 1e-9, "out": "check.csv"}
    cfg = _config(tmp_path, checks=[check],
                  problem={"n": 17, "domain": [[1, 2], [1, 2]],
                           "boundary": "(x^2 + y^2)^0.25"})
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", str(cfg)]) == 1
    std = capsys.readouterr()
    assert ("error: super-level set {F(Du) >= 100 + (0, 0).Du} holds no triangle "
            "barycenter in B_0.2(1.5,1.5) on the grid n=17") in std.err
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



@pytest.mark.parametrize("flags", [["--R", "0"], ["--R", "1", "--N", "1"], ["--R", "inf"],
                                   ["--R", "1", "--C", "nan"]])
def test_cli_degiorgi_rejects_bad_parameters(capsys, flags):
    code = main(["degiorgi", "--X0", "1", "--C", "1", "--b", "1"] + flags)
    assert code == 1
    assert "error: need X0 >= 0, C, b, R > 0 and N >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_cli_degiorgi_rejects_a_step_count_below_one(capsys, steps):
    # X0 = 0.2 lies below the threshold 0.25: no step is no verdict
    with pytest.raises(SystemExit) as err:
        main(["degiorgi", "--X0", "0.2", "--C", "1", "--b", "4", "--R", "1", "--steps", steps])
    assert err.value.code == 2
    std = capsys.readouterr()
    assert "argument --steps: need an integer >= 1" in std.err and std.out == ""


def test_cli_rejects_a_negative_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["--seed", "-3", "validate", str(_config(tmp_path))])
    assert err.value.code == 2
    assert "argument --seed: need an integer >= 0" in capsys.readouterr().err


_UNWRITABLE = {
    "solve_out_in_missing_dir": lambda tmp, cfg: [
        "--out-dir", str(tmp), "solve", str(cfg), "--out", str(tmp / "missing" / "x.csv")],
    "out_dir_is_a_file": lambda tmp, cfg: ["--out-dir", str(cfg), "validate", str(cfg)],
    "degiorgi_out_in_missing_dir": lambda tmp, cfg: [
        "degiorgi", "--X0", "0.2", "--C", "1", "--b", "4", "--R", "1",
        "--out", str(tmp / "missing" / "x.csv")],
}


@pytest.mark.parametrize("argv", list(_UNWRITABLE.values()), ids=list(_UNWRITABLE))
def test_cli_unwritable_output_is_an_error(tmp_path, capsys, argv):
    # an output path the OS refuses ends in one error line, not a traceback
    assert main(argv(tmp_path, _config(tmp_path))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_solve_checks_its_output_directory_before_the_solve(tmp_path, capsys,
                                                                monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved although the output cannot be written")

    monkeypatch.setattr(quc.cli, "solve", no_solve)
    cfg = _config(tmp_path)
    assert main(["--out-dir", str(tmp_path), "solve", str(cfg),
                 "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    std = capsys.readouterr()
    assert std.err.startswith("error: ") and std.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("n", ["0", "8"])
def test_cli_solve_rejects_a_grid_below_nine_nodes(tmp_path, capsys, n):
    # as problem.n is rejected: the override must not fall back to the config's n
    with pytest.raises(SystemExit) as err:
        main(["--out-dir", str(tmp_path), "solve", str(_config(tmp_path)), "--n", n])
    assert err.value.code == 2
    assert "argument --n: need an integer >= 9" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("angles", ["0", "1", "-3"])
def test_cli_gauge_rejects_fewer_than_two_angles(tmp_path, capsys, angles):
    with pytest.raises(SystemExit) as err:
        main(["--out-dir", str(tmp_path), "gauge", str(_config(tmp_path)),
              "--k", "1", "--angles", angles])
    assert err.value.code == 2
    assert "argument --angles: need an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["inf", "1,,2", "0", "nan"])
def test_cli_gauge_rejects_unusable_levels(tmp_path, capsys, levels):
    with pytest.raises(SystemExit) as err:
        main(["--out-dir", str(tmp_path), "gauge", str(_config(tmp_path)), "--k", levels])
    assert err.value.code == 2
    assert "argument --k: " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_reproducible_bytes(tmp_path):
    cfg = _config(tmp_path, checks=[
        {"name": "lipschitz", "R": 0.2, "center": [0.5, 0.5], "out": "lip.csv"},
    ])
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["--out-dir", str(d), "verify", str(cfg)]) == 0
    for name in ("analyze.csv", "solution.csv", "lip.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
