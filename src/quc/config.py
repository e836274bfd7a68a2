"""Experiment configuration: JSON schema, validation, boundary expressions.

A config is one integrand plus one grid problem plus a list of checks.
Unknown keys are rejected with their full key path.  Every value is checked
at parse time: integrand parameters by actually constructing the
integrand, problem, check and solver values by converting them into the
values the pipeline runs (checks also against the domain each ball must
lie in, ``estimates.CHECK_BALL``, and the De Giorgi parameters against
``estimates.degiorgi_iterate``'s preconditions), so a bad value is a
``ConfigError`` naming its key path, never a failure after the solve.

Boundary data is a tiny arithmetic expression over x and y supporting
+, -, *, /, ** (also ^), abs and sqrt, so oracle solutions such as
``x^2 - y^2`` or ``3*(x^2+y^2)^0.25`` live in configs, not code.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import estimates as est
from . import integrand as ig
from . import regularize as rg


class ConfigError(ValueError):
    pass


@contextmanager
def _at(path):
    """Report a missing key, or a value that fails conversion or validation
    (TypeError, ValueError, IntegrandError), as one ConfigError at ``path``."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"{path}: missing required key {e.args[0]!r}") from e
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# boundary expression language
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"abs": np.abs, "sqrt": np.sqrt}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate_expr(node, text):
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, text)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ConfigError(f"operator {type(node.op).__name__} not allowed in {text!r}")
        _validate_expr(node.left, text)
        _validate_expr(node.right, text)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ConfigError(f"operator {type(node.op).__name__} not allowed in {text!r}")
        _validate_expr(node.operand, text)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"constant {node.value!r} not allowed in {text!r}")
    elif isinstance(node, ast.Name):
        if node.id not in ("x", "y"):
            raise ConfigError(f"unknown name {node.id!r} in {text!r} (only x, y)")
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS
                and not node.keywords):
            raise ConfigError(f"only abs(...) and sqrt(...) calls allowed in {text!r}")
        for a in node.args:
            _validate_expr(a, text)
    else:
        raise ConfigError(f"syntax element {type(node).__name__} not allowed in {text!r}")


def compile_boundary_expression(text):
    """Compile an expression over x, y into a vectorised callable."""
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"boundary expression syntax error at column {e.offset}: {text!r}")
    _validate_expr(tree, text)
    code = compile(tree, "<boundary>", "eval")

    def fn(x, y):
        env = {"x": x, "y": y, **_ALLOWED_CALLS}
        return eval(code, {"__builtins__": {}}, env)

    fn.expression = text
    return fn


# ---------------------------------------------------------------------------
# integrand schema
# ---------------------------------------------------------------------------

_PROFILE_KEYS = {"power": {"type", "p"}, "power_sum": {"type", "terms"}}

_KIND_KEYS = {
    "power": {"kind", "p"},
    "anisotropic_quadratic": {"kind", "A"},
    "uhlenbeck": {"kind", "profile"},
    "finsler": {"kind", "gauge_matrix", "profile"},
    "blend": {"kind", "p", "q", "w", "eps"},
    "sum": {"kind", "parts"},
    "scaled": {"kind", "part", "scale"},
    "shifted": {"kind", "part", "shift"},
    "affine_add": {"kind", "part", "w", "c"},
    "moreau": {"kind", "part", "delta"},
    "mollified": {"kind", "part", "eps", "mu"},
}


def _check_keys(spec, allowed, path):
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")


def _build_profile(spec, path):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{path}: profile needs a 'type' key")
    ptype = spec["type"]
    if ptype not in _PROFILE_KEYS:
        raise ConfigError(f"{path}.type: unknown profile {ptype!r}")
    _check_keys(spec, _PROFILE_KEYS[ptype], path)
    if ptype == "power":
        return ig.power_profile(float(spec["p"]))
    return ig.power_sum_profile(spec["terms"])


def build_integrand(spec, path="integrand"):
    """Construct the integrand described by a nested config dict."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind is None:
        raise ConfigError(f"{path}: missing 'kind'")
    base = dict(spec)
    derivatives = base.pop("derivatives", "analytic")
    if derivatives not in ("analytic", "finite_difference"):
        raise ConfigError(f"{path}.derivatives: must be 'analytic' or 'finite_difference'")
    if kind not in _KIND_KEYS:
        raise ConfigError(f"{path}.kind: unknown integrand kind {kind!r}")
    _check_keys(base, _KIND_KEYS[kind], path)
    with _at(path):
        if kind == "power":
            out = ig.make_power(float(base["p"]))
        elif kind == "anisotropic_quadratic":
            out = ig.make_anisotropic_quadratic(np.asarray(base["A"], dtype=float))
        elif kind == "uhlenbeck":
            out = ig.make_uhlenbeck(_build_profile(base["profile"], f"{path}.profile"))
        elif kind == "finsler":
            out = ig.make_finsler(np.asarray(base["gauge_matrix"], dtype=float),
                                  _build_profile(base["profile"], f"{path}.profile"))
        elif kind == "blend":
            out = ig.make_blend(float(base["p"]), float(base["q"]),
                                np.asarray(base["w"], dtype=float),
                                base.get("eps"))
        elif kind == "sum":
            parts = [build_integrand(p, f"{path}.parts[{i}]")
                     for i, p in enumerate(base["parts"])]
            out = ig.combine("sum", parts)
        elif kind == "scaled":
            out = ig.combine("scaled", [build_integrand(base["part"], f"{path}.part")],
                             scale=float(base["scale"]))
        elif kind == "shifted":
            out = ig.combine("shifted", [build_integrand(base["part"], f"{path}.part")],
                             shift=np.asarray(base["shift"], dtype=float))
        elif kind == "affine_add":
            out = ig.combine("affine_add", [build_integrand(base["part"], f"{path}.part")],
                             w=np.asarray(base["w"], dtype=float),
                             c=float(base.get("c", 0.0)))
        elif kind == "moreau":
            out = rg.moreau_yosida(build_integrand(base["part"], f"{path}.part"),
                                   float(base["delta"]))
        else:
            out = rg.mollify_plus_quadratic(build_integrand(base["part"], f"{path}.part"),
                                            float(base["eps"]), float(base["mu"]))
    if derivatives == "finite_difference":
        out = ig.with_fd_derivatives(out)
    return out


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

_TOP_KEYS = {"integrand", "problem", "solver", "checks", "seed", "out_dir"}
_PROBLEM_KEYS = {"n", "domain", "boundary", "mask"}
_SOLVER_KEYS = {"method", "tol_rel", "max_iter", "gd_max_iter"}

_CHECK_KEYS = {
    "caccioppoli": {"name", "rho", "R", "center", "k", "ell", "assert_max_ratio", "out"},
    "caccioppoli_l1": {"name", "R", "center", "out"},
    "sobolev": {"name", "R", "center", "out"},
    "lipschitz": {"name", "R", "center", "assert_max_ratio", "out"},
    "degiorgi": {"name", "X0", "C", "b", "R", "N", "expect", "out"},
}
# the artifacts ``quc.cli.run`` writes next to the check reports
_PIPELINE_CSVS = ("analyze.csv", "solution.csv")
_CHECK_REQUIRED = {
    "caccioppoli": ("rho", "R", "center"),
    "caccioppoli_l1": ("R", "center"),
    "sobolev": ("R", "center"),
    "lipschitz": ("R", "center"),
    "degiorgi": ("X0", "C", "b", "R", "N"),
}


# Value converters: each returns the value the pipeline uses or raises
# ValueError/TypeError, which ``_at`` reports at the key's path.

def _finite(v, shape=(), what="a finite number"):
    """``v`` as a float, or as a float array of ``shape``, with no entry
    nan or infinite: ``json`` reads NaN and Infinity, and ``float`` takes
    them, so a bound that can never fail or a nan centre would pass."""
    a = np.asarray(v, dtype=float)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"need {what}, got {v!r}")
    return a if shape else float(a)


def _positive(v):
    x = _finite(v, what="a positive finite number")
    if not x > 0.0:
        raise ValueError(f"need a positive finite number, got {v!r}")
    return x


def _point(v):
    return _finite(v, (2,), "a point [x, y] of finite numbers")


def _count(least):
    def convert(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            raise ValueError(f"need an integer >= {least}, got {v!r}")
        return v
    return convert


def _affine(v):
    if not isinstance(v, dict) or set(v) != {"c", "b"}:
        raise ValueError(f"need {{'c': c, 'b': [b1, b2]}}, got {v!r}")
    return _finite(v["c"]), _point(v["b"])


def _report_name(v):
    """A check report's file name in the output directory."""
    if not isinstance(v, str) or not v or os.path.basename(v) != v:
        raise ValueError(f"need a file name without a directory, got {v!r}")
    if v in _PIPELINE_CSVS:
        raise ValueError(f"{v!r} is written by the pipeline itself")
    return v


def _one_of(*choices):
    def convert(v):
        if v not in choices:
            raise ValueError(f"need {' or '.join(map(repr, choices))}, got {v!r}")
        return v
    return convert


_CHECK_VALUES = {
    "rho": _positive, "R": _positive, "center": _point, "k": _finite, "ell": _affine,
    "assert_max_ratio": _finite, "X0": _finite, "C": _finite, "b": _finite, "N": _count(2),
    "expect": _one_of("vanishes", "diverges/stalls"), "out": _report_name,
}
_SOLVER_VALUES = {"method": _one_of("newton", "gradient"), "tol_rel": _positive,
                  "max_iter": _count(0), "gd_max_iter": _count(0)}


@dataclass
class ExperimentConfig:
    """A parsed config: the values the pipeline runs.

    ``problem`` holds ``GridProblem``'s ``n``, ``bounds`` and ``mask``; each
    check is a dict of its converted values under the config's keys, with
    ``out`` always set.
    """

    integrand: object
    problem: dict
    boundary: object
    checks: list
    solver: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "."
    source_text: str = ""

    def sha256(self):
        return hashlib.sha256(self.source_text.encode()).hexdigest()[:16]


def _validate_problem(spec):
    if not isinstance(spec, dict):
        raise ConfigError("problem: expected a mapping")
    _check_keys(spec, _PROBLEM_KEYS, "problem")
    n = spec.get("n")
    if not isinstance(n, int) or n < 9:
        raise ConfigError(f"problem.n: need an integer >= 9, got {n!r}")
    domain = spec.get("domain", [[0.0, 1.0], [0.0, 1.0]])
    with _at("problem.domain"):
        d = _finite(domain, (2, 2), "[[x0, x1], [y0, y1]] of finite numbers")
    if not (d[0, 1] > d[0, 0] and d[1, 1] > d[1, 0]):
        raise ConfigError(f"problem.domain: need [[x0,x1],[y0,y1]] increasing, got {domain!r}")
    if "boundary" not in spec:
        raise ConfigError("problem.boundary: missing boundary expression")
    mask = spec.get("mask")
    if mask is not None:
        if not isinstance(mask, dict) or set(mask) != {"center", "radius"}:
            raise ConfigError("problem.mask: need {'center': [x,y], 'radius': r}")
        with _at("problem.mask.center"):
            center = _point(mask["center"])
        with _at("problem.mask.radius"):
            mask = (center, _positive(mask["radius"]))
    return {"n": n, "bounds": tuple(map(tuple, d.tolist())), "mask": mask}


def _validate_check(spec, path, problem, index=0):
    """The converted values of the config's check number ``index``, whose
    report ``out`` defaults to ``{name}_{index}.csv`` and whose balls must
    lie in the domain of ``problem`` (``_validate_problem``): its rectangle
    and its mask's disk."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{path}: each check needs a 'name'")
    name = spec["name"]
    if name not in _CHECK_KEYS:
        raise ConfigError(f"{path}.name: unknown check {name!r} "
                          f"(known: {sorted(_CHECK_KEYS)})")
    _check_keys(spec, _CHECK_KEYS[name], path)
    for key in _CHECK_REQUIRED[name]:
        if key not in spec:
            raise ConfigError(f"{path}: {name} needs {key!r}")
    vals = {"name": name, "out": f"{name}_{index}.csv"}
    for key, convert in _CHECK_VALUES.items():
        if key in spec:
            with _at(f"{path}.{key}"):
                vals[key] = convert(spec[key])
    if name == "caccioppoli":
        if not vals["rho"] < vals["R"]:
            raise ConfigError(f"{path}: need rho < R")
        if "k" not in spec and "ell" not in spec:
            raise ConfigError(f"{path}: caccioppoli needs 'k' or 'ell'")
    with _at(path):
        if name == "degiorgi":
            est.degiorgi_iterate(vals["X0"], vals["C"], vals["b"], vals["R"], vals["N"],
                                 max_steps=0)
        else:
            est._require_ball_inside(problem["bounds"], problem["mask"], vals["center"],
                                     est.CHECK_BALL[name] * vals["R"])
    return vals


def _validate_solver(spec):
    if not isinstance(spec, dict):
        raise ConfigError("solver: expected a mapping")
    _check_keys(spec, _SOLVER_KEYS, "solver")
    out = {}
    for key, value in spec.items():
        with _at(f"solver.{key}"):
            out[key] = _SOLVER_VALUES[key](value)
    return out


def parse_config(path):
    """Read, validate and materialise an experiment config."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: JSON syntax error at line {e.lineno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")
    if "integrand" not in raw:
        raise ConfigError("config.integrand: missing")
    if "problem" not in raw:
        raise ConfigError("config.problem: missing")
    F = build_integrand(raw["integrand"])
    problem = _validate_problem(raw["problem"])
    boundary = compile_boundary_expression(str(raw["problem"]["boundary"]))
    specs = raw.get("checks", [])
    if not isinstance(specs, list):
        raise ConfigError("config.checks: expected a list")
    checks = []
    for i, c in enumerate(specs):
        path = f"checks[{i}]"
        with _at(path):
            check = _validate_check(c, path, problem, i)
        if any(check["out"] == other["out"] for other in checks):
            raise ConfigError(f"{path}.out: another check already writes {check['out']!r}")
        checks.append(check)
    solver = _validate_solver(raw.get("solver", {}))
    with _at("config.seed"):
        seed = _count(0)(raw.get("seed", 0))
    return ExperimentConfig(
        integrand=F, problem=problem, boundary=boundary, checks=checks, solver=solver,
        seed=seed, out_dir=str(raw.get("out_dir", ".")), source_text=text,
    )
