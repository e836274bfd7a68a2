"""Experiment configuration: JSON schema, validation, boundary expressions.

A config is one integrand plus one grid problem plus a list of checks.
Unknown keys are rejected with their full key path, and numeric parameters
are validated against the module preconditions at parse time by actually
constructing the integrand.

Boundary data is a tiny arithmetic expression over x and y supporting
+, -, *, /, ** (also ^), abs and sqrt, so oracle solutions such as
``x^2 - y^2`` or ``3*(x^2+y^2)^0.25`` live in configs, not code.
"""

from __future__ import annotations

import ast
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class ExperimentConfig:
    integrand_spec: dict
    integrand: object
    problem_spec: dict
    boundary: object
    checks: list
    solver: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "."
    source_text: str = ""
    path: str = ""

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
        d = np.asarray(domain, dtype=float)
    if d.shape != (2, 2) or not (d[0, 1] > d[0, 0] and d[1, 1] > d[1, 0]):
        raise ConfigError(f"problem.domain: need [[x0,x1],[y0,y1]] increasing, got {domain!r}")
    if "boundary" not in spec:
        raise ConfigError("problem.boundary: missing boundary expression")
    mask = spec.get("mask")
    if mask is not None:
        if not isinstance(mask, dict) or set(mask) != {"center", "radius"}:
            raise ConfigError("problem.mask: need {'center': [x,y], 'radius': r}")
        with _at("problem.mask.radius"):
            if not float(mask["radius"]) > 0:
                raise ConfigError("problem.mask.radius: must be positive")


def _validate_check(spec, i):
    path = f"checks[{i}]"
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{path}: each check needs a 'name'")
    name = spec["name"]
    if name not in _CHECK_KEYS:
        raise ConfigError(f"{path}.name: unknown check {name!r} "
                          f"(known: {sorted(_CHECK_KEYS)})")
    _check_keys(spec, _CHECK_KEYS[name], path)
    if name == "caccioppoli":
        for key in ("rho", "R", "center"):
            if key not in spec:
                raise ConfigError(f"{path}: caccioppoli needs {key!r}")
        if not float(spec["rho"]) < float(spec["R"]):
            raise ConfigError(f"{path}: need rho < R")
        if "k" not in spec and "ell" not in spec:
            raise ConfigError(f"{path}: caccioppoli needs 'k' or 'ell'")
    elif name in ("caccioppoli_l1", "sobolev", "lipschitz"):
        for key in ("R", "center"):
            if key not in spec:
                raise ConfigError(f"{path}: {name} needs {key!r}")
    else:
        for key in ("X0", "C", "b", "R", "N"):
            if key not in spec:
                raise ConfigError(f"{path}: degiorgi needs {key!r}")


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
    _validate_problem(raw["problem"])
    boundary = compile_boundary_expression(str(raw["problem"]["boundary"]))
    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("config.checks: expected a list")
    for i, c in enumerate(checks):
        with _at(f"checks[{i}]"):
            _validate_check(c, i)
    solver = raw.get("solver", {})
    _check_keys(solver, _SOLVER_KEYS, "solver")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"config.seed: need an integer, got {seed!r}")
    return ExperimentConfig(
        integrand_spec=raw["integrand"], integrand=F,
        problem_spec=raw["problem"], boundary=boundary,
        checks=checks, solver=dict(solver),
        seed=seed, out_dir=str(raw.get("out_dir", ".")),
        source_text=text, path=str(path),
    )
