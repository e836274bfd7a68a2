"""Experiment configuration: JSON schema, validation, boundary expressions.

A config is one integrand plus one grid problem plus a list of checks.
Every mapping below the top level is read by one loop, ``_values``, from a
table of its required and optional keys: an unknown or missing key is a
``ConfigError`` naming its key path, and each value is converted by its
key's converter into the value the pipeline runs, also at its key path
(json reads NaN and Infinity; no converter passes them).  Then the values
are checked together: an integrand's by its kind's constructor, which
checks the mathematics (p > 1, SPD matrices, blend admissibility), a
check's balls against the domain they must lie in
(``estimates.CHECK_BALL``), and the De Giorgi parameters against
``estimates.degiorgi_iterate``'s preconditions.  So a bad value is a
``ConfigError`` naming its path, never a failure after the solve.

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
    """Report a value that fails conversion or validation (TypeError,
    ValueError, IntegrandError) as one ConfigError at ``path``."""
    try:
        yield
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


def _user_column(text, src, err):
    """1-based column in ``text`` of the syntax error ``err`` raised on
    ``src``, the text with each ``^`` written as ``**``.  An error that
    Python places at column 0 or past the end (input that ends early) is
    reported one past the last character."""
    lines = src.splitlines(keepends=True)
    if not err.lineno or not err.offset or err.lineno > len(lines):
        return len(text) + 1
    at = sum(map(len, lines[:err.lineno - 1])) + err.offset - 1
    # the first character of text whose src version reaches past index at
    return next((i + 1 for i in range(len(text))
                 if len(text[:i + 1].replace("^", "**")) > at), len(text) + 1)


def compile_boundary_expression(text):
    """Compile an expression over x, y into a vectorised callable."""
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"boundary expression syntax error at column "
                          f"{_user_column(text, src, e)} ({e.msg}): {text!r}")
    _validate_expr(tree, text)
    code = compile(tree, "<boundary>", "eval")

    def fn(x, y):
        env = {"x": x, "y": y, **_ALLOWED_CALLS}
        return eval(code, {"__builtins__": {}}, env)

    fn.expression = text
    return fn


# ---------------------------------------------------------------------------
# config keys and value converters
# ---------------------------------------------------------------------------

_TOP_KEYS = {"integrand", "problem", "solver", "checks", "seed", "out_dir"}

# name: (required keys, optional keys)
_CHECKS = {
    "caccioppoli": (("rho", "R", "center"), ("k", "ell", "assert_max_ratio", "out")),
    "caccioppoli_l1": (("R", "center"), ("out",)),
    "sobolev": (("R", "center"), ("out",)),
    "lipschitz": (("R", "center"), ("assert_max_ratio", "out")),
    "degiorgi": (("X0", "C", "b", "R", "N"), ("expect", "out")),
}
# the artifacts ``quc.cli.run`` writes next to the check reports
_PIPELINE_CSVS = ("analyze.csv", "solution.csv")


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


def _matrix(v):
    return _finite(v, (2, 2), "a 2x2 matrix [[a, b], [c, d]] of finite numbers")


def _terms(v):
    return _finite(v, (len(v), 2), "a list of [c, p] pairs of finite numbers")


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


def _domain(v):
    d = _finite(v, (2, 2), "[[x0, x1], [y0, y1]] of finite numbers")
    if not (d[0, 1] > d[0, 0] and d[1, 1] > d[1, 0]):
        raise ValueError(f"need [[x0,x1],[y0,y1]] increasing, got {v!r}")
    return tuple(map(tuple, d.tolist()))


def _mask(v):
    """The disk ``(center, radius)`` of ``problem.mask``; null is no mask."""
    if v is None:
        return None
    disk = _values(v, "problem.mask", "mask", ("center", "radius"), (),
                   {"center": _point, "radius": _positive})
    return disk["center"], disk["radius"]


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


def _check_keys(spec, allowed, path):
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")


def _values(spec, path, what, required, optional, convert):
    """The values of mapping ``spec`` at ``path``, in table order: the
    ``required`` keys, then the ``optional`` keys it gives, each converted
    by ``convert[key]`` under ``_at(f"{path}.{key}")``.  Any other key is
    rejected, and a missing required key is reported as ``what`` needing it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(spec).__name__}")
    _check_keys(spec, required + optional, path)
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}: {what} needs {key!r}")
    out = {}
    for key in required + optional:
        if key in spec:
            with _at(f"{path}.{key}"):
                out[key] = convert[key](spec[key])
    return out


def _pick(spec, path, key, table, what):
    """The ``table`` entry that ``spec[key]`` names, and the rest of ``spec``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(spec).__name__}")
    rest = dict(spec)
    name = rest.pop(key, None)
    if name is None:
        raise ConfigError(f"{path}: missing {key!r}")
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{path}.{key}: unknown {what} {name!r} (known: {sorted(table)})")
    return name, rest


def _boundary(v):
    """The compiled expression; its error passes to ``_at`` to get the key."""
    try:
        return compile_boundary_expression(str(v))
    except ConfigError as e:
        raise ValueError(str(e)) from e


_CHECK_VALUES = {
    "rho": _positive, "R": _positive, "center": _point, "k": _finite, "ell": _affine,
    "assert_max_ratio": _finite, "X0": _finite, "C": _finite, "b": _finite, "N": _count(2),
    "expect": _one_of("vanishes", "diverges/stalls"), "out": _report_name,
}
_SOLVER_VALUES = {"method": _one_of("newton", "gradient"), "tol_rel": _positive,
                  "max_iter": _count(0), "gd_max_iter": _count(0)}
_PROBLEM_VALUES = {"n": _count(9), "boundary": _boundary, "domain": _domain, "mask": _mask}


# ---------------------------------------------------------------------------
# integrand schema
# ---------------------------------------------------------------------------

# name: (constructor, required keys, optional keys).  The constructor is
# called with the converted values as keyword arguments named by the keys,
# and checks the mathematics itself (p > 1, SPD matrices, admissibility).
_KINDS = {
    "power": (ig.make_power, ("p",), ()),
    "anisotropic_quadratic": (ig.make_anisotropic_quadratic, ("A",), ()),
    "uhlenbeck": (ig.make_uhlenbeck, ("profile",), ()),
    "finsler": (ig.make_finsler, ("gauge_matrix", "profile"), ()),
    "blend": (ig.make_blend, ("p", "q", "w"), ("eps",)),
    "sum": (lambda parts: ig.combine("sum", parts), ("parts",), ()),
    "scaled": (lambda part, scale: ig.combine("scaled", [part], scale=scale),
               ("part", "scale"), ()),
    "shifted": (lambda part, shift: ig.combine("shifted", [part], shift=shift),
                ("part", "shift"), ()),
    "affine_add": (lambda part, w, c=0.0: ig.combine("affine_add", [part], w=w, c=c),
                   ("part", "w"), ("c",)),
    "moreau": (lambda part, delta: rg.moreau_yosida(part, delta), ("part", "delta"), ()),
    "mollified": (lambda part, eps, mu: rg.mollify_plus_quadratic(part, eps, mu),
                  ("part", "eps", "mu"), ()),
}
_PROFILES = {
    "power": (ig.power_profile, ("p",), ()),
    "power_sum": (ig.power_sum_profile, ("terms",), ()),
}
_INTEGRAND_VALUES = {
    "p": _finite, "q": _finite, "A": _matrix, "gauge_matrix": _matrix, "terms": _terms,
    "w": _point, "eps": _positive, "mu": _positive, "scale": _positive, "shift": _point,
    "c": _finite, "delta": _positive,
}


def _construct(table, name, rest, path, convert):
    make, required, optional = table[name]
    values = _values(rest, path, name, required, optional, convert)
    with _at(path):
        return make(**values)


def _integrand_values(path):
    """The integrand converters, with ``part``, ``parts`` and ``profile``
    building their nested specs at their own key paths below ``path``."""
    def parts(v):
        if not isinstance(v, list):
            raise ValueError(f"need a list of integrands, got {v!r}")
        return [build_integrand(s, f"{path}.parts[{i}]") for i, s in enumerate(v)]

    def profile(v):
        ptype, rest = _pick(v, f"{path}.profile", "type", _PROFILES, "profile")
        return _construct(_PROFILES, ptype, rest, f"{path}.profile", _INTEGRAND_VALUES)

    return {**_INTEGRAND_VALUES, "parts": parts, "profile": profile,
            "part": lambda v: build_integrand(v, f"{path}.part")}


def build_integrand(spec, path="integrand"):
    """Construct the integrand described by a nested config dict."""
    kind, rest = _pick(spec, path, "kind", _KINDS, "integrand kind")
    derivatives = rest.pop("derivatives", "analytic")
    if derivatives not in ("analytic", "finite_difference"):
        raise ConfigError(f"{path}.derivatives: must be 'analytic' or 'finite_difference'")
    out = _construct(_KINDS, kind, rest, path, _integrand_values(path))
    if derivatives == "finite_difference":
        out = ig.with_fd_derivatives(out)
    return out


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

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


def _validate_check(spec, path, problem, index=0):
    """The converted values of the config's check number ``index``, whose
    report ``out`` defaults to ``{name}_{index}.csv`` and whose balls must
    lie in the domain of ``problem`` (``ExperimentConfig.problem``): its
    rectangle and its mask's disk."""
    name, rest = _pick(spec, path, "name", _CHECKS, "check")
    vals = {"name": name, "out": f"{name}_{index}.csv",
            **_values(rest, path, name, *_CHECKS[name], _CHECK_VALUES)}
    if name == "caccioppoli":
        if not vals["rho"] < vals["R"]:
            raise ConfigError(f"{path}: need rho < R")
        if ("k" in vals) == ("ell" in vals):
            raise ConfigError(f"{path}: caccioppoli needs one of 'k' and 'ell'")
    with _at(path):
        if name == "degiorgi":
            est.degiorgi_iterate(vals["X0"], vals["C"], vals["b"], vals["R"], vals["N"],
                                 max_steps=0)
        else:
            est._require_ball_inside(problem["bounds"], problem["mask"], vals["center"],
                                     est.CHECK_BALL[name] * vals["R"])
    return vals


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
    values = _values(raw["problem"], "problem", "problem", ("n", "boundary"),
                     ("domain", "mask"), _PROBLEM_VALUES)
    boundary = values["boundary"]
    problem = {"n": values["n"], "bounds": values.get("domain", ((0.0, 1.0), (0.0, 1.0))),
               "mask": values.get("mask")}
    specs = raw.get("checks", [])
    if not isinstance(specs, list):
        raise ConfigError("config.checks: expected a list")
    checks = []
    for i, c in enumerate(specs):
        path = f"checks[{i}]"
        check = _validate_check(c, path, problem, i)
        if any(check["out"] == other["out"] for other in checks):
            raise ConfigError(f"{path}.out: another check already writes {check['out']!r}")
        checks.append(check)
    solver = _values(raw.get("solver", {}), "solver", "solver", (), tuple(_SOLVER_VALUES),
                     _SOLVER_VALUES)
    with _at("config.seed"):
        seed = _count(0)(raw.get("seed", 0))
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config.out_dir: need a directory name, got {out_dir!r}")
    return ExperimentConfig(
        integrand=F, problem=problem, boundary=boundary, checks=checks, solver=solver,
        seed=seed, out_dir=out_dir, source_text=text,
    )
