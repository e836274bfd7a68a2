"""Command-line front end: validate configs, analyze integrands, solve
Dirichlet problems, tabulate gauges, verify estimates, iterate De Giorgi.

Every artifact is a CSV with one provenance comment line (package version,
config hash, seed); no timestamps, so identical configs give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np
import numpy.random  # noqa: F401  (with the package, not lazily inside a command's rng)

from . import __version__
from . import dual_geometry as dg
from . import estimates as est
from . import qc_analysis as qa
from .config import ConfigError, _at, _validate_check, parse_config
from .csvio import BLOCK_ROWS, BlockTable, write_csv
from .integrand import (check_gradient_finite_differences, check_hessian_symmetry,
                        check_midpoint_convexity, isotropic_envelope, normalise)
from .solver import GridProblem, SolverError, solve, stress_field

SOLUTION_FIELDS = ["x", "y", "u", "du1", "du2", "v1", "v2",
                   "dv11", "dv12", "dv21", "dv22"]
VERIFY_CHECKS = ("caccioppoli", "caccioppoli_l1", "sobolev", "lipschitz")


def _provenance(cfg, seed):
    return f"quc-version={__version__} config-sha256={cfg.sha256()} seed={seed}"


def _solve(cfg, F, n=None):
    problem = cfg.problem if n is None else {**cfg.problem, "n": n}
    return solve(GridProblem(integrand=F, boundary=cfg.boundary, **problem), **cfg.solver)


def _solution_rows(sol):
    """The SOLUTION_FIELDS, one row per triangle, as a ``BlockTable`` of one
    block per orientation and band of at most ``BLOCK_ROWS // (n - 1)`` cell
    rows: x and y from ``bary_axes``, u the vertex mean summed from +0.0 as
    ``np.mean`` sums, and du, v and dv the band's run of rows."""
    mesh, du, v = sol.mesh, sol.du, sol.v
    dv = stress_field(sol).reshape(-1, 4)
    n = mesh.n
    bx, by = mesh.bary_axes()
    u = sol.u.reshape(n, n)
    band = max(1, BLOCK_ROWS // (n - 1))

    def blocks():
        start = 0
        for o in range(2):
            U = [u[s] for s in mesh.vertex_slices(o)]
            for j in range(0, n - 1, band):
                rows = slice(j, j + band)
                keep = mesh.kept[o, rows]
                stop = start + int(np.count_nonzero(keep))
                if stop == start:
                    continue
                x, y = np.broadcast_arrays(bx[o], by[o, rows, None])
                mean = (0.0 + U[0][rows] + U[1][rows] + U[2][rows]) / 3
                yield np.column_stack([x[keep], y[keep], mean[keep], du[start:stop],
                                       v[start:stop], dv[start:stop]])
                start = stop

    return BlockTable(mesh.n_tris, blocks())


# ---------------------------------------------------------------------------
# analyze rows
# ---------------------------------------------------------------------------

def analyze_rows(F, rng):
    """CSV rows (check, measured, bound, margin) for one integrand."""
    rows = []

    def add(check, measured, bound=None):
        margin = None if bound is None else bound - measured
        rows.append({"check": check, "measured": measured, "bound": bound,
                     "margin": margin})

    hrep = qa.estimate_H(F, rng=rng)
    if F.analytic_H is not None:
        add("H_est_vs_analytic", hrep.H_est, 1.02 * F.analytic_H)
    else:
        add("H_est", hrep.H_est)
    prof = qa.eta_H(max(hrep.H_est, 1.0))
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2000))
    t = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2000))
    idrep = qa.eta_identities_check(prof, s, t)
    add("eta_identities_worst", max(idrep.max_violation.values()), 1e-12)

    hs = np.geomspace(1.0, 1e6, 50)
    rt = np.max(np.abs(qa.H_from_delta(qa.delta_from_H(hs)) / hs - 1.0))
    add("delta_H_roundtrip", float(rt), 1e-12)

    drep = qa.measure_delta_monotonicity(F, rng=rng, H_est=hrep.H_est)
    add("delta_monotonicity", -drep.delta_est,
        -(qa.delta_from_H(hrep.H_est) - 1e-6))

    qrep = qa.quasisymmetry_check(F, rng=rng, H=hrep.H_est)
    add("quasisymmetry_C", qrep.C)

    env = isotropic_envelope(F)
    erep = env.check_envelope(F, rng)
    add("envelope_C", erep["C"])
    add("envelope_doubling_C", env.check_doubling(hrep.H_est))

    add("midpoint_convexity_margin", -check_midpoint_convexity(F, rng, n=2000), 1e-12)
    add("gradient_fd_mismatch", check_gradient_finite_differences(F, rng, n=500), 1e-5)
    return rows


def _analyze_verdict(row):
    """'FAIL' for an analyze row whose measurement is not finite or whose
    margin is not >= 0 (nan included), else 'PASS', or '' for a row without
    a bound."""
    margin = row["margin"]
    if not np.isfinite(row["measured"]) or not (margin is None or margin >= 0):
        return "FAIL"
    return "" if margin is None else "PASS"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg, args, out_dir, rng):
    F = cfg.integrand
    checks = [
        ("midpoint_convexity", check_midpoint_convexity(F, rng, n=5000) >= -1e-12),
        ("gradient_matches_fd", check_gradient_finite_differences(F, rng, n=500) <= 1e-5),
        ("hessian_symmetry", check_hessian_symmetry(F, rng, n=500) <= 1e-4),
        ("value_at_origin_finite", np.isfinite(F.eval(np.zeros(2)))),
    ]
    ok = True
    for name, passed in checks:
        print(f"validate {name}: {'PASS' if passed else 'FAIL'}")
        ok &= bool(passed)
    print(f"validate integrand={F.describe()}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_analyze(cfg, args, out_dir, rng):
    F = normalise(cfg.integrand)
    rows = analyze_rows(F, rng)
    path = os.path.join(out_dir, "analyze.csv")
    write_csv(path, ["check", "measured", "bound", "margin"], rows,
              _provenance(cfg, args.seed))
    bad = 0
    for r in rows:
        verdict = _analyze_verdict(r)
        bad += verdict == "FAIL"
        print(f"analyze {r['check']}: measured={r['measured']:.6g} {verdict}")
    print(f"analyze: wrote {path}")
    return 0 if bad == 0 else 1


def cmd_solve(cfg, args, out_dir, rng):
    path = args.out or os.path.join(out_dir, "solution.csv")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"no directory to write {path}")
    F = normalise(cfg.integrand)
    sol = _solve(cfg, F, n=args.n)
    write_csv(path, SOLUTION_FIELDS, _solution_rows(sol), _provenance(cfg, args.seed))
    print(f"solve n={sol.problem.n} energy={sol.energy:.12g} residual={sol.residual:.3g} "
          f"iterations={sol.iterations} converged={sol.converged}")
    print(f"solve: wrote {path}")
    if not sol.converged:
        print(f"solve: solver non-converged ({sol.stop_reason})", file=sys.stderr)
        return 1
    return 0


def cmd_gauge(cfg, args, out_dir, rng):
    F = normalise(cfg.integrand)
    H = qa.estimate_H(F, rng=rng).H_est
    table_rows, check_rows = [], []
    ok = True
    for k in args.k:
        gs = dg.gauge_bounds(F, k, n_angles=args.angles, H=H)
        table_rows.append(np.column_stack([np.full(gs.angles.shape, k), gs.angles, gs.values]))
        check_rows.append({
            "k": k, "sup": gs.sup, "inf": gs.inf, "lipschitz": gs.lipschitz,
            "lip_bound": gs.checks["lipschitz_bound"],
            "sup_inf_ratio": gs.checks["sup_inf_ratio"], "H": H,
        })
        lip_ok = gs.checks["lipschitz_ok"]
        ok &= lip_ok
        print(f"gauge k={k:g}: sup={gs.sup:.6g} inf={gs.inf:.6g} "
              f"lip={gs.lipschitz:.6g} {'PASS' if lip_ok else 'FAIL'}")
    prov = _provenance(cfg, args.seed)
    write_csv(os.path.join(out_dir, "gauge_table.csv"), ["k", "angle", "g"],
              np.concatenate(table_rows), prov)
    write_csv(os.path.join(out_dir, "gauge_checks.csv"),
              ["k", "sup", "inf", "lipschitz", "lip_bound", "sup_inf_ratio", "H"],
              check_rows, prov)
    print(f"gauge: wrote {out_dir}/gauge_table.csv, {out_dir}/gauge_checks.csv")
    return 0 if ok else 1


def _run_one_check(spec, sol, H):
    name, center = spec["name"], spec.get("center")
    if name == "caccioppoli":
        ell = spec["ell"] if "ell" in spec else (spec["k"], np.zeros(2))
        return [est.caccioppoli_check(sol, ell, spec["rho"], spec["R"], center, H=H)]
    if name == "caccioppoli_l1":
        return [est.caccioppoli_l1_check(sol, spec["R"], center, H=H)]
    if name == "sobolev":
        return est.sobolev_stress_check(sol, spec["R"], center, H=H)
    if name == "lipschitz":
        return [est.lipschitz_check(sol, spec["R"], center)]
    return [est.degiorgi_iterate(spec["X0"], spec["C"], spec["b"], spec["R"],
                                 spec["N"]).to_report()]


def run(cfg, out_dir=".", seed=None, checks=None):
    """Pipeline: normalise, analyze, solve, run checks; write one CSV each.

    ``checks`` (default ``cfg.checks``) are checks as ``parse_config``
    converts them, and each is run with its values as given.  Returns the
    exit code, nonzero when a hard assertion failed (non-convergence,
    assert_max_ratio violations, degiorgi verdict mismatches).
    """
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    prov = _provenance(cfg, seed)
    os.makedirs(out_dir, exist_ok=True)
    failures = []

    F = normalise(cfg.integrand)
    rows = analyze_rows(F, rng)
    write_csv(os.path.join(out_dir, "analyze.csv"),
              ["check", "measured", "bound", "margin"], rows, prov)
    failures += [f"analyze:{r['check']}" for r in rows if _analyze_verdict(r) == "FAIL"]

    checks = cfg.checks if checks is None else checks
    needs_solve = any(c["name"] != "degiorgi" for c in checks)
    sol = None
    if needs_solve:
        sol = _solve(cfg, F)
        write_csv(os.path.join(out_dir, "solution.csv"), SOLUTION_FIELDS,
                  _solution_rows(sol), prov)
        print(f"solve: energy={sol.energy:.12g} residual={sol.residual:.3g} "
              f"converged={sol.converged}")
        if not sol.converged:
            failures.append(f"solver non-converged ({sol.stop_reason})")

    H = qa.estimate_H(F, rng=np.random.default_rng(seed + 1)).H_est if needs_solve else None
    for spec in checks:
        reps = _run_one_check(spec, sol, H)
        write_csv(os.path.join(out_dir, spec["out"]), est.REPORT_FIELDS,
                  [r.to_row() for r in reps], prov)
        for rep in reps:
            line = f"check {rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} ratio={rep.ratio:.6g}"
            if "assert_max_ratio" in spec:
                bound = spec["assert_max_ratio"]
                passed = rep.ratio <= bound
                line += f" [ratio <= {bound:g}: {'PASS' if passed else 'FAIL'}]"
                if not passed:
                    failures.append(f"{rep.name}: ratio {rep.ratio:g} > {bound:g}")
            if "expect" in spec:
                verdict = rep.extra["verdict"]
                passed = verdict == spec["expect"]
                line += f" verdict={verdict} [{'PASS' if passed else 'FAIL'}]"
                if not passed:
                    failures.append(f"degiorgi verdict {verdict} != {spec['expect']}")
            print(line)

    if failures:
        print(f"run: FAILED ({failures[0]})", file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg, args, out_dir, rng):
    flags = {key: getattr(args, key) for key in ("R", "rho", "k", "ell", "center", "out")
             if getattr(args, key) is not None}
    if not args.check:
        if flags:
            raise ConfigError(f"--{next(iter(flags))}: only used with --check")
        return run(cfg, out_dir=out_dir, seed=args.seed)
    if "ell" in flags:
        with _at("--ell"):
            c, b1, b2 = flags["ell"].split(",")
        flags["ell"] = {"c": c, "b": [b1, b2]}
    if "center" in flags:
        flags["center"] = flags["center"].split(",")
    check = _validate_check({"name": args.check, **flags}, "--check", cfg.problem)
    return run(cfg, out_dir=out_dir, seed=args.seed, checks=[check])


def cmd_degiorgi(args):
    res = est.degiorgi_iterate(args.X0, args.C, args.b, args.R, args.N,
                               max_steps=args.steps)
    print(f"degiorgi threshold={res.threshold:.17g} X0={res.X0:.17g} "
          f"verdict={res.verdict} steps={res.steps}")
    if args.out:
        rows = np.column_stack([np.arange(res.sequence.size), res.sequence])
        write_csv(args.out, ["step", "X"], rows,
                  f"quc-version={__version__} degiorgi X0={res.X0:.17g} "
                  f"C={args.C:.17g} b={args.b:.17g} R={args.R:.17g} N={args.N} "
                  f"threshold={res.threshold:.17g} verdict={res.verdict}")
        print(f"degiorgi: wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(lo):
    """argparse type: an integer >= lo; argparse names the option on error."""
    def integer(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"need an integer >= {lo}, got {value}")
        return value
    return integer


def _levels(text):
    """argparse type: comma-separated gauge levels, each finite and > 0."""
    try:
        levels = [float(k) for k in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not all(np.isfinite(k) and k > 0.0 for k in levels):
        raise argparse.ArgumentTypeError(f"need finite levels > 0, got {text!r}")
    return levels


def _build_parser():
    ap = argparse.ArgumentParser(prog="quc", description=__doc__)
    ap.add_argument("--out-dir", default=None, help="output directory (default: config)")
    ap.add_argument("--seed", type=_int_at_least(0), default=None,
                    help="override config seed (an integer >= 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("validate", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("config")

    p = sub.add_parser("solve")
    p.add_argument("config")
    p.add_argument("--n", type=_int_at_least(9), default=None,
                   help="override grid nodes per side (as problem.n, at least 9)")
    p.add_argument("--out", default=None, help="solution CSV path")

    p = sub.add_parser("gauge")
    p.add_argument("config")
    p.add_argument("--k", type=_levels, required=True,
                   help="comma-separated gauge levels, each finite and > 0")
    # the Lipschitz estimate differences neighbouring angles
    p.add_argument("--angles", type=_int_at_least(2), default=256)

    p = sub.add_parser("verify")
    p.add_argument("config")
    # verify has no flags for a De Giorgi check's X0, C, b and N: ``quc degiorgi`` runs it
    p.add_argument("--check", default=None, choices=VERIFY_CHECKS)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--ell", default=None, help="affine level c,b1,b2")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--center", default=None, help="ball center x,y")
    p.add_argument("--out", default=None, help="report CSV name")

    p = sub.add_parser("degiorgi")
    p.add_argument("--X0", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--steps", type=_int_at_least(1), default=10**4)
    p.add_argument("--out", default=None)
    return ap


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped():
    """Let glibc keep freed memory of up to 32 MiB blocks for reuse.

    A solve or an analysis allocates and frees the same few-MiB numpy
    temporaries once per integrand pass.  By default glibc serves blocks
    above 128 KiB by mmap and trims the heap top above 128 KiB, raising
    both only as freed blocks teach it; until then each pass faults its
    temporaries in page by page again.  On the benchmark's ladder solve
    (mollified Moreau envelope, n = 17) that was 19-22k minor faults and
    about a fifth of the time in ``main``.  The mmap threshold is set to
    32 MiB, the most glibc's dynamic rule would reach, and the trim
    threshold to twice that.  Both go together: setting either one switches
    off the dynamic rule that would raise the other.  ctypes is already
    loaded by numpy, and where libc has no mallopt this does nothing.  Only
    the CLI sets this; a program importing quc keeps its own allocator
    settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_heap_mapped()
    args = _build_parser().parse_args(argv)
    if args.command != "degiorgi":
        try:
            cfg = parse_config(args.config)
        except (ConfigError, OSError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
    handler = {"validate": cmd_validate, "analyze": cmd_analyze,
               "solve": cmd_solve, "gauge": cmd_gauge, "verify": cmd_verify}
    try:
        if args.command == "degiorgi":
            return cmd_degiorgi(args)
        out_dir = args.out_dir or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        args.seed = cfg.seed if args.seed is None else args.seed
        return handler[args.command](cfg, args, out_dir, np.random.default_rng(args.seed))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
