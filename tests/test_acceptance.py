"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json

import numpy as np
import pytest

import quc
from quc.cli import main
from quc.config import compile_boundary_expression
from conftest import catalogue


def _report(num, desc, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# 1 ------------------------------------------------------------------------

def test_criterion_1_eta_algebra(rng):
    profiles = [quc.EtaProfile(H, 1.0 / H) for H in (1.0, 2.0, 4.0, 10.0)]
    profiles += [quc.EtaProfile(3.0, 2.0), quc.EtaProfile(0.5, 1.0 / 3.0)]
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 10**4))
    t = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 10**4))
    worst = 0.0
    for prof in profiles:
        rep = quc.eta_identities_check(prof, s, t, tol=1e-12)
        worst = max(worst, max(rep.max_violation.values()))
        if not rep.ok:
            _report(1, "eta identities", False, str(rep.first_violation))
    _report(1, "eta submultiplicativity, reflection and composition to 1e-12",
            worst <= 1e-12, f"worst violation {worst:.3g}")


# 2 ------------------------------------------------------------------------

def test_criterion_2_delta_H():
    H = np.geomspace(1.0, 1e6, 100)
    rt = np.max(np.abs(quc.H_from_delta(quc.delta_from_H(H)) / H - 1.0))
    delta = 0.8
    s = np.sqrt(1.0 - delta**2)
    F = quc.make_anisotropic_quadratic(np.diag([1.0 + s, 1.0 - s]))
    rep = quc.measure_delta_monotonicity(F, np.random.default_rng(0))
    sharp_err = abs(rep.delta_est - 0.8)
    _report(2, "delta/H round trip to 1e-12 and sharp pair quotient 0.8",
            rt <= 1e-12 and sharp_err <= 1e-10,
            f"roundtrip {rt:.3g}, sharp pair error {sharp_err:.3g}")


# 3 ------------------------------------------------------------------------

def test_criterion_3_dilatation(rng):
    ok = True
    details = []
    for p in (2.5, 3.0, 4.0, 1.25, 1.5):
        expected = max(p - 1.0, 1.0 / (p - 1.0))
        est = quc.estimate_H(quc.make_power(p), rng=rng)
        good = abs(est.H_est - expected) <= 0.02 * expected
        ok &= good
        details.append(f"p={p}: {est.H_est:.4f}")
    for name, F in catalogue():
        est = quc.estimate_H(F, rng=rng)
        rep = quc.measure_delta_monotonicity(F, rng)
        good = rep.delta_est >= quc.delta_from_H(est.H_est) - 1e-6
        ok &= good
        if not good:
            details.append(f"{name}: delta {rep.delta_est:.6f} < bound")
    _report(3, "estimate_H matches power ratios (2%), delta >= delta(H_est) - 1e-6",
            ok, "; ".join(details[:5]))


# 4 ------------------------------------------------------------------------

def test_criterion_4_moreau(rng):
    M = quc.moreau_yosida(quc.make_power(2.0), 1.0)
    z = rng.uniform(-10, 10, (1000, 2))
    err = np.abs(M.eval(z) - 0.25 * (z**2).sum(axis=1)).max()
    lmax = {}
    for delta in (0.25, 1.0):
        Md = quc.moreau_yosida(quc.make_power(3.0), delta)
        _, hi = Md.hess_eig_bounds(rng.uniform(-10, 10, (1000, 2)))
        lmax[delta] = hi.max()
    ok = (err <= 1e-8 and all(lmax[d] <= 1.0 / d + 1e-6 for d in lmax))
    _report(4, "Moreau envelope closed form and Hessian bound 1/delta",
            ok, f"quadratic error {err:.2g}, "
                f"lmax {lmax[0.25]:.3f}<=4, {lmax[1.0]:.3f}<=1")


# 5 ------------------------------------------------------------------------

def test_criterion_5_strongly_elliptic(rng):
    F = quc.make_power(3.0)
    ok = True
    details = []
    for n in (2, 4, 6):
        Fn = quc.strongly_elliptic_approx(F, n)
        z = rng.uniform(-2, 2, (1000, 2))
        lo, hi = Fn.hess_eig_bounds(z)
        s = 2.0 ** (-n)
        good = lo.min() >= s - 1e-6 and hi.max() <= 1.0 / s + s + 1e-6
        ok &= good
        details.append(f"n={n}: [{lo.min():.4f},{hi.max():.4f}] in [{s:.4f},{1/s+s:.4f}]")
    Mo = quc.mollify_plus_quadratic(F, 0.25, 0.0625)
    z = rng.uniform(-3, 3, (1000, 2))
    dominates = np.all(Mo.eval(z) >= F.eval(z) - 1e-12)
    ok &= bool(dominates)
    _report(5, "ladder eigenvalue bounds and mollification domination",
            ok, "; ".join(details))


# 6 ------------------------------------------------------------------------

def test_criterion_6_dual_geometry(rng):
    F3 = quc.make_power(3.0)
    y = rng.uniform(-5, 5, (1000, 2))
    w = quc.df_inverse(F3, y)
    rt = np.hypot(*(F3.grad(w) - y).T).max()
    gauge_err = 0.0
    for p in (2.0, 3.0):
        F = quc.make_power(p)
        for k in (0.5, 1.0, 2.0):
            z = rng.uniform(-2, 2, (30, 2))
            z = z[np.hypot(z[:, 0], z[:, 1]) > 0.1]
            got = quc.gauge(F, k, z)
            exact = np.hypot(z[:, 0], z[:, 1]) / (p * k) ** ((p - 1.0) / p)
            gauge_err = max(gauge_err, np.abs(got - exact).max())
    Bn = quc.normalise(quc.make_blend(3.0, 1.5, (0.5, 0.0)))
    star = quc.star_shape_check(Bn, n_rays=128, n_radii=64)
    ok = rt <= 1e-9 and gauge_err <= 1e-8 and star.margin >= -1e-9
    _report(6, "gradient inversion, radial gauge closed form, star-shapedness",
            ok, f"roundtrip {rt:.2g}, gauge error {gauge_err:.2g}, "
                f"star margin {star.margin:.2g}")


# 7 ------------------------------------------------------------------------

def test_criterion_7_solver_oracles(sol_affine, sol_harmonic, sol_p3_oracle):
    m = sol_affine.mesh
    affine_err = np.abs(sol_affine.u - (0.7 * m.nodes[:, 0] - 0.3 * m.nodes[:, 1]
                                        + 0.2)).max()

    harm_errs = []
    for n in (17, 33, 65):
        mm = sol_harmonic[n].mesh
        exact = mm.nodes[:, 0] ** 2 - mm.nodes[:, 1] ** 2
        harm_errs.append(np.abs(sol_harmonic[n].u - exact).max())
    if max(harm_errs) <= 1e-12:
        # the assembled stiffness is the 5-point stencil, which reproduces
        # this harmonic polynomial exactly; order is beyond measurement
        harm_order = np.inf
    else:
        harm_order = min(np.log2(harm_errs[i] / harm_errs[i + 1]) for i in range(2))

    # a quartic harmonic polynomial gives a measurable convergence order
    quart_errs = []
    for n in (17, 33, 65):
        prob = quc.GridProblem(
            integrand=quc.make_power(2.0), n=n,
            boundary=compile_boundary_expression("x^4 - 6*x^2*y^2 + y^4"))
        sol = quc.solve(prob)
        mm = sol.mesh
        exact = (mm.nodes[:, 0]**4 - 6 * mm.nodes[:, 0]**2 * mm.nodes[:, 1]**2
                 + mm.nodes[:, 1]**4)
        quart_errs.append(np.abs(sol.u - exact).max())
    quart_order = min(np.log2(quart_errs[i] / quart_errs[i + 1]) for i in range(2))

    p3_errs = []
    for n in (17, 33, 65):
        mm = sol_p3_oracle[n].mesh
        exact = (mm.nodes[:, 0]**2 + mm.nodes[:, 1]**2) ** 0.25
        p3_errs.append(np.abs(sol_p3_oracle[n].u - exact).max())

    residuals = [sol_affine.residual] + [s.residual for s in sol_harmonic.values()] \
        + [s.residual for s in sol_p3_oracle.values()]
    ok = (affine_err <= 1e-8
          and harm_order >= 1.8 and quart_order >= 1.8
          and p3_errs[0] > p3_errs[1] > p3_errs[2]
          and max(residuals) <= 1e-9)
    _report(7, "solver oracles: affine, harmonic order, radial p=3, residuals",
            ok, f"affine {affine_err:.2g}, harmonic order {harm_order:.3g} "
                f"(quartic {quart_order:.2f}), p3 errors {[f'{e:.2e}' for e in p3_errs]}, "
                f"max residual {max(residuals):.2g}")


# 8 ------------------------------------------------------------------------

def test_criterion_8_caccioppoli(sol_harmonic, sol_p3_scaled, sol_p15_scaled):
    ratios = {}
    rep = quc.caccioppoli_check(sol_harmonic[65], (0.0, np.zeros(2)),
                                0.2, 0.4, (0.5, 0.5), H=1.0)
    ratios["harmonic k=0"] = rep.ratio
    rep = quc.caccioppoli_check(sol_harmonic[65], (0.9, np.array([0.2, 0.0])),
                                0.2, 0.4, (0.5, 0.5), H=1.0)
    ratios["harmonic affine"] = rep.ratio
    for label, sols in (("p=3", sol_p3_scaled), ("p=1.5", sol_p15_scaled)):
        for k in (0.1, 0.5):
            rep = quc.caccioppoli_check(sols[65], (k, np.zeros(2)),
                                        0.2, 0.4, (1.5, 1.5), H=2.0)
            ratios[f"{label} k={k}"] = rep.ratio
    ok = all(r <= 1.2 for r in ratios.values())
    _report(8, "Caccioppoli ratio <= 1.2 at n=65 across instances and levels",
            ok, ", ".join(f"{k}: {v:.3g}" for k, v in ratios.items()))


# 9 ------------------------------------------------------------------------

def test_criterion_9_lipschitz_proxy(sol_affine, sol_harmonic, sol_p3_scaled,
                                     sol_blend):
    rep = quc.lipschitz_check(sol_affine, 0.15, (0.5, 0.5))
    affine_dev = abs(rep.ratio - 1.0)
    drifts = {}
    # the blend ball is enlarged so the sup region resolves (>= 160
    # triangles) already on the coarse grid
    for label, sols, center, R in (("harmonic", sol_harmonic, (0.5, 0.5), 0.2),
                                   ("p=3", sol_p3_scaled, (1.5, 1.5), 0.2),
                                   ("blend", sol_blend, (0.5, 0.5), 0.24)):
        r33 = quc.lipschitz_check(sols[33], R, center).ratio
        r65 = quc.lipschitz_check(sols[65], R, center).ratio
        drifts[label] = abs(r65 - r33) / r33
    ok = affine_dev <= 1e-8 and all(d <= 0.05 for d in drifts.values())
    _report(9, "sup/mean energy ratio stable to 5% under refinement",
            ok, f"affine deviation {affine_dev:.2g}, drifts "
                + ", ".join(f"{k}: {v:.3%}" for k, v in drifts.items()))


# 10 -----------------------------------------------------------------------

def test_criterion_10_degiorgi():
    thr = quc.degiorgi_threshold(1.0, 4.0, 1.0, 2)
    lo = quc.degiorgi_iterate(0.8 * thr, 1.0, 4.0, 1.0, 2)
    hi = quc.degiorgi_iterate(10.0 * thr, 1.0, 4.0, 1.0, 2)
    again = quc.degiorgi_iterate(0.8 * thr, 1.0, 4.0, 1.0, 2)
    ok = (thr == pytest.approx(0.25)
          and lo.verdict == "vanishes" and hi.verdict == "diverges/stalls"
          and lo.sequence.tobytes() == again.sequence.tobytes())
    _report(10, "De Giorgi threshold behaviour, bitwise reproducible",
            ok, f"threshold {thr:g}, vanish in {lo.steps} steps, "
                f"diverge in {hi.steps} steps")


# 11 -----------------------------------------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "integrand": {"kind": "power", "p": 3.0},
        "problem": {"n": 17, "domain": [[1, 2], [1, 2]],
                    "boundary": "(x^2 + y^2)^0.25"},
        "checks": [
            {"name": "lipschitz", "R": 0.15, "center": [1.5, 1.5], "out": "lip.csv"},
            {"name": "degiorgi", "X0": 0.2, "C": 1.0, "b": 4.0, "R": 1.0, "N": 2,
             "out": "dg.csv"},
        ],
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        code = main(["--out-dir", str(d), "verify", str(path)])
        assert code == 0
        outs.append({name: (d / name).read_bytes()
                     for name in ("analyze.csv", "solution.csv", "lip.csv", "dg.csv")})
    identical = all(outs[0][k] == outs[1][k] for k in outs[0])
    _report(11, "identical configs give byte-identical CSV artifacts", identical,
            f"{len(outs[0])} files compared")
