import numpy as np
import pytest

import quc
from quc.config import compile_boundary_expression
from quc.regularize import MoreauIntegrand
from quc.solver import (Mesh, SolverError, _assemble_hessian, _coons_init, _recover_dv,
                        assemble_energy, spsolve)


# ---------------------------------------------------------------------------
# symbolic oracles for the radial p-harmonic boundary data used throughout:
# u = r^{(p-2)/(p-1)} solves div(|Du|^{p-2} Du) = 0 away from the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,expo", [(3, "1/2"), ("3/2", -1)])
def test_radial_p_harmonic_symbolically(p, expo):
    import sympy as sp

    x, y = sp.symbols("x y", positive=True)
    p = sp.sympify(p)
    u = sp.sqrt(x**2 + y**2) ** sp.sympify(expo)
    ux, uy = sp.diff(u, x), sp.diff(u, y)
    mag = sp.sqrt(ux**2 + uy**2)
    div = sp.diff(mag ** (p - 2) * ux, x) + sp.diff(mag ** (p - 2) * uy, y)
    assert sp.simplify(div) == 0


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_partition_geometry():
    m = Mesh(((0.0, 1.0), (0.0, 2.0)), 17)
    assert m.areas.sum() == pytest.approx(2.0, rel=1e-12)
    # hat gradients sum to zero on every triangle
    np.testing.assert_allclose(m.grads.sum(axis=1), 0.0, atol=1e-12)
    assert m.interior.sum() == 15 * 15
    assert m.dirichlet.sum() == 17 * 17 - 15 * 15


def test_mesh_rejects_small_grid():
    with pytest.raises(SolverError):
        Mesh(((0.0, 1.0), (0.0, 1.0)), 5)


def test_masked_mesh():
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 33, mask=(np.array([0.5, 0.5]), 0.45))
    assert 0 < m.n_tris < 2 * 32 * 32
    assert m.interior.sum() > 0
    # interior nodes keep their full incident patch
    inside = np.hypot(m.nodes[:, 0] - 0.5, m.nodes[:, 1] - 0.5) <= 0.45
    assert np.all(inside[m.interior])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_energy_zero_field():
    F = quc.make_power(3.0)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    e, _ = assemble_energy(F, m, np.zeros(m.n_nodes))
    assert e == 0.0


def test_energy_linear_field_quadratic():
    F = quc.make_power(2.0)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    e, _ = assemble_energy(F, m, m.nodes[:, 0])
    assert e == pytest.approx(0.5, rel=1e-12)


def test_energy_linear_field_power3():
    F = quc.make_power(3.0)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    e, _ = assemble_energy(F, m, m.nodes[:, 0] + m.nodes[:, 1])
    assert e == pytest.approx(2.0**1.5 / 3.0, rel=1e-12)


def test_assembled_gradient_matches_fd(rng):
    F = quc.make_power(2.5)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 9)
    u = rng.uniform(-1, 1, m.n_nodes)
    _, g = assemble_energy(F, m, u)
    h = 1e-6
    for idx in rng.integers(0, m.n_nodes, 12):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        ep, _ = assemble_energy(F, m, up, want_grad=False)
        em, _ = assemble_energy(F, m, um, want_grad=False)
        fd = (ep - em) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_affine_data_reproduced(sol_affine):
    sol = sol_affine
    m = sol.mesh
    exact = 0.7 * m.nodes[:, 0] - 0.3 * m.nodes[:, 1] + 0.2
    assert np.abs(sol.u - exact).max() <= 1e-8
    # V is constant and the recovered DV vanishes
    assert np.abs(sol.v - sol.v[0]).max() <= 1e-10
    st = sol.stress()
    assert np.abs(st.dv_nodes).max() <= 1e-8


def test_harmonic_quadratic_exact(sol_harmonic):
    # the assembled stiffness reduces to the 5-point stencil, which kills
    # x^2 - y^2 exactly; the discrete solution is the nodal interpolant
    for n, sol in sol_harmonic.items():
        m = sol.mesh
        exact = m.nodes[:, 0] ** 2 - m.nodes[:, 1] ** 2
        assert np.abs(sol.u - exact).max() <= 1e-12


def test_quartic_harmonic_order():
    # x^4 - 6 x^2 y^2 + y^4 is harmonic but not annihilated by the stencil,
    # giving a genuine O(h^2) nodal error study
    F = quc.make_power(2.0)
    errs = []
    for n in (17, 33, 65):
        prob = quc.GridProblem(
            integrand=F, n=n,
            boundary=compile_boundary_expression("x^4 - 6*x^2*y^2 + y^4"))
        sol = quc.solve(prob)
        m = sol.mesh
        exact = (m.nodes[:, 0]**4 - 6 * m.nodes[:, 0]**2 * m.nodes[:, 1]**2
                 + m.nodes[:, 1]**4)
        errs.append(np.abs(sol.u - exact).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_p3_radial_error_decreases(sol_p3_oracle):
    errs = []
    for n in (17, 33, 65):
        sol = sol_p3_oracle[n]
        m = sol.mesh
        exact = (m.nodes[:, 0]**2 + m.nodes[:, 1]**2) ** 0.25
        errs.append(np.abs(sol.u - exact).max())
    assert errs[0] > errs[1] > errs[2]


def test_residual_below_tolerance(sol_harmonic, sol_p3_oracle, sol_blend):
    for sol in (*sol_harmonic.values(), *sol_p3_oracle.values(), *sol_blend.values()):
        assert sol.converged
        assert sol.residual <= 1e-9 * (1.0 + sol.residual)  # absolute scale check
        assert sol.residual <= 1e-9


def test_energy_beats_competitors(sol_p3_oracle, rng):
    sol = sol_p3_oracle[17]
    m = sol.mesh
    F = sol.problem.integrand
    data = sol.problem.boundary_values(m)
    interp, _ = assemble_energy(F, m, data, want_grad=False)
    assert sol.energy <= interp + 1e-12
    for _ in range(10):
        pert = sol.u.copy()
        pert[m.interior] += rng.uniform(-0.05, 0.05, int(m.interior.sum()))
        e, _ = assemble_energy(F, m, pert, want_grad=False)
        assert sol.energy <= e + 1e-12


def test_nested_refinement_energy_monotone(sol_p3_oracle):
    # P1 spaces nest under n -> 2n - 1 on this triangulation
    e17, e33, e65 = (sol_p3_oracle[n].energy for n in (17, 33, 65))
    assert e33 <= e17 + 1e-10
    assert e65 <= e33 + 1e-10


def test_newton_and_gradient_agree():
    for p, expr in ((1.5, "3/sqrt(x^2 + y^2)"), (3.0, "(x^2 + y^2)^0.25")):
        prob = quc.GridProblem(integrand=quc.make_power(p), n=17,
                               boundary=compile_boundary_expression(expr),
                               bounds=((1.0, 2.0), (1.0, 2.0)))
        a = quc.solve(prob, method="newton")
        b = quc.solve(prob, method="gradient", tol_rel=1e-10)
        assert a.converged and b.converged
        assert abs(a.energy - b.energy) <= 1e-9 * (1.0 + abs(a.energy))


def test_newton_solve_takes_one_integrand_pass_per_iterate(monkeypatch):
    # one order-2 pass per accepted iterate plus one energy-only Armijo trial
    # per step; each pass through mollify(Moreau(F)) solves its proximal
    # points once, so the prox count is 1 + 2 * iterations
    calls = []
    prox = MoreauIntegrand.prox
    monkeypatch.setattr(MoreauIntegrand, "prox",
                        lambda self, z: calls.append(len(z)) or prox(self, z))
    prob = quc.GridProblem(
        integrand=quc.strongly_elliptic_approx(quc.make_power(3.0), 2), n=9,
        boundary=compile_boundary_expression("(x^2+y^2)^0.25"),
        bounds=((1.0, 2.0), (1.0, 2.0)))
    sol = quc.solve(prob)
    assert sol.converged and sol.iterations >= 1
    assert len(calls) == 1 + 2 * sol.iterations


def test_spsolve_matches_scipy_within_conditioning():
    # a backward-stable solve is within cond(K) eps of the exact solution,
    # so two of them are within twice that of each other
    from scipy.sparse.linalg import spsolve as scipy_spsolve

    prob = quc.GridProblem(integrand=quc.make_power(3.0), n=17,
                           boundary=compile_boundary_expression("3.4*(x^2+y^2)^0.25"),
                           bounds=((1.0, 2.0), (1.0, 2.0)))
    m = prob.mesh()
    u = _coons_init(m, prob.boundary_values(m))
    _, g, _, hz = assemble_energy(prob.integrand, m, u, order=2)
    ii = m.interior_idx
    K = _assemble_hessian(m, hz)[ii][:, ii]
    x, ref = spsolve(K, -g[ii]), scipy_spsolve(K, -g[ii])
    bound = 2.0 * np.linalg.cond(K.toarray()) * np.finfo(float).eps
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


def test_iteration_cap_flags_nonconverged():
    prob = quc.GridProblem(integrand=quc.make_power(3.0), n=17,
                           boundary=compile_boundary_expression("x*y + x^3"))
    sol = quc.solve(prob, max_iter=1)
    assert not sol.converged


def test_stop_reason(monkeypatch):
    def problem():
        return quc.GridProblem(integrand=quc.make_power(3.0), n=17,
                               boundary=compile_boundary_expression("x*y + x^3"))

    capped = quc.solve(problem(), max_iter=1)
    assert (capped.converged, capped.stop_reason) == (False, "max_iter")
    done = quc.solve(problem())
    assert (done.converged, done.stop_reason) == (True, "tol")
    monkeypatch.setattr(quc.solver, "_armijo", lambda *a, **k: (None, None))
    stalled = quc.solve(problem())
    assert (stalled.converged, stalled.stop_reason, stalled.iterations) == (
        False, "line_search_stalled", 0)


def test_masked_solve_where_coons_guess_is_undefined():
    # 0.2 - r^2 < 0 on the outer square's edges, so the Coons interpolation
    # of their data is NaN on every used node, while the data are finite on
    # the disk's Dirichlet nodes (r <= 0.44).
    prob = quc.GridProblem(
        integrand=quc.make_power(3.0), n=33,
        boundary=compile_boundary_expression("1/sqrt(0.2 - (x-0.5)^2 - (y-0.5)^2)"),
        mask=(np.array([0.5, 0.5]), 0.44))
    with np.errstate(invalid="ignore"):
        sol = quc.solve(prob)
        data = prob.boundary_values(sol.mesh)
    assert (sol.converged, sol.stop_reason) == (True, "tol")
    m = sol.mesh
    assert np.isfinite(sol.u[m.used]).all()
    np.testing.assert_array_equal(sol.u[m.dirichlet], data[m.dirichlet])


def test_masked_solve_smoke():
    prob = quc.GridProblem(integrand=quc.make_power(2.0), n=33,
                           boundary=compile_boundary_expression("x^2 - y^2"),
                           mask=(np.array([0.5, 0.5]), 0.45))
    sol = quc.solve(prob)
    assert sol.converged
    m = sol.mesh
    data = prob.boundary_values(m)
    np.testing.assert_allclose(sol.u[m.dirichlet], data[m.dirichlet], atol=0)


def test_rejects_nonfinite_boundary():
    prob = quc.GridProblem(integrand=quc.make_power(2.0), n=17,
                           boundary=compile_boundary_expression("1/(x - y)"))
    with pytest.raises(SolverError, match="finite"):
        quc.solve(prob)


# ---------------------------------------------------------------------------
# stress field
# ---------------------------------------------------------------------------

def test_stress_harmonic_closed_form(sol_harmonic):
    # V = Du = (2x, -2y), so DV = diag(2, -2) and |DV|_2^2 = 8.  The discrete
    # V oscillates at grid scale by triangle orientation, so one-sided fits
    # along the boundary strip are biased; away from it recovery is exact.
    sol = sol_harmonic[33]
    st = sol.stress()
    m = sol.mesh
    inner = (np.abs(m.nodes[:, 0] - 0.5) < 0.3) & (np.abs(m.nodes[:, 1] - 0.5) < 0.3)
    dv = st.dv_nodes[inner & m.interior]
    expect = np.array([[2.0, 0.0], [0.0, -2.0]])
    assert np.abs(dv - expect).max() <= 1e-10
    h = m.hx
    core = ((np.abs(m.bary[:, 0] - 0.5) < 0.5 - 2.5 * h)
            & (np.abs(m.bary[:, 1] - 0.5) < 0.5 - 2.5 * h))
    np.testing.assert_allclose((st.dv_tri[core]**2).sum(axis=(1, 2)), 8.0, atol=1e-9)


@pytest.mark.parametrize("mask", [None, (np.array([0.5, 0.5]), 0.44)])
def test_stress_recovery_exact_for_affine_stress(mask):
    # An affine V = A x + b lies in every patch fit's model space, so the
    # recovered DV equals A up to rounding, on the fallback patches too.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17, mask=mask)
    A = np.array([[1.3, -0.7], [0.4, 2.1]])
    v = m.bary @ A.T + np.array([0.25, -1.5])
    h = min(m.hx, m.hy)
    # reference patches: the incident triangles, or the two-ring where those
    # are at most two (collinear barycenters); the normal equations square
    # the condition number of the weighted design matrix, lstsq does not
    kappa = []
    n_fallback = 0
    for a in np.where(m.used)[0]:
        patch = np.where((m.tris == a).any(axis=1))[0]
        power = 2
        if patch.size <= 2:
            patch = np.where(np.isin(m.tris, m.tris[patch]).any(axis=1))[0]
            power = 1
            n_fallback += 1
        dx = (m.bary[patch] - m.nodes[a]) / h
        design = np.stack([np.ones(patch.size), dx[:, 0], dx[:, 1]], axis=1)
        kappa.append(np.linalg.cond(design * np.sqrt(m.areas[patch])[:, None]) ** power)
    assert n_fallback == (4 if mask is None else 16)
    # a relative rounding error eps in data of size |v| moves the scaled
    # slope by kappa eps |v|, and DV is that slope divided by h
    tol = max(kappa) * np.finfo(float).eps * np.abs(v).max() / h
    dv = _recover_dv(m, v)
    assert np.abs(dv[m.used] - A).max() <= tol
    assert not dv[~m.used].any()


def test_divergence_pairing_small(sol_harmonic, sol_p3_oracle):
    for sol in (sol_harmonic[33], sol_p3_oracle[33]):
        assert sol.stress().divergence <= 1e-8
