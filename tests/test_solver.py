import numpy as np
import pytest
from scipy import sparse

import quc
from quc.config import compile_boundary_expression
from quc.regularize import MoreauIntegrand
from quc.solver import (Mesh, SolverError, _assemble_hessian, _coons_init, _newton_matrix,
                        _recover_dv, assemble_energy, spsolve)


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


DISK = (np.array([0.5, 0.5]), 0.45)


@pytest.mark.parametrize("mask", [None, DISK])
def test_newton_matrix_matches_coo_path(mask, rng):
    # Each entry sums at most 6 element terms (7 with the shift on the
    # diagonal); two orders of summing k terms differ by at most
    # (k - 1) eps sum|terms| to first order, so by 6 eps sum|terms|.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 33, mask=mask)
    A = rng.standard_normal((m.n_tris, 2, 2))
    hz = A @ A.transpose(0, 2, 1)
    mu = 0.25
    ii = m.interior_idx
    shift = mu * sparse.identity(ii.size, format="csr")
    ref = (_assemble_hessian(m, hz)[ii][:, ii] + shift).toarray()
    K = _newton_matrix(m, hz, mu)
    entries = (m.grads @ hz @ m.grads.transpose(0, 2, 1)) * m.areas[:, None, None]
    terms = sparse.coo_matrix((np.abs(entries).ravel(), (m._coo_rows, m._coo_cols)),
                              shape=(m.n_nodes, m.n_nodes)).tocsr()[ii][:, ii] + shift
    assert K.has_sorted_indices
    assert np.all(np.abs(K.toarray() - ref) <= 6 * np.finfo(float).eps * terms.toarray())
    assert K.nnz == np.count_nonzero(terms.toarray())


def _coarse_p1_values(n, uc):
    """The coarse P1 function with nodal values uc on grid (n + 1) / 2,
    evaluated at every node of grid n from its barycentric coordinates."""
    nc = (n + 1) // 2
    j, i = np.divmod(np.arange(n * n), n)
    I, J = np.minimum(i // 2, nc - 2), np.minimum(j // 2, nc - 2)
    s, t = (i - 2 * I) / 2, (j - 2 * J) / 2
    g = uc.reshape(nc, nc)
    a, b, c, d = g[J, I], g[J, I + 1], g[J + 1, I + 1], g[J + 1, I]
    lower = (1 - s) * a + (s - t) * b + t * c
    upper = (1 - t) * a + s * c + (t - s) * d
    return np.where(t <= s, lower, upper)


@pytest.mark.parametrize("mask", [None, DISK])
def test_prolongation_is_the_coarse_p1_interpolant(mask, rng):
    # Dyadic nodal values and weights 0, 1/2, 1: every sum is exact.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 65, mask=mask)
    Ps = m.prolongations()
    assert len(Ps) == 2     # 65 -> 33 -> 17
    n, keep = m.n, m.interior
    for P in Ps:
        nc = (n + 1) // 2
        coarse_keep = keep.reshape(n, n)[::2, ::2].ravel()
        uc = np.zeros(nc * nc)
        uc[coarse_keep] = rng.integers(-2**20, 2**20, int(coarse_keep.sum())) / 2**10
        assert P.shape == (keep.sum(), coarse_keep.sum())
        np.testing.assert_array_equal(P @ uc[coarse_keep], _coarse_p1_values(n, uc)[keep])
        n, keep = nc, coarse_keep
    if mask is None:
        np.testing.assert_array_equal(keep, Mesh(((0.0, 1.0), (0.0, 1.0)), 17).interior)


def test_galerkin_coarsening_is_exact():
    # With D2F = Id the Newton matrix is the P1 stiffness matrix, and P1
    # spaces nest, so P^T K_fine P is the coarse stiffness matrix.  The
    # product sums at most r terms for K P and c for P^T (K P) (r, c the
    # largest row count of K and column count of P): the computed entries
    # lie within gamma_{r+c} (|P|^T |K| |P|) of the exact ones.
    fine = Mesh(((0.0, 1.0), (0.0, 1.0)), 33)
    coarse = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    ident = lambda m: np.broadcast_to(np.eye(2), (m.n_tris, 2, 2))
    K, Kc = _newton_matrix(fine, ident(fine), 0.0), _newton_matrix(coarse, ident(coarse), 0.0)
    (P,) = fine.prolongations()
    k = np.diff(K.indptr).max() + np.diff(P.tocsc().indptr).max()
    gamma = k * np.finfo(float).eps / (1 - k * np.finfo(float).eps)
    bound = gamma * (abs(P).T @ abs(K) @ abs(P)).toarray()
    assert np.all(np.abs((P.T @ K @ P).toarray() - Kc.toarray()) <= bound)


def _p3_oracle(n):
    return quc.GridProblem(integrand=quc.make_power(3.0), n=n,
                           boundary=compile_boundary_expression("3.4*(x^2+y^2)^0.25"),
                           bounds=((1.0, 2.0), (1.0, 2.0)))


def _disk_blend(n):
    return quc.GridProblem(integrand=quc.normalise(quc.make_blend(3.0, 1.5, (0.5, 0.0))), n=n,
                           boundary=compile_boundary_expression(
                               "0.5*(x - 0.25)^2 - 0.5*(y - 0.5)^2"),
                           mask=(np.array([0.5, 0.5]), 0.49))


def _first_newton_system(prob):
    m = prob.mesh()
    u = _coons_init(m, prob.boundary_values(m))
    _, g, _, hz = assemble_energy(prob.integrand, m, u, order=2)
    return m, _newton_matrix(m, hz, 0.0), -g[m.interior_idx]


@pytest.mark.parametrize("make_problem", [_p3_oracle, _disk_blend])
def test_pcg_iterations_do_not_grow_with_the_grid(make_problem):
    counts = []
    for n in (33, 65, 129):
        m, K, b = _first_newton_system(make_problem(n))
        x, its = spsolve(K, b, m.prolongations(), rtol=1e-8, full_output=True)
        assert its > 0 and np.linalg.norm(b - K @ x) <= 1e-8 * np.linalg.norm(b)
        counts.append(its)
        sol = quc.solve(make_problem(n))
        assert sol.converged and len(sol.linear_iterations) == sol.iterations
        assert min(sol.linear_iterations) > 0        # no fallback fired
    assert counts[-1] - counts[0] <= 2


def test_pcg_failure_falls_back_to_superlu(monkeypatch):
    from scipy.sparse.linalg import spsolve as scipy_spsolve

    m, K, b = _first_newton_system(_p3_oracle(33))
    ref = scipy_spsolve(K.tocsc(), b)
    bound = 2.0 * np.linalg.cond(K.toarray()) * np.finfo(float).eps
    # a negative definite matrix: r.z < 0 and p.Ap < 0 at the first step
    x, its = spsolve(-K, b, m.prolongations(), full_output=True)
    assert its == -1
    assert np.linalg.norm(x + ref) <= bound * np.linalg.norm(ref)
    # plain CG would converge on -K within this cap; the curvature test stops it
    monkeypatch.setattr(quc.solver, "PCG_MAXITER", 10 * K.shape[0])
    assert quc.solver._pcg(-K, b, lambda r: r, 1e-8) is None
    # an iteration cap of 0
    monkeypatch.setattr(quc.solver, "PCG_MAXITER", 0)
    x, its = spsolve(K, b, m.prolongations(), full_output=True)
    assert its == -1
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
    sol = quc.solve(_p3_oracle(33))
    assert sol.stop_reason == "tol"
    assert sol.linear_iterations == [-1] * sol.iterations


def test_grids_up_to_the_coarsest_solve_directly():
    assert Mesh(((0.0, 1.0), (0.0, 1.0)), 17).prolongations() == []
    assert Mesh(((0.0, 1.0), (0.0, 1.0)), 64).prolongations() == []
    sol = quc.solve(_p3_oracle(17))
    assert sol.converged and sol.linear_iterations == [0] * sol.iterations


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
    # per step; each pass through mollify(Moreau(F)) solves the proximal
    # points of its M triangles' k mollifier samples once, in as many
    # convolution batches as it takes, so the prox points sum to
    # (1 + 2 * iterations) M k, and one extra pass would add M k more
    points = []
    prox = MoreauIntegrand.prox
    monkeypatch.setattr(MoreauIntegrand, "prox",
                        lambda self, z: points.append(len(z)) or prox(self, z))
    F = quc.strongly_elliptic_approx(quc.make_power(3.0), 2)
    prob = quc.GridProblem(
        integrand=F, n=9,
        boundary=compile_boundary_expression("(x^2+y^2)^0.25"),
        bounds=((1.0, 2.0), (1.0, 2.0)))
    M, k = len(prob.mesh().tris), len(F.spec.nodes)
    assert (M, k) == (128, 576)
    sol = quc.solve(prob)
    assert sol.converged and sol.iterations >= 1
    assert sum(points) == (1 + 2 * sol.iterations) * M * k


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
