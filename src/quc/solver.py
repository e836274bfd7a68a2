"""Discrete 2-D Dirichlet solver for integral functionals of the gradient.

The domain (an axis-aligned rectangle, optionally cut by a circular mask) is
triangulated by splitting each grid cell along the lower-left to upper-right
diagonal, so assembly is deterministic and meshes nest under the refinement
n -> 2n - 1.  The energy sum_T area_T F(Du_T) over per-triangle constant
gradients is minimised by damped inexact Newton with Armijo backtracking; a
Barzilai-Borwein gradient method with the same safeguard serves as fallback
and as an independent cross-check.

The Newton systems are solved by CG preconditioned with a geometric
multigrid V-cycle over the nested grids n, (n + 1) / 2, ... (Briggs,
Henson & McCormick, *A Multigrid Tutorial*), stopped at an
Eisenstat-Walker forcing term (Eisenstat & Walker, SISC 17, 1996), so the
cost of a Newton step grows linearly with the grid.  Grids that do not
coarsen (n <= 17 or n even) keep a sparse direct factorisation, which is
also the fallback when CG fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


class SolverError(RuntimeError):
    pass


class AssemblyError(SolverError):
    """Non-finite integrand value at a triangle gradient."""


class Mesh:
    """Structured triangulation of a rectangle with optional circular mask.

    Attributes: ``nodes`` (N, 2), ``tris`` (M, 3) int64, ``areas`` (M,),
    ``grads`` (M, 3, 2) hat-function gradients, ``bary`` (M, 2) barycenters,
    ``interior`` / ``dirichlet`` / ``used`` boolean node masks.
    """

    def __init__(self, bounds, n, mask=None):
        if n < 9:
            raise SolverError(f"need at least 9 nodes per side, got {n}")
        (x0, x1), (y0, y1) = bounds
        if not (x1 > x0 and y1 > y0):
            raise SolverError(f"degenerate domain bounds {bounds}")
        self.bounds = ((float(x0), float(x1)), (float(y0), float(y1)))
        self.n = int(n)
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        self.hx = xs[1] - xs[0]
        self.hy = ys[1] - ys[0]
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

        i = np.arange(n - 1)
        j = np.arange(n - 1)
        I, J = np.meshgrid(i, j, indexing="xy")
        a = (J * n + I).ravel()
        b = (J * n + I + 1).ravel()
        c = ((J + 1) * n + I + 1).ravel()
        d = ((J + 1) * n + I).ravel()
        lower = np.stack([a, b, c], axis=1)
        upper = np.stack([a, c, d], axis=1)
        tris = np.concatenate([lower, upper], axis=0).astype(np.int64)

        on_border = np.zeros(n * n, dtype=bool)
        idx = np.arange(n * n)
        on_border[(idx % n == 0) | (idx % n == n - 1) | (idx < n) | (idx >= n * (n - 1))] = True

        if mask is not None:
            center, radius = np.asarray(mask[0], dtype=float), float(mask[1])
            inside = np.hypot(self.nodes[:, 0] - center[0],
                              self.nodes[:, 1] - center[1]) <= radius
            keep = inside[tris].all(axis=1)
            full_count = np.bincount(tris.ravel(), minlength=n * n)
            kept_count = np.bincount(tris[keep].ravel(), minlength=n * n)
            tris = tris[keep]
            self.used = kept_count > 0
            self.interior = self.used & ~on_border & (kept_count == full_count)
        else:
            self.used = np.ones(n * n, dtype=bool)
            self.interior = ~on_border
        if tris.shape[0] == 0:
            raise SolverError("mask removed every triangle")
        self.dirichlet = self.used & ~self.interior
        self.tris = np.ascontiguousarray(tris)
        self.interior_idx = np.where(self.interior)[0]

        P = self.nodes[self.tris]
        e0 = P[:, 2] - P[:, 1]
        e1 = P[:, 0] - P[:, 2]
        e2 = P[:, 1] - P[:, 0]
        twoA = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
        self.areas = 0.5 * np.abs(twoA)
        perp = lambda v: np.stack([-v[:, 1], v[:, 0]], axis=1)
        self.grads = np.ascontiguousarray(
            np.stack([perp(e0), perp(e1), perp(e2)], axis=1) / twoA[:, None, None])
        self.bary = P.mean(axis=1)
        self._coo_rows = np.broadcast_to(self.tris[:, :, None],
                                         (tris.shape[0], 3, 3)).ravel()
        self._coo_cols = np.broadcast_to(self.tris[:, None, :],
                                         (tris.shape[0], 3, 3)).ravel()
        self._node_tris = None
        self._newton_pattern = None
        self._prolongations = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_tris(self):
        return self.tris.shape[0]

    def node_tris(self):
        """Sparse (N, M) node-triangle incidence matrix, CSR (lazy).

        Row a holds a 1 for each triangle with vertex a; in inc.T @ inc the
        entry for two distinct triangles counts their shared vertices."""
        if self._node_tris is None:
            M = self.n_tris
            self._node_tris = sparse.csr_matrix(
                (np.ones(3 * M, dtype=np.int64), (self.tris.ravel(), np.repeat(np.arange(M), 3))),
                shape=(self.n_nodes, M))
        return self._node_tris

    def newton_pattern(self):
        """Fixed CSR pattern of the interior Newton matrix (lazy).

        Returns (indptr, indices, slots, diag): ``slots`` maps each of the
        9 M local entries (triangle, a, b) to its place in the CSR data
        array, or to the extra slot nnz when a or b is not interior;
        ``diag`` holds the places of the diagonal entries.  Two nodes share
        a triangle iff their offset is in the 7-point stencil, and every
        triangle at an interior node is kept, so the pattern follows from
        the stencil without sorting.
        """
        if self._newton_pattern is None:
            n, ii = self.n, self.interior_idx
            stencil = np.array([-n - 1, -n, -1, 0, 1, n, n + 1])
            pos = np.full(self.n_nodes, -1, dtype=np.int64)
            pos[ii] = np.arange(ii.size)
            neighbours = pos[ii[:, None] + stencil]        # interior nodes: no wrap
            present = neighbours >= 0
            indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
            place = np.where(present, indptr[:-1, None] + np.cumsum(present, axis=1) - 1,
                             indptr[-1])
            lookup = np.zeros(2 * n + 3, dtype=np.int64)
            lookup[stencil + n + 1] = np.arange(stencil.size)
            rows = pos[self._coo_rows]
            k = lookup[self._coo_cols - self._coo_rows + n + 1]
            slots = np.where(rows >= 0, place[rows, k], indptr[-1])
            self._newton_pattern = (indptr, neighbours[present], slots, place[:, 3])
        return self._newton_pattern

    def prolongations(self):
        """Interior P1 prolongations of the nested coarse grids (lazy).

        Entry k maps grid n_{k+1} = (n_k + 1) / 2 to grid n_k, n_0 = n;
        coarsening continues while n_k is odd and above ``COARSEST_N``.
        Rows are the interior nodes of the finer grid (n_0: ``interior``),
        columns the coarse nodes whose fine image is one of them, so a
        masked domain needs no coarse geometry.  Empty for an even n and
        for n <= ``COARSEST_N``.
        """
        if self._prolongations is None:
            self._prolongations = []
            n, keep = self.n, self.interior
            while n % 2 == 1 and n > COARSEST_N:
                P, keep = _p1_prolongation(n, keep)
                self._prolongations.append(P)
                n = (n + 1) // 2
        return self._prolongations


# Grids at or below this size are not coarsened: their Newton systems are
# factored directly.
COARSEST_N = 17


def _p1_prolongation(n, fine_keep):
    """Exact P1 prolongation from grid (n + 1) / 2 to grid n (n odd).

    Fine node (2I, 2J) takes coarse node (I, J); a node on an odd x or odd
    y line takes the mean of its two neighbours on that line; an odd-odd
    node takes the mean of (I, J) and (I + 1, J + 1), the ends of the
    diagonal through it.  Rows are restricted to ``fine_keep``, columns to
    the coarse nodes whose fine image is kept.  Returns the CSR matrix and
    the coarse keep mask.
    """
    nc = (n + 1) // 2
    j, i = np.divmod(np.arange(n * n), n)
    lo = (j // 2) * nc + i // 2
    hi = lo + (i % 2) + (j % 2) * nc   # == lo on even-even nodes: the halves add to 1
    coarse_keep = fine_keep.reshape(n, n)[::2, ::2].ravel()
    col = np.cumsum(coarse_keep) - 1
    fine = np.where(fine_keep)[0]
    rows = np.repeat(np.arange(fine.size), 2)
    cols = np.stack([lo[fine], hi[fine]], axis=1).ravel()
    kept = coarse_keep[cols]
    P = sparse.csr_matrix((np.full(kept.sum(), 0.5), (rows[kept], col[cols[kept]])),
                          shape=(fine.size, int(coarse_keep.sum())))
    return P, coarse_keep


@dataclass
class GridProblem:
    """A discretised Dirichlet problem: integrand, grid and boundary data.

    ``boundary`` is either a callable f(x, y) -> values (vectorised) or an
    array of nodal values of length n*n.  ``mask`` is an optional
    (center, radius) pair restricting the domain to its intersection with a
    disk.
    """

    integrand: object
    n: int
    boundary: object
    bounds: tuple = ((0.0, 1.0), (0.0, 1.0))
    mask: tuple | None = None
    descriptor: str = ""
    _mesh: Mesh | None = field(default=None, repr=False, compare=False)

    def mesh(self):
        if self._mesh is None:
            self._mesh = Mesh(self.bounds, self.n, self.mask)
        return self._mesh

    def boundary_values(self, mesh):
        if callable(self.boundary):
            vals = np.asarray(self.boundary(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
            vals = np.broadcast_to(vals, (mesh.n_nodes,)).copy()
        else:
            vals = np.asarray(self.boundary, dtype=float).copy()
            if vals.shape != (mesh.n_nodes,):
                raise SolverError(
                    f"nodal boundary data must have length {mesh.n_nodes}, got {vals.shape}")
        if not np.isfinite(vals[mesh.dirichlet]).all():
            raise SolverError("boundary data is not finite on some boundary node")
        return vals


def _coons_init(mesh, data):
    """Transfinite (bilinear Coons) interpolation of the outer-edge data."""
    n = mesh.n
    g = data.reshape(n, n)  # g[j, i], row-major in y
    s = np.linspace(0.0, 1.0, n)
    t = np.linspace(0.0, 1.0, n)
    S, T = np.meshgrid(s, t, indexing="xy")
    left, right = g[:, 0], g[:, -1]
    bottom, top = g[0, :], g[-1, :]
    u = ((1 - S) * left[:, None] + S * right[:, None]
         + (1 - T) * bottom[None, :] + T * top[None, :]
         - ((1 - S) * (1 - T) * g[0, 0] + S * (1 - T) * g[0, -1]
            + (1 - S) * T * g[-1, 0] + S * T * g[-1, -1]))
    return u.ravel()


def _tri_gradients(mesh, u):
    return np.einsum("tak,ta->tk", mesh.grads, u[mesh.tris])


def assemble_energy(F, mesh, u, *, want_grad=True, order=None):
    """Discrete energy and (optionally) its nodal gradient from one
    ``F.derivs`` pass of orders 0..k over the triangle gradients Du.

    Energy is sum_T area_T F(Du_T); the gradient follows by the chain rule
    through the per-triangle linear interpolation.  Without ``order``, k is
    1 (0 when ``want_grad`` is False) and the result is (energy, gradient or
    None).  With ``order`` k = 1 or 2 it is (energy, gradient, DF(Du),
    D2F(Du) or None): the per-triangle derivatives that the Newton matrix
    and the stress V = DF(Du) need.
    """
    du = np.ascontiguousarray(_tri_gradients(mesh, u))
    fvals, v, hz = F.derivs(du, range((int(want_grad) if order is None else order) + 1))
    if not np.isfinite(fvals).all():
        t = int(np.argmax(~np.isfinite(fvals)))
        raise AssemblyError(f"non-finite integrand value at triangle {t}, Du = {du[t]}")
    energy = float(mesh.areas @ fvals)
    g = None if v is None else _pair_with_hats(mesh, v)
    return (energy, g) if order is None else (energy, g, v, hz)


def _pair_with_hats(mesh, v):
    """Nodal vector sum_T area_T v_T . D(phi_a)|_T over the hat functions phi_a."""
    contrib = mesh.areas[:, None] * np.einsum("tak,tk->ta", mesh.grads, v)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.tris.ravel(), contrib.ravel())
    return out


def _element_matrices(mesh, hz):
    """Per-triangle matrices area_T D(phi_a) . D2F(Du_T) D(phi_b), shape (M, 3, 3)."""
    return (mesh.grads @ (hz * mesh.areas[:, None, None])) @ mesh.grads.transpose(0, 2, 1)


def _assemble_hessian(mesh, hz):
    """Hessian of the discrete energy over all nodes, (N, N) CSR."""
    return sparse.coo_matrix((_element_matrices(mesh, hz).ravel(),
                              (mesh._coo_rows, mesh._coo_cols)),
                             shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def _newton_matrix(mesh, hz, mu):
    """Interior block of the Hessian plus mu Id, in the mesh's fixed CSR
    pattern: one bincount of the element matrices into the data array."""
    indptr, indices, slots, diag = mesh.newton_pattern()
    data = np.bincount(slots, weights=_element_matrices(mesh, hz).ravel(),
                       minlength=indices.size + 1)[:-1]
    data[diag] += mu
    ni = indptr.size - 1
    return sparse.csr_matrix((data, indices, indptr), shape=(ni, ni))


def _superlu(A):
    """SuperLU factor of A with Liu's multiple minimum degree ordering of
    A + A^T (ACM TOMS 1985) in symmetric mode, which prefers diagonal pivots.
    On the Newton matrices this factor has a third less fill than a COLAMD
    ordering.  A singular matrix raises RuntimeError."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))


# V(2, 2) cycle with damped Jacobi smoothing
SMOOTHING_STEPS = 2
JACOBI_DAMPING = 0.7
PCG_MAXITER = 50


def _vcycle(A, prolongations):
    """Multigrid V-cycle on the Galerkin operators P^T A P, as a function
    r -> approximate A^{-1} r; the coarsest operator is factored."""
    ops = [A]
    for P in prolongations:
        ops.append((P.T @ (ops[-1] @ P)).tocsr())
    weights = [JACOBI_DAMPING / B.diagonal() for B in ops[:-1]]
    coarsest = _superlu(ops[-1])

    def cycle(b, k=0):
        if k == len(prolongations):
            return coarsest.solve(b)
        B, w, P = ops[k], weights[k], prolongations[k]
        x = w * b
        for _ in range(SMOOTHING_STEPS - 1):
            x += w * (b - B @ x)
        x += P @ cycle(P.T @ (b - B @ x), k + 1)
        for _ in range(SMOOTHING_STEPS):
            x += w * (b - B @ x)
        return x

    return cycle


def _pcg(A, b, precondition, rtol):
    """Preconditioned CG from x = 0 until |r|_2 <= rtol |b|_2.

    Returns (x, iterations), or None when it hits ``PCG_MAXITER``, meets a
    curvature p.Ap <= 0 (or r.z <= 0: the preconditioner is not positive
    on r) or a non-finite value."""
    x = np.zeros_like(b)
    r = b.copy()
    stop = rtol * float(np.linalg.norm(b))
    if not np.isfinite(stop):
        return None
    if stop >= float(np.linalg.norm(b)):
        return x, 0
    z = precondition(r)
    rz = float(r @ z)
    p = z
    for it in range(1, PCG_MAXITER + 1):
        if not rz > 0.0:
            return None
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            return None
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        if not np.isfinite(rnorm):
            return None
        if rnorm <= stop:
            return x, it
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return None


def spsolve(A, b, prolongations=(), *, rtol=1e-8, full_output=False):
    """Solve A x = b for a symmetric positive definite sparse matrix.

    Without ``prolongations`` the solve is direct: a SuperLU factor with the
    multiple minimum degree ordering in symmetric mode (``_superlu``).
    The Newton loop passes none on grids that do not coarsen (n <= 17 or
    n even).

    With ``prolongations`` (``Mesh.prolongations()``: entry k maps level
    k + 1 to level k, level 0 being the unknowns of A) it is CG
    preconditioned by one multigrid V(2, 2) cycle: Galerkin operators
    P^T A P on the coarser levels, two damped Jacobi sweeps (omega = 0.7)
    before and after each coarse correction, and a SuperLU factor of the
    coarsest operator (grid 17 or smaller).  CG starts from zero and stops
    once |b - A x|_2 <= rtol |b|_2.  If it hits ``PCG_MAXITER`` iterations,
    meets p.Ap <= 0 (or r.z <= 0) or a non-finite value, SuperLU solves
    the system instead.  A singular matrix raises RuntimeError from
    SuperLU.

    With ``full_output`` the result is (x, iterations): the CG iteration
    count, 0 for a direct solve and -1 where SuperLU took over from CG.
    """
    result = None
    if prolongations:
        result = _pcg(A, b, _vcycle(A, prolongations), rtol)
    if result is None:
        result = (_superlu(A).solve(b), -1 if prolongations else 0)
    return result if full_output else result[0]


def _armijo(F, mesh, u, d, energy, slope, *, c1=1e-4, max_halvings=60):
    alpha = 1.0
    floor = 1e-14 * abs(energy) + 1e-300  # rounding floor near convergence
    for _ in range(max_halvings):
        try:
            e_trial, _ = assemble_energy(F, mesh, u + alpha * d, want_grad=False)
        except AssemblyError:
            alpha *= 0.5
            continue
        if e_trial <= energy + c1 * alpha * slope + floor:
            return alpha, e_trial
        alpha *= 0.5
    return None, None


@dataclass
class StressField:
    """Per-triangle stress V = DF(Du) with the recovered derivative field."""

    v: np.ndarray            # (M, 2)
    dv_nodes: np.ndarray     # (N, 2, 2), dv[n, c, j] = d_j V_c at node n
    dv_tri: np.ndarray       # (M, 2, 2), vertex average per triangle
    divergence: float        # max interior pairing of V with hat gradients


@dataclass
class GridSolution:
    problem: GridProblem
    mesh: Mesh
    u: np.ndarray
    du: np.ndarray
    v: np.ndarray
    energy: float
    residual: float
    iterations: int
    converged: bool
    method: str
    stop_reason: str         # "tol", "max_iter" or "line_search_stalled"
    # per Newton step: CG iterations, 0 for a direct solve, -1 where a
    # fallback fired (SuperLU after CG, or a gradient step)
    linear_iterations: list
    _stress: StressField | None = field(default=None, repr=False, compare=False)

    def stress(self):
        return stress_field(self)


def _bb_step(s, y, fallback):
    sy = float((s * y).sum())
    ss = float((s * s).sum())
    if sy > 1e-300 and np.isfinite(sy):
        return min(max(ss / sy, 1e-12), 1e6)
    return fallback


# Eisenstat-Walker choice 2 forcing term, capped at ETA_MAX
ETA_MAX = 1e-2
EW_GAMMA = 0.9
EW_ALPHA = 2.0


def solve(problem, *, method="newton", tol_rel=1e-9, max_iter=60,
          gd_max_iter=50000):
    """Minimise the discrete energy with the prescribed boundary values.

    Newton directions use the assembled per-triangle Hessian with a tiny
    Levenberg shift (keeps the system positive definite where the
    integrand degenerates), assembled into the mesh's fixed interior CSR
    pattern and solved by ``spsolve``; steps are accepted under the Armijo
    rule, so the energy is nonincreasing.  Each accepted iterate gets one
    integrand pass (``F.derivs`` of orders 0..2 for Newton, 0..1 for BB):
    it gives the energy, the nodal gradient, the D2F(Du) of the next Newton
    matrix and, at the last iterate, the stress V = DF(Du).  Armijo trials
    evaluate the energy only.  ``method="gradient"`` forces the
    Barzilai-Borwein fallback throughout.  Terminates when the interior
    gradient max-norm drops below tol_rel (1 + initial residual); hitting
    the iteration cap or an Armijo search that finds no decrease returns
    the best iterate flagged ``converged=False``, and ``stop_reason`` says
    which.

    On grids with coarser levels (``Mesh.prolongations``: n odd and above
    ``COARSEST_N``) the Newton step is inexact: multigrid-preconditioned
    CG stops once the linear residual is at most eta_k times the interior
    gradient g_k in the 2-norm, with the Eisenstat-Walker choice 2 forcing
    term eta_k = min(ETA_MAX, EW_GAMMA (|g_k| / |g_{k-1}|)^EW_ALPHA) and
    eta_0 = ETA_MAX.  Other grids solve each step directly.  Where CG fails
    SuperLU solves the step, and where SuperLU fails or the step is not a
    descent direction a BB step is taken.  ``linear_iterations`` records,
    per Newton step, the CG iterations, 0 for a direct solve and -1 where
    one of these fallbacks fired.

    The initial guess is the Coons interpolation of the outer-edge data;
    interior nodes where it is not finite (the outer edges of a masked
    domain may lie where the boundary expression is undefined) start at
    the mean of the Dirichlet data.
    """
    if method not in ("newton", "gradient"):
        raise SolverError(f"unknown method {method!r}")
    newton = method == "newton"
    F = problem.integrand
    mesh = problem.mesh()
    data = problem.boundary_values(mesh)
    u = _coons_init(mesh, data)
    u[mesh.dirichlet] = data[mesh.dirichlet]
    u[mesh.interior & ~np.isfinite(u)] = data[mesh.dirichlet].mean()
    ii = mesh.interior_idx

    order = 2 if newton else 1
    energy, g, v, hz = assemble_energy(F, mesh, u, order=order)
    res0 = float(np.abs(g[ii]).max()) if ii.size else 0.0
    tol = tol_rel * (1.0 + res0)
    res = res0
    iterations = 0
    u_prev = None
    g_prev = None
    alpha_gd = 1.0
    cap = max_iter if newton else gd_max_iter
    stop_reason = "max_iter"
    gnorm = float(np.linalg.norm(g[ii]))
    eta = ETA_MAX
    linear_iterations = []

    # "not <=" keeps iterating on a NaN residual, so that case ends with a
    # failed line search instead of passing as an untried iteration cap.
    while not res <= tol and iterations < cap:
        d = np.zeros_like(u)
        slope = None
        if newton:
            Kii = _newton_matrix(mesh, hz, 1e-10 * (1.0 + res))
            try:
                step, its = spsolve(Kii, -g[ii], mesh.prolongations(), rtol=eta,
                                    full_output=True)
            except Exception:
                step = None
            if step is not None and np.isfinite(step).all():
                sl = float(g[ii] @ step)
                if sl < 0.0:
                    d[ii] = step
                    slope = sl
            linear_iterations.append(its if slope is not None else -1)
        if slope is None:
            step = -g[ii]
            if u_prev is not None:
                alpha_gd = _bb_step(u[ii] - u_prev, g[ii] - g_prev, alpha_gd)
            else:
                alpha_gd = 1.0 / max(1.0, res)
            step = alpha_gd * step
            d[ii] = step
            slope = float(g[ii] @ step)

        u_prev, g_prev = u[ii].copy(), g[ii].copy()
        alpha, e_trial = _armijo(F, mesh, u, d, energy, slope)
        if alpha is None:
            stop_reason = "line_search_stalled"
            break
        u = u + alpha * d
        energy, g, v, hz = assemble_energy(F, mesh, u, order=order)
        res = float(np.abs(g[ii]).max()) if ii.size else 0.0
        gnorm_prev, gnorm = gnorm, float(np.linalg.norm(g[ii]))
        eta = min(ETA_MAX, EW_GAMMA * (gnorm / gnorm_prev) ** EW_ALPHA)
        iterations += 1

    converged = bool(res <= tol)
    du = _tri_gradients(mesh, u)
    return GridSolution(
        problem=problem, mesh=mesh, u=u, du=du, v=v, energy=energy,
        residual=res, iterations=iterations, converged=converged,
        method=method, stop_reason="tol" if converged else stop_reason,
        linear_iterations=linear_iterations,
    )


# ---------------------------------------------------------------------------
# stress-field recovery
# ---------------------------------------------------------------------------

def _recover_dv(mesh, v):
    """Nodal derivative of the piecewise-constant stress by patchwise
    least-squares affine fits over each node's incident triangles.

    Coordinates are scaled by the mesh width for conditioning.  Degenerate
    patches (corner nodes) fall back to the two-ring neighbourhood."""
    N, h = mesh.n_nodes, min(mesh.hx, mesh.hy)
    Mn = np.zeros((N, 3, 3))
    Rn = np.zeros((N, 3, 2))
    for a in range(3):
        nidx = mesh.tris[:, a]
        dx = (mesh.bary - mesh.nodes[nidx]) / h
        m = np.stack([np.ones(mesh.n_tris), dx[:, 0], dx[:, 1]], axis=1)
        w = mesh.areas
        np.add.at(Mn, nidx, w[:, None, None] * m[:, :, None] * m[:, None, :])
        np.add.at(Rn, nidx, w[:, None, None] * m[:, :, None] * v[:, None, :])

    det = np.linalg.det(Mn)
    scale = np.maximum(Mn[:, 0, 0], 1e-300) ** 3
    good = mesh.used & (det > 1e-10 * scale)
    dv = np.zeros((N, 2, 2))
    if good.any():
        sol = np.linalg.solve(Mn[good], Rn[good])  # (K, 3, 2)
        dv[good] = np.transpose(sol[:, 1:, :], (0, 2, 1)) / h

    bad = np.where(mesh.used & ~good)[0]
    inc = mesh.node_tris()
    rings = (inc[bad] @ inc.T @ inc).sorted_indices()
    for k, nidx in enumerate(bad):
        patch = rings.indices[rings.indptr[k]:rings.indptr[k + 1]]
        dxp = (mesh.bary[patch] - mesh.nodes[nidx]) / h
        A = np.stack([np.ones(len(patch)), dxp[:, 0], dxp[:, 1]], axis=1)
        w = np.sqrt(mesh.areas[patch])
        coef, *_ = np.linalg.lstsq(A * w[:, None], v[patch] * w[:, None], rcond=None)
        dv[nidx] = coef[1:, :].T / h
    return dv


def stress_field(solution):
    """Stress field with recovered DV and the weak-divergence pairing.

    The pairing of V with interior hat gradients coincides with the energy
    gradient at the solution, so it inherits the solver residual.
    """
    if solution._stress is not None:
        return solution._stress
    mesh = solution.mesh
    v = solution.v
    dv_nodes = _recover_dv(mesh, v)
    dv_tri = dv_nodes[mesh.tris].mean(axis=1)
    pair = _pair_with_hats(mesh, v)
    div = float(np.abs(pair[mesh.interior_idx]).max()) if mesh.interior_idx.size else 0.0
    solution._stress = StressField(v=v, dv_nodes=dv_nodes, dv_tri=dv_tri, divergence=div)
    return solution._stress
