"""Discrete 2-D Dirichlet solver for integral functionals of the gradient.

The domain (an axis-aligned rectangle, optionally cut by a circular mask) is
triangulated by splitting each grid cell along the lower-left to upper-right
diagonal, so assembly is deterministic and meshes nest under the refinement
n -> 2n - 1.  The energy sum_T area_T F(Du_T) over per-triangle constant
gradients is minimised by damped Newton with Armijo backtracking; a
Barzilai-Borwein gradient method with the same safeguard serves as fallback
and as an independent cross-check.
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
    ``F.derivs`` pass over the triangle gradients Du.

    Energy is sum_T area_T F(Du_T); the gradient follows by the chain rule
    through the per-triangle linear interpolation.  Without ``order`` the
    result is (energy, gradient), the gradient None when ``want_grad`` is
    False.  With ``order`` 1 or 2 it is (energy, gradient, DF(Du),
    D2F(Du) or None): the per-triangle derivatives that the Newton matrix
    and the stress V = DF(Du) need.
    """
    du = np.ascontiguousarray(_tri_gradients(mesh, u))
    fvals, v, hz = F.derivs(du, (1 if want_grad else 0) if order is None else order)
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


def _assemble_hessian(mesh, hz):
    hz = np.ascontiguousarray(hz)
    entries = (np.einsum("tak,tkl,tbl->tab", mesh.grads, hz, mesh.grads)
               * mesh.areas[:, None, None])
    K = sparse.coo_matrix((entries.ravel(), (mesh._coo_rows, mesh._coo_cols)),
                          shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    return K


def spsolve(A, b):
    """Solve A x = b for a sparse matrix with a symmetric pattern.

    SuperLU with Liu's multiple minimum degree ordering of A + A^T (ACM TOMS
    1985) in symmetric mode, which prefers diagonal pivots.  On the Newton
    matrices this factor has a third less fill than a COLAMD ordering.  A
    singular matrix raises RuntimeError.
    """
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True)).solve(b)


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
    _stress: StressField | None = field(default=None, repr=False, compare=False)

    def stress(self):
        return stress_field(self)


def _bb_step(s, y, fallback):
    sy = float((s * y).sum())
    ss = float((s * s).sum())
    if sy > 1e-300 and np.isfinite(sy):
        return min(max(ss / sy, 1e-12), 1e6)
    return fallback


def solve(problem, *, method="newton", tol_rel=1e-9, max_iter=60,
          gd_max_iter=50000):
    """Minimise the discrete energy with the prescribed boundary values.

    Newton directions use the assembled per-triangle Hessian with a tiny
    Levenberg shift (keeps the factorisation stable where the integrand
    degenerates), factored by ``spsolve`` (minimum degree ordering); steps
    are accepted under the Armijo rule, so the energy is nonincreasing.
    Each accepted iterate gets one integrand pass (``F.derivs`` of order 2
    for Newton, 1 for BB): it gives the energy, the nodal gradient, the
    D2F(Du) of the next Newton matrix and, at the last iterate, the stress
    V = DF(Du).  Armijo trials evaluate the energy only.
    ``method="gradient"`` forces the Barzilai-Borwein fallback throughout.
    Terminates when the interior gradient max-norm drops below
    tol_rel (1 + initial residual); hitting the iteration cap or an Armijo
    search that finds no decrease returns the best iterate flagged
    ``converged=False``, and ``stop_reason`` says which.

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

    # "not <=" keeps iterating on a NaN residual, so that case ends with a
    # failed line search instead of passing as an untried iteration cap.
    while not res <= tol and iterations < cap:
        d = np.zeros_like(u)
        slope = None
        if newton:
            K = _assemble_hessian(mesh, hz)
            Kii = K[ii][:, ii]
            mu = 1e-10 * (1.0 + res)
            Kii = Kii + mu * sparse.identity(ii.size, format="csr")
            try:
                step = spsolve(Kii, -g[ii])
            except Exception:
                step = None
            if step is not None and np.isfinite(step).all():
                sl = float(g[ii] @ step)
                if sl < 0.0:
                    d[ii] = step
                    slope = sl
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
        iterations += 1

    converged = bool(res <= tol)
    du = _tri_gradients(mesh, u)
    return GridSolution(
        problem=problem, mesh=mesh, u=u, du=du, v=v, energy=energy,
        residual=res, iterations=iterations, converged=converged,
        method=method, stop_reason="tol" if converged else stop_reason,
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
