"""Discrete 2-D Dirichlet solver for integral functionals of the gradient.

The domain (an axis-aligned rectangle, optionally cut by a circular mask) is
triangulated by splitting each grid cell along the lower-left to upper-right
diagonal, so assembly is deterministic and meshes nest under the refinement
n -> 2n - 1.  Every triangle is a lower or an upper one (``Mesh.orient``),
and all triangles of one orientation share their area, their hat-function
gradients (``Mesh.stencil_grads``) and their vertex offsets; Du, the pairing
with the hat gradients, the Newton matrix and the stress recovery work from
these two stencils, one orientation at a time, instead of from per-triangle
geometry.  The Newton matrix is summed on the grid of cells: each entry of
an element matrix is a fixed linear map of D2F(Du) that lands on one
7-point stencil coefficient of one vertex, so no per-triangle index table
is needed.  The energy sum_T area_T F(Du_T) over per-triangle constant
gradients is minimised by damped inexact Newton with Armijo backtracking; a
Barzilai-Borwein gradient method with the same safeguard serves as fallback
and as an independent cross-check.

Every operator of the linear solves is a 7-point stencil on a grid
(``StencilMatrix``), held as seven coefficient arrays, so the solve path
needs numpy only.  The Newton systems are solved by CG preconditioned with
a geometric multigrid V-cycle over the nested grids n, (n + 1) / 2, ...
(Briggs, Henson & McCormick, *A Multigrid Tutorial*), stopped at an
Eisenstat-Walker forcing term (Eisenstat & Walker, SISC 17, 1996), so the
cost of a Newton step grows linearly with the grid.  The P1 prolongation
and its transpose are strided slices of grid vectors, and the Galerkin
operators P^T A P are 7-point stencils again, summed from strided slices
of the finer level's coefficients.  Grids up to n = 17 and the coarsest
level are solved by a block LDL^T over grid lines.  Even grids above that,
and any system on which CG fails, are factored by SuperLU; scipy is
imported there, on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class SolverError(RuntimeError):
    pass


class AssemblyError(SolverError):
    """Non-finite integrand value at a triangle gradient."""


class Mesh:
    """Structured triangulation of a rectangle with optional circular mask.

    Every grid cell with lower-left node a splits into a lower triangle
    (a, a + 1, a + n + 1) and an upper one (a, a + n + 1, a + n), so a
    triangle's geometry is fixed by its orientation.  Lower triangles come
    first: ``orient`` (M,) is 0 on the first ``n_lower`` rows of ``tris`` and
    1 on the rest, and ``blocks`` holds the two row slices.
    ``stencil_grads`` (2, 3, 2) holds the hat-function gradients of the
    three vertices for each orientation, and ``stencil_offsets`` (2, 3) the
    node offsets of the vertices from a.  ``on_cells`` places per-triangle
    values on the (2, n - 1, n - 1) grid of cells, where grid stencils
    replace per-triangle index tables.

    Attributes: ``nodes`` (N, 2), ``tris`` (M, 3) int64, ``areas`` (M,) (all
    hx hy / 2), ``bary`` (M, 2) barycenters, ``interior`` / ``dirichlet`` /
    ``used`` boolean node masks, ``kept`` (2, n - 1, n - 1) whether the mask
    kept the triangle of orientation o in the cell with lower-left node
    j n + i.  A mesh holds geometry only: ``solve`` builds the Newton
    pattern and the prolongations once per call.
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

        self.stencil_offsets = np.array([[0, 1, n + 1], [0, n + 1, n]])
        a = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
        tris = (a[None, :, None] + self.stencil_offsets[:, None, :]).reshape(-1, 3)

        on_border = np.zeros(n * n, dtype=bool)
        idx = np.arange(n * n)
        on_border[(idx % n == 0) | (idx % n == n - 1) | (idx < n) | (idx >= n * (n - 1))] = True

        n_lower = a.size
        keep = np.ones(tris.shape[0], dtype=bool)
        if mask is not None:
            center, radius = np.asarray(mask[0], dtype=float), float(mask[1])
            inside = np.hypot(self.nodes[:, 0] - center[0],
                              self.nodes[:, 1] - center[1]) <= radius
            keep = inside[tris].all(axis=1)
            full_count = np.bincount(tris.ravel(), minlength=n * n)
            kept_count = np.bincount(tris[keep].ravel(), minlength=n * n)
            tris = tris[keep]
            n_lower = int(keep[:n_lower].sum())
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
        M = self.tris.shape[0]
        self.kept = keep.reshape(2, n - 1, n - 1)
        self.n_lower = n_lower
        self.orient = np.repeat(np.array([0, 1], dtype=np.int8), [n_lower, M - n_lower])

        ix, iy = 1.0 / self.hx, 1.0 / self.hy
        self.stencil_grads = np.array([[[-ix, 0.0], [ix, -iy], [0.0, iy]],
                                       [[0.0, -iy], [ix, 0.0], [-ix, iy]]])
        self.areas = np.full(M, 0.5 * self.hx * self.hy)
        N = self.nodes
        self.bary = (N[self.tris[:, 0]] + N[self.tris[:, 1]] + N[self.tris[:, 2]]) / 3

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_tris(self):
        return self.tris.shape[0]

    @property
    def blocks(self):
        """Row slices of the lower and of the upper triangles in ``tris``."""
        return slice(0, self.n_lower), slice(self.n_lower, self.n_tris)

    def on_cells(self, values, fill=0):
        """Per-triangle ``values`` (M,) on the (2, n - 1, n - 1) grid of
        cells, ``fill`` where the mask removed a triangle.  Without a mask
        this is a view of ``values``."""
        if self.n_tris == self.kept.size:
            return values.reshape(self.kept.shape)
        grid = np.full(self.kept.shape, fill, dtype=values.dtype)
        grid[self.kept] = values
        return grid

    def node_tris(self):
        """(N, 6) node-triangle table: entry (a, 3 o + k) is the triangle of
        orientation o that has node a as its vertex k, or -1.  Each node
        lies on at most one triangle per (orientation, vertex) slot."""
        table = np.full((self.n_nodes, 6), -1, dtype=np.int64)
        for o, blk in enumerate(self.blocks):
            for k in range(3):
                table[self.tris[blk, k], 3 * o + k] = np.arange(blk.start, blk.stop)
        return table


# The 7-point stencil as (row, column) grid offsets, in the order of CSR
# columns; offset k and offset 6 - k are opposite.
OFFSETS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))


def _stencil(n):
    """The 7-point stencil of node offsets, in the order of CSR columns."""
    return np.array([dj * n + di for dj, di in OFFSETS])


def _taps(n):
    """Per stencil offset, the slices of an (n, n) grid that hold the
    neighbours of the inner block's nodes."""
    return [(slice(1 + dj, n - 1 + dj), slice(1 + di, n - 1 + di)) for dj, di in OFFSETS]


def _at_coarse(grid, dj, di):
    """Values of a fine (n, n) grid at the nodes (2J + dj, 2I + di), for the
    coarse nodes (J, I) off the border of grid (n + 1) / 2."""
    nc = (grid.shape[0] + 1) // 2
    return grid[2 + dj:2 * nc - 3 + dj:2, 2 + di:2 * nc - 3 + di:2]


def _pattern(keep):
    """(7, n, n) pattern of the operator on the kept nodes of an n x n grid:
    entry k at node a says whether a and its k-th stencil neighbour are both
    kept.  Kept nodes lie off the grid's border."""
    n = keep.shape[0]
    pattern = np.zeros((7, n, n), dtype=bool)
    for k, (rows, cols) in enumerate(_taps(n)):
        np.logical_and(keep[1:-1, 1:-1], keep[rows, cols], out=pattern[k, 1:-1, 1:-1])
    return pattern


def newton_pattern(mesh):
    """Pattern of the interior Newton matrix, (7, n, n) bool: entry k at
    node a is set where a and its k-th stencil neighbour are both interior.
    Two nodes share a triangle iff their offset is in the 7-point stencil,
    and every triangle at an interior node is kept, so these are the
    entries of the interior block of the Hessian.  Every Newton matrix of a
    solve shares it."""
    return _pattern(mesh.interior.reshape(mesh.n, mesh.n))


def prolongations(mesh):
    """Keep masks of the nested coarse grids of ``mesh``, the levels of
    its multigrid hierarchy.

    Entry k is the (n_{k+1}, n_{k+1}) boolean mask of the unknowns of grid
    n_{k+1} = (n_k + 1) / 2, n_0 = n: the coarse nodes whose fine image
    (2J, 2I) is an unknown of grid n_k (n_0: ``interior``), so a masked
    domain needs no coarse geometry.  Coarsening continues while n_k is
    odd and above ``COARSEST_N``; the list is empty for an even n and for
    n <= ``COARSEST_N``.  The exact P1 prolongation between two levels and
    its transpose act on grid vectors as strided slices (``_prolong``,
    ``_restrict``), masked by the two levels' keep masks.
    """
    out = []
    n, keep = mesh.n, mesh.interior.reshape(mesh.n, mesh.n)
    while n % 2 == 1 and n > COARSEST_N:
        keep = keep[::2, ::2].copy()
        out.append(keep)
        n = (n + 1) // 2
    return out


# Grids at or below this size are not coarsened: their Newton systems are
# factored directly.
COARSEST_N = 17


def _prolong(xc, fine_keep):
    """P xc for the exact P1 prolongation from grid (n + 1) / 2 to grid n,
    on flat grid vectors.

    Fine node (2J, 2I) takes coarse node (J, I); a node on an odd x or odd
    y line takes the mean of its two neighbours on that line; an odd-odd
    node takes the mean of (J, I) and (J + 1, I + 1), the ends of the
    diagonal through it.  ``xc`` is zero off the coarse unknowns, and the
    result is zero off ``fine_keep`` (n, n)."""
    n = fine_keep.shape[0]
    nc = (n + 1) // 2
    xc = xc.reshape(nc, nc)
    xf = np.empty((n, n))
    xf[::2, ::2] = xc
    np.add(xc[:, :-1], xc[:, 1:], out=xf[::2, 1::2])
    np.add(xc[:-1, :], xc[1:, :], out=xf[1::2, ::2])
    np.add(xc[:-1, :-1], xc[1:, 1:], out=xf[1::2, 1::2])
    xf[1::2] *= 0.5
    xf[::2, 1::2] *= 0.5
    xf *= fine_keep
    return xf.reshape(-1)


def _restrict(rf, coarse_keep):
    """P^T rf for the prolongation of ``_prolong``, on flat grid vectors:
    each coarse node (J, I) off the border gathers its fine image
    (2J, 2I) and half of the six fine nodes around it.  ``rf`` is zero off
    the fine unknowns, and the result is zero off ``coarse_keep``
    (nc, nc)."""
    nc = coarse_keep.shape[0]
    rf = rf.reshape(2 * nc - 1, 2 * nc - 1)
    around = [_at_coarse(rf, dj, di) for dj, di in OFFSETS if (dj, di) != (0, 0)]
    acc = np.add(around[0], around[1])
    for part in around[2:]:
        acc += part
    acc *= 0.5
    acc += _at_coarse(rf, 0, 0)
    rc = np.zeros((nc, nc))
    np.multiply(acc, coarse_keep[1:-1, 1:-1], out=rc[1:-1, 1:-1])
    return rc.reshape(-1)


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
    """Du per triangle: per orientation, each component is a three-term
    multiply-add of the vertex values with the hat-gradient stencil."""
    U = u[mesh.tris]
    du = np.empty((mesh.n_tris, 2))
    for blk, G in zip(mesh.blocks, mesh.stencil_grads):
        Ub = U[blk]
        for k in range(2):
            du[blk, k] = G[0, k] * Ub[:, 0] + G[1, k] * Ub[:, 1] + G[2, k] * Ub[:, 2]
    return du


def assemble_energy(F, mesh, u, *, want_grad=True, order=None):
    """Discrete energy and (optionally) its nodal gradient from one
    ``F.derivs`` pass of orders 0..k over the triangle gradients Du.

    Energy is sum_T area_T F(Du_T), all areas being equal the area times
    sum_T F(Du_T); the gradient follows by the chain rule
    through the per-triangle linear interpolation.  Without ``order``, k is
    1 (0 when ``want_grad`` is False) and the result is (energy, gradient or
    None).  With ``order`` k = 1 or 2 it is (energy, gradient, DF(Du),
    D2F(Du) or None, Du): the per-triangle derivatives that the Newton
    matrix and the stress V = DF(Du) need, and the gradients they were
    taken at.  A ``derivs`` result does not depend on which orders are
    computed with it, so the energy of an ``order`` pass has the same bits
    as that of an energy-only pass at the same u.
    """
    du = np.ascontiguousarray(_tri_gradients(mesh, u))
    k = int(want_grad) if order is None else order
    fvals, v, hz = F.derivs(du, range(k + 1))
    if not np.isfinite(fvals).all():
        t = int(np.argmax(~np.isfinite(fvals)))
        raise AssemblyError(f"non-finite integrand value at triangle {t}, Du = {du[t]}")
    energy = float(mesh.areas[0] * fvals.sum())
    g = None if v is None else _pair_with_hats(mesh, v)
    return (energy, g) if order is None else (energy, g, v, hz, du)


def _pair_with_hats(mesh, v):
    """Nodal vector sum_T area_T v_T . D(phi_a)|_T over the hat functions phi_a.

    Per orientation each vertex term is a two-term multiply-add of v with
    the area-weighted stencil; one bincount over ``tris.ravel()`` sums them
    in the order of ``np.add.at``, so the sums are the same bits."""
    contrib = np.empty((mesh.n_tris, 3))
    for blk, G in zip(mesh.blocks, mesh.stencil_grads):
        W = mesh.areas[0] * G
        vb = v[blk]
        for a in range(3):
            contrib[blk, a] = W[a, 0] * vb[:, 0] + W[a, 1] * vb[:, 1]
    return np.bincount(mesh.tris.ravel(), weights=contrib.ravel(), minlength=mesh.n_nodes)


def _newton_matrix(mesh, hz, mu, pattern=None):
    """Interior block of the Hessian plus mu Id, a ``StencilMatrix`` over
    the pattern ``newton_pattern(mesh)`` (built here when not given).

    Entry (a, b) of the element matrix area_T D(phi_a) . D2F(Du_T) D(phi_b)
    of an orientation-o triangle is a fixed linear map C[o][a, b] of
    (h00, h01, h11), h01 the mean of the two off-diagonal entries of D2F
    (the quadratic form is the same), and entry (b, a) is the same value.
    It adds to the stencil coefficient of vertex a's node at the offset of
    vertex b, so each (a, b, o) is one shifted slice-add over the
    (n - 1)^2 cells into the (7, n, n) stencil coefficients; removed
    triangles are zeros on the cell grid.  An off-diagonal coefficient
    takes at most one term per orientation, so its sum of two does not
    depend on their order; the diagonal takes a, b = 0, 1, 2 outer and o
    inner, and mu last, the order of an element-by-element scatter of the
    element matrices.  Coefficients off the pattern (rows of Dirichlet
    nodes, couplings to them) are set to zero."""
    pattern = newton_pattern(mesh) if pattern is None else pattern
    n = mesh.n
    h = [mesh.on_cells(x) for x in (np.ascontiguousarray(hz[:, 0, 0]),
                                     0.5 * (hz[:, 0, 1] + hz[:, 1, 0]),
                                     np.ascontiguousarray(hz[:, 1, 1]))]
    d = mesh.stencil_offsets
    dj, di = np.divmod(d, n)
    k = np.searchsorted(_stencil(n), d[:, None, :] - d[:, :, None])       # [o, a, b]
    g0, g1 = mesh.stencil_grads[..., 0], mesh.stencil_grads[..., 1]
    outer = lambda x, y: x[:, :, None] * y[:, None, :]
    C = mesh.areas[0] * np.stack([outer(g0, g0), outer(g0, g1) + outer(g1, g0),
                                  outer(g1, g1)], axis=-1)                 # [o, a, b, 3]
    coef = np.zeros((7, n, n))
    row, tmp = np.empty((2, n - 1, n - 1))
    for a in range(3):
        for b in range(a, 3):
            for o in range(2):
                c = C[o, a, b]
                np.multiply(h[0][o], c[0], out=row)
                row += np.multiply(h[1][o], c[1], out=tmp)
                row += np.multiply(h[2][o], c[2], out=tmp)
                for p, q in {(a, b), (b, a)}:
                    j, i = dj[o, p], di[o, p]
                    coef[k[o, p, q], j:j + n - 1, i:i + n - 1] += row
    coef[3] += mu
    h = row = tmp = None        # freed before the pattern is applied
    np.copyto(coef, 0.0, where=~pattern)
    return StencilMatrix(coef, pattern)


class StencilMatrix:
    """Symmetric operator on the kept nodes of an n x n grid, with the
    7-point stencil ``OFFSETS``.

    ``coef`` (7, n, n) holds at node a the coefficient of offset k, zero off
    ``pattern`` (``_pattern``); the unknowns are the kept nodes
    ``pattern[3]`` in row-major order, none on the border.  ``A @ x`` on a
    vector of unknowns and ``apply`` on a flat grid vector (n^2 values, zero
    off the unknowns) are seven shifted multiply-adds in the order of the
    CSR columns, which give the bits of the CSR row products.  ``nnz``
    counts the pattern, the stored entries of the CSR matrix that ``tocsr``
    gathers; scipy is imported there, on first use.
    """

    def __init__(self, coef, pattern):
        self.coef, self.pattern = coef, pattern
        self.n = n = coef.shape[1]
        self.index = np.flatnonzero(pattern[3])
        self.shape = (self.index.size, self.index.size)
        # nodes n + 1 to n^2 - n - 2 cover every unknown, and the neighbours
        # of each lie on the grid: one contiguous slice per offset
        flat = coef.reshape(7, n * n)
        self._rows = slice(n + 1, n * n - n - 1)
        self._flat_taps = [(flat[k, self._rows], slice(n + 1 + d, n * n - n - 1 + d))
                           for k, d in enumerate(_stencil(n))]

    @property
    def keep(self):
        return self.pattern[3]

    @property
    def nnz(self):
        return int(np.count_nonzero(self.pattern))

    def diagonal(self):
        return self.coef[3].reshape(-1)[self.index]

    def to_grid(self, x):
        """A vector of unknowns as a flat grid vector, zero elsewhere."""
        grid = np.zeros(self.n * self.n)
        grid[self.index] = x
        return grid

    def from_grid(self, grid):
        return grid[self.index]

    def apply(self, x):
        """A x for a flat grid vector x."""
        y = np.empty(self.n * self.n)
        y[:self._rows.start] = y[self._rows.stop:] = 0.0
        acc = y[self._rows]
        tmp = np.empty_like(acc)
        for k, (c, cols) in enumerate(self._flat_taps):
            np.multiply(c, x[cols], out=tmp if k else acc)
            if k:
                acc += tmp
        return y

    def __matmul__(self, x):
        return self.from_grid(self.apply(self.to_grid(x)))

    def tocsr(self):
        """The CSR matrix: row by row, the pattern's entries in offset
        order.  Its index arrays are int32 (int64 only past 2^31 - 1
        entries), the dtype scipy picks."""
        from scipy import sparse

        n, ii = self.n, self.index
        present = self.pattern.reshape(7, -1)[:, ii].T
        pos = np.full(n * n, -1, dtype=np.int64)
        pos[ii] = np.arange(ii.size)
        indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
        gather = (np.arange(7) * n * n + ii[:, None])[present]
        indices = pos[ii[:, None] + _stencil(n)][present]
        index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
        return sparse.csr_matrix((np.take(self.coef, gather), indices.astype(index),
                                  indptr.astype(index)), shape=self.shape)


def _galerkin_terms():
    """The Galerkin product P^T A P on the 7-point stencil, as terms.

    Column c of P holds 1 at the fine node 2c and 1/2 at the six fine nodes
    2c + p around it (p in ``OFFSETS``, w(p) its weight), so
    (P^T A P)[c, c + s] = sum_{p, q} w(p) w(q) A[2c + p, 2c + 2s + q], and
    A[f, f + d] is the coefficient of offset d at fine node f, zero unless d
    is in ``OFFSETS``.  Such p, q exist only for s in ``OFFSETS``: 31 for
    s = 0 and 9 for every other s, so P^T A P is a 7-point stencil again.
    For s = 0, A being symmetric, the terms (p, q) and (q, p) are equal and
    are taken once with twice the weight, which leaves 19.  Returns, for
    the offsets s = 0 and the three after it (the other three follow by
    symmetry), the terms as (k, p) pairs, 2s + q - p the k-th offset, in
    three lists by weight 1/4, 1/2 and 1."""
    k_of = {d: k for k, d in enumerate(OFFSETS)}
    w = {d: 1.0 if d == (0, 0) else 0.5 for d in OFFSETS}
    out = []
    for s in range(3, 7):
        sj, si = OFFSETS[s]
        by_weight = {0.25: [], 0.5: [], 1.0: []}
        for p in OFFSETS:
            for q in OFFSETS:
                d = (2 * sj + q[0] - p[0], 2 * si + q[1] - p[1])
                if d not in k_of or (s == 3 and q < p):
                    continue
                # on the diagonal, terms (p, q) and (q, p) are equal: once, doubled
                fold = 2.0 if s == 3 and q != p else 1.0
                by_weight[fold * w[p] * w[q]].append((k_of[d], p))
        out.append((s, list(by_weight.values())))
    return out


_GALERKIN_TERMS = _galerkin_terms()


def _galerkin(A, coarse_keep):
    """P^T A P as a ``StencilMatrix`` on the coarse unknowns ``coarse_keep``
    (``_galerkin_terms``).  Each term is a strided slice of one fine
    coefficient array; a coefficient sums its terms of weight 1/4, halves,
    adds those of weight 1/2, halves and adds those of weight 1, so it sums
    at most 19 terms and scales only by powers of two.  The offsets after
    the diagonal are summed and the ones before it copied from them, as A
    is symmetric; rows and columns off ``coarse_keep`` are zero, as are P's
    columns there."""
    nc = coarse_keep.shape[0]
    coef = np.zeros((7, nc, nc))
    taps = _taps(nc)
    acc = np.empty((nc - 2, nc - 2))      # contiguous: adds into it run twice as fast
    for s, by_weight in _GALERKIN_TERMS:
        acc.fill(0.0)
        for i, terms in enumerate(by_weight):
            if i:
                acc *= 0.5
            for k, (pj, pi) in terms:
                acc += _at_coarse(A.coef[k], pj, pi)
        coef[s, 1:-1, 1:-1] = acc
        if s != 3:
            coef[6 - s, 1:-1, 1:-1] = coef[s][taps[6 - s]]
    pattern = _pattern(coarse_keep)
    np.copyto(coef, 0.0, where=~pattern)
    return StencilMatrix(coef, pattern)


def _line_factor(A):
    """Direct solver of A on a small grid, as a function of a flat grid
    vector: a block LDL^T over the grid lines.

    With the nodes off ``A.keep`` embedded as identity rows, A on the
    (n - 2)^2 inner nodes is block tridiagonal over the grid lines, with
    (n - 2) x (n - 2) blocks: D_j within line j (offsets (0, +-1)), U_j
    from line j to line j + 1 (offsets (1, 0), (1, 1)) and L_j from line
    j + 1 to line j (offsets (-1, 0), (-1, -1)).  The pivot blocks
    S_0 = D_0, S_{j+1} = D_{j+1} - L_j S_j^{-1} U_j are inverted once, and a
    solve is one forward and one backward sweep of line-sized
    matrix-vector products.  No BLAS or LAPACK call sees more than one
    line block: on larger ones threaded OpenBLAS can stall for a tenth of
    a second.  A singular pivot block raises ``np.linalg.LinAlgError``."""
    c = A.coef[:, 1:-1, 1:-1]
    m = c.shape[1]
    i = np.arange(m)
    D = np.zeros((m, m, m))
    D[:, i, i] = np.where(A.keep[1:-1, 1:-1], c[3], 1.0)
    D[:, i[:-1], i[1:]] = c[4, :, :-1]
    D[:, i[1:], i[:-1]] = c[2, :, 1:]
    U = np.zeros((m - 1, m, m))
    U[:, i, i] = c[5, :-1]
    U[:, i[:-1], i[1:]] = c[6, :-1, :-1]
    L = np.zeros((m - 1, m, m))
    L[:, i, i] = c[1, 1:]
    L[:, i[1:], i[:-1]] = c[0, 1:, 1:]
    inv, inv_u = np.empty((m, m, m)), np.empty((m - 1, m, m))
    for j in range(m):
        inv[j] = np.linalg.inv(D[j] - L[j - 1] @ inv_u[j - 1] if j else D[j])
        if j < m - 1:
            inv_u[j] = inv[j] @ U[j]
    return functools.partial(_line_solve, inv, inv_u, L, A.keep)


def _line_solve(inv, inv_u, L, keep, b):
    """x = A^{-1} b from the factor of ``_line_factor``: forward,
    y_j = S_j^{-1} (b_j - L_{j-1} y_{j-1}); backward,
    x_j = y_j - S_j^{-1} U_j x_{j+1}."""
    n = keep.shape[0]
    x = np.zeros((n, n))
    y, rhs = x[1:-1, 1:-1], b.reshape(n, n)[1:-1, 1:-1]
    for j in range(n - 2):
        y[j] = inv[j] @ (rhs[j] - L[j - 1] @ y[j - 1] if j else rhs[j])
    for j in range(n - 4, -1, -1):
        y[j] -= inv_u[j] @ y[j + 1]
    x *= keep
    return x.reshape(-1)


def _superlu(A):
    """SuperLU factor of A with Liu's multiple minimum degree ordering of
    A + A^T (ACM TOMS 1985) in symmetric mode, which prefers diagonal pivots.
    On the Newton matrices this factor has a third less fill than a COLAMD
    ordering.  scipy is imported here, on first use.  A singular matrix
    raises RuntimeError."""
    from scipy.sparse.linalg import splu

    return splu(A.tocsr().tocsc(), permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True))


# V(2, 2) cycle with damped Jacobi smoothing
SMOOTHING_STEPS = 2
JACOBI_DAMPING = 0.7
PCG_MAXITER = 50


def _vcycle(A, prolongations):
    """Multigrid V-cycle on the Galerkin operators P^T A P, as a function
    r -> approximate A^{-1} r on flat grid vectors; the coarsest operator
    is factored by ``_line_factor``.

    The function is a ``functools.partial`` of the module-level ``_cycle``
    and holds no reference to itself, so the operators, the Jacobi weights
    and the coarse factor die with their last caller by reference counting:
    a Newton step's hierarchy is freed when ``spsolve`` returns, or before
    its SuperLU fallback factors A, and does not wait for the cyclic
    garbage collector."""
    ops = [A]
    for keep in prolongations:
        ops.append(_galerkin(ops[-1], keep))
    weights = [np.divide(JACOBI_DAMPING, B.coef[3].reshape(-1), out=np.zeros(B.n * B.n),
                         where=B.keep.reshape(-1)) for B in ops[:-1]]
    # masks as floats: multiplying by them takes half the time of a bool mask
    masks = [B.keep.astype(float) for B in ops]
    levels = tuple(zip(ops, weights, masks, masks[1:]))
    return functools.partial(_cycle, levels, _line_factor(ops[-1]))


def _residual(B, b, x):
    """b - B x, in the buffer of B x."""
    r = B.apply(x)
    return np.subtract(b, r, out=r)


def _jacobi(B, w, b, x):
    """One damped Jacobi sweep x += w (b - B x), in place."""
    r = _residual(B, b, x)
    r *= w
    x += r


def _cycle(levels, coarsest, b, k=0):
    """One V(2, 2) cycle from level k: damped Jacobi around the coarse
    correction, ``coarsest`` below the last level."""
    if k == len(levels):
        return coarsest(b)
    B, w, keep, coarse_keep = levels[k]
    x = w * b
    for _ in range(SMOOTHING_STEPS - 1):
        _jacobi(B, w, b, x)
    x += _prolong(_cycle(levels, coarsest, _restrict(_residual(B, b, x), coarse_keep), k + 1),
                  keep)
    for _ in range(SMOOTHING_STEPS):
        _jacobi(B, w, b, x)
    return x


def _dot(a, b):
    """Dot product of two vectors, reduced by numpy's own loop: a BLAS
    level-1 call on long vectors can cost milliseconds in thread hand-off
    where the arithmetic takes microseconds.  A nan or inf entry gives a
    non-finite result, as with ``a @ b``."""
    return float(np.einsum("i,i", a, b))


def _norm(a):
    """Euclidean norm of a vector, without BLAS (see ``_dot``)."""
    return _dot(a, a) ** 0.5


def _pcg(matvec, b, precondition, rtol):
    """Preconditioned CG for matvec(x) = b from x = 0 until
    |r|_2 <= rtol |b|_2.

    Returns (x, iterations), or None when it hits ``PCG_MAXITER``, meets a
    curvature p.Ap <= 0 (or r.z <= 0: the preconditioner is not positive
    on r) or a non-finite value."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = _norm(b)
    stop = rtol * bnorm
    if not np.isfinite(stop):
        return None
    if stop >= bnorm:
        return x, 0
    z = precondition(r)
    rz = _dot(r, z)
    p = z
    for it in range(1, PCG_MAXITER + 1):
        if not rz > 0.0:
            return None
        Ap = matvec(p)
        pAp = _dot(p, Ap)
        if not pAp > 0.0:
            return None
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = _norm(r)
        if not np.isfinite(rnorm):
            return None
        if rnorm <= stop:
            return x, it
        z = precondition(r)
        rz_next = _dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return None


def spsolve(A, b, prolongations=(), *, rtol=1e-8, full_output=False):
    """Solve A x = b for a symmetric positive definite ``StencilMatrix``.

    Without ``prolongations`` the solve is direct.  On grids with
    n <= ``COARSEST_N`` (at most 15^2 unknowns) it is the block LDL^T over
    grid lines of ``_line_factor``; on larger grids (the Newton loop passes
    no levels for an even n) it is a SuperLU factor with the multiple
    minimum degree ordering in symmetric mode (``_superlu``), and scipy is
    imported on first use.

    With ``prolongations`` (``prolongations(mesh)``: the keep masks of the
    coarser levels, level 0 being the unknowns of A) it is CG
    preconditioned by one multigrid V(2, 2) cycle on grid vectors: Galerkin
    operators P^T A P on the coarser levels, summed as 7-point stencils
    (``_galerkin``), two damped Jacobi sweeps (omega = 0.7) before and
    after each coarse correction, and the line-block factor of the
    coarsest operator (grid 17 or smaller).  CG starts from zero and stops
    once |b - A x|_2 <= rtol |b|_2.  If it hits ``PCG_MAXITER`` iterations,
    meets p.Ap <= 0 (or r.z <= 0) or a non-finite value, SuperLU solves
    the system instead.  A singular matrix raises RuntimeError from
    SuperLU, or ``np.linalg.LinAlgError`` from the line-block factor.

    With ``full_output`` the result is (x, iterations): the CG iteration
    count, 0 for a direct solve and -1 where SuperLU took over from CG.
    """
    result = None
    if prolongations:
        # CG on grid vectors, as the V-cycle works: nothing is scattered or
        # gathered per iteration
        result = _pcg(A.apply, A.to_grid(b), _vcycle(A, prolongations), rtol)
        if result is not None:
            result = (A.from_grid(result[0]), result[1])
    if result is None:
        if A.n <= COARSEST_N:
            x = A.from_grid(_line_factor(A)(A.to_grid(b)))
        else:
            x = _superlu(A).solve(b)
        result = (x, -1 if prolongations else 0)
    return result if full_output else result[0]


def _armijo(F, mesh, u, d, energy, slope, order, *, c1=1e-4, max_halvings=60):
    """Backtracking Armijo search along d from u, halving alpha from 1.

    Each trial is a full ``assemble_energy`` pass of orders 0..``order`` at
    u + alpha d, so the accepted trial is also the next iterate's pass.
    Returns (alpha, (energy, gradient, DF(Du), D2F(Du) or None, Du)) of
    the first trial that satisfies the Armijo condition, or None when
    ``max_halvings`` trials find no decrease.  A rejected trial's fields
    die before the next trial's pass.
    """
    alpha = 1.0
    floor = 1e-14 * abs(energy) + 1e-300  # rounding floor near convergence
    for _ in range(max_halvings):
        try:
            trial = assemble_energy(F, mesh, u + alpha * d, order=order)
        except AssemblyError:
            alpha *= 0.5
            continue
        if trial[0] <= energy + c1 * alpha * slope + floor:
            return alpha, trial
        trial = None
        alpha *= 0.5
    return None


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
    integrand degenerates), assembled as a 7-point stencil on the fixed
    interior pattern of ``newton_pattern`` and solved by ``spsolve``; steps
    are accepted under the Armijo rule, so the energy is nonincreasing.  Every
    integrand pass is one ``F.derivs`` call of orders 0..2 for Newton (0..1
    for BB): one at the initial guess, then one per Armijo trial, and the
    accepted trial is the next iterate, so no pass repeats a u.  It gives
    the energy, the nodal gradient, the D2F(Du) of the next Newton matrix
    and, at the last iterate, the stress V = DF(Du) and Du itself.  The last
    iterate's fields are dropped before the trials, so a stalled search
    makes one more orders 0..1 pass at the iterate it returns.  Each Newton matrix and
    its multigrid hierarchy are freed when the step's linear solve returns,
    and the Newton pattern and the levels' keep masks, built once per call,
    when ``solve`` returns, so the solver's memory is bounded per step, not per
    run, and the mesh keeps none of it.
    ``method="gradient"`` forces the Barzilai-Borwein fallback throughout.
    Terminates when the interior gradient max-norm drops below tol_rel
    (1 + initial residual); hitting the iteration cap or an Armijo search
    that finds no decrease returns the best iterate flagged
    ``converged=False``, and ``stop_reason`` says which.

    On grids with coarser levels (``prolongations``: n odd and above
    ``COARSEST_N``) the Newton step is inexact: multigrid-preconditioned
    CG stops once the linear residual is at most eta_k times the interior
    gradient g_k in the 2-norm, with the Eisenstat-Walker choice 2 forcing
    term eta_k = min(ETA_MAX, EW_GAMMA (|g_k| / |g_{k-1}|)^EW_ALPHA) and
    eta_0 = ETA_MAX.  Other grids solve each step directly.  Where CG fails
    SuperLU solves the step, and where the direct solve fails or the step
    is not a descent direction a BB step is taken.  ``linear_iterations`` records,
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
    energy, g, v, hz, du = assemble_energy(F, mesh, u, order=order)
    res0 = float(np.abs(g[ii]).max()) if ii.size else 0.0
    tol = tol_rel * (1.0 + res0)
    res = res0
    iterations = 0
    u_prev = None
    g_prev = None
    alpha_gd = 1.0
    cap = max_iter if newton else gd_max_iter
    stop_reason = "max_iter"
    gnorm = _norm(g[ii])
    eta = ETA_MAX
    linear_iterations = []
    if newton:
        pattern, levels = newton_pattern(mesh), prolongations(mesh)

    # "not <=" keeps iterating on a NaN residual, so that case ends with a
    # failed line search instead of passing as an untried iteration cap.
    while not res <= tol and iterations < cap:
        d = np.zeros_like(u)
        slope = None
        if newton:
            # the Newton matrix lives only inside spsolve, and D2F(Du) only
            # until the matrix is built
            Kii, hz = _newton_matrix(mesh, hz, 1e-10 * (1.0 + res), pattern), None
            try:
                step, its = spsolve(Kii, -g[ii], levels, rtol=eta, full_output=True)
            except Exception:
                step = None
            Kii = None
            if step is not None and np.isfinite(step).all():
                sl = _dot(g[ii], step)
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
            slope = _dot(g[ii], step)

        u_prev, g_prev = u[ii].copy(), g[ii].copy()
        g = step = v = du = None    # the last iterate's fields die before the trials
        accepted = _armijo(F, mesh, u, d, energy, slope, order)
        if accepted is None:
            stop_reason = "line_search_stalled"
            _, _, v, _, du = assemble_energy(F, mesh, u, order=1)
            break
        alpha, (energy, g, v, hz, du) = accepted
        accepted = None             # else it keeps D2F(Du) alive through the next solve
        u = u + alpha * d
        res = float(np.abs(g[ii]).max()) if ii.size else 0.0
        gnorm_prev, gnorm = gnorm, _norm(g[ii])
        eta = min(ETA_MAX, EW_GAMMA * (gnorm / gnorm_prev) ** EW_ALPHA)
        iterations += 1

    converged = bool(res <= tol)
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

    A node's patch holds at most one triangle in each of 6 slots
    (orientation o, vertex a) of ``Mesh.node_tris``: the triangle of
    orientation o with the node as its vertex a.  All areas are equal and
    a slot's barycenter lies at a fixed offset from the node, so the fit
    depends only on which slots are present.  The fits are grouped by that
    slot pattern: each group solves its 3x3 normal equations once and
    applies the resulting stencil to v, for interior, boundary and masked
    nodes alike.  Coordinates are scaled
    by the mesh width for conditioning.  Degenerate patterns (corner nodes)
    fall back to a fit over the node's two-ring neighbourhood."""
    N, h = mesh.n_nodes, min(mesh.hx, mesh.hy)
    j, i = np.divmod(mesh.stencil_offsets, mesh.n)
    corner = np.stack([i * mesh.hx, j * mesh.hy], axis=-1)             # (2, 3, 2)
    dx = ((corner.mean(axis=1, keepdims=True) - corner) / h).reshape(6, 2)
    design = np.column_stack([np.ones(6), dx])                          # row 3 o + a
    slot_tri = mesh.node_tris()
    code = (slot_tri >= 0) @ (1 << np.arange(6))
    order = np.argsort(code, kind="stable")
    ends = np.cumsum(np.bincount(code, minlength=64))

    dv = np.zeros((N, 2, 2))
    bad = []
    for c in np.flatnonzero(np.diff(ends)) + 1:
        nodes = order[ends[c - 1]:ends[c]]
        s = np.flatnonzero((c >> np.arange(6)) & 1)
        A = design[s]
        gram = A.T @ A
        if not np.linalg.det(gram) > 1e-10 * gram[0, 0] ** 3:
            bad.append(nodes)
            continue
        weights = np.linalg.solve(gram, A.T)[1:] / h                    # (2, |s|)
        taps = [v[slot_tri[nodes, q]] for q in s]
        for k in range(2):
            acc = weights[k, 0] * taps[0]
            for w, tap in zip(weights[k, 1:], taps[1:]):
                acc += w * tap
            dv[nodes, :, k] = acc

    for nidx in np.concatenate(bad) if bad else ():
        ring = slot_tri[mesh.tris[slot_tri[nidx][slot_tri[nidx] >= 0]]]
        # np.unique by a sort and a neighbour test: np.unique imports numpy.ma
        ring = np.sort(ring[ring >= 0])
        patch = ring[np.concatenate([[True], ring[1:] != ring[:-1]])]
        A = np.column_stack([np.ones(patch.size), (mesh.bary[patch] - mesh.nodes[nidx]) / h])
        coef, *_ = np.linalg.lstsq(A, v[patch], rcond=None)
        dv[nidx] = coef[1:].T / h
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
    t = mesh.tris
    dv_tri = (dv_nodes[t[:, 0]] + dv_nodes[t[:, 1]] + dv_nodes[t[:, 2]]) / 3
    pair = _pair_with_hats(mesh, v)
    div = float(np.abs(pair[mesh.interior_idx]).max()) if mesh.interior_idx.size else 0.0
    solution._stress = StressField(v=v, dv_nodes=dv_nodes, dv_tri=dv_tri, divergence=div)
    return solution._stress
