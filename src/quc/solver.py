"""Discrete 2-D Dirichlet solver for integral functionals of the gradient.

The domain (an axis-aligned rectangle, optionally cut by a circular mask) is
triangulated by splitting each grid cell along the lower-left to upper-right
diagonal, so assembly is deterministic and meshes nest under the refinement
n -> 2n - 1.  Every triangle is a lower or an upper one, and all triangles
of one orientation share their area, their hat-function gradients
(``Mesh.stencil_grads``) and their vertex offsets (``Mesh.stencil_offsets``),
so the mesh holds geometry per node and per cell only: no per-triangle
table and no triangle ids.  Du, the pairing with the hat gradients, the
Newton matrix and the stress recovery work from these two stencils, one
orientation at a time, on shifted slices of the (n, n) grid of nodes and
the (n - 1, n - 1) grid of cells.  The Newton matrix is summed on the grid
of cells: each entry of an element matrix is a fixed linear map of
D2F(Du) that lands on one 7-point stencil coefficient of one vertex.  The
energy sum_T area_T F(Du_T) over per-triangle constant gradients is
minimised by damped inexact Newton with Armijo backtracking; a
Barzilai-Borwein gradient method with the same safeguard serves as
fallback and as an independent cross-check.  The solution keeps what the
last integrand pass computed at the final iterate: Du, F(Du) and the
stress V = DF(Du) per triangle (``GridSolution``); ``stress_field``
recovers DV from V by patchwise affine fits.

Every operator of the linear solves is a 7-point stencil on a grid
(``StencilMatrix``), held as seven coefficient arrays, so the solve path
needs numpy only.  The Newton solve has one vector layout, the flat grid
vector of n^2 nodal values, zero off the unknowns: the gradient, the
Newton step, the search direction and every vector of the linear solvers
and their multigrid levels.  The Newton systems are solved by CG
preconditioned with a geometric multigrid V-cycle over the nested grids
n_0, (n_0 + 1) / 2, ... (Briggs, Henson & McCormick, *A Multigrid
Tutorial*), stopped at an Eisenstat-Walker forcing term (Eisenstat &
Walker, SISC 17, 1996), so the cost of a Newton step grows linearly with
the grid; n_0 = 2^k m + 1 >= n, m <= 16, holds the n x n unknowns in its
corner.  The P1 prolongation
and its transpose are strided slices of grid vectors, and the Galerkin
operators P^T A P are 7-point stencils again, summed from strided slices
of the finer level's coefficients.  Grids up to n = 17 and the coarsest
level are solved by a block LDL^T over grid lines, and a system on which
CG fails is factored by SuperLU; scipy is imported there, on first use.
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

    Every grid cell with lower-left node a = j n + i splits into a lower
    triangle (a, a + 1, a + n + 1) and an upper one (a, a + n + 1, a + n),
    so a triangle's geometry is fixed by its orientation o (0 lower, 1
    upper) and its cell (j, i), and the mesh stores no per-triangle table.
    ``stencil_offsets`` (2, 3) holds the node offsets of the three vertices
    from a, ``stencil_grads`` (2, 3, 2) their hat-function gradients, and
    every triangle has the area ``area`` = hx hy / 2.  ``kept``
    (2, n - 1, n - 1) says whether the mask kept the triangle of
    orientation o in cell (j, i).

    Per-triangle arrays (Du, the stress) hold the kept lower triangles in
    cell order, then the kept upper ones: ``n_lower`` and ``n_tris`` rows,
    split by ``blocks``.  Kernels work one orientation at a time on the
    grids: vertex a of every cell's triangle of orientation o lies on the
    slice ``vertex_slices(o)[a]`` of the (n, n) node grid (``at_vertices``
    reads a node grid there), ``on_cells`` places per-triangle values on the
    grid of cells, and ``bary_axes`` holds the barycenters as two 1-D tables
    per orientation.  ``node_tris`` marks the (orientation, vertex) slots
    that each node fills.  ``triangles`` and ``barycenters`` build the
    whole vertex and barycenter tables on demand.

    Attributes: ``nodes`` (N, 2); boolean node masks ``interior``,
    ``dirichlet`` and ``used``; ``kept``; the ints
    ``n_lower`` and ``n_tris``; ``stencil_offsets``, ``stencil_grads`` and
    the scalar ``area``.  A mesh holds geometry only: ``solve`` builds the
    Newton pattern and the prolongations once per call.
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

        self.kept = np.ones((2, n - 1, n - 1), dtype=bool)
        if mask is not None:
            center, radius = np.asarray(mask[0], dtype=float), float(mask[1])
            inside = (np.hypot(self.nodes[:, 0] - center[0], self.nodes[:, 1] - center[1])
                      <= radius).reshape(n, n)
            for o in range(2):
                for s in self.vertex_slices(o):
                    self.kept[o] &= inside[s]
        self.n_lower = int(np.count_nonzero(self.kept[0]))
        self.n_tris = self.n_lower + int(np.count_nonzero(self.kept[1]))
        if self.n_tris == 0:
            raise SolverError("mask removed every triangle")
        # a node off the grid's border has six slots, one on it at most
        # three: the interior nodes are those that fill all six
        code = self.node_tris()
        self.used = (code > 0).ravel()
        self.interior = (code == 63).ravel()
        self.dirichlet = self.used & ~self.interior

        ix, iy = 1.0 / self.hx, 1.0 / self.hy
        self.stencil_grads = np.array([[[-ix, 0.0], [ix, -iy], [0.0, iy]],
                                       [[0.0, -iy], [ix, 0.0], [-ix, iy]]])
        self.area = 0.5 * self.hx * self.hy

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def blocks(self):
        """Row slices of the lower and of the upper triangles in a
        per-triangle array."""
        return slice(0, self.n_lower), slice(self.n_lower, self.n_tris)

    def vertex_slices(self, o):
        """Per vertex a of orientation o, the (n - 1, n - 1) slice of the
        (n, n) node grid whose entry (j, i) is vertex a of the triangle of
        orientation o in cell (j, i)."""
        n = self.n
        return [(slice(d // n, d // n + n - 1), slice(d % n, d % n + n - 1))
                for d in self.stencil_offsets[o].tolist()]

    def on_cells(self, values, fill=0):
        """Per-triangle ``values`` (M, ...) on the (2, n - 1, n - 1, ...)
        grid of cells, ``fill`` where the mask removed a triangle.  Without
        a mask this is a view of ``values``."""
        shape = self.kept.shape + values.shape[1:]
        if self.n_tris == self.kept.size:
            return values.reshape(shape)
        grid = np.full(shape, fill, dtype=values.dtype)
        grid[self.kept] = values
        return grid

    def at_vertices(self, grid, o):
        """The values of a node grid (n, n, ...) at vertex a = 0, 1, 2 of
        the triangles of orientation o: views (n - 1, n - 1, ...) on the
        cell grid, or, where the mask removed triangles, their values at
        the kept ones (n_o, ...), so nothing of a removed cell is read."""
        views = [grid[s] for s in self.vertex_slices(o)]
        if self.n_tris < self.kept.size:
            views = [x[self.kept[o]] for x in views]
        return views

    def bary_axes(self):
        """Barycenter coordinates on the axes of the cell grid: ``bx[o, i]``
        and ``by[o, j]`` are those of the triangle of orientation o in cell
        (j, i), (x_{i + d0} + x_{i + d1} + x_{i + d2}) / 3 with the
        vertices' column offsets d, and the same in y: the bits of the mean
        of the three vertex nodes summed in vertex order."""
        n = self.n
        xs, ys = self.nodes[:n, 0], self.nodes[::n, 1]
        axes = np.empty((2, 2, n - 1))
        for o in range(2):
            (a, b, c) = self.vertex_slices(o)
            axes[0, o] = (xs[a[1]] + xs[b[1]] + xs[c[1]]) / 3
            axes[1, o] = (ys[a[0]] + ys[b[0]] + ys[c[0]]) / 3
        return axes[0], axes[1]

    def node_tris(self):
        """The triangles at each node as an (n, n) uint8 slot code: bit
        3 o + a is set where the node is vertex a of a kept triangle of
        orientation o.  A node lies on at most one triangle per
        (orientation, vertex) slot: the one in the cell whose lower-left
        node is the node's index less ``stencil_offsets[o, a]``."""
        code = np.zeros((self.n, self.n), dtype=np.uint8)
        for o in range(2):
            for a, s in enumerate(self.vertex_slices(o)):
                code[s] |= self.kept[o] * np.uint8(1 << (3 * o + a))
        return code

    def triangles(self):
        """Vertex nodes (M, 3) of every triangle, built on demand."""
        o, j, i = np.nonzero(self.kept)
        return (j * self.n + i)[:, None] + self.stencil_offsets[o]

    def barycenters(self):
        """Barycenters (M, 2) of every triangle, from ``bary_axes``."""
        o, j, i = np.nonzero(self.kept)
        bx, by = self.bary_axes()
        return np.stack([bx[o, i], by[o, j]], axis=-1)


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
    n_{k+1} = (n_k + 1) / 2: the coarse nodes whose fine image (2J, 2I) is
    an unknown of grid n_k, so a masked domain needs no coarse geometry.
    n_0 is the smallest 2^k m + 1 >= n with m < ``COARSEST_N``, its
    unknowns ``interior`` in its (n, n) corner.  Coarsening continues while
    n_k is above ``COARSEST_N``; the list is empty for n <= ``COARSEST_N``.
    The exact P1 prolongation between two levels and its transpose act on
    grid vectors as strided slices (``_prolong``, ``_restrict``), masked by
    the two levels' keep masks.
    """
    n, step = mesh.n, 1
    while n - 1 > (COARSEST_N - 1) * step:
        step *= 2
    size = -(-(n - 1) // step) * step + 1
    keep = np.pad(mesh.interior.reshape(n, n), (0, size - n))
    out = []
    while keep.shape[0] > COARSEST_N:
        keep = keep[::2, ::2].copy()
        out.append(keep)
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
    multiply-add of the vertex values with the hat-gradient stencil, on
    the vertex slices of the (n, n) node grid."""
    du = np.empty((mesh.n_tris, 2))
    grid = u.reshape(mesh.n, mesh.n)
    for o, (blk, G) in enumerate(zip(mesh.blocks, mesh.stencil_grads)):
        U = mesh.at_vertices(grid, o)
        tmp = np.empty_like(U[0])
        for k in range(2):
            out = du[blk, k].reshape(U[0].shape)
            np.multiply(G[0, k], U[0], out=out)
            out += np.multiply(G[1, k], U[1], out=tmp)
            out += np.multiply(G[2, k], U[2], out=tmp)
    return du


def assemble_energy(F, mesh, u, *, order):
    """Discrete energy, its nodal gradient and the per-triangle values and
    derivatives of F from one ``F.derivs`` pass of orders 0..``order`` over
    the triangle gradients Du.

    Energy is sum_T area_T F(Du_T), all areas being equal the area times
    sum_T F(Du_T); the gradient follows by the chain rule through the
    per-triangle linear interpolation.  The result is (energy, gradient,
    F(Du), DF(Du), D2F(Du), Du), each derivative None above ``order``: the
    energy density that the estimates read, the per-triangle derivatives
    that the Newton matrix and the stress V = DF(Du) need, and the
    gradients they were taken at.  A ``derivs`` result does not depend on
    which orders are computed with it, so the energy of an order-2 pass has
    the same bits as that of an order-0 pass at the same u.
    """
    du = np.ascontiguousarray(_tri_gradients(mesh, u))
    fvals, v, hz = F.derivs(du, range(order + 1))
    if not np.isfinite(fvals).all():
        t = int(np.argmax(~np.isfinite(fvals)))
        raise AssemblyError(f"non-finite integrand value at triangle {t}, Du = {du[t]}")
    energy = float(mesh.area * fvals.sum())
    g = None if v is None else _pair_with_hats(mesh, v)
    return energy, g, fvals, v, hz, du


# The (orientation, vertex) slots in the order in which bincount over the
# flat vertex table, lower triangles first, meets them at any one node.
_PAIRING_ORDER = ((0, 2), (0, 1), (0, 0), (1, 1), (1, 2), (1, 0))


def _pair_with_hats(mesh, v):
    """Nodal vector sum_T area_T v_T . D(phi_a)|_T over the hat functions phi_a.

    Per orientation each vertex term is a two-term multiply-add of v with
    the area-weighted stencil, computed on the grid of cells and added to
    the vertex slice of an (n, n) grid of zeros, six slice-adds in all.  At
    node (j, i) a lower triangle's vertex 2 is in cell (j - 1, i - 1), its
    vertex 1 in (j, i - 1) and its vertex 0 in (j, i); an upper one's
    vertex 1 is in (j - 1, i - 1), its vertex 2 in (j - 1, i) and its
    vertex 0 in (j, i).  Lower triangles come first, so ``_PAIRING_ORDER``
    adds each node's terms in the order of a bincount (or ``np.add.at``)
    over the (M, 3) vertex table, and the sums are the same bits.  A cell
    the mask removed adds a zero, which changes no sum: a sum that starts
    at +0.0 is never -0.0."""
    n = mesh.n
    out = np.zeros((n, n))
    W = mesh.area * mesh.stencil_grads
    v0, v1 = mesh.on_cells(v[:, 0]), mesh.on_cells(v[:, 1])
    slices = [mesh.vertex_slices(o) for o in range(2)]
    term, tmp = np.empty((2, n - 1, n - 1))
    for o, a in _PAIRING_ORDER:
        np.multiply(W[o, a, 0], v0[o], out=term)
        term += np.multiply(W[o, a, 1], v1[o], out=tmp)
        out[slices[o][a]] += term
    return out.reshape(-1)


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
    k = np.searchsorted(_stencil(n), d[:, None, :] - d[:, :, None])       # [o, a, b]
    g0, g1 = mesh.stencil_grads[..., 0], mesh.stencil_grads[..., 1]
    outer = lambda x, y: x[:, :, None] * y[:, None, :]
    C = mesh.area * np.stack([outer(g0, g0), outer(g0, g1) + outer(g1, g0),
                              outer(g1, g1)], axis=-1)                     # [o, a, b, 3]
    slices = [mesh.vertex_slices(o) for o in range(2)]
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
                    coef[k[o, p, q]][slices[o][p]] += row
    coef[3] += mu
    h = row = tmp = None        # freed before the pattern is applied
    np.copyto(coef, 0.0, where=~pattern)
    return StencilMatrix(coef, pattern)


class StencilMatrix:
    """Symmetric operator on the kept nodes of an n x n grid, with the
    7-point stencil ``OFFSETS``, acting on flat grid vectors.

    ``coef`` (7, n, n) holds at node a the coefficient of offset k, zero off
    ``pattern`` (``_pattern``); the unknowns are the kept nodes ``keep`` =
    ``pattern[3]``, none on the border.  A vector is a flat grid vector, n^2
    values that are zero off the unknowns, and ``apply`` is seven shifted
    multiply-adds in the order of the offsets.  ``nnz`` counts the pattern:
    the entries of the operator on its unknowns.
    """

    def __init__(self, coef, pattern):
        self.coef, self.pattern = coef, pattern
        self.n = n = coef.shape[1]
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
    """SuperLU factor of A on flat grid vectors, as a function b -> x.

    The n^2 x n^2 matrix holds the nodes off ``A.keep`` as identity rows, as
    ``_line_factor`` does.  It is built from the seven coefficient arrays as
    diagonals: A[a, a + d_k] = coef[k, a] lies in column a + d_k of
    diagonal d_k, and what ``np.roll`` wraps around falls outside the
    matrix, where ``dia_array`` drops it, as it drops zeros.  Liu's
    multiple minimum degree ordering of A + A^T (ACM TOMS 1985) in
    symmetric mode, which prefers diagonal pivots, gives a third less fill
    than a COLAMD ordering on the Newton matrices.  scipy is imported here, on first use.  A
    singular matrix raises RuntimeError."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    flat = A.coef.reshape(7, -1)
    offsets = _stencil(A.n)
    diagonals = np.stack([np.roll(c, d) for c, d in zip(flat, offsets)])
    diagonals[3] = np.where(A.keep.reshape(-1), flat[3], 1.0)
    matrix = sparse.dia_array((diagonals, offsets), shape=(A.n ** 2,) * 2).tocsc()
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)).solve


# V(2, 2) cycle with damped Jacobi smoothing
SMOOTHING_STEPS = 2
JACOBI_DAMPING = 0.7
PCG_MAXITER = 50


def _vcycle(A, prolongations):
    """Multigrid V-cycle on the Galerkin operators P^T A P, as a function
    r -> approximate A^{-1} r on flat grid vectors of the finest grid of
    ``prolongations``; the coarsest operator is factored by ``_line_factor``.

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


def spsolve(A, b, prolongations=(), *, rtol=1e-8):
    """Solve A x = b for a symmetric positive definite ``StencilMatrix``, on
    flat grid vectors: b and x are zero off the unknowns ``A.keep``.

    Without ``prolongations`` (grids up to ``COARSEST_N``, at most 15^2
    unknowns) the solve is the block LDL^T over grid lines of
    ``_line_factor``.  With ``prolongations`` (``prolongations(mesh)``) it
    is CG preconditioned by one multigrid V(2, 2) cycle.  Where their
    finest grid n_0 = 2 n_1 - 1 is larger than A's, A's coefficients and b
    go into its (n, n) corner, zero outside, and x is cropped from it.  The
    cycle has Galerkin operators P^T A P on the coarser levels, summed as
    7-point stencils (``_galerkin``), two damped Jacobi sweeps
    (omega = 0.7) before and after each coarse correction, and the
    line-block factor of the coarsest operator (grid 17 or smaller).  CG
    starts from zero and stops once |b - A x|_2 <= rtol |b|_2.  If it hits
    ``PCG_MAXITER`` iterations, meets p.Ap <= 0 (or r.z <= 0) or a
    non-finite value, SuperLU (``_superlu``, which imports scipy) solves the
    system on A's own grid instead.  A singular matrix raises RuntimeError
    from SuperLU, or ``np.linalg.LinAlgError`` from the line-block factor.

    The result is (x, iterations): the CG iteration count, 0 for a direct
    solve and -1 where SuperLU took over from CG.
    """
    if not prolongations:
        return _line_factor(A)(b), 0
    n = 2 * prolongations[0].shape[0] - 1
    B, rhs = A, b
    if n > A.n:
        pad = ((0, 0), (0, n - A.n), (0, n - A.n))
        B = StencilMatrix(np.pad(A.coef, pad), np.pad(A.pattern, pad))
        rhs = np.pad(b.reshape(A.n, A.n), pad[1:]).reshape(-1)
    result = _pcg(B.apply, rhs, _vcycle(B, prolongations), rtol)
    if result is not None:
        x, its = result
        return x.reshape(n, n)[:A.n, :A.n].reshape(-1), its
    B = rhs = None              # the padded copy dies before SuperLU factors A
    return _superlu(A)(b), -1


def _armijo(F, mesh, u, d, energy, slope, order):
    """Backtracking Armijo search along d from u, halving alpha from 1,
    with sufficient-decrease constant 1e-4.

    Each trial is a full ``assemble_energy`` pass of orders 0..``order`` at
    u + alpha d, so the accepted trial is also the next iterate's pass.
    Returns (u + alpha d, (energy, gradient, F(Du), DF(Du), D2F(Du) or
    None, Du)) of the first trial that satisfies the Armijo condition, or
    None when 60 trials find no decrease.  A rejected trial's
    fields die before the next trial's pass.
    """
    alpha = 1.0
    floor = 1e-14 * abs(energy) + 1e-300  # rounding floor near convergence
    for _ in range(60):
        point = u + alpha * d
        try:
            trial = assemble_energy(F, mesh, point, order=order)
        except AssemblyError:
            alpha *= 0.5
            continue
        if trial[0] <= energy + 1e-4 * alpha * slope + floor:
            return point, trial
        trial = None
        alpha *= 0.5
    return None


@dataclass
class GridSolution:
    """The result of ``solve``: the last iterate and the fields of the
    integrand pass at it.

    ``u`` (N,) holds the nodal values; ``du`` (M, 2), ``energy_density``
    (M,) and ``v`` (M, 2) are Du, F(Du) and the stress V = DF(Du) per
    triangle, from the pass that gave ``energy``, so no estimate evaluates
    F again.  ``residual`` is the max-norm of the energy gradient on the
    interior nodes, which is the pairing of V with the interior hat
    gradients: the weak divergence of the stress.  ``stress_field``
    recovers DV on first use and keeps it in ``_dv``.
    """

    problem: GridProblem
    mesh: Mesh
    u: np.ndarray
    du: np.ndarray
    energy_density: np.ndarray
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
    _dv: np.ndarray | None = field(default=None, repr=False, compare=False)


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
    and, at the last iterate, the solution's F(Du), stress V = DF(Du) and
    Du.  The last iterate's F(Du), V and Du are dropped at the top of each
    step, before its linear solve, so a stalled search makes one more
    orders 0..1 pass at the iterate it returns.  The gradient g is zeroed
    off the interior once per pass; g, the Newton step and the direction
    are flat grid vectors, and the previous iterate and gradient, which
    the BB step reads, are the arrays themselves, not copies.  Each Newton
    matrix and its multigrid hierarchy are freed when the step's linear
    solve returns, and the Newton pattern and the levels' keep masks, built
    once at the first Newton step, when ``solve`` returns, so the solver's
    memory is bounded per step, not per run, and the mesh keeps none of it.
    ``method="gradient"`` forces the Barzilai-Borwein fallback throughout.
    Terminates when the interior gradient max-norm drops below tol_rel
    (1 + initial residual); hitting the iteration cap or an Armijo search
    that finds no decrease returns the best iterate flagged
    ``converged=False``, and ``stop_reason`` says which.

    On grids above ``COARSEST_N`` (all have coarser levels,
    ``prolongations``) the Newton step is inexact: multigrid-preconditioned
    CG stops once the linear residual is at most eta_k times the interior
    gradient g_k in the 2-norm, with the Eisenstat-Walker choice 2 forcing
    term eta_k = min(ETA_MAX, EW_GAMMA (|g_k| / |g_{k-1}|)^EW_ALPHA) and
    eta_0 = ETA_MAX.  Smaller grids solve each step directly.  Where CG
    fails SuperLU solves the step, and where the direct solve fails (the
    RuntimeError of a singular SuperLU factor or the
    ``np.linalg.LinAlgError`` of a singular line block; any other error
    propagates) or the step is not a descent direction a BB step is taken.
    ``linear_iterations`` records, per Newton step, the CG iterations, 0
    for a direct solve and -1 where one of these fallbacks fired.

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
    off = ~mesh.interior

    order = 2 if newton else 1
    energy, g, f, v, hz, du = assemble_energy(F, mesh, u, order=order)
    g[off] = 0.0
    res0 = float(np.abs(g).max())
    tol = tol_rel * (1.0 + res0)
    res = res0
    iterations = 0
    u_prev = None
    g_prev = None
    alpha_gd = 1.0
    cap = max_iter if newton else gd_max_iter
    stop_reason = "max_iter"
    gnorm = _norm(g)
    eta = ETA_MAX
    linear_iterations = []
    pattern = levels = None

    # "not <=" keeps iterating on a NaN residual, so that case ends with a
    # failed line search instead of passing as an untried iteration cap.
    while not res <= tol and iterations < cap:
        f = v = du = None           # the last iterate's fields die before the linear solve
        slope = None
        if newton:
            if pattern is None:
                # built once the initial pass's fields are dropped, so these
                # arrays of the whole solve do not sit beside them in the heap
                pattern, levels = newton_pattern(mesh), prolongations(mesh)
            # the Newton matrix lives only inside spsolve, and D2F(Du) only
            # until the matrix is built
            K, hz = _newton_matrix(mesh, hz, 1e-10 * (1.0 + res), pattern), None
            try:
                d, its = spsolve(K, -g, levels, rtol=eta)
            except (RuntimeError, np.linalg.LinAlgError):
                d = None
            K = None
            if d is not None and np.isfinite(d).all():
                slope = _dot(g, d)
                if not slope < 0.0:
                    slope = None
            linear_iterations.append(its if slope is not None else -1)
        if slope is None:
            if u_prev is not None:
                # on the interior only: u keeps the guess off the used nodes,
                # which may be NaN or inf
                s = np.subtract(u, u_prev, out=np.zeros_like(u), where=mesh.interior)
                alpha_gd = _bb_step(s, g - g_prev, alpha_gd)
                s = None
            else:
                alpha_gd = 1.0 / max(1.0, res)
            d = alpha_gd * -g
            slope = _dot(g, d)

        u_prev, g_prev = u, g
        accepted = _armijo(F, mesh, u, d, energy, slope, order)
        if accepted is None:
            stop_reason = "line_search_stalled"
            _, _, f, v, _, du = assemble_energy(F, mesh, u, order=1)
            break
        u, (energy, g, f, v, hz, du) = accepted
        accepted = None             # else it keeps D2F(Du) alive through the next solve
        g[off] = 0.0
        res = float(np.abs(g).max())
        gnorm_prev, gnorm = gnorm, _norm(g)
        eta = min(ETA_MAX, EW_GAMMA * (gnorm / gnorm_prev) ** EW_ALPHA)
        iterations += 1

    converged = bool(res <= tol)
    return GridSolution(
        problem=problem, mesh=mesh, u=u, du=du, energy_density=f, v=v, energy=energy,
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
    orientation o with the node as its vertex a, in the cell whose
    lower-left node is c = node - d_{o, a}, at c - c // n + o (n - 1)^2 on
    the flat grid of cells.  All areas are equal and a slot's barycenter
    lies at a fixed offset from the node, so the fit depends only on which
    slots are present.  The fits are grouped by that slot pattern: each
    group solves its 3x3 normal equations once and applies the resulting
    stencil to v, slot by slot, for interior, boundary and masked nodes
    alike.  Coordinates are scaled by the mesh width for conditioning.
    Degenerate patterns (corner nodes) fall back to a fit over the node's
    two-ring neighbourhood, taken in cell order, the order of v's rows, by
    one stacked ``np.linalg.pinv`` whose zero rows (absent and repeated
    cells) leave each minimum-norm least-squares fit as it is."""
    n, h = mesh.n, min(mesh.hx, mesh.hy)
    j, i = np.divmod(mesh.stencil_offsets, n)
    corner = np.stack([i * mesh.hx, j * mesh.hy], axis=-1)             # (2, 3, 2)
    dx = ((corner.mean(axis=1, keepdims=True) - corner) / h).reshape(6, 2)
    design = np.column_stack([np.ones(6), dx])                          # row 3 o + a
    code = mesh.node_tris().reshape(-1)
    order = np.argsort(code, kind="stable")
    ends = np.cumsum(np.bincount(code, minlength=64))
    cells = mesh.on_cells(v).reshape(-1, 2)
    d = mesh.stencil_offsets.reshape(6)

    def cell_at(nodes, q):                  # the cell of slot q of nodes
        c = nodes - d[q]
        return c - c // n + q // 3 * (n - 1) ** 2

    dv = np.zeros((mesh.n_nodes, 2, 2))
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
        # dv[:, :, k] sums w_kq v_q over the slots q in order, gathering one
        # slot at a time so that no more than one gather is held at once
        taps = (cells[cell_at(nodes, q)] for q in s)
        tap = next(taps)
        acc = [weights[0, 0] * tap, weights[1, 0] * tap]
        for wq, tap in zip(weights.T[1:], taps):
            for k in range(2):
                acc[k] += wq[k] * tap
        for k in range(2):
            dv[nodes, :, k] = acc[k]

    if bad:
        # the two-ring of each degenerate node: the triangles at the vertices
        # of its own, for all such nodes at once
        bad, slots = np.concatenate(bad), np.arange(6)
        own = np.where(code[bad, None] >> slots & 1, cell_at(bad[:, None], slots), -1)
        o, c = np.divmod(np.maximum(own, 0), (n - 1) ** 2)
        vertices = (c + c // (n - 1))[..., None, None] + d.reshape(2, 3)[o, :, None]
        ring = np.where(code[vertices] >> slots & 1, cell_at(vertices, slots), -1)
        ring[own < 0] = -1                                               # (b, 6, 3, 6)
        # each patch in increasing cell order, each cell once
        r = np.sort(ring.reshape(bad.size, -1), axis=1)
        first = r >= 0
        first[:, 1:] &= r[:, 1:] != r[:, :-1]
        r = np.maximum(r, 0)
        o, c = np.divmod(r, (n - 1) ** 2)
        j, i = np.divmod(c, n - 1)
        bx, by = mesh.bary_axes()
        A = np.stack([np.ones(r.shape), (bx[o, i] - mesh.nodes[bad, 0, None]) / h,
                      (by[o, j] - mesh.nodes[bad, 1, None]) / h], axis=-1)
        first = first[..., None]
        coef = np.linalg.pinv(np.where(first, A, 0.0)) @ np.where(first, cells[r], 0.0)
        dv[bad] = coef[:, 1:].transpose(0, 2, 1) / h
    return dv


def _vertex_average(mesh, nodal):
    """Per triangle, the mean of nodal values (N, ...) at its three
    vertices, summed in vertex order and divided by 3, from the vertex
    slices of the (n, n, ...) node grid."""
    out = np.empty((mesh.n_tris,) + nodal.shape[1:])
    grid = nodal.reshape((mesh.n, mesh.n) + nodal.shape[1:])
    for o, blk in enumerate(mesh.blocks):
        D = mesh.at_vertices(grid, o)
        avg = out[blk].reshape(D[0].shape)
        np.add(D[0], D[1], out=avg)
        avg += D[2]
        avg /= 3
    return out


def stress_field(solution):
    """Recovered DV of the solution's stress V = ``solution.v``, (M, 2, 2):
    per triangle, the vertex average of the nodal fits of ``_recover_dv``,
    dv[t, c, j] = d_j V_c.  It is computed on first use and kept on the
    solution; the nodal fits are not."""
    if solution._dv is None:
        solution._dv = _vertex_average(solution.mesh, _recover_dv(solution.mesh, solution.v))
    return solution._dv
