import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

import quc
from quc.config import compile_boundary_expression
from quc.integrand import PowerIntegrand
from quc.solver import (COARSEST_N, Mesh, SolverError, StencilMatrix, _coons_init, _dot,
                        _galerkin, _newton_matrix, _norm, _pair_with_hats, _pcg,
                        _prolong, _recover_dv, _restrict, _tri_gradients, assemble_energy,
                        newton_pattern, prolongations, spsolve, stress_field)


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

def _orientations(tris):
    """Orientation of each triangle of an (M, 3) vertex table: 0 where
    vertex 1 is the right neighbour of vertex 0 (a lower triangle), else 1."""
    return (tris[:, 1] - tris[:, 0] != 1).astype(np.int8)


def test_mesh_partition_geometry():
    m = Mesh(((0.0, 1.0), (0.0, 2.0)), 17)
    assert np.full(m.n_tris, m.area).sum() == pytest.approx(2.0, rel=1e-12)
    # hat gradients sum to zero on every triangle
    np.testing.assert_allclose(m.stencil_grads[_orientations(m.triangles())].sum(axis=1), 0.0,
                               atol=1e-12)
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
    e = assemble_energy(F, m, np.zeros(m.n_nodes), order=0)[0]
    assert e == 0.0


def test_energy_linear_field_quadratic():
    F = quc.make_power(2.0)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    e = assemble_energy(F, m, m.nodes[:, 0], order=0)[0]
    assert e == pytest.approx(0.5, rel=1e-12)


def test_energy_linear_field_power3():
    F = quc.make_power(3.0)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    e = assemble_energy(F, m, m.nodes[:, 0] + m.nodes[:, 1], order=0)[0]
    assert e == pytest.approx(2.0**1.5 / 3.0, rel=1e-12)


def test_assembled_gradient_matches_fd(rng):
    F = quc.make_power(2.5)
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 9)
    u = rng.uniform(-1, 1, m.n_nodes)
    g = assemble_energy(F, m, u, order=1)[1]
    h = 1e-6
    for idx in rng.integers(0, m.n_nodes, 12):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        ep = assemble_energy(F, m, up, order=0)[0]
        em = assemble_energy(F, m, um, order=0)[0]
        fd = (ep - em) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


DISK = (np.array([0.5, 0.5]), 0.45)


def _element_matrices(m, hz):
    """Matrices area_T D(phi_a) . D2F(Du_T) D(phi_b) of all triangles, as a
    (9, M) array whose row 3 a + b holds entry (a, b): per orientation a
    fixed linear map of (h00, h01, h11), h01 the mean of the off-diagonal
    entries of D2F."""
    h = (np.ascontiguousarray(hz[:, 0, 0]), 0.5 * (hz[:, 0, 1] + hz[:, 1, 0]),
         np.ascontiguousarray(hz[:, 1, 1]))
    out = np.empty((9, m.n_tris))
    for blk, G in zip(m.blocks, m.stencil_grads):
        g0, g1 = G[:, 0], G[:, 1]
        C = m.area * np.stack([np.outer(g0, g0), np.outer(g0, g1) + np.outer(g1, g0),
                                   np.outer(g1, g1)], axis=-1).reshape(9, 3)
        h0, h1, h2 = (x[blk] for x in h)
        tmp = np.empty_like(h0)
        for e in range(9):
            row = np.multiply(h0, C[e, 0], out=out[e, blk])
            row += np.multiply(h1, C[e, 1], out=tmp)
            row += np.multiply(h2, C[e, 2], out=tmp)
    return out


def _scatter_newton_data(m, hz, mu):
    """CSR data of the Newton matrix summed element by element: a (9, M)
    slot table maps entry (a, b) of triangle t to its place in the data
    (or to a dropped extra place when a or b is not interior), one bincount
    sums the element matrices in the order of their rows, and mu joins the
    diagonal last."""
    n, ii = m.n, np.flatnonzero(m.interior)
    stencil = np.array([-n - 1, -n, -1, 0, 1, n, n + 1])
    pos = np.full(m.n_nodes, -1, dtype=np.int64)
    pos[ii] = np.arange(ii.size)
    present = pos[ii[:, None] + stencil] >= 0
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    place = np.where(present, indptr[:-1, None] + np.cumsum(present, axis=1) - 1, indptr[-1])
    flat = np.append(place.ravel(), np.full(stencil.size, indptr[-1]))
    d = m.stencil_offsets
    column = np.searchsorted(stencil, d[:, None, :] - d[:, :, None])   # [o, a, b]
    slots = np.empty((9, m.n_tris), dtype=np.int64)
    tris = m.triangles()
    for o, blk in enumerate(m.blocks):
        for a in range(3):
            row = stencil.size * pos[tris[blk, a]]
            for b in range(3):
                slots[3 * a + b, blk] = flat[row + column[o, a, b]]
    data = np.bincount(slots.ravel(), weights=_element_matrices(m, hz).ravel(),
                       minlength=indptr[-1] + 1)[:-1]
    data[place[:, 3]] += mu
    return data


def _csr(K):
    """K on its unknowns ``K.keep``, in row-major order, as the CSR matrix
    it is checked against: row by row, the pattern's entries in offset
    order."""
    n, ii = K.n, np.flatnonzero(K.keep)
    present = K.pattern.reshape(7, -1)[:, ii].T
    pos = np.full(n * n, -1, dtype=np.int64)
    pos[ii] = np.arange(ii.size)
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    gather = (np.arange(7) * n * n + ii[:, None])[present]
    indices = pos[ii[:, None] + quc.solver._stencil(n)][present]
    return sparse.csr_matrix((np.take(K.coef, gather), indices, indptr),
                             shape=(ii.size, ii.size))


@pytest.mark.parametrize("n, bounds, mask", [
    (33, ((0.0, 1.0), (0.0, 1.0)), None),
    (33, ((0.0, 1.0), (0.0, 1.0)), DISK),
    (32, ((0.0, 1.0), (0.0, 2.0)), None),
    (9, ((0.0, 1.0), (0.0, 1.0)), None),
], ids=["square", "disk", "even-rectangle", "n9"])
def test_stencil_newton_matrix_equals_the_element_scatter(n, bounds, mask, rng):
    # magnitudes over ten decades, so that a sum taken in another order
    # would show in the last bits
    m = Mesh(bounds, n, mask=mask)
    A = rng.standard_normal((m.n_tris, 2, 2)) * np.exp(rng.uniform(-12, 12, (m.n_tris, 1, 1)))
    hz = A @ A.transpose(0, 2, 1)
    K = _newton_matrix(m, hz, 0.25)
    ref = _scatter_newton_data(m, hz, 0.25)
    assert np.array_equal(_csr(K).data.view(np.int64), ref.view(np.int64))


def _coo_pattern(m):
    """Row and column of each local entry (t, a, b) of an (M, 3, 3) array."""
    tris = m.triangles()
    return np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, (1, 3)).ravel()


def _assemble_hessian(m, hz):
    """Hessian of the discrete energy over all nodes, (N, N) CSR: the element
    matrices scattered through COO triplets."""
    local = _element_matrices(m, hz).T.reshape(-1, 3, 3)
    return sparse.coo_matrix((local.ravel(), _coo_pattern(m)),
                             shape=(m.n_nodes, m.n_nodes)).tocsr()


@pytest.mark.parametrize("mask", [None, DISK])
def test_newton_matrix_matches_coo_path(mask, rng):
    # Each entry sums at most 6 element terms (7 with the shift on the
    # diagonal); two orders of summing k terms differ by at most
    # (k - 1) eps sum|terms| to first order, so by 6 eps sum|terms|.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 33, mask=mask)
    A = rng.standard_normal((m.n_tris, 2, 2))
    hz = A @ A.transpose(0, 2, 1)
    mu = 0.25
    ii = np.flatnonzero(m.interior)
    shift = mu * sparse.identity(ii.size, format="csr")
    ref = (_assemble_hessian(m, hz)[ii][:, ii] + shift).toarray()
    K = _newton_matrix(m, hz, mu)
    local = np.abs(_element_matrices(m, hz)).T.ravel()
    terms = sparse.coo_matrix((local, _coo_pattern(m)),
                              shape=(m.n_nodes, m.n_nodes)).tocsr()[ii][:, ii] + shift
    assert np.array_equal(K.keep.ravel(), m.interior)
    assert np.all(np.abs(_csr(K).toarray() - ref) <= 6 * np.finfo(float).eps * terms.toarray())
    assert K.nnz == np.count_nonzero(terms.toarray())


@pytest.mark.parametrize("mask", [None, DISK])
def test_newton_matrices_share_the_pattern(mask, rng):
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 33, mask=mask)
    pattern = newton_pattern(m)
    assert pattern.dtype == bool and pattern.shape == (7, m.n, m.n)
    for _ in range(2):
        A = rng.standard_normal((m.n_tris, 2, 2))
        K = _newton_matrix(m, A @ A.transpose(0, 2, 1), 0.25, pattern)
        assert np.shares_memory(K.pattern, pattern)


def _general_geometry(m):
    """Areas, hat gradients (M, 3, 2) and barycenters of the triangles,
    computed from their node coordinates as for an arbitrary mesh."""
    P = m.nodes[m.triangles()]
    e = np.stack([P[:, 2] - P[:, 1], P[:, 0] - P[:, 2], P[:, 1] - P[:, 0]], axis=1)
    twoA = e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0])
    grads = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2) / twoA[:, None, None]
    return 0.5 * np.abs(twoA), grads, P.mean(axis=1)


def _general_recover_dv(m, areas, bary, v):
    """Patchwise least-squares DV with per-triangle weights and offsets,
    accumulated node by node: the normal equations of each node's incident
    triangles, or lstsq over its two-ring where they are degenerate."""
    N, h = m.n_nodes, min(m.hx, m.hy)
    tris = m.triangles()
    Mn, Rn = np.zeros((N, 3, 3)), np.zeros((N, 3, 2))
    for a in range(3):
        dx = (bary - m.nodes[tris[:, a]]) / h
        design = np.column_stack([np.ones(m.n_tris), dx])
        np.add.at(Mn, tris[:, a], areas[:, None, None] * design[:, :, None] * design[:, None, :])
        np.add.at(Rn, tris[:, a], areas[:, None, None] * design[:, :, None] * v[:, None, :])
    good = m.used & (np.linalg.det(Mn) > 1e-10 * np.maximum(Mn[:, 0, 0], 1e-300) ** 3)
    dv = np.zeros((N, 2, 2))
    dv[good] = np.linalg.solve(Mn[good], Rn[good])[:, 1:, :].transpose(0, 2, 1) / h
    kappa = np.ones(N)
    kappa[good] = np.linalg.cond(Mn[good])            # cond of the weighted design, squared
    for a in np.where(m.used & ~good)[0]:
        patch = np.where(np.isin(tris, tris[(tris == a).any(axis=1)]).any(axis=1))[0]
        dx = (bary[patch] - m.nodes[a]) / h
        design = np.column_stack([np.ones(patch.size), dx]) * np.sqrt(areas[patch])[:, None]
        coef, *_ = np.linalg.lstsq(design, v[patch] * np.sqrt(areas[patch])[:, None], rcond=None)
        dv[a] = coef[1:].T / h
        kappa[a] = np.linalg.cond(design)
    return dv, kappa


@pytest.mark.parametrize("bounds, mask", [
    (((0.0, 1.0), (0.0, 1.0)), None),
    (((0.0, 1.0), (0.0, 1.0)), (np.array([0.5, 0.5]), 0.44)),
    (((0.0, 2.0), (0.0, 1.0)), None),
], ids=["square", "disk", "rectangle"])
def test_stencil_kernels_match_general_triangles(bounds, mask, rng):
    # np.linspace places a node within 4 eps X of its grid point (X the
    # largest coordinate), and nodes on one grid line share that coordinate,
    # so an edge vector, and hx or hy, is within delta = eps (1 + 8 X / h)
    # of its nominal value, relative to h.  A general hat gradient perp(e) / 2A
    # and its stencil 1 / hx then differ by at most 4 delta + 2 eps <= 6 delta,
    # the areas by 5 delta, relative.  Each bound below adds these relative
    # errors over the factors of one term and a summation error of eps per
    # term and side, against the sum of the terms' magnitudes.
    eps = np.finfo(float).eps
    m = Mesh(bounds, 33, mask=mask)
    h = min(m.hx, m.hy)
    delta = eps * (1.0 + 8.0 * np.abs(m.bounds).max() / h)
    areas, grads, bary = _general_geometry(m)
    tris = m.triangles()
    orient = _orientations(tris)
    assert m.n_lower == np.count_nonzero(orient == 0)
    assert np.all(np.diff(orient) >= 0)
    assert np.array_equal(m.barycenters(), bary)
    assert np.all(np.abs(np.full(m.n_tris, m.area) - areas) <= 5 * delta * areas)
    assert np.all(np.abs(m.stencil_grads[orient] - grads) <= 6 * delta * np.abs(grads).max())

    u = rng.standard_normal(m.n_nodes)
    terms = np.abs(grads) * np.abs(u[tris])[:, :, None]
    ref = (grads * u[tris][:, :, None]).sum(axis=1)
    assert np.all(np.abs(_tri_gradients(m, u) - ref) <= 8 * delta * terms.sum(axis=1))

    v = rng.standard_normal((m.n_tris, 2))
    contrib = areas[:, None] * (grads * v[:, None, :]).sum(axis=2)
    scale = np.zeros(m.n_nodes)
    np.add.at(scale, tris.ravel(), (areas[:, None] * (np.abs(grads) * np.abs(v)[:, None, :])
                                    .sum(axis=2)).ravel())
    ref = np.zeros(m.n_nodes)
    np.add.at(ref, tris.ravel(), contrib.ravel())
    pair = _pair_with_hats(m, v)
    assert np.all(np.abs(pair - ref) <= 24 * delta * scale)
    # the stencil's own contributions, scattered by np.add.at: the same bits
    W = np.full(m.n_tris, m.area)[:, None, None] * m.stencil_grads[orient]
    own = np.zeros(m.n_nodes)
    np.add.at(own, tris.ravel(), (W[:, :, 0] * v[:, None, 0] + W[:, :, 1] * v[:, None, 1]).ravel())
    assert np.array_equal(pair, own)

    A = rng.standard_normal((m.n_tris, 2, 2))
    hz = A @ A.transpose(0, 2, 1)
    ref = areas[:, None, None] * (grads @ hz @ grads.transpose(0, 2, 1))
    size = areas[:, None, None] * (np.abs(grads) @ np.abs(hz) @ np.abs(grads).transpose(0, 2, 1))
    local = _element_matrices(m, hz).T.reshape(-1, 3, 3)
    assert np.all(np.abs(local - ref) <= 25 * delta * size)
    # an entry of the Newton matrix sums at most 6 such terms and the shift
    ii = np.flatnonzero(m.interior)
    mu = 0.25
    shift = mu * sparse.identity(ii.size, format="csr")
    scatter = lambda x: sparse.coo_matrix((x.ravel(), _coo_pattern(m)),
                                          shape=(m.n_nodes, m.n_nodes)).tocsr()[ii][:, ii]
    K = _csr(_newton_matrix(m, hz, mu)).toarray()
    assert np.all(np.abs(K - (scatter(ref) + shift).toarray())
                  <= 37 * delta * (scatter(size) + shift).toarray())

    # DV: the fits see offsets and weights within a few delta of the
    # stencil's, and the normal equations add kappa^2 eps on each side
    # (kappa the weighted design's condition number, squared in cond(Mn));
    # lstsq fallbacks add kappa eps
    dv_ref, kappa = _general_recover_dv(m, areas, bary, v)
    tol = 16 * kappa.max() * delta * np.abs(v).max() / h
    dv = _recover_dv(m, v)
    assert np.abs(dv - dv_ref).max() <= tol
    assert not dv[~m.used].any()


def _gather_references(m, u, v, nodal):
    """Du, the hat pairing, the vertex average of nodal values and the
    barycenters as gathers through the (M, 3) vertex table and one
    bincount, in the operation order of the per-triangle kernels."""
    tris = m.triangles()
    U = u[tris]
    du, contrib = np.empty((m.n_tris, 2)), np.empty((m.n_tris, 3))
    for blk, G in zip(m.blocks, m.stencil_grads):
        Ub, vb, W = U[blk], v[blk], m.area * G
        for k in range(2):
            du[blk, k] = G[0, k] * Ub[:, 0] + G[1, k] * Ub[:, 1] + G[2, k] * Ub[:, 2]
        for a in range(3):
            contrib[blk, a] = W[a, 0] * vb[:, 0] + W[a, 1] * vb[:, 1]
    pair = np.bincount(tris.ravel(), weights=contrib.ravel(), minlength=m.n_nodes)
    t0, t1, t2 = tris.T
    average = (nodal[t0] + nodal[t1] + nodal[t2]) / 3
    bary = (m.nodes[t0] + m.nodes[t1] + m.nodes[t2]) / 3
    return du, pair, average, bary


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _signed(rng, shape, zeros=0.3):
    """Values of both signs over twenty decades, a share of them +0.0 or -0.0."""
    x = rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(-23.0, 23.0, shape))
    x[rng.random(shape) < zeros] = 0.0
    return np.copysign(x, rng.choice([-1.0, 1.0], shape))


@pytest.mark.parametrize("bounds, mask", [
    (((0.0, 1.0), (0.0, 1.0)), None),
    (((0.0, 1.0), (0.0, 1.0)), DISK),
    (((-1.0, 1.0), (0.0, 2.0)), None),
], ids=["square", "disk", "signed-rectangle"])
def test_cell_grid_kernels_give_the_bits_of_the_gather_and_bincount(bounds, mask):
    # Du, the pairing, the vertex average and the barycenters summed on the
    # grids, against the same sums through the vertex table, with signed
    # zeros; on the disk, nodes off the kept triangles hold nan and inf,
    # which must neither reach a kept triangle nor raise a warning
    import warnings

    from quc.estimates import _ball_tris
    from quc.solver import _vertex_average

    rng = np.random.default_rng(11)
    m = Mesh(bounds, 33, mask=mask)
    u = _signed(rng, m.n_nodes)
    v = _signed(rng, (m.n_tris, 2))
    nodal = _signed(rng, (m.n_nodes, 2, 2))
    if mask is not None:
        off = ~m.used
        assert off.any()
        u[off] = rng.choice([np.nan, np.inf, -np.inf], off.sum())
        nodal[off] = np.nan
    du, pair, average, bary = _gather_references(m, u, v, nodal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_bits(_tri_gradients(m, u)), _bits(du))
        assert np.array_equal(_bits(_pair_with_hats(m, v)), _bits(pair))
        assert np.array_equal(_bits(_vertex_average(m, nodal)), _bits(average))
        assert np.array_equal(_bits(m.barycenters()), _bits(bary))
        for center, radius in (((0.5, 0.5), 0.3), ((0.0, 1.0), 0.7)):
            inside = np.hypot(bary[:, 0] - center[0], bary[:, 1] - center[1]) <= radius
            assert np.array_equal(_ball_tris(m, center, radius), inside)
    # the slot code of node_tris from the vertex table: bit 3 o + k at each
    # vertex k of every triangle of orientation o
    tris = m.triangles()
    code = np.zeros(m.n_nodes, dtype=np.uint8)
    for o, blk in enumerate(m.blocks):
        for k in range(3):
            code[tris[blk, k]] |= np.uint8(1 << (3 * o + k))
    assert np.array_equal(m.node_tris().ravel(), code)
    assert np.array_equal(m.interior, code == 63) and np.array_equal(m.used, code > 0)


def _node_tri_table(m):
    """(N, 6) node-triangle table: entry (a, 3 o + k) is the triangle of
    orientation o that has node a as its vertex k, or -1."""
    tris = m.triangles()
    table = np.full((m.n_nodes, 6), -1)
    for o, blk in enumerate(m.blocks):
        for k in range(3):
            table[tris[blk, k], 3 * o + k] = np.arange(blk.start, blk.stop)
    return table


def _slot_table_recover_dv(m, v):
    """The patch fits of ``_recover_dv`` through the (N, 6) node-triangle
    table and triangle ids: per slot pattern one stencil of normal
    equations gathered through the table, and on degenerate patterns one
    stacked pinv over the two-rings in increasing triangle order, with zero
    rows for absent and repeated triangles."""
    N, h = m.n_nodes, min(m.hx, m.hy)
    j, i = np.divmod(m.stencil_offsets, m.n)
    corner = np.stack([i * m.hx, j * m.hy], axis=-1)
    dx = ((corner.mean(axis=1, keepdims=True) - corner) / h).reshape(6, 2)
    design = np.column_stack([np.ones(6), dx])
    slot_tri = _node_tri_table(m)
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
        weights = np.linalg.solve(gram, A.T)[1:] / h
        taps = [v[slot_tri[nodes, q]] for q in s]
        for k in range(2):
            acc = weights[k, 0] * taps[0]
            for w, tap in zip(weights[k, 1:], taps[1:]):
                acc += w * tap
            dv[nodes, :, k] = acc
    if bad:
        bad = np.concatenate(bad)
        own = slot_tri[bad]
        ring = slot_tri[m.triangles()[np.maximum(own, 0)]]
        ring[own < 0] = -1
        ring = np.sort(ring.reshape(bad.size, -1), axis=1)
        first = (ring >= 0)[..., None]
        first[:, 1:] &= (ring[:, 1:] != ring[:, :-1])[..., None]
        t = np.maximum(ring, 0)
        offset = (m.barycenters()[t] - m.nodes[bad, None]) / h
        A = np.concatenate([np.ones(t.shape + (1,)), offset], axis=-1)
        coef = np.linalg.pinv(np.where(first, A, 0.0)) @ np.where(first, v[t], 0.0)
        dv[bad] = coef[:, 1:].transpose(0, 2, 1) / h
    return dv


@pytest.mark.parametrize("bounds, mask", [
    (((0.0, 1.0), (0.0, 1.0)), None),
    (((0.0, 1.0), (0.0, 1.0)), DISK),
    (((0.0, 1.0), (0.0, 1.0)), (np.array([0.3, 0.62]), 0.37)),
    (((0.0, 2.0), (0.0, 1.0)), None),
], ids=["square", "disk", "off-centre-disk", "rectangle"])
def test_recover_dv_on_the_cell_grid_gives_the_bits_of_the_slot_table(bounds, mask):
    # the stress read by cell-grid arithmetic, slot by slot, and the
    # two-ring fallbacks in cell order: the same taps in the same order as
    # through the node-triangle table, with signed zeros among them
    rng = np.random.default_rng(13)
    m = Mesh(bounds, 33, mask=mask)
    v = _signed(rng, (m.n_tris, 2))
    # nodes on at most two triangles (the grid's corners, more on the
    # disks) have collinear barycenters and take the fallback
    slots = sum((m.node_tris().ravel() >> q) & 1 for q in range(6))
    assert np.count_nonzero(m.used & (slots <= 2)) >= 4
    dv = _recover_dv(m, v)
    assert np.array_equal(_bits(dv), _bits(_slot_table_recover_dv(m, v)))
    assert not dv[~m.used].any()


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
    levels = prolongations(m)
    assert len(levels) == 2     # 65 -> 33 -> 17
    n, keep = m.n, m.interior
    for coarse in levels:
        nc = (n + 1) // 2
        coarse_keep = keep.reshape(n, n)[::2, ::2].ravel()
        uc = np.zeros(nc * nc)
        uc[coarse_keep] = rng.integers(-2**20, 2**20, int(coarse_keep.sum())) / 2**10
        assert coarse.shape == (nc, nc) and np.array_equal(coarse.ravel(), coarse_keep)
        uf = _prolong(uc, keep.reshape(n, n))
        np.testing.assert_array_equal(uf[keep], _coarse_p1_values(n, uc)[keep])
        assert not uf[~keep].any()
        n, keep = nc, coarse_keep
    if mask is None:
        np.testing.assert_array_equal(keep, Mesh(((0.0, 1.0), (0.0, 1.0)), 17).interior)


def _p1_prolongation(n, fine_keep):
    """Exact P1 prolongation from grid (n + 1) / 2 to grid n (n odd) as a
    CSR matrix, the reference for the stencil ``_prolong``, ``_restrict``
    and ``_galerkin``.

    Fine node (2J, 2I) takes coarse node (J, I); a node on an odd x or odd
    y line takes the mean of its two neighbours on that line; an odd-odd
    node takes the mean of (J, I) and (J + 1, I + 1), the ends of the
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


@pytest.mark.parametrize("mask", [None, DISK])
def test_stencil_prolongation_and_restriction_equal_the_csr_matrix(mask, rng):
    # Dyadic values: P and P^T sum at most 7 of them with weights 1/2 and 1,
    # exactly, so both sides are the exact products whatever their order.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 129, mask=mask)
    n, keep = m.n, m.interior
    dyadic = lambda size: rng.integers(-2**20, 2**20, size) / 2**10
    for coarse in prolongations(m):
        P, coarse_keep = _p1_prolongation(n, keep)
        assert np.array_equal(coarse.ravel(), coarse_keep)
        uc = np.zeros(coarse.size)
        uc[coarse_keep] = dyadic(P.shape[1])
        uf = _prolong(uc, keep.reshape(n, n))
        assert np.array_equal(uf[keep], P @ uc[coarse_keep]) and not uf[~keep].any()
        rf = np.zeros(n * n)
        rf[keep] = dyadic(P.shape[0])
        rc = _restrict(rf, coarse)
        assert np.array_equal(rc[coarse_keep], P.T @ rf[keep]) and not rc[~coarse_keep].any()
        n, keep = coarse.shape[0], coarse_keep


def test_galerkin_coarsening_is_exact():
    # With D2F = Id the Newton matrix is the P1 stiffness matrix, and P1
    # spaces nest, so P^T K_fine P is the coarse stiffness matrix.  The
    # product sums at most r terms for K P and c for P^T (K P) (r, c the
    # largest row count of K and column count of P): the computed entries
    # lie within gamma_{r+c} (|P|^T |K| |P|) of the exact ones.  The stencil
    # product sums at most 19 terms scaled by powers of two: gamma_18.
    fine = Mesh(((0.0, 1.0), (0.0, 1.0)), 33)
    coarse = Mesh(((0.0, 1.0), (0.0, 1.0)), 17)
    ident = lambda m: np.broadcast_to(np.eye(2), (m.n_tris, 2, 2))
    K, Kc = _newton_matrix(fine, ident(fine), 0.0), _newton_matrix(coarse, ident(coarse), 0.0)
    (keep,) = prolongations(fine)
    P, _ = _p1_prolongation(fine.n, fine.interior)
    Kf, Kc = _csr(K), _csr(Kc).toarray()
    k = np.diff(Kf.indptr).max() + np.diff(P.tocsc().indptr).max()
    gamma = k * np.finfo(float).eps / (1 - k * np.finfo(float).eps)
    bound = gamma * (abs(P).T @ abs(Kf) @ abs(P)).toarray()
    assert np.all(np.abs((P.T @ Kf @ P).toarray() - Kc) <= bound)
    gamma = 18 * np.finfo(float).eps / (1 - 18 * np.finfo(float).eps)
    bound = gamma * (abs(P).T @ abs(Kf) @ abs(P)).toarray()
    assert np.all(np.abs(_csr(_galerkin(K, keep)).toarray() - Kc) <= bound)


@pytest.mark.parametrize("n, mask", [(33, None), (33, DISK), (65, None), (65, DISK),
                                     (193, DISK)], ids=["33", "33-disk", "65", "65-disk",
                                                        "193-disk-chain"])
def test_stencil_galerkin_matches_scipy(n, mask, rng):
    # Down the whole hierarchy, each level from the stencil of the level
    # above: the stencil sums at most 19 products of a coefficient with
    # weights that are powers of two (exact), so it lies within
    # gamma_18 (|P|^T |A| |P|) of the exact P^T A P; scipy's product lies
    # within gamma_{r+c} of it (see test_galerkin_coarsening_is_exact), and
    # gamma_a + gamma_b <= gamma_{a+b}.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), n, mask=mask)
    A = rng.standard_normal((m.n_tris, 2, 2)) * np.exp(rng.uniform(-3, 3, (m.n_tris, 1, 1)))
    B = _newton_matrix(m, A @ A.transpose(0, 2, 1), 1e-3)
    keep, sizes = m.interior, []
    for coarse in prolongations(m):
        P, _ = _p1_prolongation(B.n, keep)
        Bf = _csr(B)
        k = 18 + np.diff(Bf.indptr).max() + np.diff(P.tocsc().indptr).max()
        gamma = k * np.finfo(float).eps / (1 - k * np.finfo(float).eps)
        B = _galerkin(B, coarse)
        excess = abs(_csr(B) - P.T @ Bf @ P) - gamma * (abs(P).T @ abs(Bf) @ abs(P))
        assert excess.max() <= 0
        assert np.array_equal(B.keep, coarse) and B.nnz == _csr(B).nnz
        keep = coarse.ravel()
        sizes.append(B.n)
    assert sizes == {33: [17], 65: [33, 17], 193: [97, 49, 25, 13]}[n]


@pytest.mark.parametrize("n, mask", [(33, None), (33, DISK), (32, None), (16, DISK), (9, None)])
def test_stencil_matrix_matches_its_csr_matrix(n, mask, rng):
    # The matvec sums the same products as the CSR row product, in the
    # order of the CSR columns, each product and sum rounded once: the same
    # bits.  An off-pattern coefficient is 0 and meets a 0 of the grid.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), n, mask=mask)
    A = rng.standard_normal((m.n_tris, 2, 2))
    K = _newton_matrix(m, A @ A.transpose(0, 2, 1), 0.25)
    C = _csr(K)
    keep = K.keep.ravel()
    assert np.array_equal(keep, m.interior)
    x = np.zeros(n * n)
    x[keep] = rng.standard_normal(C.shape[0])
    y = K.apply(x)
    assert np.array_equal(y[keep], C @ x[keep]) and not y[~keep].any()
    assert np.array_equal(K.coef[3].ravel()[keep], C.diagonal())
    assert K.nnz == C.nnz


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
    """The mesh, the first Newton matrix and its right-hand side, a grid
    vector zero off the interior."""
    m = prob.mesh()
    u = _coons_init(m, prob.boundary_values(m))
    _, g, _, _, hz, _ = assemble_energy(prob.integrand, m, u, order=2)
    return m, _newton_matrix(m, hz, 0.0), np.where(m.interior, -g, 0.0)


@pytest.mark.parametrize("make_problem, sizes", [
    (_p3_oracle, (33, 65, 129)), (_disk_blend, (33, 65, 129)),
    # even grids solve on the hierarchies of the padded grids 37, 73 and 145
    (_p3_oracle, (34, 66, 130)), (_disk_blend, (34, 66, 130))],
    ids=["_p3_oracle", "_disk_blend", "_p3_oracle-even", "_disk_blend-even"])
def test_pcg_iterations_do_not_grow_with_the_grid(make_problem, sizes):
    counts = []
    for n in sizes:
        m, K, b = _first_newton_system(make_problem(n))
        x, its = spsolve(K, b, prolongations(m), rtol=1e-8)
        assert its > 0 and np.linalg.norm(b - K.apply(x)) <= 1e-8 * np.linalg.norm(b)
        counts.append(its)
        sol = quc.solve(make_problem(n))
        assert sol.converged and len(sol.linear_iterations) == sol.iterations
        assert min(sol.linear_iterations) > 0        # no fallback fired
    assert counts[-1] - counts[0] <= 2


@pytest.mark.parametrize("n", [100, 193])
@pytest.mark.parametrize("make_problem", [_p3_oracle, _disk_blend])
def test_jacobi_damping_is_below_the_gershgorin_limit(make_problem, n, monkeypatch):
    """A damped Jacobi sweep x += omega D^-1 (b - A x) multiplies the error
    by E = I - omega D^-1 A.  For A symmetric positive definite, E is
    self-adjoint in the A inner product, and its eigenvalues are
    1 - omega lambda over the eigenvalues lambda > 0 of D^-1 A (similar to
    D^-1/2 A D^-1/2).  So |E|_A < 1 iff omega lambda_max(D^-1 A) < 2.  Row i
    of D^-1 A has 1 on the diagonal and a_ij / a_ii off it, so by
    Gershgorin's theorem lambda_max <= max_i (1 + sum_{k != 3} |c_k| / c_3)
    over the kept nodes, c_k the stencil coefficients of row i and c_3 > 0
    its diagonal.  The test checks omega times that bound on every level
    that ``spsolve`` builds, the padded ones of n = 100 (105 -> 53 -> 27 ->
    14) and those of n = 193."""
    built = []
    vcycle = quc.solver._vcycle

    def record(A, levels):
        built.append((A, levels))
        return vcycle(A, levels)

    monkeypatch.setattr(quc.solver, "_vcycle", record)
    m, K, b = _first_newton_system(make_problem(n))
    spsolve(K, b, prolongations(m))
    ((B, levels),) = built
    assert B.n == {100: 105, 193: 193}[n]
    for keep in [None, *levels]:
        B = B if keep is None else _galerkin(B, keep)
        c = B.coef[:, B.keep]
        assert (c[3] > 0).all()
        bound = (1.0 + np.abs(np.delete(c, 3, axis=0)).sum(axis=0) / c[3]).max()
        assert quc.solver.JACOBI_DAMPING * bound < 2.0


def test_pcg_failure_falls_back_to_superlu(monkeypatch):
    from scipy.sparse.linalg import spsolve as scipy_spsolve

    m, K, b = _first_newton_system(_p3_oracle(33))
    ii = np.flatnonzero(K.keep)
    ref = scipy_spsolve(_csr(K).tocsc(), b[ii])
    bound = 2.0 * np.linalg.cond(_csr(K).toarray()) * np.finfo(float).eps
    # a negative definite matrix: r.z < 0 and p.Ap < 0 at the first step
    negative = StencilMatrix(-K.coef, K.pattern)
    x, its = spsolve(negative, b, prolongations(m))
    assert its == -1
    assert np.linalg.norm(x[ii] + ref) <= bound * np.linalg.norm(ref)
    # plain CG would converge on -K within this cap; the curvature test stops it
    monkeypatch.setattr(quc.solver, "PCG_MAXITER", 10 * ii.size)
    assert quc.solver._pcg(negative.apply, b, lambda r: r, 1e-8) is None
    # an iteration cap of 0
    monkeypatch.setattr(quc.solver, "PCG_MAXITER", 0)
    x, its = spsolve(K, b, prolongations(m))
    assert its == -1
    assert np.linalg.norm(x[ii] - ref) <= bound * np.linalg.norm(ref)
    sol = quc.solve(_p3_oracle(33))
    assert sol.stop_reason == "tol"
    assert sol.linear_iterations == [-1] * sol.iterations


def _no_cyclic_gc(fn):
    """fn() with the cyclic garbage collector off, so that whatever fn
    leaves alive is held by references and not by a pending collection."""
    gc.collect()
    gc.disable()
    try:
        return fn()
    finally:
        gc.enable()


def test_spsolve_frees_the_matrix_and_its_hierarchy():
    def run():
        m, K, b = _first_newton_system(_p3_oracle(33))
        ref = weakref.ref(K)
        _, its = spsolve(K, b, prolongations(m))
        del K
        return its, ref() is None

    its, freed = _no_cyclic_gc(run)
    assert its > 0 and freed


def test_superlu_fallback_runs_after_the_hierarchy_is_freed(monkeypatch):
    # with a CG cap of 0 the V-cycle is built and dropped unused; when
    # SuperLU then factors the fine matrix, no preconditioner is alive
    m, K, b = _first_newton_system(_p3_oracle(33))
    preconditioners, alive = [], []
    vcycle, superlu = quc.solver._vcycle, quc.solver._superlu

    def record_vcycle(A, prolongations):
        cycle = vcycle(A, prolongations)
        preconditioners.append(weakref.ref(cycle))
        return cycle

    def record_superlu(A):
        if A is K:
            alive.append(sum(ref() is not None for ref in preconditioners))
        return superlu(A)

    monkeypatch.setattr(quc.solver, "_vcycle", record_vcycle)
    monkeypatch.setattr(quc.solver, "_superlu", record_superlu)
    monkeypatch.setattr(quc.solver, "PCG_MAXITER", 0)
    _, its = _no_cyclic_gc(lambda: spsolve(K, b, prolongations(m)))
    assert its == -1 and len(preconditioners) == 1 and alive == [0]


def test_solve_keeps_at_most_one_newton_matrix_alive(monkeypatch):
    # each Newton matrix is dead before the next one is assembled, and none
    # outlives the solve
    refs, alive_at_build = [], []
    build = quc.solver._newton_matrix

    def record(mesh, hz, mu, pattern=None):
        alive_at_build.append(sum(ref() is not None for ref in refs))
        K = build(mesh, hz, mu, pattern)
        refs.append(weakref.ref(K))
        return K

    monkeypatch.setattr(quc.solver, "_newton_matrix", record)
    sol = _no_cyclic_gc(lambda: quc.solve(_disk_blend(33)))
    assert sol.converged and sol.iterations >= 2 and min(sol.linear_iterations) > 0
    assert len(refs) == sol.iterations
    assert alive_at_build == [0] * sol.iterations
    assert all(ref() is None for ref in refs)


def test_solve_leaves_no_solver_state_on_the_mesh(monkeypatch):
    # the Newton pattern and the prolongations are built once per solve and
    # die when it returns; the mesh gains no attribute
    refs, calls = [], []

    def recorded(build):
        def record(mesh):
            calls.append(build.__name__)
            out = build(mesh)
            refs.extend(weakref.ref(x) for x in (out if isinstance(out, list) else [out]))
            return out
        return record

    monkeypatch.setattr(quc.solver, "newton_pattern", recorded(newton_pattern))
    monkeypatch.setattr(quc.solver, "prolongations", recorded(prolongations))
    prob = _disk_blend(33)
    geometry = dict(vars(prob.mesh()))
    sol = _no_cyclic_gc(lambda: quc.solve(prob))
    assert sol.converged and sol.iterations >= 2
    assert sorted(calls) == ["newton_pattern", "prolongations"] and len(refs) == 2
    assert all(ref() is None for ref in refs)
    assert vars(sol.mesh).keys() == geometry.keys()
    assert all(vars(sol.mesh)[k] is v for k, v in geometry.items())


def test_last_iterate_fields_are_freed_before_the_linear_solve(monkeypatch):
    # F(Du), V = DF(Du) and Du of every integrand pass are unreachable by
    # the time a Newton step's linear solve runs: the last iterate's die at
    # the top of the step, a rejected trial's before the next trial
    refs, dead_at_solve = [], []
    assemble, linear_solve = quc.solver.assemble_energy, quc.solver.spsolve

    def record(*args, **kwargs):
        out = assemble(*args, **kwargs)
        refs.extend(weakref.ref(x) for x in (out[2], out[3], out[5]))
        return out

    def check(*args, **kwargs):
        dead_at_solve.append([ref() is None for ref in refs])
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(quc.solver, "assemble_energy", record)
    monkeypatch.setattr(quc.solver, "spsolve", check)
    sol = _no_cyclic_gc(lambda: quc.solve(_p3_oracle(33)))
    assert sol.converged and sol.iterations >= 2 and min(sol.linear_iterations) > 0
    assert len(dead_at_solve) == sol.iterations
    assert all(dead and all(dead) for dead in dead_at_solve)


def test_mesh_keeps_per_node_and_per_cell_arrays_only():
    # Counted per node of the n^2: the coordinates (16 B), the used,
    # interior and Dirichlet masks (1 B each) and the kept cells
    # (2 (n - 1)^2 bools, under 2 B), 21 B in all; the stencils, the
    # scalars and the object itself fit in 4 KiB.  The per-triangle vertex
    # table, barycenters, areas and orientations would add about 98 B per
    # node.
    n = 257
    tracemalloc.start()
    try:
        mesh = Mesh(((0.0, 1.0), (0.0, 1.0)), n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.n_tris == 2 * (n - 1) ** 2
    assert kept <= 21 * n * n + 4096


@pytest.mark.parametrize("config", [
    {"integrand": {"kind": "power", "p": 3.0},
     "problem": {"n": 33, "domain": [[1, 2], [1, 2]], "boundary": "3.4*(x^2+y^2)^0.25"},
     "checks": [{"name": "caccioppoli", "k": 0.1, "rho": 0.1, "R": 0.2, "center": [1.5, 1.5]},
                {"name": "sobolev", "R": 0.2, "center": [1.5, 1.5]},
                {"name": "lipschitz", "R": 0.2, "center": [1.5, 1.5]}]},
    {"integrand": {"kind": "blend", "p": 3.0, "q": 1.5, "w": [0.5, 0.0]},
     "problem": {"n": 33, "boundary": "0.5*(x - 0.25)^2 - 0.5*(y - 0.5)^2",
                 "mask": {"center": [0.5, 0.5], "radius": 0.49}},
     "checks": [{"name": "lipschitz", "R": 0.24, "center": [0.5, 0.5]},
                {"name": "caccioppoli_l1", "R": 0.24, "center": [0.5, 0.5]}]},
], ids=["square", "disk"])
def test_verify_leaves_no_per_triangle_array_on_the_mesh(tmp_path, monkeypatch, config):
    import json

    from quc import cli

    meshes = []
    build = quc.solver.GridProblem.mesh
    monkeypatch.setattr(quc.solver.GridProblem, "mesh",
                        lambda self: meshes.append(build(self)) or meshes[-1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "seed": 1}))
    assert cli.main(["--out-dir", str(tmp_path / "out"), "verify", str(path)]) == 0
    assert meshes
    for mesh in meshes:
        rows = {name: x.shape for name, x in vars(mesh).items()
                if isinstance(x, np.ndarray) and x.ndim and x.shape[0] == mesh.n_tris}
        assert rows == {} and mesh.n_tris != mesh.n_nodes


EPS = np.finfo(float).eps


def _gamma(n):
    return n * EPS / (1.0 - n * EPS)


@pytest.mark.parametrize("n", [4, 7, 1000, 65_536])
@pytest.mark.parametrize("kind", ["uniform", "mixed_sign", "badly_scaled"])
def test_dot_and_norm_match_an_exactly_summed_reference(n, kind):
    """``_dot`` and ``_norm`` against ``math.fsum``, to gamma_n sum |a_i b_i|.

    With unit roundoff u = eps / 2 each product a_i b_i passes through at
    most n roundings (one multiply, at most n - 1 additions on its path to
    the result, whatever the order or lane split of the sum), so the
    computed dot is sum a_i b_i (1 + t_i) with |t_i| <= n u / (1 - n u)
    (Higham, Accuracy and Stability, sec. 3.1).  The reference
    fsum(fl(a_i b_i)) is the correctly rounded sum of the rounded
    products: within 2u S of the exact sum, S = sum |a_i b_i|, and S
    itself is formed with two roundings.  For n >= 4 these extra 4u S fit
    in the gap between n u / (1 - n u) and gamma_n = n eps / (1 - n eps),
    which is at least n u.  No product is subnormal or overflows here, so
    the relative bound holds.

    ``_norm`` is sqrt of the dot of a with itself, where every term is
    positive: relative error n u / (1 - n u) / 2 from the dot, one ulp (2u)
    from the power 1/2, and 2u in the reference sqrt(fsum(a_i^2)); for
    n >= 4 that is within gamma_n |a|.
    """
    rng = np.random.default_rng(n)
    a, b = rng.uniform(0.5, 1.5, (2, n))
    if kind == "mixed_sign":
        # heavy cancellation: the sum is far below sum |a_i b_i|
        a *= rng.choice([-1.0, 1.0], n)
        b *= rng.choice([-1.0, 1.0], n)
    elif kind == "badly_scaled":
        a *= 10.0 ** rng.uniform(-140.0, 140.0, n)
        b *= rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-140.0, 140.0, n)
    prods = (a * b).tolist()
    S = math.fsum(abs(t) for t in prods)
    assert abs(_dot(a, b) - math.fsum(prods)) <= _gamma(n) * S
    ref = math.sqrt(math.fsum(t * t for t in a.tolist()))
    assert abs(_norm(a) - ref) <= _gamma(n) * ref


def test_dot_and_norm_of_a_non_finite_entry_are_non_finite():
    a = np.ones(1000)
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[517] = bad
        assert not np.isfinite(_dot(a, b)) and not np.isfinite(_dot(b, b))
        assert not np.isfinite(_norm(b))
        # inf times 0 is nan, not 0
        assert not np.isfinite(_dot(b, np.zeros(1000)))
        # CG gives up on a right-hand side it cannot measure
        K = sparse.identity(1000, format="csr")
        assert _pcg(K.__matmul__, b, lambda r: r, 1e-8) is None


def test_grids_up_to_the_coarsest_solve_directly():
    assert prolongations(Mesh(((0.0, 1.0), (0.0, 1.0)), 17)) == []
    # a larger grid coarsens in the corner of the smallest 2^k m + 1 above
    # it, m <= 16: 64 in 65, where coarse node (J, I) is kept if fine node
    # (2J, 2I) is an interior node of grid 64, so J, I <= 31; 100 in 105;
    # 255 in 257, not on a grid of 128
    levels = prolongations(Mesh(((0.0, 1.0), (0.0, 1.0)), 64))
    assert [keep.shape[0] for keep in levels] == [33, 17]
    assert levels[0][1:32, 1:32].all() and levels[0].sum() == 31 ** 2
    assert levels[1][1:16, 1:16].all() and levels[1].sum() == 15 ** 2
    assert [k.shape[0] for k in prolongations(_p3_oracle(100).mesh())] == [53, 27, 14]
    assert [k.shape[0] for k in prolongations(_p3_oracle(255).mesh())] == [129, 65, 33, 17]
    sol = quc.solve(_p3_oracle(17))
    assert sol.converged and sol.linear_iterations == [0] * sol.iterations


@pytest.mark.parametrize("n, mask, sizes", [
    (17, None, []), (257, None, [129, 65, 33, 17]),
    (193, (np.array([0.5, 0.5]), 0.49), [97, 49, 25, 13])], ids=["17", "257", "193-disk"])
def test_benchmark_grids_are_not_padded(n, mask, sizes):
    # the grids of the benchmark workloads have the form 2^k m + 1 already:
    # their hierarchies, and so their solves, do not depend on the padding
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), n, mask=mask)
    levels = prolongations(m)
    assert [keep.shape[0] for keep in levels] == sizes
    keep = m.interior.reshape(n, n)
    for coarse in levels:
        keep = keep[::2, ::2]
        assert np.array_equal(coarse, keep)


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
    assert np.abs(_recover_dv(m, sol.v)).max() <= 1e-8


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
    interp = assemble_energy(F, m, data, order=0)[0]
    assert sol.energy <= interp + 1e-12
    for _ in range(10):
        pert = sol.u.copy()
        pert[m.interior] += rng.uniform(-0.05, 0.05, int(m.interior.sum()))
        e = assemble_energy(F, m, pert, order=0)[0]
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
    # one orders 0..2 pass at the initial guess and one per Armijo trial,
    # the accepted trial being the next iterate (alpha = 1 is accepted
    # here); each pass through mollify(Moreau(F)) solves the proximal
    # radii of its M triangles' k mollifier samples once, in as many
    # convolution batches as it takes, so the radii sum to
    # (1 + iterations) M k, and one extra pass would add M k more
    points = []
    radius = PowerIntegrand._prox_radius
    monkeypatch.setattr(PowerIntegrand, "_prox_radius",
                        lambda self, r, delta: points.append(r.size) or radius(self, r, delta))
    F = quc.strongly_elliptic_approx(quc.make_power(3.0), 2)
    prob = quc.GridProblem(
        integrand=F, n=9,
        boundary=compile_boundary_expression("(x^2+y^2)^0.25"),
        bounds=((1.0, 2.0), (1.0, 2.0)))
    M, k = prob.mesh().n_tris, len(F.spec.nodes)
    assert (M, k) == (128, 576)
    sol = quc.solve(prob)
    assert sol.converged and sol.iterations >= 1
    assert sum(points) == (1 + sol.iterations) * M * k


@pytest.mark.parametrize("make_problem", [_p3_oracle, _disk_blend])
def test_solution_energy_is_the_energy_of_its_iterate(make_problem):
    # an accepted iterate is its Armijo trial's pass: every pass, at the
    # start and at each trial, asks for orders 0..2, and there is no
    # other pass
    class Recorder:
        def __init__(self, F):
            self.F, self.orders = F, []

        def derivs(self, z, orders):
            self.orders.append(tuple(orders))
            self.last = z
            return self.F.derivs(z, orders)

    prob = make_problem(33)
    F = prob.integrand
    prob.integrand = Recorder(F)
    sol = quc.solve(prob)
    assert sol.converged and sol.iterations >= 2
    assert sol.energy == assemble_energy(F, sol.mesh, sol.u, order=0)[0]
    assert np.array_equal(sol.du, _tri_gradients(sol.mesh, sol.u))
    first, *rest = prob.integrand.orders
    assert first == (0, 1, 2) and set(rest) == {(0, 1, 2)}
    assert len(rest) >= sol.iterations
    assert np.array_equal(prob.integrand.last, sol.du)   # the last pass is at sol.u


def test_rejected_trials_leave_the_fields_of_the_accepted_iterate():
    # a cold p = 1.25 solve of a kinked boundary rejects alpha = 1 on about
    # half its Armijo trials (60 of 120 at n = 33); each rejected trial's
    # fields die, and the solution carries the bits of its own iterate
    passes = []
    prob = quc.GridProblem(integrand=quc.make_power(1.25), n=33,
                           boundary=compile_boundary_expression("abs(x-0.5)"))
    F = prob.integrand

    class Recorder:
        def derivs(self, z, orders):
            passes.append(tuple(orders))
            return F.derivs(z, orders)

    prob.integrand = Recorder()
    sol = quc.solve(prob)
    assert sol.iterations >= 1 and len(passes) > 1 + sol.iterations
    energy, _, f, v, _, du = assemble_energy(F, sol.mesh, sol.u, order=1)
    assert sol.energy == energy
    assert np.array_equal(sol.du, du) and np.array_equal(sol.v, v)
    assert np.array_equal(sol.energy_density, f)


def test_spsolve_matches_scipy_within_conditioning():
    # a backward-stable solve is within cond(K) eps of the exact solution,
    # so two of them are within twice that of each other; grids up to
    # COARSEST_N solve by the line-block factor
    _check_direct_solve(_p3_oracle, 17)


@pytest.mark.parametrize("make_problem, n", [(_disk_blend, 17), (_p3_oracle, 16),
                                            (_disk_blend, 9)])
def test_line_block_solve_matches_scipy_within_conditioning(make_problem, n):
    # masked nodes are identity rows of the factor; an even grid solves
    # directly like an odd one
    _check_direct_solve(make_problem, n)


def _check_direct_solve(make_problem, n):
    from scipy.sparse.linalg import spsolve as scipy_spsolve

    m, K, b = _first_newton_system(make_problem(n))
    x, its = spsolve(K, b)
    ii = np.flatnonzero(K.keep)
    ref = scipy_spsolve(_csr(K).tocsc(), b[ii])
    bound = 2.0 * np.linalg.cond(_csr(K).toarray()) * np.finfo(float).eps
    assert its == 0 and m.n <= COARSEST_N
    assert np.linalg.norm(x[ii] - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("n, maxiter, path", [(193, None, "line"), (33, None, "cg"),
                                              (34, None, "cg"), (33, 0, "superlu")],
                         ids=["line-193-coarsest", "cg-33", "cg-34-padded", "superlu-33"])
def test_every_spsolve_path_takes_and_returns_grid_vectors(n, maxiter, path, monkeypatch):
    # Every path of spsolve takes and returns grid vectors, x zero off the
    # unknowns, on the disk, where the nodes off the mask lie inside the
    # grid: the line-block factor on the coarsest level of the n = 193
    # hierarchy (a masked 13 x 13 grid whose nodes off the mask are
    # identity rows of the factor), multigrid CG at n = 33 and on the
    # padded grid 37 of n = 34, and SuperLU where CG may take no
    # iteration.  A backward-stable direct solve is within cond(B) eps of
    # scipy's, and CG stops at |b - B x|_2 <= 1e-8 |b|_2.
    from scipy.sparse.linalg import spsolve as scipy_spsolve

    m, B, b = _first_newton_system(_disk_blend(n))
    levels = prolongations(m)
    if path == "line":
        for coarse in levels:
            B = _galerkin(B, coarse)
        assert B.n == 13 and not B.keep.all()
        b = np.where(B.keep.ravel(), np.random.default_rng(5).standard_normal(B.n ** 2), 0.0)
        levels = []
    if maxiter is not None:
        monkeypatch.setattr(quc.solver, "PCG_MAXITER", maxiter)
    x, its = spsolve(B, b, levels)
    keep = B.keep.ravel()
    assert x.shape == (B.n ** 2,) and not x[~keep].any()
    if path == "cg":
        assert its > 0 and np.linalg.norm(b - B.apply(x)) <= 1e-8 * np.linalg.norm(b)
        return
    assert its == {"line": 0, "superlu": -1}[path]
    ref = scipy_spsolve(_csr(B).tocsc(), b[keep])
    bound = 2.0 * np.linalg.cond(_csr(B).toarray()) * np.finfo(float).eps
    assert np.linalg.norm(x[keep] - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, TypeError])
def test_only_a_documented_linear_solve_failure_becomes_a_gradient_step(error, monkeypatch):
    # a singular pivot block of the line-block factor is a documented
    # failure, and the step falls back to BB; a programming error in a
    # linear solver propagates
    def broken(A):
        raise error("broken line factor")

    monkeypatch.setattr(quc.solver, "_line_factor", broken)
    prob = quc.GridProblem(integrand=quc.make_power(3.0), n=17,
                           boundary=compile_boundary_expression("x*y + x^3"))
    if error is TypeError:
        with pytest.raises(TypeError, match="broken line factor"):
            quc.solve(prob)
        return
    sol = quc.solve(prob)
    assert sol.iterations >= 1 and sol.linear_iterations
    assert set(sol.linear_iterations) == {-1}


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
    monkeypatch.setattr(quc.solver, "_armijo", lambda *a, **k: None)
    stalled = quc.solve(problem())
    assert (stalled.converged, stalled.stop_reason, stalled.iterations) == (
        False, "line_search_stalled", 0)
    # the stalled solution keeps the fields of the iterate it returns
    assert np.array_equal(stalled.du, _tri_gradients(stalled.mesh, stalled.u))
    assert stalled.v is not None and stalled.v.shape == stalled.du.shape


def test_masked_solve_where_coons_guess_is_undefined():
    # 0.2 - r^2 < 0 on the outer square's edges, so the Coons interpolation
    # of their data is NaN on every used node, while the data are finite on
    # the disk's Dirichlet nodes (r <= 0.44).  u keeps that NaN on the nodes
    # the mask removes, which the Barzilai-Borwein step must not read: with
    # its fixed fallback step the gradient method needs about 24600 steps
    # here, with BB steps about 1000.
    prob = quc.GridProblem(
        integrand=quc.make_power(3.0), n=33,
        boundary=compile_boundary_expression("1/sqrt(0.2 - (x-0.5)^2 - (y-0.5)^2)"),
        mask=(np.array([0.5, 0.5]), 0.44))
    for method in ("newton", "gradient"):
        with np.errstate(invalid="ignore"):
            sol = quc.solve(prob, method=method)
            data = prob.boundary_values(sol.mesh)
        assert (sol.converged, sol.stop_reason) == (True, "tol")
        assert method == "newton" or sol.iterations < 2000
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
    m = sol.mesh
    inner = (np.abs(m.nodes[:, 0] - 0.5) < 0.3) & (np.abs(m.nodes[:, 1] - 0.5) < 0.3)
    dv = _recover_dv(m, sol.v)[inner & m.interior]
    expect = np.array([[2.0, 0.0], [0.0, -2.0]])
    assert np.abs(dv - expect).max() <= 1e-10
    h = m.hx
    bary = m.barycenters()
    core = ((np.abs(bary[:, 0] - 0.5) < 0.5 - 2.5 * h)
            & (np.abs(bary[:, 1] - 0.5) < 0.5 - 2.5 * h))
    np.testing.assert_allclose((stress_field(sol)[core]**2).sum(axis=(1, 2)), 8.0, atol=1e-9)


@pytest.mark.parametrize("mask", [None, (np.array([0.5, 0.5]), 0.44)])
def test_stress_recovery_exact_for_affine_stress(mask):
    # An affine V = A x + b lies in every patch fit's model space, so the
    # recovered DV equals A up to rounding, on the fallback patches too.
    m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17, mask=mask)
    A = np.array([[1.3, -0.7], [0.4, 2.1]])
    tris, bary, areas = m.triangles(), m.barycenters(), np.full(m.n_tris, m.area)
    v = bary @ A.T + np.array([0.25, -1.5])
    h = min(m.hx, m.hy)
    # reference patches: the incident triangles, or the two-ring where those
    # are at most two (collinear barycenters); the normal equations square
    # the condition number of the weighted design matrix, lstsq does not
    kappa = []
    n_fallback = 0
    for a in np.where(m.used)[0]:
        patch = np.where((tris == a).any(axis=1))[0]
        power = 2
        if patch.size <= 2:
            patch = np.where(np.isin(tris, tris[patch]).any(axis=1))[0]
            power = 1
            n_fallback += 1
        dx = (bary[patch] - m.nodes[a]) / h
        design = np.stack([np.ones(patch.size), dx[:, 0], dx[:, 1]], axis=1)
        kappa.append(np.linalg.cond(design * np.sqrt(areas[patch])[:, None]) ** power)
    assert n_fallback == (4 if mask is None else 16)
    # a relative rounding error eps in data of size |v| moves the scaled
    # slope by kappa eps |v|, and DV is that slope divided by h
    tol = max(kappa) * np.finfo(float).eps * np.abs(v).max() / h
    dv = _recover_dv(m, v)
    assert np.abs(dv[m.used] - A).max() <= tol
    assert not dv[~m.used].any()


def test_residual_is_the_weak_divergence_of_the_stress(sol_harmonic, sol_p3_oracle):
    # the pairing of V with the interior hat gradients is the energy
    # gradient at the solution, so its max is the solver's residual, bit
    # for bit, and below the stopping threshold
    for sol in (sol_harmonic[33], sol_p3_oracle[33]):
        m = sol.mesh
        divergence = np.abs(_pair_with_hats(m, sol.v)[m.interior]).max()
        assert divergence == sol.residual
        assert divergence <= 1e-8
