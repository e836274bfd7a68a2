import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quc
from quc.integrand import (IntegrandError, NormalisationError, RadialProfile, _power_grad,
                           _power_hess, check_gradient_finite_differences,
                           check_hessian_symmetry, check_midpoint_convexity,
                           find_minimum, gradient_infimum_on_circle)
from conftest import catalogue


# ---------------------------------------------------------------------------
# power integrand
# ---------------------------------------------------------------------------

def test_power_value():
    assert quc.make_power(2.0).eval(np.array([3.0, 4.0])) == pytest.approx(12.5)


@pytest.mark.parametrize("p,ratio", [(3.0, 2.0), (1.5, 2.0)])
def test_power_eigenvalue_ratio(p, ratio):
    F = quc.make_power(p)
    lo, hi = F.hess_eig_bounds(np.array([1.0, 0.0]))
    assert hi / lo == pytest.approx(ratio, rel=1e-12)
    if p > 2:
        assert hi == pytest.approx(p - 1.0)
        assert lo == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_power_rejects_sublinear(p):
    with pytest.raises(IntegrandError, match="exceed 1"):
        quc.make_power(p)


def test_power_gradient_continuous_at_origin():
    F = quc.make_power(1.5)
    assert np.all(F.grad(np.zeros(2)) == 0.0)


# ---------------------------------------------------------------------------
# anisotropic quadratic
# ---------------------------------------------------------------------------

def test_aniso_identity():
    F = quc.make_anisotropic_quadratic(np.eye(2))
    assert F.analytic_H == pytest.approx(1.0)
    assert F.eval(np.array([3.0, 4.0])) == pytest.approx(12.5)


def test_aniso_sharp_matrix():
    # delta = 4/5 gives diag(1 + sqrt(1-delta^2), 1 - sqrt(1-delta^2)) = diag(8/5, 2/5)
    delta = 0.8
    s = np.sqrt(1 - delta**2)
    F = quc.make_anisotropic_quadratic(np.diag([1 + s, 1 - s]))
    assert F.analytic_H == pytest.approx(4.0, rel=1e-12)


def test_aniso_value():
    F = quc.make_anisotropic_quadratic([[2.0, 0.0], [0.0, 1.0]])
    assert F.eval(np.array([1.0, 1.0])) == pytest.approx(1.5)


def test_aniso_rejects_bad_input():
    with pytest.raises(IntegrandError, match="symmetric"):
        quc.make_anisotropic_quadratic([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(IntegrandError, match="positive definite"):
        quc.make_anisotropic_quadratic([[1.0, 0.0], [0.0, -1.0]])


# ---------------------------------------------------------------------------
# Uhlenbeck profiles
# ---------------------------------------------------------------------------

def test_uhlenbeck_power_ratio():
    p = 2.5
    prof = quc.power_profile(p)
    t = np.geomspace(1e-3, 1e3, 50)
    np.testing.assert_allclose(t * prof.second(t) / prof.deriv(t), p - 1.0, rtol=1e-12)
    F = quc.make_uhlenbeck(prof)
    z = np.array([0.3, -0.7])
    assert F.eval(z) == pytest.approx(quc.make_power(p).eval(z), rel=1e-12)


def test_uhlenbeck_quadratic_profile():
    F = quc.make_uhlenbeck(quc.power_profile(2.0))
    z = np.array([1.0, 2.0])
    assert F.eval(z) == pytest.approx(2.5)
    np.testing.assert_allclose(F.hess(z), np.eye(2), atol=1e-12)


def test_uhlenbeck_rejects_degenerate_tail():
    # G(t) = t^2 for t <= 1, 2t - 1 beyond: G'' = 0 on the tail
    def val(t):
        return np.where(t <= 1.0, t**2, 2.0 * t - 1.0)

    def deriv(t):
        return np.where(t <= 1.0, 2.0 * t, 2.0)

    def second(t):
        return np.where(t <= 1.0, 2.0, 0.0)

    prof = RadialProfile(val, deriv, second, name="flat_tail")
    with pytest.raises(IntegrandError, match="ratio"):
        quc.make_uhlenbeck(prof)


# ---------------------------------------------------------------------------
# radial Hessians against their eigen-structure
# ---------------------------------------------------------------------------
#
# Every radial leaf assembles D2F as tang B + c v v^T.  The references here
# are built from the eigen-structure instead: G''(r) along zhat and G'(r)/r
# across it, i.e. G'' zhat zhat^T + (G'/r) zperp zperp^T with zperp the
# rotated unit vector, which has no cancellation on the diagonal.
#
# Tolerance.  Both sides form each entry as a sum of at most two terms, and
# each term reaches it from z through at most 12 roundings (squares or a
# hypot, a power and the error it propagates from its base (counted twice,
# as |p - 2| <= 2), a two-term profile sum, a quotient, two direction
# components and the products), each of relative size u = eps/2 of a
# quantity bounded by L, the largest eigenvalue magnitude (for Finsler the
# largest term magnitude).  Each side is then within 2 * 12 u L = 12 eps L
# of the exact matrix at z, and the two within ORACLE_ULPS * eps * L.
ORACLE_ULPS = 24.0


def _eigen_hess(radial, tang, y, r):
    """radial yhat yhat^T + tang yperp yperp^T, yhat = y / r."""
    u = y / r[:, None]
    w = np.stack([-u[:, 1], u[:, 0]], axis=1)
    return (radial[:, None, None] * u[:, :, None] * u[:, None, :]
            + tang[:, None, None] * w[:, :, None] * w[:, None, :])


def _assert_oracle(H, ref, scale):
    assert np.array_equal(H[:, 0, 1], H[:, 1, 0])
    err = np.abs(H - ref).max(axis=(1, 2))
    bound = ORACLE_ULPS * np.finfo(float).eps * scale
    assert np.all(err <= bound), float(np.max(err / bound))


def _oracle_points(rng, lo=-3.0, hi=3.0, m=400, center=(0.0, 0.0)):
    r = 10.0 ** rng.uniform(lo, hi, m)
    th = rng.uniform(0.0, 2.0 * np.pi, m)
    y = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    axes = np.array([[1.0, 0.0], [0.0, -2.0], [-0.3, 0.0], [0.0, 3.0]])
    return np.concatenate([y, axes]) + np.asarray(center)


def _pre_kernel_power_hess(z, p):
    # the power Hessian as it was before the rank-one kernel
    r2 = z[:, 0] ** 2 + z[:, 1] ** 2
    out = np.zeros((z.shape[0], 2, 2))
    nz = r2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(nz, r2 ** ((p - 2.0) / 2.0), 0.0)
        c = np.where(nz, (p - 2.0) * s / r2, 0.0)
    out[:, 0, 0] = s + c * z[:, 0] * z[:, 0]
    out[:, 0, 1] = c * z[:, 0] * z[:, 1]
    out[:, 1, 0] = out[:, 0, 1]
    out[:, 1, 1] = s + c * z[:, 1] * z[:, 1]
    if p == 2.0 and not nz.all():
        out[~nz, 0, 0] = 1.0
        out[~nz, 1, 1] = 1.0
    return out


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_power_hessian_matches_eigen_structure(p, rng):
    F = quc.make_power(p)
    z = _oracle_points(rng)
    # where r^2 is subnormal, or (p - 2) r^{p-4} would overflow, the
    # matrix comes from r itself; the eigenvalues r^{p-2} stay normal down
    # to r = 1e-300, or 1e-150 for p = 4
    z = np.concatenate([z, _oracle_points(rng, -150.0 if p == 4.0 else -300.0, -100.0, m=200),
                        1e-120 * np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])])
    r = np.hypot(z[:, 0], z[:, 1])
    tang = r ** (p - 2.0)
    _assert_oracle(F.hess(z), _eigen_hess((p - 1.0) * tang, tang, z, r),
                   max(1.0, p - 1.0) * tang)
    centre = F.hess(np.zeros(2))
    assert np.array_equal(centre, np.eye(2) if p == 2.0 else np.zeros((2, 2)))


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_power_hessian_bit_identical_to_pre_kernel_form(p, rng):
    z = np.concatenate([_oracle_points(rng, -100.0, 100.0, m=2000), np.zeros((3, 2))])
    assert np.array_equal(quc.make_power(p).hess(z), _pre_kernel_power_hess(z, p))


def test_power_gradient_below_squared_underflow():
    # |z|^2 underflows below about 1.5e-154; the gradient is |z|^{p-1} zhat
    for p in (1.01, 1.5, 3.0):
        z = np.array([[1e-200, 0.0], [0.0, -1e-310], [3e-170, 4e-170]])
        r = np.hypot(z[:, 0], z[:, 1])
        want = (r ** (p - 1.0))[:, None] * (z / r[:, None])
        np.testing.assert_allclose(quc.make_power(p).grad(z), want, rtol=4 * np.finfo(float).eps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [1.1, 1.5])
def test_power_tiny_rows_do_not_depend_on_nan_or_inf_neighbours(p):
    # a nan |z|^2 in the batch must not hide the tiny-radius rows' fix: each
    # row gives its own bits in a batch with nan and inf rows around it
    rows = np.array([[1e-170, 0.0], [0.0, -3e-200], [2e-160, 1e-161], [0.5, 0.25],
                     [0.0, 0.0], [1e-300, -1e-300]])
    odd = np.array([[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf], [np.nan, np.nan]])
    batch = np.concatenate([odd[:1], rows[:3], odd[1:3], rows[3:], odd[3:]])
    at = [1, 2, 3, 6, 7, 8]
    for fn in (_power_grad, _power_hess):
        got = fn(batch, p)
        for i, j in enumerate(at):
            assert np.array_equal(fn(rows[i:i + 1], p)[0], got[j]), (fn.__name__, rows[i])


def test_uhlenbeck_hessian_matches_eigen_structure(rng):
    terms = [(1.0, 1.5), (0.5, 3.0)]
    F = quc.make_uhlenbeck(quc.power_sum_profile(terms))
    z = _oracle_points(rng)
    r = np.hypot(z[:, 0], z[:, 1])
    tang = sum(c * r ** (q - 2.0) for c, q in terms)
    radial = sum(c * (q - 1.0) * r ** (q - 2.0) for c, q in terms)
    _assert_oracle(F.hess(z), _eigen_hess(radial, tang, z, r), np.maximum(radial, tang))
    assert np.array_equal(F.hess(np.zeros(2)), np.zeros((2, 2)))


def test_finsler_hessian_matches_gauge_formula(rng):
    A = np.array([[1.5, 0.6], [0.6, 0.8]])
    p = 2.5
    F = quc.make_finsler(A, quc.power_profile(p))
    z = _oracle_points(rng)
    az = np.einsum("ij,mj->mi", A, z)
    h = np.sqrt(np.einsum("mi,mi->m", z, az))
    tang = h ** (p - 2.0)
    c = (p - 2.0) * tang
    dh = az / h[:, None]
    ref = tang[:, None, None] * A + c[:, None, None] * np.einsum("mi,mj->mij", dh, dh)
    scale = tang * np.abs(A).max() + np.abs(c) * np.einsum("mi,mi->m", dh, dh)
    _assert_oracle(F.hess(z), ref, scale)
    assert np.array_equal(F.hess(np.zeros(2)), np.zeros((2, 2)))


def test_blend_hessian_matches_eigen_structure(rng):
    F = quc.make_blend(3.0, 1.5, (0.5, 0.0))
    p, w = F.p, F.w
    # near w: across the bump's inner ball, quintic shell and flat outside
    z = np.concatenate([_oracle_points(rng, -6.0, -0.3, center=w),
                        _oracle_points(rng, -2.0, 1.0)])
    r = np.hypot(z[:, 0], z[:, 1])
    d = z - w
    rho = np.hypot(d[:, 0], d[:, 1])
    _, d1, d2 = F._phi_parts(rho)
    radial, tang = F.eps * d2, F.eps * d1 / rho
    ref = _eigen_hess((p - 1.0) * r ** (p - 2.0), r ** (p - 2.0), z, r) + _eigen_hess(
        radial, tang, d, rho)
    _assert_oracle(F.hess(z), ref, (p - 1.0) * r ** (p - 2.0) + np.maximum(radial, tang))
    # at w the bump adds nothing, at 0 neither part does
    assert np.array_equal(F.hess(w), quc.make_power(p).hess(w))
    assert np.array_equal(F.hess(np.zeros(2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# blend
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def blend():
    return quc.make_blend(3.0, 1.5, (0.5, 0.0))


def test_blend_value_at_origin(blend):
    # phi == 1 near the origin, so F(0) = eps before normalisation
    assert blend.eval(np.zeros(2)) == pytest.approx(blend.eps, rel=1e-12)
    Fn = quc.normalise(blend)
    assert Fn.eval(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_blend_ratio_near_origin(blend):
    # the bump is constant on B_{r/2}(0), so the ratio there is the power one
    rng = np.random.default_rng(1)
    r = blend.r
    pts = rng.uniform(-1, 1, (500, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < r / 2.0]
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-6]
    lo, hi = blend.hess_eig_bounds(pts)
    assert np.max(hi / lo) <= blend.p - 1.0 + 1e-9


def test_blend_lmax_blowup(blend):
    # approach the bump center along the circle |z| = |w|, where the power
    # part's eigenvalues stay constant and the bump term must dominate
    r = blend.r
    vals = []
    for rho in (1e-2, 1e-3, 1e-4):
        cth = 1.0 - rho**2 / (2.0 * r**2)
        z = r * np.array([cth, np.sqrt(1.0 - cth**2)])
        vals.append(blend.hess_eig_bounds(z)[1])
    assert vals[0] < vals[1] < vals[2]


def test_blend_rejects_inadmissible():
    probe = quc.make_blend(3.0, 1.5, (0.5, 0.0))
    with pytest.raises(IntegrandError, match="admissible"):
        quc.make_blend(3.0, 1.5, (0.5, 0.0), eps=2.0 * probe.eps_threshold)
    with pytest.raises(IntegrandError, match="nonzero"):
        quc.make_blend(3.0, 1.5, (0.0, 0.0))
    with pytest.raises(IntegrandError, match="p > 2 > q > 1"):
        quc.make_blend(1.8, 1.5, (0.5, 0.0))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_sum_ratio_bounded_by_parts(rng):
    F = quc.combine("sum", [quc.make_power(3.0), quc.make_power(1.5)])
    assert F.analytic_H == pytest.approx(2.0)
    est = quc.estimate_H(F, rng=rng)
    assert est.H_est <= 2.0 + 1e-8


def test_scaled_identity(rng):
    F = quc.make_power(3.0)
    G = quc.combine("scaled", [F], scale=1.0)
    z = rng.uniform(-3, 3, (50, 2))
    np.testing.assert_allclose(G.eval(z), F.eval(z), rtol=1e-15)


def test_affine_add_keeps_hessian(rng):
    F = quc.make_power(3.0)
    G = quc.combine("affine_add", [F], w=np.array([0.4, -0.2]), c=1.0)
    z = rng.uniform(-3, 3, (50, 2))
    np.testing.assert_allclose(G.hess(z), F.hess(z), atol=1e-15)
    np.testing.assert_allclose(G.grad(z), F.grad(z) + np.array([0.4, -0.2]), atol=1e-15)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def test_normalise_shifted_quadratic(rng):
    # F(z) = |z - (1,1)|^2 / 2, built as a quadratic plus affine part
    F = quc.combine("affine_add", [quc.make_power(2.0)],
                    w=np.array([-1.0, -1.0]), c=1.0)
    Fn = quc.normalise(F)
    np.testing.assert_allclose(Fn.normalisation["zbar"], [1.0, 1.0], atol=1e-10)
    z = rng.uniform(-3, 3, (100, 2))
    np.testing.assert_allclose(Fn.eval(z), 0.5 * (z**2).sum(axis=1), atol=1e-10)


def test_find_minimum_reports_nonconvergence():
    # |z - (1,1)|^2 / 2 + const: |DF(0)| = sqrt(2), so no step means no argmin
    F = quc.combine("affine_add", [quc.make_power(2.0)],
                    w=np.array([-1.0, -1.0]), c=1.0)
    with pytest.raises(NormalisationError, match="final"):
        find_minimum(F, max_iter=0)
    np.testing.assert_allclose(find_minimum(F), [1.0, 1.0], atol=1e-12)


def test_normalise_fixed_point(rng):
    F = quc.make_power(3.0)
    Fn = quc.normalise(F)
    z = rng.uniform(-3, 3, (100, 2))
    np.testing.assert_allclose(Fn.eval(z), F.eval(z), rtol=1e-10, atol=1e-12)
    assert Fn.normalisation["i_F"] == pytest.approx(1.0, abs=1e-10)


def test_normalise_rescales(rng):
    # F = 2|z|^2 has i_F = inf |4 z| = 4 on the unit circle
    F = quc.combine("scaled", [quc.make_power(2.0)], scale=4.0)
    Fn = quc.normalise(F)
    assert Fn.normalisation["i_F"] == pytest.approx(4.0, rel=1e-10)
    z = rng.uniform(-3, 3, (50, 2))
    np.testing.assert_allclose(Fn.eval(z), 0.5 * (z**2).sum(axis=1), rtol=1e-10)


def test_normalised_gradient_infimum():
    for _, F in catalogue()[:6]:
        Fn = quc.normalise(F)
        assert gradient_infimum_on_circle(Fn, n_angles=360) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# isotropic envelope
# ---------------------------------------------------------------------------

def test_envelope_power_closed_form(rng):
    p = 3.0
    env = quc.isotropic_envelope(quc.make_power(p))
    t = env.radii[::16]
    np.testing.assert_allclose(env.a(t), t ** (p - 1.0), rtol=1e-9)
    np.testing.assert_allclose(env.A(t), t**p / p, rtol=1e-9)
    rep = env.check_envelope(quc.make_power(p), rng)
    assert rep["C"] == pytest.approx(1.0, abs=1e-6)


def test_envelope_anisotropic(rng):
    F = quc.make_anisotropic_quadratic([[2.0, 0.0], [0.0, 1.0]])
    env = quc.isotropic_envelope(F)
    t = env.radii[::16]
    np.testing.assert_allclose(env.a(t), 2.0 * t, rtol=1e-9)
    np.testing.assert_allclose(env.A(t), t**2, rtol=1e-9)
    rep = env.check_envelope(F, rng)
    # F(z)/A(|z|) ranges over [1/2, 1] exactly
    assert rep["C_upper"] == pytest.approx(1.0, abs=1e-6)
    assert rep["C_lower"] == pytest.approx(2.0, rel=1e-3)


def test_envelope_doubling():
    # a(2t)/a(t) = 2^{p-1}, while eta_H(2) = 2^H; these agree for p >= 2
    # (H = p - 1) and the measured constant stays below 1 for p < 2
    for p, expect in ((1.5, 2.0**0.5 / 4.0), (3.0, 1.0)):
        F = quc.make_power(p)
        env = quc.isotropic_envelope(F)
        assert env.check_doubling(F.analytic_H) == pytest.approx(expect, rel=1e-9)


def test_coercivity_of_normalised(rng):
    # F(z) >= |z|^{1 + 1/H} / C' for |z| > 1; the power p = 3 constant is 3
    F = quc.make_power(3.0)
    t = np.geomspace(1.0 + 1e-9, 1e3, 64)
    th = rng.uniform(0, 2 * np.pi, t.size)
    z = t[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    Cp = np.max(t ** (1.0 + 1.0 / F.analytic_H) / F.eval(z))
    assert np.isfinite(Cp)
    assert Cp == pytest.approx(3.0, rel=1e-6)


# ---------------------------------------------------------------------------
# finite-difference derivative mode
# ---------------------------------------------------------------------------

def test_fd_mode_matches_analytic(rng):
    F = quc.make_power(2.5)
    G = quc.with_fd_derivatives(F)
    z = rng.uniform(-3, 3, (50, 2))
    scale = 1.0 + np.abs(F.grad(z)).max()
    np.testing.assert_allclose(G.grad(z), F.grad(z), atol=1e-5 * scale)
    np.testing.assert_allclose(G.hess(z), F.hess(z), atol=1e-4)


def test_fd_hessian_symmetry(rng):
    G = quc.with_fd_derivatives(quc.make_power(2.5))
    assert check_hessian_symmetry(G, rng, n=100) <= 1e-4


# ---------------------------------------------------------------------------
# catalogue-wide invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,F", catalogue())
def test_catalogue_midpoint_convexity(name, F, rng):
    assert check_midpoint_convexity(F, rng, n=10**4, radius=100.0) >= -1e-12


@pytest.mark.parametrize("name,F", catalogue())
def test_catalogue_gradient_fd(name, F, rng):
    assert check_gradient_finite_differences(F, rng, n=10**3) <= 1e-5


@pytest.mark.parametrize("name,F", catalogue())
def test_catalogue_hessian_symmetric(name, F, rng):
    assert check_hessian_symmetry(F, rng, n=10**3) <= 1e-10


@pytest.mark.parametrize("name,F", catalogue())
def test_catalogue_derivs_are_fresh_arrays(name, F, rng):
    # ScaledIntegrand scales its part's outputs in place: no output may
    # share memory with the input or with another output, nor may those of
    # the envelopes and mollifiers that combinators wrap, and a second call
    # gives the same values
    z = rng.uniform(-3.0, 3.0, (64, 2))
    for G in (F, quc.normalise(F), quc.moreau_yosida(F, 0.5),
              quc.mollify_plus_quadratic(F, 0.25, 0.25)):
        out = G.derivs(z)
        for i, d in enumerate(out):
            assert not np.shares_memory(d, z), (G.describe(), i)
            for e in out[i + 1:]:
                assert not np.shares_memory(d, e), (G.describe(), i)
        for d, again in zip(out, quc.integrand.ScaledIntegrand(G, 2.0).derivs(z)):
            np.testing.assert_array_equal(2.0 * d, again)


@pytest.mark.parametrize("name,F", catalogue())
def test_catalogue_coercivity_exponent(name, F, rng):
    Fn = quc.normalise(F)
    H = quc.estimate_H(Fn, rng=rng).H_est
    t = np.geomspace(2.0, 1e3, 32)
    th = rng.uniform(0, 2 * np.pi, t.size)
    z = t[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    Cp = np.max(t ** (1.0 + 1.0 / H) / Fn._eval(z))
    assert np.isfinite(Cp) and Cp > 0


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.05, 6.0),
       x=st.floats(-50, 50), y=st.floats(-50, 50),
       u=st.floats(-50, 50), v=st.floats(-50, 50))
def test_midpoint_convexity_property(p, x, y, u, v):
    F = quc.make_power(p)
    a, b = np.array([x, y]), np.array([u, v])
    lhs = F.eval((a + b) / 2.0)
    rhs = 0.5 * (F.eval(a) + F.eval(b))
    assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))
