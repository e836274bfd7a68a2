import numpy as np
import pytest

import quc
from quc.integrand import IntegrandError
from quc.regularize import MoreauIntegrand, ProxError, _prox_solve
from conftest import catalogue


# ---------------------------------------------------------------------------
# mollifier quadrature
# ---------------------------------------------------------------------------

def test_bump_mass_and_support(rng):
    spec = quc.MollifierSpec()
    assert spec.mass() == pytest.approx(1.0, abs=1e-8)
    x = rng.uniform(-1.5, 1.5, (2000, 2))
    vals = spec.bump(x)
    assert np.all(vals >= 0.0)
    outside = np.hypot(x[:, 0], x[:, 1]) > 1.0
    assert np.all(vals[outside] == 0.0)


def test_bump_gradient_weights_sum_to_zero():
    spec = quc.MollifierSpec()
    np.testing.assert_allclose(spec.grad_weights.sum(axis=0), 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Moreau-Yosida envelope
# ---------------------------------------------------------------------------

def test_moreau_quadratic_closed_form(rng):
    # the infimum for |z|^2/2 at delta = 1 is attained at w = z/2
    M = quc.moreau_yosida(quc.make_power(2.0), 1.0)
    z = rng.uniform(-10, 10, (1000, 2))
    np.testing.assert_allclose(M.eval(z), 0.25 * (z**2).sum(axis=1), atol=1e-8)
    H = M.hess(rng.uniform(-3, 3, (20, 2)))
    np.testing.assert_allclose(H, np.broadcast_to(0.5 * np.eye(2), H.shape), atol=1e-6)


def test_moreau_at_argmin():
    for F in (quc.make_power(3.0), quc.make_power(4.0)):
        M = quc.moreau_yosida(F, 0.7)
        assert M.eval(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("delta", [0.25, 1.0])
def test_moreau_hessian_bound(delta, rng):
    M = quc.moreau_yosida(quc.make_power(3.0), delta)
    z = rng.uniform(-10, 10, (1000, 2))
    _, hi = M.hess_eig_bounds(z)
    assert hi.max() <= 1.0 / delta + 1e-6


def test_moreau_below_and_monotone(rng):
    F = quc.make_power(3.0)
    z = rng.uniform(-5, 5, (1000, 2))
    fv = F.eval(z)
    prev = None
    for delta in (1.0, 0.5, 0.25):
        mv = quc.moreau_yosida(F, delta).eval(z)
        assert np.all(mv <= fv + 1e-12)
        if prev is not None:
            assert np.all(mv >= prev - 1e-12)  # envelopes increase as delta drops
        prev = mv


def test_moreau_keeps_ellipticity_ratio(rng):
    F = quc.make_power(3.0)
    base = quc.estimate_H(F, rng=rng).H_est
    est = quc.estimate_H(quc.moreau_yosida(F, 0.5), rng=rng)
    assert est.H_est <= 1.02 * base


def test_prox_is_nonexpansive(rng):
    M = quc.moreau_yosida(quc.make_power(3.0), 0.5)
    z = rng.uniform(-5, 5, (500, 2))
    w = rng.uniform(-5, 5, (500, 2))
    pz, pw = M.prox(z), M.prox(w)
    dp = np.hypot(*(pz - pw).T)
    dz = np.hypot(*(z - w).T)
    assert np.all(dp <= dz + 1e-8)


def test_moreau_hessian_fd_symmetry(rng):
    M = quc.moreau_yosida(quc.make_power(3.0), 0.5)
    H = M.hess(rng.uniform(-3, 3, (50, 2)))
    assert np.abs(H - np.transpose(H, (0, 2, 1))).max() <= 1e-4


def test_moreau_prox_independent_of_call_history(rng):
    z = rng.uniform(-3, 3, (100, 2))
    for p in (3.0, 1.5):
        fresh = quc.moreau_yosida(quc.make_power(p), 0.5).prox(z)
        used = quc.moreau_yosida(quc.make_power(p), 0.5)
        used.eval(z + 1e-3 * rng.standard_normal(z.shape))
        assert np.array_equal(fresh, used.prox(z)), p


def test_prox_nonconvergence_raises():
    F = quc.make_power(3.0)
    Z = np.array([[5.0, 5.0]])
    with pytest.raises(ProxError, match="stalled"):
        _prox_solve(F, 0.5, Z, Z + 40.0, max_iter=1)


def test_moreau_rejects_bad_delta():
    with pytest.raises(IntegrandError):
        quc.moreau_yosida(quc.make_power(2.0), 0.0)


# ---------------------------------------------------------------------------
# mollification plus quadratic
# ---------------------------------------------------------------------------

def test_mollified_quadratic_offset(rng):
    # convolving |z|^2/2 with a symmetric bump adds the constant
    # eps^2 m2 / 2 with second moment m2 = 1/6
    F = quc.make_power(2.0)
    eps = 0.5
    Mo = quc.mollify_plus_quadratic(F, eps, 1e-14)
    z = rng.uniform(-3, 3, (200, 2))
    diff = Mo.eval(z) - F.eval(z)
    np.testing.assert_allclose(diff, eps**2 / 12.0, atol=1e-8)


def test_mollified_mu_term():
    F = quc.make_power(2.0)
    a = quc.mollify_plus_quadratic(F, 0.3, 0.1)
    b = quc.mollify_plus_quadratic(F, 0.3, 1e-14)
    z = np.array([1.0, 0.0])
    assert a.eval(z) - b.eval(z) == pytest.approx(0.05, abs=1e-10)


def test_mollified_dominates(rng):
    # Jensen: F * phi >= F, plus the positive quadratic
    F = quc.make_power(3.0)
    Mo = quc.mollify_plus_quadratic(F, 0.25, 0.01)
    z = rng.uniform(-4, 4, (1000, 2))
    assert np.all(Mo.eval(z) >= F.eval(z) - 1e-12)


def test_mollified_gradient_commutes(rng):
    # quadrature of DF against the bump vs differences of the mollified value
    F = quc.make_power(3.0)
    Mo = quc.mollify_plus_quadratic(F, 0.3, 0.05)
    z = rng.uniform(-2, 2, (40, 2))
    g = Mo.grad(z)
    h = 1e-6
    fd = np.empty_like(g)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd[:, i] = (Mo.eval(z + e) - Mo.eval(z - e)) / (2 * h)
    np.testing.assert_allclose(g, fd, atol=1e-6)


def test_mollified_lower_eigenvalue(rng):
    F = quc.make_power(3.0)
    mu = 0.05
    Mo = quc.mollify_plus_quadratic(F, 0.25, mu)
    lo, _ = Mo.hess_eig_bounds(rng.uniform(-3, 3, (500, 2)))
    assert lo.min() >= mu - 1e-6


# ---------------------------------------------------------------------------
# strongly elliptic ladder
# ---------------------------------------------------------------------------

def test_ladder_converges_uniformly():
    F = quc.make_power(3.0)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-2, 2, 21)),
                    axis=-1).reshape(-1, 2)
    sups = []
    for n in (1, 2, 3, 4):
        Fn = quc.strongly_elliptic_approx(F, n)
        sups.append(np.abs(Fn.eval(grid) - F.eval(grid)).max())
    assert all(b < a for a, b in zip(sups, sups[1:]))


@pytest.mark.parametrize("n", [2, 4])
def test_ladder_eigenvalue_bounds(n, rng):
    F = quc.make_power(3.0)
    Fn = quc.strongly_elliptic_approx(F, n)
    z = rng.uniform(-2, 2, (300, 2))
    lo, hi = Fn.hess_eig_bounds(z)
    s = 2.0 ** (-n)
    assert lo.min() >= s - 1e-6
    assert hi.max() <= 1.0 / s + s + 1e-6


def test_ladder_index_validation():
    with pytest.raises(IntegrandError):
        quc.strongly_elliptic_approx(quc.make_power(2.0), 0)


# ---------------------------------------------------------------------------
# fused derivatives
# ---------------------------------------------------------------------------

def _derivs_cases():
    power3 = quc.make_power(3.0)
    moreau = quc.moreau_yosida(power3, 0.25)
    return catalogue() + [
        ("scaled", quc.combine("scaled", [moreau], scale=2.5)),
        ("shifted", quc.combine("shifted", [quc.make_blend(3.0, 1.5, (0.5, 0.0))],
                                shift=(0.2, -0.1))),
        ("affine_add", quc.combine("affine_add", [moreau], w=(0.3, -0.2), c=0.1)),
        ("sum_moreau", quc.combine("sum", [moreau, quc.make_anisotropic_quadratic(
            [[2.0, 0.0], [0.0, 1.0]])])),
        ("moreau", moreau),
        ("moreau_blend", quc.moreau_yosida(quc.make_blend(3.0, 1.5, (0.5, 0.0)), 0.5)),
        ("mollified", quc.mollify_plus_quadratic(power3, 0.25, 0.25)),
        ("ladder", quc.normalise(quc.strongly_elliptic_approx(power3, 2))),
        ("fd", quc.with_fd_derivatives(quc.make_power(2.5))),
    ]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name,F", _derivs_cases(), ids=[n for n, _ in _derivs_cases()])
def test_derivs_equals_separate_calls(name, F, order, rng):
    z = np.concatenate([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, (40, 2))])
    got = F.derivs(z, order)
    want = (F._eval(z), F._grad(z), F._hess(z))
    assert len(got) == 3
    for k in range(3):
        if k <= order:
            assert np.array_equal(got[k], want[k]), (name, k)
        else:
            assert got[k] is None
