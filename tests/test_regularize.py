import re

import numpy as np
import pytest

import quc
from quc.integrand import (AffineAddIntegrand, IntegrandError, PowerIntegrand, ProxError,
                           ScaledIntegrand, ShiftedIntegrand, SumIntegrand, _prox_solve,
                           _scale_rows)
from quc.regularize import _CHUNK, MollifiedIntegrand, MoreauIntegrand
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
# exact proximal maps and envelope Hessians
# ---------------------------------------------------------------------------

def _newton_bound(delta, Z):
    # the proximal objective is (1/delta)-strongly convex, so a point where
    # its gradient is at most 100 * 1e-11 (1 + |z|) (the acceptance test of
    # the Newton solve) lies within delta times that of the proximal point
    return delta * 100.0 * 1e-11 * (1.0 + np.hypot(Z[:, 0], Z[:, 1]))


def _ring(radii, n_angles=7):
    th = np.linspace(0.1, 2.0 * np.pi + 0.1, n_angles, endpoint=False)
    return (radii[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=1)).reshape(-1, 2)


@pytest.mark.parametrize("p", [1.25, 1.5])
def test_moreau_prox_small_p_down_to_tiny_z(p):
    delta = 0.25
    Z = _ring(np.geomspace(1e-12, 1e2, 57))
    M = quc.moreau_yosida(quc.make_power(p), delta)
    W = M.prox(Z)   # the Newton solve raises ProxError here for small |z|
    compared = 0
    for z, w, bound in zip(Z, W, _newton_bound(delta, Z)):
        try:
            wn = _prox_solve(M.part, delta, z[None], z[None])[0]
        except ProxError:
            continue
        assert np.hypot(*(w - wn)) <= bound, (p, z)
        compared += 1
    assert compared > 0


def _forwarding_cases():
    aniso = quc.make_anisotropic_quadratic([[2.0, 0.5], [0.5, 1.0]])
    return [
        ("aniso", aniso),
        ("power2.5", quc.make_power(2.5)),
        ("uhlenbeck", quc.make_uhlenbeck(quc.power_sum_profile([(1.0, 1.5), (0.5, 3.0)]))),
        ("scaled", quc.combine("scaled", [quc.make_power(3.0)], scale=2.5)),
        ("shifted", quc.combine("shifted", [quc.make_power(2.5)], shift=(0.4, -0.3))),
        ("affine_add", quc.combine("affine_add", [quc.make_power(3.0)], w=(0.3, -0.2), c=0.1)),
        ("nested", quc.combine("scaled", [quc.combine("affine_add", [quc.combine(
            "shifted", [aniso], shift=(1.0, 2.0))], w=(-1.0, 0.5))], scale=0.3)),
    ]


@pytest.mark.parametrize("delta", [0.25, 2.0])
@pytest.mark.parametrize("name,F", _forwarding_cases(), ids=[n for n, _ in _forwarding_cases()])
def test_exact_prox_matches_newton(name, F, delta, rng):
    Z = rng.uniform(-4.0, 4.0, (300, 2))
    W = quc.moreau_yosida(F, delta).prox(Z)
    Wn = _prox_solve(F, delta, Z, Z)
    assert np.all(np.hypot(*(W - Wn).T) <= _newton_bound(delta, Z)), name


@pytest.mark.parametrize("delta", [0.25, 2.0])
@pytest.mark.parametrize("name,F", _forwarding_cases(), ids=[n for n, _ in _forwarding_cases()])
def test_exact_envelope_hessian_matches_generic_formula(name, F, delta, rng):
    # the base-class map on the combinator itself: D2F(p) (Id + delta D2F(p))^{-1}
    # from the combinator's own Hessian; both sides are exact formulas whose
    # entries, bounded by 1/delta, agree to rounding
    Z = rng.uniform(-4.0, 4.0, (300, 2))
    M = quc.moreau_yosida(F, delta)
    want = quc.Integrand._envelope_hess(F, M.prox(Z), delta)
    np.testing.assert_allclose(M.hess(Z), want, rtol=0.0, atol=1e-12 / delta)


def test_exact_parts_make_no_newton_call(monkeypatch, rng):
    import quc.integrand as qi
    calls = []
    real = qi.newton_minimise

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qi, "newton_minimise", counting)
    z = np.concatenate([np.zeros((1, 2)), rng.uniform(-3.0, 3.0, (50, 2))])
    parts = [quc.make_power(p) for p in (1.5, 2.0, 3.0)] + [
        part for _, part in _forwarding_cases()]
    for part in parts:
        M = quc.moreau_yosida(part, 0.25)
        M.eval(z), M.grad(z), M.hess(z), M.derivs(z), M.prox(z)
        assert not calls, part.describe()
    # the counter sees the Newton solve where no exact map exists
    quc.moreau_yosida(quc.make_blend(3.0, 1.5, (0.5, 0.0)), 0.25).prox(z)
    assert calls


@pytest.mark.parametrize("lam", [1e-3, 1e3, 1e6])
def test_newton_prox_behind_scaling_meets_the_envelope_test(lam, rng):
    # without an exact map the Newton solve runs on lam * F itself: solved on
    # F at lam * delta, its stopping rule would bound lam times too small a
    # gradient
    F = quc.combine("scaled", [quc.make_blend(3.0, 1.5, (0.5, 0.0))], scale=lam)
    Z = rng.uniform(-3.0, 3.0, (500, 2))
    W = quc.moreau_yosida(F, 0.25).prox(Z)
    assert np.all(np.hypot(*(W - _prox_solve(F, 0.25, Z, Z)).T) <= _newton_bound(0.25, Z))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("z", [[np.nan, 0.0], [np.inf, 1.0], [1e200, 0.0]])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_moreau_prox_rejects_nonfinite_and_overflowing_z(p, z):
    # |z| = 1e200 overflows |z|^2: the radius, and with it the test's
    # tolerance, would be inf and pass the point w = 0
    with pytest.raises(ProxError):
        quc.moreau_yosida(quc.make_power(p), 0.25).prox(np.array(z))


def test_wrong_exact_map_raises(monkeypatch):
    F = quc.make_power(3.0)
    monkeypatch.setattr(F, "_prox_radius", lambda r, delta: r / (1.0 + delta))
    with pytest.raises(ProxError, match="optimality condition") as err:
        quc.moreau_yosida(F, 0.25).prox(np.array([2.0, 1.0]))
    assert "underflow" not in str(err.value)


def test_moreau_prox_names_an_underflowing_radius():
    # s + delta s^{p-1} = |z| has its root below (|z| / delta)^{1/(p-1)},
    # here 1.16e-9^100, under the smallest positive double; from there on
    # s^{p-1} = s^0.01 >= 5.9e-4 keeps every positive double above the
    # root, and w = 0 misses the condition by |z| / delta = 1.16e-9 > 1e-9
    M = quc.moreau_yosida(quc.make_power(1.01), 0.25)
    with pytest.raises(ProxError, match="radius underflows below the smallest positive double"):
        M.prox(np.array([[2.9e-10, 0.0]]))
    # the radius underflows at |z| = 1e-12 too, but w = 0 meets the condition
    assert M.part._prox_underflows(np.array([[1e-12, 0.0]]), 0.25)[0]
    assert not M.prox(np.array([[1e-12, 0.0]])).any()
    assert not M.part._prox_underflows(np.array([[1e-3, 0.0], [0.0, 0.0]]), 0.25).any()


@pytest.mark.parametrize("kind, z", [
    ("scaled", [2.9e-10, 0.0]),
    ("shifted", [-0.5 + 2.9e-10, 0.0]),
    ("affine_add", [0.125 + 2.9e-10, 0.0]),
])
def test_moreau_prox_names_an_underflowing_radius_behind_a_wrapper(kind, z):
    # at delta = 0.125 each wrapper hands the power a proximal problem whose
    # radius underflows: 2 F has s + 0.25 s^{0.01} = 2.9e-10 as in the bare
    # test above; the shift zbar = (0.5, 0) and the linear term w = (1, 0)
    # (centre z - delta w) give s + 0.125 s^{0.01} = 2.9e-10, with its root
    # below (2.3e-9)^100.  So w = -zbar or delta w, and the residual
    # |w - z| / delta = 2.3e-9 exceeds the tolerance 1e-9 (1 + |z|), |z| <= 0.5
    power = quc.make_power(1.01)
    part = {
        "scaled": quc.combine("scaled", [power], scale=2.0),
        "shifted": quc.combine("shifted", [power], shift=[0.5, 0.0]),
        "affine_add": quc.combine("affine_add", [power], w=[1.0, 0.0]),
    }[kind]
    delta = 0.125
    M = quc.moreau_yosida(part, delta)
    Z = np.array([z])
    assert M.part._prox_underflows(Z, delta)[0]
    with pytest.raises(ProxError, match="radius underflows below the smallest positive double"):
        M.prox(Z)
    assert not M.part._prox_underflows(Z + [1e-3, 0.0], delta)[0]



def test_moreau_prox_at_p_near_one_down_to_a_subnormal_radius():
    # the root of s + delta s^{p-1} = |z| at p = 1.01, delta = 0.25 is about
    # (4 |z|)^100: normal above |z| = 2.1e-4, subnormal down to 1.5e-4 and
    # zero below.  |z|^2 of the proximal point underflows below |z| = 6.5e-3,
    # so the power gradient is taken from |z| itself there.
    M = quc.moreau_yosida(quc.make_power(1.01), 0.25)
    for r in np.geomspace(1.6e-4, 0.1, 240):
        M.prox(np.array([[r, 0.0]]))
    th = np.linspace(0.0, 2.0 * np.pi, 7)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    for r in np.geomspace(2.2e-4, 0.1, 60):
        M.prox(r * dirs)
    # below the sweep a subnormal radius has too few bits to pass the test,
    # and each failure says why
    for r in np.geomspace(1e-6, 1.6e-4, 60, endpoint=False):
        for z in r * dirs:
            try:
                M.prox(z)
            except ProxError as err:
                assert re.search("radius .*(is subnormal|underflows below)", str(err)), str(err)


def test_radial_prox_radius_solves_scalar_equation():
    # G(t) = t + t^2/2 has G'(0) = 1 > 0: the proximal radius is 0 for
    # r <= delta and (r - delta) / (1 + delta) beyond
    profile = quc.integrand.RadialProfile(lambda t: t + t**2 / 2, lambda t: 1.0 + t,
                                          lambda t: np.ones_like(t))
    r = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
    s = quc.integrand.radial_prox_radius(profile, r, 0.5)
    want = np.maximum(r - 0.5, 0.0) / 1.5
    # both sides round r - delta, which is good to eps r and no better
    assert np.all(np.abs(s - want) <= 4.0 * np.finfo(float).eps * r)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_moreau_hessian_limit_at_origin(p):
    delta = 0.25
    H = quc.moreau_yosida(quc.make_power(p), delta).hess(np.zeros(2))
    lam = 1.0 / delta if p < 2.0 else (1.0 / (1.0 + delta) if p == 2.0 else 0.0)
    assert np.array_equal(H, lam * np.eye(2)), (p, H)


def test_moreau_hessian_limit_at_origin_uhlenbeck():
    # G'' blows up at 0 through the t^{1.5} term
    F = quc.make_uhlenbeck(quc.power_sum_profile([(1.0, 1.5), (0.5, 3.0)]))
    H = quc.moreau_yosida(F, 0.5).hess(np.zeros(2))
    assert np.array_equal(H, 2.0 * np.eye(2))


def test_moreau_hessian_at_singular_point_of_generic_part():
    # near 0 the blend is |z|^3/3 plus a constant, so DF_delta(z) = s(|z|)^2 z/|z|
    # with s(r) <= r: the central difference with step h = 1e-5 that stands in
    # for the limit 0 is at most h
    M = quc.moreau_yosida(quc.make_blend(3.0, 1.5, (0.5, 0.0)), 0.25)
    H = M.hess(np.zeros(2))
    assert np.all(np.isfinite(H)) and np.abs(H).max() <= 1e-5


def test_moreau_quadratic_hessian_closed_form(rng):
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    delta = 0.7
    H = quc.moreau_yosida(quc.make_anisotropic_quadratic(A), delta).hess(
        rng.uniform(-3, 3, (20, 2)))
    want = A @ np.linalg.inv(np.eye(2) + delta * A)
    np.testing.assert_allclose(H, np.broadcast_to(want, H.shape), rtol=1e-14, atol=0.0)


def _central_difference_hess(M, z):
    # the central-difference Hessian the envelope used before its exact form
    h = 1e-5 * (1.0 + np.hypot(z[:, 0], z[:, 1]))
    out = np.empty((z.shape[0], 2, 2))
    for i in range(2):
        step = h[:, None] * np.eye(2)[i]
        out[:, :, i] = (M._grad(z + step) - M._grad(z - step)) / (2.0 * h[:, None])
    return out, h


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_moreau_hessian_matches_central_differences(p, rng):
    """The exact envelope Hessian against central differences of DF_delta.

    Truncation: an entry of the central difference with step h is off by at
    most (h^2 / 6) sup |D^4 F_delta| on the stencil.  With A = (Id + delta
    D2F(q))^{-1}, |A| <= 1, at the proximal point q, D^3 F_delta is D^3F(q)
    contracted with A, and D^4 F_delta = D^4F(q)[A.]^4 plus three terms
    bounded by delta |D^3F(q)|^2, so |D^4 F_delta| <= |D^4F| + 3 delta |D^3F|^2.
    For |z|^3/3, |D^3F| <= 4 and |D^4F(q)| <= 6/|q|, with |q| = s(|z|) the
    proximal radius 2r / (1 + sqrt(1 + 4 delta r)); the entry error is then
    at most h^2 (1/s(|z| - h) + 8 delta).  For |z|^2/2 the third and fourth
    derivatives vanish.  Rounding: each gradient (z - q)/delta is good to
    4 eps (|z| + h) / delta, so the difference quotient to that over h.
    """
    delta = 0.25
    r = rng.uniform(0.5, 3.0, 200)
    th = rng.uniform(0.0, 2.0 * np.pi, 200)
    z = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    M = quc.moreau_yosida(quc.make_power(p), delta)
    fd, h = _central_difference_hess(M, z)
    rmin = r - h
    s_min = 2.0 * rmin / (1.0 + np.sqrt(1.0 + 4.0 * delta * rmin))
    trunc = h**2 * (1.0 / s_min + 8.0 * delta) if p == 3.0 else 0.0
    tol = trunc + 4.0 * np.finfo(float).eps * (r + h) / (delta * h)
    err = np.abs(M.hess(z) - fd).max(axis=(1, 2))
    assert np.all(err <= tol)


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


def _mollified_cases():
    return [
        ("power_3", quc.mollify_plus_quadratic(quc.make_power(3.0), 0.25, 0.25)),
        ("moreau_power_1.5", quc.mollify_plus_quadratic(
            quc.moreau_yosida(quc.make_power(1.5), 0.25), 0.25, 0.25)),
    ]


@pytest.mark.parametrize("name,Mo", _mollified_cases(), ids=[n for n, _ in _mollified_cases()])
def test_mollified_point_does_not_depend_on_its_batch(name, Mo, rng):
    # each point's samples are reduced on their own, so a point alone, in
    # batches of 7 and in one batch of three convolution chunks gives the
    # same bits
    m = 2 * (_CHUNK // len(Mo.spec.nodes)) + 8
    z = np.concatenate([np.zeros((1, 2)), rng.uniform(-3.0, 3.0, (m - 1, 2))])
    calls = {"eval": Mo._eval, "grad": Mo._grad, "hess": Mo._hess,
             "derivs": Mo.derivs}
    for key, fn in calls.items():
        whole = fn(z)
        for size in (1, 7):
            parts = [fn(z[lo:lo + size]) for lo in range(0, m, size)]
            if key == "derivs":
                for i in range(3):
                    assert np.array_equal(np.concatenate([p[i] for p in parts]), whole[i]), \
                        (key, i, size)
            else:
                assert np.array_equal(np.concatenate(parts), whole), (key, size)


def _reference_power_grad(z, p):
    # the leaf gradient with its row scaling written as a broadcast
    r2 = z[:, 0] ** 2 + z[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(r2 > 0.0, r2 ** ((p - 2.0) / 2.0), 0.0)
    return s[:, None] * z


def _reference_convolution(Mo, z, vals, grads):
    """Value, gradient and Hessian of Mo at z from the part's samples, reduced
    as a gemv and two einsums over all rows, with the magnitudes A that bound
    their rounding error."""
    k, w, gw = len(Mo.spec.nodes), Mo.spec.weights, Mo.spec.grad_weights
    vals, grads = vals.reshape(-1, k), grads.reshape(-1, k, 2)
    q = 0.5 * Mo.mu * (z[:, 0] ** 2 + z[:, 1] ** 2)
    f = vals @ w + q
    g = np.einsum("mki,k->mi", grads, w) + Mo.mu * z
    h = np.einsum("mki,kj->mij", grads, gw) / Mo.eps
    h = 0.5 * (h + np.transpose(h, (0, 2, 1))) + Mo.mu * np.eye(2)
    fa = np.abs(vals) @ np.abs(w) + q
    ga = np.einsum("mki,k->mi", np.abs(grads), np.abs(w)) + Mo.mu * np.abs(z)
    ha = np.einsum("mki,kj->mij", np.abs(grads), np.abs(gw)) / Mo.eps
    ha = 0.5 * (ha + np.transpose(ha, (0, 2, 1))) + Mo.mu * np.eye(2)
    return (f, g, h), (fa, ga, ha)


@pytest.mark.parametrize("name,Mo", _mollified_cases(), ids=[n for n, _ in _mollified_cases()])
def test_mollified_matches_reference_convolution(name, Mo, rng):
    """Both reductions sum the same rounded samples in different orders.

    Every entry is a sum of terms over the k = 576 nodes plus the mu term.
    A term passes through at most k + 3 roundings: its product and at most
    k - 1 additions inside the dot product, then the division by eps, the
    symmetrising addition and the mu addition (the Hessian; value and
    gradient have fewer), whatever the summation order.  So each result is
    within gamma_n(u) A of the exact sum (Higham, Accuracy and Stability of
    Numerical Algorithms, lemma 3.1 and eq. 3.5), n = k + 3, u = eps/2 and A
    the sum of the terms' magnitudes, and the two results are within
    2 gamma_n(u) A <= gamma_n A of each other, gamma_n = n eps / (1 - n eps).
    """
    k = len(Mo.spec.nodes)
    r = 10.0 ** rng.uniform(-3.0, 3.0, 400)
    th = rng.uniform(0.0, 2.0 * np.pi, 400)
    z = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    pts = (z[:, None, :] - Mo.eps * Mo.spec.nodes[None, :, :]).reshape(-1, 2)
    assert np.array_equal(Mo._shifted(z), pts)
    if isinstance(Mo.part, MoreauIntegrand):
        vals, grads, _ = Mo.part.derivs(pts, (0, 1))
    else:
        vals, grads = Mo.part._eval(pts), _reference_power_grad(pts, Mo.part.p)
        assert np.array_equal(Mo.part._grad(pts), grads)
    want, size = _reference_convolution(Mo, z, vals, grads)
    n = k + 3
    gamma = n * np.finfo(float).eps / (1.0 - n * np.finfo(float).eps)
    for got, ref, a in zip(Mo.derivs(z), want, size):
        assert np.all(np.abs(got - ref) <= gamma * a)


def test_scale_rows_matches_the_broadcast_product(rng):
    s = np.concatenate([rng.normal(size=60), [0.0, -0.0, np.inf, np.nan, 5e-324]])
    z = rng.normal(size=(65, 2)) * 10.0 ** rng.integers(-300, 300, (65, 2))
    z[:5] = [[np.inf, 1.0], [0.0, -np.inf], [np.nan, 2.0], [1e-310, -3.0], [0.0, 0.0]]
    for zz in (z, np.asfortranarray(z), z[::-1]):
        with np.errstate(all="ignore"):
            assert np.array_equal(_scale_rows(s, zz), s[:, None] * zz, equal_nan=True)


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
    got = F.derivs(z, range(order + 1))
    want = (F._eval(z), F._grad(z), F._hess(z))
    assert len(got) == 3
    for k in range(3):
        if k <= order:
            assert np.array_equal(got[k], want[k]), (name, k)
        else:
            assert got[k] is None


_WRAPPERS = (SumIntegrand, ScaledIntegrand, ShiftedIntegrand, AffineAddIntegrand,
             MoreauIntegrand, MollifiedIntegrand)


@pytest.mark.parametrize("cls", _WRAPPERS, ids=[c.__name__ for c in _WRAPPERS])
def test_wrappers_define_only_derivs(cls):
    # a per-order method next to derivs would be a second, unchecked rule
    assert "derivs" in vars(cls)
    assert not {"_eval", "_grad", "_hess"} & set(vars(cls))


def _per_order_formulas(F, z):
    """(F, DF, D2F) of a wrapper from its own rule for each order, applied to
    its part's separate ``_eval``/``_grad``/``_hess`` calls."""
    if isinstance(F, SumIntegrand):
        return tuple(sum(getattr(f, m)(z) for f in F.parts) for m in ("_eval", "_grad", "_hess"))
    part = F.part
    if isinstance(F, ScaledIntegrand):
        return F.lam * part._eval(z), F.lam * part._grad(z), F.lam * part._hess(z)
    if isinstance(F, ShiftedIntegrand):
        y = z + F.zbar
        return part._eval(y) - F._offset, part._grad(y), part._hess(y)
    if isinstance(F, AffineAddIntegrand):
        return part._eval(z) + z @ F.w + F.c, part._grad(z) + F.w, part._hess(z)
    W = F.prox(z)
    d = W - z
    return (part._eval(W) + 0.5 / F.delta * (d[:, 0] ** 2 + d[:, 1] ** 2),
            (z - W) / F.delta, part._envelope_hess(W, F.delta))


_ORACLE_CASES = [(n, F) for n, F in _derivs_cases()
                 if isinstance(F, _WRAPPERS) and not isinstance(F, MollifiedIntegrand)]


@pytest.mark.parametrize("name,F", _ORACLE_CASES, ids=[n for n, _ in _ORACLE_CASES])
def test_wrapper_derivatives_match_their_per_order_formulas(name, F, rng):
    z = np.concatenate([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, (40, 2))])
    want = _per_order_formulas(F, z)
    for k, got in enumerate(F.derivs(z)):
        assert np.array_equal(got, want[k]), (name, k)
    for k, method in enumerate((F._eval, F._grad, F._hess)):
        assert np.array_equal(method(z), want[k]), (name, k)


def test_gradient_passes_evaluate_no_leaf_value(monkeypatch, rng):
    # the mollifier's Hessian pairs gradient samples, and the Moreau envelope
    # needs F(prox) only for its value: no pass without order 0 reaches a
    # leaf value
    power3 = quc.make_power(3.0)
    cases = [quc.normalise(quc.mollify_plus_quadratic(power3, 0.25, 0.25)),
             quc.normalise(quc.strongly_elliptic_approx(power3, 2))]
    calls = []
    real = PowerIntegrand._eval

    def counting(self, z):
        calls.append(len(z))
        return real(self, z)

    monkeypatch.setattr(PowerIntegrand, "_eval", counting)
    z = rng.uniform(-2.0, 2.0, (30, 2))
    for F in cases:
        F._grad(z), F._hess(z), F.derivs(z, (1, 2))
        quc.isotropic_envelope(F, n_radii=9, n_angles=8)
        assert not calls, F.describe()
        # the counter sees a value pass
        F._eval(z)
        assert calls
        calls.clear()
