import re

import numpy as np
import pytest

import quc
from quc.integrand import (PROX_GRAD_TOL, AffineAddIntegrand, IntegrandError, PowerIntegrand,
                           ProxError, RadialIntegrand, RadialProfile, ScaledIntegrand,
                           ShiftedIntegrand, SumIntegrand, _prox_solve, _scale_rows)
from quc.regularize import _CHUNK, _RADIAL_SLACK, MollifiedIntegrand, MoreauIntegrand
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


def _radial_parts():
    return [(f"power_{p:g}", quc.make_power(p)) for p in (1.1, 1.5, 2.0, 3.0)] + [
        ("uhlenbeck", quc.make_uhlenbeck(quc.power_sum_profile([(1.0, 1.5), (0.5, 3.0)])))]


def _mollified_cases():
    # the radial leaves and envelopes take the coefficient path; the plain
    # MoreauIntegrand is not a radial part and takes the vector path
    return [(name, quc.mollify_plus_quadratic(F, 0.25, 0.25)) for name, F in _radial_parts()] + [
        (f"moreau_power_{p:g}", quc.mollify_plus_quadratic(
            quc.moreau_yosida(quc.make_power(p), 0.25), 0.25, 0.25)) for p in (1.1, 1.5, 3.0)] + [
        ("vector_moreau_power_1.5", quc.mollify_plus_quadratic(
            MoreauIntegrand(quc.make_power(1.5), 0.25), 0.25, 0.25))]


def _vector_path(Mo):
    """The same convolution sampled through the part's vector gradient: a
    scaling by 1 multiplies every sample exactly and is not a radial part."""
    return MollifiedIntegrand(ScaledIntegrand(Mo.part, 1.0), Mo.eps, Mo.mu)


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


def _radial_magnitudes(Mo, z, s):
    """Per entry, the sums M of |terms| that the radial path's two products
    form from the coefficients s (m, k): z_i sum_k w_k s_k and sum_k w_k
    eps e_k,i s_k for DF_i, and the same with the bump-gradient weights
    gw_k,j / eps for D2F_ij, symmetrised as the Hessian is, plus the mu terms."""
    w, gw = Mo.spec.weights, Mo.spec.grad_weights
    ez = np.abs(Mo.eps * Mo.spec.nodes)                            # (k, 2)
    near = np.abs(z)[:, None, :] + ez[None, :, :]                 # |z_i| + eps |e_k,i|
    ga = np.einsum("mk,k,mki->mi", s, np.abs(w), near) + Mo.mu * np.abs(z)
    ha = np.einsum("mk,kj,mki->mij", s, np.abs(gw), near) / Mo.eps
    ha = 0.5 * (ha + np.transpose(ha, (0, 2, 1))) + Mo.mu * np.eye(2)
    return ga, ha


def _gamma(n):
    return n * np.finfo(float).eps / (1.0 - n * np.finfo(float).eps)


def _test_points(Mo, rng):
    # six decades of radius, z = eps e_k (the part is sampled at 0), z = 0,
    # and z above a node on the x axis by 1e-8 to 1e-100 (a sample near 0)
    r = 10.0 ** rng.uniform(-3.0, 3.0, 400)
    th = rng.uniform(0.0, 2.0 * np.pi, 400)
    z = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    near = Mo.eps * Mo.spec.nodes[36] + np.array([[0.0, d] for d in (1e-8, 1e-20, 1e-50, 1e-100)])
    return np.concatenate([z, Mo.eps * Mo.spec.nodes[[0, 300, 575]], np.zeros((1, 2)), near])


@pytest.mark.parametrize("name,Mo", _mollified_cases(), ids=[n for n, _ in _mollified_cases()])
def test_mollified_matches_reference_convolution(name, Mo, rng):
    """Against the convolution of the part's own samples, summed in another order.

    Every entry is a sum of terms over the k = 576 nodes plus the mu term.
    Summed from given samples, a term passes through at most k + 3
    roundings: its product and at most k - 1 additions inside the dot
    product, then the division by eps, the symmetrising addition and the mu
    addition (the Hessian; value and gradient have fewer), whatever the
    summation order.  So the reference is within gamma_n(u) A of the exact
    sum of its samples (Higham, Accuracy and Stability of Numerical
    Algorithms, lemma 3.1 and eq. 3.5), n = k + 3, u = eps/2 and A the sum
    of the terms' magnitudes; gamma_n(u) <= gamma_n = n eps / (1 - n eps).

    Vector path (a part that is not radial): both reductions sum the same
    rounded samples in different orders, so each is within gamma_{k+3}(u) A
    of the exact sum, and the two within 2 gamma_{k+3}(u) A <= gamma_{k+3} A
    of each other.

    Radial leaf: the value sums the same samples as the reference, so it is
    within gamma_{k+3} A of it.  DF and D2F come from the coefficients s_k =
    G'(r_k)/r_k, the same doubles the part's gradient scales its points by
    (asserted), as DF_i = z_i sum_k w_k s_k - sum_k (w_k eps e_k,i) s_k and
    D2F_ij = (z_i sum_k s_k gw_k,j - sum_k (eps e_k,i gw_k,j) s_k) / eps.
    A term there passes through at most k + 6 roundings: the table product,
    its product with s_k and k - 1 additions, the product with z_i, the
    subtraction, the division by eps, the symmetrising and the mu additions.
    So the result is within gamma_{k+6}(u) M of the exact sum S = sum_k c_k
    s_k (z_i - eps e_k,i) + mu z_i, c_k = w_k or gw_k,j / eps, where M sums
    |c_k| s_k (|z_i| + eps |e_k,i|) and the mu term (``_radial_magnitudes``).
    The reference sums the samples fl(s_k fl(z_i - eps e_k,i)), each within
    gamma_2(u) s_k |z_i - eps e_k,i| of s_k (z_i - eps e_k,i), so its exact
    sum lies within gamma_2(u) M of S.  Together: |fast - reference| <=
    gamma_{k+8} M + gamma_{k+3} A.  M is large where z lies near a node and
    G'(r)/r blows up at 0 (p < 2).  A row keeps the coefficient path only
    where sum_k c_k s_k <= L s_rho, s_rho the part's coefficient at rho = |z|
    + eps, with L = _RADIAL_SLACK sum_k c_k, c_k = w_k + |gw_k,x| + |gw_k,y|
    >= |w_k|, |gw_k,j| and rho >= |z_i| + eps |e_k,i|.  There M <= M' = L
    s_rho rho, over eps for D2F, plus the mu term, so the error is within
    gamma_{k+8} min(M, M') + gamma_{k+3} A.  Every other row is the vector
    path's, within gamma_{k+3} A of the reference.

    Radial envelope: the row test compares with 1/delta in place of s_rho,
    so there M <= M' = L rho / delta, over eps for D2F, plus the mu term.
    The reference samples (w - prox(w))/delta at each shifted point w, and
    the fast path s_k w from the proximal radius.  Let tau = 100 PROX_GRAD_TOL (1 + r) at r = |w|.  A proximal point that
    passes its check lies within delta tau (plus the check's rounding) of
    the exact one, as the proximal objective is (1/delta)-strongly convex,
    so the reference sample is within tau (1 + gamma_6) + gamma_15 r/delta
    of DF_delta(w): the check's rounding is at most gamma_3 (|DF(p)| + (|p|
    + r)/delta), |p| <= r and |DF(p)| <= r/delta + tau, and the division
    rounds twice.  For s_k the class docstring of ``RadialMoreauIntegrand``
    gives |s r - G_delta'(r)| <= tau plus the check's rounding and that of
    G' and s, within tau (1 + gamma_6) + gamma_18 r/delta; the rounding of r
    moves G_delta' by at most gamma_2 r/delta (its Lipschitz constant is
    1/delta) and the direction w/r by gamma_2.  So the two samples differ by
    at most e_k = 2 tau (1 + gamma_6) + gamma_40 r/delta, and the sums by
    T = sum_k |c_k| e_k, symmetrised for D2F.  The fast sums keep their
    gamma_{k+6} min(M, M') (s_k is the coefficient the row test saw) and the
    reference its gamma_{k+3} A: the error is within gamma_{k+6} min(M, M')
    + gamma_{k+3} A + T.  Values: each computed sample exceeds the exact
    envelope by at most delta tau^2 / 2 at its own radius (the objective's
    gap at a point whose residual is at most tau), plus its rounding: at
    most 8 roundings of nonnegative terms, and the rounding of r, which
    moves F_delta by at most gamma_2 r G_delta'(r) <= gamma_2 r^2 s (1 +
    gamma_2).  So two samples v, v' differ by at most delta tau^2 +
    gamma_12 (v + v' + r^2 s), and the values by the sums of these against
    |w_k| plus gamma_{k+3} of both sums' magnitudes.
    """
    k = len(Mo.spec.nodes)
    z = _test_points(Mo, rng)
    pts = (z[:, None, :] - Mo.eps * Mo.spec.nodes[None, :, :]).reshape(-1, 2)
    assert np.array_equal(Mo._shifted(z), pts)
    vals, grads, _ = Mo.part.derivs(pts, (0, 1))
    want, size = _reference_convolution(Mo, z, vals, grads)
    got = Mo.derivs(z)
    if not isinstance(Mo.part, RadialIntegrand):
        for g, ref, a in zip(got, want, size):
            assert np.all(np.abs(g - ref) <= _gamma(k + 3) * a), name
        return
    v, s = Mo.part._radial_samples(pts[:, 0], pts[:, 1], (0, 1))
    rho = np.hypot(z[:, 0], z[:, 1]) + Mo.eps
    envelope = isinstance(Mo.part, MoreauIntegrand)
    if envelope:
        s_rho = 1.0 / Mo.part.delta
    else:
        s_rho = Mo.part._radial_samples(rho, np.zeros_like(rho), (1,))[1]
    c = Mo.spec.weights + np.abs(Mo.spec.grad_weights).sum(axis=1)
    top = _RADIAL_SLACK * c.sum() * s_rho * rho
    ceiling = (top[:, None] + Mo.mu * np.abs(z), top[:, None, None] / Mo.eps + Mo.mu * np.eye(2))
    magnitudes = _radial_magnitudes(Mo, z, s.reshape(-1, k))
    fast = [_gamma(k + (6 if envelope else 8)) * np.minimum(m, m_top)
            for m, m_top in zip(magnitudes, ceiling)]
    if not envelope:
        if isinstance(Mo.part, PowerIntegrand):
            assert np.array_equal(grads, _reference_power_grad(pts, Mo.part.p))
        assert np.array_equal(grads, _scale_rows(s, pts))
        assert np.all(np.abs(got[0] - want[0]) <= _gamma(k + 3) * size[0])
        for g, ref, a, bound in zip(got[1:], want[1:], size[1:], fast):
            assert np.all(np.abs(g - ref) <= bound + _gamma(k + 3) * a)
        return
    delta, w, gw = Mo.part.delta, np.abs(Mo.spec.weights), np.abs(Mo.spec.grad_weights)
    r = np.hypot(pts[:, 0], pts[:, 1])
    tau = 100.0 * PROX_GRAD_TOL * (1.0 + r)
    e = (2.0 * tau * (1.0 + _gamma(6)) + _gamma(40) * r / delta).reshape(-1, k)
    t_grad = (e @ w)[:, None]
    t_hess = np.einsum("mk,kj->mj", e, gw)[:, None, :] / Mo.eps
    t_hess = 0.5 * (t_hess + np.transpose(t_hess, (0, 2, 1)))
    for g, ref, a, bound, t in zip(got[1:], want[1:], size[1:], fast, (t_grad, t_hess)):
        assert np.all(np.abs(g - ref) <= bound + _gamma(k + 3) * a + t), name
    gap = delta * tau**2 + _gamma(12) * (v + vals + r**2 * s)
    q = 0.5 * Mo.mu * (z[:, 0] ** 2 + z[:, 1] ** 2)
    a_fast = v.reshape(-1, k) @ w + q
    bound = gap.reshape(-1, k) @ w + _gamma(k + 3) * (a_fast + size[0])
    assert np.all(np.abs(got[0] - want[0]) <= bound), name


@pytest.mark.parametrize("name,F", _radial_parts(), ids=[n for n, _ in _radial_parts()])
def test_radial_mollifier_value_is_the_vector_paths(name, F, rng):
    # the value sums the same samples in the same per-row product
    Mo = quc.mollify_plus_quadratic(F, 0.25, 0.25)
    z = _test_points(Mo, rng)
    assert np.array_equal(Mo._eval(z), _vector_path(Mo)._eval(z))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name,F", _radial_parts(), ids=[n for n, _ in _radial_parts()])
def test_radial_mollifier_rows_without_a_coefficient_take_the_vector_path(name, F, rng):
    # a point 1e-160 above a node on the x axis puts a sample in the power
    # leaf's tiny-radius regime (|w|^2 underflows), where its coefficient is
    # nan; the Uhlenbeck profile's coefficient there, 1e80 from its t^1.5
    # term, fails the row test instead.  Points that are not finite fall
    # back for every radial part.  Those rows give the vector path's bits,
    # and every row its own bits, in any batch.
    Mo = quc.mollify_plus_quadratic(F, 0.25, 0.25)
    node = Mo.eps * Mo.spec.nodes[36]
    assert node[1] == 0.0
    odd = np.array([node + [0.0, 1e-160], [np.inf, 0.5], [np.nan, 0.0], [0.3, -np.inf]])
    z = np.concatenate([rng.uniform(-2.0, 2.0, (5, 2)), odd, rng.uniform(-2.0, 2.0, (5, 2))])
    fallback = np.arange(5, 9)
    tiny = F._radial_samples(np.array([0.0]), np.array([1e-160]), (1,))[1]
    assert np.isnan(tiny).all() == isinstance(F, PowerIntegrand)
    vector = _vector_path(Mo)
    for order in range(3):
        got = Mo.derivs(z, (order,))[order]
        want = vector.derivs(z[fallback], (order,))[order]
        assert np.array_equal(got[fallback], want, equal_nan=True), (name, order)
        alone = [Mo.derivs(z[i:i + 1], (order,))[order][0] for i in range(len(z))]
        assert np.array_equal(np.stack(alone), got, equal_nan=True), (name, order)


def test_radial_envelope_takes_one_prox_radius_per_sample(monkeypatch, rng):
    # a (0, 1) pass over three convolution chunks solves the proximal radius
    # of each shifted point once, for the value and the coefficient alike,
    # and none for the row test, which compares with 1/delta
    sizes = []
    radius = PowerIntegrand._prox_radius
    monkeypatch.setattr(PowerIntegrand, "_prox_radius",
                        lambda self, r, delta: sizes.append(r.size) or radius(self, r, delta))
    Mo = quc.strongly_elliptic_approx(quc.make_power(3.0), 2)
    k = len(Mo.spec.nodes)
    rows = _CHUNK // k
    Mo.derivs(rng.uniform(-2.0, 2.0, (2 * rows + 8, 2)), (0, 1))
    assert sizes == [rows * k, rows * k, 8 * k]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p, z, node, why", [
    # r / (1 + delta) is not the radius of the power 3: the first sample misses
    (3.0, [0.7, -0.4], None, ""),
    # the radius of the sample 2.9e-10 off node 0 underflows, as in
    # test_moreau_prox_names_an_underflowing_radius
    (1.01, [2.9e-10, 0.0], 0, "radius underflows below the smallest positive double"),
    # points that are not finite miss at their first sample
    (3.0, [np.nan, 0.5], None, ""),
    (1.5, [np.inf, 0.5], None, ""),
], ids=["wrong_map", "underflow", "nan", "inf"])
def test_radial_envelope_names_the_shifted_point_it_misses(p, z, node, why, monkeypatch):
    # the coefficient path checks every proximal radius and fails as the
    # vector path does: the same shifted point, tolerance and reason
    F = quc.make_power(p)
    Mo = quc.mollify_plus_quadratic(quc.moreau_yosida(F, 0.25), 0.25, 0.25)
    z = np.array([z])
    if node is None and np.isfinite(z).all():
        monkeypatch.setattr(F, "_prox_radius", lambda r, delta: r / (1.0 + delta))
    if node is not None:
        z = z + Mo.eps * Mo.spec.nodes[node]
    messages = []
    for M in (Mo, _vector_path(Mo)):
        for orders in ((0,), (1,), (2,)):
            with pytest.raises(ProxError) as err:
                M.derivs(z, orders)
            messages.append(re.sub(r"\|grad\| = \S+ ", "", str(err.value)))
    assert len(set(messages)) == 1, messages
    shifted = Mo._shifted(z)
    i = 0 if node is None else int(np.argmin(np.hypot(*shifted.T)))
    assert f"at z = {shifted[i].tolist()} " in messages[0]
    if why:
        assert why in messages[0]
    else:
        assert "underflow" not in messages[0] and "subnormal" not in messages[0]


@pytest.mark.parametrize("delta", [0.25, 2.0])
def test_radial_envelope_coefficient_matches_closed_forms(delta):
    """G'(rho)/r against closed forms, with delta a power of 2 and r exact
    (sqrt(fl(r^2)) = r, and np.hypot below the range of r^2).

    p = 2: rho = fl(r / (1 + delta)), 1 + delta exact, G'(rho) = rho**1 =
    rho, so s = fl(rho / r) is within gamma_2 / (1 + delta) of 1/(1 + delta).
    p = 3: rho = fl(2 r / q) with q = 1 + sqrt(1 + 4 delta r) computed as the
    test does, then s = fl(fl(rho^2) / r) = (4 r / q^2)(1 + theta)^4 and the
    reference fl(4 r / fl(q^2)) = (4 r / q^2)(1 + theta)/(1 + theta'): they
    agree within gamma_6 relative (Higham, lemma 3.1), plus 2^-1074 / r
    where rho^2 leaves the normal doubles (r below 1.5e-154).  The closed
    form 4 r / (1 + sqrt(1 + 4 delta r))^2 has no cancellation.
    p = 1.1: below r = delta 4.4e-33 the root (about (r/delta)^10) is under
    2^-1075, so rho = 0, and the optimality test passes, r / delta <= 1e-9.
    There, and where rho is subnormal, fl(r - rho) = r, so s = fl(1/delta) =
    1/delta exactly: the limit, not G'(0)/r = 0.
    """
    r = np.geomspace(1e-300, 1e8, 601)

    def coeff(p, radii):
        return quc.moreau_yosida(quc.make_power(p), delta)._radial_samples(
            radii, np.zeros_like(radii), (1,))[1]

    assert np.all(np.abs(coeff(2.0, r) - 1.0 / (1.0 + delta)) <= _gamma(2) / (1.0 + delta))
    q = 1.0 + np.sqrt(1.0 + 4.0 * delta * r)
    want = 4.0 * r / q**2
    slack = _gamma(6) * want + np.finfo(float).smallest_subnormal / r
    assert np.all(np.abs(coeff(3.0, r) - want) <= slack)
    assert np.all(coeff(3.0, np.zeros(3)) == 0.0)
    small = np.geomspace(1e-300, delta * 1e-31, 301)
    rho = quc.make_power(1.1)._prox_radius(small, delta)
    assert (rho == 0.0).any() and ((rho > 0.0) & (rho < np.finfo(float).tiny)).any()
    low = rho < np.finfo(float).tiny
    assert np.all(coeff(1.1, small)[low] == 1.0 / delta)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_nested_envelopes_compose(p, rng):
    """e_d2(e_d1 F) = e_{d1+d2} F, values and gradients, at 200 points.

    With tau(z) = 100 PROX_GRAD_TOL (1 + |z|): the direct envelope's
    proximal point W passes its check, so its gradient (z - W)/delta is
    within tau(z) of the exact one.  The outer point W2 of the nested
    envelope passes its own check against the inner gradient, which is
    within tau(W2) of exact, so its gradient is within tau(z) + tau(W2).
    The residuals' and divisions' roundings add at most gamma_16 |z| / d2
    (each is gamma_3 of terms of size at most 3 |z| / d2).  A value at a
    point whose objective's gradient is at most R exceeds the exact
    infimum by at most delta R^2 / 2 ((1/delta)-strong convexity): d1
    tau(W2)^2 / 2 inside, d2 (tau(z) + tau(W2))^2 / 2 outside and (d1 + d2)
    tau(z)^2 / 2 directly, doubled for the residuals' own rounding; each
    value is a sum of nonnegative terms with at most 10 roundings.
    """
    d1, d2 = 0.25, 0.5
    r = np.geomspace(1e-3, 1e2, 200)
    th = rng.uniform(0.0, 2.0 * np.pi, 200)
    z = r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    F = quc.make_power(p)
    nested = quc.moreau_yosida(quc.moreau_yosida(F, d1), d2)
    direct = quc.moreau_yosida(F, d1 + d2)
    fn, gn, _ = nested.derivs(z, (0, 1))
    fd, gd, _ = direct.derivs(z, (0, 1))
    tau = 100.0 * PROX_GRAD_TOL * (1.0 + r)
    W2 = nested.prox(z)
    tau2 = 100.0 * PROX_GRAD_TOL * (1.0 + np.hypot(W2[:, 0], W2[:, 1]))
    assert np.all(np.hypot(*(gn - gd).T) <= 2.0 * tau + tau2 + _gamma(16) * r / d2)
    gap = d1 * tau2**2 + d2 * (tau + tau2) ** 2 + (d1 + d2) * tau**2
    assert np.all(np.abs(fn - fd) <= gap + _gamma(10) * (fn + fd))


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
        ("mollified_power_1.1", quc.mollify_plus_quadratic(quc.make_power(1.1), 0.25, 0.25)),
        ("mollified_uhlenbeck", quc.mollify_plus_quadratic(quc.make_uhlenbeck(
            quc.power_sum_profile([(1.0, 1.5), (0.5, 3.0)])), 0.25, 0.25)),
        ("ladder", quc.normalise(quc.strongly_elliptic_approx(power3, 2))),
        ("ladder_vector_path", quc.normalise(quc.mollify_plus_quadratic(
            MoreauIntegrand(power3, 0.25), 0.25, 0.25))),
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
    # needs G(rho) or F(prox) only for its value: no pass without order 0
    # reaches a leaf value, by the leaf's _eval, by its _radial_samples with
    # order 0 (the mollifier's radial path) or by a call of its profile G
    # (the radial envelope's samples)
    power3 = quc.make_power(3.0)
    cases = [quc.normalise(quc.mollify_plus_quadratic(power3, 0.25, 0.25)),
             quc.normalise(quc.strongly_elliptic_approx(power3, 2))]
    calls = []

    def counting(cls, name, wants_value):
        real = getattr(cls, name)

        def method(self, *args):
            if wants_value(args):
                calls.append((name, np.size(args[0])))
            return real(self, *args)

        monkeypatch.setattr(cls, name, method)

    counting(PowerIntegrand, "_eval", lambda a: True)
    counting(PowerIntegrand, "_radial_samples", lambda a: 0 in a[2])
    counting(RadialProfile, "__call__", lambda a: True)
    z = rng.uniform(-2.0, 2.0, (30, 2))
    for F, seam in zip(cases, ("_radial_samples", "__call__")):
        F._grad(z), F._hess(z), F.derivs(z, (1, 2))
        quc.isotropic_envelope(F, n_radii=9, n_angles=8)
        assert not calls, F.describe()
        # the counter sees a value pass, on the path each case takes
        F._eval(z)
        assert seam in {name for name, _ in calls}, F.describe()
        calls.clear()
