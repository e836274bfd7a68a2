import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quc
import quc.cli
from quc.qc_analysis import compose_profiles, sym_eig_bounds
from conftest import InfPower, NanPower, catalogue


# ---------------------------------------------------------------------------
# eta profiles
# ---------------------------------------------------------------------------

def test_eta_values():
    prof = quc.EtaProfile(2.0, 0.5)
    assert quc.eta(prof, 4.0) == pytest.approx(16.0)
    assert quc.eta(prof, 1.0) == pytest.approx(1.0)
    assert quc.eta_inv(prof, 16.0) == pytest.approx(4.0)
    assert quc.eta(prof, 0.0) == 0.0
    assert quc.eta_inv(prof, 0.0) == 0.0


def test_eta_roundtrip():
    prof = quc.EtaProfile(3.0, 0.4)
    t = np.geomspace(1e-6, 1e6, 200)
    np.testing.assert_allclose(prof(prof.inv(t)), t, rtol=1e-12)


def test_eta_submultiplicative_equality_case():
    prof = quc.EtaProfile(3.0, 1.0 / 3.0)
    assert prof(4.0) == pytest.approx(prof(2.0) * prof(2.0))  # 64 = 64


def test_eta_composition_example():
    # eta_{2,1} o eta_{3,2} = eta_{6,2}; both sides are 64 at t = 2
    p, q = quc.EtaProfile(2.0, 1.0), quc.EtaProfile(3.0, 2.0)
    comp = compose_profiles(p, q)
    assert (comp.a, comp.b) == (6.0, 2.0)
    assert p(q(2.0)) == pytest.approx(64.0)
    assert comp(2.0) == pytest.approx(64.0)


def test_eta_reflection_example():
    prof = quc.EtaProfile(2.0, 0.5)
    val = prof.inv(5.0) * quc.EtaProfile(0.5, 2.0)(1.0 / 5.0)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_eta_identities_check_passes(rng):
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 10**4))
    t = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 10**4))
    for a, b in [(1.0, 1.0), (2.0, 0.5), (4.0, 0.25), (3.0, 2.0), (0.5, 1.0 / 3.0),
                 (10.0, 0.1), (30.0, 1.0 / 30.0)]:
        rep = quc.eta_identities_check(quc.EtaProfile(a, b), s, t)
        assert rep.ok, rep.first_violation
        assert all(np.isfinite(v) for v in rep.max_violation.values()), rep.max_violation


def test_eta_identities_reports_violation(rng):
    # sanity of the reporting path: a sabotaged tolerance must flag inputs
    prof = quc.EtaProfile(2.0, 0.5)
    rep = quc.eta_identities_check(prof, np.array([3.0]), np.array([7.0]), tol=-1.0)
    assert not rep.ok
    assert rep.first_violation is not None


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.1, 8.0), b=st.floats(0.1, 8.0),
       s=st.floats(1e-5, 1e5), t=st.floats(1e-5, 1e5))
def test_eta_identities_property(a, b, s, t):
    prof = quc.EtaProfile(a, b)
    assert prof(s * t) <= prof(s) * prof(t) * (1.0 + 1e-12)
    assert prof.inv(t) * prof.reciprocal()(1.0 / t) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# delta <-> H
# ---------------------------------------------------------------------------

def test_delta_from_H_values():
    assert quc.delta_from_H(1.0) == pytest.approx(1.0)
    assert quc.delta_from_H(4.0) == pytest.approx(0.8, rel=1e-15)
    assert quc.H_from_delta(1.0) == pytest.approx(1.0)
    assert quc.H_from_delta(quc.delta_from_H(4.0)) == pytest.approx(4.0, rel=1e-13)


def test_delta_H_roundtrip_range():
    H = np.geomspace(1.0, 1e6, 100)
    np.testing.assert_allclose(quc.H_from_delta(quc.delta_from_H(H)), H, rtol=1e-12)


def test_delta_H_domain_errors():
    with pytest.raises(ValueError):
        quc.delta_from_H(0.5)
    with pytest.raises(ValueError):
        quc.H_from_delta(1.5)
    with pytest.raises(ValueError):
        quc.H_from_delta(0.0)
    with pytest.raises(ValueError):
        quc.eta_H(0.5)
    with pytest.raises(ValueError):
        quc.EtaProfile(0.0, 1.0)


def test_a_nan_H_gives_nan_profiles():
    # a measured H that is nan is let through, and every value it sets is nan
    assert np.isnan(quc.eta_H(np.nan)(2.0))
    assert np.isnan(quc.EtaProfile(np.nan / (np.nan + 1.0), 1.0 / (np.nan + 1.0))(2.0))
    assert np.isnan(quc.delta_from_H(np.nan))


@settings(max_examples=100, deadline=None)
@given(H=st.floats(1.0, 1e6))
def test_delta_H_roundtrip_property(H):
    assert quc.H_from_delta(quc.delta_from_H(H)) == pytest.approx(H, rel=1e-12)


# ---------------------------------------------------------------------------
# dilatation estimates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.25, 1.5, 2.5, 3.0, 4.0])
def test_estimate_H_powers(p, rng):
    expected = max(p - 1.0, 1.0 / (p - 1.0))
    est = quc.estimate_H(quc.make_power(p), rng=rng)
    assert abs(est.H_est - expected) <= 0.02 * expected


def test_estimate_H_constant_hessian(rng):
    F = quc.make_anisotropic_quadratic([[1.6, 0.0], [0.0, 0.4]])
    est = quc.estimate_H(F, rng=rng)
    assert est.H_est == pytest.approx(4.0, rel=1e-12)
    assert quc.estimate_H(quc.make_power(2.0), rng=rng).H_est == pytest.approx(1.0)


def test_measure_delta_identity_map(rng):
    rep = quc.measure_delta_monotonicity(quc.make_power(2.0), rng)
    assert rep.delta_est == pytest.approx(1.0, abs=1e-12)


def test_measure_delta_sharp_pair():
    F = quc.make_anisotropic_quadratic([[1.6, 0.0], [0.0, 0.4]])
    rep = quc.measure_delta_monotonicity(F, np.random.default_rng(0))
    assert rep.delta_est == pytest.approx(0.8, abs=1e-10)


def test_measure_delta_power3(rng):
    rep = quc.measure_delta_monotonicity(quc.make_power(3.0), rng)
    assert rep.delta_est >= 2.0 * np.sqrt(2.0) / 3.0 - 1e-6


@pytest.mark.parametrize("name,F", catalogue())
def test_delta_vs_H_lower_bound(name, F, rng):
    est = quc.estimate_H(F, rng=rng)
    rep = quc.measure_delta_monotonicity(F, rng)
    assert rep.delta_est >= quc.delta_from_H(est.H_est) - 1e-6


def test_a_nan_sample_is_the_worst_one(rng):
    # a nan Hessian or gradient at every 97th sample is measured, not
    # skipped: each estimate reads nan, which fails its analyze row
    F = NanPower()
    est = quc.estimate_H(F, rng=rng)
    assert np.isnan(est.H_est) and est.n_skipped == 0
    rep = quc.measure_delta_monotonicity(F, rng)
    assert np.isnan(rep.delta_est) and rep.n_skipped == 0
    rep = quc.quasisymmetry_check(F, rng=rng, H=2.0)
    assert np.isnan(rep.C) and rep.n_triples == 10**4


# each sampler reduced to its worst value
_SAMPLERS = {
    "estimate_H": lambda F, rng: quc.estimate_H(F, rng=rng).H_est,
    "delta_monotonicity": lambda F, rng: quc.measure_delta_monotonicity(F, rng).delta_est,
    "quasisymmetry": lambda F, rng: quc.quasisymmetry_check(F, rng=rng, H=2.0).C,
    "isotropic_envelope": lambda F, rng: quc.integrand.isotropic_envelope(F).a_table.max(),
    "gradient_fd": lambda F, rng: quc.integrand.check_gradient_finite_differences(F, rng),
    "hessian_symmetry": lambda F, rng: quc.integrand.check_hessian_symmetry(F, rng),
    "midpoint_convexity": lambda F, rng: quc.integrand.check_midpoint_convexity(F, rng),
}


@pytest.mark.parametrize("sampler", list(_SAMPLERS.values()), ids=list(_SAMPLERS))
def test_an_inf_sample_is_the_worst_one_without_a_warning(sampler, rng):
    # an inf value, gradient or Hessian entry at every 97th sample makes
    # inf - inf in the sample arithmetic: a nan sample, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        worst = sampler(InfPower(), rng)
    assert not np.isfinite(worst)


def test_finite_differences_of_an_inf_value_are_nan_without_a_warning(rng):
    # inf - inf in the central differences of F: a non-finite entry, not a
    # RuntimeWarning from the leaf
    F = quc.integrand.FiniteDifferenceIntegrand(InfPower())
    z = rng.uniform(-10.0, 10.0, (500, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g, h = F._grad(z), F._hess(z)
    assert not np.isfinite(g).all() and not np.isfinite(h).all()


def test_envelope_C_of_an_inf_value_is_nan(rng):
    # an inf F sample gives F/A = inf and A/F = 0: both sides read nan, as
    # every other analyze row does, and so does C
    F = InfPower()
    env = quc.isotropic_envelope(quc.make_power(3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = env.check_envelope(F, rng)
    assert np.isnan(rep["C"]) and np.isnan(rep["C_upper"]) and np.isnan(rep["C_lower"])


def test_eta_identities_worst_keeps_a_nan_violation(monkeypatch, rng):
    # the builtin max() of [1e-16, nan, 2e-16] is 2e-16
    report = quc.qc_analysis.EtaIdentityReport(
        ok=False, max_violation={"a": 1e-16, "b": np.nan, "c": 2e-16})
    monkeypatch.setattr(quc.qc_analysis, "eta_identities_check", lambda *args: report)
    rows, _ = quc.cli.analyze_rows(quc.normalise(quc.make_power(3.0)), rng)
    row = next(r for r in rows if r["check"] == "eta_identities_worst")
    assert np.isnan(row["measured"]) and quc.cli._analyze_verdict(row) == "FAIL"


def test_eta_identities_check_fails_a_nan_profile():
    rep = quc.eta_identities_check(quc.eta_H(np.nan), np.array([3.0]), np.array([7.0]))
    assert not rep.ok and rep.first_violation[0] == "submultiplicative"
    assert all(np.isnan(v) for v in rep.max_violation.values())


class _NanOnRefinement(quc.integrand.PowerIntegrand):
    """|z|^3 / 3 whose gradient reads nan at the first angle of each
    17-angle refinement sweep of the circle search."""

    def __init__(self):
        super().__init__(3.0)

    def _grad(self, z):
        g = super()._grad(z).copy()
        if len(z) == 17:
            g[0] = np.nan
        return g


def test_circle_search_keeps_a_nan_refinement_sample():
    # min(best, nan) is best: the sweep moved to the nan angle but dropped
    # its value
    assert np.isnan(quc.integrand.gradient_infimum_on_circle(_NanOnRefinement()))
    assert quc.integrand.gradient_infimum_on_circle(quc.make_power(3.0)) == pytest.approx(1.0)


def test_estimate_H_of_sums(rng):
    members = [F for _, F in catalogue() if F.kind != "blend"]
    for _ in range(20):
        i, j = rng.integers(0, len(members), 2)
        S = quc.combine("sum", [members[i], members[j]])
        hs = quc.estimate_H(S, rng=rng).H_est
        hi = quc.estimate_H(members[i], rng=rng).H_est
        hj = quc.estimate_H(members[j], rng=rng).H_est
        assert hs <= max(hi, hj) + 1e-8


# ---------------------------------------------------------------------------
# Cassels oracle
# ---------------------------------------------------------------------------

def test_cassels_isotropic():
    assert quc.cassels_oracle([1.0, 1.0], trials=500) == pytest.approx(1.0, abs=1e-12)


def test_cassels_two_point():
    # closed form 2 sqrt(l1 lN) / (l1 + lN) = 0.8 for (1, 4)
    val = quc.cassels_oracle([1.0, 4.0], trials=5000)
    assert 0.8 - 1e-6 <= val <= 0.8 + 1e-3


def test_cassels_extremes_only():
    val = quc.cassels_oracle([1.0, 2.0, 4.0], trials=20000)
    assert 0.8 - 1e-6 <= val <= 0.8 + 1e-3


def test_cassels_rejects_bad_input():
    with pytest.raises(ValueError):
        quc.cassels_oracle([])
    with pytest.raises(ValueError):
        quc.cassels_oracle([1.0, -2.0])


# ---------------------------------------------------------------------------
# quasisymmetry
# ---------------------------------------------------------------------------

def test_quasisymmetry_identity(rng):
    rep = quc.quasisymmetry_check(quc.make_power(2.0), rng=rng, H=1.0)
    assert rep.C == pytest.approx(1.0, abs=1e-9)


def test_quasisymmetry_radial_triple():
    # z0 = 0, |z| = 2, |w| = 1 for p = 3: quotient |z|^2/|w|^2 = 4 = eta_2(2);
    # the second triple, with w = z0, is skipped and not counted
    F = quc.make_power(3.0)
    z0 = np.zeros((2, 2))
    z = np.array([[2.0, 0.0], [1.0, 0.0]])
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = quc.quasisymmetry_check(F, triples=(z0, z, w), H=2.0)
    assert rep.C == pytest.approx(1.0, rel=1e-12)
    assert rep.n_triples == 1


def test_quasisymmetry_blend_finite(rng):
    B = quc.make_blend(3.0, 1.5, (0.5, 0.0))
    H = quc.estimate_H(B, rng=np.random.default_rng(1)).H_est
    rep = quc.quasisymmetry_check(B, rng=rng, n_triples=10**5, H=H)
    assert np.isfinite(rep.C) and rep.C > 0
    assert rep.n_triples > 9 * 10**4


# ---------------------------------------------------------------------------
# matrix inequality
# ---------------------------------------------------------------------------

def test_matrix_inequality_identity_equality():
    S = np.array([[1.0, 2.0], [2.0, -3.0]])
    rep = quc.matrix_inequality_check(np.eye(2), S)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    assert rep.ok


def test_matrix_inequality_direct_2x2():
    # P = diag(2,1), S = offdiag(1): PS = [[0,2],[1,0]],
    # (PS, SP)_2 = Tr((PS)^2) = 4, |PS|_2^2 = 5, ratio bound 1/2 -> margin 1.5
    P = np.diag([2.0, 1.0])
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = quc.matrix_inequality_check(P, S)
    assert rep.margin == pytest.approx(1.5, rel=1e-12)
    assert rep.ok


def _random_spd(rng, m, d):
    A = rng.normal(size=(m, d, d))
    return A @ np.transpose(A, (0, 2, 1)) + 1e-3 * np.eye(d)


@pytest.mark.parametrize("d", [2, 3])
def test_matrix_inequality_randomised(d, rng):
    m = 10**5
    P = _random_spd(rng, m, d)
    S = rng.normal(size=(m, d, d))
    S = S + np.transpose(S, (0, 2, 1))
    rep = quc.matrix_inequality_check(P, S)
    assert rep.ok, rep.margin_normalised


def test_matrix_inequality_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        quc.matrix_inequality_check(np.eye(2), np.eye(3))


def test_sym_eig_bounds_generic():
    M = np.diag([3.0, 1.0, 2.0])
    lo, hi = sym_eig_bounds(M)
    assert (lo, hi) == (1.0, 3.0)
