import numpy as np
import pytest

import quc
from quc.csvio import read_csv, write_csv
from quc.estimates import REPORT_FIELDS, VerificationReport, _straddling_count
from quc.solver import Mesh


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_ratio_convention():
    assert VerificationReport("x", 0.0, 0.0).ratio == 0.0
    assert VerificationReport("x", 1.0, 0.0).ratio == np.inf
    assert VerificationReport("x", 1.0, 4.0).ratio == 0.25


def test_report_csv_roundtrip(tmp_path):
    rep = VerificationReport(
        name="caccioppoli", lhs=np.pi, rhs=np.e, constant=987.6543210123456789,
        grid_n=65, integrand="power(p=3)",
        params={"k": 0.1, "ell_c": 0.1, "ell_b1": 0.0, "ell_b2": 0.0,
                "rho": 0.2, "R": 0.4, "center_x": 1.5, "center_y": 1.5},
        extra={"H_est": 2.0, "straddling": 7, "tris_smallest_ball": 1029})
    path = tmp_path / "rep.csv"
    write_csv(path, REPORT_FIELDS, [rep.to_row()], "prov=test")
    prov, fields, rows = read_csv(path)
    assert prov == "prov=test"
    assert fields == REPORT_FIELDS
    back = VerificationReport.from_row(rows[0])
    assert back.lhs == rep.lhs and back.rhs == rep.rhs
    assert back.ratio == rep.ratio
    assert back.params == rep.params
    assert back.extra["straddling"] == 7
    assert back.constant == rep.constant


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_straddling_count_matches_edge_dictionary(rng):
    for mask in (None, (np.array([0.5, 0.5]), 0.44)):
        m = Mesh(((0.0, 1.0), (0.0, 1.0)), 17, mask=mask)
        owners = {}
        for t, tri in enumerate(m.tris.tolist()):
            for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                owners.setdefault(tuple(sorted(e)), []).append(t)
        assert max(len(ts) for ts in owners.values()) == 2
        # random sets, and the triangles touching the edge of the domain,
        # whose neighbours across that edge are missing
        at_edge = m.dirichlet[m.tris].any(axis=1)
        cases = [(rng.random(m.n_tris) < 0.5, rng.random(m.n_tris) < 0.7) for _ in range(5)]
        cases += [(at_edge, np.ones(m.n_tris, dtype=bool)), (~at_edge, at_edge)]
        for member, region in cases:
            differs = np.zeros(m.n_tris, dtype=bool)
            for ts in owners.values():
                if len(ts) == 2 and member[ts[0]] != member[ts[1]]:
                    differs[ts] = True
            assert _straddling_count(m, member, region) == int((differs & region).sum())
        assert _straddling_count(m, at_edge, at_edge) > 0


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------

def test_caccioppoli_affine_solution(sol_affine):
    rep = quc.caccioppoli_check(sol_affine, (0.0, np.zeros(2)), 0.15, 0.3,
                                (0.5, 0.5), H=2.0)
    assert rep.lhs <= 1e-16
    assert rep.ratio <= 1.0


def test_caccioppoli_harmonic(sol_harmonic):
    rep = quc.caccioppoli_check(sol_harmonic[33], (0.0, np.zeros(2)), 0.2, 0.4,
                                (0.5, 0.5), H=1.0)
    assert rep.rhs > 0
    assert rep.ratio <= 1.2
    assert rep.extra["tris_smallest_ball"] >= 200


def test_caccioppoli_affine_level(sol_harmonic):
    # ell chosen so that {F(Du) = ell(Du)} genuinely crosses the ball:
    # at the center Du = (1, -1) with F = 1 while ell = 1.1 there
    rep = quc.caccioppoli_check(sol_harmonic[33], (0.9, np.array([0.2, 0.0])),
                                0.2, 0.4, (0.5, 0.5), H=1.0)
    assert rep.ratio <= 1.2
    assert 0 < rep.extra["straddling"]


def test_caccioppoli_validates_geometry(sol_harmonic):
    with pytest.raises(ValueError, match="rho < R"):
        quc.caccioppoli_check(sol_harmonic[17], (0.0, np.zeros(2)), 0.4, 0.2,
                              (0.5, 0.5))
    with pytest.raises(ValueError, match="leaves the domain"):
        quc.caccioppoli_check(sol_harmonic[17], (0.0, np.zeros(2)), 0.2, 0.7,
                              (0.5, 0.5))


def test_caccioppoli_l1_stability(sol_harmonic):
    reps = {n: quc.caccioppoli_l1_check(sol_harmonic[n], 0.2, (0.5, 0.5), H=1.0)
            for n in (33, 65)}
    r33, r65 = reps[33].ratio, reps[65].ratio
    assert r65 <= 1.05 * r33
    assert reps[65].lhs > 0


# ---------------------------------------------------------------------------
# Sobolev stress bounds
# ---------------------------------------------------------------------------

def test_sobolev_affine(sol_affine):
    dv_rep, v_rep = quc.sobolev_stress_check(sol_affine, 0.15, (0.5, 0.5), H=2.0)
    assert dv_rep.lhs <= 1e-10
    assert v_rep.lhs > 0


def test_sobolev_harmonic_stable(sol_harmonic):
    cs = []
    for n in (33, 65):
        dv_rep, _ = quc.sobolev_stress_check(sol_harmonic[n], 0.2, (0.5, 0.5), H=1.0)
        cs.append(dv_rep.ratio)
    assert abs(cs[1] - cs[0]) <= 0.10 * cs[0]


# ---------------------------------------------------------------------------
# Lipschitz proxy
# ---------------------------------------------------------------------------

def test_lipschitz_affine_ratio_one(sol_affine):
    rep = quc.lipschitz_check(sol_affine, 0.15, (0.5, 0.5))
    assert rep.ratio == pytest.approx(1.0, abs=1e-8)


def test_lipschitz_harmonic_closed_form(sol_harmonic):
    # F(Du) = 2|x|^2: sup over B_{R/2}(c) is 2(|c| + R/2)^2,
    # mean over B_{2R}(c) is 2(|c|^2 + (2R)^2/2)
    R, c = 0.2, np.array([0.5, 0.5])
    nc = np.hypot(*c)
    expect = 2.0 * (nc + R / 2) ** 2 / (2.0 * (nc**2 + (2 * R) ** 2 / 2.0))
    rep = quc.lipschitz_check(sol_harmonic[65], R, c)
    assert rep.ratio == pytest.approx(expect, rel=0.02)


# ---------------------------------------------------------------------------
# De Giorgi iteration
# ---------------------------------------------------------------------------

def test_degiorgi_zero_start():
    res = quc.degiorgi_iterate(0.0, 1.0, 4.0, 1.0, 2)
    assert res.verdict == "vanishes"
    assert np.all(res.sequence == 0.0)


def test_degiorgi_threshold_example():
    assert quc.degiorgi_threshold(1.0, 4.0, 1.0, 2) == pytest.approx(0.25)
    ok = quc.degiorgi_iterate(0.2, 1.0, 4.0, 1.0, 2)
    assert ok.verdict == "vanishes"
    bad = quc.degiorgi_iterate(10 * 0.25, 1.0, 4.0, 1.0, 2)
    assert bad.verdict == "diverges/stalls"
    assert bad.sequence[-1] > 1e300 or not np.isfinite(bad.sequence[-1])


def test_degiorgi_bitwise_reproducible():
    a = quc.degiorgi_iterate(0.2, 1.0, 4.0, 1.0, 2)
    b = quc.degiorgi_iterate(0.2, 1.0, 4.0, 1.0, 2)
    assert a.sequence.tobytes() == b.sequence.tobytes()
    assert a.verdict == b.verdict


def test_degiorgi_validates_input():
    with pytest.raises(ValueError):
        quc.degiorgi_iterate(-1.0, 1.0, 4.0, 1.0, 2)
    with pytest.raises(ValueError):
        quc.degiorgi_iterate(0.1, 1.0, 4.0, 1.0, 1)
