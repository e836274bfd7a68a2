"""Quasiconformal analysis toolkit.

Distortion profiles eta_{a,b}, the sharp conversion between the ellipticity
bound H and the monotonicity constant delta of the gradient map, sampled
dilatation and monotonicity estimates, a brute-force oracle for the Cassels
quotient, quasisymmetry measurement and the positive-definite matrix
inequality used by the Caccioppoli argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .integrand import as_points, sym2_eig_bounds


# ---------------------------------------------------------------------------
# eta profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaProfile:
    """Distortion profile eta_{a,b}(t) = max(t^a, t^b) with a, b > 0.

    Increasing homeomorphism of [0, inf) with eta(1) = 1 and inverse
    min(t^{1/a}, t^{1/b}); eta(0) = 0 by continuity.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"eta profile exponents must be positive, got {self.a}, {self.b}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.maximum(t**self.a, t**self.b)
        return float(out) if out.ndim == 0 else out

    def inv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.minimum(t ** (1.0 / self.a), t ** (1.0 / self.b))
        return float(out) if out.ndim == 0 else out

    def reciprocal(self):
        return EtaProfile(1.0 / self.a, 1.0 / self.b)

    def ordered(self):
        return EtaProfile(max(self.a, self.b), min(self.a, self.b))


def eta(profile, t):
    return profile(t)


def eta_inv(profile, t):
    return profile.inv(t)


def eta_H(H):
    """The dilatation profile eta_{H, 1/H}."""
    if not H >= 1.0:
        raise ValueError(f"H must be >= 1, got {H}")
    return EtaProfile(H, 1.0 / H)


def compose_profiles(p, q):
    """eta_{a,b} o eta_{c,d} = eta_{ac, bd}, valid for descending exponents."""
    p, q = p.ordered(), q.ordered()
    return EtaProfile(p.a * q.a, p.b * q.b)


@dataclass
class EtaIdentityReport:
    ok: bool
    max_violation: dict
    first_violation: tuple | None = None


def _log_gap(gap, *logs):
    """A gap between log-profile values, relative to the summed size of the
    logs it compares (which sets the rounding of each a log t); a non-finite
    gap is a violation of infinite size."""
    scale = sum(np.abs(x) for x in logs)
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=gap != 0.0)
    return np.where(np.isfinite(rel), rel, np.inf)


def eta_identities_check(profile, s, t, tol=1e-12):
    """Verify submultiplicativity, the reflection identity and self-composition.

    Inputs are positive.  Every identity is compared in log space, where
    log eta_{a,b}(t) = max(a log t, b log t), so no product or composition
    overflows; gaps are relative to the size of the logs compared and a
    non-finite gap counts as a violation.  The report carries the worst
    violation per identity and, when failing, the first offending inputs.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ls, lt = np.log(s), np.log(t)

    def log_eta(prof, x):
        return np.maximum(prof.a * x, prof.b * x)

    def log_inv(prof, x):
        return np.minimum(x / prof.a, x / prof.b)

    e_st, e_s, e_t = log_eta(profile, ls + lt), log_eta(profile, ls), log_eta(profile, lt)
    i_st, i_s, i_t = log_inv(profile, ls + lt), log_inv(profile, ls), log_inv(profile, lt)
    r = log_eta(profile.reciprocal(), -lt)
    po = profile.ordered()
    c_twice = log_eta(po, log_eta(po, lt))
    c_comp = log_eta(compose_profiles(profile, profile), lt)
    gaps = {
        "submultiplicative": (_log_gap(e_st - e_s - e_t, e_st, e_s, e_t), (s, t)),
        "inverse_supermultiplicative": (_log_gap(i_s + i_t - i_st, i_st, i_s, i_t), (s, t)),
        "reflection": (np.abs(_log_gap(i_t + r, i_t, r)), (t,)),
        "composition": (np.abs(_log_gap(c_twice - c_comp, c_twice, c_comp)), (t,)),
    }
    viol = {name: float(np.max(arr)) for name, (arr, _) in gaps.items()}
    first = None
    for name, (arr, inputs) in gaps.items():
        bad = arr > tol
        if bad.any():
            k = int(np.argmax(bad))
            first = (name, tuple(float(x.ravel()[min(k, x.size - 1)]) for x in inputs))
            break
    return EtaIdentityReport(ok=first is None, max_violation=viol, first_violation=first)


# ---------------------------------------------------------------------------
# delta <-> H
# ---------------------------------------------------------------------------

def delta_from_H(H):
    """Sharp monotonicity constant of the gradient map: delta = 2 sqrt(H) / (H+1)."""
    H = np.asarray(H, dtype=float)
    if np.any(H < 1.0):
        raise ValueError("H must be >= 1")
    out = 2.0 * np.sqrt(H) / (H + 1.0)
    return float(out) if out.ndim == 0 else out


def H_from_delta(delta):
    """Inverse of delta_from_H.

    Algebraically (1 + s)/(1 - s) with s = sqrt(1 - delta^2); evaluated as
    (1 + s)^2 / delta^2, which avoids the cancellation in 1 - s for small
    delta and keeps the round trip exact to a few ulps up to H ~ 1e6.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any((delta <= 0.0) | (delta > 1.0)):
        raise ValueError("delta must lie in (0, 1]")
    s = np.sqrt(np.maximum(1.0 - delta**2, 0.0))
    out = (1.0 + s) ** 2 / delta**2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# sampled dilatation estimates
# ---------------------------------------------------------------------------

@dataclass
class DilatationEstimate:
    """Sampled dilatation / monotonicity measurement for one integrand."""

    H_est: float
    worst_point: np.ndarray
    n_samples: int
    n_skipped: int = 0
    delta_est: float | None = None
    extra: dict = field(default_factory=dict)


def default_sampling_plan(rng, *, n_radii=64, radius_range=(1e-3, 1e3),
                          n_angles=128, n_random=10**4, random_radius=10.0):
    """Log-radial x angular grid plus uniform random points in a disk."""
    radii = np.geomspace(*radius_range, n_radii)
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grid = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    r = random_radius * np.sqrt(rng.uniform(0.0, 1.0, n_random))
    th = rng.uniform(0.0, 2.0 * np.pi, n_random)
    rnd = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return np.concatenate([grid, rnd], axis=0)


def _exclude_singular(points, singular_points, radius=1e-8):
    keep = np.ones(points.shape[0], dtype=bool)
    for s in singular_points:
        keep &= np.hypot(points[:, 0] - s[0], points[:, 1] - s[1]) >= radius
    return points[keep]


def estimate_H(F, points=None, rng=None, *, exclude_radius=1e-8):
    """Max sampled Hessian eigenvalue ratio of F over the sampling plan."""
    if points is None:
        rng = np.random.default_rng(0) if rng is None else rng
        points = default_sampling_plan(rng)
    points = _exclude_singular(np.asarray(points, dtype=float), F.singular_points,
                               exclude_radius)
    H = F._hess(points)
    lo, hi = sym2_eig_bounds(H)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = hi / lo
    good = np.isfinite(ratio) & (lo > 0.0)
    n_skipped = int((~good).sum())
    if not good.any():
        raise RuntimeError("no valid Hessian samples")
    ratio = np.where(good, ratio, -np.inf)
    k = int(np.argmax(ratio))
    return DilatationEstimate(
        H_est=float(ratio[k]),
        worst_point=points[k].copy(),
        n_samples=int(good.sum()),
        n_skipped=n_skipped,
    )


def _sharp_pair(F):
    """The Cassels-optimal direction for a constant-Hessian integrand."""
    A = F.hess(np.zeros(2))
    lam, vecs = np.linalg.eigh(A)
    lmin, lmax = lam[0], lam[-1]
    v = (vecs[:, 0] * np.sqrt(lmax / (lmin + lmax))
         + vecs[:, -1] * np.sqrt(lmin / (lmin + lmax)))
    return v, np.zeros(2)


def measure_delta_monotonicity(F, pairs=None, rng=None, *, n_pairs=4000,
                               radius=10.0, H_est=None):
    """Min over sampled pairs of (DF(z)-DF(w), z-w) / (|DF(z)-DF(w)| |z-w|).

    For constant-Hessian integrands the sharp eigenvector pair is always
    included, where the quotient equals 2 sqrt(l1 lN) / (l1 + lN) exactly.
    Degenerate pairs with DF(z) = DF(w) are skipped and counted.
    """
    if pairs is None:
        rng = np.random.default_rng(0) if rng is None else rng
        z = rng.uniform(-radius, radius, (n_pairs, 2))
        w = rng.uniform(-radius, radius, (n_pairs, 2))
    else:
        z, w = (np.asarray(p, dtype=float) for p in pairs)
    if F.constant_hessian:
        v, o = _sharp_pair(F)
        z = np.concatenate([z, v.reshape(1, 2)])
        w = np.concatenate([w, o.reshape(1, 2)])
    dg = F._grad(z) - F._grad(w)
    dz = z - w
    ng = np.hypot(dg[:, 0], dg[:, 1])
    nz = np.hypot(dz[:, 0], dz[:, 1])
    good = (ng > 0.0) & (nz > 0.0)
    quot = np.where(good, (dg * dz).sum(axis=1) / np.where(good, ng * nz, 1.0), np.inf)
    k = int(np.argmin(quot))
    if H_est is None:
        H_est = estimate_H(F, rng=np.random.default_rng(1)).H_est
    return DilatationEstimate(
        H_est=H_est,
        worst_point=z[k].copy(),
        n_samples=int(good.sum()),
        n_skipped=int((~good).sum()),
        delta_est=float(quot[k]),
    )


# ---------------------------------------------------------------------------
# Cassels quotient oracle
# ---------------------------------------------------------------------------

def cassels_oracle(lams, trials=20000, rng=None, refine=True):
    """Brute-force infimum of (sum l v^2) / (sqrt(sum l^2 v^2) |v|) over v != 0.

    Random unit vectors followed by Nelder-Mead polish from the best
    candidates.  The quotient is scale invariant so the polish runs
    unconstrained.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0:
        raise ValueError("eigenvalue list must be nonempty")
    if np.any(lams <= 0.0):
        raise ValueError("eigenvalues must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    d = lams.size

    def quotient(v):
        v2 = v * v
        denom = np.sqrt((lams**2 * v2).sum(axis=-1)) * np.sqrt(v2.sum(axis=-1))
        return (lams * v2).sum(axis=-1) / denom

    V = rng.normal(size=(trials, d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    q = quotient(V)
    best = float(q.min())
    if refine:
        order = np.argsort(q)[:8]
        for k in order:
            res = minimize(lambda v: quotient(v) if np.linalg.norm(v) > 1e-12 else 1.0,
                           V[k], method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
            best = min(best, float(res.fun))
    return best


# ---------------------------------------------------------------------------
# quasisymmetry of the gradient map
# ---------------------------------------------------------------------------

@dataclass
class QuasisymmetryReport:
    C: float
    worst_triple: tuple
    n_triples: int
    H_used: float


def quasisymmetry_check(F, triples=None, rng=None, *, n_triples=10**4,
                        radius=5.0, H=None):
    """Empirical constant C in the gradient distortion estimate.

    Measures the max over triples (z0, z, w) of
    |DF(z)-DF(z0)| / (|DF(w)-DF(z0)| eta_H(|z-z0| / |w-z0|)).
    """
    if H is None:
        H = estimate_H(F, rng=np.random.default_rng(1)).H_est
    prof = eta_H(max(H, 1.0))
    if triples is None:
        rng = np.random.default_rng(0) if rng is None else rng
        z0 = rng.uniform(-radius, radius, (n_triples, 2))
        z = rng.uniform(-radius, radius, (n_triples, 2))
        w = rng.uniform(-radius, radius, (n_triples, 2))
    else:
        z0, z, w = (np.asarray(t, dtype=float) for t in triples)
    g0 = F._grad(z0)
    gz = F._grad(z) - g0
    gw = F._grad(w) - g0
    num = np.hypot(gz[:, 0], gz[:, 1])
    den = np.hypot(gw[:, 0], gw[:, 1])
    dz = np.hypot(z[:, 0] - z0[:, 0], z[:, 1] - z0[:, 1])
    dw = np.hypot(w[:, 0] - z0[:, 0], w[:, 1] - z0[:, 1])
    good = (den > 0.0) & (dw > 0.0) & (dz > 0.0)
    quot = np.where(good, num / (den * prof(np.where(good, dz / np.where(dw > 0, dw, 1), 1.0))),
                    -np.inf)
    k = int(np.argmax(quot))
    return QuasisymmetryReport(
        C=float(quot[k]),
        worst_triple=(z0[k].copy(), z[k].copy(), w[k].copy()),
        n_triples=int(good.sum()),
        H_used=float(H),
    )


# ---------------------------------------------------------------------------
# matrix inequality (P S, S P)_2 >= (lmin/lmax)(P) |P S|_2^2
# ---------------------------------------------------------------------------

@dataclass
class MatrixInequalityMargin:
    margin: float
    margin_normalised: float
    ok: bool


def sym_eig_bounds(M):
    """(lmin, lmax) of batched symmetric matrices; closed form in 2-D."""
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    if M.shape[-1] == 2:
        lo, hi = sym2_eig_bounds(M)
    else:
        lam = np.linalg.eigvalsh(M)
        lo, hi = lam[:, 0], lam[:, -1]
    if single:
        return float(lo[0]), float(hi[0])
    return lo, hi


def matrix_inequality_check(P, S, tol=1e-12):
    """Margin of (P S, S P)_2 - (lmin(P)/lmax(P)) |P S|_2^2 over a batch.

    The normalised margin divides by max(1, |P S|_2^2) so the tolerance is
    meaningful at any scale.  Raises on shape mismatch.
    """
    P = np.asarray(P, dtype=float)
    S = np.asarray(S, dtype=float)
    if P.shape != S.shape:
        raise ValueError(f"shape mismatch: P {P.shape} vs S {S.shape}")
    single = P.ndim == 2
    if single:
        P, S = P[None], S[None]
    lo, hi = sym_eig_bounds(P)
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    if np.any(lo <= 0.0):
        raise ValueError("P must be positive definite")
    PS = P @ S
    lhs = np.einsum("mij,mji->m", PS, PS)
    fro2 = np.einsum("mij,mij->m", PS, PS)
    rhs = (lo / hi) * fro2
    margin = lhs - rhs
    margin_n = margin / np.maximum(1.0, fro2)
    k = int(np.argmin(margin_n))
    return MatrixInequalityMargin(
        margin=float(margin[k]),
        margin_normalised=float(margin_n[k]),
        ok=bool(margin_n[k] >= -tol),
    )
