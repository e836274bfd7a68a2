"""Quasiconformal analysis toolkit.

Distortion profiles eta_{a,b}, the sharp conversion between the ellipticity
bound H and the monotonicity constant delta of the gradient map, sampled
dilatation and monotonicity estimates, a brute-force oracle for the Cassels
quotient, quasisymmetry measurement and the positive-definite matrix
inequality used by the Caccioppoli argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrand import _Samples, sym2_eig_bounds


# ---------------------------------------------------------------------------
# eta profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaProfile:
    """Distortion profile eta_{a,b}(t) = max(t^a, t^b) with a, b > 0.

    Increasing homeomorphism of [0, inf) with eta(1) = 1 and inverse
    min(t^{1/a}, t^{1/b}); eta(0) = 0 by continuity.  A nan exponent, from
    a measured H that is nan, is let through and makes every value nan.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
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
    """The dilatation profile eta_{H, 1/H}; a nan H gives a nan profile."""
    if H < 1.0:
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
    logs it compares (which sets the rounding of each a log t)."""
    scale = sum(np.abs(x) for x in logs)
    return np.divide(gap, scale, out=np.zeros_like(gap), where=gap != 0.0)


def eta_identities_check(profile, s, t, tol=1e-12):
    """Verify submultiplicativity, the reflection identity and self-composition.

    Inputs are positive.  Every identity is compared in log space, where
    log eta_{a,b}(t) = max(a log t, b log t), so no product or composition
    overflows; gaps are relative to the size of the logs compared, and a
    gap that is not finite reads nan, a violation (``integrand._Samples``).
    The report carries the worst violation per identity and, when failing,
    the first offending inputs.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ls, lt = np.log(s), np.log(t)

    def log_eta(prof, x):
        return np.maximum(prof.a * x, prof.b * x)

    def log_inv(prof, x):
        return np.minimum(x / prof.a, x / prof.b)

    with _Samples():
        e_st, e_s, e_t = log_eta(profile, ls + lt), log_eta(profile, ls), log_eta(profile, lt)
        i_st, i_s, i_t = log_inv(profile, ls + lt), log_inv(profile, ls), log_inv(profile, lt)
        r = log_eta(profile.reciprocal(), -lt)
        po = profile.ordered()
        c_twice = log_eta(po, log_eta(po, lt))
        c_comp = log_eta(compose_profiles(profile, profile), lt)
        gaps = {
            "submultiplicative": (_log_gap(e_st - e_s - e_t, e_st, e_s, e_t), (s, t)),
            "inverse_supermultiplicative": (_log_gap(i_s + i_t - i_st, i_st, i_s, i_t),
                                            (s, t)),
            "reflection": (np.abs(_log_gap(i_t + r, i_t, r)), (t,)),
            "composition": (np.abs(_log_gap(c_twice - c_comp, c_twice, c_comp)), (t,)),
        }
    viol = {name: float(_Samples.worst(arr, True)[0]) for name, (arr, _) in gaps.items()}
    first = None
    for name, (arr, inputs) in gaps.items():
        bad = ~(arr <= tol)  # a nan gap is a violation
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

    worst_point: np.ndarray
    n_samples: int
    n_skipped: int
    H_est: float | None = None
    delta_est: float | None = None


def default_sampling_plan(rng):
    """Log-radial x angular grid, 64 radii from 1e-3 to 1e3 times 128
    angles, plus 10^4 points drawn uniformly in the disk of radius 10."""
    radii = np.geomspace(1e-3, 1e3, 64)
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grid = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    r = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, 10**4))
    th = rng.uniform(0.0, 2.0 * np.pi, 10**4)
    rnd = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return np.concatenate([grid, rnd], axis=0)


def estimate_H(F, rng):
    """Max sampled Hessian eigenvalue ratio of F over the sampling plan
    drawn from ``rng``, less the points within 1e-8 of a singular point.
    Finite Hessians with lmin <= 0 are skipped and counted; one that is not
    finite gives a ratio of nan, the worst (``integrand._Samples``)."""
    points = default_sampling_plan(rng)
    for s in F.singular_points:
        points = points[np.hypot(points[:, 0] - s[0], points[:, 1] - s[1]) >= 1e-8]
    H = F._hess(points)
    with _Samples():
        lo, hi = sym2_eig_bounds(H)
        ratio = hi / lo
    H_est, k, n_skipped = _Samples.worst(ratio, True, lo <= 0.0, (H,))
    if n_skipped == len(points):
        raise RuntimeError("no valid Hessian samples")
    return DilatationEstimate(
        H_est=float(H_est),
        worst_point=points[k].copy(),
        n_samples=len(points) - int(n_skipped),
        n_skipped=int(n_skipped),
    )


def _sharp_pair(F):
    """The Cassels-optimal direction for a constant-Hessian integrand."""
    A = F.hess(np.zeros(2))
    lam, vecs = np.linalg.eigh(A)
    lmin, lmax = lam[0], lam[-1]
    v = (vecs[:, 0] * np.sqrt(lmax / (lmin + lmax))
         + vecs[:, -1] * np.sqrt(lmin / (lmin + lmax)))
    return v, np.zeros(2)


def measure_delta_monotonicity(F, rng):
    """Min over sampled pairs of (DF(z)-DF(w), z-w) / (|DF(z)-DF(w)| |z-w|).

    The 4000 pairs are drawn from ``rng`` in [-10, 10]^2.  For
    constant-Hessian integrands the sharp eigenvector pair is always
    included, where the quotient equals 2 sqrt(l1 lN) / (l1 + lN) exactly.
    Pairs with DF(z) = DF(w) or z = w are skipped and counted; a DF that is
    not finite gives a quotient of nan, the worst.
    """
    z = rng.uniform(-10.0, 10.0, (4000, 2))
    w = rng.uniform(-10.0, 10.0, (4000, 2))
    if F.constant_hessian:
        v, o = _sharp_pair(F)
        z = np.concatenate([z, v.reshape(1, 2)])
        w = np.concatenate([w, o.reshape(1, 2)])
    gz, gw = F._grad(z), F._grad(w)
    with _Samples():
        dg = gz - gw
        dz = z - w
        ng = np.hypot(dg[:, 0], dg[:, 1])
        nz = np.hypot(dz[:, 0], dz[:, 1])
        quot = (dg * dz).sum(axis=1) / (ng * nz)
    delta, k, n_skipped = _Samples.worst(quot, False, (ng == 0.0) | (nz == 0.0), (gz, gw))
    return DilatationEstimate(
        worst_point=z[k].copy(),
        n_samples=len(z) - int(n_skipped),
        n_skipped=int(n_skipped),
        delta_est=float(delta),
    )


# ---------------------------------------------------------------------------
# Cassels quotient oracle
# ---------------------------------------------------------------------------

def cassels_oracle(lams, trials=20000):
    """Brute-force infimum of (sum l v^2) / (sqrt(sum l^2 v^2) |v|) over v != 0.

    The quotient is sampled at ``trials`` random unit vectors (seed 0) and
    polished by a compass search on the unit sphere from the 8 best: each
    candidate v moves to the best of its neighbours v +- s e_i, rescaled to
    unit length, that lowers the quotient, and halves s (from 1/2) when none
    does, until every s is at most 1e-9.  The quotient is smooth in v, so
    the polished minimum is off by O(s^2) at its stop.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0:
        raise ValueError("eigenvalue list must be nonempty")
    if np.any(lams <= 0.0):
        raise ValueError("eigenvalues must be positive")
    d = lams.size

    def quotient(v):
        v2 = v * v
        denom = np.sqrt((lams**2 * v2).sum(axis=-1)) * np.sqrt(v2.sum(axis=-1))
        return (lams * v2).sum(axis=-1) / denom

    V = np.random.default_rng(0).normal(size=(trials, d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    q = quotient(V)
    best = np.argsort(q)[:8]
    X, fx = V[best], q[best]
    rows = np.arange(X.shape[0])
    moves = np.concatenate([np.eye(d), -np.eye(d)])
    step = np.full(X.shape[0], 0.5)
    while step.max() > 1e-9:
        T = X[:, None, :] + step[:, None, None] * moves
        T /= np.linalg.norm(T, axis=2, keepdims=True)
        fT = quotient(T)
        j = np.argmin(fT, axis=1)
        better = fT[rows, j] < fx
        X[better] = T[rows, j][better]
        fx = np.where(better, fT[rows, j], fx)
        step = np.where(better, step, 0.5 * step)
    return float(fx.min())


# ---------------------------------------------------------------------------
# quasisymmetry of the gradient map
# ---------------------------------------------------------------------------

@dataclass
class QuasisymmetryReport:
    C: float
    worst_triple: tuple
    n_triples: int
    H_used: float


def quasisymmetry_check(F, triples=None, rng=None, *, n_triples=10**4, H):
    """Empirical constant C in the gradient distortion estimate.

    Measures the max over triples (z0, z, w) of
    |DF(z)-DF(z0)| / (|DF(w)-DF(z0)| eta_H(|z-z0| / |w-z0|)), with
    ``n_triples`` triples drawn from ``rng`` in the square [-5, 5]^2 unless
    given.  Triples with DF(w) = DF(z0), z = z0 or w = z0 are skipped; a DF
    that is not finite gives a quotient of nan, the worst.
    """
    prof = eta_H(H)
    if triples is None:
        z0 = rng.uniform(-5.0, 5.0, (n_triples, 2))
        z = rng.uniform(-5.0, 5.0, (n_triples, 2))
        w = rng.uniform(-5.0, 5.0, (n_triples, 2))
    else:
        z0, z, w = (np.asarray(t, dtype=float) for t in triples)
    g0, g1, g2 = F._grad(z0), F._grad(z), F._grad(w)
    with _Samples():
        gz, gw = g1 - g0, g2 - g0
        num = np.hypot(gz[:, 0], gz[:, 1])
        den = np.hypot(gw[:, 0], gw[:, 1])
        dz = np.hypot(z[:, 0] - z0[:, 0], z[:, 1] - z0[:, 1])
        dw = np.hypot(w[:, 0] - z0[:, 0], w[:, 1] - z0[:, 1])
        quot = num / (den * prof(dz / dw))
    C, k, n_skipped = _Samples.worst(quot, True, (den == 0.0) | (dw == 0.0) | (dz == 0.0),
                                     (g0, g1, g2))
    return QuasisymmetryReport(
        C=float(C),
        worst_triple=(z0[k].copy(), z[k].copy(), w[k].copy()),
        n_triples=len(quot) - int(n_skipped),
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


def matrix_inequality_check(P, S):
    """Margin of (P S, S P)_2 - (lmin(P)/lmax(P)) |P S|_2^2 over a batch.

    The normalised margin divides by max(1, |P S|_2^2) so its tolerance,
    1e-12, is meaningful at any scale.  Raises on shape mismatch.
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
        ok=bool(margin_n[k] >= -1e-12),
    )
