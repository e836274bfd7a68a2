"""Inverse gradient map, the composed function G = F o DF^{-1}, and the
family of Minkowski gauges of its sublevel sets.

For a normalised integrand the gradient map is a homeomorphism fixing the
origin, so G is well defined, coercive, and its sublevel sets {G <= k} are
star-shaped about the origin (generally not convex).  The gauge
g_k(z) = inf{t > 0 : G(z/t) < k} is positively 1-homogeneous and Lipschitz
with constant at most H sup g_k on the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrand import isotropic_envelope, newton_minimise


class DfInverseError(RuntimeError):
    """The dual Newton solve for DF^{-1} did not reach its residual target."""


class GaugeBracketError(RuntimeError):
    """Bracket expansion for the gauge bisection failed (coercivity violation)."""


def _envelope_of(F):
    env = getattr(F, "_quc_envelope", None)
    if env is None:
        env = isotropic_envelope(F)
        F._quc_envelope = env
    return env


def df_inverse(F, y, *, tol=1e-10, max_iter=100, x0=None):
    """Solve DF(w) = y for a normalised, strictly convex F.

    Minimises the strictly convex dual objective w -> F(w) - (y, w), whose
    unique minimiser satisfies DF(w) = y; convexity makes damped Newton
    globally convergent from the radial envelope-based initial guess.
    Accepts a single covector or a batch; the residual target is
    |DF(w) - y| <= tol (1 + |y|) per point.
    """
    yy = np.asarray(y, dtype=float)
    single = yy.ndim == 1
    Y = np.ascontiguousarray(yy.reshape(-1, 2))
    ny = np.hypot(Y[:, 0], Y[:, 1])
    target = tol * (1.0 + ny)

    if x0 is not None:
        W = np.asarray(x0, dtype=float).reshape(-1, 2)
    else:
        env = _envelope_of(F)
        r0 = env.a_inv(np.maximum(ny, 1e-300))
        with np.errstate(invalid="ignore"):
            W = np.where(ny[:, None] > 0.0, r0[:, None] * Y / np.where(ny > 0, ny, 1.0)[:, None],
                         0.0)

    W, res = newton_minimise(F, W, target, Y=Y, max_iter=max_iter)
    if not np.all(res <= target):
        raise DfInverseError(
            f"gradient inversion stalled: worst residual {float(res.max()):g} "
            f"above target {float(target[np.argmax(res)]):g} "
            f"(possible ill-conditioning near a singular gradient value)")
    return W[0] if single else W


def G_eval(F, y, **kw):
    """G(y) = F(DF^{-1}(y)) for a normalised integrand."""
    yy = np.asarray(y, dtype=float)
    single = yy.ndim == 1
    W = df_inverse(F, yy.reshape(-1, 2), **kw)
    out = F._eval(W)
    return float(out[0]) if single else out


def coercivity_check(F, H, *, rng=None, n_rays=32, t_pair=(10.0, 1e3)):
    """Empirical coercivity exponent of G along random rays.

    Measured as the two-point log-log slope between the radii in ``t_pair``
    (a single-radius quotient log G / log t is polluted by the constant in
    G and undershoots the true exponent even for plain powers).  Compared
    against the predicted 1 + 1/H.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    theta = rng.uniform(0.0, 2.0 * np.pi, n_rays)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    t1, t2 = t_pair
    g1 = G_eval(F, t1 * u)
    g2 = G_eval(F, t2 * u)
    expo = (np.log(g2) - np.log(g1)) / (np.log(t2) - np.log(t1))
    return {"min_exponent": float(expo.min()), "predicted": 1.0 + 1.0 / H}


@dataclass
class StarShapeReport:
    margin: float
    worst_direction: np.ndarray
    worst_t: float
    n_rays: int
    n_radii: int

    @property
    def ok(self):
        return self.margin >= -1e-9


def star_shape_check(F, directions=None, radii=None, *, n_rays=64, n_radii=32,
                     radius_range=(1e-3, 1e2)):
    """Monotonicity of t -> G(t z) along sampled rays.

    The margin is the worst consecutive difference, normalised by
    max(1, G); nonnegative margins (up to -1e-9) certify star-shapedness of
    the sublevel sets on the sample.
    """
    if directions is None:
        theta = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    directions = np.asarray(directions, dtype=float)
    if radii is None:
        radii = np.geomspace(*radius_range, n_radii)
    radii = np.asarray(radii, dtype=float)
    pts = (radii[:, None, None] * directions[None, :, :]).reshape(-1, 2)
    g = G_eval(F, pts).reshape(len(radii), len(directions))
    diff = np.diff(g, axis=0) / np.maximum(1.0, np.abs(g[:-1]))
    k = int(np.argmin(diff))
    i, j = np.unravel_index(k, diff.shape)
    return StarShapeReport(
        margin=float(diff[i, j]),
        worst_direction=directions[j].copy(),
        worst_t=float(radii[i + 1]),
        n_rays=len(directions),
        n_radii=len(radii),
    )


def gauge(F, k, z, *, rtol=1e-10, max_doublings=200):
    """The Minkowski gauge g_k(z): the unique t with G(z/t) = k.

    t -> G(z/t) is nonincreasing, so an envelope-seeded bracket plus
    bisection converges unconditionally; failure to bracket means G is not
    coercive and signals an invalid integrand.  g_k(0) = 0.
    """
    if not k > 0.0:
        raise ValueError(f"gauge level k must be positive, got {k}")
    zz = np.asarray(z, dtype=float)
    single = zz.ndim == 1
    Z = zz.reshape(-1, 2)
    m = Z.shape[0]
    out = np.zeros(m)
    nz = np.hypot(Z[:, 0], Z[:, 1]) > 0.0
    if nz.any():
        Za = Z[nz]
        na = np.hypot(Za[:, 0], Za[:, 1])
        env = _envelope_of(F)
        denom = max(float(env.a(env.A_inv(k))), 1e-300)
        t0 = np.maximum(na / denom, 1e-300)

        warm = {"w": None}

        def G_of(t):
            w = df_inverse(F, Za / t[:, None], x0=warm["w"])
            warm["w"] = w
            return F._eval(w)

        lo = t0.copy()
        for _ in range(max_doublings):
            vals = G_of(lo)
            need = vals < k
            if not need.any():
                break
            lo = np.where(need, 0.5 * lo, lo)
        else:
            raise GaugeBracketError("lower bracket expansion failed")
        hi = np.maximum(t0, lo) * 2.0
        for _ in range(max_doublings):
            vals = G_of(hi)
            need = vals > k
            if not need.any():
                break
            hi = np.where(need, 2.0 * hi, hi)
        else:
            raise GaugeBracketError("upper bracket expansion failed")
        for _ in range(200):
            if np.all(hi - lo <= rtol * lo):
                break
            mid = 0.5 * (lo + hi)
            vals = G_of(mid)
            above = vals > k
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        out[nz] = 0.5 * (lo + hi)
    return float(out[0]) if single else out


@dataclass
class GaugeSample:
    """Angular table of one gauge g_k with its quantitative checks."""

    k: float
    angles: np.ndarray
    values: np.ndarray
    sup: float
    inf: float
    lipschitz: float
    checks: dict = field(default_factory=dict)


def gauge_bounds(F, k, *, n_angles=256, H=None):
    """Tabulate g_k on the unit circle and measure its quantitative bounds.

    Checks recorded: the finite-difference Lipschitz constant along the
    circle against H sup g_k (slack factor 1.1 absorbs the differencing
    error), and the sup/inf ratio (the paper only asserts a C(H, N) bound,
    so the ratio is reported, not asserted).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = gauge(F, k, dirs)
    sup, inf = float(vals.max()), float(vals.min())
    chord = 2.0 * np.sin(np.pi / n_angles)
    lip = float(np.max(np.abs(np.diff(np.concatenate([vals, vals[:1]])))) / chord)
    checks = {}
    if H is not None:
        bound = 1.1 * H * sup
        checks["lipschitz_bound"] = bound
        checks["lipschitz_ok"] = bool(lip <= bound)
        checks["H"] = float(H)
    checks["sup_inf_ratio"] = sup / inf
    return GaugeSample(k=float(k), angles=theta, values=vals, sup=sup, inf=inf,
                       lipschitz=lip, checks=checks)


@dataclass
class LevelGapReport:
    h: float
    k: float
    measured_inf: float
    bound_expression: float
    empirical_C: float
    H_used: float


def gauge_level_gap(F, h, k, *, n_angles=256, H=None):
    """Measured inf over {G >= k} of g_h - 1 against the two-exponent bound.

    Valid for h < k <= 2h.  The infimum is attained on the level set
    {G = k}, whose points along direction u are u / g_k(u); by homogeneity
    g_h there equals g_h(u) / g_k(u), so two angular tables suffice.
    The constant C(H, N) is not explicit in the source theory; the report
    carries the empirical constant bound/measured instead.
    """
    if not (0.0 < h < k <= 2.0 * h):
        raise ValueError(f"need h < k <= 2h, got h={h}, k={k}")
    if H is None:
        from .qc_analysis import estimate_H
        H = estimate_H(F).H_est
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    gh = gauge(F, h, dirs)
    gk = gauge(F, k, dirs)
    measured = float(np.min(gh / gk) - 1.0)
    s = (k - h) / h
    bound = min(s**H, s ** (1.0 / (H * (H + 1.0))))
    return LevelGapReport(
        h=float(h), k=float(k), measured_inf=measured, bound_expression=float(bound),
        empirical_C=float(bound / measured) if measured > 0 else float("inf"),
        H_used=float(H),
    )
