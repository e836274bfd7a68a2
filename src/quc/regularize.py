"""Regularisation operators producing smooth strongly elliptic approximants.

Two building blocks: the Moreau-Yosida envelope (inf-convolution with a
quadratic, Hessian bounded by 1/delta) and mollification by a compactly
supported bump plus a small quadratic (Hessian bounded below by mu).  Their
composition with the schedule delta_n = eps_n = mu_n = 2^{-n} gives the
strongly elliptic ladder approximating any catalogue integrand.

The envelope's proximal points and Hessian are exact for power,
Uhlenbeck and anisotropic-quadratic parts, bare or behind scaling, shifts
and affine terms (the radial map s + delta G'(s) = |z| and the linear map
(Id + delta A)^{-1}); every other part takes a batched 2-D Newton solve per
point and its own Hessian at the proximal point.  Every proximal point is
checked against the optimality condition of its problem.

The bump is phi(x) = (5/pi) (1 - |x|^2)^4 on the unit disk.  Convolutions
use a polar tensor rule (Gauss-Legendre radially, uniform angularly); the
radial integrand of the bump's mass is a polynomial, so the rule integrates
the bump exactly, unlike a tensor rule on the bounding square.
"""

from __future__ import annotations

import numpy as np

from .integrand import PROX_GRAD_TOL, Integrand, IntegrandError, ProxError


class MollifierSpec:
    """Quadrature for integration against the polynomial bump.

    Nodes live on the unit disk, 16 Gauss-Legendre radii by 36 uniform
    angles; callers scale them by eps.  ``weights`` are the bump-weighted
    quadrature weights (summing to 1), ``grad_weights`` the weights against
    the bump's gradient (summing to 0 componentwise).
    """

    def __init__(self):
        r, wr = np.polynomial.legendre.leggauss(16)
        r = 0.5 * (r + 1.0)
        wr = 0.5 * wr
        theta = 2.0 * np.pi * np.arange(36) / 36
        dth = 2.0 * np.pi / 36
        R, TH = np.meshgrid(r, theta, indexing="ij")
        self.nodes = np.stack([(R * np.cos(TH)).ravel(), (R * np.sin(TH)).ravel()], axis=1)
        base = (wr[:, None] * r[:, None] * dth * np.ones_like(TH)).ravel()
        self.weights = base * self.bump(self.nodes)
        self.grad_weights = base[:, None] * self.bump_grad(self.nodes)

    @staticmethod
    def bump(x):
        """phi(x) = (5/pi)(1 - |x|^2)^4 on |x| <= 1, zero outside."""
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        return np.where(r2 <= 1.0, (5.0 / np.pi) * (1.0 - r2) ** 4, 0.0)

    @staticmethod
    def bump_grad(x):
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        s = np.where(r2 <= 1.0, -(40.0 / np.pi) * (1.0 - r2) ** 3, 0.0)
        return s[:, None] * x

    def mass(self):
        return float(self.weights.sum())


# ---------------------------------------------------------------------------
# Moreau-Yosida envelope
# ---------------------------------------------------------------------------

class MoreauIntegrand(Integrand):
    """Moreau-Yosida envelope F_delta(z) = inf_w F(w) + |w - z|^2 / (2 delta).

    The envelope keeps the ellipticity bound of F and satisfies
    lmax(D2 F_delta) <= 1/delta.  Value, gradient and Hessian come from the
    same proximal point p = prox(z): F_delta(z) = F(p) + |p - z|^2 / (2 delta),
    DF_delta(z) = (z - p) / delta and D2 F_delta(z) = D2F(p) (Id + delta
    D2F(p))^{-1}, so ``derivs`` solves one proximal problem per point for
    all the wanted orders, and evaluates F(p) only where order 0 is one of
    them.  The part's ``_prox`` and ``_envelope_hess`` supply p and the
    Hessian: exact for power, Uhlenbeck and anisotropic-quadratic leaves,
    also behind scaling, shifts and affine terms; every other part (blend,
    Finsler, sums, finite differences, nested envelopes and mollifiers)
    solves the proximal problem by batched Newton.  Every ``prox`` call
    keeps no state, so results do not depend on earlier calls.
    """

    kind = "moreau"

    def __init__(self, part, delta):
        delta = float(delta)
        if delta <= 0.0:
            raise IntegrandError(f"moreau parameter delta must be positive, got {delta}")
        self.part = part
        self.delta = delta
        self.analytic_H = part.analytic_H

    def prox(self, z):
        """Proximal points, checked on every path against the optimality
        condition |DF(p) + (p - z)/delta| <= 100 PROX_GRAD_TOL (1 + |z|):
        a wrong exact map raises ``ProxError`` as a stalled Newton solve does,
        and so does a point whose proximal radius underflows or is subnormal
        (p near 1 at tiny |z|), with a message that says which."""
        zz = np.asarray(z, dtype=float)
        single = zz.ndim == 1
        Z = zz.reshape(-1, 2)
        W = self.part._prox(Z, self.delta)
        res = self.part._grad(W) + (W - Z) / self.delta
        gn = np.sqrt(res[:, 0] ** 2 + res[:, 1] ** 2)
        zn = np.sqrt(Z[:, 0] ** 2 + Z[:, 1] ** 2)
        tol = 100.0 * PROX_GRAD_TOL * (1.0 + zn)
        # a norm that overflows (|z| above about 1e154) gives no test at all
        bad = ~(gn <= tol) | (zn == np.inf)
        if bad.any():
            i = int(np.argmax(bad))
            wn = float(np.hypot(*W[i]))
            why = ""
            if self.part._prox_underflows(Z[i:i + 1], self.delta)[0]:
                why = ("; its radius underflows below the smallest positive double, so no "
                       "representable point meets the condition")
            elif 0.0 < wn < np.finfo(float).tiny:
                why = (f"; its radius {wn:g} is subnormal, so the point carries too few "
                       "significant bits to meet the condition")
            raise ProxError(
                f"proximal point of {self.part.describe()} at z = {Z[i].tolist()} misses "
                f"its optimality condition: |grad| = {gn[i]:g} (tolerance {tol[i]:g})" + why)
        return W[0] if single else W

    def derivs(self, z, orders=(0, 1, 2)):
        W = self.prox(z)
        f = None
        if 0 in orders:
            d = W - z
            f = self.part._eval(W) + 0.5 / self.delta * (d[:, 0] ** 2 + d[:, 1] ** 2)
        return (f,
                (z - W) / self.delta if 1 in orders else None,
                self.part._envelope_hess(W, self.delta) if 2 in orders else None)

    def describe(self):
        return f"moreau({self.part.describe()}, delta={self.delta:g})"


def moreau_yosida(F, delta):
    """The Moreau-Yosida envelope of F at parameter delta > 0."""
    return MoreauIntegrand(F, delta)


# ---------------------------------------------------------------------------
# mollification plus quadratic
# ---------------------------------------------------------------------------

# Shifted points per convolution batch: 56 rows of z against the 576 quadrature
# nodes.  Each (N, 2) array of a batch (the points, the part's gradient, its
# temporaries) then takes N * 16 B = 512 KiB, so the few a leaf pass keeps
# live stay within a 2 MiB L2 cache.  Every point is reduced on its own, so
# the batch size changes no value.
_CHUNK = 1 << 15


class MollifiedIntegrand(Integrand):
    """(F * phi_eps)(z) + (mu/2) |z|^2 by quadrature over the bump support.

    Values and gradients integrate F and DF against phi_eps; Hessians use
    integration by parts, pairing DF with the bump's gradient, so only first
    derivatives of F are ever needed.  ``derivs`` therefore makes one
    ``part.derivs`` pass over the shifted quadrature points, asking for F
    only where order 0 is wanted and for DF only where order 1 or 2 is; the
    Hessian reuses the gradient samples.  Jensen gives F * phi_eps >= F
    pointwise, and the quadratic term pins lmin >= mu.

    The shifted points are sampled in batches of at most ``_CHUNK`` points,
    whole rows of z at a time, so a batch's arrays stay in cache.  Each
    row's k samples are reduced against the weights by its own stacked
    ``np.matmul`` product, so a point's value, gradient and Hessian do not
    depend on the batch it is evaluated in.
    """

    kind = "mollified"

    def __init__(self, part, eps, mu):
        eps, mu = float(eps), float(mu)
        if eps <= 0.0 or mu <= 0.0:
            raise IntegrandError(f"mollifier needs eps, mu > 0, got {eps}, {mu}")
        self.part = part
        self.eps = eps
        self.mu = mu
        self.spec = MollifierSpec()
        self._node_cols = [np.ascontiguousarray(c) for c in (self.eps * self.spec.nodes).T]
        self.analytic_H = part.analytic_H

    def _shifted(self, z):
        # one subtraction per component keeps numpy's inner loop on the k nodes
        pts = np.empty((z.shape[0], len(self.spec.nodes), 2))
        for c, col in enumerate(self._node_cols):
            np.subtract(z[:, c, None], col, out=pts[:, :, c])
        return pts.reshape(-1, 2)

    def _chunks(self, m):
        k = len(self.spec.nodes)
        rows = max(1, _CHUNK // k)
        for lo in range(0, m, rows):
            yield lo, min(lo + rows, m)

    def derivs(self, z, orders=(0, 1, 2)):
        m, k = z.shape[0], len(self.spec.nodes)
        w = self.spec.weights
        f = np.empty(m) if 0 in orders else None
        g = np.empty_like(z) if 1 in orders else None
        h = np.empty((m, 2, 2)) if 2 in orders else None
        sampled = {min(j, 1) for j in orders}  # the Hessian pairs the DF samples
        for lo, hi in self._chunks(m):
            vals, grads, _ = self.part.derivs(self._shifted(z[lo:hi]), sampled)
            if f is not None:
                f[lo:hi] = np.matmul(vals.reshape(-1, 1, k), w)[:, 0]
            if grads is not None:
                grads = grads.reshape(-1, k, 2).transpose(0, 2, 1)
            if g is not None:
                g[lo:hi] = np.matmul(grads, w)
            if h is not None:
                h[lo:hi] = np.matmul(grads, self.spec.grad_weights) / self.eps
        if f is not None:
            f += 0.5 * self.mu * (z[:, 0] ** 2 + z[:, 1] ** 2)
        if g is not None:
            g += self.mu * z
        if h is not None:
            h = 0.5 * (h + np.transpose(h, (0, 2, 1)))
            h[:, 0, 0] += self.mu
            h[:, 1, 1] += self.mu
        return f, g, h

    def describe(self):
        return f"mollified({self.part.describe()}, eps={self.eps:g}, mu={self.mu:g})"


def mollify_plus_quadratic(F, eps, mu):
    """(F * phi_eps) + (mu/2)|z|^2; pointwise above F and uniformly convex."""
    return MollifiedIntegrand(F, eps, mu)


def approximation_schedule(n):
    """Default ladder parameters delta_n = eps_n = mu_n = 2^{-n}."""
    if n < 1:
        raise IntegrandError(f"ladder index must be >= 1, got {n}")
    s = 2.0 ** (-n)
    return s, s, s


def strongly_elliptic_approx(F, n):
    """Ladder step n: Moreau envelope then mollification plus quadratic.

    Sampled Hessian eigenvalues satisfy mu_n <= lmin <= lmax <= 1/delta_n + mu_n.
    """
    delta, eps, mu = approximation_schedule(n)
    return MollifiedIntegrand(MoreauIntegrand(F, delta), eps, mu)
