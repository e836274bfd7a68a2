"""Regularisation operators producing smooth strongly elliptic approximants.

Two building blocks: the Moreau-Yosida envelope (inf-convolution with a
quadratic, Hessian bounded by 1/delta) and mollification by a compactly
supported bump plus a small quadratic (Hessian bounded below by mu).  Their
composition with the schedule delta_n = eps_n = mu_n = 2^{-n} gives the
strongly elliptic ladder approximating any catalogue integrand.

The bump is phi(x) = (5/pi) (1 - |x|^2)^4 on the unit disk.  Convolutions
use a polar tensor rule (Gauss-Legendre radially, uniform angularly); the
radial integrand of the bump's mass is a polynomial, so the rule integrates
the bump exactly, unlike a tensor rule on the bounding square.
"""

from __future__ import annotations

import numpy as np

from .integrand import Integrand, IntegrandError, newton_minimise


class ProxError(RuntimeError):
    """The inner proximal minimisation did not converge."""


class MollifierSpec:
    """Quadrature for integration against the polynomial bump.

    Nodes live on the unit disk; callers scale them by eps.  ``weights`` are
    the bump-weighted quadrature weights (summing to 1), ``grad_weights``
    the weights against the bump's gradient (summing to 0 componentwise).
    """

    def __init__(self, n_radial=16, n_angular=36):
        self.n_radial = n_radial
        self.n_angular = n_angular
        r, wr = np.polynomial.legendre.leggauss(n_radial)
        r = 0.5 * (r + 1.0)
        wr = 0.5 * wr
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        dth = 2.0 * np.pi / n_angular
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

def _prox_solve(part, delta, Z, W0, *, grad_tol=1e-11, max_iter=80):
    """Newton (``newton_minimise``) for the proximal problem
    w -> F(w) + |w - z|^2 / (2 delta), started at W0.  The inner Hessian is
    bounded below by Id/delta, so convergence is quadratic from any start."""
    Z = np.ascontiguousarray(Z, dtype=float)
    tol = grad_tol * (1.0 + np.hypot(Z[:, 0], Z[:, 1]))
    W, gn = newton_minimise(part, W0, tol, c=1.0 / delta, Z=Z, max_iter=max_iter)
    if not np.all(gn <= 100.0 * tol):
        raise ProxError(
            f"proximal Newton stalled at |grad| = {float(gn.max()):g} "
            f"(tolerance {float(tol.max()):g})")
    return W


class MoreauIntegrand(Integrand):
    """Moreau-Yosida envelope F_delta(z) = inf_w F(w) + |w - z|^2 / (2 delta).

    The envelope keeps the ellipticity bound of F and satisfies
    lmax(D2 F_delta) <= 1/delta.  Value and gradient come from the same
    proximal point p = prox(z): F_delta(z) = F(p) + |p - z|^2 / (2 delta)
    and DF_delta(z) = (z - p) / delta, so ``derivs`` solves one proximal
    problem per point for both; Hessians come from central differences of
    the gradient with step 1e-5 (1 + |z|), four more proximal solves.
    Every ``prox`` call solves from scratch, so results do not depend on
    earlier calls.
    """

    kind = "moreau"

    def __init__(self, part, delta):
        delta = float(delta)
        if delta <= 0.0:
            raise IntegrandError(f"moreau parameter delta must be positive, got {delta}")
        self.part = part
        self.delta = delta
        self.analytic_H = part.analytic_H
        self.minimum = part.minimum

    def prox(self, z):
        zz = np.asarray(z, dtype=float)
        single = zz.ndim == 1
        Z = zz.reshape(-1, 2)
        W = _prox_solve(self.part, self.delta, Z, Z)
        return W[0] if single else W

    def _eval(self, z):
        return self.derivs(z, 0)[0]

    def _grad(self, z):
        return (z - self.prox(z)) / self.delta

    def _hess(self, z):
        h = 1e-5 * (1.0 + np.hypot(z[:, 0], z[:, 1]))
        out = np.empty((z.shape[0], 2, 2))
        eye = np.eye(2)
        for i in range(2):
            step = h[:, None] * eye[i]
            out[:, :, i] = (self._grad(z + step) - self._grad(z - step)) / (2.0 * h[:, None])
        return out

    def derivs(self, z, order=2):
        W = self.prox(z)
        d = W - z
        f = self.part._eval(W) + 0.5 / self.delta * (d[:, 0] ** 2 + d[:, 1] ** 2)
        return (f,
                (z - W) / self.delta if order >= 1 else None,
                self._hess(z) if order >= 2 else None)

    def describe(self):
        return f"moreau({self.part.describe()}, delta={self.delta:g})"


def moreau_yosida(F, delta):
    """The Moreau-Yosida envelope of F at parameter delta > 0."""
    return MoreauIntegrand(F, delta)


# ---------------------------------------------------------------------------
# mollification plus quadratic
# ---------------------------------------------------------------------------

_CHUNK = 1 << 21  # max points per convolution batch


class MollifiedIntegrand(Integrand):
    """(F * phi_eps)(z) + (mu/2) |z|^2 by quadrature over the bump support.

    Values and gradients integrate F and DF against phi_eps; Hessians use
    integration by parts, pairing DF with the bump's gradient, so only first
    derivatives of F are ever needed.  ``derivs`` therefore takes value,
    gradient and Hessian from one ``part.derivs`` pass of order at most 1
    over the shifted quadrature points.  Jensen gives F * phi_eps >= F
    pointwise, and the quadratic term pins lmin >= mu.
    """

    kind = "mollified"

    def __init__(self, part, eps, mu, spec=None):
        eps, mu = float(eps), float(mu)
        if eps <= 0.0 or mu <= 0.0:
            raise IntegrandError(f"mollifier needs eps, mu > 0, got {eps}, {mu}")
        self.part = part
        self.eps = eps
        self.mu = mu
        self.spec = spec if spec is not None else MollifierSpec()
        self._nodes = self.eps * self.spec.nodes
        self.analytic_H = part.analytic_H

    def _shifted(self, z):
        pts = z[:, None, :] - self._nodes[None, :, :]
        return pts.reshape(-1, 2)

    def _chunks(self, m):
        k = self._nodes.shape[0]
        rows = max(1, _CHUNK // k)
        for lo in range(0, m, rows):
            yield lo, min(lo + rows, m)

    def _convolve(self, z, orders, sample):
        """Value (order 0), gradient (1) and Hessian (2) for each order in
        ``orders``, the others None; ``sample(pts)`` returns the part's
        (F, DF) at the shifted points, None where no order needs it."""
        m, k = z.shape[0], self._nodes.shape[0]
        f = np.empty(m) if 0 in orders else None
        g = np.empty_like(z) if 1 in orders else None
        h = np.empty((m, 2, 2)) if 2 in orders else None
        for lo, hi in self._chunks(m):
            vals, grads = sample(self._shifted(z[lo:hi]))
            if f is not None:
                f[lo:hi] = vals.reshape(-1, k) @ self.spec.weights
            if grads is not None:
                grads = grads.reshape(-1, k, 2)
            if g is not None:
                g[lo:hi] = np.einsum("mki,k->mi", grads, self.spec.weights)
            if h is not None:
                h[lo:hi] = np.einsum("mki,kj->mij", grads, self.spec.grad_weights) / self.eps
        if f is not None:
            f += 0.5 * self.mu * (z[:, 0] ** 2 + z[:, 1] ** 2)
        if g is not None:
            g += self.mu * z
        if h is not None:
            h = 0.5 * (h + np.transpose(h, (0, 2, 1)))
            h[:, 0, 0] += self.mu
            h[:, 1, 1] += self.mu
        return f, g, h

    def _eval(self, z):
        return self._convolve(z, (0,), lambda pts: (self.part._eval(pts), None))[0]

    def _grad(self, z):
        return self._convolve(z, (1,), lambda pts: (None, self.part._grad(pts)))[1]

    def _hess(self, z):
        return self._convolve(z, (2,), lambda pts: (None, self.part._grad(pts)))[2]

    def derivs(self, z, order=2):
        return self._convolve(z, range(order + 1),
                              lambda pts: self.part.derivs(pts, min(order, 1))[:2])

    def describe(self):
        return f"mollified({self.part.describe()}, eps={self.eps:g}, mu={self.mu:g})"


def mollify_plus_quadratic(F, eps, mu, spec=None):
    """(F * phi_eps) + (mu/2)|z|^2; pointwise above F and uniformly convex."""
    return MollifiedIntegrand(F, eps, mu, spec)


def approximation_schedule(n):
    """Default ladder parameters delta_n = eps_n = mu_n = 2^{-n}."""
    if n < 1:
        raise IntegrandError(f"ladder index must be >= 1, got {n}")
    s = 2.0 ** (-n)
    return s, s, s


def strongly_elliptic_approx(F, n, spec=None):
    """Ladder step n: Moreau envelope then mollification plus quadratic.

    Sampled Hessian eigenvalues satisfy mu_n <= lmin <= lmax <= 1/delta_n + mu_n.
    """
    delta, eps, mu = approximation_schedule(n)
    return MollifiedIntegrand(MoreauIntegrand(F, delta), eps, mu, spec)
