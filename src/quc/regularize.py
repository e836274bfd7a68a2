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

Mollifying a radial part F(w) = G(|w|) needs one scalar per node: with
s_k = G'(r_k)/r_k at r_k = |z - eps e_k|, DF(z - eps e_k) = s_k (z - eps e_k),
so the gradient and Hessian of the convolution are fixed linear forms in
the s_k (``MollifiedIntegrand``), and no vector field of samples is built.
The envelope of a radial leaf is radial too (``RadialMoreauIntegrand``):
with rho the proximal radius of r = |z|, its value is G(rho) + (r - rho)^2
/ (2 delta) and its coefficient G'(rho)/r, so the ladder's step
mollify(moreau(F)) samples one proximal radius per node and no proximal
point.
"""

from __future__ import annotations

import numpy as np

from .integrand import (PROX_GRAD_TOL, Integrand, IntegrandError, ProxError, RadialIntegrand,
                        RadialLeaf, _radii, _ratio)


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
    keeps no state, so results do not depend on earlier calls.  The
    envelope of a power or Uhlenbeck leaf (``moreau_yosida``) is the
    subclass ``RadialMoreauIntegrand``, which also samples itself radially
    for the mollifier.
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
            raise self._missed(Z[i], gn[i], tol[i], float(np.hypot(*W[i])))
        return W[0] if single else W

    def _missed(self, z, gn, tol, wn):
        """The ``ProxError`` for the point z whose proximal point, of radius
        wn, misses the optimality condition by gn > tol; it says why where
        that radius underflows or is subnormal."""
        why = ""
        if self.part._prox_underflows(z[None], self.delta)[0]:
            why = ("; its radius underflows below the smallest positive double, so no "
                   "representable point meets the condition")
        elif 0.0 < wn < np.finfo(float).tiny:
            why = (f"; its radius {wn:g} is subnormal, so the point carries too few "
                   "significant bits to meet the condition")
        return ProxError(
            f"proximal point of {self.part.describe()} at z = {z.tolist()} misses "
            f"its optimality condition: |grad| = {gn:g} (tolerance {tol:g})" + why)

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


class RadialMoreauIntegrand(MoreauIntegrand, RadialIntegrand):
    """The Moreau envelope of a radial leaf, itself radial.

    With r = |z| and rho the proximal radius, the root of rho + delta
    G'(rho) = r, F_delta(z) = G(rho) + (r - rho)^2 / (2 delta) and DF_delta(z)
    = (G'(rho)/r) z.  So ``_radial_samples`` gives the value and the
    coefficient of a sample from one ``part._prox_radius`` call on its
    radius (``integrand._radii``, as the leaf's ``prox`` takes it), and the
    mollifier reduces one coefficient per node instead of a vector field of
    proximal points.  Every radius is checked against the
    optimality condition |G'(rho) + (rho - r)/delta| <= 100 PROX_GRAD_TOL
    (1 + r), and a miss raises the ``ProxError`` that ``prox`` raises for
    the same point.  ``prox`` and ``derivs`` are inherited unchanged, so
    the envelope's own values, gradients and Hessians keep their bits.  It
    is not a radial leaf: the envelope of this envelope solves its
    proximal problem by Newton, as for every part without an exact map.

    The coefficient.  G'(rho) - G'(rho*) and (rho - rho*)/delta, rho* the
    exact root, have the sign of rho - rho* and sum to the residual above,
    so each is at most the tolerance: s r is within 100 PROX_GRAD_TOL (1 +
    r) of G_delta'(r) = G'(rho*), the guarantee (z - prox(z))/delta has.
    That is what the mollifier's sums need: in exact arithmetic they
    multiply s by z_i - eps e_k,i, of size at most r.  Their rounding scales
    with s itself, so s is also kept good relative to its own size.  s =
    G'(rho)/r is: its relative error is t G''(t)/G'(t) times rho's (the
    4-ulp stop of ``radial_prox_radius``, or the closed form's few
    roundings) plus that of G' and one division, with no cancellation where
    rho is close to r (p > 2 near 0), unlike (r - rho)/(delta r).  It loses
    that only where G'(rho) leaves the normal doubles, and then by at most
    2^-1075 / r (p = 3 below r = 1.5e-154).  Where rho is subnormal or 0,
    rho has too few bits for G'(rho): s = ((r - rho)/r)/delta there, off by
    |rho - rho*| / (delta r), a few subnormal spacings over delta r.  At rho
    = 0 < r (p < 2 at tiny r) that is the limit 1/delta in one rounding;
    G'(0)/r = 0 would miss the whole coefficient, within the tolerance only
    because r/delta is.  At r = 0, s = 0.
    """

    def _radial_samples(self, x, y, orders):
        part, delta = self.part, self.delta
        r = _radii(x, y).reshape(-1)  # _prox_radius takes 1-D radii
        rho = part._prox_radius(r, delta)
        gp = part.profile.deriv(rho)
        res = rho - r
        res /= delta
        res += gp
        np.abs(res, out=res)
        tol = r + 1.0
        tol *= 100.0 * PROX_GRAD_TOL
        ok = res <= tol
        if not (ok.all() and r.max() < np.inf):  # r = inf leaves no test, as in prox
            i = int(np.argmax(~ok | (r == np.inf)))
            raise self._missed(np.array([x.flat[i], y.flat[i]]), res[i], tol[i], rho[i])
        f = s = None
        if 0 in orders:
            d = r - rho
            d *= d
            d *= 0.5 / delta
            d += part.profile(rho)
            f = d.reshape(x.shape)
        if 1 in orders:
            with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at r = 0 is replaced
                s = gp / r
            few = np.finfo(float).tiny
            if rho.min() < few:
                low = np.flatnonzero(rho < few)
                r_low = r[low]
                s[low] = _ratio(r_low - rho[low], r_low) / delta
            s = s.reshape(x.shape)
        return f, s


def moreau_yosida(F, delta):
    """The Moreau-Yosida envelope of F at parameter delta > 0; for a radial
    leaf, the radial envelope ``RadialMoreauIntegrand``."""
    if isinstance(F, RadialLeaf):
        return RadialMoreauIntegrand(F, delta)
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

# A row of a radial part keeps the coefficient path only where sum_k c_k s_k
# <= _RADIAL_SLACK (sum_k c_k) G'(rho)/rho (``MollifiedIntegrand``): its error
# bound then stays within _RADIAL_SLACK of the vector path's.  Over 4000
# points at radii 1e-4 to 1e4 the ratio of the two sides read at most 4.4
# (power p = 1.1), 1.8 (p = 1.5), 1.7 (the Uhlenbeck profile power_sum((1, 1.5),
# (0.5, 3))) and 1 (p >= 2).
_RADIAL_SLACK = 16.0


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
    depend on the batch it is evaluated in.  (A gemm or gemv over a whole
    batch, ``s @ table``, gives bits that depend on the batch on OpenBLAS.)

    A radial part (``RadialIntegrand``: a power or Uhlenbeck leaf, or the
    Moreau envelope of one) is sampled by coordinates: X = z_x - eps e_x and
    Y = z_y - eps e_y as contiguous (rows, k) arrays, from which one
    ``part._radial_samples`` call gives the values G(r_k) where order 0 is
    wanted and one coefficient s_k = G'(r_k)/r_k per node where order 1 or
    2 is.  For a leaf the values are the vector path's doubles, reduced by
    the same product; for an envelope both come from one proximal radius per
    sample (``RadialMoreauIntegrand``), checked as ``prox`` checks its
    points.  With node tables built once,
        DF_eps(z)_i = z_i sum_k w_k s_k - sum_k (w_k eps e_k,i) s_k,
        D2F_eps(z)_ij = (z_i sum_k s_k gw_k,j - sum_k (eps e_k,i gw_k,j) s_k) / eps,
    the second being the integration by parts above.  Each entry is within
    gamma_{k+6} M of its exact value, where M sums |b_k| s_k (|z_i| + eps
    |e_k,i|) over the nodes (b_k = w_k or gw_k,j / eps) plus the mu term.
    The vector path's bound has |z_i - eps e_k,i| <= r_k in place of |z_i|
    + eps |e_k,i|, so it is at most gamma_{k+3} G'(rho) sum_k |b_k|, rho =
    |z| + eps >= r_k, as G' increases.  M is larger where s_k is large at a
    sample near 0: a profile with G'(r)/r unbounded at 0 (power p < 2) and
    z within a small fraction of rho of a node.  So a row keeps this path
    only where sum_k c_k s_k <= _RADIAL_SLACK (sum_k c_k) G'(rho)/rho, with
    c_k = w_k + |gw_k,x| + |gw_k,y|, which bounds M by _RADIAL_SLACK (sum_k
    c_k) G'(rho), over eps for D2F, up to the mu term.  The test also fails
    where a coefficient is not finite, among them every sample in the power
    leaf's tiny-radius regime, where ``_radial_samples`` gives nan.  Those
    rows, and points z that are not finite, take the vector path, each by
    itself, so that their bits do not depend on the batch either.  An
    envelope's coefficients are at most 1/delta, the Lipschitz constant of
    its gradient, up to its proximal radii's tolerance, so no sample near 0
    can make them large: its rows compare with 1/delta in place of
    G'(rho)/rho, which bounds M by _RADIAL_SLACK (sum_k c_k) rho / delta and
    needs no proximal radius at rho, and fail in effect only where a
    coefficient is not finite.  An envelope raises ``ProxError`` at a point
    that is not finite, as its vector path does.
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
        if isinstance(part, RadialIntegrand):
            # rows paired with s_k: c for the row test (c > 0, so its sum is
            # finite only where every s_k is), w and w eps e_k for DF, then
            # gw_j and eps e_k,i gw_j for D2F
            w, (ex, ey) = self.spec.weights, self._node_cols
            gw = self.spec.grad_weights.T
            c = w + np.abs(gw).sum(axis=0)
            self._radial_tables = (np.stack([c, w, w * ex, w * ey]),
                                   np.stack([*gw, *(ex * gw), *(ey * gw)]))
            self._radial_limit = _RADIAL_SLACK * c.sum()
            self._shift_tables = [np.stack([np.ones_like(c), -c]) for c in (ex, ey)]

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

    def _sampled(self, zb, orders):
        """The convolution's (F, DF, D2F) at the rows zb, without mu, from one
        ``part.derivs`` pass over the shifted points."""
        k, w = len(self.spec.nodes), self.spec.weights
        sampled = {min(j, 1) for j in orders}  # the Hessian pairs the DF samples
        vals, grads, _ = self.part.derivs(self._shifted(zb), sampled)
        if grads is not None:
            grads = grads.reshape(-1, k, 2).transpose(0, 2, 1)
        return (np.matmul(vals.reshape(-1, 1, k), w)[:, 0] if 0 in orders else None,
                np.matmul(grads, w) if 1 in orders else None,
                np.matmul(grads, self.spec.grad_weights) / self.eps if 2 in orders else None)

    def _radial(self, zb, orders):
        """The same from one coefficient s_k per node, for a radial part; rows
        that fail the class docstring's test are taken from ``_sampled``."""
        k = len(self.spec.nodes)
        # [z_c, 1] @ [1; -eps e_c] is z_c - eps e_c in one rounding, the double
        # np.subtract gives up to the sign of a zero, which no radial part
        # sees; the gemm writes the (rows, k) array faster than a broadcast
        A = np.ones((zb.shape[0], 2))
        A[:, 0] = zb[:, 0]
        X = np.matmul(A, self._shift_tables[0])
        A[:, 0] = zb[:, 1]
        Y = np.matmul(A, self._shift_tables[1])
        v, s = self.part._radial_samples(X, Y, {min(j, 1) for j in orders})
        f = g = h = None
        if v is not None:
            f = np.matmul(v.reshape(-1, 1, k), self.spec.weights)[:, 0]
        if s is None:
            return f, g, h
        s = s.reshape(-1, k, 1)
        grad_tab, hess_tab = self._radial_tables
        a = np.matmul(grad_tab, s)[:, :, 0]
        if isinstance(self.part, RadialMoreauIntegrand):
            s_rho = 1.0 / self.part.delta  # the ceiling of the envelope's coefficients
        else:
            rho = np.hypot(zb[:, 0], zb[:, 1]) + self.eps
            s_rho = self.part._radial_samples(rho, np.zeros_like(rho), (1,))[1]
        bad = ~((a[:, 0] <= self._radial_limit * s_rho) & np.isfinite(zb).all(axis=1))
        with np.errstate(invalid="ignore"):  # inf - inf only in the bad rows
            if 1 in orders:
                g = zb * a[:, 1:2] - a[:, 2:]
            if 2 in orders:
                b = np.matmul(hess_tab, s)[:, :, 0]
                h = (zb[:, :, None] * b[:, None, :2] - b[:, 2:].reshape(-1, 2, 2)) / self.eps
        if bad.any():
            for res, fix in zip((f, g, h), self._sampled(zb[bad], orders)):
                if res is not None:
                    res[bad] = fix
        return f, g, h

    def derivs(self, z, orders=(0, 1, 2)):
        m = z.shape[0]
        out = (np.empty(m) if 0 in orders else None,
               np.empty_like(z) if 1 in orders else None,
               np.empty((m, 2, 2)) if 2 in orders else None)
        batch = self._radial if isinstance(self.part, RadialIntegrand) else self._sampled
        for lo, hi in self._chunks(m):
            for dst, res in zip(out, batch(z[lo:hi], orders)):
                if dst is not None:
                    dst[lo:hi] = res
        f, g, h = out
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
    return MollifiedIntegrand(moreau_yosida(F, delta), eps, mu)
