"""Catalogue of uniformly elliptic convex integrands on the plane.

Every integrand F here is convex, superlinear and carries batched access to
values, gradients and Hessians.  Evaluation accepts a single point ``(2,)``
or a batch ``(m, 2)`` and returns matching shapes.  Leaves and radial
profiles have closed form derivatives; central differences of the values
are only the ``derivatives: finite_difference`` mode (``with_fd_derivatives``).

The central quantity is the ellipticity ratio
``e(z) = lmax(D2F(z)) / lmin(D2F(z))``; catalogue constructors record the
exact supremum H of this ratio whenever it is known.
"""

from __future__ import annotations

import numpy as np


class IntegrandError(ValueError):
    """Invalid integrand parameters or failed validation."""


class NormalisationError(RuntimeError):
    """The argmin search or gradient-infimum search did not converge."""


class ProxError(RuntimeError):
    """The inner proximal minimisation did not converge."""


# proximal points are accepted when the gradient of the proximal objective
# is at most 100 * PROX_GRAD_TOL * (1 + |z|)
PROX_GRAD_TOL = 1e-11


def as_points(z):
    """Coerce input to an (m, 2) float array; also report if it was a single point."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1 and z.shape[0] == 2:
        return z.reshape(1, 2), True
    if z.ndim == 2 and z.shape[1] == 2:
        return z, False
    raise IntegrandError(f"expected a point of shape (2,) or batch (m, 2), got {z.shape}")


def _scale_rows(s, z):
    """s[:, None] * z for an (m, 2) z, one strided multiply per column so
    numpy's inner loop runs over the m rows; elementwise the same products."""
    out = np.empty_like(z)
    for c in range(z.shape[1]):
        np.multiply(s, z[:, c], out=out[:, c])
    return out


def _ratio(num, den):
    """num / den where den > 0 and 0 elsewhere (den = 0 or nan), broadcast
    as division is; nothing is divided where den is not positive."""
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    np.divide(num, den, out=out, where=den > 0.0)
    return out


class _Samples(np.errstate):
    """The one rule for non-finite samples of a sampled measurement.

    Sample arithmetic runs in ``with _Samples():``, where an overflow, a
    division by zero or an invalid operation (inf - inf, 0/0, inf/inf)
    makes an inf or nan sample instead of a warning.  ``_Samples.worst``
    then reduces the samples: a sample that is not finite reads nan, is
    never dropped and is the worst.
    """

    def __init__(self):
        super().__init__(divide="ignore", over="ignore", invalid="ignore")

    @staticmethod
    def worst(q, largest, degenerate=None, data=()):
        """(worst sample, its index, samples skipped) along the last axis of q.

        A sample reads nan where it or any array of ``data`` (the sample's
        inputs, with q's shape and any trailing axes) is not finite, and is
        skipped where ``degenerate`` marks it and its data are finite.  The
        first nan is the worst; otherwise it is the largest sample, or the
        least unless ``largest``, and -inf (inf) when all are skipped.
        """
        q = np.asarray(q, dtype=float)
        finite = np.ones(q.shape, dtype=bool)
        for x in data:
            finite &= np.isfinite(x).reshape(*q.shape, -1).all(axis=-1)
        skip = np.zeros(q.shape, dtype=bool) if degenerate is None else degenerate & finite
        ranked = np.where(skip, -np.inf if largest else np.inf,
                          np.where(finite & np.isfinite(q), q, np.nan))
        k = np.argmax(ranked, axis=-1) if largest else np.argmin(ranked, axis=-1)
        return (np.take_along_axis(ranked, np.expand_dims(k, -1), -1)[..., 0], k,
                skip.sum(axis=-1))


def _rank_one_hess(tang, c, v, B=None):
    """tang B + c v v^T per row, for B = Id (None) or a symmetric 2x2: every
    radial Hessian, D2 G(|z|) = (G'/r) Id + (G'' - G'/r) zhat zhat^T with
    eigenvalues G''(r) along zhat and G'(r)/r across it, and for the gauge
    h(z) = sqrt((A z, z)) D2 G(h) = (G'/h) A + (G'' - G'/h) Dh Dh^T.  Each
    entry is (c v_i) v_j plus tang B_ij (tang on the diagonal for B = Id);
    the lower off-diagonal entry copies the upper one, so it is symmetric."""
    out = np.empty((v.shape[0], 2, 2))
    cv0 = c * v[:, 0]
    np.multiply(cv0, v[:, 0], out=out[:, 0, 0])
    np.multiply(cv0, v[:, 1], out=out[:, 0, 1])
    np.multiply(c * v[:, 1], v[:, 1], out=out[:, 1, 1])
    if B is None:
        out[:, 0, 0] += tang
        out[:, 1, 1] += tang
    else:
        for i, j in ((0, 0), (0, 1), (1, 1)):
            out[:, i, j] += tang * B[i, j]
    out[:, 1, 0] = out[:, 0, 1]
    return out


class Integrand:
    """Base class: convex integrand with batched eval / grad / hess.

    ``derivs(z, orders=(0, 1, 2))`` is the one derivative primitive.  It
    returns the triple (F, DF, D2F) at an (m, 2) batch with each order in
    the collection ``orders`` computed and every other slot None.  The base
    ``_eval``, ``_grad`` and ``_hess`` are ``derivs(z, (k,))[k]`` for k = 0,
    1, 2, and the base ``derivs`` calls ``_eval``, ``_grad`` and ``_hess``
    for the wanted orders, so every subclass defines one side of this
    recursion.  Leaves (power, quadratic, Uhlenbeck, Finsler, blend, finite
    differences) define ``_eval``/``_grad``/``_hess``.  The combinators
    (sum, scaling, shift, affine term), the Moreau envelope and the
    mollifier define only ``derivs`` and ask their parts for just the
    orders they need, so a pass without order 0 asks no part for a value.
    A result does not depend on which other orders are computed with it.

    ``_prox(Z, delta)`` and ``_envelope_hess(W, delta)`` serve the Moreau
    envelope of F: its proximal points and its Hessian.  The defaults are
    the batched Newton solve and D2F at the proximal point; radial and
    quadratic leaves override them with exact maps, and the scaling, shift
    and affine combinators forward them to their parts.  The proximal
    point is forwarded only to an exact map: the Newton solve stops on the
    gradient of its own problem, which these combinators rescale or move.

    Attributes
    ----------
    kind : str
        Catalogue kind tag (matches the config schema).
    analytic_H : float or None
        Exact ellipticity-ratio bound when known.
    singular_points : tuple of ndarray
        Points to exclude (small balls around them) from Hessian sampling,
        where lmax blows up or lmin vanishes.
    constant_hessian : bool
        True when D2F does not depend on z (quadratics).
    exact_prox : bool
        True when ``_prox`` is an exact map rather than the Newton solve.
    """

    kind = "base"
    analytic_H = None
    singular_points = ()
    constant_hessian = False
    exact_prox = False

    def _eval(self, z):
        return self.derivs(z, (0,))[0]

    def _grad(self, z):
        return self.derivs(z, (1,))[1]

    def _hess(self, z):
        return self.derivs(z, (2,))[2]

    def derivs(self, z, orders=(0, 1, 2)):
        return (self._eval(z) if 0 in orders else None,
                self._grad(z) if 1 in orders else None,
                self._hess(z) if 2 in orders else None)

    def _prox(self, Z, delta):
        """argmin_w F(w) + |w - z|^2 / (2 delta) at each row of Z."""
        return _prox_solve(self, delta, Z, Z)

    def _prox_underflows(self, Z, delta):
        """Rows of Z whose proximal point is known to underflow: none for
        the general proximal solve."""
        return np.zeros(Z.shape[0], dtype=bool)

    def _envelope_hess(self, W, delta):
        """D2 F_delta at the points whose proximal point is W.

        D2 F_delta = (Id - (Id + delta D2F(W))^{-1}) / delta, computed as
        D2F(W) (Id + delta D2F(W))^{-1}, which has no cancellation where
        delta D2F(W) is small.  Rows where D2F(W) is not finite take its
        limit Id/delta.  At the singular points D2F(W) is not the limit of
        D2F, so those rows take central differences of the envelope
        gradient with step 1e-5 (1 + |z|), z = W + delta DF(W).
        """
        H = self._hess(W)
        eye = np.eye(2)
        out = np.broadcast_to(eye / delta, H.shape).copy()
        finite = np.isfinite(H).all(axis=(1, 2))
        out[finite] = np.linalg.solve(eye + delta * H[finite], H[finite])
        singular = np.zeros(W.shape[0], dtype=bool)
        for s in self.singular_points:
            singular |= (W[:, 0] == s[0]) & (W[:, 1] == s[1])
        if singular.any():
            Ws = W[singular]
            Z = Ws + delta * self._grad(Ws)
            h = 1e-5 * (1.0 + np.hypot(Z[:, 0], Z[:, 1]))
            for i in range(2):
                step = h[:, None] * eye[i]
                up, down = Z + step, Z - step
                diff = (up - self._prox(up, delta)) - (down - self._prox(down, delta))
                out[singular, :, i] = diff / (2.0 * delta * h[:, None])
        return out

    def eval(self, z):
        zz, single = as_points(z)
        out = self._eval(zz)
        return float(out[0]) if single else out

    def grad(self, z):
        zz, single = as_points(z)
        out = self._grad(zz)
        return out[0] if single else out

    def hess(self, z):
        zz, single = as_points(z)
        out = self._hess(zz)
        return out[0] if single else out

    def hess_eig_bounds(self, z):
        """(lmin, lmax) of the Hessian at each point, closed form in 2-D."""
        zz, single = as_points(z)
        lo, hi = sym2_eig_bounds(self._hess(zz))
        if single:
            return float(lo[0]), float(hi[0])
        return lo, hi

    def describe(self):
        return self.kind

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


def sym2_eig_bounds(h):
    """(lmin, lmax) of a batch of 2x2 matrices' symmetric parts, in closed form."""
    mid = 0.5 * (h[:, 0, 0] + h[:, 1, 1])
    rad = np.hypot(0.5 * (h[:, 0, 0] - h[:, 1, 1]),
                   0.5 * (h[:, 0, 1] + h[:, 1, 0]))
    return mid - rad, mid + rad


# ---------------------------------------------------------------------------
# radial profiles (shared by the Uhlenbeck and Finsler kinds)
# ---------------------------------------------------------------------------

class RadialProfile:
    """Scalar profile G on [0, inf) given by three required elementwise
    functions of a float array: ``value`` (G, also the call), ``deriv`` (G')
    and ``second`` (G''), which may be infinite at t = 0."""

    def __init__(self, value, deriv, second, name="profile"):
        self.value, self.deriv, self.second, self.name = value, deriv, second, name

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))


def power_profile(p):
    """G(t) = t^p / p, the profile of the power integrand."""
    return RadialProfile(
        lambda t: t**p / p,
        lambda t: t ** (p - 1.0),
        lambda t: (p - 1.0) * t ** (p - 2.0),
        name=f"power(p={p})",
    )


def power_sum_profile(terms):
    """G(t) = sum_i c_i t^{p_i} / p_i for positive weights c_i and p_i > 1."""
    terms = [(float(c), float(p)) for c, p in terms]
    for c, p in terms:
        if c <= 0 or p <= 1:
            raise IntegrandError("power_sum terms need c > 0 and p > 1")
    return RadialProfile(
        lambda t: sum(c * t**p / p for c, p in terms),
        lambda t: sum(c * t ** (p - 1.0) for c, p in terms),
        lambda t: sum(c * (p - 1.0) * t ** (p - 2.0) for c, p in terms),
        name="power_sum(" + ",".join(f"{c}*t^{p}" for c, p in terms) + ")",
    )


def radial_prox_radius(profile, r, delta, s0=None):
    """s in [0, r] with s + delta G'(s) = r at each radius r >= 0.

    g(s) = s + delta G'(s) - r increases, so the root lies below any s0
    with g(s0) >= 0 (default s0 = r) and is bracketed by [0, s0]; s = 0
    where g(0) >= 0 or r is not finite.  Newton steps are taken in t = log s,
    s <- s exp(-g / (s g')): they keep s > 0 and, where G'' blows up at 0
    (p < 2), shrink s geometrically instead of crossing 0.  A step that
    leaves the bracket, or is 0 at g != 0 (G'' overflowing at a subnormal
    s), is replaced by its midpoint.  A row stops once its step moves s by
    at most 4 ulp or its bracket holds no double inside; rows still moving
    after 100 steps keep their last iterate for the caller to judge.
    """
    s = np.zeros_like(r)
    idx = np.flatnonzero((r > delta * profile.deriv(np.zeros(1))[0]) & (r < np.inf))
    ra = r[idx]
    sa = ra.copy() if s0 is None else s0[idx]
    lo, hi = np.zeros_like(ra), sa.copy()
    for _ in range(100):
        if idx.size == 0:
            break
        g = sa + delta * profile.deriv(sa) - ra
        np.copyto(lo, sa, where=g < 0.0)
        np.copyto(hi, sa, where=g > 0.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = g / (sa * (1.0 + delta * profile.second(sa)))
            new = sa * np.exp(-step)
        done = (np.abs(step) <= 4.0 * np.finfo(float).eps) & ((step != 0.0) | (g == 0.0))
        bad = ~(done | ((new > lo) & (new < hi)))
        if bad.any():
            new[bad] = 0.5 * (lo[bad] + hi[bad])
            done |= bad & ((new == lo) | (new == hi))
        if done.any():
            s[idx[done]] = new[done]
            keep = ~done
            idx, ra, new, lo, hi = idx[keep], ra[keep], new[keep], lo[keep], hi[keep]
        sa = new
    s[idx] = sa
    return s


class RadialIntegrand(Integrand):
    """F(z) = G(|z|) for a convex G with G(0) = 0, sampled per point from
    r = |z| alone (``_radial_samples``): DF(z) = (G'(r)/r) z, so one scalar
    per point carries the gradient.  The mollifier samples such a part by
    these scalars instead of by its vector gradient."""

    def _radial_samples(self, x, y, orders):
        """(G(r), G'(r)/r) at the points (x, y), r = |(x, y)|, for coordinate
        arrays of any one shape: the value where 0 is in ``orders``, the
        coefficient where 1 is, and None in the other slot.  The coefficient
        is 0 at r = 0, and nan where the part has no faithful coefficient."""
        raise NotImplementedError


class RadialLeaf(RadialIntegrand):
    """A radial leaf whose G is the profile ``self.profile``.

    Its Moreau envelope is radial too (``regularize.RadialMoreauIntegrand``).
    The Moreau proximal point lies on the ray of z: prox(z) = s z / |z|
    with s + delta G'(s) = |z| (``_prox_radius``).  The envelope Hessian at
    z has the radial eigenvalue G''(s) / (1 + delta G''(s)) and the
    tangential one (G'(s)/s) / (1 + delta G'(s)/s).  At s = 0 both take
    G''(0), so the limit is Id/delta where G'' blows up at 0 (p < 2) and 0
    where it vanishes (p > 2).
    """

    exact_prox = True

    def _prox_radius(self, r, delta):
        """The root s of s + delta G'(s) = r at each radius of the 1-D array r."""
        return radial_prox_radius(self.profile, r, delta)

    def _prox_underflows(self, Z, delta):
        """Rows whose proximal radius, the root of s + delta G'(s) = |z|,
        lies strictly between 0 and the smallest positive double."""
        r = _radii(Z[:, 0], Z[:, 1])
        tiny = np.full(1, np.finfo(float).smallest_subnormal)
        G1 = self.profile.deriv
        return (r > delta * G1(np.zeros(1))[0]) & (tiny[0] + delta * G1(tiny)[0] > r)

    def _prox(self, Z, delta):
        r = _radii(Z[:, 0], Z[:, 1])
        return _scale_rows(_ratio(self._prox_radius(r, delta), r), Z)

    def _envelope_hess(self, W, delta):
        s = _radii(W[:, 0], W[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = self.profile.second(s)
            tang = _ratio(self.profile.deriv(s), s)
            np.copyto(tang, radial, where=~(s > 0.0))
            # t / (1 + delta t), written so that t = inf gives 1/delta and t = 0 gives 0
            er = 1.0 / (delta + 1.0 / radial)
            et = 1.0 / (delta + 1.0 / tang)
        return _rank_one_hess(et, er - et, _ratio(W, s[:, None]))


# ---------------------------------------------------------------------------
# catalogue kinds
# ---------------------------------------------------------------------------

def _power_value(x, y, p):
    """|w|^p / p at the points w = (x, y)."""
    return (x ** 2 + y ** 2) ** (p / 2.0) / p


# below this r2 = |z|^2 is not a normal double or (p-2) r2^{p/2-2} overflows
# (its exponent exceeds -3/2 for p > 1)
_TINY_R2 = np.finfo(float).max ** (-2.0 / 3.0)


def _tiny_index(r2):
    """Flat indices where r2 < _TINY_R2, or None after one min over r2 that
    skips nan, so that a nan entry does not hide the tiny ones of its batch."""
    if not (r2.size and np.fmin.reduce(r2, axis=None) < _TINY_R2):
        return None
    return np.flatnonzero(r2 < _TINY_R2)


def _radii(x, y):
    """|(x, y)| for coordinate arrays of any one shape: sqrt(x^2 + y^2),
    except below x^2 + y^2 = _TINY_R2, where the squares lose bits to
    underflow, and there ``np.hypot``.  It overflows to inf above about
    1e154.  The radial leaves' proximal maps and the radial envelope's
    samples (``regularize.RadialMoreauIntegrand``) all take their radii
    from here, so the vector and coefficient paths see the same r."""
    r = x ** 2
    r += y ** 2
    idx = _tiny_index(r)
    np.sqrt(r, out=r)
    if idx is not None:
        r.flat[idx] = np.hypot(x.flat[idx], y.flat[idx])
    return r


def _tiny_rows(z, r2):
    """(rows, |z|, z/|z|) where z != 0 but r2 = |z|^2 < _TINY_R2, or None
    where ``_tiny_index`` finds no such row."""
    idx = _tiny_index(r2)
    if idx is None:
        return None
    r = np.hypot(z[idx, 0], z[idx, 1])
    idx, r = idx[r > 0.0], r[r > 0.0]
    return idx, r, z[idx] / r[:, None]


def _power_coeff(x, y, p):
    """(s, r2) at the points w = (x, y): s = r2^{(p-2)/2}, the radial
    coefficient G'(r)/r of |w|^p / p, with r2 = |w|^2.  r2 is returned as
    None when every r2 is at least _TINY_R2.  Otherwise s is set to 0 where
    r2 is 0 or nan; where 0 < |w| but r2 < _TINY_R2 it has lost its bits or
    overflowed."""
    r2 = x ** 2 + y ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = r2 ** ((p - 2.0) / 2.0)
    if r2.size and r2.min() >= _TINY_R2:  # false on nan
        return s, None
    s[~(r2 > 0.0)] = 0.0  # in place, not np.where: one temporary fewer
    return s, r2


def _power_grad(z, p):
    s, r2 = _power_coeff(z[:, 0], z[:, 1], p)
    out = _scale_rows(s, z)
    tiny = None if r2 is None else _tiny_rows(z, r2)
    if tiny is not None:
        idx, r, u = tiny
        out[idx] = _scale_rows(r ** (p - 1.0), u)
    return out


def _power_hess(z, p):
    # r^{p-2} (Id + (p-2) zhat zhat^T); zero matrix at the origin except p = 2.
    r2 = z[:, 0] ** 2 + z[:, 1] ** 2
    with np.errstate(divide="ignore", over="ignore"):
        s = np.where(r2 > 0.0, r2 ** ((p - 2.0) / 2.0), float(p == 2.0))
        c = _ratio((p - 2.0) * s, r2)
    tiny = _tiny_rows(z, r2)
    if tiny is not None:
        # on the unit vector; r^{p-2} above the doubles (p near 1) saturates
        idx, r, u = tiny
        with np.errstate(over="ignore"):
            s[idx] = np.minimum(r ** (p - 2.0), np.finfo(float).max)
        c[idx] = (p - 2.0) * s[idx]
        z = z.copy()
        z[idx] = u
    return _rank_one_hess(s, c, z)


class PowerIntegrand(RadialLeaf):
    """F(z) = |z|^p / p with exact derivatives.

    Hessian eigenvalues are |z|^{p-2} and (p-1)|z|^{p-2}, so the ellipticity
    ratio is constant: max(p-1, 1/(p-1)).  The gradient extends continuously
    by 0 at the origin; the Hessian there is excluded from sampling unless
    p = 2.  The proximal radius has a closed form for p = 2 and p = 3.
    """

    kind = "power"

    def __init__(self, p):
        p = float(p)
        if not p > 1.0:
            raise IntegrandError(f"power exponent must exceed 1, got {p}")
        self.p = p
        self.profile = power_profile(p)
        self.analytic_H = max(p - 1.0, 1.0 / (p - 1.0))
        if p != 2.0:
            self.singular_points = (np.zeros(2),)

    def _radial_samples(self, x, y, orders):
        f = _power_value(x, y, self.p) if 0 in orders else None
        s = None
        if 1 in orders:
            s, r2 = _power_coeff(x, y, self.p)
            if r2 is not None:
                # nan where _power_grad takes its tiny-row fix, and where r2 is nan
                s[~(r2 >= _TINY_R2) & ((x != 0.0) | (y != 0.0))] = np.nan
        return f, s

    def _eval(self, z):
        return _power_value(z[:, 0], z[:, 1], self.p)

    def _grad(self, z):
        return _power_grad(z, self.p)

    def _hess(self, z):
        return _power_hess(z, self.p)

    def _prox_radius(self, r, delta):
        if self.p == 2.0:
            return r / (1.0 + delta)
        if self.p == 3.0:
            # the root of s + delta s^2 = r, in the form free of cancellation
            return 2.0 * r / (1.0 + np.sqrt(1.0 + 4.0 * delta * r))
        # both bound the root from above, and the larger term of s + delta s^{p-1}
        # puts it within a factor max(2, 2^{1/(p-1)}) below their minimum
        with np.errstate(over="ignore"):
            s0 = np.minimum(r, (r / delta) ** (1.0 / (self.p - 1.0)))
        return radial_prox_radius(self.profile, r, delta, s0)

    def describe(self):
        return f"power(p={self.p:g})"


class AnisotropicQuadratic(Integrand):
    """F(z) = (A z, z) / 2 for a symmetric positive definite A."""

    kind = "anisotropic_quadratic"
    constant_hessian = True
    exact_prox = True

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.shape != (2, 2):
            raise IntegrandError(f"matrix must be 2x2, got {A.shape}")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise IntegrandError("matrix must be symmetric")
        lam = np.linalg.eigvalsh(A)
        if lam[0] <= 0.0:
            raise IntegrandError(f"matrix must be positive definite, eigenvalues {lam}")
        self.A = 0.5 * (A + A.T)
        self.analytic_H = float(lam[-1] / lam[0])

    def _eval(self, z):
        return 0.5 * np.einsum("mi,ij,mj->m", z, self.A, z)

    def _grad(self, z):
        return z @ self.A.T

    def _hess(self, z):
        return np.broadcast_to(self.A, (z.shape[0], 2, 2)).copy()

    def _prox(self, Z, delta):
        # (Id + delta A) w = z
        return np.linalg.solve(np.eye(2) + delta * self.A, Z.T).T

    def describe(self):
        return f"aniso(A={self.A.tolist()})"


class UhlenbeckIntegrand(RadialLeaf):
    """F(z) = G(|z|) for a validated radial profile G.

    Hessian eigenvalues are G''(r) (radial direction) and G'(r)/r
    (tangential), where r = |z|.
    """

    kind = "uhlenbeck"

    def __init__(self, profile, analytic_H=None):
        self.profile = profile
        self.analytic_H = analytic_H
        self.singular_points = (np.zeros(2),)

    def _radial_samples(self, x, y, orders):
        r = np.hypot(x, y)
        f = s = None
        if 0 in orders:
            f = np.asarray(self.profile(r), dtype=float)
        if 1 in orders:
            with np.errstate(divide="ignore", invalid="ignore"):
                gp = self.profile.deriv(r)
            s = _ratio(gp, r)
        return f, s

    def _eval(self, z):
        return self._radial_samples(z[:, 0], z[:, 1], (0,))[0]

    def _grad(self, z):
        return _scale_rows(self._radial_samples(z[:, 0], z[:, 1], (1,))[1], z)

    def _hess(self, z):
        r = np.hypot(z[:, 0], z[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            gp, gpp = self.profile.deriv(r), self.profile.second(r)
        tang = _ratio(gp, r)
        return _rank_one_hess(tang, np.where(r > 0.0, gpp - tang, 0.0), _ratio(z, r[:, None]))

    def describe(self):
        return f"uhlenbeck({self.profile.name})"


class FinslerIntegrand(Integrand):
    """F(z) = G(h(z)) with the elliptic gauge h(z) = sqrt((A z, z)), A SPD."""

    kind = "finsler"

    def __init__(self, gauge_matrix, profile):
        A = np.asarray(gauge_matrix, dtype=float)
        if A.shape != (2, 2) or not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise IntegrandError("gauge matrix must be symmetric 2x2")
        if np.linalg.eigvalsh(A)[0] <= 0.0:
            raise IntegrandError("gauge matrix must be positive definite")
        self.A = 0.5 * (A + A.T)
        self.profile = profile
        self.singular_points = (np.zeros(2),)

    def _gauge(self, z):
        return np.sqrt(np.einsum("mi,ij,mj->m", z, self.A, z))

    def _eval(self, z):
        return np.asarray(self.profile(self._gauge(z)), dtype=float)

    def _grad(self, z):
        h = self._gauge(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = self.profile.deriv(h)
        return _scale_rows(_ratio(gp, h), z @ self.A.T)

    def _hess(self, z):
        h = self._gauge(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            gp, gpp = self.profile.deriv(h), self.profile.second(h)
        tang = _ratio(gp, h)
        return _rank_one_hess(tang, np.where(h > 0.0, gpp - tang, 0.0),
                              _ratio(z @ self.A.T, h[:, None]), self.A)

    def describe(self):
        return f"finsler(A={self.A.tolist()}, {self.profile.name})"


def _quintic_hermite(x0, x1, v0, d0, s0, v1, d1, s1):
    """Coefficients (highest first) of the quintic matching value, first and
    second derivative at both endpoints."""
    rows = []
    rhs = []
    for x, v, d, s in ((x0, v0, d0, s0), (x1, v1, d1, s1)):
        pw = np.array([x**k for k in range(5, -1, -1)], dtype=float)
        rows.append(pw)
        rows.append(np.array([k * x ** (k - 1) if k >= 1 else 0.0 for k in range(5, -1, -1)]))
        rows.append(np.array([k * (k - 1) * x ** (k - 2) if k >= 2 else 0.0
                              for k in range(5, -1, -1)]))
        rhs.extend([v, d, s])
    return np.linalg.solve(np.array(rows), np.array(rhs))


class BlendIntegrand(Integrand):
    """Power term plus a small localized bump of slow growth.

    F(z) = |z|^p / p + eps * phi(z), where phi equals |z - w|^q / q inside
    the ball of radius |w|/4 around w, equals 1 outside radius |w|/2, and is
    the unique quintic radial interpolation (matching value, first and second
    derivative at both junction radii) in between.  For admissible eps the
    result is uniformly elliptic with lmin -> 0 at the origin and
    lmax -> infinity at w, so the degenerate and singular sets are {0} and
    {w} simultaneously.

    The admissibility threshold ``eps_threshold`` = alpha / (2 beta) is
    sampled: alpha is the least |z|^{p-2} over 512 radii from |w|/2 to 8|w|,
    beta the largest Frobenius norm sqrt(psi''^2 + (psi'/rho)^2) of the
    bump's Hessian over 2048 radii rho = |z - w| of the quintic shell
    [|w|/4, |w|/2].  ``eps`` must lie in (0, eps_threshold).
    """

    kind = "blend"

    def __init__(self, p, q, w, eps=None):
        p, q = float(p), float(q)
        if not (p > 2.0 > q > 1.0):
            raise IntegrandError(f"blend needs p > 2 > q > 1, got p={p}, q={q}")
        w = np.asarray(w, dtype=float).reshape(2)
        r = float(np.hypot(*w))
        if r == 0.0:
            raise IntegrandError("blend bump center w must be nonzero")
        self.p, self.q, self.w, self.r = p, q, w, r
        rho1, rho2 = r / 4.0, r / 2.0
        self.rho1, self.rho2 = rho1, rho2
        self._coef = _quintic_hermite(
            rho1, rho2,
            rho1**q / q, rho1 ** (q - 1.0), (q - 1.0) * rho1 ** (q - 2.0),
            1.0, 0.0, 0.0,
        )
        self._coef_d = np.polyder(self._coef)
        self._coef_dd = np.polyder(self._coef_d)
        self.eps_threshold = self._sample_admissibility()
        if eps is None:
            eps = 0.5 * self.eps_threshold
        eps = float(eps)
        if eps <= 0.0:
            raise IntegrandError("blend weight eps must be positive")
        if eps >= self.eps_threshold:
            raise IntegrandError(
                f"blend weight eps={eps:g} is not admissible; sampled threshold "
                f"alpha/(2 beta) = {self.eps_threshold:g}")
        self.eps = eps
        self.singular_points = (np.zeros(2), w.copy())

    def _sample_admissibility(self):
        """The sampled threshold alpha / (2 beta) of the class docstring."""
        rad = np.geomspace(self.r / 2.0, 8.0 * self.r, 512)
        alpha = float(np.min(rad ** (self.p - 2.0)))
        rho = np.linspace(self.rho1, self.rho2, 2048)
        psi1 = np.polyval(self._coef_d, rho)
        psi2 = np.polyval(self._coef_dd, rho)
        beta = float(np.max(np.sqrt(psi2**2 + (psi1 / rho) ** 2)))
        return alpha / (2.0 * beta)

    def _phi_parts(self, rho):
        """(psi, psi', psi'') of the radial bump profile at radii rho."""
        q = self.q
        psi = np.empty_like(rho)
        d1 = np.empty_like(rho)
        d2 = np.empty_like(rho)
        inner = rho <= self.rho1
        outer = rho >= self.rho2
        mid = ~(inner | outer)
        ri = rho[inner]
        with np.errstate(divide="ignore"):
            psi[inner] = ri**q / q
            d1[inner] = ri ** (q - 1.0)
            d2[inner] = np.where(ri > 0, (q - 1.0) * ri ** (q - 2.0), np.inf)
        psi[mid] = np.polyval(self._coef, rho[mid])
        d1[mid] = np.polyval(self._coef_d, rho[mid])
        d2[mid] = np.polyval(self._coef_dd, rho[mid])
        psi[outer] = 1.0
        d1[outer] = 0.0
        d2[outer] = 0.0
        return psi, d1, d2

    def _bump(self, z):
        """(rows, d, rho) of the points z with rho = |z - w| < |w|/2 or nan,
        d = z - w and rho at those rows, where the bump is not flat.
        Elsewhere psi = 1 and psi' = psi'' = 0, so the bump adds eps to F
        and nothing to DF or D2F."""
        d = z - self.w
        rho = np.hypot(d[:, 0], d[:, 1])
        rows = np.flatnonzero(~(rho >= self.rho2))
        return rows, d[rows], rho[rows]

    def _eval(self, z):
        base = _power_value(z[:, 0], z[:, 1], self.p)
        out = base + self.eps
        rows, _, rho = self._bump(z)
        psi, _, _ = self._phi_parts(rho)
        out[rows] = base[rows] + self.eps * psi
        return out

    def _grad(self, z):
        out = _power_grad(z, self.p)
        rows, d, rho = self._bump(z)
        _, d1, _ = self._phi_parts(rho)
        out[rows] += _scale_rows(self.eps * _ratio(d1, rho), d)
        return out

    def _hess(self, z):
        out = _power_hess(z, self.p)
        rows, d, rho = self._bump(z)
        _, d1, d2 = self._phi_parts(rho)
        tang = self.eps * _ratio(d1, rho)
        out[rows] += _rank_one_hess(tang, np.where(rho > 0.0, self.eps * d2 - tang, 0.0),
                                    _ratio(d, rho[:, None]))
        return out

    def describe(self):
        return (f"blend(p={self.p:g}, q={self.q:g}, w=({self.w[0]:g},{self.w[1]:g}), "
                f"eps={self.eps:g})")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

class SumIntegrand(Integrand):
    """Sum of integrands.  The recorded H is the max of the parts' values,
    an upper bound by eigenvalue subadditivity of sums of symmetric matrices."""

    kind = "sum"

    def __init__(self, parts):
        if not parts:
            raise IntegrandError("sum needs at least one part")
        self.parts = list(parts)
        hs = [f.analytic_H for f in self.parts]
        self.analytic_H = max(hs) if all(h is not None for h in hs) else None
        pts = []
        for f in self.parts:
            pts.extend(f.singular_points)
        self.singular_points = tuple(pts)

    def derivs(self, z, orders=(0, 1, 2)):
        parts = [f.derivs(z, orders) for f in self.parts]
        return tuple(sum(d[k] for d in parts) if k in orders else None for k in range(3))

    def describe(self):
        return "sum(" + ", ".join(f.describe() for f in self.parts) + ")"


class ScaledIntegrand(Integrand):
    """lam * F for lam > 0; the ellipticity ratio is unchanged."""

    kind = "scaled"

    def __init__(self, part, lam):
        lam = float(lam)
        if lam <= 0.0:
            raise IntegrandError(f"scale must be positive, got {lam}")
        self.part = part
        self.lam = lam
        self.analytic_H = part.analytic_H
        self.singular_points = part.singular_points
        self.constant_hessian = part.constant_hessian
        self.exact_prox = part.exact_prox

    def derivs(self, z, orders=(0, 1, 2)):
        out = self.part.derivs(z, orders)
        for d in out:
            if d is not None:
                d *= self.lam  # in place: a part's outputs are fresh arrays
        return out

    # the envelope of lam F at delta is lam times that of F at lam delta
    def _prox(self, Z, delta):
        if not self.exact_prox:
            return super()._prox(Z, delta)
        return self.part._prox(Z, self.lam * delta)

    def _prox_underflows(self, Z, delta):
        return self.part._prox_underflows(Z, self.lam * delta)

    def _envelope_hess(self, W, delta):
        return self.lam * self.part._envelope_hess(W, self.lam * delta)

    def describe(self):
        return f"scaled({self.lam:g} * {self.part.describe()})"


class ShiftedIntegrand(Integrand):
    """F(z + zbar) - F(zbar): recentres the minimum of F at the origin."""

    kind = "shifted"

    def __init__(self, part, zbar):
        self.part = part
        self.zbar = np.asarray(zbar, dtype=float).reshape(2)
        self._offset = part.eval(self.zbar)
        self.analytic_H = part.analytic_H
        self.singular_points = tuple(s - self.zbar for s in part.singular_points)
        self.constant_hessian = part.constant_hessian
        self.exact_prox = part.exact_prox

    def derivs(self, z, orders=(0, 1, 2)):
        f, g, h = self.part.derivs(z + self.zbar, orders)
        return None if f is None else f - self._offset, g, h

    def _prox(self, Z, delta):
        if not self.exact_prox:
            return super()._prox(Z, delta)
        return self.part._prox(Z + self.zbar, delta) - self.zbar

    def _prox_underflows(self, Z, delta):
        return self.part._prox_underflows(Z + self.zbar, delta)

    def _envelope_hess(self, W, delta):
        return self.part._envelope_hess(W + self.zbar, delta)

    def describe(self):
        return f"shifted({self.part.describe()}, zbar=({self.zbar[0]:g},{self.zbar[1]:g}))"


class AffineAddIntegrand(Integrand):
    """F(z) + (w, z) + c; Hessian unchanged."""

    kind = "affine_add"

    def __init__(self, part, w, c=0.0):
        self.part = part
        self.w = np.asarray(w, dtype=float).reshape(2)
        self.c = float(c)
        self.analytic_H = part.analytic_H
        self.singular_points = part.singular_points
        self.constant_hessian = part.constant_hessian
        self.exact_prox = part.exact_prox

    def derivs(self, z, orders=(0, 1, 2)):
        f, g, h = self.part.derivs(z, orders)
        return (None if f is None else f + z @ self.w + self.c,
                None if g is None else g + self.w, h)

    # the linear term moves the proximal problem's centre from z to z - delta w
    def _prox(self, Z, delta):
        if not self.exact_prox:
            return super()._prox(Z, delta)
        return self.part._prox(Z - delta * self.w, delta)

    def _prox_underflows(self, Z, delta):
        return self.part._prox_underflows(Z - delta * self.w, delta)

    def _envelope_hess(self, W, delta):
        return self.part._envelope_hess(W, delta)

    def describe(self):
        return f"affine_add({self.part.describe()}, w=({self.w[0]:g},{self.w[1]:g}))"


class FiniteDifferenceIntegrand(Integrand):
    """Derivative mode switch: gradients and Hessians from central differences
    of the wrapped integrand's values.

    Steps follow 1e-6 (1+|z|) for the gradient and 1e-5 (1+|z|) for the
    Hessian, balancing truncation against rounding in double precision.
    """

    kind = "finite_difference"

    def __init__(self, part):
        self.part = part
        self.analytic_H = part.analytic_H
        self.singular_points = part.singular_points

    def _eval(self, z):
        return self.part._eval(z)

    def _grad(self, z):
        h = 1e-6 * (1.0 + np.hypot(z[:, 0], z[:, 1]))
        out = np.empty_like(z)
        with _Samples():  # an inf value differences to a nan entry
            for i in range(2):
                e = np.zeros((1, 2))
                e[0, i] = 1.0
                step = h[:, None] * e
                out[:, i] = (self.part._eval(z + step) - self.part._eval(z - step)) / (2.0 * h)
        return out

    def _hess(self, z):
        h = 1e-5 * (1.0 + np.hypot(z[:, 0], z[:, 1]))
        f0 = self.part._eval(z)
        out = np.empty((z.shape[0], 2, 2))
        eye = np.eye(2)
        with _Samples():  # an inf value differences to a nan entry
            for i in range(2):
                ei = h[:, None] * eye[i]
                out[:, i, i] = (self.part._eval(z + ei) - 2.0 * f0
                                + self.part._eval(z - ei)) / h**2
            e0 = h[:, None] * eye[0]
            e1 = h[:, None] * eye[1]
            cross = (self.part._eval(z + e0 + e1) - self.part._eval(z + e0 - e1)
                     - self.part._eval(z - e0 + e1) + self.part._eval(z - e0 - e1)) / (4.0 * h**2)
        out[:, 0, 1] = cross
        out[:, 1, 0] = cross
        return out

    def describe(self):
        return f"fd({self.part.describe()})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_power(p):
    """|z|^p / p for p > 1."""
    return PowerIntegrand(p)


def make_anisotropic_quadratic(A):
    """(A z, z) / 2 for symmetric positive definite A."""
    return AnisotropicQuadratic(A)


def make_blend(p, q, w, eps=None):
    """The two-point blend with degenerate origin and singular bump center w.

    ``eps=None`` picks half the sampled admissibility threshold.
    """
    return BlendIntegrand(p, q, w, eps)


def make_uhlenbeck(profile):
    """G(|z|) after validating the radial ellipticity ratio t G''(t) / G'(t).

    The ratio must stay within [1e-3, 1e3] on 257 log-spaced radii from
    1e-4 to 1e4; a violation is reported with the offending radius.
    """
    t = np.geomspace(1e-4, 1e4, 257)
    gp = np.asarray(profile.deriv(t), dtype=float)
    gpp = np.asarray(profile.second(t), dtype=float)
    if np.any(gp <= 0.0):
        bad = float(t[np.argmax(gp <= 0.0)])
        raise IntegrandError(f"profile derivative must be positive; G'({bad:g}) <= 0")
    g0 = float(profile(np.array([0.0]))[0])
    if abs(g0) > 1e-12:
        raise IntegrandError(f"profile must satisfy G(0) = 0, got {g0:g}")
    ratio = t * gpp / gp
    bad = (ratio < 1e-3) | (ratio > 1e3) | ~np.isfinite(ratio)
    if bad.any():
        t_bad = float(t[np.argmax(bad)])
        raise IntegrandError(
            f"radial ellipticity ratio t G''/G' = {float(ratio[np.argmax(bad)]):g} at "
            f"t = {t_bad:g} is outside [0.001, 1000]")
    # the sampled ratio extremes bound the ellipticity ratio of G(|z|)
    lo = min(float(ratio.min()), 1.0)
    hi = max(float(ratio.max()), 1.0)
    return UhlenbeckIntegrand(profile, analytic_H=max(hi, 1.0 / lo))


def make_finsler(gauge_matrix, profile):
    """G(h(z)) for the elliptic gauge h(z) = sqrt((A z, z))."""
    make_uhlenbeck(profile)  # validates the profile
    return FinslerIntegrand(gauge_matrix, profile)


def combine(kind, parts, *, scale=None, shift=None, w=None, c=0.0):
    """Cone algebra: 'sum', 'scaled', 'shifted' or 'affine_add' of integrands."""
    if kind == "sum":
        return SumIntegrand(parts)
    if len(parts) != 1:
        raise IntegrandError(f"combine('{kind}') takes exactly one part")
    part = parts[0]
    if kind == "scaled":
        return ScaledIntegrand(part, scale)
    if kind == "shifted":
        return ShiftedIntegrand(part, shift)
    if kind == "affine_add":
        return AffineAddIntegrand(part, w, c)
    raise IntegrandError(f"unknown combinator {kind!r}")


def with_fd_derivatives(F):
    """Switch an integrand to the finite-difference derivative mode."""
    return FiniteDifferenceIntegrand(F)


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def _solve2x2(H, rhs):
    """Batched solve of 2x2 systems H x = rhs with a Levenberg safeguard."""
    a, b = H[:, 0, 0], H[:, 0, 1]
    c, d = H[:, 1, 0], H[:, 1, 1]
    det = a * d - b * c
    bad = ~(det > 0.0) | ~np.isfinite(det)
    if bad.any():
        mu = 1e-10 * (1.0 + np.abs(a) + np.abs(d))
        a = np.where(bad, a + mu, a)
        d = np.where(bad, d + mu, d)
        det = a * d - b * c
    x = np.empty_like(rhs)
    x[:, 0] = (d * rhs[:, 0] - b * rhs[:, 1]) / det
    x[:, 1] = (-c * rhs[:, 0] + a * rhs[:, 1]) / det
    return x


def newton_minimise(F, W0, tol, *, c=0.0, Z=None, Y=None, max_iter):
    """Batched damped Newton for w -> F(w) + (c/2)|w - Z|^2 - (Y, w).

    Each row of W0 (m, 2) starts its own 2-D minimisation; a row stops once
    its gradient norm is at most ``tol`` (scalar or (m,)).  Directions that
    are not finite or not descent fall back to steepest descent, and steps
    pass the Armijo test on the objective within 60 halvings (a row whose
    search fails takes its last trial step).  Returns the iterates and their
    final gradient norms; judging those is left to the caller.
    """
    W = W0.copy()

    def objective(w, z, y):
        out = F._eval(w)
        if c:
            d = w - z
            out = out + 0.5 * c * (d[:, 0] ** 2 + d[:, 1] ** 2)
        if y is not None:
            out = out - (w * y).sum(axis=1)
        return out

    def gradient(w):
        g = F._grad(w)
        if c:
            g = g + c * (w - Z)
        if Y is not None:
            g = g - Y
        return g

    obj = objective(W, Z, Y)
    for _ in range(max_iter):
        G = gradient(W)
        gn = np.hypot(G[:, 0], G[:, 1])
        active = np.where(gn > tol)[0]
        if active.size == 0:
            return W, gn
        Ga = G[active]
        Wa = W[active]
        H = F._hess(Wa)
        if c:
            H[:, 0, 0] += c
            H[:, 1, 1] += c
        step = -_solve2x2(H, Ga)
        slope = (Ga * step).sum(axis=1)
        bad = ~np.isfinite(step).all(axis=1) | (slope >= 0.0)
        if bad.any():
            step[bad] = -Ga[bad]
            slope[bad] = -(gn[active][bad] ** 2)
        Za = None if Z is None else Z[active]
        Ya = None if Y is None else Y[active]
        obj_a = obj[active]
        # the rounding floor keeps the Armijo test meaningful once the
        # attainable decrease falls below float resolution of the objective
        floor = 1e-14 * np.abs(obj_a) + 1e-300
        alpha = np.ones(active.size)
        for _ in range(60):
            trial = Wa + alpha[:, None] * step
            obj_t = objective(trial, Za, Ya)
            ok = np.isfinite(obj_t) & (obj_t <= obj_a + 1e-4 * alpha * slope + floor)
            if ok.all():
                break
            alpha = np.where(ok, alpha, 0.5 * alpha)
        W[active] = trial
        obj[active] = obj_t
    G = gradient(W)
    return W, np.hypot(G[:, 0], G[:, 1])


def _prox_solve(part, delta, Z, W0, *, max_iter=80):
    """Newton (``newton_minimise``) for the proximal problem
    w -> F(w) + |w - z|^2 / (2 delta), started at W0.  The inner Hessian is
    bounded below by Id/delta, so convergence is quadratic from any start."""
    Z = np.ascontiguousarray(Z, dtype=float)
    tol = PROX_GRAD_TOL * (1.0 + np.hypot(Z[:, 0], Z[:, 1]))
    W, gn = newton_minimise(part, W0, tol, c=1.0 / delta, Z=Z, max_iter=max_iter)
    if not np.all(gn <= 100.0 * tol):
        raise ProxError(
            f"proximal Newton stalled at |grad| = {float(gn.max()):g} "
            f"(tolerance {float(tol.max()):g})")
    return W


def find_minimum(F, *, max_iter=200):
    """Argmin of a strictly convex coercive integrand.

    Damped Newton on DF = 0 with Armijo backtracking on F (``newton_minimise``),
    started at the origin.  Tolerance |DF| <= 1e-12 (1 + |F(0)|); a final
    |DF| above 100 times that raises ``NormalisationError``.
    """
    tol = 1e-12 * (1.0 + abs(F.eval(np.zeros(2))))
    x, gn = newton_minimise(F, np.zeros((1, 2)), tol, max_iter=max_iter)
    if gn[0] <= 100.0 * tol:
        return x[0]
    raise NormalisationError(
        f"argmin search did not reach |DF| <= {tol:g}; final |DF| = {gn[0]:g}")


def gradient_infimum_on_circle(F, *, n_angles=720):
    """i_F = inf over the unit circle of |DF|.

    An equi-angular sweep brackets the minimum (|DF| along the circle is
    Hoelder continuous).  Batched sweeps of 17 equally spaced angles then
    recentre the bracket on their best angle and shrink it 8-fold, until
    its half-width is below the float resolution of the angle.  i_F is the
    least |DF| sampled, or nan once a sampled DF is not finite.
    """
    def least(theta):
        g = F._grad(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        mag, k, _ = _Samples.worst(np.hypot(g[:, 0], g[:, 1]), False, data=(g,))
        return float(mag), theta[k]

    best, th = least(np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False))
    half = 2.0 * np.pi / n_angles
    offsets = np.linspace(-1.0, 1.0, 17)
    while half > np.spacing(abs(th) + 1.0):
        mag, th = least(th + half * offsets)
        best = float(np.minimum(best, mag))  # a nan sample wins, as in ``least``
        half /= 8.0
    return best


def normalise(F):
    """Shift the minimum to the origin and rescale so that i_F = 1.

    Returns (F(z + zbar) - F(zbar)) / i_F where zbar is the argmin and i_F
    the infimum of the shifted gradient magnitude over the unit circle.  The
    result carries ``normalisation = {"zbar": ..., "i_F": ...}``.
    """
    zbar = find_minimum(F)
    moved = np.any(zbar != 0.0) or abs(F.eval(np.zeros(2))) > 0.0
    shifted = ShiftedIntegrand(F, zbar) if moved else F
    i_f = gradient_infimum_on_circle(shifted)
    if not np.isfinite(i_f) or i_f <= 0.0:
        raise NormalisationError(f"gradient infimum on the unit circle is {i_f}")
    out = ScaledIntegrand(shifted, 1.0 / i_f)
    out.normalisation = {"zbar": zbar, "i_F": i_f}
    return out


# ---------------------------------------------------------------------------
# isotropic envelope
# ---------------------------------------------------------------------------

class IsotropicEnvelope:
    """Tables of a(t) = sup_{|z| <= t} |DF(z)| and its antiderivative A.

    a is strictly increasing for these integrands; A is the convex Young
    function giving the two-sided isotropic control of F.  Between table
    nodes a is interpolated as a power law (exact for power integrands), and
    A accumulates the per-segment power-law integrals.
    """

    def __init__(self, radii, a_table):
        radii = np.asarray(radii, dtype=float)
        a_table = np.asarray(a_table, dtype=float)
        if np.any(np.diff(a_table) <= 0.0):
            raise IntegrandError("envelope table a(t) is not strictly increasing")
        self.radii = radii
        self.a_table = a_table
        self._log_t = np.log(radii)
        self._log_a = np.log(a_table)
        slopes = np.diff(self._log_a) / np.diff(self._log_t)
        self._slopes = slopes
        # segment integrals of the power-law interpolant; the leading segment
        # [0, t_0] extrapolates the first exponent
        seg = a_table[:-1] * radii[:-1] / (slopes + 1.0) * (
            (radii[1:] / radii[:-1]) ** (slopes + 1.0) - 1.0)
        head = a_table[0] * radii[0] / (slopes[0] + 1.0)
        self.A_table = head + np.concatenate([[0.0], np.cumsum(seg)])

    def a(self, t):
        t = np.asarray(t, dtype=float)
        lt = np.log(np.clip(t, self.radii[0], self.radii[-1]))
        return np.exp(np.interp(lt, self._log_t, self._log_a))

    def A(self, t):
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, self.radii[0], self.radii[-1])
        idx = np.clip(np.searchsorted(self.radii, tc, side="right") - 1, 0,
                      len(self._slopes) - 1)
        s = self._slopes[idx]
        part = self.a_table[idx] * self.radii[idx] / (s + 1.0) * (
            (tc / self.radii[idx]) ** (s + 1.0) - 1.0)
        return self.A_table[idx] + part

    def a_inv(self, s):
        s = np.asarray(s, dtype=float)
        ls = np.log(np.clip(s, self.a_table[0], self.a_table[-1]))
        return np.exp(np.interp(ls, self._log_a, self._log_t))

    def A_inv(self, v):
        v = np.asarray(v, dtype=float)
        lv = np.log(np.clip(v, self.A_table[0], self.A_table[-1]))
        return np.exp(np.interp(lv, np.log(self.A_table), self._log_t))

    def check_envelope(self, F, rng):
        """Empirical C with (1/C) A(|z|) <= F(z) <= C A(|z|) on 2000 random points."""
        t = np.exp(rng.uniform(np.log(self.radii[0] * 2), np.log(self.radii[-1] / 2), 2000))
        th = rng.uniform(0.0, 2.0 * np.pi, 2000)
        z = t[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        fv = F._eval(z)
        av = self.A(t)
        with _Samples():
            c_hi = float(_Samples.worst(fv / av, True, data=(fv,))[0])
            c_lo = float(_Samples.worst(av / fv, True, data=(fv,))[0])
        C = float(_Samples.worst([c_hi, c_lo], True)[0])
        return {"C": C, "C_upper": c_hi, "C_lower": c_lo}

    def check_doubling(self, H):
        """Empirical C in a(2t) <= C eta_H(2) a(t) over the table."""
        eta2 = max(2.0**H, 2.0 ** (1.0 / H))
        mask = 2.0 * self.radii <= self.radii[-1]
        t = self.radii[mask]
        return float(np.max(self.a(2.0 * t) / (eta2 * self.a(t))))


def isotropic_envelope(F, *, n_radii=257, n_angles=256):
    """Build the isotropic envelope tables of a normalised integrand on
    ``n_radii`` log-spaced radii from 1e-4 to 1e4."""
    radii = np.geomspace(1e-4, 1e4, n_radii)
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
    g = F._grad(pts).reshape(n_radii, n_angles, 2)
    per_radius, _, _ = _Samples.worst(np.hypot(g[:, :, 0], g[:, :, 1]), True, data=(g,))
    a_table = np.maximum.accumulate(per_radius)
    return IsotropicEnvelope(radii, a_table)


# ---------------------------------------------------------------------------
# validation sampling
# ---------------------------------------------------------------------------

def check_midpoint_convexity(F, rng, n=10**4, radius=100.0):
    """Worst midpoint-convexity margin over random pairs; >= -tol for convex F."""
    z = rng.uniform(-radius, radius, (n, 2))
    w = rng.uniform(-radius, radius, (n, 2))
    fz, fw, fm = F._eval(z), F._eval(w), F._eval(0.5 * (z + w))
    with _Samples():
        margin = (0.5 * (fz + fw) - fm) / np.maximum(1.0, np.abs(fz) + np.abs(fw))
    return float(_Samples.worst(margin, False, data=(fz, fw, fm))[0])


def check_gradient_finite_differences(F, rng, n=10**3):
    """Max relative mismatch between DF and central differences of F at n
    random points of the square [-10, 10]^2."""
    z = rng.uniform(-10.0, 10.0, (n, 2))
    g = F._grad(z)
    with _Samples():  # the differences of sampled values are sample arithmetic too
        fd = FiniteDifferenceIntegrand(F)._grad(z)
        mismatch = np.hypot(*(g - fd).T) / (1.0 + np.hypot(*g.T))
    return float(_Samples.worst(mismatch, True, data=(g, fd))[0])


def check_hessian_symmetry(F, rng, n=10**3):
    """Max entrywise asymmetry |H - H^T| at n random points of the square
    [-10, 10]^2, less those within 1e-8 of a singular point."""
    z = rng.uniform(-10.0, 10.0, (n, 2))
    for s in F.singular_points:
        close = np.hypot(z[:, 0] - s[0], z[:, 1] - s[1]) < 1e-8
        z = z[~close]
    H = F._hess(z)
    with _Samples():
        asym = np.abs(H - np.transpose(H, (0, 2, 1))).max(axis=(1, 2))
    return float(_Samples.worst(asym, True, data=(H,))[0])
