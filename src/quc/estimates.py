"""Quantitative estimate checks on solved Dirichlet instances.

Each check measures both sides of one inequality satisfied by the stress
field V = DF(Du) of a minimiser: the level-set Caccioppoli inequality with
constant (pi H / (R - rho))^2, its L1 corollary, the stress Sobolev bounds,
and the sup/mean energy comparison behind the Lipschitz estimate.  Super
level sets are resolved by triangle barycenter, matching the piecewise
constant gradient representation.  The geometric De Giorgi recursion that
drives the sup bound is iterated directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qc_analysis import EtaProfile, estimate_H
from .solver import stress_field


REPORT_FIELDS = [
    "name", "lhs", "rhs", "ratio", "constant", "grid_n", "integrand",
    "k", "ell_c", "ell_b1", "ell_b2", "rho", "R", "center_x", "center_y",
    "H_est", "straddling", "tris_smallest_ball", "verdict", "threshold",
]

_FLOAT_FIELDS = {"lhs", "rhs", "ratio", "constant", "k", "ell_c", "ell_b1",
                 "ell_b2", "rho", "R", "center_x", "center_y", "H_est",
                 "threshold"}
_INT_FIELDS = {"grid_n", "straddling", "tris_smallest_ball"}


@dataclass
class VerificationReport:
    """One measured estimate: both sides, their ratio and the parameters used."""

    name: str
    lhs: float
    rhs: float
    constant: float = float("nan")
    grid_n: int | None = None
    integrand: str = ""
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs

    def to_row(self):
        row = {k: None for k in REPORT_FIELDS}
        row.update({"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                    "ratio": self.ratio, "constant": self.constant,
                    "grid_n": self.grid_n, "integrand": self.integrand})
        for k, v in {**self.params, **self.extra}.items():
            if k in REPORT_FIELDS:
                row[k] = v
        return row

    @classmethod
    def from_row(cls, row):
        def conv(k, v):
            if v in ("", None):
                return None
            if k in _FLOAT_FIELDS:
                return float(v)
            if k in _INT_FIELDS:
                return int(v)
            return v

        data = {k: conv(k, row.get(k)) for k in REPORT_FIELDS}
        params = {k: data[k] for k in ("k", "ell_c", "ell_b1", "ell_b2", "rho",
                                       "R", "center_x", "center_y")
                  if data[k] is not None}
        extra = {k: data[k] for k in ("H_est", "straddling", "tris_smallest_ball",
                                      "verdict", "threshold")
                 if data[k] is not None}
        return cls(name=data["name"], lhs=data["lhs"], rhs=data["rhs"],
                   constant=data["constant"] if data["constant"] is not None else float("nan"),
                   grid_n=data["grid_n"], integrand=data["integrand"] or "",
                   params=params, extra=extra)


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _ball_tris(mesh, center, radius):
    """Triangles with barycenter in the ball; a ball with none raises."""
    d = np.hypot(mesh.bary[:, 0] - center[0], mesh.bary[:, 1] - center[1])
    inside = d <= radius
    if not inside.any():
        raise ValueError(
            f"ball B_{radius:g}({center[0]:g},{center[1]:g}) holds no triangle "
            f"barycenter on the grid n={mesh.n}")
    return inside


def _require_ball_inside(mesh, center, radius):
    (x0, x1), (y0, y1) = mesh.bounds
    if not (center[0] - radius >= x0 - 1e-12 and center[0] + radius <= x1 + 1e-12
            and center[1] - radius >= y0 - 1e-12 and center[1] + radius <= y1 + 1e-12):
        raise ValueError(
            f"ball B_{radius:g}({center[0]:g},{center[1]:g}) leaves the domain "
            f"{mesh.bounds}")


def _ball_mean(mesh, mask, values):
    area = mesh.areas[mask].sum()
    return float((mesh.areas[mask] * values[mask]).sum() / area)


def _above_level(solution, ell_c, ell_b):
    """Triangles where F(Du) >= ell(Du) = ell_c + (ell_b, Du)."""
    F = solution.problem.integrand
    fvals = F._eval(np.ascontiguousarray(solution.du))
    return fvals >= ell_c + solution.du @ np.asarray(ell_b, dtype=float)


def _straddling_count(mesh, member, region):
    """Triangles in the region whose membership differs from an edge
    neighbour's; measures how much of the level boundary the ball crosses.

    A lower triangle's edge neighbours are the upper triangles of its own
    cell, of the cell below and of the cell to the right; an upper
    triangle's are the lower triangles of its own cell, of the cell above
    and of the cell to the left.  Membership sits on the grid of cells,
    padded by one cell on each side, with -1 where no triangle is."""
    n = mesh.n
    grid = np.full((2, n + 1, n + 1), -1, dtype=np.int8)
    grid[:, 1:n, 1:n] = mesh.on_cells(member.astype(np.int8), fill=-1)
    differs = np.zeros((2, n - 1, n - 1), dtype=bool)
    for o, sign in ((0, 1), (1, -1)):
        own = grid[o, 1:n, 1:n]
        for dj, di in ((0, 0), (-sign, 0), (0, sign)):
            nb = grid[1 - o, 1 + dj:n + dj, 1 + di:n + di]
            differs[o] |= (nb >= 0) & (nb != own)
    return int(np.count_nonzero(mesh.on_cells(region, fill=False) & differs))


def _h_est(solution, H):
    if H is not None:
        return float(H)
    return estimate_H(solution.problem.integrand,
                      rng=np.random.default_rng(7)).H_est


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def caccioppoli_check(solution, ell, rho, R, center, H=None):
    """Level-set Caccioppoli inequality with constant (pi H / (R - rho))^2.

    ``ell`` is the affine function on gradient space, given as (c, b) with
    ell(z) = c + (b, z); the super-level region is {F(Du) >= ell(Du)}.
    LHS integrates |DV|_2^2 over the region in B_rho, RHS integrates
    |V - b|^2 over the region in B_R times the constant.  A region that
    holds no triangle barycenter in B_R raises ValueError.
    """
    if not rho < R:
        raise ValueError(f"need rho < R, got rho={rho}, R={R}")
    mesh = solution.mesh
    _require_ball_inside(mesh, center, R)
    ell_c, ell_b = float(ell[0]), np.asarray(ell[1], dtype=float).reshape(2)
    st = stress_field(solution)

    member = _above_level(solution, ell_c, ell_b)
    ball_rho = _ball_tris(mesh, center, rho)
    region = _ball_tris(mesh, center, R)
    inner, outer = ball_rho & member, region & member
    if not outer.any():
        if inner.any():
            raise RuntimeError("super-level nesting violated: A(ell, rho) nonempty "
                               "with A(ell, R) empty (indexing bug)")
        # both sides would be 0 and the ratio a vacuous 0
        raise ValueError(
            f"super-level set {{F(Du) >= {ell_c:g} + ({ell_b[0]:g}, {ell_b[1]:g}).Du}} "
            f"holds no triangle barycenter in B_{R:g}({center[0]:g},{center[1]:g}) "
            f"on the grid n={mesh.n}")
    dv2 = (st.dv_tri**2).sum(axis=(1, 2))
    lhs = float((mesh.areas[inner] * dv2[inner]).sum())
    Hval = _h_est(solution, H)
    const = (np.pi * Hval / (R - rho)) ** 2
    vshift = st.v - ell_b
    v2 = (vshift**2).sum(axis=1)
    rhs = const * float((mesh.areas[outer] * v2[outer]).sum())

    return VerificationReport(
        name="caccioppoli", lhs=lhs, rhs=rhs, constant=const,
        grid_n=solution.problem.n,
        integrand=solution.problem.integrand.describe(),
        params={"ell_c": ell_c, "ell_b1": float(ell_b[0]), "ell_b2": float(ell_b[1]),
                "rho": float(rho), "R": float(R),
                "center_x": float(center[0]), "center_y": float(center[1])},
        extra={"H_est": Hval,
               "straddling": _straddling_count(mesh, member, region),
               "tris_smallest_ball": int(ball_rho.sum())},
    )


def caccioppoli_l1_check(solution, R, center, H=None):
    """L1 corollary: int_{B_R} |DV|^2 against R^{-(N+2)} (int_{B_2R} |V|)^2.

    The constant C(H, N) is not explicit, so the ratio itself is the
    empirical constant; stability across refinements is what gets asserted.
    """
    mesh = solution.mesh
    _require_ball_inside(mesh, center, 2.0 * R)
    st = stress_field(solution)
    inner = _ball_tris(mesh, center, R)
    outer = _ball_tris(mesh, center, 2.0 * R)
    dv2 = (st.dv_tri**2).sum(axis=(1, 2))
    lhs = float((mesh.areas[inner] * dv2[inner]).sum())
    v1 = np.hypot(st.v[:, 0], st.v[:, 1])
    const = R ** (-4.0)  # N + 2 = 4 in the plane
    rhs = const * float((mesh.areas[outer] * v1[outer]).sum()) ** 2
    return VerificationReport(
        name="caccioppoli_l1", lhs=lhs, rhs=rhs, constant=const,
        grid_n=solution.problem.n,
        integrand=solution.problem.integrand.describe(),
        params={"R": float(R), "center_x": float(center[0]),
                "center_y": float(center[1])},
        extra={"H_est": _h_est(solution, H),
               "tris_smallest_ball": int(inner.sum())},
    )


def sobolev_stress_check(solution, R, center, H=None):
    """Stress Sobolev bounds: mean-square DV and V on B_R against the
    distortion profile of the mean energy on B_2R.

    Requires a normalised integrand (the gradient-infimum scale equals 1).
    Returns two reports, one for the DV bound and one for the V bound; the
    measured ratios are the empirical constants.
    """
    mesh = solution.mesh
    _require_ball_inside(mesh, center, 2.0 * R)
    st = stress_field(solution)
    F = solution.problem.integrand
    Hval = _h_est(solution, H)
    prof = EtaProfile(Hval / (Hval + 1.0), 1.0 / (Hval + 1.0))
    inner = _ball_tris(mesh, center, R)
    outer = _ball_tris(mesh, center, 2.0 * R)
    mean_energy = _ball_mean(mesh, outer, F._eval(np.ascontiguousarray(solution.du)))
    core = prof(mean_energy)

    dv2 = (st.dv_tri**2).sum(axis=(1, 2))
    lhs_dv = np.sqrt(_ball_mean(mesh, inner, dv2))
    rhs_dv = core / R
    v2 = (st.v**2).sum(axis=1)
    lhs_v = np.sqrt(_ball_mean(mesh, inner, v2))
    rhs_v = core

    common = dict(grid_n=solution.problem.n, integrand=F.describe(),
                  params={"R": float(R), "center_x": float(center[0]),
                          "center_y": float(center[1])},
                  extra={"H_est": Hval, "tris_smallest_ball": int(inner.sum())})
    return [
        VerificationReport(name="sobolev_dv", lhs=float(lhs_dv), rhs=float(rhs_dv),
                           constant=1.0 / R, **common),
        VerificationReport(name="sobolev_v", lhs=float(lhs_v), rhs=float(rhs_v),
                           constant=1.0, **common),
    ]


def lipschitz_check(solution, R, center):
    """Sup of F(Du) on B_{R/2} against its mean on B_2R.

    The continuous estimate bounds the ratio by an unknown C(H, N);
    refinement stability of the measured ratio is the desk-scale proxy.
    """
    mesh = solution.mesh
    _require_ball_inside(mesh, center, 2.0 * R)
    F = solution.problem.integrand
    fvals = F._eval(np.ascontiguousarray(solution.du))
    inner = _ball_tris(mesh, center, 0.5 * R)
    outer = _ball_tris(mesh, center, 2.0 * R)
    lhs = float(fvals[inner].max())
    rhs = _ball_mean(mesh, outer, fvals)
    if rhs == 0.0 and lhs > 0.0:
        raise RuntimeError("zero mean energy with nonzero sup (inconsistent fields)")
    return VerificationReport(
        name="lipschitz", lhs=lhs, rhs=rhs, constant=float("nan"),
        grid_n=solution.problem.n, integrand=F.describe(),
        params={"R": float(R), "center_x": float(center[0]),
                "center_y": float(center[1])},
        extra={"tris_smallest_ball": int(inner.sum())},
    )


# ---------------------------------------------------------------------------
# De Giorgi iteration
# ---------------------------------------------------------------------------

@dataclass
class DeGiorgiResult:
    X0: float
    threshold: float
    verdict: str
    sequence: np.ndarray
    steps: int

    def to_report(self):
        return VerificationReport(
            name="degiorgi", lhs=self.X0, rhs=self.threshold,
            constant=self.threshold, integrand="",
            extra={"verdict": self.verdict, "threshold": self.threshold},
        )


def degiorgi_threshold(C, b, R, N_dim):
    """Smallness threshold R^N / (C^{N/2} b^{N^2/4}) of the geometric recursion."""
    return R**N_dim / (C ** (N_dim / 2.0) * b ** (N_dim**2 / 4.0))


def degiorgi_iterate(X0, C, b, R, N_dim, max_steps=10**4):
    """Iterate X_{n+1} = (C / R^2) b^n X_n^{1 + 2/N} and classify the orbit.

    Below the threshold the sequence collapses geometrically; the verdict is
    "vanishes" once it falls under 1e-300 within the step budget, otherwise
    "diverges/stalls" (overflow counts as divergence).  The loop is plain
    float arithmetic, hence bitwise reproducible.
    """
    if X0 < 0.0 or C <= 0.0 or b <= 0.0 or R <= 0.0 or N_dim < 2:
        raise ValueError("need X0 >= 0, C, b, R > 0 and N >= 2")
    thr = degiorgi_threshold(C, b, R, N_dim)
    seq = [float(X0)]
    x = float(X0)
    verdict = "diverges/stalls"
    expo = 1.0 + 2.0 / N_dim
    coef = C / R**2
    for n in range(max_steps):
        if x <= 1e-300:
            verdict = "vanishes"
            break
        if x > 1e300 or not np.isfinite(x):
            verdict = "diverges/stalls"
            break
        try:
            x = coef * b**n * x**expo
        except OverflowError:
            x = float("inf")
        seq.append(x)
    else:
        verdict = "vanishes" if x <= 1e-300 else "diverges/stalls"
    if x <= 1e-300:
        verdict = "vanishes"
    return DeGiorgiResult(X0=float(X0), threshold=thr, verdict=verdict,
                          sequence=np.array(seq), steps=len(seq) - 1)
