"""Quantitative estimate checks on solved Dirichlet instances.

Each check measures both sides of one inequality satisfied by the stress
field V = DF(Du) of a minimiser: the level-set Caccioppoli inequality with
constant (pi H / (R - rho))^2, its L1 corollary, the stress Sobolev bounds,
and the sup/mean energy comparison behind the Lipschitz estimate.  Super
level sets are resolved by triangle barycenter, matching the piecewise
constant gradient representation.  The geometric De Giorgi recursion that
drives the sup bound is iterated directly.  No check estimates the
ellipticity ratio H of F: it is an input, the run's one estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qc_analysis import EtaProfile
from .solver import stress_field


REPORT_FIELDS = [
    "name", "lhs", "rhs", "ratio", "constant", "grid_n", "integrand",
    "ell_c", "ell_b1", "ell_b2", "rho", "R", "center_x", "center_y",
    "H_est", "straddling", "tris_smallest_ball", "verdict", "threshold",
]

# name: (radius of the largest ball the check reads, in units of its R, or
# None for a check that reads no solution; required config keys; optional
# config keys).  The config checks each ball against the domain, the
# rectangle and the mask's disk, before the solve, and ``run_check`` runs a
# check on a solution.
CHECKS = {
    "caccioppoli": (1.0, ("rho", "R", "center"), ("k", "ell", "assert_max_ratio", "out")),
    "caccioppoli_l1": (2.0, ("R", "center"), ("out",)),
    "sobolev": (2.0, ("R", "center"), ("out",)),
    "lipschitz": (2.0, ("R", "center"), ("assert_max_ratio", "out")),
    "degiorgi": (None, ("X0", "C", "b", "R", "N"), ("expect", "out")),
}


@dataclass
class VerificationReport:
    """One measured estimate: both sides, their ratio, and in ``fields`` the
    other REPORT_FIELDS cells it fills."""

    name: str
    lhs: float
    rhs: float
    constant: float = float("nan")
    grid_n: int | None = None
    integrand: str = ""
    fields: dict = field(default_factory=dict)

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs

    def to_row(self):
        row = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
               "constant": self.constant, "grid_n": self.grid_n,
               "integrand": self.integrand, **self.fields}
        return {k: row.get(k) for k in REPORT_FIELDS}


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _ball_tris(mesh, center, radius):
    """Triangles with barycenter in the ball, (M,) bool; a ball with none
    raises.  The distances are taken per orientation on the grid of cells,
    from the barycenter axes of ``Mesh.bary_axes``."""
    inside = np.empty(mesh.n_tris, dtype=bool)
    for o, (blk, bx, by) in enumerate(zip(mesh.blocks, *mesh.bary_axes())):
        d = np.hypot(bx[None, :] - center[0], by[:, None] - center[1])
        inside[blk] = (d <= radius)[mesh.kept[o]]
    if not inside.any():
        raise ValueError(
            f"ball B_{radius:g}({center[0]:g},{center[1]:g}) holds no triangle "
            f"barycenter on the grid n={mesh.n}")
    return inside


def _require_ball_inside(bounds, mask, center, radius):
    """Raise ValueError unless the ball lies in the rectangle ``bounds`` and
    in the disk ``mask`` = (center, radius), when there is one."""
    (x0, x1), (y0, y1) = bounds
    if not (center[0] - radius >= x0 - 1e-12 and center[0] + radius <= x1 + 1e-12
            and center[1] - radius >= y0 - 1e-12 and center[1] + radius <= y1 + 1e-12):
        raise ValueError(
            f"ball B_{radius:g}({center[0]:g},{center[1]:g}) leaves the domain {bounds}")
    if mask is not None:
        (cx, cy), r = mask
        if not np.hypot(center[0] - cx, center[1] - cy) + radius <= r + 1e-12:
            raise ValueError(f"ball B_{radius:g}({center[0]:g},{center[1]:g}) leaves the "
                             f"mask disk B_{r:g}({cx:g},{cy:g})")


def _balls(solution, check, center, R, *radii):
    """The triangles of each ball B_r(center), r in ``radii``, once the
    largest ball ``check`` reads, of radius ``CHECKS[check][0] * R``, is
    found to lie in the solution's domain."""
    mesh = solution.mesh
    _require_ball_inside(mesh.bounds, solution.problem.mask, center, CHECKS[check][0] * R)
    return [_ball_tris(mesh, center, r) for r in radii]


def _report(name, lhs, rhs, constant, solution, R, center, smallest_ball, **fields):
    """The report ``name`` of a check on ``solution`` at ``center`` and scale
    R, which also fills the triangle count of its smallest ball (the mask
    ``smallest_ball``) and the check's own ``fields``."""
    return VerificationReport(
        name=name, lhs=float(lhs), rhs=float(rhs), constant=constant,
        grid_n=solution.problem.n, integrand=solution.problem.integrand.describe(),
        fields={"R": float(R), "center_x": float(center[0]), "center_y": float(center[1]),
                "tris_smallest_ball": int(smallest_ball.sum()), **fields})


def _ball_mean(mesh, mask, values):
    # the area of the ball's triangles as a sum of equal terms, not a product
    area = np.full(np.count_nonzero(mask), mesh.area).sum()
    return float((mesh.area * values[mask]).sum() / area)


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


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def caccioppoli_check(solution, ell, rho, R, center, H):
    """Level-set Caccioppoli inequality with constant (pi H / (R - rho))^2.

    ``ell`` is the affine function on gradient space, given as (c, b) with
    ell(z) = c + (b, z); the super-level region is {F(Du) >= ell(Du)}.
    LHS integrates |DV|_2^2 over the region in B_rho, RHS integrates
    |V - b|^2 over the region in B_R times the constant, with H the
    ellipticity ratio of the solution's integrand.  A region that holds no
    triangle barycenter in B_R raises ValueError.
    """
    if not rho < R:
        raise ValueError(f"need rho < R, got rho={rho}, R={R}")
    mesh = solution.mesh
    ball_rho, region = _balls(solution, "caccioppoli", center, R, rho, R)
    ell_c, ell_b = float(ell[0]), np.asarray(ell[1], dtype=float).reshape(2)
    dv = stress_field(solution)

    member = solution.energy_density >= ell_c + solution.du @ ell_b  # F(Du) >= ell(Du)
    inner, outer = ball_rho & member, region & member
    if not outer.any():  # both sides would be 0 and the ratio a vacuous 0
        raise ValueError(
            f"super-level set {{F(Du) >= {ell_c:g} + ({ell_b[0]:g}, {ell_b[1]:g}).Du}} "
            f"holds no triangle barycenter in B_{R:g}({center[0]:g},{center[1]:g}) "
            f"on the grid n={mesh.n}")
    dv2 = (dv**2).sum(axis=(1, 2))
    lhs = (mesh.area * dv2[inner]).sum()
    const = (np.pi * H / (R - rho)) ** 2
    v2 = ((solution.v - ell_b)**2).sum(axis=1)
    rhs = const * float((mesh.area * v2[outer]).sum())
    return _report("caccioppoli", lhs, rhs, const, solution, R, center, ball_rho,
                   ell_c=ell_c, ell_b1=float(ell_b[0]), ell_b2=float(ell_b[1]),
                   rho=float(rho), H_est=float(H),
                   straddling=_straddling_count(mesh, member, region))


def caccioppoli_l1_check(solution, R, center, H):
    """L1 corollary: int_{B_R} |DV|^2 against R^{-(N+2)} (int_{B_2R} |V|)^2.

    The constant C(H, N) is not explicit, so the ratio itself is the
    empirical constant; stability across refinements is what gets asserted.
    H is only reported.
    """
    mesh = solution.mesh
    inner, outer = _balls(solution, "caccioppoli_l1", center, R, R, 2.0 * R)
    dv = stress_field(solution)
    dv2 = (dv**2).sum(axis=(1, 2))
    lhs = (mesh.area * dv2[inner]).sum()
    v1 = np.hypot(solution.v[:, 0], solution.v[:, 1])
    const = R ** (-4.0)  # N + 2 = 4 in the plane
    rhs = const * float((mesh.area * v1[outer]).sum()) ** 2
    return _report("caccioppoli_l1", lhs, rhs, const, solution, R, center, inner,
                   H_est=float(H))


def sobolev_stress_check(solution, R, center, H):
    """Stress Sobolev bounds: mean-square DV and V on B_R against the
    distortion profile of the mean energy on B_2R.

    Requires a normalised integrand (the gradient-infimum scale equals 1),
    whose ellipticity ratio H sets the profile eta_{H/(H+1), 1/(H+1)}.
    Returns two reports, one for the DV bound and one for the V bound; the
    measured ratios are the empirical constants.
    """
    mesh = solution.mesh
    inner, outer = _balls(solution, "sobolev", center, R, R, 2.0 * R)
    dv = stress_field(solution)
    prof = EtaProfile(H / (H + 1.0), 1.0 / (H + 1.0))
    core = prof(_ball_mean(mesh, outer, solution.energy_density))
    lhs_dv = np.sqrt(_ball_mean(mesh, inner, (dv**2).sum(axis=(1, 2))))
    lhs_v = np.sqrt(_ball_mean(mesh, inner, (solution.v**2).sum(axis=1)))
    return [_report("sobolev_dv", lhs_dv, core / R, 1.0 / R, solution, R, center, inner,
                    H_est=float(H)),
            _report("sobolev_v", lhs_v, core, 1.0, solution, R, center, inner,
                    H_est=float(H))]


def lipschitz_check(solution, R, center):
    """Sup of F(Du) on B_{R/2} against its mean on B_2R.

    The continuous estimate bounds the ratio by an unknown C(H, N);
    refinement stability of the measured ratio is the desk-scale proxy.
    """
    fvals = solution.energy_density
    inner, outer = _balls(solution, "lipschitz", center, R, 0.5 * R, 2.0 * R)
    lhs = float(fvals[inner].max())
    rhs = _ball_mean(solution.mesh, outer, fvals)
    if rhs == 0.0 and lhs > 0.0:
        raise RuntimeError("zero mean energy with nonzero sup (inconsistent fields)")
    return _report("lipschitz", lhs, rhs, float("nan"), solution, R, center, inner)


def run_check(spec, solution, H):
    """The reports of one check, ``spec`` a check as the config converts it,
    on ``solution`` (None for a check whose ball is None), with H the
    ellipticity ratio of its integrand."""
    name, center = spec["name"], spec.get("center")
    if name == "caccioppoli":
        ell = spec["ell"] if "ell" in spec else (spec["k"], np.zeros(2))
        return [caccioppoli_check(solution, ell, spec["rho"], spec["R"], center, H=H)]
    if name == "caccioppoli_l1":
        return [caccioppoli_l1_check(solution, spec["R"], center, H=H)]
    if name == "sobolev":
        return sobolev_stress_check(solution, spec["R"], center, H=H)
    if name == "lipschitz":
        return [lipschitz_check(solution, spec["R"], center)]
    if name == "degiorgi":
        return [degiorgi_iterate(spec["X0"], spec["C"], spec["b"], spec["R"],
                                 spec["N"]).to_report()]
    raise ValueError(f"no check named {name!r}")


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
        return VerificationReport("degiorgi", self.X0, self.threshold, self.threshold,
                                  fields={"verdict": self.verdict, "threshold": self.threshold})


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
    if not (X0 >= 0.0 and C > 0.0 and b > 0.0 and R > 0.0 and N_dim >= 2
            and np.isfinite([X0, C, b, R]).all()):
        raise ValueError("need X0 >= 0, C, b, R > 0 and N >= 2, all finite")
    thr = degiorgi_threshold(C, b, R, N_dim)
    seq = [float(X0)]
    x = float(X0)
    expo = 1.0 + 2.0 / N_dim
    coef = C / R**2
    for n in range(max_steps):
        if not 1e-300 < x <= 1e300:  # vanished, or overflowed or nan
            break
        try:
            x = coef * b**n * x**expo
        except OverflowError:
            x = float("inf")
        seq.append(x)
    verdict = "vanishes" if x <= 1e-300 else "diverges/stalls"
    return DeGiorgiResult(X0=float(X0), threshold=thr, verdict=verdict,
                          sequence=np.array(seq), steps=len(seq) - 1)
