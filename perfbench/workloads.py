"""The benchmark's workloads: the quc configs they run and the checks their
outputs must pass.

Every workload is one ``quc`` subcommand on one generated config.  The
config depends on the seed only through its ``seed`` key; ``n`` can be
lowered for smoke tests, which have their own reference values.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass, field

# The solver stops once the interior residual max-norm is at most
# TOL_REL * (1 + initial residual).  Allowing any initial residual up to 1
# bounds the stopping threshold by TOL_ABS.
TOL_REL = 1e-9
TOL_ABS = 2.0 * TOL_REL
# The CLI prints the energy with 12 significant digits: half a unit in the
# last printed digit on each of the two compared values.
PRINT_REL = 1e-11


@dataclass(frozen=True)
class Reference:
    """Solve result recorded for one grid size.

    ``lam_min`` is the smallest eigenvalue of the interior Hessian at the
    recorded solution (scipy ``eigsh`` in shift-invert mode), rounded down;
    ``n_interior`` the number of interior nodes.
    """

    energy: float
    lam_min: float
    n_interior: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    integrand: dict
    problem: dict
    checks: list = field(default_factory=list)
    smoke_n: int | None = None
    u_oracle: bool = False        # solution.csv must match 3.4 r^{1/2}
    references: dict = field(default_factory=dict)   # grid n -> Reference

    def config(self, seed, n=None):
        problem = dict(self.problem)
        if n is not None:
            problem["n"] = n
        cfg = {"integrand": self.integrand, "problem": problem, "seed": int(seed)}
        if self.checks:
            cfg["checks"] = self.checks
        return cfg

    def grid_n(self, n=None):
        return self.problem["n"] if n is None else n


POWER3 = {"kind": "power", "p": 3.0}
UNIT_SQUARE_12 = [[1, 2], [1, 2]]
P3_RADIUS, P3_CENTER = 0.2, [1.5, 1.5]
DISK_RADIUS, DISK_CENTER = 0.24, [0.5, 0.5]

WORKLOADS = {w.name: w for w in [
    Workload(
        name="verify_p3_n257", command="verify",
        why="closed-form p=3 integrand at n=257: CSV output, row building, "
            "the sparse solve, mesh topology and stress recovery dominate",
        integrand=POWER3,
        problem={"n": 257, "domain": UNIT_SQUARE_12, "boundary": "3.4*(x^2+y^2)^0.25"},
        checks=[
            {"name": "caccioppoli", "k": 0.1, "rho": 0.1, "R": P3_RADIUS, "center": P3_CENTER},
            {"name": "sobolev", "R": P3_RADIUS, "center": P3_CENTER},
            {"name": "lipschitz", "R": P3_RADIUS, "center": P3_CENTER},
        ],
        smoke_n=33, u_oracle=True,
        references={257: Reference(0.5420789268553953, 5.14e-4, 65025),
                    33: Reference(0.5421369290104991, 3.28e-2, 961)},
    ),
    Workload(
        name="verify_blend_disk_n193", command="verify",
        why="degenerate/singular blend on a disk mask at n=193: irregular "
            "Dirichlet set, 5 Newton steps and more line search, smaller CSV share",
        integrand={"kind": "blend", "p": 3.0, "q": 1.5, "w": [0.5, 0.0]},
        problem={"n": 193, "boundary": "0.5*(x - 0.25)^2 - 0.5*(y - 0.5)^2",
                 "mask": {"center": [0.5, 0.5], "radius": 0.49}},
        checks=[
            {"name": "lipschitz", "R": DISK_RADIUS, "center": DISK_CENTER},
            {"name": "caccioppoli_l1", "R": DISK_RADIUS, "center": DISK_CENTER},
        ],
        smoke_n=33,
        references={193: Reference(0.0228264552099559, 3.38e-4, 27175),
                    33: Reference(0.020576598352599708, 1.27e-2, 673)},
    ),
    Workload(
        name="solve_ladder_n17", command="solve",
        why="ladder step 2 (mollified Moreau envelope) at n=17: prox solves and "
            "leaf integrand evaluation, negligible linear algebra and CSV",
        integrand={"kind": "mollified", "eps": 0.25, "mu": 0.25,
                   "part": {"kind": "moreau", "delta": 0.25, "part": POWER3}},
        problem={"n": 17, "domain": UNIT_SQUARE_12, "boundary": "(x^2+y^2)^0.25"},
        smoke_n=9,
        references={17: Reference(0.030772272503087797, 5.48e-2, 225),
                    9: Reference(0.03080438352503828, 0.216, 49)},
    ),
    Workload(
        name="analyze_mollified", command="analyze",
        why="qc_analysis of a mollified power integrand: leaf gradients sampled "
            "over six decades of scale, no solve",
        integrand={"kind": "mollified", "eps": 0.25, "mu": 0.25, "part": POWER3},
        # analyze never solves; the schema still requires a problem
        problem={"n": 17, "boundary": "x"},
    ),
]}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def energy_tolerance(ref):
    """Largest energy difference two solves meeting the stopping rule can show.

    Each stops with |g|_inf <= TOL_ABS on n_interior nodes, so
    |g|_2^2 <= n_interior TOL_ABS^2, and near the minimiser
    E(u) - E* <= |g|_2^2 / (2 lam_min).  The two compared solves each lie
    within that of E*, and each printed value is rounded.
    """
    return (ref.n_interior * TOL_ABS**2 / ref.lam_min
            + PRINT_REL * abs(ref.energy))


def p3_oracle_bound(n):
    """Bound on |u_h(barycenter) - 3.4 r^{1/2}| for the p=3 workload.

    The barycenter value is the mean of three nodal values.  Its Taylor
    error is (1/2) mean|x_i - c|^2 |D^2 u| = (2/9) h^2 |D^2 u|, and the P1
    nodal error of a smooth, nondegenerate solution is O(h^2) as well.  On
    [1,2]^2 the Hessian of 3.4 r^{1/2} has norm at most 1.7 r^{-3/2}
    <= 1.7 * 2^{-3/4}, so the bound is h^2 |D^2 u|_inf with constant 1.
    """
    h = 1.0 / (n - 1)
    return h**2 * 1.7 * 2.0**-0.75


def p3_oracle_error(path):
    """Max deviation of the solution CSV's ``u`` from 3.4 r^{1/2}."""
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return max(abs(float(r["u"]) - 3.4 * math.hypot(float(r["x"]), float(r["y"])) ** 0.5)
                   for r in rows)


def artifact_digest(out_dir):
    """SHA-256 over the names and bytes of every CSV artifact in ``out_dir``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_outputs(workload, n, exit_code, stdout, out_dir, check_solution=True):
    """Problems found in one invocation's outputs; empty when it is correct.

    ``check_solution=False`` skips reading solution.csv, for artifacts
    byte-identical to ones that already passed.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if re.search(r"\bFAIL\b", stdout):
        problems.append("a FAIL verdict")
    if not os.path.isdir(out_dir) or not any(f.endswith(".csv") for f in os.listdir(out_dir)):
        return problems + ["no CSV artifacts"]
    ref = workload.references.get(workload.grid_n(n))
    if ref is None:
        return problems
    m = re.search(r"energy=(\S+) .*converged=(\w+)", stdout)
    if m is None:
        return problems + ["no solve line on stdout"]
    energy, converged = float(m.group(1)), m.group(2)
    if converged != "True":
        problems.append(f"converged={converged}")
    if not abs(energy - ref.energy) <= energy_tolerance(ref):
        problems.append(f"energy {energy!r} differs from {ref.energy!r} by more than "
                        f"{energy_tolerance(ref):.3g}")
    if workload.u_oracle and check_solution:
        err = p3_oracle_error(os.path.join(out_dir, "solution.csv"))
        bound = p3_oracle_bound(workload.grid_n(n))
        if not err <= bound:
            problems.append(f"u deviates from 3.4 r^(1/2) by {err:.3g} > {bound:.3g}")
    return problems
