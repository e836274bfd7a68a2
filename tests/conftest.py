import numpy as np
import pytest

import quc
from quc.config import compile_boundary_expression


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def catalogue():
    """Named catalogue members exercised by the cross-cutting invariants."""
    entries = [
        ("power_1.25", quc.make_power(1.25)),
        ("power_1.5", quc.make_power(1.5)),
        ("power_2", quc.make_power(2.0)),
        ("power_3", quc.make_power(3.0)),
        ("power_4", quc.make_power(4.0)),
        ("aniso_id", quc.make_anisotropic_quadratic(np.eye(2))),
        ("aniso_21", quc.make_anisotropic_quadratic([[2.0, 0.0], [0.0, 1.0]])),
        ("aniso_sharp", quc.make_anisotropic_quadratic([[1.6, 0.0], [0.0, 0.4]])),
        ("uhlenbeck_mix", quc.make_uhlenbeck(
            quc.power_sum_profile([(1.0, 3.0), (1.0, 1.5)]))),
        ("finsler", quc.make_finsler([[1.5, 0.3], [0.3, 0.8]], quc.power_profile(2.5))),
        ("blend", quc.make_blend(3.0, 1.5, (0.5, 0.0))),
        ("sum_power", quc.combine("sum", [quc.make_power(3.0), quc.make_power(1.5)])),
    ]
    return entries


@pytest.fixture(scope="session")
def catalogue_members():
    return catalogue()


def _solve(F, n, expr, bounds=((0.0, 1.0), (0.0, 1.0))):
    prob = quc.GridProblem(integrand=F, n=n,
                           boundary=compile_boundary_expression(expr),
                           bounds=bounds)
    sol = quc.solve(prob)
    assert sol.converged, f"fixture solve did not converge (n={n}, {F.describe()})"
    return sol


@pytest.fixture(scope="session")
def sol_harmonic():
    """F = |z|^2/2 with boundary x^2 - y^2 on the unit square."""
    F = quc.make_power(2.0)
    return {n: _solve(F, n, "x^2 - y^2") for n in (17, 33, 65)}


@pytest.fixture(scope="session")
def sol_p3_oracle():
    """p = 3 with the radial p-harmonic boundary |x|^{1/2} on [1,2]^2."""
    F = quc.make_power(3.0)
    return {n: _solve(F, n, "(x^2 + y^2)^0.25", bounds=((1.0, 2.0), (1.0, 2.0)))
            for n in (17, 33, 65)}


@pytest.fixture(scope="session")
def sol_p3_scaled():
    """p = 3, boundary 3.4|x|^{1/2}: F(Du) crosses both 0.1 and 0.5 levels
    inside the measurement balls around (1.5, 1.5)."""
    F = quc.make_power(3.0)
    return {n: _solve(F, n, "3.4*(x^2 + y^2)^0.25", bounds=((1.0, 2.0), (1.0, 2.0)))
            for n in (33, 65)}


@pytest.fixture(scope="session")
def sol_p15_scaled():
    """p = 3/2, boundary 3.6/|x|: same level-crossing property."""
    F = quc.make_power(1.5)
    return {n: _solve(F, n, "3.6/sqrt(x^2 + y^2)", bounds=((1.0, 2.0), (1.0, 2.0)))
            for n in (65,)}


@pytest.fixture(scope="session")
def sol_blend():
    """Normalised blend; boundary gradient sweeps across both the degenerate
    origin and the singular bump center."""
    F = quc.normalise(quc.make_blend(3.0, 1.5, (0.5, 0.0)))
    return {n: _solve(F, n, "0.5*(x - 0.25)^2 - 0.5*(y - 0.5)^2")
            for n in (33, 65)}


@pytest.fixture(scope="session")
def sol_affine():
    F = quc.make_power(3.0)
    return _solve(F, 17, "0.7*x - 0.3*y + 0.2")


class NanPower(quc.integrand.PowerIntegrand):
    """|z|^3 / 3 whose Hessian, and gradient unless ``grad_too`` is false,
    read nan at every 97th sample of a batch."""

    def __init__(self, grad_too=True):
        super().__init__(3.0)
        self.grad_too = grad_too

    def _grad(self, z):
        g = super()._grad(z).copy()
        if self.grad_too:
            g[::97] = np.nan
        return g

    def _hess(self, z):
        h = super()._hess(z).copy()
        h[::97] = np.nan
        return h


class InfPower(quc.integrand.PowerIntegrand):
    """|z|^3 / 3 whose F, DF_x and D2F_00 read inf at every 97th sample of
    a batch."""

    def __init__(self):
        super().__init__(3.0)

    def _eval(self, z):
        f = super()._eval(z).copy()
        f[::97] = np.inf
        return f

    def _grad(self, z):
        g = super()._grad(z).copy()
        g[::97, 0] = np.inf
        return g

    def _hess(self, z):
        h = super()._hess(z).copy()
        h[::97, 0, 0] = np.inf
        return h
