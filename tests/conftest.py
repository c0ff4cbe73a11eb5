"""Fixtures shared by several test modules."""

import pytest

from specpair.potential import PotentialSpec
from specpair.pruefer import shoot_eigenvalue
from specpair.weber import ode_ground_state, solve_weber


@pytest.fixture(scope="session")
def weber_bundle():
    """(base, lam1, u1, W) for x^2 + 0.05 alpha at h = 1 on [-8, 8].

    lam1 is the ground level shot at tight tolerance, u1 its normalized
    eigenfunction and W the Weber solution matched to it.
    """
    base = PotentialSpec(t=0.05, eps=0.0)
    lam1 = shoot_eigenvalue(base, 1.0, 1, 8.0, lam_tol=1e-12, eps_per_length=1e-12)
    u1 = ode_ground_state(base, lam1)
    return base, lam1, u1, solve_weber(lam1, -8.0, 8.0, u1)
