"""Fixtures shared by several test modules."""

import pytest

from specpair.potential import PotentialSpec
from specpair.weber import matched_ground_state


@pytest.fixture(scope="session")
def weber_bundle():
    """(base, lam1, u1, W) for x^2 + 0.05 alpha at h = 1 on [-8, 8].

    lam1 is the ground level shot at tight tolerance, u1 its normalized
    eigenfunction and W the Weber solution matched to it.
    """
    base = PotentialSpec(t=0.05, eps=0.0)
    return (base, *matched_ground_state(base))
