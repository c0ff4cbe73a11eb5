import math

import numpy as np
import pytest
from scipy.integrate import quad

from specpair import cli, eigensolve, hadamard
from specpair.errors import PreconditionError
from specpair.potential import BumpSpec, PotentialSpec, bump_eval, harmonic
from specpair.eigensolve import Grid
from specpair.hadamard import (
    asymmetry_witness,
    constant_direction_sanity,
    fd_oracle,
    solve_level,
    variation_check,
    variational_derivative,
)

TAIL = BumpSpec(center=3.5, half_width=0.5, amplitude=1.0)
WELL = BumpSpec(center=0.5, half_width=0.5, amplitude=1.0)
GRID = Grid(8.0, 4095)


@pytest.fixture(scope="module")
def ground():
    """Ground level of the bare oscillator at h = 1 on GRID."""
    return solve_level(harmonic(), 1.0, 1, GRID)


def test_zero_amplitude_direction(ground):
    none = BumpSpec(center=3.5, half_width=0.5, amplitude=0.0)
    assert variational_derivative(ground, none) == 0.0
    assert fd_oracle(ground, none) == 0.0


def test_constant_direction_is_one(ground):
    assert constant_direction_sanity(ground) == pytest.approx(1.0, abs=1e-10)


def test_harmonic_ground_state_closed_form(ground):
    # oracle: the Gaussian ground state integrates the bump in closed form
    val = variational_derivative(ground, TAIL)
    exact = quad(lambda x: bump_eval(TAIL, x) * math.exp(-x * x) / math.sqrt(math.pi),
                 3.0, 4.0, epsabs=1e-16)[0]
    assert val == pytest.approx(exact, rel=1e-4)


def test_reflected_direction_on_symmetric_base(ground):
    # the witness's d_minus is the derivative toward beta(-x), the bump
    # mirrored to (-4, -3); on a symmetric base it equals d_plus
    w = asymmetry_witness(ground, TAIL)
    mirror = BumpSpec(center=-3.5, half_width=0.5, amplitude=1.0)
    assert w.d_plus == variational_derivative(ground, TAIL)
    assert w.d_minus == pytest.approx(variational_derivative(ground, mirror), rel=1e-12)
    assert w.d_minus == pytest.approx(w.d_plus, abs=1e-12 * max(1.0, w.d_plus))


@pytest.mark.parametrize("j", [0, -1])
def test_level_index_below_one_is_an_error(j):
    # j = 0 used to solve the ground level and label it j = 0
    with pytest.raises(PreconditionError, match="j must be >= 1"):
        solve_level(harmonic(), 1.0, j, GRID)


def test_formula_matches_oracle_tail_direction(ground):
    r = variation_check(ground, TAIL, eps_fd=1e-5)
    assert r.discrepancy / abs(r.formula_value) <= 1e-4


def test_second_order_shrinkage_well_direction(ground):
    discs = []
    for e in (4e-4, 2e-4, 1e-4):
        r = variation_check(ground, WELL, eps_fd=e)
        assert r.discrepancy / r.formula_value <= 1e-4
        discs.append(r.discrepancy)
    r1 = discs[0] / discs[1]
    r2 = discs[1] / discs[2]
    assert 3.0 <= r1 <= 5.5
    assert 3.0 <= r2 <= 5.5


def test_shrinkage_on_excited_level():
    level = solve_level(harmonic(), 1.0, 3, GRID)
    discs = []
    for e in (4e-4, 2e-4):
        r = variation_check(level, WELL, eps_fd=e)
        discs.append(r.discrepancy)
    assert 2.5 <= discs[0] / discs[1] <= 6.0


def test_fd_ordering_guard(ground):
    with pytest.raises(PreconditionError):
        fd_oracle(ground, WELL, eps_fd=0.9)


def test_witness_symmetric_base_vanishes():
    p0 = PotentialSpec(t=0.0, eps=0.0)
    w = asymmetry_witness(solve_level(p0, 1.0, 1, GRID), TAIL)
    assert abs(w.gap) <= 1e-12
    assert w.d_plus == pytest.approx(w.d_minus, abs=1e-12)


def test_witness_requires_unperturbed_beta():
    with pytest.raises(PreconditionError, match="eps = 0"):
        asymmetry_witness(solve_level(PotentialSpec(t=0.05, eps=0.05), 1.0, 1, GRID), TAIL)


def test_witness_requires_ground_level():
    with pytest.raises(PreconditionError, match="ground level"):
        asymmetry_witness(solve_level(PotentialSpec(t=0.05, eps=0.0), 1.0, 2, GRID), TAIL)


def test_witness_with_alpha_bump_significant():
    base = PotentialSpec(t=0.05, eps=0.0)
    w = asymmetry_witness(solve_level(base, 1.0, 1, GRID), TAIL)
    assert abs(w.gap) > 100.0 * w.error_estimate
    assert w.significant
    assert w.d_plus > 0.0 and w.d_minus > 0.0


def test_witness_sign_agrees_with_matching_constant(weber_bundle):
    # the gap equals (c^2 - 1) * integral of beta * W(-x)^2, so its sign
    # must agree with the sign of c - 1
    base, _, _, ws = weber_bundle
    w = asymmetry_witness(solve_level(base, 1.0, 1, GRID), TAIL)
    assert math.copysign(1.0, w.gap) == math.copysign(1.0, ws.c - 1.0)


def test_second_order_decay_invariant(ground):
    # discrepancy bounded by C * eps^2 plus a floor, seen at three eps values
    discs = [variation_check(ground, WELL, eps_fd=e).discrepancy
             for e in (8e-4, 4e-4, 2e-4)]
    C = discs[0] / (8e-4) ** 2
    for e, d in zip((8e-4, 4e-4, 2e-4), discs):
        assert d <= 1.5 * C * e * e + 1e-12


def test_hadamard_check_solves_each_row_once(monkeypatch, tmp_path):
    calls = {"dgttrf": 0, "solve_level": 0}
    dgttrf = eigensolve.dgttrf
    solve = hadamard.solve_level

    def counted(*args, **kwargs):
        calls["dgttrf"] += 1
        return dgttrf(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve_level"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "dgttrf", counted)
    monkeypatch.setattr(hadamard, "solve_level", counted_solve)
    # a level solve: 2 levels in the window, then the vector
    level = hadamard.solve_level(harmonic(), 1.0, 1, GRID)
    assert calls["dgttrf"] == 3
    # a variation row factors only its +-eps_fd pair
    calls["dgttrf"] = 0
    variation_check(level, TAIL)
    assert calls["dgttrf"] == 2
    calls["dgttrf"] = calls["solve_level"] = 0
    rep = cli.run({}, "hadamard-check", out_dir=tmp_path)
    assert rep.ok
    # the base level once (3), 4 variation rows at 2, the normalization
    # from the base level (0), the witness's coarse level (3)
    assert calls["solve_level"] == 2
    assert calls["dgttrf"] == 14
