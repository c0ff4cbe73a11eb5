import math

import numpy as np
import pytest
from scipy.integrate import quad

from specpair import cli, eigensolve
from specpair.errors import PreconditionError
from specpair.potential import BumpSpec, PotentialSpec, bump_eval, harmonic
from specpair.eigensolve import Grid
from specpair.hadamard import (
    asymmetry_witness,
    constant_direction_sanity,
    fd_oracle,
    variation_check,
    variational_derivative,
)

TAIL = BumpSpec(center=3.5, half_width=0.5, amplitude=1.0)
WELL = BumpSpec(center=0.5, half_width=0.5, amplitude=1.0)
GRID = Grid(8.0, 4095)


def test_zero_amplitude_direction():
    none = BumpSpec(center=3.5, half_width=0.5, amplitude=0.0)
    assert variational_derivative(harmonic(), 1.0, 1, none, grid=GRID) == 0.0
    assert fd_oracle(harmonic(), 1.0, 1, none, grid=GRID) == 0.0


def test_constant_direction_is_one():
    assert constant_direction_sanity(harmonic(), 1.0, 1, GRID) == pytest.approx(1.0, abs=1e-10)


def test_harmonic_ground_state_closed_form():
    # oracle: the Gaussian ground state integrates the bump in closed form
    val = variational_derivative(harmonic(), 1.0, 1, TAIL, grid=GRID)
    exact = quad(lambda x: bump_eval(TAIL, x) * math.exp(-x * x) / math.sqrt(math.pi),
                 3.0, 4.0, epsabs=1e-16)[0]
    assert val == pytest.approx(exact, rel=1e-4)


def test_reflected_direction_on_symmetric_base():
    a = variational_derivative(harmonic(), 1.0, 1, TAIL, reflected=False, grid=GRID)
    b = variational_derivative(harmonic(), 1.0, 1, TAIL, reflected=True, grid=GRID)
    assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))


def test_formula_matches_oracle_tail_direction():
    r = variation_check(harmonic(), 1.0, 1, TAIL, eps_fd=1e-5, grid=GRID)
    assert r.discrepancy / abs(r.formula_value) <= 1e-4


def test_second_order_shrinkage_well_direction():
    discs = []
    for e in (4e-4, 2e-4, 1e-4):
        r = variation_check(harmonic(), 1.0, 1, WELL, eps_fd=e, grid=GRID)
        assert r.discrepancy / r.formula_value <= 1e-4
        discs.append(r.discrepancy)
    r1 = discs[0] / discs[1]
    r2 = discs[1] / discs[2]
    assert 3.0 <= r1 <= 5.5
    assert 3.0 <= r2 <= 5.5


def test_shrinkage_on_excited_level():
    discs = []
    for e in (4e-4, 2e-4):
        r = variation_check(harmonic(), 1.0, 3, WELL, eps_fd=e, grid=GRID)
        discs.append(r.discrepancy)
    assert 2.5 <= discs[0] / discs[1] <= 6.0


def test_fd_ordering_guard():
    with pytest.raises(PreconditionError):
        fd_oracle(harmonic(), 1.0, 1, WELL, eps_fd=0.9, grid=GRID)


def test_witness_symmetric_base_vanishes():
    p0 = PotentialSpec(t=0.0, eps=0.0)
    w = asymmetry_witness(p0, 1.0, TAIL, grid=GRID)
    assert abs(w.gap) <= 1e-12
    assert w.d_plus == pytest.approx(w.d_minus, abs=1e-12)


def test_witness_requires_unperturbed_beta():
    with pytest.raises(PreconditionError):
        asymmetry_witness(PotentialSpec(t=0.05, eps=0.05), 1.0, TAIL, grid=GRID)


def test_witness_with_alpha_bump_significant():
    base = PotentialSpec(t=0.05, eps=0.0)
    w = asymmetry_witness(base, 1.0, TAIL, grid=GRID)
    assert abs(w.gap) > 100.0 * w.error_estimate
    assert w.significant
    assert w.d_plus > 0.0 and w.d_minus > 0.0


def test_witness_sign_agrees_with_matching_constant(weber_bundle):
    # the gap equals (c^2 - 1) * integral of beta * W(-x)^2, so its sign
    # must agree with the sign of c - 1
    base, _, _, ws = weber_bundle
    w = asymmetry_witness(base, 1.0, TAIL, grid=GRID)
    assert math.copysign(1.0, w.gap) == math.copysign(1.0, ws.c - 1.0)


def test_second_order_decay_invariant():
    # discrepancy bounded by C * eps^2 plus a floor, seen at three eps values
    discs = [variation_check(harmonic(), 1.0, 1, WELL, eps_fd=e, grid=GRID).discrepancy
             for e in (8e-4, 4e-4, 2e-4)]
    C = discs[0] / (8e-4) ** 2
    for e, d in zip((8e-4, 4e-4, 2e-4), discs):
        assert d <= 1.5 * C * e * e + 1e-12


def test_hadamard_check_solves_each_row_once(monkeypatch, tmp_path):
    calls = {"dgttrf": 0}
    dgttrf = eigensolve.dgttrf

    def counted(*args, **kwargs):
        calls["dgttrf"] += 1
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "dgttrf", counted)
    # one level solve (2 levels in the window, then the vector) plus the
    # +-eps_fd pair: formula and oracle share the solve
    variation_check(harmonic(), 1.0, 1, TAIL, grid=GRID)
    assert calls["dgttrf"] == 5
    calls["dgttrf"] = 0
    rep = cli.run({}, "hadamard-check", out_dir=tmp_path)
    assert rep.ok
    # 4 variation rows at 5, the normalization solve (3), the witness on two
    # grids (2 x 3); solving each row's level twice took 41
    assert calls["dgttrf"] == 29
