import math

import numpy as np
import pytest

from specpair.errors import ConvergenceError, PreconditionError
from specpair.potential import PotentialSpec, harmonic
from specpair.eigensolve import Grid, discretize, eigenvalues_below, eigenvector
from specpair.pruefer import shoot_eigenvalue
from specpair.weber import (
    Eigenfunction,
    c_identities,
    check_properties,
    compute_c,
    ode_ground_state,
    solve_weber,
)

BASE = PotentialSpec(t=0.05, eps=0.0)


@pytest.fixture
def bundle(weber_bundle):
    base, lam1, u1, w = weber_bundle
    assert base == BASE
    return lam1, u1, w


def test_lambda1_strictly_inside_window(bundle):
    lam1, _, _ = bundle
    assert 1.0 + 1e-6 < lam1 < 3.0


def test_normalization_matches_ground_state(bundle):
    _, u1, w = bundle
    assert float(w.value(-3.0)) == pytest.approx(float(u1(-3.0)), rel=1e-14)


def test_ground_state_is_normalized(bundle):
    _, u1, _ = bundle
    xs = np.linspace(-8.0, 6.0, 14001)
    v = np.asarray(u1(xs))
    assert np.trapezoid(v * v, xs) == pytest.approx(1.0, abs=1e-10)


def test_default_properties(bundle):
    lam1, _, w = bundle
    rep = check_properties(w)
    assert rep.ok, rep.failures
    assert w.a > 0.0
    assert abs(w.a) < math.sqrt(lam1)
    assert w.z0 is not None and w.z0 > 3.0
    assert rep.max_residual <= 1e-8
    assert rep.decay_slope == pytest.approx(0.5 * (lam1 - 1.0), rel=0.05)
    assert rep.growth_slope == pytest.approx(-0.5 * (lam1 + 1.0), rel=0.05)


def test_matching_constant_above_one(bundle):
    _, u1, w = bundle
    c = compute_c(w, u1)
    assert c > 1.0 + 1e-7
    assert c == pytest.approx(w.c, abs=1e-12)


def test_matching_identities(bundle):
    _, u1, w = bundle
    rep = c_identities(w, u1)
    assert rep.sup_left <= 1e-7
    assert rep.sup_right <= 1e-7
    assert rep.deriv_mismatch <= 1e-7


def test_c_invariant_under_refinement(bundle):
    lam1, u1, w = bundle
    w_dense = solve_weber(lam1, -8.0, 8.0, u1, rtol=1e-13, dense_step=5e-4)
    assert abs(w_dense.c - w.c) <= 1e-9
    w_far = solve_weber(lam1, -10.0, 8.0, u1)
    assert abs(w_far.c - w.c) <= 1e-9


def test_boundary_case_harmonic():
    u1 = ode_ground_state(harmonic(), 1.0)
    w = solve_weber(1.0, -8.0, 8.0, u1)
    rep = check_properties(w)
    assert rep.ok, rep.failures
    assert rep.boundary_case
    assert w.a == 0.0
    assert w.z0 is None
    assert w.c == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.decay_slope) <= 0.01
    assert np.all(w.W > 0.0)


def test_perturbed_level_partial_properties(bundle):
    # positivity up to 3 fails once the level is far from 1: the zero moves
    # into the well region, while the remaining shape properties persist
    lam1, u1, _ = bundle
    w = solve_weber(lam1 + 0.5, -8.0, 8.0, u1)
    rep = check_properties(w)
    assert not rep.ok
    assert w.z0 is not None and w.z0 < 3.0
    assert rep.unique_critical_point
    assert abs(w.a) < math.sqrt(lam1 + 0.5)
    assert rep.falls_at_right
    assert rep.decay_slope == pytest.approx(0.5 * (lam1 - 0.5), rel=0.05)
    assert rep.growth_slope == pytest.approx(-0.5 * (lam1 + 1.5), rel=0.05)


def test_grid_eigenvector_consistency(bundle):
    # the matrix eigenvector and W solve the same equation left of the bump
    lam1, _, w = bundle
    g = Grid(8.0, 8191)
    T = discretize(BASE, 1.0, g, e_max=3.0)
    lam_g = float(eigenvalues_below(T, 2.0).eigenvalues[0])
    u = eigenvector(T, lam_g)
    x = g.nodes()
    sel = (x >= -7.5) & (x <= -3.0)
    diff = np.abs(u[sel] - w.value(x[sel]))
    assert float(np.max(diff)) <= 1e-7


def test_precondition_window():
    u1 = ode_ground_state(harmonic(), 1.0)
    with pytest.raises(PreconditionError):
        solve_weber(0.5, -8.0, 8.0, u1)
    with pytest.raises(PreconditionError):
        solve_weber(1.5, -4.0, 8.0, u1)
    with pytest.raises(PreconditionError):
        solve_weber(1.5, -8.0, 4.0, u1)


def test_overflow_guard():
    u1 = ode_ground_state(harmonic(), 1.0)
    with pytest.raises(PreconditionError, match="overflow"):
        solve_weber(1.5, -8.0, 60.0, u1)


def test_identity_violation_reported():
    # a deliberately mis-scaled partner breaks the right-side identity
    lam1 = shoot_eigenvalue(BASE, 1.0, 1, 8.0, lam_tol=1e-10)
    u1 = ode_ground_state(BASE, lam1)
    skew = Eigenfunction(lam=lam1,
                         _values=lambda x: np.asarray(u1(x)) * (1.0 + 0.05 * (np.asarray(x) > 0.0)),
                         _deriv=u1.derivative)
    w = solve_weber(lam1, -8.0, 8.0, u1)
    with pytest.raises(ConvergenceError, match="identities"):
        compute_c(w, skew)


def test_trace_reconstruction_matches_weber(bundle):
    # integrating the angle system for W's own coefficient and rebuilding
    # r sin(theta) must reproduce the directly integrated W
    from specpair.pruefer import CoefficientQ, integrate_angle

    lam1, _, w = bundle
    th0 = math.atan2(float(w.value(-3.0)), float(w.derivative(-3.0)))
    tr = integrate_angle(CoefficientQ(lam=lam1), -3.0, th0, 0.0)
    r = np.exp(tr.log_rs - tr.log_rs[0])
    w_rec = float(w.value(-3.0)) / math.sin(th0) * r * np.sin(tr.thetas)
    w_ref = w.value(tr.xs)
    assert float(np.max(np.abs(w_rec - w_ref))) <= 1e-8


def test_csv_rows(bundle):
    _, _, w = bundle
    rows = list(w.to_csv_rows())
    assert set(rows[0]) == {"x", "W", "Wp"}
    assert len(rows) == w.xs.size
