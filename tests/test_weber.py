import math

import numpy as np
import pytest
import scipy.optimize

from specpair import cli, weber
from specpair.errors import ConvergenceError, PreconditionError
from specpair.potential import PotentialSpec, harmonic
from specpair.eigensolve import Grid, discretize, eigenvector
from specpair.weber import (
    c_identities,
    check_properties,
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
    assert float(w.dense(-3.0)) == pytest.approx(float(u1(-3.0)), rel=1e-14)


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
    assert c_identities(w, u1).ok
    assert w.c > 1.0 + 1e-7


def test_matching_identities(bundle):
    _, u1, w = bundle
    rep = c_identities(w, u1)
    assert rep.sup_left <= 1e-7
    assert rep.sup_right <= 1e-7
    assert rep.deriv_mismatch <= 1e-7


def test_c_invariant_under_refinement(bundle, monkeypatch):
    lam1, u1, w = bundle
    with monkeypatch.context() as m:
        m.setattr(weber, "RTOL", 1e-13)
        m.setattr(weber, "DENSE_STEP", 5e-4)
        w_dense = solve_weber(lam1, u1)
    assert w_dense.xs.size == 2 * w.xs.size - 1
    assert abs(w_dense.c - w.c) <= 1e-9
    with monkeypatch.context() as m:
        m.setattr(weber, "X_LEFT", -10.0)
        w_far = solve_weber(lam1, u1)
    assert w_far.xs[0] == -10.0
    assert abs(w_far.c - w.c) <= 1e-9


def test_boundary_case_harmonic():
    u1 = ode_ground_state(harmonic(), 1.0)
    w = solve_weber(1.0, u1)
    rep = check_properties(w)
    assert rep.ok, rep.failures
    assert w.boundary_case
    assert w.a == 0.0
    assert w.z0 is None
    assert w.c == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.decay_slope) <= 0.01
    assert np.all(w.W > 0.0)


def test_weber_experiment_at_t0_is_the_boundary_case(tmp_path):
    # a shot lands about 5e-13 above lam1 = 1, which failed the decay law
    # against the shooting error and never reached the boundary branch
    rep = cli.run({"potential": {"t": 0.0}}, "weber", out_dir=tmp_path)
    assert [(a.name, a.passed) for a in rep.assertions] == \
        [("weber.properties", True), ("weber.identities", True)]
    assert rep.tables["features"][0]["lambda1"] == 1.0
    assert rep.tables["features"][0]["a"] == 0.0


def test_perturbed_level_partial_properties(bundle):
    # positivity up to 3 fails once the level is far from 1: the zero moves
    # into the well region, while the remaining shape properties persist
    lam1, u1, _ = bundle
    w = solve_weber(lam1 + 0.5, u1)
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
    T = discretize(BASE, 1.0, g)
    _, u = eigenvector(T, 2.0, 1)
    x = g.nodes()
    sel = (x >= -7.5) & (x <= -3.0)
    diff = np.abs(u[sel] - w.dense(x[sel]))
    assert float(np.max(diff)) <= 1e-7


def test_precondition_window():
    u1 = ode_ground_state(harmonic(), 1.0)
    with pytest.raises(PreconditionError):
        solve_weber(0.5, u1)


class _RightSkewed:
    """u1 scaled by 1.05 for x > 0: a deliberately mis-scaled partner."""

    def __init__(self, u1):
        self.u1 = u1

    def __call__(self, x):
        return np.asarray(self.u1(x)) * (1.0 + 0.05 * (np.asarray(x) > 0.0))

    def derivative(self, x):
        return self.u1.derivative(x)


def test_feature_root_non_convergence_is_typed(bundle, monkeypatch):
    lam1, u1, _ = bundle
    brentq = scipy.optimize.brentq
    monkeypatch.setattr(scipy.optimize, "brentq", lambda *a, **k: brentq(*a, **k, maxiter=1))
    with pytest.raises(ConvergenceError, match="critical point of W.*after 1 iterations"):
        solve_weber(lam1, u1)


def test_identity_violation_reported(bundle):
    # the mis-scaled partner breaks the right-side identity only
    _, u1, w = bundle
    rep = c_identities(w, _RightSkewed(u1))
    assert not rep.ok
    assert rep.sup_left <= weber.IDENTITY_TOL < rep.sup_right


def test_trace_reconstruction_matches_weber(bundle):
    # integrating the angle system for W's own coefficient and rebuilding
    # r sin(theta) must reproduce the directly integrated W
    from specpair.pruefer import CoefficientQ, integrate_angle

    lam1, _, w = bundle
    th0 = math.atan2(float(w.dense(-3.0)), float(w.dense.derivative(-3.0)))
    tr = integrate_angle(CoefficientQ(lam=lam1), -3.0, th0, 0.0)
    r = np.exp(tr.log_rs - tr.log_rs[0])
    w_rec = float(w.dense(-3.0)) / math.sin(th0) * r * np.sin(tr.thetas)
    w_ref = w.dense(tr.xs)
    assert float(np.max(np.abs(w_rec - w_ref))) <= 1e-8
