import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from specpair import _rk, cli, pruefer
from specpair.errors import ConvergenceError, PreconditionError
from specpair.potential import BumpSpec, PotentialSpec, harmonic, \
    potential_eval
from specpair.eigensolve import Grid, refine
from specpair.pruefer import (
    CoefficientQ,
    TracePair,
    compare_angles,
    compare_solutions,
    integrate_angle,
    integrate_angle_pair,
    shoot_eigenvalue,
)


def rk4_fixed(rhs, x0, y0, x1, n):
    """Brute-force fixed-step RK4 oracle."""
    h = (x1 - x0) / n
    x, y = x0, np.asarray(y0, dtype=float)
    for _ in range(n):
        k1 = rhs(x, y)
        k2 = rhs(x + h / 2, y + h / 2 * k1)
        k3 = rhs(x + h / 2, y + h / 2 * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return y


def test_constant_one_angle_is_linear():
    q = CoefficientQ(lam=0.0, const=1.0)
    tr = integrate_angle(q, -1.0, 0.4, 3.0)
    np.testing.assert_allclose(tr.thetas, 0.4 + (tr.xs + 1.0), atol=1e-10, rtol=0)


def test_constant_zero_closed_form():
    # theta' = cos^2(theta) integrates to tan(theta) = tan(theta0) + (x - x0)
    q = CoefficientQ(lam=0.0, const=0.0)
    th0 = 0.3
    tr = integrate_angle(q, 0.0, th0, 5.0)
    expected = np.arctan(math.tan(th0) + tr.xs)
    np.testing.assert_allclose(tr.thetas, expected, atol=1e-10, rtol=0)
    # increasing toward the pi/2 asymptote from below
    assert np.all(np.diff(tr.thetas) > 0)
    assert tr.thetas[-1] < math.pi / 2


def test_angle_against_fixed_step_oracle():
    lam = 2.3
    q = CoefficientQ(lam=lam)

    def rhs(x, y):
        s, c = math.sin(y[0]), math.cos(y[0])
        return np.array([(lam - x * x) * s * s + c * c])

    tr = integrate_angle(q, -3.0, 0.5, 1.0)
    oracle = rk4_fixed(rhs, -3.0, [0.5], 1.0, 40000)
    assert abs(tr.thetas[-1] - oracle[0]) < 1e-8


def test_integration_deterministic():
    q = CoefficientQ(lam=1.3, potential=PotentialSpec())
    t1 = integrate_angle(q, -3.0, 0.7, 0.0)
    t2 = integrate_angle(q, -3.0, 0.7, 0.0)
    assert np.array_equal(t1.thetas, t2.thetas)
    assert np.array_equal(t1.log_rs, t2.log_rs)


def test_trace_node_count():
    q = CoefficientQ(lam=5.3)
    tr = integrate_angle(q, -6.0, 0.0, 6.0)
    # lam = 5.3 sits between the 3rd and 4th Dirichlet levels: theta(L) in (3pi, 4pi)
    assert 3.0 * math.pi < tr.thetas[-1] < 4.0 * math.pi


def integrate_end_angle(qf, x0, x1, eps_per_length, max_step):
    """theta(x1) from theta(x0) = 0 through the general recording stepper."""
    def rhs(x, y):
        s, c = math.sin(y[0]), math.cos(y[0])
        return (qf(x) * s * s + c * c,)

    _, ys = _rk.integrate(rhs, x0, (0.0,), x1, eps_per_length=eps_per_length,
                          max_step=max_step)
    return ys[-1][0]


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.5, 30.0), h=st.sampled_from([1.0, 0.5, 0.25]),
       t=st.floats(0.0, 0.2), eps=st.floats(0.0, 0.2), reflect=st.booleans(),
       const=st.none() | st.floats(-5.0, 30.0),
       eps_per_length=st.sampled_from([3e-10, 1e-9]))
def test_angle_end_is_integrate_bit_for_bit(lam, h, t, eps, reflect, const, eps_per_length):
    q = CoefficientQ(lam=lam, potential=PotentialSpec(t=t, eps=eps, reflect_beta=reflect),
                     h=h, const=const)
    qf = q.scalar_fn()
    got = _rk.angle_end(qf, -8.0, 8.0, eps_per_length, 0.05)
    assert got.hex() == integrate_end_angle(qf, -8.0, 8.0, eps_per_length, 0.05).hex()


BUMPS = st.builds(BumpSpec, center=st.floats(-5.0, 5.0), half_width=st.floats(0.01, 3.0),
                  amplitude=st.floats(0.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(alpha=BUMPS, beta=BUMPS, t=st.floats(0.0, 2.0), eps=st.floats(0.0, 2.0),
       reflect=st.booleans(), data=st.data())
def test_shooting_kernel_and_matrix_path_spell_the_same_potential(alpha, beta, t, eps,
                                                                   reflect, data):
    # Q's bumps use math.exp and potential_eval's numpy's exp: they may
    # differ in the last bit, nowhere by more
    p = PotentialSpec(t=t, eps=eps, reflect_beta=reflect, alpha=alpha, beta=beta)
    edges = [s * e for b in (alpha, beta) for e in b.support for s in (-1.0, 1.0)]
    near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    x = data.draw(st.floats(-8.0, 8.0) | st.sampled_from(edges + near), label="x")
    v = potential_eval(p, x)
    got = -CoefficientQ(lam=0.0, potential=p).scalar_fn()(x)
    assert abs(got - v) <= 4.0 * math.ulp(max(1.0, v))


def test_angle_end_step_collapse_raises():
    # no step can meet a tolerance of 1e-300 per unit length
    qf = CoefficientQ(lam=1.0).scalar_fn()
    with pytest.raises(ConvergenceError, match="collapsed"):
        _rk.angle_end(qf, -1.0, 1.0, 1e-300, 0.05)
    with pytest.raises(ConvergenceError, match="collapsed"):
        integrate_end_angle(qf, -1.0, 1.0, 1e-300, 0.05)


def test_shoot_non_convergence_is_typed(monkeypatch):
    brentq = scipy.optimize.brentq
    monkeypatch.setattr(scipy.optimize, "brentq", lambda *a, **k: brentq(*a, **k, maxiter=3))
    with pytest.raises(ConvergenceError, match=r"bracket \[.*\] after 3 iterations"):
        shoot_eigenvalue(harmonic(), 1.0, 1, 8.0)


@pytest.mark.parametrize("j", [1, 2])
def test_shoot_integrates_each_lam_once(monkeypatch, j):
    # the bracket loop's last end angle is brentq's f(b); it is not integrated again
    lams, calls = [], []
    scalar_fn, angle_end = CoefficientQ.scalar_fn, _rk.angle_end

    def recording_scalar_fn(q):
        lams.append(q.lam)
        return scalar_fn(q)

    def counting_angle_end(*args):
        calls.append(args)
        return angle_end(*args)

    monkeypatch.setattr(CoefficientQ, "scalar_fn", recording_scalar_fn)
    monkeypatch.setattr(_rk, "angle_end", counting_angle_end)
    lam = shoot_eigenvalue(PotentialSpec(), 1.0, j, 8.0)
    assert len(calls) == len(lams) == len(set(lams))
    assert lam in lams


def test_shoot_harmonic_levels():
    assert shoot_eigenvalue(harmonic(), 1.0, 1, 8.0) == pytest.approx(1.0, abs=1e-8)
    assert shoot_eigenvalue(harmonic(), 1.0, 3, 8.0) == pytest.approx(5.0, abs=1e-8)


def test_shoot_invalid_j():
    with pytest.raises(PreconditionError):
        shoot_eigenvalue(harmonic(), 1.0, 0, 8.0)


def test_shoot_matches_matrix_for_perturbed_pair():
    p = PotentialSpec()
    spec = refine(p, 1.0, 4.0, Grid(8.0, 4095))
    shot = shoot_eigenvalue(p, 1.0, 1, 8.0)
    combined = float(spec.error_estimate[0]) + 6e-9
    assert abs(spec.value(1) - shot) <= 10.0 * combined


def test_compare_angles_identical():
    q = CoefficientQ(lam=1.2)
    rep = compare_angles(integrate_angle_pair(q, q, -3.0, 0.6, 0.0))
    assert rep.ok
    assert rep.min_margin == 0.0


def test_compare_angles_perturbed_below_bare():
    base = PotentialSpec(t=0.05, eps=0.0)
    lam = 1.00005
    qb = CoefficientQ(lam=lam)
    qs = CoefficientQ(lam=lam, potential=base)
    pair = integrate_angle_pair(qb, qs, -3.0, 0.7, 0.0)
    rep = compare_angles(pair)
    assert rep.ok
    assert rep.min_margin >= -1e-9
    # strictly positive once past the bump
    assert pair.big.xs.size > 50


def test_compare_angles_strict_for_constants():
    qb = CoefficientQ(lam=0.0, const=1.0)
    qs = CoefficientQ(lam=0.0, const=0.0)
    pair = integrate_angle_pair(qb, qs, 0.0, math.pi / 4, 1.0)
    rep = compare_angles(pair)
    assert rep.ok
    assert pair.big.thetas[-1] > pair.small.thetas[-1]


def test_compare_angles_ordering_precondition():
    qb = CoefficientQ(lam=0.0, const=0.0)
    qs = CoefficientQ(lam=0.0, const=1.0)   # larger, violating the ordering
    with pytest.raises(PreconditionError, match="Q ordering"):
        compare_angles(integrate_angle_pair(qb, qs, 0.0, 0.5, 1.0))


def test_compare_solutions_identical_equations():
    q = CoefficientQ(lam=1.1)
    rep = compare_solutions(integrate_angle_pair(q, q, -3.0, 0.5, -0.5), 0.01)
    assert rep.ok
    assert abs(rep.min_margin) <= 1e-12
    assert abs(np.max(rep.u_small_eq - rep.u_big_eq)) <= 1e-12


def test_compare_solutions_perturbed_dominates():
    base = PotentialSpec(t=0.05, eps=0.0)
    lam = 1.0000491602443078
    qb = CoefficientQ(lam=lam)
    qs = CoefficientQ(lam=lam, potential=base)
    th0 = 0.25
    rep = compare_solutions(integrate_angle_pair(qb, qs, -3.0, th0, -0.001), 0.00829)
    assert rep.ok
    assert rep.min_margin >= -1e-9
    assert np.max(rep.u_small_eq - rep.u_big_eq) > 0.0


def test_compare_solutions_against_second_order_oracle():
    # rebuild both solutions by integrating u'' = -Q u directly
    base = PotentialSpec(t=0.05, eps=0.0)
    lam = 1.00005
    qb = CoefficientQ(lam=lam)
    qs = CoefficientQ(lam=lam, potential=base)
    th0 = 0.3
    u0 = 0.008
    rep = compare_solutions(integrate_angle_pair(qb, qs, -3.0, th0, -1.0), u0)

    qf = qs.scalar_fn()

    def rhs(x, y):
        return np.array([y[1], -qf(x) * y[0]])

    r0 = u0 / math.sin(th0)
    # drive the oracle to exact trace abscissae (no interpolation error)
    for k in (rep.xs.size // 4, rep.xs.size // 2, 3 * rep.xs.size // 4, rep.xs.size - 1):
        x_target = float(rep.xs[k])
        n = max(int(40000 * (x_target + 3.0)), 1000)
        y = rk4_fixed(rhs, -3.0, [u0, r0 * math.cos(th0)], x_target, n)
        assert abs(rep.u_small_eq[k] - y[0]) < 1e-8


def test_compare_solutions_region_guard():
    # traces that pass the angle pi/2 crossing must be rejected
    q = CoefficientQ(lam=2.5)
    with pytest.raises(PreconditionError):
        compare_solutions(integrate_angle_pair(q, q, -3.0, 1.2, 2.0), 0.01)


def test_compare_solutions_start_mismatch():
    q = CoefficientQ(lam=1.1)
    t1 = integrate_angle(q, -3.0, 0.5, 0.0)
    t2 = integrate_angle(q, -3.0, 0.6, 0.0)
    with pytest.raises(PreconditionError, match="start"):
        TracePair(q, q, t1, t2)


def test_comparisons_need_shared_abscissae():
    # separately integrated traces step differently past the bump; a pair of
    # them is refused instead of re-integrated behind the caller
    lam = 1.00005
    qb = CoefficientQ(lam=lam)
    qs = CoefficientQ(lam=lam, potential=PotentialSpec(t=0.05, eps=0.0))
    tb = integrate_angle(qb, -3.0, 0.3, -1.0)
    ts = integrate_angle(qs, -3.0, 0.3, -1.0)
    assert tb.xs[0] == ts.xs[0] and tb.thetas[0] == ts.thetas[0]
    assert not np.array_equal(tb.xs, ts.xs)
    with pytest.raises(PreconditionError, match="abscissae"):
        TracePair(qb, qs, tb, ts)


def test_pruefer_compare_integrates_the_pair_once(monkeypatch, tmp_path, weber_bundle):
    # the default potential's bundle is the shared weber_bundle fixture;
    # one shot pair keeps the cross-method table short
    calls = {"pair": 0}
    pair = pruefer.integrate_angle_pair

    def counted(*args, **kwargs):
        calls["pair"] += 1
        return pair(*args, **kwargs)

    monkeypatch.setattr(pruefer, "integrate_angle_pair", counted)
    monkeypatch.setattr(cli, "_weber_bundle", lambda cfg: weber_bundle)
    rep = cli.run({"shoot_h_list": [1.0], "shoot_j_max": 1}, "pruefer-compare",
                  out_dir=tmp_path)
    assert rep.ok
    # angle and solution comparisons share one joint integration
    assert calls["pair"] == 1
