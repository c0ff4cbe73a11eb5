import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specpair.errors import PreconditionError
from specpair.potential import (
    BumpSpec,
    PotentialSpec,
    bump_eval,
    bump_derivative,
    harmonic,
    potential_derivative,
    potential_eval,
    validate,
)

ALPHA = BumpSpec(center=-2.5, half_width=0.5, amplitude=1.0)
BETA = BumpSpec(center=3.5, half_width=0.5, amplitude=1.0)


def test_bump_peak_value():
    assert bump_eval(ALPHA, -2.5) == 1.0


def test_bump_outside_support():
    assert bump_eval(ALPHA, 0.0) == 0.0
    assert bump_eval(ALPHA, -3.0) == 0.0
    assert bump_eval(ALPHA, -2.0) == 0.0


def test_bump_closed_form_point():
    # u = (3.25 - 3.5)/0.5 = -0.5, so the profile is exp(1 - 1/(1 - 0.25))
    assert bump_eval(BETA, 3.25) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-14)


def test_bump_range_and_sign():
    x = np.linspace(-4, 5, 2001)
    va = bump_eval(ALPHA, x)
    assert np.all(va >= 0.0)
    assert np.all(va <= 1.0)


def test_bump_invalid_parameters():
    with pytest.raises(PreconditionError):
        BumpSpec(center=0.0, half_width=0.0, amplitude=1.0)
    with pytest.raises(PreconditionError):
        BumpSpec(center=0.0, half_width=1.0, amplitude=-0.5)


def test_derivative_matches_finite_differences():
    # central-difference oracle with step 1e-6, away from the flat regions
    rng = np.random.default_rng(20240817)
    p = PotentialSpec()
    xs = np.concatenate([rng.uniform(0.5, 4.2, 50), rng.uniform(-4.2, -0.5, 50)])
    d = 1e-6
    for x in xs:
        fd = (potential_eval(p, x + d) - potential_eval(p, x - d)) / (2 * d)
        exact = potential_derivative(p, x)
        assert abs(fd - exact) / max(abs(exact), 1.0) < 1e-8


def test_bump_derivative_finite_differences():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2.95, -2.05, 100)
    d = 1e-6
    for x in xs:
        fd = (bump_eval(ALPHA, x + d) - bump_eval(ALPHA, x - d)) / (2 * d)
        exact = bump_derivative(ALPHA, x)
        assert abs(fd - exact) <= 1e-8 * max(1.0, abs(exact))


def test_potential_plain_square_between_bumps():
    plus = PotentialSpec()
    minus = plus.reflected()
    for x in (-1.9, -1.0, 0.0, 1.3, 2.9):
        assert potential_eval(plus, x) == x * x
    assert potential_eval(plus, 0.0) == 0.0
    # the reflected member has no bump on (3, 4)
    for x in (3.1, 3.5, 3.9):
        assert potential_eval(minus, x) == x * x


def test_reflected_bump_positions():
    plus = PotentialSpec()
    minus = plus.reflected()
    # on (-4, -3): plus is bare, minus carries the reflected beta bump
    assert potential_eval(plus, -3.5) == 3.5 * 3.5
    assert potential_eval(minus, -3.5) == pytest.approx(3.5 * 3.5 + 0.05, rel=1e-15)


def test_pure_reflection_pair_at_t_zero():
    p = PotentialSpec(t=0.0, eps=0.07)
    m = p.reflected()
    x = np.linspace(-5, 5, 4001)
    assert np.array_equal(potential_eval(m, x), potential_eval(p, -x))


def test_nonnegative_and_zero_only_at_origin():
    p = PotentialSpec()
    x = np.linspace(-6, 6, 10001)
    v = potential_eval(p, x)
    assert np.all(v >= 0.0)
    assert np.all(v[x != 0.0] > 0.0)


def test_validate_defaults_pass():
    rep = validate(PotentialSpec())
    assert rep.ok
    assert rep.derivative_bound_alpha < 4.0
    assert rep.derivative_bound_beta < 6.0


def test_validate_huge_amplitude_fails():
    p = PotentialSpec(t=1e6, eps=0.05)
    rep = validate(p)
    assert not rep.ok
    assert any("alpha" in f for f in rep.failures)


def test_validate_bare_oscillator():
    assert validate(harmonic()).ok


def test_validate_support_violation():
    bad = PotentialSpec(t=0.05, eps=0.05,
                        alpha=BumpSpec(center=-2.2, half_width=0.5))
    rep = validate(bad)
    assert not rep.ok
    assert any("support" in f for f in rep.failures)


def test_negative_strengths_rejected():
    with pytest.raises(PreconditionError):
        PotentialSpec(t=-0.1)
    with pytest.raises(PreconditionError):
        PotentialSpec(eps=-0.1)


@pytest.mark.parametrize("field", ["center", "half_width", "amplitude"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_bump_field_rejected(field, value):
    kwargs = {"center": -2.5, "half_width": 0.5, "amplitude": 1.0, field: value}
    with pytest.raises(PreconditionError, match=f"^{field} must be a finite number"):
        BumpSpec(**kwargs)


@pytest.mark.parametrize("field", ["t", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_strength_rejected(field, value):
    with pytest.raises(PreconditionError, match=f"^{field} must be a finite number"):
        PotentialSpec(**{field: value})


def test_bump_height_bounds_the_lift_and_vanishes_exactly_for_the_bare_oscillator():
    p = PotentialSpec(t=0.05, eps=0.02, alpha=BumpSpec(-2.5, 0.5, 2.0),
                      beta=BumpSpec(3.5, 0.5, 3.0))
    assert p.bump_height == 0.05 * 2.0 + 0.02 * 3.0
    x = np.linspace(-4.5, 4.5, 9001)
    for q in (p, p.reflected()):
        assert np.max(potential_eval(q, x) - x * x) <= q.bump_height
    assert PotentialSpec().bump_height == 0.1
    assert harmonic().bump_height == 0.0
    flat = BumpSpec(-2.5, 0.5, 0.0)
    for q in (PotentialSpec(eps=0.0, alpha=flat), PotentialSpec(t=0.0, eps=0.0)):
        assert q.bump_height == 0.0
        assert np.array_equal(potential_eval(q, x), x * x)


def test_json_round_trip():
    p = PotentialSpec(t=0.03, eps=0.08)
    assert validate(p).ok
    d = json.loads(json.dumps(p.to_dict()))
    assert PotentialSpec.from_dict(d) == p
    assert set(d) == {"t", "eps", "reflect_beta", "alpha", "beta"}


# support edges of both bumps and of the reflected beta, each with its two neighbouring floats
EDGES = [e for b in (ALPHA, BETA) for e in b.support]
EDGE_POINTS = st.sampled_from(EDGES + [-e for e in EDGES]).flatmap(
    lambda e: st.sampled_from([e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]))


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(-6.0, 6.0), EDGE_POINTS), t=st.floats(0.0, 0.2),
       eps=st.floats(0.0, 0.2), reflect=st.booleans(), amplitude=st.sampled_from([1.0, 2, 0.75]))
def test_a_float_gives_the_array_path_bit_for_bit(x, t, eps, reflect, amplitude):
    beta = BumpSpec(center=3.5, half_width=0.5, amplitude=amplitude)
    p = PotentialSpec(t=t, eps=eps, reflect_beta=reflect, beta=beta)
    xs = np.array([x])
    got = potential_eval(p, x)
    assert type(got) is float
    assert got.hex() == float(potential_eval(p, xs)[0]).hex()
    for b in (ALPHA, beta):
        got = bump_eval(b, x)
        assert type(got) is float
        assert got.hex() == float(bump_eval(b, xs)[0]).hex()
