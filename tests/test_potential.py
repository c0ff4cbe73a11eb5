import json
import math

import numpy as np
import pytest

from specpair.potential import (
    BumpSpec,
    PotentialSpec,
    ValidationError,
    bump_eval,
    bump_derivative,
    default_pair,
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
    with pytest.raises(ValidationError):
        BumpSpec(center=0.0, half_width=0.0, amplitude=1.0)
    with pytest.raises(ValidationError):
        BumpSpec(center=0.0, half_width=1.0, amplitude=-0.5)


def test_derivative_matches_finite_differences():
    # central-difference oracle with step 1e-6, away from the flat regions
    rng = np.random.default_rng(20240817)
    p, _ = default_pair()
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
    plus, minus = default_pair()
    for x in (-1.9, -1.0, 0.0, 1.3, 2.9):
        assert potential_eval(plus, x) == x * x
    assert potential_eval(plus, 0.0) == 0.0
    # the reflected member has no bump on (3, 4)
    for x in (3.1, 3.5, 3.9):
        assert potential_eval(minus, x) == x * x


def test_reflected_bump_positions():
    plus, minus = default_pair()
    # on (-4, -3): plus is bare, minus carries the reflected beta bump
    assert potential_eval(plus, -3.5) == 3.5 * 3.5
    assert potential_eval(minus, -3.5) == pytest.approx(3.5 * 3.5 + 0.05, rel=1e-15)


def test_pure_reflection_pair_at_t_zero():
    p = PotentialSpec(t=0.0, eps=0.07)
    m = p.reflected()
    x = np.linspace(-5, 5, 4001)
    assert np.array_equal(potential_eval(m, x), potential_eval(p, -x))


def test_nonnegative_and_zero_only_at_origin():
    p, _ = default_pair()
    x = np.linspace(-6, 6, 10001)
    v = potential_eval(p, x)
    assert np.all(v >= 0.0)
    assert np.all(v[x != 0.0] > 0.0)


def test_validate_defaults_pass():
    rep = validate(default_pair()[0])
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
    with pytest.raises(ValidationError):
        PotentialSpec(t=-0.1)
    with pytest.raises(ValidationError):
        PotentialSpec(eps=-0.1)


@pytest.mark.parametrize("field", ["center", "half_width", "amplitude"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_bump_field_rejected(field, value):
    kwargs = {"center": -2.5, "half_width": 0.5, "amplitude": 1.0, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        BumpSpec(**kwargs)


@pytest.mark.parametrize("field", ["t", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_strength_rejected(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        PotentialSpec(**{field: value})


def test_json_round_trip():
    p = PotentialSpec(t=0.03, eps=0.08)
    assert validate(p).ok
    q = PotentialSpec.from_json(p.to_json())
    assert q == p
    d = json.loads(p.to_json())
    assert set(d) == {"t", "eps", "reflect_beta", "alpha", "beta"}
