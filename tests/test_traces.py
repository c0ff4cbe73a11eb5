import math

import numpy as np
import pytest
from scipy.integrate import quad

from specpair import eigensolve, traces
from specpair.errors import PreconditionError, WindowCapError
from specpair.potential import BumpSpec, PotentialSpec, harmonic
from specpair.eigensolve import Grid
from specpair.traces import (
    GapEntry,
    TestFunction,
    fit_gap_decay,
    gap_sweep,
    isospectral_distance,
    spectral_density,
    superpoly_decay_table,
    weyl_consistency,
    weyl_term,
)

F_EXP = TestFunction(kind="exponential", scale=1.0)
F_BUMP = TestFunction(kind="bump", center=5.0, half_width=2.0)
F_WIDE = TestFunction(kind="bump", center=12.0, half_width=6.0)


def test_test_function_values():
    assert F_EXP(0.0) == 1.0
    assert F_EXP(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert F_BUMP(5.0) == 1.0
    assert F_BUMP(7.0) == 0.0
    assert F_BUMP(2.9) == 0.0
    with pytest.raises(PreconditionError):
        TestFunction(kind="gaussian")
    with pytest.raises(PreconditionError):
        TestFunction(kind="exponential", scale=0.0)


@pytest.mark.parametrize("kwargs, key", [
    ({"half_width": 0.0}, "half_width"),
    ({"half_width": -2.0}, "half_width"),
    ({"half_width": math.inf}, "half_width"),
    ({"center": math.nan}, "center"),
    ({"scale": math.inf}, "scale"),
])
def test_degenerate_bump_test_function_is_an_error(kwargs, key):
    # half_width = 0 was silently the zero function, and half_width = -2
    # gave f(5) = 1 while its phase-space term came out 0
    with pytest.raises(PreconditionError, match=rf"^{key}\b"):
        TestFunction(kind="bump", **kwargs)


def test_bump_test_function_is_the_mollifier():
    E = np.linspace(2.0, 8.0, 601)
    u = (E - 5.0) / 2.0
    inside = np.abs(u) < 1.0
    expected = np.zeros_like(E)
    expected[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    assert np.array_equal(F_BUMP(E), expected)
    assert F_BUMP(5.0) == 1.0 and F_BUMP(3.0) == 0.0


def test_tail_bounds():
    # geometric-series bound from lambda_j >= (2j-1) h
    E = F_EXP.window_for_tail(1.0)
    assert math.exp(-E) / (1.0 - math.exp(-2.0)) <= 1e-14
    # the bump vanishes above its window, so nothing is left beyond it
    E = F_BUMP.window_for_tail(1.0)
    assert np.all(F_BUMP(np.linspace(E, E + 10.0, 101)) == 0.0)


def test_density_harmonic_closed_form():
    # sum of exp(-(2j-1) h) is the geometric series 1/(2 sinh h)
    d = spectral_density(harmonic(), 1.0, F_EXP)
    assert d == pytest.approx(1.0 / (2.0 * math.sinh(1.0)), abs=1e-9)
    assert d == pytest.approx(0.42545906, abs=1e-7)


def test_density_window_cap():
    slow = TestFunction(kind="exponential", scale=0.05)
    with pytest.raises(WindowCapError):
        spectral_density(harmonic(), 1.0, slow)


def test_density_nonincreasing_in_t():
    # raising the bump raises every level, decreasing sum exp(-lambda)
    n0 = spectral_density(harmonic(), 1.0, F_EXP)
    n1 = spectral_density(PotentialSpec(t=0.2, eps=0.0), 1.0, F_EXP)
    assert n1 < n0
    assert n1 > 0.0


@pytest.mark.parametrize("h", [0.5, 0.25])
def test_density_does_not_depend_on_the_parity_split(monkeypatch, h):
    # the oscillator's levels come from its parity blocks; the full matrix
    # must give the same density bit for bit
    split = spectral_density(harmonic(), h, F_EXP)
    monkeypatch.setattr(eigensolve, "_parity_blocks", lambda T: None)
    assert spectral_density(harmonic(), h, F_EXP) == split


def test_weyl_term_harmonic_exponential():
    # product of two Gaussian integrals: pi
    assert weyl_term(harmonic(), F_EXP) == pytest.approx(math.pi, abs=1e-9)


def test_weyl_term_harmonic_bump():
    # V = x^2 encloses phase-space area pi E, so a0 = pi * integral of f(E) dE
    area, _ = quad(F_BUMP, 3.0, 7.0, epsabs=1e-13, epsrel=1e-13)
    assert weyl_term(harmonic(), F_BUMP) == pytest.approx(math.pi * area, abs=1e-12)


def test_weyl_term_bump_matches_nested_quad():
    # values of the former nested adaptive quadrature (inner quad over xi)
    plus = PotentialSpec()
    assert weyl_term(plus, F_BUMP) == pytest.approx(7.560228495646896, abs=1e-12)
    assert weyl_term(plus, F_WIDE) == pytest.approx(22.745966742486264, abs=1e-12)


def test_weyl_term_bump_checks_both_error_estimates(monkeypatch):
    monkeypatch.setattr(traces, "WEYL_ABS_TOL", 1e-30)
    with pytest.raises(PreconditionError, match="outer"):
        weyl_term(harmonic(), F_BUMP)
    monkeypatch.undo()
    # two coarse rules disagree: the inner estimate must not be discarded
    (n_c, w_c), (n_f, w_f) = (np.polynomial.legendre.leggauss(n) for n in (4, 8))
    monkeypatch.setattr(traces, "_legendre_rules",
                        lambda: (np.concatenate((n_c, n_f)), w_c, w_f))
    with pytest.raises(PreconditionError, match="inner"):
        weyl_term(harmonic(), F_BUMP)


def test_weyl_term_breaks_at_the_bumps_support_edges(monkeypatch):
    import scipy.integrate
    seen = []

    def fake_quad(g, a, b, points=None, **kwargs):
        seen.append(list(points))
        return 0.0, 0.0

    monkeypatch.setattr(scipy.integrate, "quad", fake_quad)
    weyl_term(PotentialSpec(), F_EXP)
    # alpha on (-3, -2.25) and beta on (3, 3.5): edges and mirror images, once each
    moved = PotentialSpec(alpha=BumpSpec(center=-2.625, half_width=0.375),
                          beta=BumpSpec(center=3.25, half_width=0.25))
    weyl_term(moved, F_EXP)
    assert seen == [[-4.0, -3.0, -2.0, 2.0, 3.0, 4.0], [-3.5, -3.0, -2.25, 2.25, 3.0, 3.5]]


def test_weyl_term_pair_equality():
    plus = PotentialSpec()
    minus = plus.reflected()
    for f in (F_EXP, F_BUMP, F_WIDE):
        ap = weyl_term(plus, f)
        am = weyl_term(minus, f)
        assert abs(ap - am) <= 2e-10
    # energies up to 18 reach beta's support, so the check above is not vacuous
    beta_off = PotentialSpec(t=plus.t, eps=0.0)
    assert abs(weyl_term(plus, F_WIDE) - weyl_term(beta_off, F_WIDE)) > 1e-3


def test_weyl_consistency_closed_form(monkeypatch):
    # oracle: 2 pi h / (2 sinh h) = pi (1 - h^2/6 + 7 h^4/360 - ...)
    hs = [0.5, 0.4, 0.32, 0.25, 0.2, 0.16, 0.125, 0.1]
    monkeypatch.setattr(traces, "spectral_density", lambda p, h, f: 1.0 / (2.0 * math.sinh(h)))
    fit = weyl_consistency(harmonic(), F_EXP, hs)
    assert fit.nu_values == [1.0 / (2.0 * math.sinh(h)) for h in hs]
    assert fit.a0_fit == pytest.approx(math.pi, abs=1e-3)
    assert fit.a1_fit == pytest.approx(-math.pi / 6.0, rel=0.05)
    assert fit.max_fit_residual <= 1e-4


def test_weyl_consistency_preconditions():
    with pytest.raises(PreconditionError):
        weyl_consistency(harmonic(), F_EXP, [0.5, 0.4, 0.3])
    with pytest.raises(PreconditionError):
        weyl_consistency(harmonic(), F_EXP, [0.9, 0.5, 0.4, 0.3, 0.25, 0.2])


def test_isospectral_distance_mirror_pair():
    p = PotentialSpec(t=0.0, eps=0.05)
    grid = Grid(8.0, 4095)
    d = isospectral_distance(1.0, 20.0, p, p.reflected(), grid)
    assert d.D <= 1e-12


def test_isospectral_distance_swap_symmetric():
    plus = PotentialSpec()
    minus = plus.reflected()
    grid = Grid(8.0, 2047)
    d1 = isospectral_distance(1.0, 10.0, plus, minus, grid)
    d2 = isospectral_distance(1.0, 10.0, minus, plus, grid)
    assert d1.D == d2.D
    assert d1.n_levels == d2.n_levels == 5


def test_isospectral_distance_decreases_with_h():
    plus = PotentialSpec()
    minus = plus.reflected()
    grid = Grid(8.0, 4095)
    d1 = isospectral_distance(1.0, 10.0, plus, minus, grid).D
    d2 = isospectral_distance(0.25, 10.0, plus, minus, grid).D
    assert d1 > 0.0
    assert d2 < d1


def test_isospectral_distance_polishes_each_fine_grid_from_its_coarse_levels(monkeypatch):
    # every grid of both members is polished from seeds and none is bisected:
    # each coarse grid from the oscillator's levels, each fine grid from its
    # member's coarse levels
    calls = []
    levels = eigensolve._levels

    def recorded(op, E, check_margin=True, seeds=None, keep=0):
        spec = levels(op, E, check_margin, seeds, keep)
        calls.append((op.grid, seeds, spec))
        return spec

    monkeypatch.setattr(eigensolve, "_levels", recorded)
    plus = PotentialSpec()
    grid, h = Grid(8.0, 2047), 1.0
    isospectral_distance(h, 10.0, plus, plus.reflected(), grid)
    assert [g for g, _, _ in calls] == [grid.coarse()] * 2 + [grid] * 2
    # the oscillator's (2j - 1) h up to the cap; _levels takes the window's count
    oscillator = (2.0 * np.arange(1, eigensolve.LEVEL_CAP + 1) - 1.0) * h
    for _, seeds, _ in calls[:2]:
        np.testing.assert_array_equal(seeds, oscillator)
    for (_, _, coarse), (_, seeds, _) in zip(calls[:2], calls[2:]):
        np.testing.assert_array_equal(seeds, coarse.eigenvalues + coarse.eigenvalues_lo)


def test_fit_gap_decay_exact_model():
    hs = np.geomspace(0.3, 1.0, 8)
    entries = [(h, 2.0 * math.exp(-3.0 / h)) for h in hs]
    fit = fit_gap_decay(entries)
    assert fit.C == pytest.approx(2.0, abs=1e-10)
    assert fit.c == pytest.approx(3.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert fit.power_r_squared <= fit.r_squared


def test_fit_gap_decay_flags_power_law():
    hs = np.geomspace(0.25, 1.0, 10)
    entries = [(h, h ** 4) for h in hs]
    fit = fit_gap_decay(entries)
    assert fit.power_r_squared > fit.r_squared


def test_fit_gap_decay_needs_five_points():
    with pytest.raises(PreconditionError):
        fit_gap_decay([(1.0, 1e-3), (0.8, 1e-4), (0.6, 1e-5), (0.5, 1e-6)])


def test_superpoly_table_synthetic():
    entries = [GapEntry(h=h, E=2 * h, D=2.0 * math.exp(-9.0 / h),
                        error_estimate=1e-16, n_levels=1)
               for h in np.geomspace(0.5, 1.0, 6)]
    from specpair.traces import GapCurve
    curve = GapCurve(entries=entries, noise_floor=1e-12)
    table = superpoly_decay_table(curve)
    assert all(row["monotone"] for row in table.values())


def test_gap_sweep_mirror_pair_below_floor():
    p = PotentialSpec(t=0.0, eps=0.05)
    curve = gap_sweep(p, p.reflected(), np.geomspace(0.5, 1.0, 6),
                      Grid(8.0, 2047), window="ground")
    assert not curve.usable_entries()
    assert curve.fit is None
    assert curve.noise_floor >= 1e-12


def test_gap_sweep_empty_h_list_is_an_error():
    plus = PotentialSpec()
    minus = plus.reflected()
    with pytest.raises(PreconditionError, match="h_list"):
        gap_sweep(plus, minus, [], Grid(8.0, 1023), window="ground")


def test_gap_sweep_defaults_fit():
    plus = PotentialSpec()
    minus = plus.reflected()
    curve = gap_sweep(plus, minus, np.geomspace(0.25, 1.0, 12),
                      Grid(8.0, 4095), window="ground")
    usable = curve.usable_entries()
    assert len(usable) >= 5
    assert curve.fit is not None
    assert curve.fit.c > 0.0
    assert curve.fit.r_squared >= 0.98
    assert curve.fit.power_r_squared <= curve.fit.r_squared
    table = superpoly_decay_table(curve)
    for N in (2, 4, 6, 8):
        assert table[N]["monotone"]
    # entries below the floor are reported, not hidden
    assert any(not e.usable for e in curve.entries)
