import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specpair import _dd, eigensolve
from specpair.cli import charpoly_roots
from specpair.errors import (ConvergenceError, GridMarginError, PreconditionError,
                             WindowCapError)
from specpair.potential import PotentialSpec, default_pair, harmonic
from specpair.eigensolve import (
    Grid,
    count_below,
    discretize,
    eigenvalues_below,
    eigenvector,
    grid_pair,
    refine,
)

EPS = np.finfo(float).eps


def test_grid_nodes_exactly_symmetric():
    g = Grid(8.0, 4095)
    x = g.nodes()
    assert np.array_equal(x, -x[::-1])
    assert x[2047] == 0.0
    assert g.dx == pytest.approx(16.0 / 4096, rel=1e-16)


def test_grid_pair_ratio():
    gf, gc = grid_pair(8.0, 4096)
    assert gf.n == 4095 and gc.n == 2047
    assert gf.n + 1 == 2 * (gc.n + 1)
    with pytest.raises(PreconditionError):
        grid_pair(8.0, 4097)


def test_discretize_entries():
    g = Grid(8.0, 999)
    T = discretize(harmonic(), 1.0, g)
    x = g.nodes()
    s = 1.0 / (g.dx * g.dx)
    assert np.array_equal(T.diag, 2.0 * s + x * x)
    assert np.all(T.offdiag == -s)
    assert np.all(T.diag >= 2.0 * s)


def test_discretize_reflected_reverses_diagonal():
    g = Grid(8.0, 1023)
    p = PotentialSpec(t=0.0, eps=0.05)
    Tp = discretize(p, 1.0, g)
    Tm = discretize(p.reflected(), 1.0, g)
    assert np.array_equal(Tp.diag, Tm.diag[::-1])


def test_margin_guard_in_eigenvalues_below_and_refine():
    # V(L) = 16 on L = 4 leaves less than 10 above the window E = 10
    T = discretize(harmonic(), 1.0, Grid(4.0, 511))
    with pytest.raises(GridMarginError, match="increase L"):
        eigenvalues_below(T, 10.0)
    with pytest.raises(GridMarginError, match="increase L"):
        refine(harmonic(), 1.0, 10.0, *grid_pair(4.0, 512))
    assert len(eigenvalues_below(T, 10.0, check_margin=False)) == 5


def test_count_below_harmonic():
    g = Grid(8.0, 2047)
    T = discretize(harmonic(), 1.0, g)
    assert count_below(T, 0.0) == 0
    assert count_below(T, 6.0) == 3
    T5 = discretize(harmonic(), 0.5, g)
    assert count_below(T5, 2.0) == 2


def test_count_below_at_near_eigenvalue():
    g = Grid(8.0, 511)
    T = discretize(harmonic(), 1.0, g)
    lam1 = float(eigenvalues_below(T, 2.0).eigenvalues[0])
    # probing exactly at a computed eigenvalue must not crash or mislead
    assert count_below(T, lam1) in (0, 1)
    assert count_below(T, np.nextafter(lam1, 2.0) + 1e-12) == 1


def test_tiny_instance_charpoly_oracle():
    g = Grid(3.0, 7)
    T = discretize(harmonic(), 1.0, g)
    spec = eigenvalues_below(T, 1e6, check_margin=False)
    roots = charpoly_roots(T.diag, T.off_value ** 2)
    assert len(spec) == 7
    np.testing.assert_allclose(spec.eigenvalues + spec.eigenvalues_lo, roots,
                               atol=1e-12, rtol=0)


def test_harmonic_window_h1():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 1.0, g)
    spec = eigenvalues_below(T, 10.0)
    lam = spec.eigenvalues + spec.eigenvalues_lo
    np.testing.assert_allclose(lam, [1, 3, 5, 7, 9], atol=1e-4, rtol=0)
    gaps = np.diff(lam)
    assert np.all(gaps > 0)
    # simplicity with margin over the bracket
    assert np.min(gaps) > 10 * eigensolve.BRACKET_REL * 10.0


def test_harmonic_window_small_h():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 0.1, g)
    spec = eigenvalues_below(T, 1.0)
    np.testing.assert_allclose(spec.eigenvalues + spec.eigenvalues_lo,
                               np.arange(0.1, 1.0, 0.2), atol=1e-3, rtol=0)


def test_window_cap():
    # 1023 levels lie below 1e6; the matrix, not the continuum, is at stake
    T = discretize(harmonic(), 0.1, Grid(8.0, 1023))
    with pytest.raises(WindowCapError, match="cap is 512"):
        eigenvalues_below(T, 1e6, check_margin=False)


def test_polish_outside_bracket_is_an_error(monkeypatch):
    # asymmetric, so the full matrix is iterated and levels lie ~2h apart
    T = discretize(default_pair()[0], 1.0, Grid(8.0, 511))
    assert eigensolve._parity_blocks(T) is None
    inverse_iteration = eigensolve._inverse_iteration
    # every level polished with the vector of the level above
    monkeypatch.setattr(eigensolve, "_inverse_iteration",
                        lambda T, lam: inverse_iteration(T, lam + 2.0))
    with pytest.raises(ConvergenceError, match="bracket"):
        eigenvalues_below(T, 6.0)


def test_polish_outside_bracket_is_an_error_in_a_parity_block(monkeypatch):
    T = discretize(harmonic(), 1.0, Grid(8.0, 511))
    assert eigensolve._parity_blocks(T) is not None
    inverse_iteration = eigensolve._inverse_iteration
    # a block holds every other level, so the next one of its parity is 4h up
    monkeypatch.setattr(eigensolve, "_inverse_iteration",
                        lambda T, lam: inverse_iteration(T, lam + 4.0))
    with pytest.raises(ConvergenceError, match="bracket"):
        eigenvalues_below(T, 6.0)


def test_inverse_iteration_midway_does_not_converge():
    T = discretize(harmonic(), 1.0, Grid(8.0, 511))
    lam = eigenvalues_below(T, 4.0).eigenvalues
    # equidistant from two levels the iterates alternate between them
    with pytest.raises(ConvergenceError, match="residual bound"):
        eigensolve._inverse_iteration(T, 0.5 * (lam[0] + lam[1]))


def test_polish_factors_once_per_level(monkeypatch):
    calls = {"dgttrf": 0, "dgttrs": 0}

    def counted(name):
        fn = getattr(eigensolve, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(eigensolve, name, counted(name))
    T = discretize(harmonic(), 0.5, Grid(8.0, 4095))
    spec = eigenvalues_below(T, 8.0)
    assert len(spec) == 8
    assert calls["dgttrf"] == len(spec)
    # a shift up to t/2 = 4e-5 from its level gains ~5 digits a step against
    # the same-parity gap of 2: three steps reach the 8 eps ||T||_1 residual
    # floor and one more solve confirms the vector
    assert calls["dgttrs"] <= 4 * len(spec)


@pytest.mark.parametrize("h, n, E", [(1.0, 511, 20.0), (0.5, 1023, 10.0),
                                     (0.3, 2047, 9.0), (0.25, 4095, 10.0),
                                     (0.1, 16383, 10.0)])
def test_parity_blocks_match_full_matrix(monkeypatch, h, n, E):
    T = discretize(harmonic(), h, Grid(8.0, n))
    assert eigensolve._parity_blocks(T) is not None
    blocks = eigenvalues_below(T, E)
    monkeypatch.setattr(eigensolve, "_parity_blocks", lambda T: None)
    full = eigenvalues_below(T, E)
    assert count_below(T, E) == len(blocks) == len(full)
    np.testing.assert_array_equal(blocks.eigenvalues, full.eigenvalues)
    # the paths iterate from different shifts, so the low parts differ in the
    # rounding of the Rayleigh correction, far below a few ulps of the bracket
    width = eigensolve.BRACKET_REL * max(1.0, E)   # E lies below the Gershgorin top
    assert np.max(np.abs(blocks.eigenvalues_lo - full.eigenvalues_lo)) <= 8 * EPS * width


def test_parity_blocks_need_odd_n_and_palindromic_diagonal():
    assert eigensolve._parity_blocks(discretize(harmonic(), 1.0, Grid(8.0, 512))) is None
    assert eigensolve._parity_blocks(
        discretize(PotentialSpec(t=0.0, eps=0.05), 1.0, Grid(8.0, 511))) is None
    T = discretize(harmonic(), 1.0, Grid(8.0, 511))
    (even, even_parity), (odd, odd_parity) = eigensolve._parity_blocks(T)
    assert (even.n, odd.n) == (256, 255)
    assert (even_parity, odd_parity) == (1, -1)


@pytest.mark.parametrize("h, n, E", [(1.0, 511, 20.0), (0.25, 4095, 10.0),
                                     (0.1, 16383, 10.0)])
def test_half_grid_correction_matches_the_unfolded_vector(h, n, E):
    # the block vector z stands for an even or odd vector u of T; its
    # Rayleigh correction on half the grid is the one over all of T
    T = discretize(harmonic(), h, Grid(8.0, n))
    lam = eigenvalues_below(T, E).eigenvalues
    m = n // 2
    for B, parity in eigensolve._parity_blocks(T):
        for mid in lam[(parity < 0)::2]:
            z, shift = eigensolve._inverse_iteration(B, mid + 1e-6)
            u = np.zeros(n)
            u[m + 1:] = z[parity > 0:]
            u[:m] = parity * u[:m:-1]
            if parity > 0:
                u[m] = z[0] * math.sqrt(2.0)
            full = _dd.rayleigh_correction(T.diag, T.off_value, u, shift)
            half = eigensolve._rayleigh_correction(T, z, shift, parity)
            assert abs(half - full) <= EPS * abs(full) + 4 * EPS ** 2 * T.norm1()


def test_bracket_width_depends_on_the_effective_top():
    # every window above the Gershgorin top holds the whole spectrum and
    # brackets it alike, so E = 1e6 and E = top + 1 agree bit for bit
    T = discretize(harmonic(), 1.0, Grid(3.0, 7))
    top = float(np.max(T.diag)) + 2.0 * abs(T.off_value)
    far = eigenvalues_below(T, 1e6, check_margin=False)
    near = eigenvalues_below(T, top + 1.0, check_margin=False)
    assert len(far) == len(near) == 7
    np.testing.assert_array_equal(far.eigenvalues, near.eigenvalues)
    np.testing.assert_array_equal(far.eigenvalues_lo, near.eigenvalues_lo)
    np.testing.assert_array_equal(far.error_estimate, near.error_estimate)


def test_splitting_below_the_floor_does_not_depend_on_the_bracket(monkeypatch):
    # the default pair's ground splitting at h = 0.25 is ~1.1e-21, nine decades
    # below the gap-sweep floor; a 1e4 times tighter bracket moves it only in
    # rounding because the polish corrects about inverse iteration's estimate
    plus, minus = default_pair()
    gf, gc = grid_pair(8.0, 4096)

    def splitting():
        return float(refine(plus, 0.25, 0.5, gf, gc).gaps_to(
            refine(minus, 0.25, 0.5, gf, gc))[0])

    wide = splitting()
    monkeypatch.setattr(eigensolve, "BRACKET_REL", 1e-9)
    tight = splitting()
    assert 1e-22 < tight < 1e-20
    assert abs(wide - tight) <= 1e-4 * tight


def test_window_at_the_level_cap_converges():
    # ~500 levels 0.04 apart, near LEVEL_CAP: the densest window a bracket
    # of 2e-4 must separate
    T = discretize(harmonic(), 0.02, Grid(8.0, 16383))
    spec = eigenvalues_below(T, 20.0)
    assert 500 <= len(spec) <= eigensolve.LEVEL_CAP
    assert len(spec) == count_below(T, 20.0)
    assert np.all(np.diff(spec.eigenvalues + spec.eigenvalues_lo) > 0.0)


@pytest.mark.parametrize("h, E", [(1.0, 10.0), (0.5, 8.0), (0.1, 1.0)])
def test_unrefined_error_estimate_is_the_residual_floor(h, E):
    T = discretize(harmonic(), h, Grid(8.0, 4095))
    spec = eigenvalues_below(T, E)
    lam = spec.eigenvalues + spec.eigenvalues_lo
    bound = 8 * EPS * T.norm1() + 8 * EPS * np.maximum(1.0, np.abs(lam))
    assert np.all(spec.error_estimate <= bound)
    # far below half the bracket width, which used to be reported
    assert np.all(spec.error_estimate < 1e-3 * eigensolve.BRACKET_REL * max(1.0, E))


def test_refine_harmonic_accuracy():
    gf, gc = grid_pair(8.0, 4096)
    spec = refine(harmonic(), 1.0, 10.0, gf, gc)
    lam = spec.eigenvalues + spec.eigenvalues_lo
    np.testing.assert_allclose(lam, [1, 3, 5, 7, 9], atol=2e-9, rtol=0)
    assert np.all(spec.error_estimate >= 0.0)


def test_refine_grid_preconditions():
    g = Grid(8.0, 4095)
    with pytest.raises(PreconditionError):
        refine(harmonic(), 1.0, 10.0, g, g)
    with pytest.raises(PreconditionError):
        refine(harmonic(), 1.0, 10.0, g, Grid(8.0, 2046))
    with pytest.raises(PreconditionError):
        refine(harmonic(), 1.0, 10.0, g, Grid(6.0, 2047))


def test_eigenvector_ground_state_gaussian():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 1.0, g)
    lam1 = float(eigenvalues_below(T, 2.0).eigenvalues[0])
    u = eigenvector(T, lam1)
    # u(0)^2 = 1/sqrt(pi) for the normalized Gaussian ground state
    i0 = 2047
    assert g.nodes()[i0] == 0.0
    assert u[i0] ** 2 == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)
    assert np.all(u > 0.0)
    assert g.dx * np.dot(u, u) == pytest.approx(1.0, abs=1e-13)


def test_eigenvector_first_excited_odd():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 1.0, g)
    spec = eigenvalues_below(T, 4.0)
    u = eigenvector(T, float(spec.eigenvalues[1]))
    assert abs(u[2047]) <= 1e-8


def test_eigenvector_perturbed_ground_positive():
    g = Grid(8.0, 4095)
    p, _ = default_pair()
    T = discretize(p, 1.0, g)
    lam1 = float(eigenvalues_below(T, 2.0).eigenvalues[0])
    u = eigenvector(T, lam1)
    assert np.all(u > 0.0)


def test_reflection_isospectrality_t_zero():
    g = Grid(8.0, 4095)
    p = PotentialSpec(t=0.0, eps=0.05)
    sp = eigenvalues_below(discretize(p, 1.0, g), 20.0)
    sm = eigenvalues_below(discretize(p.reflected(), 1.0, g), 20.0)
    assert len(sp) == len(sm) == 10
    assert float(np.max(np.abs(sp.gaps_to(sm)))) <= 1e-12


def test_ground_state_monotone_in_t():
    g = Grid(8.0, 2047)
    lams = []
    for t in (0.0, 0.05, 0.1, 0.2):
        p = PotentialSpec(t=t, eps=0.0)
        lams.append(float(eigenvalues_below(discretize(p, 1.0, g), 2.0).eigenvalues[0]))
    assert all(b >= a for a, b in zip(lams, lams[1:]))


def test_ground_state_above_h_with_bumps():
    gf, gc = grid_pair(8.0, 8192)
    p, _ = default_pair()
    spec = refine(p, 0.85, 2.0, gf, gc)
    assert spec.value(1) > 0.85 + 10.0 * float(spec.error_estimate[0])


def test_ground_state_at_h_bare():
    gf, gc = grid_pair(8.0, 4096)
    spec = refine(harmonic(), 0.85, 2.0, gf, gc)
    assert abs(spec.value(1) - 0.85) <= max(float(spec.error_estimate[0]), 1e-11)


@pytest.mark.parametrize("j", [0, -1, 4])
def test_spectrum_value_outside_the_window_is_an_error(j):
    # value(0) used to return the top level, value(4) a bare IndexError
    spec = refine(harmonic(), 1.0, 6.0, *grid_pair(8.0, 1024))
    assert len(spec) == 3
    assert spec.value(3) == pytest.approx(5.0, abs=1e-6)
    with pytest.raises(PreconditionError, match=rf"j = {j} is outside 1\.\.3"):
        spec.value(j)


def test_spectrum_csv_rows():
    g = Grid(8.0, 1023)
    spec = eigenvalues_below(discretize(harmonic(), 1.0, g), 4.0)
    rows = list(spec.to_csv_rows())
    assert [r["j"] for r in rows] == [1, 2]
    assert set(rows[0]) == {"h", "j", "lambda", "error_estimate"}


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 0.2), eps=st.floats(0.0, 0.2))
def test_extraction_properties(t, eps):
    g = Grid(8.0, 511)
    p = PotentialSpec(t=t, eps=eps)
    T = discretize(p, 1.0, g)
    spec = eigenvalues_below(T, 8.0)
    assert count_below(T, 8.0) == len(spec)
    assert np.all(np.diff(spec.eigenvalues + spec.eigenvalues_lo) > 0.0)
    p0 = PotentialSpec(t=0.0, eps=eps)
    s0 = eigenvalues_below(discretize(p0, 1.0, g), 8.0)
    sm = eigenvalues_below(discretize(p0.reflected(), 1.0, g), 8.0)
    assert len(s0) == len(sm)
    assert float(np.max(np.abs(s0.gaps_to(sm)))) <= 1e-11


# ---------------------------------------------------------------------------
# fine grids polished from coarse-grid seeds
# ---------------------------------------------------------------------------

def _seeds(spec):
    return spec.eigenvalues + spec.eigenvalues_lo


@settings(max_examples=20, deadline=None)
@given(t=st.floats(0.0, 0.2), eps=st.floats(0.0, 0.2), reflect=st.booleans(),
       h=st.sampled_from([1.0, 0.5, 0.25]), half=st.integers(512, 2048),
       k=st.integers(1, 6))
def test_seeded_levels_match_bisection(t, eps, reflect, h, half, k):
    p = PotentialSpec(t=t, eps=eps, reflect_beta=reflect)
    gf, gc = grid_pair(8.0, 2 * half)
    # a window edge midway between two coarse levels holds the same levels
    # on both grids
    lam_c = _seeds(eigenvalues_below(discretize(p, h, gc), (2 * k + 4) * h))
    E = 0.5 * (lam_c[k - 1] + lam_c[k])
    coarse = eigenvalues_below(discretize(p, h, gc), E)
    T = discretize(p, h, gf)
    seeded = eigensolve._levels(T, E, seeds=_seeds(coarse))
    bisected = eigenvalues_below(T, E)
    assert len(seeded) == len(bisected) == k
    np.testing.assert_array_equal(seeded.eigenvalues, bisected.eigenvalues)
    np.testing.assert_array_equal(seeded.error_estimate, bisected.error_estimate)
    width = eigensolve.BRACKET_REL * max(1.0, E)   # E lies below the Gershgorin top
    assert np.max(np.abs(seeded.eigenvalues_lo - bisected.eigenvalues_lo)) <= 8 * EPS * width


@pytest.mark.parametrize("p", [default_pair()[0], harmonic()])
@pytest.mark.parametrize("edit", ["drop", "duplicate"])
def test_seeds_missing_or_repeating_a_level_raise(p, edit):
    gf, gc = grid_pair(8.0, 2048)
    seeds = _seeds(eigenvalues_below(discretize(p, 1.0, gc), 10.0))
    assert seeds.size == 5
    if edit == "drop":
        seeds = np.delete(seeds, 2)
    else:   # the count still matches, but level 2 is found twice and 3 not at all
        seeds[3] = seeds[2]
    with pytest.raises(ConvergenceError):
        eigensolve._levels(discretize(p, 1.0, gf), 10.0, seeds=seeds)


def test_refine_falls_back_to_bisection_when_seeds_fail():
    # on this coarse pair the seeded polish runs out of inverse iteration steps
    p = PotentialSpec(t=0.16263274783891218, eps=0.16402780832539135, reflect_beta=True)
    h, E = 0.25, 2.8284595777386414
    gf, gc = grid_pair(8.0, 256)
    Tf, Tc = discretize(p, h, gf), discretize(p, h, gc)
    coarse = eigenvalues_below(Tc, E)
    with pytest.raises(ConvergenceError):
        eigensolve._levels(Tf, E, seeds=_seeds(coarse))
    got = refine(p, h, E, gf, gc)
    want = eigensolve._richardson_combine(eigenvalues_below(Tf, E), coarse)
    np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
    np.testing.assert_array_equal(got.eigenvalues_lo, want.eigenvalues_lo)
    np.testing.assert_array_equal(got.error_estimate, want.error_estimate)


@pytest.mark.parametrize("p, h, E", [(harmonic(), 0.16, 16.0),
                                     (default_pair()[0], 0.5, 6.0)])
def test_refine_polishes_fine_levels_without_bisecting(monkeypatch, p, h, E):
    factorizations, solves, stebz = [], [], []
    dgttrf, dgttrs = eigensolve.dgttrf, eigensolve.dgttrs
    stebz_fn = eigensolve.eigvalsh_tridiagonal

    def counted_dgttrf(dl, d, du):
        factorizations.append(d.size)
        return dgttrf(dl, d, du)

    def counted_dgttrs(*args):
        solves.append(None)
        return dgttrs(*args)

    def recorded_stebz(d, e, **kwargs):
        lo, hi = kwargs["select_range"]
        stebz.append((d.size, kwargs["tol"], hi - lo))
        return stebz_fn(d, e, **kwargs)

    monkeypatch.setattr(eigensolve, "dgttrf", counted_dgttrf)
    monkeypatch.setattr(eigensolve, "dgttrs", counted_dgttrs)
    monkeypatch.setattr(eigensolve, "eigvalsh_tridiagonal", recorded_stebz)
    gf, gc = grid_pair(8.0, 16384)
    spec = refine(p, h, E, gf, gc)
    Tf = discretize(p, h, gf)
    n_f, n_c = count_below(Tf, E), count_below(discretize(p, h, gc), E)
    assert len(spec) == n_f == n_c
    assert len(factorizations) == n_f + n_c
    # shifted by how far the previous level of its block moved, a seed needs
    # no more solves than a bracket midpoint; unshifted seeds take 413 solves
    # for the 100 levels of both grids at h = 0.16
    assert len(solves) <= 4 * (n_f + n_c)
    # no coarse operator or block has as many rows as a fine one
    fine_rows = {B.n for B, _ in eigensolve._parity_blocks(Tf) or ((Tf, 0),)}
    fine = [(tol, width) for n, tol, width in stebz if n in fine_rows]
    assert len(fine) == len(fine_rows)
    assert all(tol >= width for tol, width in fine)
