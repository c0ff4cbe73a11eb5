import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from specpair import _dd, eigensolve
from specpair.cli import charpoly_roots
from specpair.errors import (ConvergenceError, GridMarginError, PreconditionError,
                             WindowCapError)
from specpair.potential import PotentialSpec, harmonic
from specpair.eigensolve import (
    Grid,
    count_below,
    discretize,
    eigenvalues_below,
    eigenvector,
    refine,
)

EPS = np.finfo(float).eps


def _norm1(T):
    """The bound max|diag| + 2|off| on ||T||_1."""
    return float(np.max(np.abs(T.diag))) + 2.0 * abs(T.off_value)


def test_grid_nodes_exactly_symmetric():
    g = Grid(8.0, 4095)
    x = g.nodes()
    assert np.array_equal(x, -x[::-1])
    assert x[2047] == 0.0
    assert g.dx == pytest.approx(16.0 / 4096, rel=1e-16)


def test_coarse_grid_ratio():
    gf = Grid(8.0, 4095)
    gc = gf.coarse()
    assert gc == Grid(8.0, 2047)
    assert gf.n + 1 == 2 * (gc.n + 1)
    assert gc.coarse().coarse() == Grid(8.0, 511)
    with pytest.raises(PreconditionError, match=r"Grid\(L=8\.0, n=4096\)"):
        Grid(8.0, 4096).coarse()


@pytest.mark.parametrize("intervals", [16, 2048, 4096, 8192, 16000, 16384])
def test_coarse_grid_is_every_other_node(intervals):
    g = Grid(8.0, intervals - 1)
    c = g.coarse()
    assert c.dx == 2.0 * g.dx
    assert np.array_equal(c.nodes(), g.nodes()[1::2])


@pytest.mark.parametrize("n", [3, 5, 6])
def test_grid_needs_seven_points(n):
    # so that every parity block of a mirror-symmetric operator has >= 3 rows
    message = f"at least 7 interior points, got {n}"
    with pytest.raises(PreconditionError, match=message):
        Grid(8.0, n)
    fine = Grid(8.0, 2 * n + 1)
    with pytest.raises(PreconditionError, match=message):
        fine.coarse()


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
        refine(harmonic(), 1.0, 10.0, Grid(4.0, 511))
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
    T = discretize(PotentialSpec(), 1.0, Grid(8.0, 511))
    assert eigensolve._parity_blocks(T) is None
    inverse_iteration = eigensolve._inverse_iteration
    # every level polished with the vector of the level above, so the top
    # one lands above E and no start certifies the window
    monkeypatch.setattr(eigensolve, "_inverse_iteration",
                        lambda d, e, floor, lam, v, confirm:
                        inverse_iteration(d, e, floor, lam + 2.0, v, confirm))
    with pytest.raises(ConvergenceError, match="did not certify the window"):
        eigenvalues_below(T, 6.0)


def test_polish_outside_bracket_is_an_error_in_a_parity_block(monkeypatch):
    T = discretize(harmonic(), 1.0, Grid(8.0, 511))
    assert eigensolve._parity_blocks(T) is not None
    inverse_iteration = eigensolve._inverse_iteration
    # a block holds every other level, so the next one of its parity is 4h up
    monkeypatch.setattr(eigensolve, "_inverse_iteration",
                        lambda d, e, floor, lam, v, confirm:
                        inverse_iteration(d, e, floor, lam + 4.0, v, confirm))
    with pytest.raises(ConvergenceError, match="did not certify the window"):
        eigenvalues_below(T, 6.0)


def test_inverse_iteration_midway_does_not_converge():
    T = discretize(harmonic(), 1.0, Grid(8.0, 511))
    lam = eigenvalues_below(T, 4.0).eigenvalues
    # equidistant from two levels the iterates alternate between them, from
    # a start with a part in either level's vector
    vectors = eigensolve._oscillator_vectors(T.grid.nodes(), 0)
    v = next(vectors) + next(vectors)
    with pytest.raises(ConvergenceError, match="residual bound"):
        eigensolve._inverse_iteration(T.diag, T.offdiag, eigensolve._floor(T.diag, T.off_value),
                                      0.5 * (lam[0] + lam[1]), v / np.linalg.norm(v))


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
    # each level starts from its oscillator level and eigenfunction, and
    # inverse iteration stops at the first iterate that reaches the
    # 8 eps ||T||_1 residual floor; no value takes a confirming solve
    # (11 solves here)
    assert calls["dgttrs"] <= 3 * len(spec)


@pytest.mark.parametrize("p, rows", [(harmonic(), [1023, 512, 511]), (PotentialSpec(), [1023])],
                         ids=["mirror", "asymmetric"])
def test_the_floor_is_computed_once_per_block(monkeypatch, p, rows):
    # the operator's floor serves the window, its certificate and every estimate;
    # each parity block of a mirror-symmetric one takes its own, once
    floor = eigensolve._floor
    calls = []

    def counted(diag, off):
        calls.append(diag.size)
        return floor(diag, off)

    monkeypatch.setattr(eigensolve, "_floor", counted)
    T = discretize(p, 0.5, Grid(8.0, 1023))
    levels = []
    for E in (2.0, 8.0):
        calls.clear()
        levels.append(len(eigenvalues_below(T, E)))
        assert calls == rows
    assert levels[0] < levels[1]


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
    assert (even.diag.size, odd.diag.size) == (256, 255)
    assert (even_parity, odd_parity) == (1, -1)


@pytest.mark.parametrize("h, n, E", [(1.0, 511, 20.0), (0.25, 4095, 10.0),
                                     (0.1, 16383, 10.0)])
def test_half_grid_correction_matches_the_unfolded_vector(h, n, E):
    # the block vector z stands for an even or odd vector u of T; its
    # Rayleigh correction on half the grid is the one over all of T
    T = discretize(harmonic(), h, Grid(8.0, n))
    lam = eigenvalues_below(T, E).eigenvalues
    m = n // 2
    xi = T.grid.nodes() / math.sqrt(h)
    for B, parity in eigensolve._parity_blocks(T):
        vectors = eigensolve._oscillator_vectors(xi[n - B.diag.size:], parity)
        for mid, v in zip(lam[(parity < 0)::2], vectors):
            z, shift = eigensolve._inverse_iteration(*B, mid + 1e-6, v)
            u = np.zeros(n)
            u[m + 1:] = z[parity > 0:]
            u[:m] = parity * u[:m:-1]
            if parity > 0:
                u[m] = z[0] * math.sqrt(2.0)
            full = _dd.rayleigh_correction(T.diag, T.off_value, u, shift)
            half = eigensolve._rayleigh_correction(T, z, shift, parity)
            assert abs(half - full) <= EPS * abs(full) + 4 * EPS ** 2 * _norm1(T)


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
    plus = PotentialSpec()
    minus = plus.reflected()
    g = Grid(8.0, 4095)

    def splitting():
        return float(refine(plus, 0.25, 0.5, g).gaps_to(refine(minus, 0.25, 0.5, g))[0])

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
    bound = 8 * EPS * _norm1(T) + 8 * EPS * np.maximum(1.0, np.abs(lam))
    assert np.all(spec.error_estimate <= bound)
    # far below half the bracket width, which used to be reported
    assert np.all(spec.error_estimate < 1e-3 * eigensolve.BRACKET_REL * max(1.0, E))


def test_refine_harmonic_accuracy():
    spec = refine(harmonic(), 1.0, 10.0, Grid(8.0, 4095))
    lam = spec.eigenvalues + spec.eigenvalues_lo
    np.testing.assert_allclose(lam, [1, 3, 5, 7, 9], atol=2e-9, rtol=0)
    assert np.all(spec.error_estimate >= 0.0)


def test_eigenvector_ground_state_gaussian():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 1.0, g)
    _, u = eigenvector(T, 2.0, 1)
    # u(0)^2 = 1/sqrt(pi) for the normalized Gaussian ground state
    i0 = 2047
    assert g.nodes()[i0] == 0.0
    assert u[i0] ** 2 == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)
    assert np.all(u > 0.0)
    assert g.dx * np.dot(u, u) == pytest.approx(1.0, abs=1e-13)


def test_eigenvector_first_excited_odd():
    g = Grid(8.0, 4095)
    T = discretize(harmonic(), 1.0, g)
    _, u = eigenvector(T, 4.0, 2)
    assert abs(u[2047]) <= 1e-8


def test_eigenvector_perturbed_ground_positive():
    g = Grid(8.0, 4095)
    p = PotentialSpec()
    T = discretize(p, 1.0, g)
    _, u = eigenvector(T, 2.0, 1)
    assert np.all(u > 0.0)


@pytest.mark.parametrize("p", [harmonic(), PotentialSpec()], ids=["parity", "full"])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_eigenvector_matches_lapack(p, j):
    # the vector the polish kept for level j is LAPACK's, up to sign
    g = Grid(8.0, 4095)
    T = discretize(p, 1.0, g)
    _, u = eigenvector(T, 9.5, j)
    _, v = eigh_tridiagonal(T.diag, T.offdiag, select="i", select_range=(j - 1, j - 1))
    v = v[:, 0] / np.sqrt(g.dx * np.dot(v[:, 0], v[:, 0]))
    assert min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) <= 1e-10
    if p == harmonic():
        assert np.array_equal(u, (-1) ** (j - 1) * u[::-1])


@pytest.mark.parametrize("p", [harmonic(), PotentialSpec()], ids=["parity", "full"])
def test_eigenvector_keeps_one_vector(monkeypatch, p):
    # five levels are polished, and only level 3's vector is expanded and kept
    T = discretize(p, 1.0, Grid(8.0, 4095))
    expanded = []
    full_vector = eigensolve._full_vector
    monkeypatch.setattr(eigensolve, "_full_vector",
                        lambda z, parity: expanded.append(parity) or full_vector(z, parity))
    spec, _ = eigenvector(T, 9.5, 3)
    assert len(spec) == 5
    assert len(expanded) == 1


@pytest.mark.parametrize("p", [harmonic(), PotentialSpec()], ids=["parity", "full"])
@pytest.mark.parametrize("j", [1, 4])
def test_eigenvector_takes_one_confirming_solve(monkeypatch, p, j):
    # a value stops at its certified iterate; the handed-out vector alone
    # takes one more solve
    T = discretize(p, 1.0, Grid(8.0, 4095))
    solves = []
    dgttrs = eigensolve.dgttrs
    monkeypatch.setattr(eigensolve, "dgttrs", lambda *args: solves.append(None) or dgttrs(*args))
    spec = eigensolve._levels(T, 9.5)
    values = len(solves)
    solves.clear()
    kept, _ = eigenvector(T, 9.5, j)
    assert len(solves) == values + 1
    np.testing.assert_array_equal(kept.eigenvalues, spec.eigenvalues)


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
    p = PotentialSpec()
    spec = refine(p, 0.85, 2.0, Grid(8.0, 8191))
    assert spec.value(1) > 0.85 + 10.0 * float(spec.error_estimate[0])


def test_ground_state_at_h_bare():
    spec = refine(harmonic(), 0.85, 2.0, Grid(8.0, 4095))
    assert abs(spec.value(1) - 0.85) <= max(float(spec.error_estimate[0]), 1e-11)


@pytest.mark.parametrize("j", [0, -1, 4])
def test_spectrum_value_outside_the_window_is_an_error(j):
    # value(0) used to return the top level, value(4) a bare IndexError
    spec = refine(harmonic(), 1.0, 6.0, Grid(8.0, 1023))
    assert len(spec) == 3
    assert spec.value(3) == pytest.approx(5.0, abs=1e-6)
    with pytest.raises(PreconditionError, match=rf"j = {j} is outside 1\.\.3"):
        spec.value(j)


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
       k=st.integers(1, 25))
# a coarse pair (dx = 0.25 and 0.5 at h = 1) whose moves grow too fast to
# extrapolate: level 3's seed is 0.05 off, yet its oscillator eigenfunction
# start certifies it
@example(t=0.16263274783891218, eps=0.16402780832539135, reflect=True, h=1.0, half=32, k=3)
def test_seeded_levels_match_bisection(t, eps, reflect, h, half, k):
    # up to 25 levels, the most whose window keeps V(L) >= E + 10 at h = 1,
    # so most seeds are extrapolated from three moves of their block
    p = PotentialSpec(t=t, eps=eps, reflect_beta=reflect)
    gf = Grid(8.0, 2 * half - 1)
    gc = gf.coarse()
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


@pytest.mark.parametrize("p", [PotentialSpec(), harmonic()])
@pytest.mark.parametrize("edit", ["drop", "duplicate"])
def test_seeds_missing_or_repeating_a_level_raise(p, edit):
    gf = Grid(8.0, 2047)
    gc = gf.coarse()
    seeds = _seeds(eigenvalues_below(discretize(p, 1.0, gc), 10.0))
    assert seeds.size == 5
    if edit == "drop":
        seeds = np.delete(seeds, 2)
    else:   # the count still matches, but level 2 is found twice and 3 not at all
        seeds[3] = seeds[2]
    with pytest.raises(ConvergenceError):
        eigensolve._levels(discretize(p, 1.0, gf), 10.0, seeds=seeds)


def test_refine_falls_back_to_bisection_when_seeds_fail():
    # on this coarse pair (dx = 0.5 and 1 at h = 1) with strong bumps the
    # coarse levels lie too far from the fine ones: level 2's seed is 0.18
    # off, and inverse iteration runs out of steps
    p = PotentialSpec(t=1.0, eps=1.0)
    h, E = 1.0, 5.0
    gf = Grid(8.0, 31)
    Tf, Tc = discretize(p, h, gf), discretize(p, h, gf.coarse())
    coarse = eigenvalues_below(Tc, E)
    with pytest.raises(ConvergenceError, match="residual bound"):
        eigensolve._levels(Tf, E, seeds=_seeds(coarse))
    got = refine(p, h, E, gf)
    want = eigensolve._richardson_combine(eigensolve._levels(Tf, E), coarse)
    np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
    np.testing.assert_array_equal(got.eigenvalues_lo, want.eigenvalues_lo)
    np.testing.assert_array_equal(got.error_estimate, want.error_estimate)


# ---------------------------------------------------------------------------
# windows polished from the oscillator's levels (2j - 1) h
# ---------------------------------------------------------------------------

def _oscillator(T):
    return (2.0 * np.arange(1, eigensolve.LEVEL_CAP + 1) - 1.0) * T.h


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 0.3), eps=st.floats(0.0, 0.3), reflect=st.booleans(),
       h=st.floats(0.1, 1.0), n=st.sampled_from([1023, 2047, 4095]), E=st.floats(0.5, 30.0))
# strong bumps: the levels sit far from (2j - 1) h, and the oscillator's
# eigenfunctions still start each one close enough to certify
@example(t=1.0, eps=1.0, reflect=False, h=0.5, n=4095, E=12.0)
def test_oscillator_seeded_levels_match_bisection(t, eps, reflect, h, n, E):
    # every operator is x^2 + W with 0 <= W <= bump_height, so its levels sit
    # at the oscillator's plus a shift smooth in the level index
    T = discretize(PotentialSpec(t=t, eps=eps, reflect_beta=reflect), h, Grid(8.0, n))
    seeded = eigensolve._levels(T, E, seeds=_oscillator(T))
    bisected = eigensolve._levels(T, E)
    assert len(seeded) == len(bisected) == count_below(T, E)
    dev = np.abs((seeded.eigenvalues - bisected.eigenvalues)
                 + (seeded.eigenvalues_lo - bisected.eigenvalues_lo))
    assert np.all(dev <= seeded.error_estimate + bisected.error_estimate)


@pytest.mark.parametrize("p, h, grid, E, check_margin", [
    (harmonic(), 1.0, Grid(3.0, 7), 1e6, False),    # validate's charpoly oracle
    (PotentialSpec(t=1.0, eps=1.0), 0.5, Grid(8.0, 255), 12.0, True),
], ids=["charpoly-oracle", "strong-bumps"])
def test_oscillator_seeds_fall_back_to_bisection(p, h, grid, E, check_margin):
    # on 7 nodes, or with strong bumps on 255 (level 11 sits at 10.570, its
    # extrapolated seed 0.05 below it, the start vector O(dx^2) off at
    # dx = 1/16), the levels lie too far from (2j - 1) h and its
    # eigenfunctions, which leaves inverse iteration without a certified
    # residual; the window is then bisected exactly as without seeds
    T = discretize(p, h, grid)
    with pytest.raises(ConvergenceError, match="residual bound"):
        eigensolve._levels(T, E, check_margin, seeds=_oscillator(T))
    got = eigenvalues_below(T, E, check_margin=check_margin)
    want = eigensolve._levels(T, E, check_margin)
    assert len(got) == count_below(T, E)
    np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
    np.testing.assert_array_equal(got.eigenvalues_lo, want.eigenvalues_lo)
    np.testing.assert_array_equal(got.error_estimate, want.error_estimate)


@pytest.mark.parametrize("p, h, E", [(harmonic(), 0.16, 16.0),
                                     (PotentialSpec(), 0.5, 6.0)])
def test_refine_polishes_fine_levels_without_bisecting(monkeypatch, p, h, E):
    factorizations, solves, stebz = [], [], []
    dgttrf, dgttrs = eigensolve.dgttrf, eigensolve.dgttrs
    stebz_fn = eigensolve.eigvalsh_tridiagonal

    def counted_dgttrf(dl, d, du):
        factorizations.append(d.size)
        return dgttrf(dl, d, du)

    def counted_dgttrs(*args):
        solves.append(len(factorizations) - 1)   # the level being polished
        return dgttrs(*args)

    def recorded_stebz(d, e, **kwargs):
        lo, hi = kwargs["select_range"]
        stebz.append((d.size, kwargs["tol"], hi - lo))
        return stebz_fn(d, e, **kwargs)

    monkeypatch.setattr(eigensolve, "dgttrf", counted_dgttrf)
    monkeypatch.setattr(eigensolve, "dgttrs", counted_dgttrs)
    monkeypatch.setattr(eigensolve, "eigvalsh_tridiagonal", recorded_stebz)
    gf = Grid(8.0, 16383)
    spec = refine(p, h, E, gf)
    Tf = discretize(p, h, gf)
    n_f, n_c = count_below(Tf, E), count_below(discretize(p, h, gf.coarse()), E)
    assert len(spec) == n_f == n_c
    assert len(factorizations) == n_f + n_c
    # no coarse operator or block has as many rows as a fine one
    fine_rows = {B.diag.size for B, _ in eigensolve._parity_blocks(Tf) or ((Tf, 0),)}
    per_level = np.bincount(solves, minlength=len(factorizations))
    fine_level = np.isin(factorizations, list(fine_rows))
    # inverse iteration stops at the first iterate its residual bound
    # certifies, and that bound is about |lam - sigma| times the start
    # vector's distance from the level's.  A start vector is the level's
    # oscillator eigenfunction, O(bump + dx^2) from it; a seed is its level
    # on the next coarser grid (the oscillator's (2j - 1) h below the coarse
    # grid) plus the move its block's previous moves extrapolate.  So every
    # fine level takes one solve, and so does every coarse level of the bare
    # oscillator once its block has three moves (three of its first levels
    # start ~4e-6 off and take two: 53 coarse solves for 50 levels at
    # h = 0.16; with the bumps a coarse level takes up to three: 13 for 6
    # at h = 0.5)
    assert np.all(per_level[fine_level] == 1)
    assert per_level[~fine_level].sum() <= {0.16: 1.1, 0.5: 3}[h] * n_c
    if h == 0.16:
        for rows in set(factorizations) - fine_rows:
            assert np.all(per_level[np.equal(factorizations, rows)][3:] == 1)
    fine = [(tol, width) for n, tol, width in stebz if n in fine_rows]
    assert len(fine) == len(fine_rows)
    # neither grid is bisected: each dstebz call only counts its window
    assert len(stebz) == 2 * len(fine_rows)
    assert all(tol >= width for _, tol, width in stebz)


def test_a_coarse_window_with_an_extra_level_polishes_only_the_fine_count(monkeypatch):
    # on this grid pair the stencil's error is ~0.03 at level 5, so a window
    # edge midway between coarse level 5 and fine level 5 holds 5 coarse
    # levels and 4 fine ones; each block polishes as many seeds as its count
    p, h = PotentialSpec(), 0.5
    gf = Grid(8.0, 255)
    Tf, Tc = discretize(p, h, gf), discretize(p, h, gf.coarse())
    assert eigensolve._parity_blocks(Tf) is None
    E = 0.5 * (_seeds(eigensolve._levels(Tc, 10.0))[4] + _seeds(eigensolve._levels(Tf, 10.0))[4])
    coarse = eigenvalues_below(Tc, E)
    assert len(coarse) == count_below(Tf, E) + 1 == 5
    factorizations, bisected = [], []
    dgttrf, levels = eigensolve.dgttrf, eigensolve._levels

    def counted_dgttrf(*args):
        factorizations.append(args[1].size)
        return dgttrf(*args)

    def recorded(op, E, check_margin=True, seeds=None, keep=0):
        bisected.append(seeds is None)
        return levels(op, E, check_margin, seeds, keep)

    monkeypatch.setattr(eigensolve, "dgttrf", counted_dgttrf)
    monkeypatch.setattr(eigensolve, "_levels", recorded)
    got = eigensolve._polished_levels(Tf, E, coarse=coarse)
    assert factorizations == [gf.n] * 4
    assert bisected == [False]
    monkeypatch.undo()
    want = eigensolve._levels(Tf, E)
    assert len(got) == len(want) == 4
    dev = np.abs((got.eigenvalues - want.eigenvalues) + (got.eigenvalues_lo - want.eigenvalues_lo))
    assert np.all(dev <= got.error_estimate + want.error_estimate)


@pytest.mark.parametrize("p", [harmonic(), PotentialSpec()], ids=["parity", "full"])
@pytest.mark.parametrize("j", [1, 4])
def test_keep_hands_out_the_vector_of_a_seeded_window(p, j):
    T = discretize(p, 0.5, Grid(8.0, 1023))
    assert (eigensolve._parity_blocks(T) is not None) == (p == harmonic())
    spec, u = eigensolve._levels(T, 6.0, seeds=_oscillator(T), keep=j)
    assert len(spec) == count_below(T, 6.0) == 6
    assert u.shape == (T.grid.n,)
    res = _dd.residual_norm(T.diag, T.off_value, u, spec.eigenvalues[j - 1],
                            spec.eigenvalues_lo[j - 1]) / np.linalg.norm(u)
    assert res <= eigensolve._floor(T.diag, T.off_value)


# ---------------------------------------------------------------------------
# start vectors: the oscillator's eigenfunctions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [7, 4095, 32767])
@pytest.mark.parametrize("h", [0.02, 0.25, 1.0])
def test_every_start_vector_is_finite_with_unit_norm(h, n):
    # at small h psi_0 underflows to 0 in the tails, where the recurrence
    # then stays 0; no level of any block may overflow or vanish
    xi = Grid(8.0, n).nodes() / math.sqrt(h)
    m = n // 2
    for rows, parity in ((xi, 0), (xi[m:], 1), (xi[m + 1:], -1)):
        vectors = eigensolve._oscillator_vectors(rows, parity)
        for _ in range(eigensolve.LEVEL_CAP):
            v = next(vectors)
            assert np.all(np.isfinite(v))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14


@pytest.mark.parametrize("h, n", [(1.0, 511), (0.25, 4095), (0.02, 16383)])
def test_a_block_start_stands_for_the_oscillator_eigenfunction(h, n):
    # the even or odd block's start for level j expands to psi_j on the full
    # grid, the start that a non-mirror operator's level j takes
    xi = Grid(8.0, n).nodes() / math.sqrt(h)
    m = n // 2
    full = eigensolve._oscillator_vectors(xi, 0)
    blocks = (eigensolve._oscillator_vectors(xi[m:], 1),
              eigensolve._oscillator_vectors(xi[m + 1:], -1))
    for j in range(eigensolve.LEVEL_CAP):
        parity = 1 - 2 * (j % 2)
        u = eigensolve._full_vector(next(blocks[j % 2]), parity) / math.sqrt(2.0)
        np.testing.assert_allclose(u, next(full), rtol=0, atol=1e-13)
