import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specpair import _dd

EPS = np.finfo(float).eps


def _instance(n=9, s=5.0e5, seed=7):
    rng = np.random.default_rng(seed)
    diag = 2.0 * s + rng.uniform(0.0, 4.0, n)
    extra = rng.uniform(0.0, 1.0, n)
    return diag, -s, extra, rng


def _exact_residual(diag, off, u, lam_hi, lam_lo, extra, scale):
    """(T + scale*B - lam) u over the rationals, every row."""
    F = Fraction
    lam = F(lam_hi) + F(lam_lo)
    n = len(u)
    r = []
    for i in range(n):
        d = F(diag[i]) - lam
        if extra is not None:
            d += F(scale) * F(extra[i])
        ri = d * F(u[i])
        if i > 0:
            ri += F(off) * F(u[i - 1])
        if i < n - 1:
            ri += F(off) * F(u[i + 1])
        r.append(ri)
    return r


@pytest.mark.parametrize("with_extra", [False, True])
def test_tridiag_residual_is_exact_to_eps_squared(with_extra):
    diag, off, extra, rng = _instance()
    u = rng.standard_normal(diag.size)
    lam_hi, lam_lo = 1.0e6 + 0.375, 3.0e-11
    extra, scale = (extra, 1.0e-5) if with_extra else (None, 1.0)
    r_hi, r_lo = _dd.tridiag_residual(diag, off, u, lam_hi, lam_lo, extra, scale)
    exact = _exact_residual(diag, off, u, lam_hi, lam_lo, extra, scale)
    norm_t = float(np.max(diag)) + 2.0 * abs(off)
    tol = 16.0 * EPS * EPS * norm_t * float(np.linalg.norm(u))
    # every row, both end rows included; binary64 alone is off by ~eps*||T||*|u|
    for i in range(diag.size):
        err = abs(Fraction(r_hi[i]) + Fraction(r_lo[i]) - exact[i])
        assert err <= tol, (i, float(err), tol)


@pytest.mark.parametrize("with_extra", [False, True])
def test_rayleigh_correction_is_exact_to_eps_squared(with_extra):
    diag, off, extra, _ = _instance()
    extra, scale = (extra, 1.0e-5) if with_extra else (None, 1.0)
    shifted = diag + scale * extra if with_extra else diag
    dense = np.diag(shifted) + off * (np.eye(diag.size, k=1) + np.eye(diag.size, k=-1))
    w, vecs = np.linalg.eigh(dense)
    # near an eigenvector the residual is O(eps*||T||), so the final dot
    # products round at the eps^2 level too; this is how the polish uses it
    u = vecs[:, 0]
    lam_hi, lam_lo = float(w[0]), 2.0e-12
    corr = _dd.rayleigh_correction(diag, off, u, lam_hi, lam_lo, extra, scale)
    exact_r = _exact_residual(diag, off, u, lam_hi, lam_lo, extra, scale)
    uf = [Fraction(x) for x in u]
    exact = sum(a * b for a, b in zip(exact_r, uf)) / sum(x * x for x in uf)
    norm_t = float(np.max(diag)) + 2.0 * abs(off)
    assert abs(Fraction(corr) - exact) <= 16.0 * EPS * EPS * norm_t


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1),
       s=st.sampled_from([1.0, 1.0e3, 5.0e5, 1.0e8]), with_extra=st.booleans())
def test_tridiag_residual_is_within_an_ulp_of_exact(n, seed, s, with_extra):
    rng = np.random.default_rng(seed)
    diag = 2.0 * s + rng.uniform(-4.0, 4.0, n)
    u = rng.standard_normal(n)
    lam_hi, lam_lo = float(rng.uniform(0.0, 4.0 * s)), float(rng.uniform(-1.0, 1.0)) * EPS
    extra, scale = (rng.uniform(0.0, 1.0, n), 1.0e-5) if with_extra else (None, 1.0)
    r_hi, r_lo = _dd.tridiag_residual(diag, -s, u, lam_hi, lam_lo, extra, scale)
    exact = _exact_residual(diag, -s, u, lam_hi, lam_lo, extra, scale)
    for i in range(n):
        err = abs(float(Fraction(r_hi[i]) + Fraction(r_lo[i]) - exact[i]))
        assert err <= math.ulp(float(exact[i])), (i, err)


def _two_prod(a, b, b_split=None):
    """Dekker's exact product (p, e), a*b = p + e, on fresh arrays."""
    p = a * b
    ah, al = _dd.split(a)
    bh, bl = b_split or _dd.split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _residual_oracle(diag, off, u, lam_hi, lam_lo, extra, scale):
    """``tridiag_residual`` composed from ``split``, ``two_sum`` and ``_two_prod``, fresh arrays."""
    u_split = _dd.split(u)
    d_hi, d_lo = _dd.two_sum(diag, -lam_hi)
    d_lo = d_lo - lam_lo
    p_hi, p_lo = _two_prod(d_hi, u, b_split=u_split)
    p_lo = p_lo + d_lo * u
    if extra is not None:
        b_hi, b_lo = _two_prod(extra, u, b_split=u_split)
        sb_hi, sb_e = _two_prod(scale, b_hi)
        p_hi, t_e = _dd.two_sum(p_hi, sb_hi)
        p_lo = p_lo + t_e + sb_e + scale * b_lo
    q_hi, q_lo = _two_prod(off, u, b_split=u_split)
    s_hi, s_e = _dd.two_sum(p_hi[1:], q_hi[:-1])
    p_hi[1:] = s_hi
    p_lo[1:] = p_lo[1:] + q_lo[:-1] + s_e
    s_hi, s_e = _dd.two_sum(p_hi[:-1], q_hi[1:])
    p_hi[:-1] = s_hi
    p_lo[:-1] = p_lo[:-1] + q_lo[1:] + s_e
    return p_hi, p_lo


def _assert_residual_matches_oracle(n, seed, s, with_extra, lam_lo_ulps):
    rng = np.random.default_rng(seed)
    diag = 2.0 * s + rng.uniform(-4.0, 4.0, n)
    u = rng.standard_normal(n)
    lam_hi = float(rng.uniform(0.0, 4.0 * s))
    lam_lo = lam_lo_ulps * math.ulp(lam_hi)
    extra, scale = (rng.uniform(0.0, 1.0, n), 1.0e-5) if with_extra else (None, 1.0)
    got = _dd.tridiag_residual(diag, -s, u, lam_hi, lam_lo, extra, scale)
    want = _residual_oracle(diag, -s, u, lam_hi, lam_lo, extra, scale)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       s=st.sampled_from([1.0, 1.0e3, 5.0e5, 1.0e8]), with_extra=st.booleans(),
       lam_lo_ulps=st.sampled_from([0.0, 0.25, -0.375]))
def test_tridiag_residual_equals_the_composed_oracle_bit_for_bit(n, seed, s, with_extra,
                                                                 lam_lo_ulps):
    _assert_residual_matches_oracle(n, seed, s, with_extra, lam_lo_ulps)


@pytest.mark.parametrize("with_extra", [False, True])
def test_tridiag_residual_equals_the_oracle_at_a_trace_grid_size(with_extra):
    _assert_residual_matches_oracle(16383, 5, 4.2e6, with_extra, 0.25)
