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
