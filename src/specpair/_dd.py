"""Compensated (double-double) primitives for the eigenvalue polish step.

Tridiagonal matrices from fine grids carry a huge common diagonal constant
(2h^2/dx^2), so a residual T u - lambda u evaluated naively in binary64
drowns in cancellation noise of size eps * ||T||.  Splitting every product
and sum into (value, error) pairs keeps the residual accurate to roughly
eps^2 * ||T||, which is what lets correlated eigenvalue differences be
resolved near 1e-12 and below.

``tridiag_residual`` runs Dekker's split and product and Knuth's sum in
place, in a few work arrays reused for every step, instead of a fresh array
per operation; each IEEE operation is the one the textbook composition of
``split`` and ``two_sum`` (with the product's error term) performs, in the
same order, so the residual is the same to the bit.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """Exact sum: returns (s, e) with s = fl(a+b) and a + b = s + e."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def split(a):
    """Dekker's split: (ah, al) with a = ah + al, each half of 26 bits or fewer."""
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    return ah, a - ah


def _split_into(a, hi, lo):
    """``split(a)`` written into ``hi`` and ``lo``, the same operations in the same order."""
    np.multiply(a, _SPLITTER, out=hi)
    np.subtract(hi, a, out=lo)
    hi -= lo
    np.subtract(a, hi, out=lo)


def _two_prod_error_into(a_split, b_split, p, e, t):
    """The error of the product p = fl(a*b) written into ``e``; ``t`` is a work array.

    a*b = p + e exactly, from the splits of a and b; ``a_split`` may be a
    pair of floats (a scalar operand).
    """
    ah, al = a_split
    bh, bl = b_split
    np.multiply(ah, bh, out=e)
    e -= p
    np.multiply(ah, bl, out=t)
    e += t
    np.multiply(al, bh, out=t)
    e += t
    np.multiply(al, bl, out=t)
    e += t


def _two_sum_into(a, b, s, e, t):
    """``two_sum(a, b)`` written into ``s`` and ``e``; ``t`` is a work array."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)
    np.subtract(s, t, out=e)
    np.subtract(a, e, out=e)
    np.subtract(b, t, out=t)
    e += t


def tridiag_residual(diag, off, u, lam_hi, lam_lo=0.0,
                     extra_diag=None, extra_scale=1.0):
    """Compensated residual r = (T + s*B - lam) u for symmetric tridiagonal T.

    ``off`` is the constant off-diagonal value.  ``extra_diag`` (with its
    scale s) is an optional diagonal perturbation applied exactly, i.e.
    never rounded into the large base entries; correlated finite
    differences of eigenvalues rely on this.  Returns (r_hi, r_lo) arrays
    whose sum carries the residual to far below one ulp of ||T|| * |u|.
    """
    diag = np.asarray(diag, dtype=float)
    u = np.asarray(u, dtype=float)
    p_hi, p_lo, u_hi, u_lo, a, b, c, d, t = np.empty((9, u.size))
    _split_into(u, u_hi, u_lo)

    # shifted diagonal term (diag - lam) * u, keeping the subtraction exact
    _two_sum_into(diag, -lam_hi, a, b, t)               # (d_hi, d_lo) in (a, b)
    b -= lam_lo
    np.multiply(a, u, out=p_hi)
    _split_into(a, c, d)
    _two_prod_error_into((c, d), (u_hi, u_lo), p_hi, p_lo, t)
    np.multiply(b, u, out=t)
    p_lo += t

    if extra_diag is not None:
        extra = np.asarray(extra_diag, dtype=float)
        e, f = np.empty((2, u.size))
        np.multiply(extra, u, out=a)                    # (b_hi, b_lo) in (a, b)
        _split_into(extra, c, d)
        _two_prod_error_into((c, d), (u_hi, u_lo), a, b, t)
        np.multiply(extra_scale, a, out=c)              # (sb_hi, sb_e) in (c, f)
        _split_into(a, d, e)
        _two_prod_error_into(split(extra_scale), (d, e), c, f, t)
        _two_sum_into(p_hi, c, d, e, t)                 # (t_hi, t_e) in (d, e)
        p_hi[:] = d
        p_lo += e
        p_lo += f
        np.multiply(extra_scale, b, out=t)
        p_lo += t

    # neighbor terms off * u[i-1] and off * u[i+1] from one exact product,
    # accumulated with error-free sums
    np.multiply(off, u, out=a)                          # (q_hi, q_lo) in (a, b)
    _two_prod_error_into(split(off), (u_hi, u_lo), a, b, t)
    s_hi, s_e, t = c[:-1], d[:-1], t[:-1]
    _two_sum_into(p_hi[1:], a[:-1], s_hi, s_e, t)
    p_hi[1:] = s_hi
    p_lo[1:] += b[:-1]
    p_lo[1:] += s_e
    _two_sum_into(p_hi[:-1], a[1:], s_hi, s_e, t)
    p_hi[:-1] = s_hi
    p_lo[:-1] += b[1:]
    p_lo[:-1] += s_e
    return p_hi, p_lo


def rayleigh_correction(diag, off, u, lam_hi, lam_lo=0.0,
                        extra_diag=None, extra_scale=1.0):
    """u^T (T + s*B - lam) u / u^T u with a compensated numerator.

    The returned correction, added to (lam_hi, lam_lo), gives the Rayleigh
    quotient of ``u`` essentially exactly.
    """
    r_hi, r_lo = tridiag_residual(diag, off, u, lam_hi, lam_lo,
                                  extra_diag, extra_scale)
    num = float(np.dot(r_hi, u)) + float(np.dot(r_lo, u))
    den = float(np.dot(u, u))
    return num / den


def residual_norm(diag, off, u, lam_hi, lam_lo=0.0):
    """Euclidean norm of the compensated residual (T - lam) u."""
    r_hi, r_lo = tridiag_residual(diag, off, u, lam_hi, lam_lo)
    r = r_hi + r_lo
    return float(np.sqrt(np.dot(r, r)))
