"""Compensated (double-double) primitives for the eigenvalue polish step.

Tridiagonal matrices from fine grids carry a huge common diagonal constant
(2h^2/dx^2), so a residual T u - lambda u evaluated naively in binary64
drowns in cancellation noise of size eps * ||T||.  Splitting every product
and sum into (value, error) pairs keeps the residual accurate to roughly
eps^2 * ||T||, which is what lets correlated eigenvalue differences be
resolved near 1e-12 and below.
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


def two_prod(a, b, b_split=None):
    """Exact product: returns (p, e) with p = fl(a*b) and a*b = p + e.

    ``b_split`` is ``split(b)`` when the caller already has it, so an
    operand of several products is split once.
    """
    p = a * b
    ah, al = split(a)
    bh, bl = b_split or split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


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
    u_split = split(u)

    # shifted diagonal term (diag - lam) * u, keeping the subtraction exact
    d_hi, d_lo = two_sum(diag, -lam_hi)
    d_lo = d_lo - lam_lo
    p_hi, p_lo = two_prod(d_hi, u, b_split=u_split)
    p_lo = p_lo + d_lo * u

    if extra_diag is not None:
        b_hi, b_lo = two_prod(np.asarray(extra_diag, dtype=float), u, b_split=u_split)
        sb_hi, sb_e = two_prod(extra_scale, b_hi)
        t_hi, t_e = two_sum(p_hi, sb_hi)
        p_hi = t_hi
        p_lo = p_lo + t_e + sb_e + extra_scale * b_lo

    # neighbor terms off * u[i-1] and off * u[i+1] from one exact product,
    # accumulated with error-free sums
    q_hi, q_lo = two_prod(off, u, b_split=u_split)
    s_hi, s_e = two_sum(p_hi[1:], q_hi[:-1])
    p_hi[1:] = s_hi
    p_lo[1:] = p_lo[1:] + q_lo[:-1] + s_e
    s_hi, s_e = two_sum(p_hi[:-1], q_hi[1:])
    p_hi[:-1] = s_hi
    p_lo[:-1] = p_lo[:-1] + q_lo[1:] + s_e
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
