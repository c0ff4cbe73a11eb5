"""Dirichlet eigensolver for -h^2 u'' + V u on a symmetric truncated grid.

The operator is discretized with the standard 3-point stencil into a
symmetric tridiagonal matrix.  LAPACK ``dstebz`` (Kahan's Sturm-sequence
bisection) brackets every eigenvalue in the window, and each one is then
polished by inverse iteration plus a compensated Rayleigh quotient.  The
polish matters: bisection alone cannot locate an eigenvalue more tightly
than a few ulps of ||T||, and the matrix norm grows like 2 h^2/dx^2, which
would drown the tiny spectral differences this package exists to measure.
The brackets are therefore only as tight as the polish needs: inverse
iteration converges from any shift nearer its level than any other, at the
rate |lam - sigma|/gap, so bisecting further buys nothing (LAPACK's
``dstevx`` pairs ``dstebz`` with ``dstein`` on the same principle; Parlett,
*The Symmetric Eigenvalue Problem*, ch. 4).  The Rayleigh correction is
taken about inverse iteration's own eigenvalue estimate, so a wide bracket
costs the polished value no precision, and an unrefined level's error
estimate is the residual floor that inverse iteration certified, not the
bracket.  A plain Sturm count (``count_below``) is kept as an independent
cross-check of the extraction.

Richardson refinement (``refine``) does not bisect its fine grid.  The
coarse grid's polished levels lie within the O(dx^2) discretization error
of their fine-grid partners, far inside the spacing of levels of one
parity, so each fine level is polished straight from its coarse partner
(the nested iteration of multigrid; Brandt, *Math. Comp.* 31, 1977).  The
fine set is certified instead of bracketed: a ``dstebz`` call as wide as
the window returns only the Sturm count of (vl, E], the polish must find
exactly that many levels, and consecutive levels must differ by more
than their error estimates.  A grid pair too coarse for that, where a
seed sits so far from its level that inverse iteration runs out of steps
or a level is found twice, falls back to bisecting the fine grid.

Grids are built exactly symmetric about 0 (nodes are signed multiples of
dx), so reflecting a potential reverses the diagonal bitwise and exact
mirror pairs stay exactly isospectral in floating point.  For the same
reason a reflection-symmetric potential such as the bare oscillator gives
an exactly persymmetric matrix, whose eigenvectors are even or odd.  Its
levels are bracketed, inverse-iterated and polished as two half-size
blocks, about half the work.  The polish's compensated Rayleigh quotient
of the even or odd vector a block vector stands for is taken on the stored
T's own rows over one half of the grid, so every value is a Rayleigh
quotient of the stored T either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from . import _dd
from .errors import ConvergenceError, GridMarginError, PreconditionError, WindowCapError
from .potential import PotentialSpec, potential_eval

__all__ = [
    "Grid",
    "TridiagonalOperator",
    "Spectrum",
    "grid_pair",
    "discretize",
    "count_below",
    "eigenvalues_below",
    "eigenvalues_below_multi",
    "refine",
    "refine_multi",
    "eigenvector",
]

_EPS = np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny

LEVEL_CAP = 512    # most levels one window may hold
BRACKET_REL = 1e-5  # bracket width per unit of max(1, min(E, top)) of a window
INVERSE_SHIFT = 1e-12   # inverse iteration factors T - (lam + INVERSE_SHIFT)
INVERSE_MAX_ITER = 8    # inverse iteration steps before ConvergenceError


@dataclass(frozen=True)
class Grid:
    """Symmetric grid of ``n`` interior points on (-L, L), Dirichlet ends.

    Node i (1-based) sits at (i - (n+1)/2) * dx with dx = 2L/(n+1); the node
    set is exactly closed under negation.
    """

    L: float
    n: int

    def __post_init__(self):
        if not self.L > 0.0:
            raise PreconditionError(f"L must be > 0, got {self.L}")
        if self.n < 3:
            raise PreconditionError(f"need at least 3 interior points, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n + 1)

    def nodes(self) -> np.ndarray:
        k = np.arange(1, self.n + 1, dtype=float) - 0.5 * (self.n + 1)
        return k * self.dx


def grid_pair(L: float, intervals: int) -> tuple[Grid, Grid]:
    """A (fine, coarse) grid pair with dx ratio exactly 2.

    ``intervals`` is the fine subinterval count and must be even; the fine
    grid has intervals-1 interior points.
    """
    if intervals % 2 != 0 or intervals < 8:
        raise PreconditionError(f"intervals must be even and >= 8, got {intervals}")
    return Grid(L, intervals - 1), Grid(L, intervals // 2 - 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal Dirichlet discretization of -h^2 d^2/dx^2 + V."""

    diag: np.ndarray          # 2 h^2/dx^2 + V(x_i)
    offdiag: np.ndarray       # constant -h^2/dx^2, length n-1
    h: float
    grid: Grid
    off_value: float          # the shared off-diagonal entry
    v_boundary: float         # V at the truncation points

    @property
    def n(self) -> int:
        return self.diag.size

    def norm1(self) -> float:
        return float(np.max(np.abs(self.diag))) + 2.0 * abs(self.off_value)


def discretize(p: PotentialSpec, h: float, grid: Grid) -> TridiagonalOperator:
    """Build the tridiagonal operator for potential ``p`` at parameter ``h``.

    The operator records V at the truncation points as ``v_boundary``; the
    solvers check it against their window (V(L) >= E + 10, see ``_levels``),
    so that every eigenfunction in the window is negligible at the
    artificial boundary.
    """
    if not h > 0.0:
        raise PreconditionError(f"h must be > 0, got {h}")
    x = grid.nodes()
    v = potential_eval(p, x)
    vb = min(potential_eval(p, grid.L), potential_eval(p, -grid.L))
    s = (h * h) / (grid.dx * grid.dx)
    diag = 2.0 * s + v
    off = -s
    return TridiagonalOperator(diag=diag, offdiag=np.full(grid.n - 1, off),
                               h=h, grid=grid, off_value=off, v_boundary=vb)


# ---------------------------------------------------------------------------
# Sturm count
# ---------------------------------------------------------------------------

def _sturm_count(diag: np.ndarray, offsq: float, lam: float) -> tuple[int, bool]:
    """Negative-pivot count of the LDL^T factorization of T - lam.

    Also reports whether some pivot collided with zero (and was replaced
    by -pivmin).
    """
    pivmin = max(offsq, 1.0) * _SAFMIN
    count, collided, d = 0, False, math.inf
    for a in diag.tolist():
        d = a - lam - offsq / d
        if abs(d) <= pivmin:
            d, collided = -pivmin, True
        count += d < 0.0
    return count, collided


def count_below(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below ``lam``.

    A query that collides with a pivot is re-evaluated one ulp up.
    """
    offsq = T.off_value * T.off_value
    count, collided = _sturm_count(T.diag, offsq, float(lam))
    if collided:
        count, _ = _sturm_count(T.diag, offsq, float(np.nextafter(lam, np.inf)))
    return count


# ---------------------------------------------------------------------------
# Inverse iteration and the compensated polish
# ---------------------------------------------------------------------------

_START_CACHE: dict[int, np.ndarray] = {}


def _start_vector(n: int) -> np.ndarray:
    v = _START_CACHE.get(n)
    if v is None:
        rng = np.random.default_rng(0x5eed)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        _START_CACHE[n] = v
    return v


def _inverse_iteration(T: TridiagonalOperator, lam: float) -> tuple[np.ndarray, float]:
    """Unit-norm eigenvector for the eigenvalue nearest ``lam``, and that eigenvalue.

    T - sigma (sigma = lam + INVERSE_SHIFT) is LU-factored once (LAPACK
    ``dgttrf``) and each step is one ``dgttrs`` solve w = (T - sigma)^-1 v.
    With ||v|| = 1 and x = w/||w||, min(||x - v||, ||x + v||)/||w|| bounds
    the residual ||(T - rho(x)) x|| (Parlett, ch. 4).  Once that bound
    reaches 8 eps ||T||_1 one more solve confirms the vector, as LAPACK
    ``dstein`` does; ``INVERSE_MAX_ITER`` steps without it raise
    ConvergenceError.
    The confirming solve also gives the eigenvalue: for an eigenvector x,
    x . (T - sigma)^-1 x = 1/(lam - sigma), so sigma + (x . y)/||w|| (y the
    returned vector) is accurate to the solve's backward error, ~eps ||T||,
    however far sigma sits from the level.
    """
    sigma = lam + INVERSE_SHIFT
    dl, d, du, du2, ipiv, info = dgttrf(T.offdiag, T.diag - sigma, T.offdiag)
    if info != 0:
        raise ConvergenceError(f"dgttrf of T - {sigma:.17g} failed with info = {info}")

    def solve(v):
        w, info = dgttrs(dl, d, du, du2, ipiv, v)
        if info != 0:
            raise ConvergenceError(f"dgttrs failed with info = {info}")
        growth = np.linalg.norm(w)
        return w / growth, growth

    floor = 8.0 * _EPS * T.norm1()
    v = _start_vector(T.n)
    for _ in range(INVERSE_MAX_ITER):
        x, growth = solve(v)
        bound = min(np.linalg.norm(x - v), np.linalg.norm(x + v)) / growth
        if bound <= floor:
            y, growth = solve(x)
            return y, sigma + float(np.dot(x, y)) / growth
        v = x
    raise ConvergenceError(
        f"inverse iteration at {sigma:.17g}: residual bound {bound:.3e} above "
        f"{floor:.3e} after {INVERSE_MAX_ITER} steps")


def _polish_one(T: TridiagonalOperator, lam: float, block=None, parity: int = 0):
    """Inverse iteration + compensated Rayleigh quotient.

    Returns (hi, lo, vec): the eigenvalue as an unevaluated double-double
    sum hi + lo, and the eigenvector used.  The Rayleigh correction is
    taken about inverse iteration's own eigenvalue estimate, not about
    ``lam``, so its rounding stays at eps^2 ||T|| however wide the bracket
    around ``lam`` was.  With a parity ``block`` of T (``parity`` +1 even,
    -1 odd; see ``_parity_blocks``) the iteration runs on the block,
    ``vec`` is the block's vector, and the correction is taken on T's own
    rows over half the grid (``_rayleigh_correction``).
    """
    v, shift = _inverse_iteration(T if block is None else block, lam)
    hi, lo = _dd.two_sum(shift, _rayleigh_correction(T, v, shift, parity))
    return hi, lo, v


def _rayleigh_correction(T: TridiagonalOperator, z: np.ndarray, shift: float,
                         parity: int = 0) -> float:
    """Compensated u.(T - shift)u / u.u for the vector u of T that ``z`` stands for.

    With ``parity`` 0, u = z.  Otherwise T is mirror-symmetric, n = 2m + 1,
    and z is a vector of its even (+1) or odd (-1) block; u is even or odd
    about the centre row m, and so is its residual (T - shift) u, so the
    quotient is a sum over rows m..2m of the stored T, never built at full
    length.  An odd u vanishes at the centre: rows m+1..2m are the odd
    block and z is u there.  An even u has u_m = sqrt(2) z_0 and
    u_{m+k} = u_{m-k} = z_k: T's rows m-1..2m act on (u_{m+1}, u_m, ...,
    u_2m), row m-1 is dropped, and the centre row counts 1/2 in both sums.
    Halving is exact, so nothing is rounded into the block's sqrt(2)-scaled
    coupling.
    """
    if parity == 0:
        return _dd.rayleigh_correction(T.diag, T.off_value, z, shift)
    m = T.n // 2
    if parity < 0:
        return _dd.rayleigh_correction(T.diag[m + 1:], T.off_value, z, shift)
    u = np.concatenate((z[1:2], z))
    u[1] *= math.sqrt(2.0)
    r_hi, r_lo = _dd.tridiag_residual(T.diag[m - 1:], T.off_value, u, shift)
    u = u[1:]
    w = u.copy()
    w[0] *= 0.5
    return (float(np.dot(r_hi[1:], w)) + float(np.dot(r_lo[1:], w))) / float(np.dot(u, w))


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Ordered simple eigenvalues below a window, with error information.

    ``eigenvalues_lo`` holds compensated low-order parts; ``value(j)`` and
    ``gaps_to`` use them so that differences between correlated spectra stay
    meaningful down to ~1e-13.
    """

    h: float
    eigenvalues: np.ndarray
    eigenvalues_lo: np.ndarray
    error_estimate: np.ndarray
    grid: Grid

    def __len__(self) -> int:
        return self.eigenvalues.size

    def value(self, j: int) -> float:
        """The j-th eigenvalue (1-based), including the low-order part."""
        if not 1 <= j <= len(self):
            raise PreconditionError(f"level j = {j} is outside 1..{len(self)}")
        return float(self.eigenvalues[j - 1] + self.eigenvalues_lo[j - 1])

    def gaps_to(self, other: "Spectrum") -> np.ndarray:
        """Signed per-index differences self - other over the common count."""
        m = min(len(self), len(other))
        hi = self.eigenvalues[:m] - other.eigenvalues[:m]
        lo = self.eigenvalues_lo[:m] - other.eigenvalues_lo[:m]
        return hi + lo

    def to_csv_rows(self):
        for j in range(len(self)):
            yield {
                "h": self.h,
                "j": j + 1,
                "lambda": float(self.eigenvalues[j] + self.eigenvalues_lo[j]),
                "error_estimate": float(self.error_estimate[j]),
            }


def _parity_blocks(T: TridiagonalOperator):
    """The even and odd blocks of a mirror-symmetric T, each with its parity.

    T is mirror-symmetric when n = 2m + 1 and its diagonal is a palindrome;
    then every eigenvector is even or odd about the centre row m.  Even
    vectors solve rows m..2m, whose 2*off coupling at the centre becomes
    sqrt(2)*off once the centre entry is scaled by 1/sqrt(2); odd vectors
    vanish at the centre and solve rows m+1..2m.  Returns
    ((even, +1), (odd, -1)), or None for any other T.
    """
    n = T.n
    if n % 2 == 0 or not np.array_equal(T.diag, T.diag[::-1]):
        return None
    m = n // 2
    even_off = T.offdiag[m:].copy()
    even_off[0] *= math.sqrt(2.0)
    # the blocks keep T's off_value, so norm1 (the residual floor's scale) is T's
    even = replace(T, diag=T.diag[m:], offdiag=even_off)
    odd = replace(T, diag=T.diag[m + 1:], offdiag=T.offdiag[m + 1:])
    return (even, 1), (odd, -1)


def _levels(op: TridiagonalOperator, E: float, check_margin: bool = True,
            seeds: np.ndarray | None = None) -> Spectrum:
    """The polished eigenvalues of one operator in (vl, E]; see ``eigenvalues_below_multi``.

    Without ``seeds`` every level is polished from its ``dstebz`` bracket
    midpoint.  ``seeds`` approximate the levels in increasing order, e.g.
    a coarser grid's spectrum.  A mirror-symmetric operator's even block
    takes seeds 0, 2, 4, ... and its odd block 1, 3, 5, ... (levels
    alternate parity).  Each block polishes seed + delta, delta being how
    far its previous level moved from its seed, drops levels above E, and
    must find exactly as many as the Sturm count of the window, which one
    ``dstebz`` call of tolerance E - vl returns without bisecting.  A seed
    too far from its level raises ``ConvergenceError``.  This is the one
    owner of the turning-point margin: unless ``check_margin`` is False, an
    operator with V(L) < E + 10 raises ``GridMarginError``.
    """
    if check_margin and op.v_boundary < E + 10.0:
        raise GridMarginError(
            f"V at the boundary is {op.v_boundary:.3f} < E + 10 = {E + 10.0:.3f}; "
            f"increase L")
    top = float(np.max(op.diag)) + 2.0 * abs(op.off_value)
    t = BRACKET_REL * max(1.0, min(E, top))
    gershgorin = float(np.min(op.diag)) - 2.0 * abs(op.off_value)
    # the margin covers rounding in the bound; dstebz clips the search
    # interval to its own Gershgorin bound, so it costs no extra steps
    vl = gershgorin - 1.0 - 8.0 * _EPS * op.norm1()
    parts = _parity_blocks(op) or ((op, 0),)
    # a tolerance as wide as the window stops dstebz at the Sturm counts
    starts = [eigvalsh_tridiagonal(B.diag, B.offdiag, select="v",
                                   select_range=(vl, E), check_finite=False,
                                   tol=t if seeds is None else E - vl,
                                   lapack_driver="stebz")
              for B, _ in parts]
    n_levels = sum(s.size for s in starts)
    if n_levels > LEVEL_CAP:
        raise WindowCapError(f"{n_levels} levels below E = {E}; cap is {LEVEL_CAP}")
    floor = 8.0 * _EPS * op.norm1()
    # the level lies within t/2 of its bracket midpoint; a polish that
    # moves further has found another level
    slack = t + floor
    lam, lam_lo = [], []
    for k, ((B, parity), block_starts) in enumerate(zip(parts, starts)):
        if seeds is None:
            for mid in block_starts:
                hi, lo, _ = _polish_one(op, mid, B, parity)
                if abs((hi - mid) + lo) > slack:
                    raise ConvergenceError(
                        f"polish moved a level from its bracket midpoint {mid:.17g} "
                        f"by {(hi - mid) + lo:.3e}, beyond {slack:.3e}")
                lam.append(hi)
                lam_lo.append(lo)
        else:
            found, delta = 0, 0.0
            for seed in seeds[k::len(parts)]:
                hi, lo, _ = _polish_one(op, seed + delta, B, parity)
                delta = (hi - seed) + lo
                if hi + lo <= E:
                    lam.append(hi)
                    lam_lo.append(lo)
                    found += 1
            if found != block_starts.size:
                raise ConvergenceError(
                    f"seeded polish found {found} levels below E = {E} in a block "
                    f"that holds {block_starts.size}")
    lam, lam_lo = np.array(lam), np.array(lam_lo)
    order = np.lexsort((lam_lo, lam))
    lam, lam_lo = lam[order], lam_lo[order]
    # inverse iteration stopped on a residual bound of floor, which bounds
    # the distance from the Rayleigh quotient to an eigenvalue of T
    est = floor + 8.0 * _EPS * np.maximum(1.0, np.abs(lam))
    if np.any(np.diff(lam + lam_lo) <= est[:-1] + est[1:]):
        raise ConvergenceError("polish found two levels closer than their error estimates")
    return Spectrum(h=op.h, eigenvalues=lam, eigenvalues_lo=lam_lo,
                    error_estimate=est, grid=op.grid)


def eigenvalues_below_multi(ops: list[TridiagonalOperator], E_list,
                            check_margin: bool = True) -> list[Spectrum]:
    """The polished eigenvalues of each operator in its window (vl, E].

    vl lies below the operator's Gershgorin bound, so the window holds every
    eigenvalue up to E.  LAPACK ``dstebz`` brackets each one to width
    t = BRACKET_REL * max(1, min(E, top)), where top = max(diag) + 2|off| is
    the Gershgorin upper bound; that is enough for the polish to start
    nearer its level than any other (t is far below the level spacing for
    up to ``LEVEL_CAP`` levels), and the midpoint is then polished.  Capping
    E at top keeps a window above the whole spectrum from widening the
    brackets past the spacing.  The error estimate of each level is the
    residual floor 8 eps ||T||_1 that inverse iteration certified plus the
    rounding of the value, not the bracket width; consecutive levels must
    differ by more than the sum of their estimates.  A mirror-symmetric
    operator is bracketed, inverse-iterated and polished as its even and
    odd half-size blocks (``_parity_blocks``); the Rayleigh quotient is
    taken on the stored T's rows over half the grid
    (``_rayleigh_correction``).  More than ``LEVEL_CAP``
    levels in a window raise ``WindowCapError``.  ``check_margin=False``
    skips the turning-point margin guard (useful when the matrix itself,
    not the continuum problem, is the object of study).
    """
    Es = [float(e) for e in E_list]
    if len(Es) != len(ops):
        raise PreconditionError("need one window per operator")
    return [_levels(op, E, check_margin) for op, E in zip(ops, Es)]


def eigenvalues_below(T: TridiagonalOperator, E: float,
                      check_margin: bool = True) -> Spectrum:
    """The polished eigenvalues of T in (vl, E]; see ``eigenvalues_below_multi``."""
    return eigenvalues_below_multi([T], [E], check_margin=check_margin)[0]


# ---------------------------------------------------------------------------
# Richardson refinement
# ---------------------------------------------------------------------------

def _check_grid_pair(grid_fine: Grid, grid_coarse: Grid):
    if grid_fine.L != grid_coarse.L:
        raise PreconditionError("refinement grids must share L")
    if grid_fine.n == grid_coarse.n:
        raise PreconditionError("refinement grids must differ")
    if grid_fine.n + 1 != 2 * (grid_coarse.n + 1):
        raise PreconditionError(
            f"dx ratio must be exactly 2: got n = {grid_fine.n}, {grid_coarse.n}")


def _richardson_combine(fine: Spectrum, coarse: Spectrum) -> Spectrum:
    m = min(len(fine), len(coarse))
    f_hi, f_lo = fine.eigenvalues[:m], fine.eigenvalues_lo[:m]
    c_hi, c_lo = coarse.eigenvalues[:m], coarse.eigenvalues_lo[:m]
    # (4*fine - coarse)/3 carried as value + compensation
    t, e = _dd.two_sum(4.0 * f_hi, -c_hi)
    r_hi = t / 3.0
    r_lo = ((t - 3.0 * r_hi) + (e + 4.0 * f_lo - c_lo)) / 3.0
    diff = (f_hi - c_hi) + (f_lo - c_lo)
    est = np.abs(diff) / 3.0
    return Spectrum(h=fine.h, eigenvalues=r_hi, eigenvalues_lo=r_lo,
                    error_estimate=est, grid=fine.grid)


def refine_multi(entries: list[tuple[PotentialSpec, float, float]],
                 grid_fine: Grid, grid_coarse: Grid) -> list[Spectrum]:
    """Richardson-refined spectra for several (potential, h, E) requests on one grid pair.

    The coarse grid is solved by ``eigenvalues_below_multi``.  Each fine
    level is then polished from its coarse partner instead of a bisection
    bracket (``_levels`` with seeds): the two differ by the O(dx^2)
    discretization error, far less than the spacing of levels of one
    parity, and inverse iteration converges from any shift nearer its level
    than any other (the nested iteration of multigrid).  The fine set is
    certified by a Sturm count of the window and by its levels being
    distinct.  Should certification or inverse iteration fail, as it can
    on grids too coarse for the seeds to be close, that operator's fine
    levels are bisected and polished as in ``eigenvalues_below_multi``.
    Each solve checks the turning-point margin (V(L) >= E + 10, else
    ``GridMarginError``); both grids share L, so the coarse solve raises first.
    """
    _check_grid_pair(grid_fine, grid_coarse)
    ops_f = [discretize(p, h, grid_fine) for (p, h, _) in entries]
    ops_c = [discretize(p, h, grid_coarse) for (p, h, _) in entries]
    Es = [float(E) for (_, _, E) in entries]
    spec_c = eigenvalues_below_multi(ops_c, Es)
    results = []
    for op, E, coarse in zip(ops_f, Es, spec_c):
        try:
            fine = _levels(op, E, seeds=coarse.eigenvalues + coarse.eigenvalues_lo)
        except ConvergenceError:
            fine = _levels(op, E)
        results.append(_richardson_combine(fine, coarse))
    return results


def refine(p: PotentialSpec, h: float, E: float, grid_fine: Grid,
           grid_coarse: Grid) -> Spectrum:
    """Richardson-extrapolated eigenvalues (4 fine - coarse)/3 below E.

    The returned error_estimate per eigenvalue is |fine - coarse| / 3.
    The fine levels are polished from the coarse ones, with bisection as
    the fallback; see ``refine_multi``.
    """
    return refine_multi([(p, h, E)], grid_fine, grid_coarse)[0]


# ---------------------------------------------------------------------------
# Eigenvectors
# ---------------------------------------------------------------------------

def eigenvector(T: TridiagonalOperator, lam: float) -> np.ndarray:
    """Discrete-L2-normalized eigenvector for the eigenvalue nearest ``lam``.

    Normalization is dx * sum(u_i^2) = 1 and the sign makes the largest
    component positive (so a ground state is positive everywhere).  The
    eigenpair residual ||T u - lam u|| is measured against the polished
    eigenvalue with compensated arithmetic; binary64 storage of u alone
    already costs ~eps * ||T||, so that is the enforceable floor.
    """
    hi, lo, v = _polish_one(T, lam)
    res = _dd.residual_norm(T.diag, T.off_value, v, hi, lo)
    floor = max(1e-10, 8.0 * _EPS * T.norm1())
    if res > floor:
        raise ConvergenceError(
            f"inverse iteration residual {res:.3e} above tolerance {floor:.3e}")
    u = v / np.sqrt(T.grid.dx * np.dot(v, v))
    i = int(np.argmax(np.abs(u)))
    if u[i] < 0.0:
        u = -u
    return u
