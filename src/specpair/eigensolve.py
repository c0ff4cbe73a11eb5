"""Dirichlet eigensolver for -h^2 u'' + V u on a symmetric truncated grid.

The operator is discretized with the standard 3-point stencil into a
symmetric tridiagonal matrix.  Each eigenvalue in the window is polished
by inverse iteration plus a compensated Rayleigh quotient.  The polish
matters: bisection alone cannot locate an eigenvalue more tightly than a
few ulps of ||T||, and the matrix norm grows like 2 h^2/dx^2, which would
drown the tiny spectral differences this package exists to measure.

One loop polishes every window and one certificate accepts it (``_levels``;
LAPACK's ``dstevx`` pairs ``dstebz`` with ``dstein`` the same way; Parlett,
*The Symmetric Eigenvalue Problem*, ch. 4).  ``dstebz`` (Kahan's
Sturm-sequence bisection) counts the levels in the window, and the loop
inverse-iterates exactly that many starts, one per level in increasing
order.  Inverse iteration converges from any start nearer its level than
any other, at the rate |lam - sigma|/gap, and the Rayleigh correction is
taken about inverse iteration's own eigenvalue estimate, so a rough start
costs the polished value no precision; a level's error estimate is the
residual floor that inverse iteration certified, not the distance from its
start.  The window is certified when there is one start per level of the
count, no polished value lies above E, and consecutive values differ by
more than their error estimates: they are then as many distinct
eigenvalues in the window as it holds, so they are exactly its levels.
Anything else raises ``ConvergenceError``, as does a start so far from
its level that inverse iteration runs out of steps.  A plain Sturm count
(``count_below``) is kept as an independent cross-check of the extraction.

The starts come from a coarser problem, as in the nested iteration of
multigrid (Brandt, *Math. Comp.* 31, 1977).  Every operator here is
x^2 + W with 0 <= W <= ``PotentialSpec.bump_height``, so by min-max its
j-th level sits within the bump height, plus the stencil's error, of the
oscillator's (2j - 1) h: the oscillator is the coarsest "grid", and it
gives each level its start vector as well as its seed.
Richardson refinement (``refine``, and ``traces.isospectral_distance``
for both members of a pair) solves its coarse grid from those levels and
polishes its fine grid from the coarse grid's levels, which lie within
the O(dx^2) discretization error of their fine-grid partners.  Either
shift is smooth in the level index (the stencil's error is ~ lam^2
dx^2/h^2 for the oscillator), so each seed is the coarser level plus the
second-order backward-difference extrapolation of the moves of the
block's previous levels.  At n = 16383, once three moves are known, a
fine seed lands within ~1e-10 of its level, against ~1e-4 for the coarse
level plus the previous move alone.  Every level's inverse iteration,
seeded, bisected or kept, starts from the oscillator's eigenfunction
psi_j(x/sqrt(h)) sampled on the grid (``_oscillator_vectors``), which
lies within O(bump + dx^2) of the level's vector.  The stopping bound is
about that distance times |lam - sigma|, so a level certifies on its
first solve once its seed is close: a ``trace`` pass takes about one
solve a level on either grid, where a fixed random start took about two.
A start's other components would stay in the vector's tails at the
residual floor; from psi_j the tails decay with the eigenfunction's
(below 1e-100 at |x| >= 5 for the ground state at h = 0.05, where a
random start left 5e-27).  A seeded window's ``dstebz`` call is as
wide as the window, so it only counts.  A window whose seeds fail the
certificate is bisected instead (``_polished_levels`` owns that
fallback): ``dstebz`` brackets every level, only as tightly as the
polish needs, and the bracket midpoints are the starts, through the same
loop and the same certificate.  The window whose vector ``eigenvector``
hands out is bisected too.

Grids are built exactly symmetric about 0 (nodes are signed multiples of
dx), so reflecting a potential reverses the diagonal bitwise and exact
mirror pairs stay exactly isospectral in floating point.  For the same
reason a reflection-symmetric potential such as the bare oscillator gives
an exactly persymmetric matrix, whose eigenvectors are even or odd.  Its
levels are bracketed, inverse-iterated and polished as two half-size
blocks, about half the work.  A block is plain arrays: its diagonal and
off-diagonal, and its residual floor 8 eps ||B||_1, computed once by
``_floor``, the floor's one owner.  The polish's compensated Rayleigh
quotient of the even or odd vector a block vector stands for is taken on
the stored T's own rows over one half of the grid, so every value is a
Rayleigh quotient of the stored T either way.  ``eigenvector`` returns a
window's levels with the vector that inverse iteration found for the one
level it names, so no level is factored twice; that level alone takes
inverse iteration's confirming solve (a value needs only a certified
residual, a vector that is used needs the solve's accuracy), and a block
vector expands to an exactly even or odd vector on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from . import _dd
from .errors import ConvergenceError, GridMarginError, PreconditionError, WindowCapError
from .potential import PotentialSpec, potential_eval

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
    set is exactly closed under negation.  At least 7 nodes, so that each
    parity block of a mirror-symmetric operator (see ``_parity_blocks``)
    has at least 3 rows.
    """

    L: float
    n: int

    def __post_init__(self):
        if not self.L > 0.0:
            raise PreconditionError(f"L must be > 0, got {self.L}")
        if self.n < 7:
            raise PreconditionError(f"need at least 7 interior points, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n + 1)

    def nodes(self) -> np.ndarray:
        k = np.arange(1, self.n + 1, dtype=float) - 0.5 * (self.n + 1)
        return k * self.dx

    def coarse(self) -> "Grid":
        """The Richardson partner: every other node, dx exactly doubled.

        Only a grid with odd n has one; its nodes are this grid's nodes
        1, 3, 5, ... (0-based).
        """
        if self.n % 2 == 0:
            raise PreconditionError(f"{self} has no half-resolution grid: n is even")
        return Grid(self.L, (self.n - 1) // 2)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal Dirichlet discretization of -h^2 d^2/dx^2 + V."""

    diag: np.ndarray          # 2 h^2/dx^2 + V(x_i)
    offdiag: np.ndarray       # constant -h^2/dx^2, length n-1
    h: float
    grid: Grid
    off_value: float          # the shared off-diagonal entry
    v_boundary: float         # V at the truncation points


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

def _floor(diag: np.ndarray, off: float) -> float:
    """The residual floor 8 eps ||T||_1 of a tridiagonal, ||T||_1 bounded by max|diag| + 2|off|."""
    return 8.0 * _EPS * (float(np.max(np.abs(diag))) + 2.0 * abs(off))


class _Block(NamedTuple):
    """A matrix inverse iteration runs on: T itself or a parity block, with its floor."""

    diag: np.ndarray
    offdiag: np.ndarray
    floor: float


def _norm(w: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float array, bit for bit, without its dispatch."""
    return math.sqrt(np.dot(w, w))


def _oscillator_vectors(xi: np.ndarray, parity: int):
    """Unit-norm starts for a block's levels, lowest first: the oscillator's eigenfunctions.

    ``xi`` = x/sqrt(h) at the block's rows.  The oscillator's j-th
    eigenfunction is psi_j(xi), psi_0 ~ exp(-xi^2/2) (j from 0 here, the
    level j + 1).  The full T (``parity`` 0) takes every psi_j, by
    psi_{j+1} = (sqrt(2) xi psi_j - sqrt(j) psi_{j-1}) / sqrt(j+1); the even
    (odd) block takes the even (odd) ones, two levels a step, by
    psi_{j+2} = ((2 xi^2 - (2j+1)) psi_j - sqrt(j(j-1)) psi_{j-2}) / sqrt((j+1)(j+2)).
    Both recurrences act row by row, so the even block's centre entry,
    psi_j(0)/sqrt(2) as ``_rayleigh_correction``'s z_0, is set once in psi_0,
    and where psi_0 underflows (xi > ~38.6) every psi_j is 0: beyond the
    turning point sqrt(2j + 1) <= ~32 of the ``LEVEL_CAP`` lowest levels.
    Each start is generated only when its level is polished.
    """
    prev, cur = np.zeros_like(xi), np.exp(-0.5 * xi * xi)
    if parity < 0:
        cur *= math.sqrt(2.0) * xi
    elif parity > 0:
        cur[0] *= math.sqrt(0.5)
    a = math.sqrt(2.0) * xi if parity == 0 else 2.0 * xi * xi
    j = int(parity < 0)
    while True:
        yield cur / _norm(cur)
        if parity == 0:
            cur, prev = (a * cur - math.sqrt(j) * prev) / math.sqrt(j + 1), cur
            j += 1
        else:
            cur, prev = (((a - (2 * j + 1)) * cur - math.sqrt(j * (j - 1)) * prev)
                         / math.sqrt((j + 1) * (j + 2))), cur
            j += 2


def _inverse_iteration(diag: np.ndarray, offdiag: np.ndarray, floor: float, lam: float,
                       v: np.ndarray, confirm: bool = True) -> tuple[np.ndarray, float]:
    """Unit-norm eigenvector for the eigenvalue nearest ``lam``, and that eigenvalue.

    T has ``diag`` and ``offdiag``, and T - sigma (sigma = lam + INVERSE_SHIFT)
    is LU-factored once (LAPACK ``dgttrf``); each step is one ``dgttrs`` solve
    w = (T - sigma)^-1 v, the first from the unit-norm start ``v``.  With
    ||v|| = 1 and x = w/||w||, min(||x - v||, ||x + v||)/||w|| bounds the
    residual ||(T - mu) x|| at mu = sigma + (v . x)/||w||, hence
    ||(T - rho(x)) x|| (Parlett, ch. 4).  That bound is about |lam' - sigma|
    times the start's distance from the vector of the level lam' nearest
    sigma, so a start close to that vector (``_oscillator_vectors``) stops
    after one solve once ``lam`` is close too.
    ``INVERSE_MAX_ITER`` steps without that bound reaching ``floor``
    (``_floor``) raise ConvergenceError.  Once it does, x is returned with
    mu: x's Rayleigh quotient, and mu, lie within ``floor`` of the level.
    With ``confirm`` one more step from x is taken and its iterate returned
    the same way, as LAPACK ``dstein`` does: a vector whose error is the
    solve's backward error, ~eps ||T||, rather than floor/gap.  Only a
    vector that is used, not just its Rayleigh quotient, needs it.  mu,
    not ``lam``, is the estimate a Rayleigh correction is taken about
    (``_levels``), so its rounding stays at eps^2 ||T|| however far ``lam``
    started from the level.
    """
    sigma = lam + INVERSE_SHIFT
    dl, d, du, du2, ipiv, info = dgttrf(offdiag, diag - sigma, offdiag)
    if info != 0:
        raise ConvergenceError(f"dgttrf of T - {sigma:.17g} failed with info = {info}")

    def solve(v):
        w, info = dgttrs(dl, d, du, du2, ipiv, v)
        if info != 0:
            raise ConvergenceError(f"dgttrs failed with info = {info}")
        growth = _norm(w)
        w /= growth
        return w, growth

    diff = np.empty(diag.size)
    for _ in range(INVERSE_MAX_ITER):
        x, growth = solve(v)
        bound = min(_norm(np.subtract(x, v, out=diff)), _norm(np.add(x, v, out=diff))) / growth
        if bound <= floor:
            if confirm:
                v = x
                x, growth = solve(v)
            return x, sigma + float(np.dot(v, x)) / growth
        v = x
    raise ConvergenceError(
        f"inverse iteration at {sigma:.17g}: residual bound {bound:.3e} above "
        f"{floor:.3e} after {INVERSE_MAX_ITER} steps")


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
    m = T.diag.size // 2
    if parity < 0:
        return _dd.rayleigh_correction(T.diag[m + 1:], T.off_value, z, shift)
    u = np.concatenate((z[1:2], z))
    u[1] *= math.sqrt(2.0)
    r_hi, r_lo = _dd.tridiag_residual(T.diag[m - 1:], T.off_value, u, shift)
    u = u[1:]
    w = u.copy()
    w[0] *= 0.5
    return (float(np.dot(r_hi[1:], w)) + float(np.dot(r_lo[1:], w))) / float(np.dot(u, w))


def _full_vector(z: np.ndarray, parity: int) -> np.ndarray:
    """The vector of T that ``z`` stands for (see ``_rayleigh_correction``), even or odd bitwise."""
    if parity > 0:
        return np.concatenate((z[:0:-1], [math.sqrt(2.0) * z[0]], z[1:]))
    if parity < 0:
        return np.concatenate((-z[::-1], [0.0], z))
    return z


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


def _parity_blocks(T: TridiagonalOperator):
    """The even and odd blocks of a mirror-symmetric T, each with its parity.

    T is mirror-symmetric when n = 2m + 1 and its diagonal is a palindrome;
    then every eigenvector is even or odd about the centre row m.  Even
    vectors solve rows m..2m, whose 2*off coupling at the centre becomes
    sqrt(2)*off once the centre entry is scaled by 1/sqrt(2); odd vectors
    vanish at the centre and solve rows m+1..2m.  Returns ((even, +1),
    (odd, -1)), each block's floor taken on its own diagonal and T's
    ``off_value``, or None for any other T.
    """
    n = T.diag.size
    if n % 2 == 0 or not np.array_equal(T.diag, T.diag[::-1]):
        return None
    m = n // 2
    even_off = T.offdiag[m:].copy()
    even_off[0] *= math.sqrt(2.0)
    even, odd = T.diag[m:], T.diag[m + 1:]
    return ((_Block(even, even_off, _floor(even, T.off_value)), 1),
            (_Block(odd, T.offdiag[m + 1:], _floor(odd, T.off_value)), -1))


def _next_move(moves: list[float]) -> float:
    """The next of a smooth sequence of moves, by backward differences of up to second order.

    3 m1 - 3 m2 + m3 from the last three moves (m1 the latest), 2 m1 - m2
    or m1 while fewer exist, 0 before the first.
    """
    if len(moves) >= 3:
        return 3.0 * (moves[-1] - moves[-2]) + moves[-3]
    if len(moves) == 2:
        return 2.0 * moves[-1] - moves[-2]
    return moves[-1] if moves else 0.0


def _levels(op: TridiagonalOperator, E: float, check_margin: bool = True,
            seeds: np.ndarray | None = None, keep: int = 0):
    """The polished eigenvalues of one operator in (vl, E]: the module docstring's one loop.

    Each block inverse-iterates (``_inverse_iteration``) as many starts as
    its Sturm count of the window, and a value is the compensated Rayleigh
    quotient of the vector found, corrected about inverse iteration's own
    estimate rather than the start (``_rayleigh_correction``).  Each
    level's start vector is the oscillator's eigenfunction of the same
    index on the block's rows (``_oscillator_vectors``).  Without ``seeds``
    the starts are the block's ``dstebz`` bracket midpoints.
    ``seeds`` approximate the levels in increasing order (a coarser grid's
    spectrum, or the oscillator's (2j - 1) h); a mirror-symmetric operator's
    even block takes seeds 0, 2, 4, ... and its odd block 1, 3, 5, ...
    (levels alternate parity), each up to its count, and a start is the
    seed plus the move ``_next_move`` extrapolates from how far the block's
    previous levels moved from theirs.  A window that fails the certificate
    raises ``ConvergenceError``; ``_polished_levels`` then bisects.  This is
    the one owner of the turning-point margin: unless ``check_margin`` is
    False, an operator with V(L) < E + 10 raises ``GridMarginError``.

    With ``keep`` = j >= 1 it returns (Spectrum, u), u the full-grid vector
    of level j (None if the window holds fewer), which by the same
    alternation is block k's level i for j = i * len(parts) + k + 1; only
    that level takes inverse iteration's confirming solve.
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
    floor = _floor(op.diag, op.off_value)
    vl = gershgorin - 1.0 - floor
    parts = _parity_blocks(op) or ((_Block(op.diag, op.offdiag, floor), 0),)
    # a tolerance as wide as the window stops dstebz at the Sturm counts
    starts = [eigvalsh_tridiagonal(B.diag, B.offdiag, select="v",
                                   select_range=(vl, E), check_finite=False,
                                   tol=t if seeds is None else E - vl,
                                   lapack_driver="stebz")
              for B, _ in parts]
    n_levels = sum(s.size for s in starts)
    if n_levels > LEVEL_CAP:
        raise WindowCapError(f"{n_levels} levels below E = {E}; cap is {LEVEL_CAP}")
    lam, lam_lo, kept = [], [], None
    i_keep, k_keep = divmod(keep - 1, len(parts))
    xi = op.grid.nodes() / math.sqrt(op.h)
    for k, ((B, parity), block_starts) in enumerate(zip(parts, starts)):
        if seeds is not None:
            block_starts = seeds[k::len(parts)][:block_starts.size]
        # a block's rows are the last of the grid's
        vectors = _oscillator_vectors(xi[xi.size - B.diag.size:], parity)
        moves = []   # only seeds move: a midpoint starts where it is
        for i, (start, v0) in enumerate(zip(block_starts, vectors)):
            keeping = (i, k) == (i_keep, k_keep)
            v, shift = _inverse_iteration(*B, start + _next_move(moves), v0, keeping)
            hi, lo = _dd.two_sum(shift, _rayleigh_correction(op, v, shift, parity))
            if seeds is not None:
                moves.append((hi - start) + lo)
            lam.append(hi)
            lam_lo.append(lo)
            if keeping:
                kept = _full_vector(v, parity)
    lam, lam_lo = np.array(lam), np.array(lam_lo)
    order = np.lexsort((lam_lo, lam))
    lam, lam_lo = lam[order], lam_lo[order]
    # inverse iteration stopped on a residual bound of floor, which bounds
    # the distance from the Rayleigh quotient to an eigenvalue of T
    est = floor + 8.0 * _EPS * np.maximum(1.0, np.abs(lam))
    value = lam + lam_lo
    if (lam.size != n_levels or np.any(value > E)
            or np.any(np.diff(value) <= est[:-1] + est[1:])):
        raise ConvergenceError(
            f"polish did not certify the window below E = {E}: {lam.size} starts for "
            f"{n_levels} levels, values up to {np.max(value, initial=-np.inf):.17g}, "
            f"or two closer than their error estimates")
    spec = Spectrum(h=op.h, eigenvalues=lam, eigenvalues_lo=lam_lo,
                    error_estimate=est, grid=op.grid)
    return (spec, kept) if keep else spec


def _polished_levels(op: TridiagonalOperator, E: float, check_margin: bool = True,
                     coarse: Spectrum | None = None) -> Spectrum:
    """``op``'s levels in (vl, E], polished from seeds, else bisected: the one owner of the fallback.

    The seeds are ``coarse``'s levels, ``op``'s window on ``grid.coarse()``,
    or without ``coarse`` the oscillator's levels (2j - 1) h, j = 1..LEVEL_CAP,
    of which ``_levels`` takes as many as the window holds.  A rough seed
    costs the value no precision, since its Rayleigh correction is taken
    about inverse iteration's own estimate; a window that ``_levels``
    cannot certify from its seeds (``ConvergenceError``) is bisected and
    polished from its bracket midpoints instead.
    """
    if coarse is None:
        seeds = (2.0 * np.arange(1, LEVEL_CAP + 1) - 1.0) * op.h
    else:
        seeds = coarse.eigenvalues + coarse.eigenvalues_lo
    try:
        return _levels(op, E, check_margin, seeds)
    except ConvergenceError:
        return _levels(op, E, check_margin)


def eigenvalues_below_multi(ops: list[TridiagonalOperator], E_list,
                            check_margin: bool = True) -> list[Spectrum]:
    """The polished eigenvalues of each operator in its window (vl, E].

    vl lies below the operator's Gershgorin bound, so the window holds every
    eigenvalue up to E.  Each window is polished from the oscillator's
    levels (2j - 1) h and certified by its Sturm count, or bisected when it
    fails the certificate (``_polished_levels``; the module docstring states
    the rule).  A bisected window's ``dstebz`` brackets have width
    t = BRACKET_REL * max(1, min(E, top)), top = max(diag) + 2|off| the
    Gershgorin upper bound: far below the level spacing for up to
    ``LEVEL_CAP`` levels, and capping E at top keeps a window above the
    whole spectrum from widening them past it.  A mirror-symmetric operator
    is counted, inverse-iterated and polished as its even and odd half-size
    blocks (``_parity_blocks``).  More than ``LEVEL_CAP`` levels in a window
    raise ``WindowCapError``.  ``check_margin=False`` skips the
    turning-point margin guard (useful when the matrix itself, not the
    continuum problem, is the object of study).
    """
    Es = [float(e) for e in E_list]
    if len(Es) != len(ops):
        raise PreconditionError("need one window per operator")
    return [_polished_levels(op, E, check_margin) for op, E in zip(ops, Es)]


def eigenvalues_below(T: TridiagonalOperator, E: float,
                      check_margin: bool = True) -> Spectrum:
    """The polished eigenvalues of T in (vl, E]; see ``eigenvalues_below_multi``."""
    return eigenvalues_below_multi([T], [E], check_margin=check_margin)[0]


# ---------------------------------------------------------------------------
# Richardson refinement
# ---------------------------------------------------------------------------

def richardson(fine, fine_lo, coarse, coarse_lo):
    """Richardson's (4 fine - coarse)/3 of two O(dx^2) values, as (hi, lo, estimate).

    Each value (scalar or array) is an unevaluated sum hi + lo; a plain one
    passes lo = 0.0.  The estimate is |fine - coarse| / 3, the fine value's error.
    """
    t, e = _dd.two_sum(4.0 * fine, -coarse)
    hi = t / 3.0
    lo = ((t - 3.0 * hi) + (e + 4.0 * fine_lo - coarse_lo)) / 3.0
    return hi, lo, abs((fine - coarse) + (fine_lo - coarse_lo)) / 3.0


def _richardson_combine(fine: Spectrum, coarse: Spectrum) -> Spectrum:
    m = min(len(fine), len(coarse))
    hi, lo, est = richardson(fine.eigenvalues[:m], fine.eigenvalues_lo[:m],
                             coarse.eigenvalues[:m], coarse.eigenvalues_lo[:m])
    return Spectrum(h=fine.h, eigenvalues=hi, eigenvalues_lo=lo,
                    error_estimate=est, grid=fine.grid)


def refine_multi(entries: list[tuple[PotentialSpec, float, float]],
                 grid: Grid) -> list[Spectrum]:
    """Richardson-refined spectra for several (potential, h, E) requests on ``grid``.

    The coarse grid, ``grid.coarse()``, is solved first, from the
    oscillator's levels (``eigenvalues_below_multi``), and each fine grid is
    polished from its coarse levels; either window falls back to bisection
    (``_polished_levels``; the module docstring states the one rule both
    follow).  Each solve checks
    the turning-point margin (V(L) >= E + 10, else ``GridMarginError``);
    both grids share L, so the coarse solve raises first.
    """
    grid_c = grid.coarse()
    ops_f = [discretize(p, h, grid) for (p, h, _) in entries]
    ops_c = [discretize(p, h, grid_c) for (p, h, _) in entries]
    Es = [float(E) for (_, _, E) in entries]
    spec_c = eigenvalues_below_multi(ops_c, Es)
    return [_richardson_combine(_polished_levels(op, E, coarse=coarse), coarse)
            for op, E, coarse in zip(ops_f, Es, spec_c)]


def refine(p: PotentialSpec, h: float, E: float, grid: Grid) -> Spectrum:
    """The eigenvalues below E on ``grid`` and ``grid.coarse()``, combined by ``richardson``.

    The coarse levels are polished from the oscillator's, the fine ones
    from the coarse ones, with bisection as the fallback; see ``refine_multi``.
    """
    return refine_multi([(p, h, E)], grid)[0]


# ---------------------------------------------------------------------------
# Eigenvectors
# ---------------------------------------------------------------------------

def eigenvector(T: TridiagonalOperator, E: float, j: int) -> tuple[Spectrum, np.ndarray]:
    """T's levels in (vl, E] and level j's vector, both from one ``_levels`` solve.

    u is normalized to dx * sum(u_i^2) = 1, its largest component positive
    (so a ground state is positive everywhere).  Its residual against the
    polished level j, in compensated arithmetic, certifies that u belongs to
    level j; binary64 storage of u already costs ~eps * ||T||, whence the floor.
    """
    if j < 1:
        raise PreconditionError(f"level index j must be >= 1, got {j}")
    spec, u = _levels(T, E, keep=j)
    if len(spec) < j:
        raise PreconditionError(f"window E = {E} holds only {len(spec)} levels, need {j}")
    res = _dd.residual_norm(T.diag, T.off_value, u, spec.eigenvalues[j - 1],
                            spec.eigenvalues_lo[j - 1]) / _norm(u)
    floor = max(1e-10, _floor(T.diag, T.off_value))
    if res > floor:
        raise ConvergenceError(f"level {j} residual {res:.3e} above tolerance {floor:.3e}")
    u = u / np.sqrt(T.grid.dx * np.dot(u, u))
    i = int(np.argmax(np.abs(u)))
    if u[i] < 0.0:
        u = -u
    return spec, u
