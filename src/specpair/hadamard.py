"""First variation of eigenvalues under a potential bump, with an oracle.

For the family V + eps*beta the eigenvalue derivative at eps = 0 equals the
bump integrated against the squared eigenfunction.  On a fixed grid this
identity is exact for the discrete operator, so the central-difference
oracle checks the whole pipeline: discretization, eigenvector quality and
the eigenvalue extraction.  The derivative difference between the bump and
its reflection is the asymmetry witness: it vanishes for a symmetric base
potential and stays boundedly away from zero once the alpha bump breaks
the symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _dd
from .eigensolve import (Grid, Spectrum, TridiagonalOperator, discretize, eigenvector,
                         richardson, _floor, _inverse_iteration)
from .errors import PreconditionError
from .potential import BumpSpec, PotentialSpec, bump_eval


@dataclass(frozen=True, eq=False)
class Level:
    """Level j of potential p, solved once on the grid of ``T``.

    ``spec`` is the polished spectrum of the level's window and ``u`` the
    normalized eigenvector of level j that the same solve found.
    """

    p: PotentialSpec
    j: int
    T: TridiagonalOperator
    spec: Spectrum
    u: np.ndarray


def solve_level(p: PotentialSpec, h: float, j: int, grid: Grid) -> Level:
    """Level j >= 1 of p at semiclassical parameter h on ``grid``, for the checks below."""
    T = discretize(p, h, grid)
    return Level(p, j, T, *eigenvector(T, (2.0 * j + 1.0) * h + 0.5 + p.bump_height, j))


def variational_derivative(level: Level, beta: BumpSpec) -> float:
    """dx * sum beta(x_i) u_j(x_i)^2 with the solver's normalization."""
    grid = level.T.grid
    u = level.u
    return float(grid.dx * np.dot(bump_eval(beta, grid.nodes()), u * u))


def _polished_pair_difference(T_base: TridiagonalOperator, bvals: np.ndarray,
                              eps_fd: float, lam_guess: float, u: np.ndarray) -> float:
    """lam_j(+eps) - lam_j(-eps) with correlated compensated extraction.

    The perturbation is never rounded into the large diagonal entries: the
    inverse iteration runs on the rounded matrix (vector quality only), but
    the Rayleigh quotient is taken against the exact T +- eps*B, so the two
    eigenvalues share the base matrix bit for bit and their difference
    survives the cancellation.  Both iterations start from the base
    level's vector ``u``.  Only the Rayleigh quotient of each vector is
    used, and its error is already floor^2/gap, so neither takes inverse
    iteration's confirming solve.
    """
    diffs = []
    start = u / np.linalg.norm(u)
    for sgn in (+1.0, -1.0):
        diag = T_base.diag + (sgn * eps_fd) * bvals
        v, _ = _inverse_iteration(diag, T_base.offdiag, _floor(diag, T_base.off_value),
                                  lam_guess, start, confirm=False)
        corr = _dd.rayleigh_correction(T_base.diag, T_base.off_value, v, lam_guess,
                                       extra_diag=bvals, extra_scale=sgn * eps_fd)
        diffs.append(_dd.two_sum(lam_guess, corr))
    (ph, pl), (mh, ml) = diffs
    return (ph - mh) + (pl - ml)


def fd_oracle(level: Level, beta: BumpSpec, eps_fd: float) -> float:
    """(lam_j(+eps_fd) - lam_j(-eps_fd)) / (2 eps_fd) on the level's grid."""
    j, lams = level.j, level.spec.eigenvalues
    gap_lo = lams[j - 1] - lams[j - 2] if j >= 2 else np.inf
    gap_hi = lams[j] - lams[j - 1] if j < len(level.spec) else np.inf
    bvals = bump_eval(beta, level.T.grid.nodes())
    # ordering must not change across the +-eps_fd window
    shift_bound = eps_fd * float(np.max(np.abs(bvals)))
    if shift_bound > 0.4 * min(gap_lo, gap_hi):
        raise PreconditionError(
            f"eps_fd = {eps_fd} can move level {j} by {shift_bound:.3e}, "
            f"comparable to its spectral gaps")
    diff = _polished_pair_difference(level.T, bvals, eps_fd, float(lams[j - 1]), level.u)
    return diff / (2.0 * eps_fd)


@dataclass
class VariationResult:
    j: int
    formula_value: float
    oracle_value: float
    eps_fd: float
    discrepancy: float


def variation_check(level: Level, beta: BumpSpec, eps_fd: float) -> VariationResult:
    """Formula and oracle side by side on one solved level.

    A bump that is 0 at every node of the level's grid (no node inside its
    support, or amplitude 0) makes both values exactly 0, so the check
    would compare nothing; that raises PreconditionError.
    """
    grid = level.T.grid
    if not np.any(bump_eval(beta, grid.nodes())):
        raise PreconditionError(
            f"the bump is 0 at every node of {grid}: support {beta.support}, "
            f"amplitude {beta.amplitude}")
    formula = variational_derivative(level, beta)
    oracle = fd_oracle(level, beta, eps_fd)
    return VariationResult(j=level.j, formula_value=formula, oracle_value=oracle,
                           eps_fd=eps_fd, discrepancy=abs(formula - oracle))


def constant_direction_sanity(level: Level) -> float:
    """The derivative in the direction of the constant 1 potential shift.

    Must equal 1 for a normalized eigenfunction: shifting V by a constant
    shifts every eigenvalue by exactly that constant.
    """
    return float(level.T.grid.dx * np.dot(level.u, level.u))


@dataclass
class AsymmetryWitness:
    d_plus: float
    d_minus: float
    gap: float
    error_estimate: float

    @property
    def significant(self) -> bool:
        return abs(self.gap) > 100.0 * self.error_estimate


def asymmetry_witness(level: Level, beta: BumpSpec) -> AsymmetryWitness:
    """Directional derivatives toward beta(x) and beta(-x), and their gap.

    ``level`` is the ground level (j = 1) of a base potential that carries
    only the alpha bump (eps = 0; t = 0 gives the symmetric control, where
    the gap must vanish).  The gap equals the integral of beta against the
    odd part of u_1^2 and is the ground-state asymmetry certificate.  The
    error estimate is ``richardson``'s, from repeating the quadrature on
    the half-resolution grid ``Grid.coarse()``, the one level this function
    solves itself.
    """
    if level.p.eps != 0.0:
        raise PreconditionError("base potential must have eps = 0")
    if level.j != 1:
        raise PreconditionError(f"the witness needs the ground level, got j = {level.j}")

    def one(g: Grid, u: np.ndarray):
        b = bump_eval(beta, g.nodes())
        u2 = u * u
        dp = g.dx * float(np.dot(b, u2))
        dm = g.dx * float(np.dot(b, u2[::-1]))   # beta(-x) pairs with reversed nodes
        return dp, dm

    coarse = level.T.grid.coarse()
    dp_f, dm_f = one(level.T.grid, level.u)
    dp_c, dm_c = one(coarse, solve_level(level.p, level.T.h, 1, coarse).u)
    gap = dp_f - dm_f
    est = richardson(gap, 0.0, dp_c - dm_c, 0.0)[2] + 1e-16 * abs(dp_f)
    return AsymmetryWitness(d_plus=dp_f, d_minus=dm_f, gap=gap, error_estimate=est)
