"""Prüfer angle integration, comparison inequalities, and a shooting eigensolver.

The polar substitution u = r sin(theta), u' = r cos(theta) turns a
second-order equation u'' + Q u = 0 into the first-order angle equation

    theta' = Q sin^2(theta) + cos^2(theta),
    (log r)' = (1 - Q) sin(theta) cos(theta).

Angles are propagated continuously (no modular reduction), which is what
makes ordering statements between two coefficient functions meaningful and
turns eigenvalue location into "the angle reaches j*pi at the right end".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import BracketError, PreconditionError, check_root
from .potential import PotentialSpec, harmonic


EPS_PER_LENGTH = 1e-11   # local error per unit length of the angle integrations
MAX_STEP = 0.02          # their largest step, so traces sample the path densely
COMPARE_TOL = 1e-9       # slack of the angle and solution orderings


@dataclass(frozen=True)
class CoefficientQ:
    """Coefficient Q(x) = (lam - V(x)) / h^2 of the angle equation.

    The default potential is the bare oscillator V = x^2.  With a bump
    perturbation t*alpha >= 0 added, the perturbed coefficient lies below
    the unperturbed one pointwise, which drives the comparison results.
    Setting ``const`` overrides everything with Q(x) = const (useful for
    closed-form checks).
    """

    lam: float
    potential: PotentialSpec = harmonic()
    h: float = 1.0
    const: float | None = None

    def scalar_fn(self):
        """A fast scalar closure x -> Q(x), V's bumps in their ``math`` spelling."""
        if self.const is not None:
            cval = float(self.const)
            return lambda x: cval
        lam = self.lam
        inv_h2 = 1.0 / (self.h * self.h)
        p = self.potential
        t, eps, reflect = p.t, p.eps, p.reflect_beta
        alpha, beta = p.alpha.scalar(), p.beta.scalar()

        def q(x: float) -> float:
            v = x * x
            if t != 0.0:
                v += t * alpha(x)
            if eps != 0.0:
                v += eps * beta(-x if reflect else x)
            return (lam - v) * inv_h2

        return q


@dataclass
class PrueferTrace:
    """Sampled (x, theta, log r) path of one angle integration."""

    xs: np.ndarray
    thetas: np.ndarray
    log_rs: np.ndarray


@dataclass(frozen=True)
class TracePair:
    """Traces of the angle systems of ``q_big`` and ``q_small`` from one start.

    Both must start at the same (x, theta) and share their abscissae, which
    ``integrate_angle_pair`` guarantees; any other pair is refused here.
    """

    q_big: CoefficientQ
    q_small: CoefficientQ
    big: PrueferTrace
    small: PrueferTrace

    def __post_init__(self):
        b, s = self.big, self.small
        if b.xs[0] != s.xs[0] or b.thetas[0] != s.thetas[0]:
            raise PreconditionError("traces must share the start point and angle")
        if not np.array_equal(b.xs, s.xs):
            raise PreconditionError(
                "traces must share their abscissae; integrate them with integrate_angle_pair")


def integrate_angle(q: CoefficientQ, x0: float, theta0: float, x1: float) -> PrueferTrace:
    """Integrate the angle (and log-radius) equation from (x0, theta0) to x1.

    The pair integrator with both members ``q``: the step control takes the
    largest error over the components, and the copy only repeats them, so
    the trace is the one a single system would give, bit for bit.
    """
    return integrate_angle_pair(q, q, x0, theta0, x1).big


def integrate_angle_pair(q_big: CoefficientQ, q_small: CoefficientQ,
                         x0: float, theta0: float, x1: float) -> TracePair:
    """Integrate both angle systems jointly so the traces share step points."""
    if not x0 < x1:
        raise PreconditionError("need x0 < x1")
    qb = q_big.scalar_fn()
    qs = q_small.scalar_fn()

    def rhs(x, y):
        thb, lrb, ths, lrs = y
        sb, cb = math.sin(thb), math.cos(thb)
        ss, cs = math.sin(ths), math.cos(ths)
        qqb = qb(x)
        qqs = qs(x)
        return (qqb * sb * sb + cb * cb, (1.0 - qqb) * sb * cb,
                qqs * ss * ss + cs * cs, (1.0 - qqs) * ss * cs)

    xs, ys = _rk.integrate(rhs, x0, (theta0, 0.0, theta0, 0.0), x1,
                           eps_per_length=EPS_PER_LENGTH, max_step=MAX_STEP)
    arr = np.asarray(ys)
    xs = np.asarray(xs)
    return TracePair(q_big, q_small, PrueferTrace(xs, arr[:, 0], arr[:, 1]),
                     PrueferTrace(xs, arr[:, 2], arr[:, 3]))


@dataclass
class AngleComparison:
    ok: bool
    min_margin: float          # min over samples of theta_big - theta_small
    argmin_x: float


def compare_angles(pair: TracePair) -> AngleComparison:
    """Check theta_small <= theta_big + COMPARE_TOL pointwise along the pair.

    Requires Q_small <= Q_big on the pair's span (validated by dense
    sampling of the coefficients).
    """
    qb = pair.q_big.scalar_fn()
    qs = pair.q_small.scalar_fn()
    xs = pair.big.xs
    for x in np.arange(xs[0], xs[-1] + 5e-4, 1e-3):
        if qs(float(x)) > qb(float(x)) + 1e-12:
            raise PreconditionError(
                f"Q ordering violated at x = {x:.6g}: "
                f"{qs(float(x)):.6g} > {qb(float(x)):.6g}")
    margins = pair.big.thetas - pair.small.thetas
    i = int(np.argmin(margins))
    return AngleComparison(ok=bool(margins[i] >= -COMPARE_TOL),
                           min_margin=float(margins[i]), argmin_x=float(xs[i]))


@dataclass
class SolutionComparison:
    ok: bool
    min_margin: float          # min over samples of u_small_eq - u_big_eq
    xs: np.ndarray
    u_small_eq: np.ndarray     # solution of the smaller-Q equation (the perturbed one)
    u_big_eq: np.ndarray


def _reconstruct(trace: PrueferTrace, start_value: float) -> np.ndarray:
    """Solution values r sin(theta) from a trace, scaled to match start_value."""
    s0 = math.sin(trace.thetas[0])
    if abs(s0) < 1e-300:
        raise PreconditionError("start angle has sin(theta0) = 0; cannot scale")
    r = np.exp(trace.log_rs - trace.log_rs[0])
    return (start_value / s0) * r * np.sin(trace.thetas)


def compare_solutions(pair: TracePair, u_start: float) -> SolutionComparison:
    """Check u_small_eq >= u_big_eq - COMPARE_TOL on the pair's span.

    Solutions are rebuilt from the angle/log-radius paths with matched value
    ``u_start`` at the shared start.  The smaller coefficient Q
    produces the pointwise larger solution here because its angle stays in
    (0, pi/2] on the span; leaving that region is reported as an error.
    """
    th0 = pair.big.thetas[0]
    if not 0.0 < th0 <= math.pi / 2:
        raise PreconditionError(f"start angle {th0} outside (0, pi/2]")
    th_small = pair.small.thetas
    if np.any(th_small <= 0.0) or np.any(th_small > math.pi / 2 + 1e-9):
        raise PreconditionError("traces leave the validity region 0 < theta <= pi/2")
    u_small = _reconstruct(pair.small, u_start)
    u_big = _reconstruct(pair.big, u_start)
    min_margin = float(np.min(u_small - u_big))
    return SolutionComparison(ok=min_margin >= -COMPARE_TOL, min_margin=min_margin,
                              xs=pair.big.xs, u_small_eq=u_small, u_big_eq=u_big)


def shoot_eigenvalue(p: PotentialSpec, h: float, j: int, L: float,
                     lam_tol: float = 1e-9, eps_per_length: float = 3e-10) -> float:
    """The j-th Dirichlet eigenvalue on [-L, L] by angle shooting.

    The angle integrated from (-L, 0) crosses j*pi at the right end where
    lam is the j-th eigenvalue.  It does so in a step, not smoothly: past
    the right turning point the growing solution takes over on either side
    of the eigenvalue, and the end angle jumps by about pi across it (at
    h = 1, L = 8, within 1e-12).  ``brentq`` on that step function
    degenerates to near-bisection: about 40 integrations per level at
    lam_tol = 1e-9 and 60 at 1e-12.  A root that does not converge raises
    ConvergenceError.  Serves as an oracle that is independent of the
    matrix path.
    """
    # imported here, not at module level: only the shooting experiments pay
    # for loading scipy.optimize
    from scipy.optimize import brentq

    if j < 1:
        raise PreconditionError(f"j must be >= 1, got {j}")
    target = j * math.pi

    def g(lam: float) -> float:
        qf = CoefficientQ(lam=lam, potential=p, h=h).scalar_fn()
        return _rk.angle_end(qf, -L, L, eps_per_length, 0.05) - target

    # V >= x^2 puts lambda_j above (2j-1) h > lo, so g(lo) < 0 needs no check
    base = (2.0 * j - 1.0) * h
    lo = max(base - 1.2 * h, 1e-12)
    hi = base + 1.2 * h + p.bump_height + 0.1
    for _ in range(12):
        g_hi = g(hi)
        if g_hi > 0.0:
            break
        hi = hi + max(h, 1.0)
    else:
        raise BracketError(f"no bracket for j = {j} below lam = {hi:.6g}")
    # brentq evaluates its f(b) again; hand it the bracket's own value
    lam, res = brentq(lambda x: g_hi if x == hi else g(x), lo, hi, xtol=lam_tol,
                      rtol=8.0 * np.finfo(float).eps, full_output=True, disp=False)
    check_root(res, f"shoot_eigenvalue (j = {j})", lo, hi)
    return float(lam)
