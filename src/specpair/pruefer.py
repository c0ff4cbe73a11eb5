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
from scipy.optimize import brentq

from . import _rk
from .errors import BracketError, PreconditionError, check_root
from .potential import PotentialSpec

__all__ = [
    "CoefficientQ",
    "PrueferTrace",
    "AngleComparison",
    "SolutionComparison",
    "integrate_angle",
    "integrate_angle_pair",
    "compare_angles",
    "compare_solutions",
    "shoot_eigenvalue",
]


EPS_PER_LENGTH = 1e-11   # local error per unit length of the angle integrations
MAX_STEP = 0.02          # their largest step, so traces sample the path densely
COMPARE_TOL = 1e-9       # slack of the angle and solution orderings


def _bump_scalar(center: float, half_width: float, amplitude: float, x: float) -> float:
    u = (x - center) / half_width
    if -1.0 < u < 1.0:
        w = 1.0 - u * u
        return amplitude * math.exp(1.0 - 1.0 / w)
    return 0.0


@dataclass(frozen=True)
class CoefficientQ:
    """Coefficient Q(x) = (lam - V(x)) / h^2 of the angle equation.

    ``potential=None`` means the bare oscillator V = x^2.  With a bump
    perturbation t*alpha >= 0 added, the perturbed coefficient lies below
    the unperturbed one pointwise, which drives the comparison results.
    Setting ``const`` overrides everything with Q(x) = const (useful for
    closed-form checks).
    """

    lam: float
    potential: PotentialSpec | None = None
    h: float = 1.0
    const: float | None = None

    def scalar_fn(self):
        """A fast scalar closure x -> Q(x)."""
        if self.const is not None:
            cval = float(self.const)
            return lambda x: cval
        lam = self.lam
        inv_h2 = 1.0 / (self.h * self.h)
        p = self.potential
        if p is None or (p.t == 0.0 and p.eps == 0.0):
            return lambda x: (lam - x * x) * inv_h2

        t, eps, reflect = p.t, p.eps, p.reflect_beta
        ac, aw, aa = p.alpha.center, p.alpha.half_width, p.alpha.amplitude
        bc, bw, ba = p.beta.center, p.beta.half_width, p.beta.amplitude

        def q(x: float) -> float:
            v = x * x
            if t != 0.0:
                v += t * _bump_scalar(ac, aw, aa, x)
            if eps != 0.0:
                v += eps * _bump_scalar(bc, bw, ba, -x if reflect else x)
            return (lam - v) * inv_h2

        return q


@dataclass
class PrueferTrace:
    """Sampled (x, theta, log r) path of one angle integration."""

    xs: np.ndarray
    thetas: np.ndarray
    log_rs: np.ndarray
    start: tuple[float, float]
    q: CoefficientQ

    def node_count(self) -> int:
        """Upward crossings of multiples of pi (sign changes of the solution)."""
        k0 = math.floor(self.start[1] / math.pi)
        k1 = math.floor(self.thetas[-1] / math.pi)
        return int(k1 - k0)

    def to_csv_rows(self):
        for x, th, lr in zip(self.xs, self.thetas, self.log_rs):
            yield {"x": float(x), "theta": float(th), "log_r": float(lr)}


def _angle_rhs(qf):
    def rhs(x, y):
        th = y[0]
        s = math.sin(th)
        c = math.cos(th)
        qq = qf(x)
        return (qq * s * s + c * c, (1.0 - qq) * s * c)
    return rhs


def integrate_angle(q: CoefficientQ, x0: float, theta0: float, x1: float) -> PrueferTrace:
    """Integrate the angle (and log-radius) equation from (x0, theta0) to x1."""
    if not x0 < x1:
        raise PreconditionError("need x0 < x1")
    qf = q.scalar_fn()
    xs, ys = _rk.integrate(_angle_rhs(qf), x0, (theta0, 0.0), x1,
                           eps_per_length=EPS_PER_LENGTH, max_step=MAX_STEP)
    arr = np.asarray(ys)
    return PrueferTrace(xs=np.asarray(xs), thetas=arr[:, 0], log_rs=arr[:, 1],
                        start=(x0, theta0), q=q)


def integrate_angle_pair(q_big: CoefficientQ, q_small: CoefficientQ,
                         x0: float, theta0: float,
                         x1: float) -> tuple[PrueferTrace, PrueferTrace]:
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
    tb = PrueferTrace(xs=xs, thetas=arr[:, 0], log_rs=arr[:, 1], start=(x0, theta0), q=q_big)
    ts = PrueferTrace(xs=xs, thetas=arr[:, 2], log_rs=arr[:, 3], start=(x0, theta0), q=q_small)
    return tb, ts


@dataclass
class AngleComparison:
    ok: bool
    min_margin: float          # min over samples of theta_big - theta_small
    argmin_x: float
    n_samples: int

    def __bool__(self) -> bool:
        return self.ok


def _check_shared(trace_big: PrueferTrace, trace_small: PrueferTrace) -> None:
    """Raise unless both traces start alike and share their abscissae."""
    if trace_big.start != trace_small.start:
        raise PreconditionError("traces must share the start point and angle")
    if not np.array_equal(trace_big.xs, trace_small.xs):
        raise PreconditionError(
            "traces must share their abscissae; integrate them with integrate_angle_pair")


def compare_angles(trace_big: PrueferTrace, trace_small: PrueferTrace) -> AngleComparison:
    """Check theta_small <= theta_big + COMPARE_TOL pointwise along the traces.

    Requires Q_small <= Q_big on the traces' span (validated by dense
    sampling of their coefficients) and traces from ``integrate_angle_pair``.
    """
    _check_shared(trace_big, trace_small)
    qb = trace_big.q.scalar_fn()
    qs = trace_small.q.scalar_fn()
    for x in np.arange(trace_big.start[0], trace_big.xs[-1] + 5e-4, 1e-3):
        if qs(float(x)) > qb(float(x)) + 1e-12:
            raise PreconditionError(
                f"Q ordering violated at x = {x:.6g}: "
                f"{qs(float(x)):.6g} > {qb(float(x)):.6g}")
    margins = trace_big.thetas - trace_small.thetas
    i = int(np.argmin(margins))
    return AngleComparison(ok=bool(margins[i] >= -COMPARE_TOL),
                           min_margin=float(margins[i]),
                           argmin_x=float(trace_big.xs[i]),
                           n_samples=int(margins.size))


@dataclass
class SolutionComparison:
    ok: bool
    min_margin: float          # min over samples of u_small_eq - u_big_eq
    max_margin: float
    argmin_x: float
    n_samples: int
    xs: np.ndarray
    u_small_eq: np.ndarray     # solution of the smaller-Q equation (the perturbed one)
    u_big_eq: np.ndarray

    def __bool__(self) -> bool:
        return self.ok


def _reconstruct(trace: PrueferTrace, start_value: float) -> np.ndarray:
    """Solution values r sin(theta) from a trace, scaled to match start_value."""
    s0 = math.sin(trace.start[1])
    if abs(s0) < 1e-300:
        raise PreconditionError("start angle has sin(theta0) = 0; cannot scale")
    r = np.exp(trace.log_rs - trace.log_rs[0])
    return (start_value / s0) * r * np.sin(trace.thetas)


def compare_solutions(u_small_start: float, trace_big: PrueferTrace,
                      trace_small: PrueferTrace,
                      interval: tuple[float, float]) -> SolutionComparison:
    """Check u_small_eq >= u_big_eq - COMPARE_TOL on the interval.

    The interval must lie within the traces' span; one that reaches past it
    is an error, not a check of the covered part.

    Solutions are rebuilt from the angle/log-radius paths of
    ``integrate_angle_pair`` with matched value at the shared start.  The
    smaller coefficient Q produces the pointwise larger solution here
    because its angle stays in (0, pi/2] on the interval; leaving that
    region is reported as an error.
    """
    _check_shared(trace_big, trace_small)
    th0 = trace_big.start[1]
    if not 0.0 < th0 <= math.pi / 2:
        raise PreconditionError(f"start angle {th0} outside (0, pi/2]")
    a, b = interval
    lo, hi = trace_big.xs[0], trace_big.xs[-1]
    if a < lo - 1e-12 or b > hi + 1e-12:
        raise PreconditionError(
            f"interval ({a}, {b}) reaches past the traces' span [{lo}, {hi}]")
    sel = (trace_big.xs >= a - 1e-12) & (trace_big.xs <= b + 1e-12)
    if not np.any(sel):
        raise PreconditionError("interval contains no trace samples")
    th_small = trace_small.thetas[sel]
    if np.any(th_small <= 0.0) or np.any(th_small > math.pi / 2 + 1e-9):
        raise PreconditionError(
            "interval leaves the validity region 0 < theta <= pi/2")
    u_small = _reconstruct(trace_small, u_small_start)[sel]
    u_big = _reconstruct(trace_big, u_small_start)[sel]
    margins = u_small - u_big
    i = int(np.argmin(margins))
    return SolutionComparison(ok=bool(margins[i] >= -COMPARE_TOL),
                              min_margin=float(margins[i]),
                              max_margin=float(np.max(margins)),
                              argmin_x=float(trace_big.xs[sel][i]),
                              n_samples=int(margins.size),
                              xs=trace_big.xs[sel],
                              u_small_eq=u_small,
                              u_big_eq=u_big)


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
    if j < 1:
        raise PreconditionError(f"j must be >= 1, got {j}")
    target = j * math.pi

    def g(lam: float) -> float:
        qf = CoefficientQ(lam=lam, potential=p, h=h).scalar_fn()
        return _rk.angle_end(qf, -L, L, eps_per_length, 0.05) - target

    # V >= x^2 puts lambda_j above (2j-1) h > lo, so g(lo) < 0 needs no check
    base = (2.0 * j - 1.0) * h
    lo = max(base - 1.2 * h, 1e-12)
    hi = base + 1.2 * h + (p.t + p.eps) * 1.0 + 0.1
    for _ in range(12):
        if g(hi) > 0.0:
            break
        hi = hi + max(h, 1.0)
    else:
        raise BracketError(f"no bracket for j = {j} below lam = {hi:.6g}")
    lam, res = brentq(g, lo, hi, xtol=lam_tol, rtol=8.0 * np.finfo(float).eps,
                      full_output=True, disp=False)
    check_root(res, f"shoot_eigenvalue (j = {j})", lo, hi)
    return float(lam)
