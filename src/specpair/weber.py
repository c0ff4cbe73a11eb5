"""The Weber (parabolic cylinder) solution attached to a non-quantized level.

W solves -W'' + (x^2 - lam1) W = 0 with decay at -infinity, normalized to
match the ground state at x = -3.  For lam1 strictly between odd integers
W cannot decay on both sides: it grows on the right, crosses zero exactly
once past the bump region, has a single critical point at x = -a, and the
mismatch constant c = u1(0)/W(0) measures how far the ground state is from
being even.

The matching problem is one fixed problem at h = 1 on [X_LEFT, X_RIGHT]:
the bumps vanish at X_LEFT, so the oscillator decay law seeds both
integrations there, and W stays representable up to X_RIGHT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import pruefer
from .errors import ConvergenceError, PreconditionError, check_root
from .potential import PotentialSpec, potential_eval

__all__ = [
    "DenseSolution",
    "WeberSolution",
    "WeberPropertyReport",
    "IdentityReport",
    "matched_ground_state",
    "ode_ground_state",
    "solve_weber",
    "check_properties",
    "c_identities",
]

X_LEFT, X_RIGHT = -8.0, 8.0   # integration domain of u1 and W
RTOL = 1e-12                  # DOP853 relative tolerance of both integrations
DENSE_STEP = 1e-3             # spacing of the dense samples taken from them
SLOPE_REL_TOL = 0.05          # relative tolerance of the decay and growth laws
RESIDUAL_TOL = 1e-8           # bound on W's relative ODE defect
IDENTITY_TOL = 1e-7           # bound on the matching-identity defects


@dataclass(frozen=True)
class DenseSolution:
    """``scale`` times the rows (y, y') of one integration's dense interpolant."""

    scale: float
    interp: object   # scipy OdeSolution over the integration span

    def rows(self, x):
        return self.scale * self.interp(np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.rows(x)[0]

    def derivative(self, x):
        return self.rows(x)[1]


def _asymptotic_seed(lam: float, x: float) -> tuple[float, float]:
    """Decaying-solution seed (u, u') deep in the left forbidden region."""
    p_exp = (lam - 1.0) / 2.0
    u = (math.sqrt(2.0) * abs(x)) ** p_exp * math.exp(-x * x / 2.0)
    up = u * (p_exp / x - x)
    return u, up


def _decaying_solution(v, lam: float, x_right: float):
    """Dense interpolant of -y'' + (v(x) - lam) y = 0 decaying at X_LEFT."""
    def rhs(x, y):
        return [y[1], (v(x) - lam) * y[0]]

    # max_step keeps the dense interpolant good enough for second differences
    sol = solve_ivp(rhs, (X_LEFT, x_right), _asymptotic_seed(lam, X_LEFT),
                    method="DOP853", rtol=RTOL, atol=1e-290, dense_output=True,
                    max_step=0.02)
    if not sol.success:
        raise ConvergenceError(f"decaying-solution integration failed: {sol.message}")
    return sol.sol


def ode_ground_state(p: PotentialSpec, lam1: float) -> DenseSolution:
    """L2-normalized ground state at h = 1 by integrating the eigen-ODE.

    ``lam1`` must already be the ground eigenvalue to high accuracy (e.g.
    from angle shooting).
    """
    interp = _decaying_solution(lambda x: potential_eval(p, x), lam1, X_RIGHT)
    # normalize on [X_LEFT, 6]: the true mass beyond 6 is ~e^{-36}, while the
    # integrated tail past 6 is polluted by the growing admixture that any
    # eigenvalue error excites
    xs = np.linspace(X_LEFT, 6.0, int(round((6.0 - X_LEFT) / DENSE_STEP)) + 1)
    vals = interp(xs)[0]
    norm2 = float(np.trapezoid(vals * vals, xs))
    return DenseSolution(scale=1.0 / math.sqrt(norm2), interp=interp)


@dataclass
class WeberSolution:
    """Dense W with extracted features."""

    lambda1: float
    xs: np.ndarray
    W: np.ndarray
    Wp: np.ndarray
    a: float                      # critical point sits at x = -a
    z0: float | None              # single zero beyond the bump region, if any
    c: float                      # u1(0) / W(0)
    x_right: float
    boundary_case: bool           # lambda1 == 1 exactly
    dense: DenseSolution

    def value(self, x):
        return self.dense(x)

    def derivative(self, x):
        return self.dense.derivative(x)

    def to_csv_rows(self):
        for x, w, wp in zip(self.xs, self.W, self.Wp):
            yield {"x": float(x), "W": float(w), "Wp": float(wp)}


def solve_weber(lambda1: float, u1: DenseSolution) -> WeberSolution:
    """Integrate the Weber equation rightward and extract its features.

    Seeds (W, W') at X_LEFT from the decay asymptotics, then rescales the
    whole solution so W(-3) = u1(-3).  Feature extraction: the critical
    point -a (unique sign change of W'), the first zero z0 past the growth
    onset and the matching constant c = u1(0)/W(0).

    lambda1 = 1 exactly is the quantized boundary case: W decays on both
    sides, and rounding noise must excite the growing branch near x ~ 6, so
    the sampled window is trimmed to the representable part.
    """
    if not (1.0 <= lambda1 < 3.0):
        raise PreconditionError(f"need 1 <= lambda1 < 3, got {lambda1}")
    boundary = (lambda1 == 1.0)
    x_right = 5.5 if boundary else X_RIGHT

    interp = _decaying_solution(lambda x: x * x, lambda1, x_right)
    dense = DenseSolution(scale=float(u1(-3.0)) / float(interp(-3.0)[0]), interp=interp)

    n_pts = int(math.ceil((x_right - X_LEFT) / DENSE_STEP)) + 1
    xs = np.linspace(X_LEFT, x_right, n_pts)
    W, Wp = dense.rows(xs)

    # critical point: the unique sign change of W'
    sgn = np.sign(Wp)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size != 1:
        raise ConvergenceError(f"expected one sign change of W', found {flips.size}")
    i = flips[0]
    x_crit, res = brentq(lambda x: float(dense.derivative(x)), xs[i], xs[i + 1], xtol=1e-13,
                         full_output=True, disp=False)
    check_root(res, "critical point of W", xs[i], xs[i + 1])
    a = -float(x_crit)
    if boundary and abs(a) < 1e-8:
        a = 0.0

    # single zero on the growth side
    sgnW = np.sign(W)
    zflips = np.nonzero(sgnW[:-1] * sgnW[1:] < 0)[0]
    if zflips.size > 1:
        raise ConvergenceError(f"expected at most one zero of W, found {zflips.size}")
    z0 = None
    if zflips.size == 1:
        j = zflips[0]
        z0, res = brentq(lambda x: float(dense(x)), xs[j], xs[j + 1], xtol=1e-13,
                         full_output=True, disp=False)
        check_root(res, "zero of W", xs[j], xs[j + 1])
        z0 = float(z0)

    c = float(u1(0.0)) / float(dense(0.0))

    return WeberSolution(lambda1=lambda1, xs=xs, W=W, Wp=Wp, a=a, z0=z0, c=c,
                         x_right=x_right, boundary_case=boundary, dense=dense)


def matched_ground_state(base: PotentialSpec) -> tuple[float, DenseSolution, WeberSolution]:
    """(lam1, u1, W): the ground level of ``base`` at h = 1 and its matched Weber solution.

    lam1 is shot to 1e-12 on [X_LEFT, X_RIGHT], u1 is its normalized
    eigenfunction and W the Weber solution matched to u1 at x = -3.
    """
    lam1 = pruefer.shoot_eigenvalue(base, 1.0, 1, X_RIGHT, lam_tol=1e-12,
                                    eps_per_length=1e-12)
    u1 = ode_ground_state(base, lam1)
    return lam1, u1, solve_weber(lam1, u1)


@dataclass
class WeberPropertyReport:
    ok: bool
    failures: list[str]
    positive_on_left: bool
    unique_critical_point: bool
    falls_at_right: bool
    decay_slope: float
    growth_slope: float
    max_residual: float
    boundary_case: bool

    def __bool__(self) -> bool:
        return self.ok


def _ode_residual(w: WeberSolution) -> float:
    """Max relative defect of -W'' + (x^2 - lam) W over the dense grid.

    Five-point second differences; the defect is scaled by the local size of
    the equation terms, max(1, |x^2 - lam| |W|).
    """
    xs, W = w.xs, w.W
    dx = xs[1] - xs[0]
    wpp = (-W[:-4] + 16.0 * W[1:-3] - 30.0 * W[2:-2] + 16.0 * W[3:-1] - W[4:]) \
        / (12.0 * dx * dx)
    xm = xs[2:-2]
    target = (xm * xm - w.lambda1) * W[2:-2]
    denom = np.maximum(1.0, np.abs(target))
    return float(np.max(np.abs(wpp - target) / denom))


def check_properties(w: WeberSolution) -> WeberPropertyReport:
    """Verify the qualitative shape of W used by the matching argument."""
    failures: list[str] = []

    min_left = float(np.min(w.W[w.xs <= 3.0]))
    pos = min_left > 0.0
    if not pos:
        failures.append(f"W is not positive on [{X_LEFT}, 3]: min = {min_left:.3e}")

    sgn = np.sign(w.Wp)
    flips = int(np.count_nonzero(sgn[:-1] * sgn[1:] < 0))
    unique_crit = flips == 1
    if not unique_crit:
        failures.append(f"W' changes sign {flips} times, expected 1")
    i_crit = int(np.searchsorted(w.xs, -w.a))
    if np.any(w.Wp[:max(i_crit - 1, 1)] <= 0.0):
        failures.append("W' is not positive left of the critical point")
    if np.any(w.Wp[i_crit + 1:] >= 0.0):
        failures.append("W' is not negative right of the critical point")

    sqrt_l1 = math.sqrt(w.lambda1)
    if not abs(w.a) < sqrt_l1:
        failures.append(f"|a| = {abs(w.a):.6g} not below sqrt(lambda1) = {sqrt_l1:.6g}")

    falls = True
    if w.boundary_case:
        if w.z0 is not None:
            failures.append("boundary case lambda1 = 1 should have no zero")
    elif w.z0 is None:
        failures.append("no zero found on the growth side")
    elif not w.z0 > 3.0:
        failures.append(f"zero z0 = {w.z0:.6g} not beyond 3")
    else:
        beyond = w.xs > w.z0 + 10 * (w.xs[1] - w.xs[0])
        if np.any(w.W[beyond] >= 0.0):
            falls = False
            failures.append("W does not stay negative past its zero")
        if not w.W[-1] < -1.0:
            falls = False
            failures.append(f"W({w.x_right}) = {w.W[-1]:.3e} has not fallen away")

    # decay-side law: log W + x^2/2 affine in log|x| with slope (lam-1)/2
    mask = w.xs <= X_LEFT + 2.0
    xl = w.xs[mask]
    yl = np.log(w.W[mask]) + 0.5 * xl * xl
    Al = np.stack([np.ones_like(xl), np.log(np.abs(xl))], axis=1)
    (_, decay_slope), *_ = np.linalg.lstsq(Al, yl, rcond=None)
    decay_expected = 0.5 * (w.lambda1 - 1.0)
    if w.boundary_case:
        if abs(decay_slope) > 0.01:
            failures.append(f"decay slope {decay_slope:.4g} should vanish at lambda1 = 1")
    elif abs(decay_slope - decay_expected) > SLOPE_REL_TOL * abs(decay_expected):
        failures.append(
            f"decay slope {decay_slope:.6g} vs expected {decay_expected:.6g}")

    # growth-side law: log|W| - x^2/2 affine in log x with slope -(lam+1)/2
    if w.boundary_case:
        growth_slope = math.nan
    else:
        growth_expected = -0.5 * (w.lambda1 + 1.0)
        mask = w.xs >= w.x_right - 2.0
        xg = w.xs[mask]
        yg = np.log(np.abs(w.W[mask])) - 0.5 * xg * xg
        Ag = np.stack([np.ones_like(xg), np.log(xg)], axis=1)
        (_, growth_slope), *_ = np.linalg.lstsq(Ag, yg, rcond=None)
        if abs(growth_slope - growth_expected) > SLOPE_REL_TOL * abs(growth_expected):
            failures.append(
                f"growth slope {growth_slope:.6g} vs expected {growth_expected:.6g}")

    resid = _ode_residual(w)
    if resid > RESIDUAL_TOL:
        failures.append(f"ODE residual {resid:.3e} above {RESIDUAL_TOL:.1e}")

    return WeberPropertyReport(
        ok=not failures, failures=failures, positive_on_left=pos,
        unique_critical_point=unique_crit, falls_at_right=falls,
        decay_slope=float(decay_slope), growth_slope=float(growth_slope),
        max_residual=resid, boundary_case=w.boundary_case)


@dataclass
class IdentityReport:
    sup_left: float               # sup |u1 - W| on [X_LEFT, -3]
    argmax_left: float
    sup_right: float              # sup |u1 - c W(-.)| on [-2, 4]
    argmax_right: float
    deriv_mismatch: float         # |u1'(-a) + c W'(a)|

    @property
    def ok(self) -> bool:
        return (self.sup_left <= IDENTITY_TOL and self.sup_right <= IDENTITY_TOL
                and self.deriv_mismatch <= IDENTITY_TOL)


def c_identities(w: WeberSolution, u1: DenseSolution) -> IdentityReport:
    """Measure the two matching identities and the derivative relation at -a.

    u1 == W left of the alpha bump, u1 == c W(-.) right of it, and
    u1'(-a) = -c W'(a).  ``u1`` is the eigenfunction ``w`` was matched to.
    """
    c = w.c

    xs_l = np.arange(X_LEFT, -3.0 + 1e-12, DENSE_STEP)
    diff_l = np.abs(np.asarray(u1(xs_l)) - w.value(xs_l))
    i_l = int(np.argmax(diff_l))

    xs_r = np.arange(-2.0, 4.0 + 1e-12, DENSE_STEP)
    diff_r = np.abs(np.asarray(u1(xs_r)) - c * w.value(-xs_r))
    i_r = int(np.argmax(diff_r))

    dmis = abs(float(u1.derivative(-w.a)) + c * float(w.derivative(w.a)))

    return IdentityReport(sup_left=float(diff_l[i_l]), argmax_left=float(xs_l[i_l]),
                          sup_right=float(diff_r[i_r]), argmax_right=float(xs_r[i_r]),
                          deriv_mismatch=dmis)
