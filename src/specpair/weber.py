"""The Weber (parabolic cylinder) solution attached to a non-quantized level.

W solves -W'' + (x^2 - lam1) W = 0 with decay at -infinity, normalized to
match the ground state at x = -3.  For lam1 strictly between odd integers
W cannot decay on both sides: it grows on the right, crosses zero exactly
once past the bump region, has a single critical point at x = -a, and the
mismatch constant c = u1(0)/W(0) measures how far the ground state is from
being even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import ConvergenceError, PreconditionError
from .potential import PotentialSpec, potential_eval

__all__ = [
    "Eigenfunction",
    "WeberSolution",
    "WeberPropertyReport",
    "IdentityReport",
    "ode_ground_state",
    "solve_weber",
    "check_properties",
    "compute_c",
    "c_identities",
]


@dataclass
class Eigenfunction:
    """A normalized eigenfunction as a dense callable with derivative."""

    lam: float
    _values: object   # callable x -> u(x)
    _deriv: object    # callable x -> u'(x)

    def __call__(self, x):
        return self._values(x)

    def derivative(self, x):
        return self._deriv(x)


def _asymptotic_seed(lam: float, x: float, h: float = 1.0) -> tuple[float, float]:
    """Decaying-solution seed (u, u') deep in the left forbidden region."""
    p_exp = (lam / h - 1.0) / 2.0
    u = (math.sqrt(2.0) * abs(x)) ** p_exp * math.exp(-x * x / (2.0 * h))
    up = u * (p_exp / x - x / h)
    return u, up


def ode_ground_state(p: PotentialSpec, lam1: float, x_left: float = -8.0,
                     x_right: float = 8.0, h: float = 1.0,
                     rtol: float = 1e-12) -> Eigenfunction:
    """L2-normalized ground state by integrating the eigen-ODE.

    ``lam1`` must already be the ground eigenvalue to high accuracy (e.g.
    from angle shooting); the bumps must vanish at ``x_left`` so the
    oscillator decay law seeds the integration.
    """
    if x_left > -8.0 or x_right < 8.0:
        raise PreconditionError("need x_left <= -8 and x_right >= 8")
    u0 = _asymptotic_seed(lam1, x_left, h)

    def rhs(x, y):
        return [y[1], (potential_eval(p, x) - lam1) / (h * h) * y[0]]

    # max_step keeps the dense interpolant good enough for second differences
    sol = solve_ivp(rhs, (x_left, x_right), u0, method="DOP853",
                    rtol=rtol, atol=1e-290, dense_output=True, max_step=0.02)
    if not sol.success:
        raise ConvergenceError(f"ground-state integration failed: {sol.message}")
    # normalize on [x_left, 6]: the true mass beyond 6 is ~e^{-36}, while the
    # integrated tail past 6 is polluted by the growing admixture that any
    # eigenvalue error excites
    x_cut = min(6.0, x_right)
    xs = np.linspace(x_left, x_cut, int(round((x_cut - x_left) / 1e-3)) + 1)
    vals = sol.sol(xs)[0]
    norm2 = float(np.trapezoid(vals * vals, xs))
    scale = 1.0 / math.sqrt(norm2)

    dense = sol.sol

    def values(x):
        return scale * dense(np.asarray(x, dtype=float))[0]

    def deriv(x):
        return scale * dense(np.asarray(x, dtype=float))[1]

    return Eigenfunction(lam=lam1, _values=values, _deriv=deriv)


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
    x_left: float
    x_right: float
    boundary_case: bool           # lambda1 == 1 exactly
    _dense: object

    def value(self, x):
        return self._dense(np.asarray(x, dtype=float))[0]

    def derivative(self, x):
        return self._dense(np.asarray(x, dtype=float))[1]

    def to_csv_rows(self):
        for x, w, wp in zip(self.xs, self.W, self.Wp):
            yield {"x": float(x), "W": float(w), "Wp": float(wp)}


def solve_weber(lambda1: float, x_left: float, x_right: float,
                u1: Eigenfunction, rtol: float = 1e-12,
                dense_step: float = 1e-3) -> WeberSolution:
    """Integrate the Weber equation rightward and extract its features.

    Seeds (W, W') at ``x_left`` from the decay asymptotics, then rescales the
    whole solution so W(-3) = u1(-3).  Feature extraction: the critical
    point -a (unique sign change of W'), the first zero z0 past the growth
    onset and the matching constant c = u1(0)/W(0).

    lambda1 = 1 exactly is the quantized boundary case: W decays on both
    sides, and rounding noise must excite the growing branch near x ~ 6, so
    the sampled window is trimmed to the representable part.
    """
    if not (1.0 <= lambda1 < 3.0):
        raise PreconditionError(f"need 1 <= lambda1 < 3, got {lambda1}")
    if x_left > -8.0 or x_right < 8.0:
        raise PreconditionError("need x_left <= -8 and x_right >= 8")
    if 0.5 * x_left * x_left > 700.0:
        raise PreconditionError(f"x_left = {x_left} underflows the decay seed")
    # growth estimate relative to the matching point; IEEE doubles overflow at e^709
    log_growth = 0.5 * x_right * x_right - 0.5 * 9.0 + abs(math.log(max(abs(u1(-3.0)), 1e-300)))
    if log_growth > 690.0:
        raise PreconditionError(
            f"x_right = {x_right} overflows the sampled representation "
            f"(estimated ln|W| ~ {log_growth:.0f})")

    boundary = (lambda1 == 1.0)
    x_right_eff = min(x_right, 5.5) if boundary else x_right

    w0 = _asymptotic_seed(lambda1, x_left)

    def rhs(x, y):
        return [y[1], (x * x - lambda1) * y[0]]

    # max_step keeps the dense interpolant good enough for second differences
    sol = solve_ivp(rhs, (x_left, x_right_eff), w0, method="DOP853",
                    rtol=rtol, atol=1e-290, dense_output=True, max_step=0.02)
    if not sol.success:
        raise ConvergenceError(f"Weber integration failed: {sol.message}")

    raw = sol.sol
    scale = float(u1(-3.0)) / float(raw(-3.0)[0])

    def dense(x):
        return scale * raw(np.asarray(x, dtype=float))

    n_pts = int(math.ceil((x_right_eff - x_left) / dense_step)) + 1
    xs = np.linspace(x_left, x_right_eff, n_pts)
    WW = dense(xs)
    W, Wp = WW[0], WW[1]

    # critical point: the unique sign change of W'
    sgn = np.sign(Wp)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size != 1:
        raise ConvergenceError(f"expected one sign change of W', found {flips.size}")
    i = flips[0]
    x_crit = brentq(lambda x: float(dense(x)[1]), xs[i], xs[i + 1], xtol=1e-13)
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
        z0 = float(brentq(lambda x: float(dense(x)[0]), xs[j], xs[j + 1], xtol=1e-13))

    c = float(u1(0.0)) / float(dense(0.0)[0])

    return WeberSolution(lambda1=lambda1, xs=xs, W=W, Wp=Wp, a=a, z0=z0, c=c,
                         x_left=x_left, x_right=x_right_eff, boundary_case=boundary,
                         _dense=dense)


@dataclass
class WeberPropertyReport:
    ok: bool
    failures: list[str]
    positive_on_left: bool
    min_on_left: float
    unique_critical_point: bool
    a: float
    sqrt_lambda1: float
    zero_ok: bool
    z0: float | None
    falls_at_right: bool
    decay_slope: float
    decay_slope_expected: float
    growth_slope: float
    growth_slope_expected: float
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


def check_properties(w: WeberSolution, slope_rel_tol: float = 0.05,
                     residual_tol: float = 1e-8) -> WeberPropertyReport:
    """Verify the qualitative shape of W used by the matching argument."""
    failures: list[str] = []

    left = w.xs <= 3.0
    min_left = float(np.min(w.W[left]))
    pos = min_left > 0.0
    if not pos:
        failures.append(f"W is not positive on [{w.x_left}, 3]: min = {min_left:.3e}")

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

    zero_ok = True
    falls = True
    if w.boundary_case:
        if w.z0 is not None:
            zero_ok = False
            failures.append("boundary case lambda1 = 1 should have no zero")
    else:
        if w.z0 is None:
            zero_ok = False
            failures.append("no zero found on the growth side")
        elif not w.z0 > 3.0:
            zero_ok = False
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
    mask = w.xs <= w.x_left + 2.0
    xl = w.xs[mask]
    yl = np.log(w.W[mask]) + 0.5 * xl * xl
    Al = np.stack([np.ones_like(xl), np.log(np.abs(xl))], axis=1)
    (_, decay_slope), *_ = np.linalg.lstsq(Al, yl, rcond=None)
    decay_expected = 0.5 * (w.lambda1 - 1.0)
    if w.boundary_case:
        if abs(decay_slope) > 0.01:
            failures.append(f"decay slope {decay_slope:.4g} should vanish at lambda1 = 1")
    elif abs(decay_slope - decay_expected) > slope_rel_tol * abs(decay_expected):
        failures.append(
            f"decay slope {decay_slope:.6g} vs expected {decay_expected:.6g}")

    # growth-side law: log|W| - x^2/2 affine in log x with slope -(lam+1)/2
    growth_expected = -0.5 * (w.lambda1 + 1.0)
    if w.boundary_case:
        growth_slope = math.nan
    else:
        mask = w.xs >= w.x_right - 2.0
        xg = w.xs[mask]
        yg = np.log(np.abs(w.W[mask])) - 0.5 * xg * xg
        Ag = np.stack([np.ones_like(xg), np.log(xg)], axis=1)
        (_, growth_slope), *_ = np.linalg.lstsq(Ag, yg, rcond=None)
        if abs(growth_slope - growth_expected) > slope_rel_tol * abs(growth_expected):
            failures.append(
                f"growth slope {growth_slope:.6g} vs expected {growth_expected:.6g}")

    resid = _ode_residual(w)
    if resid > residual_tol:
        failures.append(f"ODE residual {resid:.3e} above {residual_tol:.1e}")

    return WeberPropertyReport(
        ok=not failures, failures=failures,
        positive_on_left=pos, min_on_left=min_left,
        unique_critical_point=unique_crit, a=w.a, sqrt_lambda1=sqrt_l1,
        zero_ok=zero_ok, z0=w.z0, falls_at_right=falls,
        decay_slope=float(decay_slope), decay_slope_expected=decay_expected,
        growth_slope=float(growth_slope), growth_slope_expected=growth_expected,
        max_residual=resid, boundary_case=w.boundary_case)


@dataclass
class IdentityReport:
    c: float
    sup_left: float               # sup |u1 - W| on [x_left, -3]
    argmax_left: float
    sup_right: float              # sup |u1 - c W(-.)| on [-2, 4]
    argmax_right: float
    deriv_mismatch: float         # |u1'(-a) + c W'(a)|
    tolerance: float

    @property
    def ok(self) -> bool:
        return (self.sup_left <= self.tolerance and self.sup_right <= self.tolerance
                and self.deriv_mismatch <= self.tolerance)


def c_identities(w: WeberSolution, u1: Eigenfunction,
                 tolerance: float = 1e-7) -> IdentityReport:
    """Measure the two matching identities and the derivative relation at -a.

    u1 == W left of the alpha bump, u1 == c W(-.) right of it, and
    u1'(-a) = -c W'(a).  ``u1`` is the eigenfunction ``w`` was matched to.
    """
    c = w.c

    xs_l = np.arange(w.x_left, -3.0 + 1e-12, 1e-3)
    diff_l = np.abs(np.asarray(u1(xs_l)) - w.value(xs_l))
    i_l = int(np.argmax(diff_l))

    xs_r = np.arange(-2.0, 4.0 + 1e-12, 1e-3)
    diff_r = np.abs(np.asarray(u1(xs_r)) - c * w.value(-xs_r))
    i_r = int(np.argmax(diff_r))

    dmis = abs(float(u1.derivative(-w.a)) + c * float(w.derivative(w.a)))

    return IdentityReport(c=c, sup_left=float(diff_l[i_l]), argmax_left=float(xs_l[i_l]),
                          sup_right=float(diff_r[i_r]), argmax_right=float(xs_r[i_r]),
                          deriv_mismatch=dmis, tolerance=tolerance)


def compute_c(w: WeberSolution, u1: Eigenfunction, tolerance: float = 1e-7) -> float:
    """The matching constant c = u1(0)/W(0), with the identities enforced."""
    rep = c_identities(w, u1, tolerance)
    if not rep.ok:
        raise ConvergenceError(
            f"matching identities violated: sup_left = {rep.sup_left:.3e} "
            f"at x = {rep.argmax_left:.3f}, sup_right = {rep.sup_right:.3e} "
            f"at x = {rep.argmax_right:.3f}, derivative mismatch = "
            f"{rep.deriv_mismatch:.3e} (tolerance {tolerance:.1e})")
    return rep.c
