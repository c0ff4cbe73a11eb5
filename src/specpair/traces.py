"""Spectral density sums, the phase-space (Weyl) term, and gap-decay fits.

The density nu_h(f) = sum_j f(lambda_j) is the quantity whose small-h
expansion both members of a potential pair share: the leading coefficient
is the phase-space integral of f(xi^2 + V), computed here by quadrature,
and the h^2 coefficient is estimated by fitting.  The per-h distance
between paired spectra, with its exponential-decay fit, quantifies how
fast the pair becomes indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .eigensolve import (Grid, discretize, eigenvalues_below_multi, refine_multi, richardson,
                         _polished_levels)
from .errors import PreconditionError, WindowCapError, check_real
from .potential import BumpSpec, PotentialSpec, bump_eval, potential_eval

TAIL_TOL = 1e-14      # certified bound on the density's tail beyond its window
WINDOW_CAP = 60.0     # highest window a density may need for that bound
SUPERPOLY_POWERS = (2, 4, 6, 8)   # the N of the D(h)/h^N monotonicity table
WEYL_ABS_TOL = 1e-10  # largest quadrature error estimate weyl_term accepts


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative test function of energy: decaying exponential or bump.

    kind='exponential': f(E) = exp(-scale * E), scale > 0.
    kind='bump': the unit-amplitude ``BumpSpec`` profile in E on
    (center - half_width, center + half_width), half_width > 0.
    Every parameter must be a finite number.
    """

    __test__ = False   # not a test case, despite the name

    kind: str = "exponential"
    scale: float = 1.0
    center: float = 5.0
    half_width: float = 2.0

    def __post_init__(self):
        if self.kind not in ("exponential", "bump"):
            raise PreconditionError(f"unknown test function kind {self.kind!r}")
        check_real(self.scale, "scale", positive=self.kind == "exponential")
        check_real(self.center, "center")
        check_real(self.half_width, "half_width", positive=self.kind == "bump")

    def __call__(self, E):
        E = np.asarray(E, dtype=float)
        if self.kind == "exponential":
            out = np.exp(-self.scale * E)
        else:
            out = bump_eval(self._unit_bump, E)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _unit_bump(self) -> BumpSpec:
        """The bump kind's profile, built once: ``weyl_term`` calls f ~2000 times."""
        return BumpSpec(self.center, self.half_width)

    def window_for_tail(self, h: float) -> float:
        """Energy cutoff above which the remaining sum is below ``TAIL_TOL``.

        Uses the oscillator lower bound lambda_j >= (2j-1) h, valid for any
        potential above x^2.
        """
        if self.kind == "bump":
            return self.center + self.half_width + 1e-9
        s = self.scale
        geom = 1.0 - math.exp(-2.0 * s * h)
        return (math.log(1.0 / TAIL_TOL) + math.log(1.0 / geom)) / s


def spectral_density(p: PotentialSpec, h: float, f: TestFunction) -> float:
    """Tr f = sum of f over the spectrum, to within ``TAIL_TOL``.

    The sum runs over the Richardson-refined levels below the window
    E = ``f.window_for_tail(h)``, beyond which the rest of the sum is
    certified below ``TAIL_TOL``; a window above ``WINDOW_CAP`` raises
    ``WindowCapError``.  The grid is chosen here: L = max(8, sqrt(E) + 4)
    makes V(L) >= L^2 exceed E + 10, and the grid has 8192 intervals
    (16384 once L > 9).
    """
    E = f.window_for_tail(h)
    if E > WINDOW_CAP:
        raise WindowCapError(
            f"tail below {TAIL_TOL} needs window E = {E:.1f} > cap {WINDOW_CAP}")
    L = max(8.0, math.sqrt(E) + 4.0)
    spec = refine_multi([(p, h, E)], Grid(L, 8191 if L <= 9.0 else 16383))[0]
    lam = spec.eigenvalues + spec.eigenvalues_lo
    return float(np.sum(f(lam)))


@cache
def _legendre_rules():
    """The 128- and 256-point Gauss-Legendre rules: both node sets, then each rule's weights."""
    (n_c, w_c), (n_f, w_f) = (np.polynomial.legendre.leggauss(n) for n in (128, 256))
    return np.concatenate((n_c, n_f)), w_c, w_f


def weyl_term(p: PotentialSpec, f: TestFunction) -> float:
    """Phase-space integral of f(xi^2 + V(x)) dx dxi by adaptive quadrature in x.

    The outer quadrature breaks at the edges of both bumps' supports and
    their mirror images, where V is smooth but not analytic.  For a bump the
    xi integral is a Gauss-Legendre sum at two orders; their difference is
    its error estimate, checked like the outer one against ``WEYL_ABS_TOL``.
    """
    # imported here, not at module level: only trace pays for loading scipy.integrate
    from scipy.integrate import quad

    edges = [e for b in (p.alpha, p.beta) for e in b.support]
    breaks = sorted({*edges, *(-e for e in edges)})
    if f.kind == "exponential":
        s = f.scale
        # the xi integral of e^{-s xi^2} separates off exactly
        xi_factor = math.sqrt(math.pi / s)
        x_max = math.sqrt(45.0 / s) + 1.0

        def g(x):
            return math.exp(-s * potential_eval(p, x))

        val, err = quad(g, -x_max, x_max, epsabs=WEYL_ABS_TOL * 1e-3, epsrel=1e-13,
                        limit=400, points=breaks)
        if err > WEYL_ABS_TOL:
            raise PreconditionError(f"outer quadrature error {err:.2e} above {WEYL_ABS_TOL:.1e}")
        return xi_factor * val
    # bump: energies inside (bot, top) only
    bot, top = f.center - f.half_width, f.center + f.half_width
    x_max = math.sqrt(max(top, 0.0)) + 1e-9
    nodes, w_c, w_f = _legendre_rules()
    n_c = w_c.size

    def g(x):
        v = potential_eval(p, x)
        if top - v <= 0.0:
            return 0.0
        # f(xi^2 + v) is even in xi and vanishes for |xi| < lo, so the
        # Gauss-Legendre rule spans [lo, hi], which the bump always fills
        lo = math.sqrt(min(max(bot - v, 0.0), top - v))
        hi = math.sqrt(top - v)
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        vals = f((mid + rad * nodes) ** 2 + v)
        coarse = 2.0 * rad * float(w_c @ vals[:n_c])
        inner = 2.0 * rad * float(w_f @ vals[n_c:])
        ierr = abs(inner - coarse)
        if ierr > max(WEYL_ABS_TOL * 1e-4, 1e-12 * abs(inner)):
            raise PreconditionError(
                f"inner quadrature error {ierr:.2e} at x = {x:.6g} above tolerance")
        return inner

    pts = [b for b in breaks if -x_max < b < x_max]
    val, err = quad(g, -x_max, x_max, epsabs=WEYL_ABS_TOL * 1e-2, epsrel=1e-12,
                    limit=400, points=pts or None)
    if err > WEYL_ABS_TOL:
        raise PreconditionError(f"outer quadrature error {err:.2e} above {WEYL_ABS_TOL:.1e}")
    return val


@dataclass
class WeylFit:
    a0_fit: float
    a1_fit: float
    a0_quadrature: float
    max_fit_residual: float
    h_list: list[float]
    nu_values: list[float]


def weyl_consistency(p: PotentialSpec, f: TestFunction, h_list) -> WeylFit:
    """Fit (2 pi h) nu_h(f) = a0 + a1 h^2 + a2 h^4 over the h sample.

    Each density is ``spectral_density(p, h, f)``.  The h sample must
    contain at least 6 points inside [0.02, 0.5].
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 6:
        raise PreconditionError("need at least 6 h values")
    if min(hs) < 0.02 or max(hs) > 0.5:
        raise PreconditionError("h sample must lie inside [0.02, 0.5]")
    nus = [spectral_density(p, h, f) for h in hs]
    y = np.array([2.0 * math.pi * h * nu for h, nu in zip(hs, nus)])
    H = np.array(hs)
    A = np.stack([np.ones_like(H), H ** 2, H ** 4], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(A @ coef - y)))
    a0q = weyl_term(p, f)
    return WeylFit(a0_fit=float(coef[0]), a1_fit=float(coef[1]),
                   a0_quadrature=a0q,
                   max_fit_residual=resid,
                   h_list=hs, nu_values=nus)


# ---------------------------------------------------------------------------
# Pairwise spectral distance and its decay
# ---------------------------------------------------------------------------

@dataclass
class GapEntry:
    h: float
    E: float
    D: float                  # max over paired levels below E of |gap|
    error_estimate: float
    n_levels: int
    usable: bool = True


def isospectral_distance(h: float, E: float, p_plus: PotentialSpec,
                         p_minus: PotentialSpec, grid: Grid) -> GapEntry:
    """Max per-index eigenvalue distance D below E on ``grid`` and ``grid.coarse()``.

    D is the largest |Richardson-refined gap| over the paired levels, and
    its error estimate is ``richardson``'s estimate of that gap plus rounding.
    Both members are solved on the coarse grid first, and each fine grid is
    polished from its member's coarse levels, as ``refine_multi`` does.
    Index pairing is positional (both spectra are simple and ordered); a
    count mismatch at the window edge is resolved by the common count.  A
    window with no common level is an error, never a zero distance, and
    so is a grid whose V(L) is below E + 10 (``GridMarginError``).
    """
    pair = (p_plus, p_minus)
    sc = eigenvalues_below_multi([discretize(p, h, grid.coarse()) for p in pair], [E, E])
    sf = [_polished_levels(discretize(p, h, grid), E, coarse=c) for p, c in zip(pair, sc)]
    g_f, g_c = (s[0].gaps_to(s[1]) for s in (sf, sc))
    m = min(g_f.size, g_c.size)
    if m == 0:
        raise PreconditionError(f"no level of the pair below E = {E} at h = {h}")
    refined, _, ests = richardson(g_f[:m], 0.0, g_c[:m], 0.0)
    j = int(np.argmax(np.abs(refined)))
    est = ests[j] + 1e-15 * max(1.0, float(sf[0].eigenvalues[j]))
    return GapEntry(h=h, E=E, D=float(abs(refined[j])), error_estimate=est, n_levels=m)


@dataclass
class GapFit:
    C: float
    c: float
    r_squared: float
    power_r_squared: float     # competing pure-power-law model
    n_points: int


def fit_gap_decay(pairs) -> GapFit:
    """Least squares of log D against 1/h: D ~ C exp(-c/h).

    ``pairs`` is an iterable of (h, D), all above the noise floor; at
    least 5 are required.
    """
    hs, Ds = [], []
    for h, D in pairs:
        hs.append(float(h))
        Ds.append(float(D))
    if len(hs) < 5:
        raise PreconditionError(f"need at least 5 usable entries, got {len(hs)}")
    if any(d <= 0.0 for d in Ds):
        raise PreconditionError("distances must be positive to fit")
    x = 1.0 / np.array(hs)
    y = np.log(np.array(Ds))

    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    xp = np.log(np.array(hs))
    Ap = np.stack([np.ones_like(xp), xp], axis=1)
    coefp, *_ = np.linalg.lstsq(Ap, y, rcond=None)
    ss_res_p = float(np.sum((y - Ap @ coefp) ** 2))
    r2p = 1.0 - ss_res_p / ss_tot if ss_tot > 0 else 1.0

    return GapFit(C=float(math.exp(coef[0])), c=float(-coef[1]),
                  r_squared=float(r2), power_r_squared=float(r2p),
                  n_points=len(hs))


@dataclass
class GapCurve:
    entries: list[GapEntry]
    noise_floor: float
    fit: GapFit | None = None

    def usable_entries(self) -> list[GapEntry]:
        return [e for e in self.entries if e.usable]


def gap_sweep(p_plus: PotentialSpec, p_minus: PotentialSpec, h_list,
              grid: Grid, window: str | float) -> GapCurve:
    """Spectral distance per h on one grid, noise floor, and the decay fit.

    Each h gives one ``isospectral_distance`` entry on ``grid``.
    window='ground' tracks exactly the ground level per h (E = 2h), which
    keeps one fixed eigenvalue branch under the sup and avoids spurious
    jumps when a new level enters a fixed window; a numeric window is used
    verbatim for every h.  The noise floor is
    max(1e-12, 10 * the largest error estimate); entries above it are
    usable, and five or more usable entries are fitted by ``fit_gap_decay``.
    An empty h_list or a window without a common level (in ground mode:
    without exactly one) raises ``PreconditionError``.
    """
    hs = [float(h) for h in h_list]
    if not hs:
        raise PreconditionError("h_list is empty")
    Es = [2.0 * h if window == "ground" else float(window) for h in hs]

    entries = []
    for h, E in zip(hs, Es):
        e = isospectral_distance(h, E, p_plus, p_minus, grid)
        if window == "ground" and e.n_levels != 1:
            raise PreconditionError(
                f"ground window E = {E} at h = {h} holds {e.n_levels} levels, not 1")
        entries.append(e)

    floor = max(1e-12, 10.0 * max((e.error_estimate for e in entries), default=0.0))
    for e in entries:
        e.usable = e.D > floor

    usable = [e for e in entries if e.usable]
    fit = fit_gap_decay([(e.h, e.D) for e in usable]) if len(usable) >= 5 else None
    return GapCurve(entries=entries, noise_floor=floor, fit=fit)


def superpoly_decay_table(curve: GapCurve) -> dict[int, dict]:
    """Check D(h)/h^N decreases as h decreases, over the usable entries.

    One row per N in ``SUPERPOLY_POWERS``.
    """
    use = sorted(curve.usable_entries(), key=lambda e: -e.h)
    out = {}
    for N in SUPERPOLY_POWERS:
        vals = [e.D / e.h ** N for e in use]
        drops = [vals[i + 1] < vals[i] for i in range(len(vals) - 1)]
        worst = min((vals[i] / vals[i + 1] for i in range(len(vals) - 1)),
                    default=math.inf)
        out[N] = {"monotone": all(drops), "n": len(vals), "worst_ratio": worst}
    return out
