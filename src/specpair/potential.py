"""Confining potentials built from x^2 plus compactly supported mollifier bumps.

The model family is

    V(x) = x^2 + t * alpha(x) + eps * beta(+-x),

where ``alpha`` lives on [-3, -2] and ``beta`` on [3, 4].  Reflecting the
beta bump produces the mirror partner of a potential pair whose members are
extremely hard to tell apart spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from .errors import PreconditionError, check_real, fill_defaults

# support boxes the bumps must stay inside
ALPHA_WINDOW = (-3.0, -2.0)
BETA_WINDOW = (3.0, 4.0)
SAMPLE_STEP = 1e-3   # spacing of validate's sign scan of V'


def _check_nonnegative(v, name: str) -> None:
    """Raise PreconditionError naming ``name`` unless ``v`` is a finite number >= 0."""
    if check_real(v, name) < 0.0:
        raise PreconditionError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class BumpSpec:
    """A smooth bump: ``amplitude * exp(1 - 1/(1 - u^2))`` with ``u = (x - center)/half_width``.

    The profile is C^inf, vanishes identically outside
    ``(center - half_width, center + half_width)``, peaks at ``center`` with
    value ``amplitude`` and is nonnegative everywhere.  ``bump_eval``
    evaluates it in numpy's arithmetic; ``PotentialSpec.scalar`` writes it
    out in ``math``'s, which may differ in the last bit.
    """

    center: float
    half_width: float
    amplitude: float = 1.0

    def __post_init__(self):
        check_real(self.center, "center")
        check_real(self.half_width, "half_width", positive=True)
        _check_nonnegative(self.amplitude, "amplitude")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def max_abs_derivative(self) -> float:
        """Upper bound on |d bump/dx|, exact up to dense sampling."""
        u = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 20001)
        return float(np.max(np.abs(_mollifier_du(u))) * self.amplitude / self.half_width)

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "BumpSpec":
        """A bump from its filled config object; ``where`` prefixes the key in errors."""
        return _named(where, cls, **d)


def _named(where: str, cls, **fields):
    """``cls(**fields)``; its PreconditionError is re-raised under the key ``where``."""
    try:
        return cls(**fields)
    except PreconditionError as exc:
        raise PreconditionError(f"{where}.{exc}") from None


def _mollifier(u):
    """exp(1 - 1/(1-u^2)) for |u| < 1, else 0; vectorized, and a float for a Python float.

    A float takes the array path's IEEE operations and ``np.exp``
    (``math.exp`` may differ in the last bit), so the two agree bit for bit.
    """
    if type(u) is float:
        return float(np.exp(1.0 - 1.0 / (1.0 - u * u))) if -1.0 < u < 1.0 else 0.0
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def _mollifier_du(u):
    """d/du of the mollifier profile; vanishes to all orders at |u| = 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = 1.0 - ui * ui
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * ui / (w * w))
    return out


def bump_eval(b: BumpSpec, x):
    """Evaluate a bump at scalar or array ``x``; total function, result in [0, amplitude]."""
    scalar = np.isscalar(x)
    xa = float(x) if scalar else np.asarray(x, dtype=float)
    val = b.amplitude * _mollifier((xa - b.center) / b.half_width)
    return float(val) if scalar else val


def bump_derivative(b: BumpSpec, x):
    """Closed-form d bump/dx via the chain rule on the mollifier."""
    scalar = np.isscalar(x)
    u = (np.asarray(x, dtype=float) - b.center) / b.half_width
    val = (b.amplitude / b.half_width) * _mollifier_du(u)
    return float(val) if scalar else val


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of one member of the bump-perturbed oscillator family.

    ``reflect_beta=False`` gives the "plus" member (beta bump on (3,4)),
    ``reflect_beta=True`` the "minus" member (beta bump mirrored to (-4,-3)).
    The field defaults are the default pair's plus member; ``from_dict`` and
    the CLI's ``DEFAULTS`` take them from here.
    """

    t: float = 0.05
    eps: float = 0.05
    reflect_beta: bool = False
    alpha: BumpSpec = BumpSpec(center=-2.5, half_width=0.5)
    beta: BumpSpec = BumpSpec(center=3.5, half_width=0.5)

    def __post_init__(self):
        _check_nonnegative(self.t, "t")
        _check_nonnegative(self.eps, "eps")

    @property
    def bump_height(self) -> float:
        """t * alpha.amplitude + eps * beta.amplitude: how far the bumps can lift V.

        The mollifier peaks at 1, so this bounds V - x^2, and it is 0 exactly
        when V = x^2.  It is the one answer to "is this the bare oscillator?",
        whether a bump is off by its strength or by its amplitude.
        """
        return self.t * self.alpha.amplitude + self.eps * self.beta.amplitude

    def scalar(self):
        """V as a closure x -> float in ``math`` arithmetic, for the shooting kernel.

        ``potential_eval``'s operations in their order, with ``math.exp`` for
        ``np.exp``, so the two may differ in the last bit.  A bump outside its
        support adds nothing: its 0.0 would leave V >= 0 unchanged.
        """
        t, eps, reflect = self.t, self.eps, self.reflect_beta
        ac, aw, aa = self.alpha.center, self.alpha.half_width, self.alpha.amplitude
        bc, bw, ba = self.beta.center, self.beta.half_width, self.beta.amplitude
        exp = math.exp

        def v(x: float) -> float:
            vx = x * x
            if t != 0.0:
                u = (x - ac) / aw
                if -1.0 < u < 1.0:
                    vx += t * (aa * exp(1.0 - 1.0 / (1.0 - u * u)))
            if eps != 0.0:
                u = ((-x if reflect else x) - bc) / bw
                if -1.0 < u < 1.0:
                    vx += eps * (ba * exp(1.0 - 1.0 / (1.0 - u * u)))
            return vx

        return v

    def reflected(self) -> "PotentialSpec":
        """The mirror partner (beta reflection toggled, everything else shared)."""
        return replace(self, reflect_beta=not self.reflect_beta)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PotentialSpec":
        """A potential from its config object; a missing key, at any depth, takes its default."""
        d = fill_defaults(d, cls().to_dict(), "potential")
        reflect = d["reflect_beta"]
        if not isinstance(reflect, bool):
            raise PreconditionError(
                f"potential.reflect_beta must be true or false, got {reflect!r}")
        return _named("potential", cls, t=d["t"], eps=d["eps"], reflect_beta=reflect,
                      alpha=BumpSpec.from_dict(d["alpha"], "potential.alpha"),
                      beta=BumpSpec.from_dict(d["beta"], "potential.beta"))


def potential_eval(p: PotentialSpec, x):
    """V(x) = x^2 + t*alpha(x) + eps*beta(x) (or beta(-x) when reflected).

    A scalar ``x`` runs in floats, with the array path's operations.
    """
    scalar = np.isscalar(x)
    xa = float(x) if scalar else np.asarray(x, dtype=float)
    v = xa * xa
    if p.t != 0.0:
        v = v + p.t * bump_eval(p.alpha, xa)
    if p.eps != 0.0:
        xb = -xa if p.reflect_beta else xa
        v = v + p.eps * bump_eval(p.beta, xb)
    return float(v) if scalar else v


def potential_derivative(p: PotentialSpec, x):
    """Closed-form V'(x) = 2x + t*alpha'(x) +- eps*beta'-term."""
    scalar = np.isscalar(x)
    xa = np.asarray(x, dtype=float)
    dv = 2.0 * xa
    if p.t != 0.0:
        dv = dv + p.t * bump_derivative(p.alpha, xa)
    if p.eps != 0.0:
        if p.reflect_beta:
            dv = dv - p.eps * bump_derivative(p.beta, -xa)
        else:
            dv = dv + p.eps * bump_derivative(p.beta, xa)
    return float(dv) if scalar else dv


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str]
    derivative_bound_alpha: float
    derivative_bound_beta: float


def validate(p: PotentialSpec) -> ValidationReport:
    """Check support constraints and 'no critical point away from 0'.

    Two independent checks back the critical-point claim: the sufficient
    bounds t*max|alpha'| < 4 and eps*max|beta'| < 6 (|2x| >= 4 on the alpha
    box and >= 6 on the beta box), and a dense sign scan of V' at spacing
    ``SAMPLE_STEP``.
    """
    failures: list[str] = []

    a_lo, a_hi = p.alpha.support
    if a_lo < ALPHA_WINDOW[0] - 1e-12 or a_hi > ALPHA_WINDOW[1] + 1e-12:
        failures.append(
            f"alpha support [{a_lo}, {a_hi}] not inside {ALPHA_WINDOW}")
    b_lo, b_hi = p.beta.support
    if b_lo < BETA_WINDOW[0] - 1e-12 or b_hi > BETA_WINDOW[1] + 1e-12:
        failures.append(
            f"beta support [{b_lo}, {b_hi}] not inside {BETA_WINDOW}")

    da = p.t * p.alpha.max_abs_derivative()
    db = p.eps * p.beta.max_abs_derivative()
    if not da < 4.0:
        failures.append(
            f"t*max|alpha'| = {da:.6g} >= 4: critical point possible inside alpha support")
    if not db < 6.0:
        failures.append(
            f"eps*max|beta'| = {db:.6g} >= 6: critical point possible inside beta support")

    # dense scan: V' may change sign only at x = 0
    x = np.arange(-4.5, 4.5 + SAMPLE_STEP / 2, SAMPLE_STEP)
    dv = potential_derivative(p, x)
    signs = np.sign(dv)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    for i in flips:
        if not (x[i] <= 0.0 <= x[i + 1]):
            failures.append(f"V' changes sign in [{x[i]:.6g}, {x[i+1]:.6g}], away from 0")

    # nonnegativity, zero only at the origin
    v = potential_eval(p, x)
    if np.any(v < 0.0):
        failures.append("V takes negative values")

    return ValidationReport(
        ok=not failures,
        failures=failures,
        derivative_bound_alpha=da,
        derivative_bound_beta=db,
    )


def harmonic() -> PotentialSpec:
    """The unperturbed oscillator x^2 (both bump strengths zero)."""
    return PotentialSpec(t=0.0, eps=0.0)
