"""Small adaptive Cash-Karp 5(4) stepper for scalar Prüfer-type systems.

Pure-Python on purpose: the angle equations have 1-4 components and are
integrated inside root brackets, where per-call overhead of a general ODE
framework dominates.  Error control is per unit length, so a requested
``eps_per_length`` bounds the accumulated local error over the interval.

``integrate`` records every accepted step of a general system (the traced
angle and log-radius paths).  ``angle_end`` is the shooting oracle's kernel:
the angle equation alone, written out as scalar arithmetic, returning only
the final angle.  It performs the same floating-point operations in the same
order as ``integrate`` on that one-component system, so both give the same
end angle bit for bit, in about half the time: a [-8, 8] integration at 1e-12
takes 0.022-0.029 s against 0.045-0.063 s (medians of 21 interleaved runs on
one Intel Xeon core), and Weber's shot is most of a ``spectra`` benchmark pass.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

# Cash-Karp tableau
_C2, _C3, _C4, _C5, _C6 = 0.2, 0.3, 0.6, 1.0, 0.875
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 0.3, -0.9, 1.2
_A51, _A52, _A53, _A54 = -11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0
_A61, _A62, _A63, _A64, _A65 = (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
                                44275.0 / 110592.0, 253.0 / 4096.0)
_B1, _B3, _B4, _B6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
_E1 = _B1 - 2825.0 / 27648.0
_E3 = _B3 - 18575.0 / 48384.0
_E4 = _B4 - 13525.0 / 55296.0
_E5 = -277.0 / 14336.0
_E6 = _B6 - 0.25

_MAX_STEPS = 5_000_000


def integrate(rhs, x0: float, y0, x1: float, eps_per_length: float, max_step: float):
    """Integrate y' = rhs(x, y) from x0 to x1 (x0 < x1).

    ``y0`` is a tuple of floats.  Returns (xs, ys): accepted step abscissae
    and state tuples.
    """
    if not x1 > x0:
        raise ValueError("need x0 < x1")
    m = len(y0)
    rng = range(m)
    x = x0
    y = tuple(y0)
    xs = [x]
    ys = [y]
    h = min(max_step, (x1 - x0) / 50.0, 0.01)
    steps = 0
    while x < x1:
        if x + h > x1:
            h = x1 - x
        k1 = rhs(x, y)
        k2 = rhs(x + _C2 * h, tuple(y[i] + h * _A21 * k1[i] for i in rng))
        k3 = rhs(x + _C3 * h, tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
        k4 = rhs(x + _C4 * h, tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                                    for i in rng))
        k5 = rhs(x + _C5 * h, tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i]
                                                + _A54 * k4[i]) for i in rng))
        k6 = rhs(x + _C6 * h, tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i]
                                                + _A64 * k4[i] + _A65 * k5[i]) for i in rng))
        err = 0.0
        y_new = []
        for i in rng:
            yi = y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B6 * k6[i])
            ei = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i])
            scale = 1.0 if -1.0 < yi < 1.0 else abs(yi)
            r = abs(ei) / scale
            if r > err:
                err = r
            y_new.append(yi)
        tol = eps_per_length * h
        if err <= tol or h <= 1e-13 * (abs(x) + 1.0):
            if h <= 1e-13 * (abs(x) + 1.0) and err > tol:
                raise ConvergenceError(f"step size collapsed near x = {x:.6g}")
            x = x + h
            y = tuple(y_new)
            xs.append(x)
            ys.append(y)
            if err > 0.0:
                h = h * min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            else:
                h = h * 5.0
            h = min(h, max_step)
        else:
            h = h * max(0.2, 0.9 * (tol / err) ** 0.2)
        steps += 1
        if steps > _MAX_STEPS:
            raise ConvergenceError(f"step budget exhausted near x = {x:.6g}")
    return xs, ys


def angle_end(qf, x0: float, x1: float, eps_per_length: float, max_step: float) -> float:
    """theta(x1) of theta' = Q sin^2(theta) + cos^2(theta), theta(x0) = 0, Q = ``qf``.

    ``integrate`` on ``(0.0,)`` with that right-hand side, step for step:
    same step control, same errors, same final angle bit for bit.
    """
    if not x1 > x0:
        raise ValueError("need x0 < x1")
    sin, cos = math.sin, math.cos
    x = x0
    y = 0.0
    h = min(max_step, (x1 - x0) / 50.0, 0.01)
    steps = 0
    while x < x1:
        if x + h > x1:
            h = x1 - x
        s, c = sin(y), cos(y)
        k1 = qf(x) * s * s + c * c
        yy = y + h * _A21 * k1
        s, c = sin(yy), cos(yy)
        k2 = qf(x + _C2 * h) * s * s + c * c
        yy = y + h * (_A31 * k1 + _A32 * k2)
        s, c = sin(yy), cos(yy)
        k3 = qf(x + _C3 * h) * s * s + c * c
        yy = y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
        s, c = sin(yy), cos(yy)
        k4 = qf(x + _C4 * h) * s * s + c * c
        yy = y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
        s, c = sin(yy), cos(yy)
        k5 = qf(x + _C5 * h) * s * s + c * c
        yy = y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
        s, c = sin(yy), cos(yy)
        k6 = qf(x + _C6 * h) * s * s + c * c
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B6 * k6)
        e = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6)
        r = abs(e) / (1.0 if -1.0 < y_new < 1.0 else abs(y_new))
        err = r if r > 0.0 else 0.0     # a NaN r reads as 0, as in ``integrate``
        tol = eps_per_length * h
        if err <= tol or h <= 1e-13 * (abs(x) + 1.0):
            if err > tol:   # only a collapsed step gets here without meeting tol
                raise ConvergenceError(f"step size collapsed near x = {x:.6g}")
            x = x + h
            y = y_new
            if err > 0.0:
                h = h * min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            else:
                h = h * 5.0
            h = min(h, max_step)
        else:
            h = h * max(0.2, 0.9 * (tol / err) ** 0.2)
        steps += 1
        if steps > _MAX_STEPS:
            raise ConvergenceError(f"step budget exhausted near x = {x:.6g}")
    return y
