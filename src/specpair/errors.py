"""Shared exception types, config value checks and the root-finder check."""

import math
import numbers


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class GridMarginError(ValueError):
    """Grid truncation leaves too little turning-point margin for the window."""


class WindowCapError(RuntimeError):
    """An energy window contains more eigenvalues than the configured cap."""


class ConvergenceError(RuntimeError):
    """An iterative stage failed to reach its tolerance."""


class BracketError(RuntimeError):
    """A root bracket could not be established."""


def check_keys(d: dict, allowed, where: str) -> None:
    """Raise PreconditionError naming the first key of ``d`` not in ``allowed``."""
    if not isinstance(d, dict):
        raise PreconditionError(f"{where} must be an object, got {d!r}")
    for key in d:
        if key not in allowed:
            raise PreconditionError(f"unknown key {key!r} in {where}")


def check_real(v, key: str, positive: bool = False) -> float:
    """``v`` as a float; anything but a finite number (> 0 if ``positive``) raises naming ``key``.

    bool and str are not numbers here.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v) \
            or (positive and not v > 0):
        raise PreconditionError(
            f"{key} must be a finite number{' > 0' if positive else ''}, got {v!r}")
    return float(v)


def check_root(res, what: str, a: float, b: float) -> None:
    """Raise ConvergenceError unless scipy's root result ``res`` converged on [a, b]."""
    if not res.converged:
        raise ConvergenceError(
            f"{what}: no root converged in the bracket [{a:.17g}, {b:.17g}] after "
            f"{res.iterations} iterations ({res.flag})")
