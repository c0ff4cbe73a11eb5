"""Shared exception types, config value checks and the root-finder check."""

import copy
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


def fill_defaults(d: dict, defaults: dict, where: str) -> dict:
    """``d`` with every key it lacks, at every depth, taken from ``defaults``.

    ``where`` is the dotted path of ``d`` ("" at the config's root).  A
    non-object where ``defaults`` holds an object, or a key ``defaults``
    lacks, raises PreconditionError naming it.
    """
    if not isinstance(d, dict):
        raise PreconditionError(f"{where or 'config'} must be an object, got {d!r}")
    for key in d:
        if key not in defaults:
            raise PreconditionError(f"unknown key {key!r} in {where or 'config'}")
    out = {}
    for key, default in defaults.items():
        if key not in d:
            out[key] = copy.deepcopy(default)
        elif isinstance(default, dict):
            out[key] = fill_defaults(d[key], default, f"{where}.{key}" if where else key)
        else:
            out[key] = d[key]
    return out


def check_real(v, key: str, positive: bool = False) -> float:
    """``v`` as a float; anything but a finite number (> 0 if ``positive``) raises naming ``key``.

    bool and str are not numbers here, and an integer beyond the float range
    is not finite.
    """
    try:
        x = math.nan if isinstance(v, bool) or not isinstance(v, numbers.Real) else float(v)
    except OverflowError:
        x = math.nan
    if not math.isfinite(x) or (positive and not x > 0):
        raise PreconditionError(
            f"{key} must be a finite number{' > 0' if positive else ''}, got {v!r}")
    return x


def check_root(res, what: str, a: float, b: float) -> None:
    """Raise ConvergenceError unless scipy's root result ``res`` converged on [a, b]."""
    if not res.converged:
        raise ConvergenceError(
            f"{what}: no root converged in the bracket [{a:.17g}, {b:.17g}] after "
            f"{res.iterations} iterations ({res.flag})")
