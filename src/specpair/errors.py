"""Shared exception types."""


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
    for key in d:
        if key not in allowed:
            raise PreconditionError(f"unknown key {key!r} in {where}")
