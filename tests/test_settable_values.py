"""A ratchet on the number of values a caller or a config can set.

Counted: the defaulted parameters of the public functions and of the
public methods of public classes defined in the seven user-facing modules,
the leaves of ``cli.DEFAULTS``, and the fields of ``cli.ExperimentConfig``.
A new option changes ``SETTABLE_VALUES``, so it is a reviewed edit of one
number; a removed one should lower it.
"""

import dataclasses
import importlib
import inspect

from specpair import cli

MODULES = ("potential", "eigensolve", "pruefer", "weber", "hadamard", "traces", "cli")
SETTABLE_VALUES = 36


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _defaulted_parameters() -> list[str]:
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"specpair.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found += [f"{short}.{name}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                for meth in vars(obj):
                    fn = getattr(obj, meth)
                    if not meth.startswith("_") and (inspect.isfunction(fn)
                                                     or inspect.ismethod(fn)):
                        found += [f"{short}.{name}.{meth}({p})" for p in _defaulted(fn)]
    return found


def _leaves(d) -> int:
    return sum(map(_leaves, d.values())) if isinstance(d, dict) else 1


def test_settable_values_do_not_grow():
    params = _defaulted_parameters()
    total = len(params) + _leaves(cli.DEFAULTS) + len(dataclasses.fields(cli.ExperimentConfig))
    assert total == SETTABLE_VALUES, params
