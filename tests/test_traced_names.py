"""The benchmark's names and tables must match the program.

``perfbench`` times and counts calls by ``module.function`` name; a renamed
or removed function would silently read as zero time, not as an error.  Its
workloads also check every table against ``perfbench/reference``, so a
table that drifts off its reference fails here, not first in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from specpair import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_public_functions_of_their_module():
    wl = _workloads()
    names = set(wl.SELF_TIME_METRICS) | set(wl.COUNTERS)
    assert names
    missing = []
    for name in sorted(names):
        short, fn = name.split(".")
        mod = importlib.import_module(f"specpair.{short}")
        obj = getattr(mod, fn, None)
        if fn.startswith("_") or not inspect.isfunction(obj) \
                or obj.__module__ != mod.__name__:
            missing.append(name)
    assert missing == []


def test_benchmark_tables_match_their_reference(tmp_path):
    wl = _workloads()
    reference = wl.load_reference(0)
    cfg = wl.config_for(0, 0)
    for exp in wl.ALL_EXPERIMENTS:
        rep = cli.run(cfg, exp, out_dir=tmp_path)
        assert wl.compare_tables(wl.canonical_tables(rep.tables), reference[exp]) == [], exp
