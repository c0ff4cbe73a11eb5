"""Workload definitions, one workload pass, and the checks on its outputs.

A workload is an ordered list of CLI experiments run through the public
``specpair.cli.run`` by one client in one process; the next experiment
starts when the previous one has returned.  The seed only draws the
potential's ``(t, eps)``, one pair per pass; every other setting stays at
``cli.DEFAULTS``.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"

# A regression check runs each workload 22 times in a fixed time budget, and
# on a shared host a run must measure about 45 s before its result varies
# by only about a tenth from run to run.  Two workloads of that length fit;
# so weber (about 4 s, the shooting oracle at tight tolerance) rides in
# spectra instead of a workload of its own, and pruefer-compare (about 30 s,
# mostly 20 more shots) is left out.
WORKLOADS = {
    "spectra": ("spectrum", "gap-sweep", "hadamard-check", "validate", "weber"),
    "trace": ("trace",),
}
ALL_EXPERIMENTS = tuple(e for exps in WORKLOADS.values() for e in exps)
PARAM_RANGE = (0.04, 0.06)
DEFAULT_SEED = 0
REFERENCE_SEEDS = (0, 1)

# Rows that carry no error estimate of their own mix an O(1) result with
# differences of such results (weyl ``difference``, weber residuals), so
# their tolerance is relative to the row's largest magnitude.
ROW_REL_TOL = 1e-9


def draw_params(seed: int, index: int = 0) -> tuple[float, float]:
    """The ``index``-th ``(t, eps)`` that ``seed`` draws uniformly from ``PARAM_RANGE`` squared.

    Pass ``index`` of a run uses this pair.  The shooting oracle's cost
    varies by about 15% between draws, so a run of several short passes
    averages over several potentials instead of timing one of them again.
    """
    rng = random.Random(seed)
    lo, hi = PARAM_RANGE
    for _ in range(index + 1):
        t, eps = rng.uniform(lo, hi), rng.uniform(lo, hi)
    return t, eps


def config_for(seed: int, index: int = 0) -> dict:
    t, eps = draw_params(seed, index)
    return {"potential": {"t": t, "eps": eps}}


def canonical_tables(tables: dict) -> dict:
    """Report tables as plain Python numbers (no numpy scalars)."""
    def cell(v):
        if isinstance(v, (bool, str)) or v is None:
            return v
        kind = getattr(getattr(v, "dtype", None), "kind", "")
        if kind == "b":
            return bool(v)
        if isinstance(v, int) or kind in ("i", "u"):
            return int(v)
        return float(v)
    return {name: [{k: cell(v) for k, v in row.items()} for row in rows]
            for name, rows in tables.items()}


def identical(a, b) -> bool:
    """Bit-for-bit equality of nested canonical tables."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def _row_tolerance(row: dict) -> float:
    for key in ("error_estimate", "tolerance"):
        if isinstance(row.get(key), float):
            return row[key]
    scale = max((abs(v) for v in row.values()
                 if isinstance(v, float) and math.isfinite(v)), default=0.0)
    return ROW_REL_TOL * scale


def compare_tables(got: dict, ref: dict) -> list[str]:
    """Cells of ``got`` that differ from ``ref`` by more than the row's tolerance.

    A row's tolerance is its own ``error_estimate`` or ``tolerance`` column
    (taken from the reference row) and otherwise ``ROW_REL_TOL`` times the
    row's largest magnitude.  Integers and strings must match exactly.
    """
    if got.keys() != ref.keys():
        return [f"tables {sorted(got)} != reference {sorted(ref)}"]
    bad = []
    for name, rows in ref.items():
        if len(got[name]) != len(rows):
            bad.append(f"{name}: {len(got[name])} rows, reference has {len(rows)}")
            continue
        for i, (rg, rr) in enumerate(zip(got[name], rows)):
            if rg.keys() != rr.keys():
                bad.append(f"{name}[{i}]: columns {list(rg)} != {list(rr)}")
                continue
            tol = _row_tolerance(rr)
            for k, v in rr.items():
                g = rg[k]
                if isinstance(v, float) and isinstance(g, float):
                    ok = (math.isnan(v) and math.isnan(g)) or abs(g - v) <= tol
                else:
                    ok = type(g) is type(v) and g == v
                if not ok:
                    bad.append(f"{name}[{i}].{k}: {g!r} vs reference {v!r} (tol {tol:.3g})")
    return bad


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tables: dict = field(default_factory=dict)


def run_pass(cfg, experiments, out_dir, reference: dict | None = None,
             run=None, tracer=None) -> PassResult:
    """Run each experiment once, in order, and check its outputs.

    An experiment fails when it raises, when one of its assertions failed,
    or when ``reference`` is given and its tables differ from it.  ``run``
    defaults to the current ``specpair.cli.run`` binding, so a tracer
    installed on the package sees the call.
    """
    from specpair import cli

    res = PassResult(wall_s=0.0, cpu_s=0.0)
    w0, c0 = time.perf_counter(), time.process_time()
    for exp in experiments:
        res.attempted += 1
        fn = run or cli.run
        try:
            if tracer is None:
                rep = fn(cfg, exp, out_dir=out_dir)
            else:
                with tracer.span(f"experiment.{exp}"):
                    rep = fn(cfg, exp, out_dir=out_dir)
        except Exception as exc:  # noqa: BLE001 - a raising experiment is a counted failure
            res.failures.append(f"{exp}: raised {type(exc).__name__}: {exc}")
            continue
        res.tables[exp] = canonical_tables(rep.tables)
        failed = [a.name for a in rep.assertions if not a.passed]
        if failed:
            res.failures.append(f"{exp}: assertions failed: {', '.join(failed)}")
        elif reference is not None:
            diff = compare_tables(res.tables[exp], reference[exp])
            if diff:
                res.failures.append(f"{exp}: {len(diff)} cells off reference, "
                                    f"first {diff[0]}")
    res.wall_s = time.perf_counter() - w0
    res.cpu_s = time.process_time() - c0
    return res


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

COUNTERS = {
    "eigensolve.eigenvalues_below_multi": lambda specs: (
        ("eigensolve.levels", sum(len(s) for s in specs)),
        ("eigensolve.operators", len(specs)),
        ("eigensolve.rows", sum(s.grid.n for s in specs))),
    "pruefer.integrate_angle": lambda tr: (("pruefer.rk_steps", len(tr.xs) - 1),),
}

SELF_TIME_METRICS = (
    "eigensolve.eigenvalues_below_multi", "eigensolve.refine_multi",
    "eigensolve.discretize", "eigensolve.eigenvector", "eigensolve.count_below",
    "pruefer.shoot_eigenvalue",
    "weber.ode_ground_state", "weber.solve_weber", "weber.check_properties",
    "weber.c_identities",
    "hadamard.variation_check", "hadamard.fd_oracle", "hadamard.asymmetry_witness",
    "traces.weyl_term", "traces.spectral_density", "traces.gap_sweep",
    "traces.weyl_consistency",
    "potential.potential_eval",
    "cli.write_report",
)


def layer_metrics(summary: dict, counts: dict, passes: int = 1) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics (value, unit) from a tracer summary and its counters.

    ``<fn>_s`` is self time; ``cli.run_s.<experiment>`` is the inclusive time
    of that experiment's ``cli.run`` call; ``s_per_*`` are ratios of totals.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def ratio(seconds, n):
        return seconds / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_METRICS:
        m[f"{name}_s"] = (self_s(name) / passes, "s")
    for key in ("eigensolve.levels", "eigensolve.operators", "eigensolve.rows",
                "pruefer.rk_steps"):
        m[key] = (counts.get(key, 0) / passes, "count")
    m["eigensolve.s_per_level"] = (ratio(
        self_s("eigensolve.eigenvalues_below_multi"), counts.get("eigensolve.levels", 0)), "s")
    m["pruefer.shots"] = (calls("pruefer.shoot_eigenvalue") / passes, "count")
    m["pruefer.s_per_shot"] = (ratio(
        self_s("pruefer.shoot_eigenvalue"), calls("pruefer.shoot_eigenvalue")), "s")
    m["traces.weyl_term_calls"] = (calls("traces.weyl_term") / passes, "count")
    m["potential.potential_eval_calls"] = (calls("potential.potential_eval") / passes, "count")
    for exp in ALL_EXPERIMENTS:
        total = summary.get(f"experiment.{exp}", {}).get("total_s", 0.0)
        m[f"cli.run_s.{exp}"] = (total / passes, "s")
    return m
