"""Fast checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys

import pytest

import workloads as wl
from tracer import Tracer

sys.path.insert(0, str(wl.SRC))

from specpair import cli, eigensolve, traces  # noqa: E402
from specpair.cli import Report  # noqa: E402


def test_seed_draw_is_deterministic_and_inside_the_square():
    lo, hi = wl.PARAM_RANGE
    for seed in range(200):
        for index in range(3):
            t, eps = wl.draw_params(seed, index)
            assert (t, eps) == wl.draw_params(seed, index)
            assert lo <= t <= hi and lo <= eps <= hi
    assert wl.draw_params(0) != wl.draw_params(1)
    assert wl.draw_params(0, 0) != wl.draw_params(0, 1)
    assert wl.config_for(7) == {"potential": dict(zip(("t", "eps"), wl.draw_params(7)))}


def _fake_run(outcomes):
    def run(cfg, exp, out_dir=None):
        outcome = outcomes[exp]
        if outcome == "raise":
            raise RuntimeError("injected")
        rep = Report(experiment=exp, config={})
        rep.tables["t"] = [{"x": 1.0, "n": 2}]
        rep.check("injected", outcome == "pass", 0.0)
        return rep
    return run


def test_raising_and_failed_assertion_each_count_as_failed(tmp_path):
    outcomes = {"a": "pass", "b": "raise", "c": "fail", "d": "pass"}
    res = wl.run_pass(None, list(outcomes), tmp_path, run=_fake_run(outcomes))
    assert res.attempted == 4
    assert len(res.failures) == 2
    assert res.failures[0].startswith("b: raised RuntimeError")
    assert res.failures[1] == "c: assertions failed: injected"


def test_reference_mismatch_counts_as_failed(tmp_path):
    ref = {"a": {"t": [{"x": 1.5, "n": 2}]}}
    res = wl.run_pass(None, ["a"], tmp_path, reference=ref, run=_fake_run({"a": "pass"}))
    assert len(res.failures) == 1 and "t[0].x" in res.failures[0]


def test_reference_tolerance_is_the_rows_own_estimate():
    row = {"h": 1.0, "D": 4.8e-12, "error_estimate": 1.2e-15, "n_levels": 1}
    ref = {"distance": [row]}
    moved = {"distance": [dict(row, D=row["D"] + 1e-24)]}
    assert wl.compare_tables(moved, ref) == []
    off = {"distance": [dict(row, D=row["D"] + 1e-14)]}
    assert len(wl.compare_tables(off, ref)) == 1
    ints = {"distance": [dict(row, n_levels=2)]}
    assert len(wl.compare_tables(ints, ref)) == 1
    plain = {"fit": [{"C": 3.2e-5, "c": 9.5}]}
    assert wl.compare_tables({"fit": [{"C": 3.2e-5, "c": 9.5 + 1e-12}]}, plain) == []
    assert wl.compare_tables({"fit": [{"C": 3.2e-5, "c": 9.6}]}, plain) != []


def test_identical_is_bitwise():
    a = {"e": {"t": [{"x": 0.1 + 0.2, "z": float("nan"), "n": 1}]}}
    assert wl.identical(a, {"e": {"t": [{"x": 0.1 + 0.2, "z": float("nan"), "n": 1}]}})
    assert not wl.identical(a, {"e": {"t": [{"x": 0.3, "z": float("nan"), "n": 1}]}})
    assert not wl.identical(a, {"e": {"t": [{"x": 0.1 + 0.2, "z": float("nan"), "n": 1.0}]}})


def test_tracer_rebinds_every_namespace_and_restores():
    originals = {(cli, "refine"): cli.refine,
                 (traces, "eigenvalues_below_multi"): traces.eigenvalues_below_multi,
                 (eigensolve, "eigenvalues_below_multi"): eigensolve.eigenvalues_below_multi,
                 (cli, "run"): cli.run}
    tracer = Tracer(run_id="test", counters=wl.COUNTERS)
    for _ in range(2):   # one tracer is installed once per traced pass
        with tracer.installed():
            for (mod, attr), fn in originals.items():
                assert getattr(mod, attr) is not fn
                assert getattr(mod, attr).__wrapped__ is fn
            grid = eigensolve.Grid(8.0, 255)
            op = eigensolve.discretize(cli.harmonic(), 1.0, grid)
            spec = eigensolve.eigenvalues_below(op, 4.0)
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is fn
        assert tracer.leftovers() == []
    assert len(spec) == 2
    summary = tracer.summary()
    assert summary["eigensolve.eigenvalues_below"]["calls"] == 2
    assert summary["eigensolve.eigenvalues_below_multi"]["calls"] == 2
    # the outer call's self time excludes its traced child
    outer = summary["eigensolve.eigenvalues_below"]
    assert outer["self_s"] < outer["total_s"]
    assert tracer.counts["eigensolve.levels"] == 4
    assert tracer.counts["eigensolve.rows"] == 2 * 255
    names = {s[0] for s in tracer.spans}
    assert "potential.potential_eval" in names
    assert all(s[4] == "test" for s in tracer.spans)


def test_tracer_restores_after_an_exception():
    original = cli.run
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert cli.run is not original
            1 / 0
    assert cli.run is original
    assert tracer.leftovers() == []


def test_layer_metrics_match_the_declared_per_layer_metrics():
    tracer = Tracer()
    metrics = wl.layer_metrics(tracer.summary(), tracer.counts)
    assert {f"cli.run_s.{e}" for e in wl.ALL_EXPERIMENTS} <= metrics.keys()
    assert all(v == 0 for v, _ in metrics.values())
    declared = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text())
    bench = {"bench.untraced_wall_s", "bench.traced_wall_s", "bench.trace_overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == metrics.keys() | bench
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)


def test_layer_metrics_are_per_pass_and_ratios_of_totals():
    summary = {"pruefer.shoot_eigenvalue": {"calls": 2, "total_s": 7.0, "self_s": 6.0},
               "experiment.weber": {"calls": 2, "total_s": 8.0, "self_s": 0.1}}
    m = wl.layer_metrics(summary, {"eigensolve.levels": 10}, passes=2)
    assert m["pruefer.shoot_eigenvalue_s"] == (3.0, "s")
    assert m["pruefer.shots"] == (1.0, "count")
    assert m["pruefer.s_per_shot"] == (3.0, "s")
    assert m["eigensolve.levels"] == (5.0, "count")
    assert m["cli.run_s.weber"] == (4.0, "s")
