"""specpair benchmark: CLI experiment workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, here and (through the environment) in every
# child: with the default thread count, BLAS calls on a 2-vCPU machine stall
# intermittently for about a second.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_ROOT = HERE.parent / ".perfbench_out"
SETUP_REPS = 3
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from specpair.cli import ExperimentConfig
ExperimentConfig.from_dict(json.loads(sys.argv[2]))
print(time.perf_counter())
"""
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "passed_frac": "ratio"}


def import_program():
    """Import ``specpair`` from this checkout's ``src/``, or exit nonzero."""
    if not (wl.SRC / "specpair" / "__init__.py").is_file():
        raise SystemExit(f"error: no specpair sources under {wl.SRC}")
    sys.path.insert(0, str(wl.SRC))
    import specpair
    from specpair import cli

    if not Path(specpair.__file__).resolve().is_relative_to(wl.SRC):
        raise SystemExit(f"error: specpair imported from {specpair.__file__}, not {wl.SRC}")
    return cli


def setup_seconds(config: dict) -> float:
    """Fresh interpreter start to a parsed ``ExperimentConfig``."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(wl.SRC), json.dumps(config)],
                         capture_output=True, text=True, check=True, timeout=120)
    # perf_counter is the system-wide monotonic clock, shared with the child
    return float(out.stdout.split()[-1]) - t0


def environment(args, t: float, eps: float) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "t": t, "eps": eps,
            "trace": args.trace, "seconds": args.seconds}


def _more_passes(t0: float, seconds: float, done: int) -> bool:
    """Whether one more whole pass brings the measured time closer to ``seconds``."""
    if not done:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + 0.5 * elapsed / done < seconds


def _pass_inputs(cli, seed: int, index: int, reference):
    """Config of pass ``index``; the stored reference belongs to the seed's first draw."""
    cfg = cli.ExperimentConfig.from_dict(wl.config_for(seed, index))
    return cfg, reference if index == 0 else None


def measure(cli, seed, experiments, reference, seconds, out_dir) -> tuple[dict, int, list[str]]:
    """End-to-end metrics over the whole untraced passes that fill ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while _more_passes(t0, seconds, len(passes)):
        cfg, ref = _pass_inputs(cli, seed, len(passes), reference)
        passes.append(wl.run_pass(cfg, experiments, out_dir, ref))
    print("pass wall_s:", " ".join(f"{p.wall_s:.3f}" for p in passes), flush=True)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": 1.0 - len(failures) / attempted,
    }
    return metrics, attempted, failures


def measure_traced(cli, seed, experiments, reference, seconds, out_dir, run_id: str):
    """Per-layer metrics from the (untraced, traced) pass pairs that fill ``seconds``.

    Each traced pass must reproduce its untraced pass's tables bit for bit
    and leave every rebound name restored.
    """
    tracer = Tracer(run_id=run_id, counters=wl.COUNTERS)
    plain, traced, failures = [], [], []
    t0 = time.perf_counter()
    while _more_passes(t0, seconds, len(traced)):
        cfg, ref = _pass_inputs(cli, seed, len(traced), reference)
        plain.append(wl.run_pass(cfg, experiments, out_dir, ref))
        with tracer.installed():
            traced.append(wl.run_pass(cfg, experiments, out_dir, ref, tracer=tracer))
        leftovers = tracer.leftovers()
        if leftovers:
            failures.append(f"tracer left bindings rebound: {', '.join(leftovers)}")
        if not wl.identical(plain[-1].tables, traced[-1].tables):
            failures.append("traced tables differ from the untraced pass")
        failures += plain[-1].failures + traced[-1].failures
    metrics = wl.layer_metrics(tracer.summary(), tracer.counts, passes=len(traced))
    wall_plain = statistics.median(p.wall_s for p in plain)
    wall_traced = statistics.median(p.wall_s for p in traced)
    metrics["bench.untraced_wall_s"] = (wall_plain, "s")
    metrics["bench.traced_wall_s"] = (wall_traced, "s")
    metrics["bench.trace_overhead_s"] = (wall_traced - wall_plain, "s")
    attempted = sum(p.attempted for p in plain + traced)
    return metrics, attempted, failures, tracer


def write_spans(tracer: Tracer, path: Path):
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run_id"],
                                "spans": tracer.spans}) + "\n")


def run_one(args) -> int:
    experiments = wl.WORKLOADS[args.workload]
    cli = import_program()
    config = wl.config_for(args.seed)
    t, eps = wl.draw_params(args.seed)
    print(json.dumps({"env": environment(args, t, eps)}), flush=True)
    reference = wl.load_reference(args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failures, tracer = measure_traced(
                cli, args.seed, experiments, reference, args.seconds, out_dir,
                run_id=f"{args.workload}:{args.seed}")
            write_spans(tracer, OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            setup = statistics.median(setup_seconds(config) for _ in range(SETUP_REPS))
            e2e, attempted, failures = measure(cli, args.seed, experiments, reference,
                                               args.seconds, out_dir)
            e2e["setup_s"] = setup
            metrics = {k: (e2e[k], E2E_UNITS[k]) for k in E2E_UNITS}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload}: {attempted // len(experiments)} passes"
          f"{' (untraced and traced)' if args.trace else ''}; reference "
          f"{'checked' if reference else 'not stored'} for seed {args.seed}; "
          f"failed_frac = {len(failures) / attempted:.4g} ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), as one table."""
    rows, status = [], 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}")
            status = 1
            continue
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    for name, res in rows:
        failed_frac = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} failed_frac={failed_frac:.4g} ratio")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:<40} {mv['value']:>14.6g} {mv['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure the whole number of passes closest to this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
