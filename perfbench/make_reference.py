"""Regenerate the stored reference tables of every experiment.

    python3 perfbench/make_reference.py

Writes ``reference/seed<N>.json`` for each of ``REFERENCE_SEEDS``: the
``Report.tables`` of all seven experiments as plain numbers.  Regenerate
only when a change is meant to move the numbers, and say so.
"""

import json
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads
import workloads as wl


def main() -> int:
    cli = run.import_program()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in wl.REFERENCE_SEEDS:
        cfg = cli.ExperimentConfig.from_dict(wl.config_for(seed))
        with tempfile.TemporaryDirectory(dir=run.HERE.parent) as out:
            res = wl.run_pass(cfg, wl.ALL_EXPERIMENTS, out)
        if res.failures:
            print("\n".join(res.failures), file=sys.stderr)
            return 1
        path = wl.REFERENCE_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(res.tables, separators=(",", ":")) + "\n")
        print(f"wrote {path} ({res.wall_s:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
