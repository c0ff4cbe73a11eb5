"""Start-up ratchets: a module loads only what it uses.

Only ``pruefer.shoot_eigenvalue``, ``weber`` and ``traces.weyl_term`` use
scipy.optimize/integrate, so a fresh interpreter that imports the package,
parses a config and runs the four matrix-only experiments must not have
loaded either.  The package root imports nothing, so ``specpair.potential``
loads only itself and ``specpair.errors``, and no scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """\
import json
import sys
import specpair
from specpair import cli, traces
from specpair.potential import harmonic

cli.ExperimentConfig.from_dict({})
deferred = ("scipy.optimize", "scipy.integrate")
after_import = [m for m in deferred if m in sys.modules]
for exp in ("spectrum", "gap-sweep", "hadamard-check", "validate"):
    cli.run({}, exp, out_dir=sys.argv[1])
after_runs = [m for m in deferred if m in sys.modules]
traces.weyl_term(harmonic(), traces.TestFunction())
print(json.dumps({"after_import": after_import, "after_runs": after_runs,
                  "after_weyl_term": [m for m in deferred if m in sys.modules]}))
"""


def test_matrix_experiments_load_no_optimize_or_integrate(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["after_import"] == []
    assert loaded["after_runs"] == []
    # positive control: the phase-space quadrature does load scipy.integrate
    assert "scipy.integrate" in loaded["after_weyl_term"]


def test_potential_loads_only_itself_and_errors():
    code = ("import json, sys; import specpair.potential; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('specpair', 'scipy'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == [
        "specpair", "specpair.errors", "specpair.potential"]
