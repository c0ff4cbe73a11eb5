"""Start-up ratchets: a module loads only what it uses.

Every scipy module is imported inside the functions that call it:
``scipy.linalg`` in ``eigensolve._levels`` and ``_inverse_iteration``,
``scipy.optimize`` and ``scipy.integrate`` in ``pruefer.shoot_eigenvalue``,
``weber`` and ``traces.weyl_term``.  So a fresh interpreter that imports
the package and parses a config loads no scipy at all, nor does the
console entry point when it prints the defaults or rejects a config; the
first solve loads ``scipy.linalg``, and the four matrix-only experiments
never load scipy.optimize/integrate.  The package root imports nothing,
so ``specpair.potential`` loads only itself and ``specpair.errors``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

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

PARSE_THEN_SOLVE = """\
import json
import sys
import specpair
from specpair import cli, traces
from specpair.eigensolve import Grid, discretize, eigenvalues_below
from specpair.potential import harmonic

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

cli.ExperimentConfig.from_dict({})
after_parse = scipy_loaded()
eigenvalues_below(discretize(harmonic(), 1.0, Grid(8.0, 255)), 4.0)
print(json.dumps({"after_parse": after_parse, "after_solve": scipy_loaded()}))
"""


def test_matrix_experiments_load_no_optimize_or_integrate(tmp_path):
    out = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                         env=ENV, capture_output=True, text=True, check=True, timeout=300)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["after_import"] == []
    assert loaded["after_runs"] == []
    # positive control: the phase-space quadrature does load scipy.integrate
    assert "scipy.integrate" in loaded["after_weyl_term"]


def test_parsing_a_config_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", PARSE_THEN_SOLVE],
                         env=ENV, capture_output=True, text=True, check=True, timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["after_parse"] == []
    # positive control: the first solve loads scipy.linalg
    assert "scipy.linalg" in loaded["after_solve"]


def _console_imports(*args):
    """Exit status, stderr and the modules imported by ``python -m specpair.cli *args``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "specpair.cli", *args],
                         env=ENV, capture_output=True, text=True, timeout=120)
    modules = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
               if line.startswith("import time:") and "|" in line]
    return out.returncode, out.stderr, modules


def test_console_prints_defaults_and_rejects_a_config_without_scipy():
    status, _, modules = _console_imports("--print-defaults")
    assert status == 0
    assert "specpair.eigensolve" in modules
    assert [m for m in modules if m.startswith("scipy")] == []
    status, stderr, modules = _console_imports("spectrum", "--h", "-1")
    assert status == 2
    assert "h must be a finite number > 0" in stderr
    assert [m for m in modules if m.startswith("scipy")] == []


def test_potential_loads_only_itself_and_errors():
    code = ("import json, sys; import specpair.potential; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('specpair', 'scipy'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=ENV, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == [
        "specpair", "specpair.errors", "specpair.potential"]
