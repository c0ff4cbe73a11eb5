"""Every fast experiment's checks across the config space.

spectrum, hadamard-check, validate and gap-sweep run at every
t in {0, 0.05, 0.5, 1} x eps in {0.01, 0.05, 0.5} x h in {0.5, 1, 2}, the
rest of the config at ``DEFAULTS``.  Each check that fails must be an
entry of ``KNOWN_FAILURES``, and each entry must fail exactly where it
says: a new failure fails the test, and so does an entry that no longer
fails anywhere it is listed, so a mend deletes its entry.  Every fault
entry names the CHANGES.md FOUND line that says what fails and why.
"""

import itertools
from typing import Callable, NamedTuple

from specpair import cli

TS = (0.0, 0.05, 0.5, 1.0)
EPSS = (0.01, 0.05, 0.5)
HS = (0.5, 1.0, 2.0)
EXPERIMENTS = ("spectrum", "hadamard-check", "validate", "gap-sweep")


class KnownFailure(NamedTuple):
    where: Callable[[float, float, float], bool]   # (t, eps, h) -> fails there
    why: str


KNOWN_FAILURES = {
    ("spectrum", "eigensolve.ground_above_h"): KnownFailure(
        lambda t, eps, h: h == 0.5 or (t == 0.0 and (h == 1.0 or (h == 2.0 and eps == 0.01))),
        "fault: CHANGES.md FOUND on `cli._exp_spectrum` `eigensolve.ground_above_h` "
        "across the config space (the estimate |fine - coarse|/3 overstates the "
        "refined value's error by ~1e5)"),
    ("hadamard-check", "hadamard.second_order_shrinkage"): KnownFailure(
        lambda t, eps, h: t == 0.0 and h == 2.0,
        "fault: CHANGES.md FOUND on `cli._exp_hadamard` `hadamard.second_order_shrinkage` "
        "at t = 0, h = 2 (the discrepancy sits at the oracle's rounding)"),
    ("gap-sweep", "traces.fit_available"): KnownFailure(
        lambda t, eps, h: t == 0.05 and eps == 0.01,
        "fault: CHANGES.md FOUND on `cli._exp_gap_sweep` `traces.fit_available` "
        "at t = 0.05, eps = 0.01 (fewer than 5 rows clear the flat 1e-12 floor)"),
    ("validate", "potential.standing_assumptions"): KnownFailure(
        lambda t, eps, h: t == 1.0,
        "excluded by the paper's assumption, not a fault: t max|alpha'| >= 4"),
}


def test_fast_experiments_fail_only_their_known_checks(tmp_path):
    failed = {}
    for t, eps, h in itertools.product(TS, EPSS, HS):
        config = {"potential": {"t": t, "eps": eps}, "h": h}
        for exp in EXPERIMENTS:
            try:
                rep = cli.run(config, exp, out_dir=tmp_path)
            except Exception as exc:  # noqa: BLE001 - a raising experiment is a failure too
                failed.setdefault((exp, f"raised {type(exc).__name__}: {exc}"), set()).add(
                    (t, eps, h))
                continue
            for a in rep.assertions:
                if not a.passed:
                    failed.setdefault((exp, a.name), set()).add((t, eps, h))
    new = {key: sorted(where) for key, where in failed.items() if key not in KNOWN_FAILURES}
    assert new == {}, "checks that fail outside KNOWN_FAILURES"
    for key, known in KNOWN_FAILURES.items():
        listed = {c for c in itertools.product(TS, EPSS, HS) if known.where(*c)}
        got = failed.get(key, set())
        assert got == listed, (
            f"{key} ({known.why}): fails at {sorted(got - listed)} beyond its entry, "
            f"passes at {sorted(listed - got)} inside it")
