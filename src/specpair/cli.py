"""Experiment harness: JSON config in, CSV/JSON reports and plot scripts out.

Subcommands map one-to-one onto the package's verification suites; the exit
status is nonzero exactly when an assertion failed or an error occurred, so
the harness can run unattended.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import eigensolve, hadamard, pruefer, traces, weber
from .eigensolve import Grid, discretize, eigenvalues_below, grid_pair, refine
from .errors import PreconditionError, check_keys, check_real
from .potential import BumpSpec, PotentialSpec, harmonic, validate

EXPERIMENTS = ("spectrum", "gap-sweep", "hadamard-check", "weber",
               "pruefer-compare", "trace", "validate")

DEFAULTS: dict = {
    "potential": {
        "t": 0.05,
        "eps": 0.05,
        "reflect_beta": False,
        "alpha": {"center": -2.5, "half_width": 0.5, "amplitude": 1.0},
        "beta": {"center": 3.5, "half_width": 0.5, "amplitude": 1.0},
    },
    "grid": {"L": 8.0, "intervals": 4096},
    "h": 1.0,
    "h_list": [float(x) for x in np.geomspace(0.25, 1.0, 12)],
    "E_window": 10.0,
    "gap_window": "ground",
    "eps_fd": 1e-5,
    "shoot_h_list": [1.0, 0.5],
    "shoot_j_max": 5,
    "out_dir": "out",
}


def _count(v, key: str) -> int:
    """``v`` as an int; anything but an integer >= 1 raises naming ``key``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
        raise PreconditionError(f"{key} must be an integer >= 1, got {v!r}")
    return int(v)


def _positive_list(v, key: str) -> list[float]:
    if not isinstance(v, (list, tuple)) or not v:
        raise PreconditionError(f"{key} must be a non-empty list, got {v!r}")
    return [check_real(x, key, positive=True) for x in v]


def _out_dir(v) -> str:
    if not isinstance(v, str) or not v:
        raise PreconditionError(f"out_dir must be a non-empty string, got {v!r}")
    return v


@dataclass
class ExperimentConfig:
    potential: PotentialSpec
    grid_L: float
    grid_intervals: int
    h: float
    h_list: list[float]
    E_window: float
    gap_window: str | float
    eps_fd: float
    shoot_h_list: list[float]
    shoot_j_max: int
    out_dir: str
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        merged = json.loads(json.dumps(DEFAULTS))
        check_keys(d, DEFAULTS, "config")
        for key, val in d.items():
            if key in ("potential", "grid"):
                check_keys(val, DEFAULTS[key], key)
                merged[key].update(val)
            else:
                merged[key] = val
        pot = PotentialSpec.from_dict(merged["potential"])
        g = merged["grid"]
        intervals = _count(g["intervals"], "grid.intervals")
        if intervals % 2 != 0:
            raise PreconditionError("grid.intervals must be even")
        h = check_real(merged["h"], "h", positive=True)
        E_window = check_real(merged["E_window"], "E_window", positive=True)
        if not E_window > h:
            # V >= x^2 puts the ground level above h
            raise PreconditionError(f"E_window = {E_window} holds no level at h = {h}")
        gw = merged["gap_window"]
        if gw != "ground":
            gw = check_real(gw, "gap_window", positive=True)
        return cls(potential=pot, grid_L=check_real(g["L"], "grid.L", positive=True),
                   grid_intervals=intervals, h=h,
                   h_list=_positive_list(merged["h_list"], "h_list"),
                   E_window=E_window, gap_window=gw,
                   eps_fd=check_real(merged["eps_fd"], "eps_fd", positive=True),
                   shoot_h_list=_positive_list(merged["shoot_h_list"], "shoot_h_list"),
                   shoot_j_max=_count(merged["shoot_j_max"], "shoot_j_max"),
                   out_dir=_out_dir(merged["out_dir"]), raw=merged)

    def grids(self) -> tuple[Grid, Grid]:
        return grid_pair(self.grid_L, self.grid_intervals)

    def pair(self) -> tuple[PotentialSpec, PotentialSpec]:
        plus = self.potential if not self.potential.reflect_beta \
            else self.potential.reflected()
        return plus, plus.reflected()


@dataclass
class Assertion:
    name: str
    passed: bool
    margin: float
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "margin": self.margin, "detail": self.detail}


@dataclass
class Report:
    experiment: str
    config: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    assertions: list[Assertion] = field(default_factory=list)
    scripts: dict[str, str] = field(default_factory=dict)
    timing_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, margin: float, detail: str = ""):
        self.assertions.append(Assertion(name, bool(passed), float(margin), detail))


def charpoly_roots(diag, offsq: float) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal via its characteristic polynomial.

    Companion-matrix roots refined by Newton steps on the three-term
    recurrence; only sensible for tiny instances.
    """
    poly = np.poly1d([1.0])
    prev = np.poly1d([0.0])
    for d in diag:
        poly, prev = np.poly1d([-1.0, d]) * poly - offsq * prev, poly
    roots = np.sort(np.roots(poly.coefficients).real)

    def p_and_dp(lam: float) -> tuple[float, float]:
        p_prev, p = 1.0, diag[0] - lam
        dp_prev, dp = 0.0, -1.0
        for d in diag[1:]:
            p_new = (d - lam) * p - offsq * p_prev
            dp_new = -p + (d - lam) * dp - offsq * dp_prev
            p_prev, p = p, p_new
            dp_prev, dp = dp, dp_new
        return p, dp

    refined = []
    for r in roots:
        x = float(r)
        for _ in range(4):
            p, dp = p_and_dp(x)
            if dp == 0.0:
                break
            x -= p / dp
        refined.append(x)
    return np.sort(np.asarray(refined))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))    # np.float64 would print as np.float64(...)
    return str(v)


def _write_csv(path: Path, rows: list[dict]):
    if not rows:
        path.write_text("")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def write_report(report: Report, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in report.tables.items():
        _write_csv(out / f"{report.experiment}_{name}.csv", rows)
    for name, text in report.scripts.items():
        (out / name).write_text(text)
    payload = {
        "experiment": report.experiment,
        "config": report.config,
        "assertions": [a.to_dict() for a in report.assertions],
        "passed": report.ok,
        "timing_s": report.timing_s,
    }
    path = out / f"{report.experiment}_report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_spectrum(cfg: ExperimentConfig, rep: Report):
    gf, gc = cfg.grids()
    spec = refine(cfg.potential, cfg.h, cfg.E_window, gf, gc)
    if len(spec) == 0:
        raise PreconditionError(
            f"E_window = {cfg.E_window} holds no level at h = {cfg.h}")
    rep.tables["eigenvalues"] = list(spec.to_csv_rows())
    lam = spec.eigenvalues + spec.eigenvalues_lo
    gaps = np.diff(lam)
    rep.check("eigensolve.ordering", bool(np.all(gaps > 0)),
              float(np.min(gaps, initial=np.inf)),
              "eigenvalues strictly increasing")
    p = cfg.potential
    if p.t > 0.0 or p.eps > 0.0:
        margin = float(lam[0] - cfg.h - 10.0 * spec.error_estimate[0])
        rep.check("eigensolve.ground_above_h", margin > 0.0, margin,
                  "lambda_1 > h + 10*error for a bump-perturbed well")
    else:
        tol = max(float(spec.error_estimate[0]), 1e-12)
        dev = abs(float(lam[0]) - cfg.h)
        rep.check("eigensolve.ground_at_h", dev <= tol, tol - dev,
                  "lambda_1 = h for the bare oscillator")


_GAP_PLOT = """\
import csv
import math
import matplotlib.pyplot as plt

hs, Ds, usable = [], [], []
with open("gap-sweep_distance.csv") as fh:
    for row in csv.DictReader(fh):
        hs.append(float(row["h"]))
        Ds.append(float(row["D"]))
        usable.append(row["usable"] == "1")

fig, ax = plt.subplots(figsize=(6, 4))
ax.semilogy([1/h for h, u in zip(hs, usable) if u],
            [d for d, u in zip(Ds, usable) if u], "o", label="measured")
ax.semilogy([1/h for h, u in zip(hs, usable) if not u],
            [max(d, 1e-24) for d, u in zip(Ds, usable) if not u], "x",
            label="below noise floor")
ax.set_xlabel("1/h")
ax.set_ylabel("max spectral distance D(h)")
ax.legend()
fig.tight_layout()
fig.savefig("gap_decay.png", dpi=150)
"""


def _exp_gap_sweep(cfg: ExperimentConfig, rep: Report):
    if cfg.potential.eps == 0.0:
        raise PreconditionError(
            "gap-sweep needs potential.eps != 0: at eps = 0 both members are the "
            "same operator, so there is no splitting to measure")
    plus, minus = cfg.pair()
    curve = traces.gap_sweep(plus, minus, cfg.h_list, window=cfg.gap_window,
                             grids=cfg.grids())
    rep.tables["distance"] = list(curve.to_csv_rows())
    rep.scripts["plot_gap_decay.py"] = _GAP_PLOT
    usable = curve.usable_entries()
    if not usable and plus.t == 0.0:
        rep.check("traces.below_floor", True, curve.noise_floor,
                  "all gaps below noise floor (exact mirror pair)")
        return
    if curve.fit is None:
        rep.check("traces.fit_available", False, float(len(usable) - 5),
                  "fewer than 5 usable entries; decay fit not possible")
        return
    rep.tables["fit"] = [{
        "C": curve.fit.C, "c": curve.fit.c, "r_squared": curve.fit.r_squared,
        "power_r_squared": curve.fit.power_r_squared,
        "noise_floor": curve.noise_floor, "n_points": curve.fit.n_points,
    }]
    rep.check("traces.decay_rate_positive", curve.fit.c > 0.0, curve.fit.c,
              "exponential fit rate c > 0")
    rep.check("traces.fit_quality", curve.fit.r_squared >= 0.98,
              curve.fit.r_squared - 0.98, "r^2 >= 0.98 for log D vs 1/h")
    table = traces.superpoly_decay_table(curve)
    for N, row in table.items():
        rep.check(f"traces.superpoly_N{N}", row["monotone"],
                  row["worst_ratio"] - 1.0,
                  f"D/h^{N} decreasing over usable entries")


def _exp_hadamard(cfg: ExperimentConfig, rep: Report):
    p = cfg.potential
    base = PotentialSpec(t=p.t, eps=0.0, alpha=p.alpha, beta=p.beta)
    level = hadamard.solve_level(base, cfg.h, 1, Grid(cfg.grid_L, cfg.grid_intervals - 1))
    rows = []
    r = hadamard.variation_check(level, p.beta, eps_fd=cfg.eps_fd)
    rows.append(r.to_csv_row(cfg.h))
    rel = r.discrepancy / abs(r.formula_value)
    rep.check("hadamard.formula_vs_oracle", rel <= 1e-4, 1e-4 - rel,
              f"relative discrepancy {rel:.2e} at eps_fd = {cfg.eps_fd}")

    well = BumpSpec(center=0.5, half_width=0.5, amplitude=1.0)
    discs = []
    for e in (4e-4, 2e-4, 1e-4):
        rw = hadamard.variation_check(level, well, eps_fd=e)
        rows.append(rw.to_csv_row(cfg.h))
        discs.append(rw.discrepancy)
    ratios = [discs[i] / discs[i + 1] for i in range(len(discs) - 1)]
    second_order = all(2.5 <= r <= 6.0 for r in ratios)
    rep.check("hadamard.second_order_shrinkage", second_order,
              min(min(r - 2.5, 6.0 - r) for r in ratios),
              f"halving eps_fd shrinks the discrepancy ~4x: ratios {ratios}")

    sanity = hadamard.constant_direction_sanity(level)
    rep.check("hadamard.normalization", abs(sanity - 1.0) <= 1e-10,
              1e-10 - abs(sanity - 1.0),
              "constant direction integrates the squared eigenfunction to 1")

    w = hadamard.asymmetry_witness(level, p.beta)
    rows.append({"j": 1, "h": cfg.h, "formula": w.d_plus, "oracle": w.d_minus,
                 "eps_fd": 0.0, "discrepancy": w.gap})
    rep.check("hadamard.asymmetry_witness", w.significant,
              abs(w.gap) / max(w.error_estimate, 1e-300) - 100.0,
              f"directional derivatives differ: gap {w.gap:.3e}, "
              f"error {w.error_estimate:.1e}")
    rep.tables["variation"] = rows


_WEBER_PLOT = """\
import csv
import matplotlib.pyplot as plt

xs, Ws = [], []
with open("weber_solution.csv") as fh:
    for row in csv.DictReader(fh):
        xs.append(float(row["x"]))
        Ws.append(float(row["W"]))

fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(xs, Ws)
ax.set_xlim(min(xs), 5.0)
ax.set_ylim(-2.0, 2.0)
ax.axhline(0.0, color="k", lw=0.5)
ax.set_xlabel("x")
ax.set_ylabel("W(x)")
fig.tight_layout()
fig.savefig("weber.png", dpi=150)
"""


def _weber_bundle(cfg: ExperimentConfig):
    p = cfg.potential
    base = PotentialSpec(t=p.t, eps=0.0, alpha=p.alpha, beta=p.beta)
    return (base, *weber.matched_ground_state(base))


def _exp_weber(cfg: ExperimentConfig, rep: Report):
    base, lam1, u1, w = _weber_bundle(cfg)
    props = weber.check_properties(w)
    ident = weber.c_identities(w, u1)
    rep.tables["solution"] = [r for i, r in enumerate(w.to_csv_rows()) if i % 10 == 0]
    rep.scripts["plot_weber.py"] = _WEBER_PLOT
    rep.tables["features"] = [{
        "lambda1": lam1, "a": w.a, "z0": w.z0 if w.z0 is not None else math.nan,
        "c": w.c, "decay_slope": props.decay_slope,
        "growth_slope": props.growth_slope, "max_residual": props.max_residual,
    }]
    rep.check("weber.properties", props.ok, -float(len(props.failures)),
              "; ".join(props.failures) or "all shape properties hold")
    if base.t > 0.0:
        rep.check("weber.c_above_one", w.c > 1.0 + 1e-7, w.c - (1.0 + 1e-7),
                  "matching constant exceeds 1")
    rep.check("weber.identities", ident.ok,
              weber.IDENTITY_TOL - max(ident.sup_left, ident.sup_right, ident.deriv_mismatch),
              f"sup_left {ident.sup_left:.2e}, sup_right {ident.sup_right:.2e}, "
              f"derivative mismatch {ident.deriv_mismatch:.2e}")


def _exp_pruefer(cfg: ExperimentConfig, rep: Report):
    base, lam1, u1, w = _weber_bundle(cfg)
    qb = pruefer.CoefficientQ(lam=lam1)                 # bare oscillator
    qs = pruefer.CoefficientQ(lam=lam1, potential=base)  # with the alpha bump
    th0 = math.atan2(float(w.value(-3.0)), float(w.derivative(-3.0)))
    tb, ts = pruefer.integrate_angle_pair(qb, qs, -3.0, th0, -w.a)
    ang = pruefer.compare_angles(tb, ts)
    rep.check("pruefer.angle_ordering", ang.ok, ang.min_margin + pruefer.COMPARE_TOL,
              f"perturbed angle stays below the bare one, min margin "
              f"{ang.min_margin:.2e} at x = {ang.argmin_x:.3f}")
    sol = pruefer.compare_solutions(float(u1(-3.0)), tb, ts, (-3.0, -w.a))
    rep.check("pruefer.solution_ordering", sol.ok, sol.min_margin + pruefer.COMPARE_TOL,
              f"perturbed ground state dominates W on [-3, -a], min margin "
              f"{sol.min_margin:.2e}")
    rep.tables["comparison"] = [
        {"x": float(x), "u1": float(us), "W": float(ub)}
        for x, us, ub in zip(sol.xs[::5], sol.u_small_eq[::5], sol.u_big_eq[::5])]
    rep.tables["trace_bare"] = list(tb.to_csv_rows())
    rep.tables["trace_perturbed"] = list(ts.to_csv_rows())

    plus, minus = cfg.pair()
    gf, gc = cfg.grids()
    rows = []
    worst = math.inf
    for h in cfg.shoot_h_list:
        E = (2 * cfg.shoot_j_max + 1) * h
        for tag, p in (("plus", plus), ("minus", minus)):
            spec = refine(p, h, E, gf, gc)
            for j in range(1, min(cfg.shoot_j_max, len(spec)) + 1):
                shot = pruefer.shoot_eigenvalue(p, h, j, cfg.grid_L)
                matrix = spec.value(j)
                tol = 10.0 * (spec.error_estimate[j - 1] + 2e-9)
                rows.append({"h": h, "potential": tag, "j": j,
                             "matrix": matrix, "shooting": shot,
                             "difference": matrix - shot, "tolerance": tol})
                worst = min(worst, tol - abs(matrix - shot))
    rep.tables["cross_method"] = rows
    rep.check("pruefer.shooting_matches_matrix", worst >= 0.0, worst,
              "matrix vs shooting within 10x combined error estimates")


def _exp_trace(cfg: ExperimentConfig, rep: Report):
    plus, minus = cfg.pair()
    f_exp = traces.TestFunction(kind="exponential", scale=1.0)
    f_bump = traces.TestFunction(kind="bump", center=5.0, half_width=2.0)
    rows = []
    for fname, f in (("exp", f_exp), ("bump", f_bump)):
        ap = traces.weyl_term(plus, f)
        am = traces.weyl_term(minus, f)
        rows.append({"f": fname, "a0_plus": ap, "a0_minus": am,
                     "difference": ap - am})
        rep.check(f"traces.weyl_equality_{fname}", abs(ap - am) <= 2e-10,
                  2e-10 - abs(ap - am),
                  "phase-space terms of the pair agree")
    rep.tables["weyl"] = rows

    hs = [0.5, 0.4, 0.32, 0.25, 0.2, 0.16]
    fit = traces.weyl_consistency(harmonic(), f_exp, hs)
    rep.tables["consistency"] = list(fit.to_csv_rows())
    rep.tables["consistency_fit"] = [{
        "a0_fit": fit.a0_fit, "a0_quadrature": fit.a0_quadrature,
        "a1_fit": fit.a1_fit, "max_fit_residual": fit.max_fit_residual,
    }]
    rep.check("traces.weyl_limit", abs(fit.a0_fit - fit.a0_quadrature) <= 1e-3,
              1e-3 - abs(fit.a0_fit - fit.a0_quadrature),
              "(2 pi h) nu_h approaches the phase-space term")
    rel_a1 = abs(fit.a1_fit + math.pi / 6.0) / (math.pi / 6.0)
    rep.check("traces.h2_coefficient", rel_a1 <= 0.05, 0.05 - rel_a1,
              f"h^2 coefficient within 5% of -pi/6 (got {fit.a1_fit:.6f})")


def _exp_validate(cfg: ExperimentConfig, rep: Report):
    vrep = validate(cfg.potential)
    # the support and sign-scan checks have no scale, so a failure counts -1 each
    rep.check("potential.standing_assumptions", vrep.ok,
              min(4.0 - vrep.derivative_bound_alpha, 6.0 - vrep.derivative_bound_beta)
              if vrep.ok else -float(len(vrep.failures)),
              "; ".join(vrep.failures) or "supports and critical points valid")

    # mirror pair with t = 0 is exactly isospectral
    p0 = PotentialSpec(t=0.0, eps=max(cfg.potential.eps, 0.05),
                       alpha=cfg.potential.alpha, beta=cfg.potential.beta)
    g = Grid(8.0, 2047)
    sp = eigenvalues_below(discretize(p0, 1.0, g), 20.0)
    sm = eigenvalues_below(discretize(p0.reflected(), 1.0, g), 20.0)
    dist = float(np.max(np.abs(sp.gaps_to(sm))))
    rep.check("eigensolve.reflection_isospectral", dist <= 1e-11, 1e-11 - dist,
              f"mirror pair distance {dist:.2e}")

    # tiny-instance oracle: extraction against characteristic-polynomial roots
    gt = Grid(3.0, 7)
    T = discretize(harmonic(), 1.0, gt)
    spec = eigenvalues_below(T, 1e6, check_margin=False)
    roots = charpoly_roots(T.diag, T.off_value ** 2)
    dev = float(np.max(np.abs(roots - (spec.eigenvalues + spec.eigenvalues_lo))))
    rep.check("eigensolve.charpoly_oracle", dev <= 1e-12, 1e-12 - dev,
              f"n = 7 instance matches root finding to {dev:.2e}")

    # bare oscillator ground state sits at h
    gf, gc = grid_pair(8.0, 2048)
    for h in (1.0, 0.5):
        s = refine(harmonic(), h, 2.5 * h, gf, gc)
        tol = max(10.0 * float(s.error_estimate[0]), 1e-12)
        dev = abs(s.value(1) - h)
        rep.check(f"eigensolve.harmonic_ground_h{h}", dev <= tol, tol - dev,
                  f"lambda_1(h={h}) = {s.value(1)!r}")

    # angle equation with constant coefficient has the closed-form solution
    tr = pruefer.integrate_angle(pruefer.CoefficientQ(lam=0.0, const=1.0),
                                 0.0, 0.3, 2.0)
    dev = float(np.max(np.abs(tr.thetas - (0.3 + tr.xs))))
    rep.check("pruefer.constant_coefficient", dev <= 1e-9, 1e-9 - dev,
              f"theta advances linearly, deviation {dev:.2e}")


def run(config: dict | ExperimentConfig, experiment: str,
        out_dir: str | None = None) -> Report:
    cfg = config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig.from_dict(config)
    if experiment not in EXPERIMENTS:
        raise PreconditionError(f"unknown experiment {experiment!r}")
    rep = Report(experiment=experiment, config=cfg.raw)
    t0 = time.perf_counter()
    dispatch = {
        "spectrum": _exp_spectrum,
        "gap-sweep": _exp_gap_sweep,
        "hadamard-check": _exp_hadamard,
        "weber": _exp_weber,
        "pruefer-compare": _exp_pruefer,
        "trace": _exp_trace,
        "validate": _exp_validate,
    }
    dispatch[experiment](cfg, rep)
    rep.timing_s = time.perf_counter() - t0
    write_report(rep, out_dir or cfg.out_dir)
    return rep


def _cli_config(args: argparse.Namespace) -> dict:
    """The ``--config`` file's object with the command-line overrides merged in."""
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    check_keys(cfg, DEFAULTS, "config")

    def merge(section: str, **values):
        values = {k: v for k, v in values.items() if v is not None}
        if values:
            sub = cfg.get(section, {})
            check_keys(sub, DEFAULTS[section], section)
            cfg[section] = {**sub, **values}

    merge("potential", t=args.t, eps=args.eps)
    merge("grid", intervals=args.grid_n, L=args.grid_L)
    if args.h is not None:
        cfg["h"] = args.h
    if args.out is not None:
        cfg["out_dir"] = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specpair",
        description="Spectral laboratory for a mirror pair of bump-perturbed "
                    "oscillator potentials.")
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", type=str, default=None,
                        help="path to a JSON config file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--h", type=float, default=None, help="semiclassical parameter")
    parser.add_argument("--t", type=float, default=None, help="alpha bump strength")
    parser.add_argument("--eps", type=float, default=None, help="beta bump strength")
    parser.add_argument("--grid-n", type=int, default=None,
                        help="grid subintervals (even; interior points = n-1)")
    parser.add_argument("--grid-L", type=float, default=None,
                        help="grid truncation half-length")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the built-in config and exit")
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(json.dumps(DEFAULTS, indent=2, sort_keys=True))
        return 0
    if args.experiment is None:
        parser.error("an experiment is required (or --print-defaults)")

    try:
        rep = run(_cli_config(args), args.experiment, out_dir=args.out)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for a in rep.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"[{status}] {a.name}: {a.detail} (margin {a.margin:.3g})")
    print(f"{rep.experiment}: {'all assertions passed' if rep.ok else 'FAILURES'} "
          f"in {rep.timing_s:.1f}s")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
