"""Acceptance battery: every top-level claim at its contracted tolerance.

One test per criterion; each prints a PASS/FAIL line with the measured
margins so the run doubles as a report.
"""

import math
import time

import numpy as np
import pytest

from specpair.potential import BumpSpec, PotentialSpec, harmonic
from specpair.eigensolve import Grid, refine_multi
from specpair.hadamard import (
    asymmetry_witness,
    constant_direction_sanity,
    solve_level,
    variation_check,
)
from specpair.pruefer import (
    CoefficientQ,
    compare_angles,
    compare_solutions,
    integrate_angle_pair,
    shoot_eigenvalue,
)
from specpair.traces import (
    TestFunction,
    gap_sweep,
    isospectral_distance,
    superpoly_decay_table,
    weyl_consistency,
    weyl_term,
)
from specpair.weber import c_identities, check_properties


def report(num: int, name: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def sweep():
    plus = PotentialSpec()
    minus = plus.reflected()
    return gap_sweep(plus, minus, np.geomspace(0.25, 1.0, 12),
                     Grid(8.0, 4095), window="ground")


def test_criterion_01_harmonic_exactness():
    grid = Grid(8.0, 15999)
    hs = (1.0, 0.5, 0.1)
    t0 = time.perf_counter()
    specs = refine_multi([(harmonic(), h, 20.4 * h) for h in hs], grid)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for h, spec in zip(hs, specs):
        lam = spec.eigenvalues + spec.eigenvalues_lo
        exact = (2.0 * np.arange(1, 11) - 1.0) * h
        worst = max(worst, float(np.max(np.abs(lam[:10] - exact))))
    report(1, "harmonic levels at (2j-1)h",
           worst <= 1e-9 and elapsed <= 30.0,
           f"max |error| = {worst:.2e} (tol 1e-9), runtime {elapsed:.1f}s (cap 30s)")


def test_criterion_02_exact_reflection_isospectrality():
    p = PotentialSpec(t=0.0, eps=0.05)
    d = isospectral_distance(1.0, 20.0, p, p.reflected(), Grid(8.0, 4095)).D
    report(2, "mirror pair distance at t = 0", d <= 1e-11,
           f"distance = {d:.2e} (tol 1e-11)")


def test_criterion_03_ground_state_gap(sweep):
    entry = sweep.entries[-1]
    assert entry.h == 1.0
    ratio = entry.D / max(entry.error_estimate, 1e-300)
    report(3, "ground-state splitting at h = 1",
           ratio > 100.0,
           f"|gap| = {entry.D:.6e}, error estimate {entry.error_estimate:.1e}, "
           f"ratio {ratio:.1e} (need > 100)")


def test_criterion_04_superpolynomial_decay(sweep):
    usable = sweep.usable_entries()
    table = superpoly_decay_table(sweep)
    monotone = all(table[N]["monotone"] for N in (2, 4, 6, 8))
    fit_ok = sweep.fit is not None and sweep.fit.c > 0.0 and sweep.fit.r_squared >= 0.98
    detail = (f"{len(usable)}/{len(sweep.entries)} entries above floor "
              f"{sweep.noise_floor:.1e}; D/h^N decreasing for N=2,4,6,8: {monotone}; ")
    if sweep.fit is not None:
        detail += (f"fit D ~ {sweep.fit.C:.2e} exp(-{sweep.fit.c:.2f}/h), "
                   f"r^2 = {sweep.fit.r_squared:.6f}")
    else:
        detail += "no fit possible"
    report(4, "sampled decay of the spectral distance", monotone and fit_ok, detail)


def test_criterion_05_variational_formula():
    base = PotentialSpec(t=0.05, eps=0.0)
    grid = Grid(8.0, 4095)
    level = solve_level(base, 1.0, 1, grid)
    r = variation_check(level, base.beta, eps_fd=1e-5)
    rel = r.discrepancy / abs(r.formula_value)

    well = BumpSpec(center=0.5, half_width=0.5, amplitude=1.0)
    discs = [variation_check(level, well, eps_fd=e).discrepancy
             for e in (4e-4, 2e-4, 1e-4)]
    ratios = [discs[0] / discs[1], discs[1] / discs[2]]
    shrink = all(2.5 <= x <= 6.0 for x in ratios)

    sanity = constant_direction_sanity(level)
    ok = rel <= 1e-4 and shrink and abs(sanity - 1.0) <= 1e-10
    report(5, "first-variation formula vs central differences", ok,
           f"relative discrepancy {rel:.2e} at eps_fd = 1e-5 (tol 1e-4); "
           f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} (second order); "
           f"constant direction = 1 {abs(sanity-1.0):.1e}")


def test_criterion_06_asymmetry_witness():
    grid = Grid(8.0, 4095)
    beta = BumpSpec(center=3.5, half_width=0.5, amplitude=1.0)
    w = asymmetry_witness(solve_level(PotentialSpec(t=0.05, eps=0.0), 1.0, 1, grid), beta)
    ratio = abs(w.gap) / max(w.error_estimate, 1e-300)
    w0 = asymmetry_witness(solve_level(PotentialSpec(t=0.0, eps=0.0), 1.0, 1, grid), beta)
    ok = ratio > 100.0 and abs(w0.gap) <= 1e-12
    report(6, "directional derivatives split", ok,
           f"gap = {w.gap:.4e} at t = 0.05 ({ratio:.1e} x error); "
           f"symmetric control gap = {w0.gap:.1e} (tol 1e-12)")


def test_criterion_07_matching_suite(weber_bundle):
    base, lam1, u1, w = weber_bundle
    props = check_properties(w)
    ident = c_identities(w, u1)

    qb = CoefficientQ(lam=lam1)
    qs = CoefficientQ(lam=lam1, potential=base)
    th0 = math.atan2(float(w.dense(-3.0)), float(w.dense.derivative(-3.0)))
    pair = integrate_angle_pair(qb, qs, -3.0, th0, -w.a)
    ang = compare_angles(pair)
    sol = compare_solutions(pair, float(u1(-3.0)))

    checks = {
        "theta ordering": ang.min_margin >= -1e-9,
        "solution ordering": sol.min_margin >= -1e-9,
        "W positive to 3": props.positive_on_left,
        "unique critical point": props.unique_critical_point,
        "a > 0": w.a > 0.0,
        "|a| < sqrt(lam1)": abs(w.a) < math.sqrt(lam1),
        "single zero beyond 3": w.z0 is not None and w.z0 > 3.0,
        "c > 1": w.c > 1.0 + 1e-7,
        "left identity": ident.sup_left <= 1e-7,
        "right identity": ident.sup_right <= 1e-7,
    }
    failed = [k for k, v in checks.items() if not v]
    report(7, "ground-state / Weber matching at h = 1", not failed,
           f"lam1 = {lam1:.8f}, a = {w.a:.3e}, z0 = {w.z0:.4f}, c = {w.c:.8f}; "
           f"angle margin {ang.min_margin:.1e}, solution margin {sol.min_margin:.1e}, "
           f"identities {ident.sup_left:.1e}/{ident.sup_right:.1e}"
           + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_08_trace_invariants():
    plus = PotentialSpec()
    minus = plus.reflected()
    f_exp = TestFunction(kind="exponential", scale=1.0)
    # energies up to 18 reach beta's support [3, 4], so the bump check can fail
    f_bump = TestFunction(kind="bump", center=12.0, half_width=6.0)
    d_exp = abs(weyl_term(plus, f_exp) - weyl_term(minus, f_exp))
    a_bump = weyl_term(plus, f_bump)
    d_bump = abs(a_bump - weyl_term(minus, f_bump))
    beta_seen = abs(a_bump - weyl_term(PotentialSpec(t=plus.t, eps=0.0), f_bump))

    fit = weyl_consistency(harmonic(), f_exp, [0.5, 0.4, 0.32, 0.25, 0.2, 0.16])
    a1_rel = abs(fit.a1_fit + math.pi / 6.0) / (math.pi / 6.0)
    a0_dev = abs(fit.a0_fit - math.pi)
    ok = (d_exp <= 2e-10 and d_bump <= 2e-10 and beta_seen > 1e-3
          and a1_rel <= 0.05 and a0_dev <= 1e-3)
    report(8, "leading trace data agree across the pair", ok,
           f"phase-space term differences {d_exp:.1e}, {d_bump:.1e} (tol 2e-10); "
           f"bump term moves {beta_seen:.1e} with beta off (> 1e-3); "
           f"(2 pi h) nu_h -> {fit.a0_fit:.6f} (pi {math.pi:.6f}); "
           f"h^2 coefficient {fit.a1_fit:.5f} vs -pi/6 {-math.pi/6:.5f} "
           f"({100*a1_rel:.2f}%, tol 5%)")


def test_criterion_09_cross_method_oracle():
    plus = PotentialSpec()
    minus = plus.reflected()
    grid = Grid(8.0, 15999)
    hs = (1.0, 0.5, 0.25)
    entries = [(p, h, 20.4 * h + 0.2) for h in hs for p in (plus, minus)]
    specs = refine_multi(entries, grid)
    shoot_est = 2e-8
    worst_ratio = 0.0
    worst_detail = ""
    for (p, h, _), spec in zip(entries, specs):
        for j in range(1, 11):
            shot = shoot_eigenvalue(p, h, j, 8.0, lam_tol=1e-9, eps_per_length=1e-9)
            diff = abs(spec.value(j) - shot)
            allowed = 10.0 * (float(spec.error_estimate[j - 1]) + shoot_est)
            ratio = diff / allowed
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_detail = f"h={h}, j={j}, |diff|={diff:.2e}, allowed={allowed:.2e}"
    report(9, "matrix vs shooting eigenvalues", worst_ratio <= 1.0,
           f"worst case {worst_detail} (ratio {worst_ratio:.3f} of allowance)")


def test_criterion_10_ground_state_above_h():
    plus = PotentialSpec()
    minus = plus.reflected()
    grid = Grid(8.0, 15999)
    hs = (0.7, 0.85, 1.0)
    entries = [(p, h, 2.5 * h) for h in hs for p in (plus, minus)]
    specs = refine_multi(entries, grid)
    margins = []
    ok = True
    for (p, h, _), spec in zip(entries, specs):
        margin = spec.value(1) - h - 10.0 * float(spec.error_estimate[0])
        margins.append(f"h={h}: {margin:.2e}")
        ok = ok and margin > 0.0
    report(10, "perturbed ground state exceeds h", ok,
           "margins over 10x error estimate: " + "; ".join(margins[::2]))
