"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

import flagflow as ff
from flagflow.cli import run as cli_run
from flagflow.dynamics import IntegratorConfig, integrate_with_events
from flagflow.experiments import cylinder_basin, lyapunov_exponent_table, no_interior_equilibria_scan
from flagflow.model import (
    einstein_residual,
    invariant_directions,
    invariant_ray_parameter,
    poly_rhs,
    reparam_check,
    tangency_defect,
)

SQRT2 = math.sqrt(2.0)

# reference spectra for the four invariant rays in chart 1, sorted descending
REFERENCE_EXPONENTS = {
    1: (-0.254589, -0.315206, -0.325068),
    2: (-0.245719, -0.315967, -0.333946),
    3: (-0.26002, -0.31521, -0.31964),
    4: (-0.260018, -0.315206, -0.319638),
}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "infinity.json"
    t0 = time.perf_counter()
    code = cli_run(["infinity", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def exponent_table():
    t0 = time.perf_counter()
    table = lyapunov_exponent_table()
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def basin_reports():
    t0 = time.perf_counter()
    reports = {j: cylinder_basin(j, 0.05, 0.6, 200, 7) for j in (1, 2, 3, 4)}
    return reports, time.perf_counter() - t0


def test_criterion_1_infinity_census(census):
    payload, elapsed = census
    eqs = payload["equilibria"]
    octant = [e for e in eqs if e["first_octant"]]
    count_ok = len(eqs) == 10 and len(octant) == 4
    match_ok = True
    for d in invariant_directions():
        best = min(np.max(np.abs(np.array(e["direction"]) - d)) for e in octant)
        match_ok = match_ok and best <= 1e-5
    time_ok = elapsed < 5.0
    report(1, count_ok and match_ok and time_ok,
           f"{len(eqs)} equilibria, {len(octant)} in first octant, direction match "
           f"{'OK' if match_ok else 'BAD'}, runtime {elapsed:.2f}s (limit 5s)")


def test_criterion_2_classification(census):
    payload, _ = census
    octant = [e for e in payload["equilibria"] if e["first_octant"]]
    diag = np.ones(3) / math.sqrt(3.0)
    kinds = {}
    min_re = math.inf
    for e in octant:
        re_parts = [ev["re"] for ev in e["eigenvalues"]]
        min_re = min(min_re, min(abs(r) for r in re_parts))
        label = "diagonal" if np.max(np.abs(np.array(e["direction"]) - diag)) < 1e-6 else "ray"
        kinds.setdefault(label, []).append(e["stability"])
    ok = (kinds.get("diagonal") == ["attractor"]
          and kinds.get("ray") == ["saddle"] * 3
          and min_re > 1e-6)
    report(2, ok, f"diagonal: {kinds.get('diagonal')}, rays: {kinds.get('ray')}, "
                  f"min |Re eig| = {min_re:.3e} (threshold 1e-6)")


def test_criterion_3_invariant_lines_einstein():
    t = invariant_ray_parameter()
    worst_tangency = max(tangency_defect(d) for d in invariant_directions())
    worst_residual = max(einstein_residual(d)[1] for d in invariant_directions())
    c_diag, _ = einstein_residual((1.0, 1.0, 1.0))
    c_ray, _ = einstein_residual((1.0, t, 1.0))
    const_err = max(abs(c_diag - 5.0 / 12.0), abs(c_ray - (2.0 - SQRT2) / 6.0))
    ok = worst_tangency <= 1e-13 and worst_residual <= 1e-12 and const_err <= 1e-12
    report(3, ok, f"max tangency {worst_tangency:.2e} (<=1e-13), max residual "
                  f"{worst_residual:.2e} (<=1e-12), constant error {const_err:.2e}")


def test_criterion_4_lyapunov_table(exponent_table):
    table, elapsed = exponent_table
    details = []
    all_negative = True
    all_match = True
    for line in (1, 2, 3, 4):
        row = table.row(line, 1)
        neg = all(v < 0.0 for v in row.exponents)
        match = all(abs(a - b) <= 0.05
                    for a, b in zip(row.exponents, REFERENCE_EXPONENTS[line]))
        all_negative = all_negative and neg
        all_match = all_match and match
        details.append(f"line {line}: ({row.exponents[0]:+.4f}, {row.exponents[1]:+.4f}, "
                       f"{row.exponents[2]:+.4f}) vs ref {REFERENCE_EXPONENTS[line]} "
                       f"neg={neg} within0.05={match}")
    time_ok = elapsed < 60.0
    report(4, all_negative and all_match and time_ok,
           f"runtime {elapsed:.1f}s (limit 60s); " + "; ".join(details))


def test_criterion_5_no_interior_equilibria():
    v400 = no_interior_equilibria_scan(400)
    v800 = no_interior_equilibria_scan(800)
    stable = abs(v800 - v400) / v400 < 0.05
    diag = np.ones(3) / math.sqrt(3.0)
    spot1 = abs(float(np.linalg.norm(poly_rhs(diag))) - 5.0 / math.sqrt(3.0))
    spot2 = abs(float(np.linalg.norm(poly_rhs((1.0, 0.0, 0.0)))) - math.sqrt(3.0))
    ok = v400 > 0.0 and stable and spot1 <= 1e-12 and spot2 <= 1e-12
    report(5, ok, f"min(400) = {v400:.9f} > 0, doubling change "
                  f"{abs(v800 - v400) / v400:.2%} (< 5%), spot errors "
                  f"{spot1:.1e}/{spot2:.1e} (<= 1e-12)")


def test_criterion_6_basin_experiment(basin_reports):
    reports, elapsed = basin_reports
    details = []
    ok = elapsed < 120.0
    for j in (1, 2, 3, 4):
        rep = reports[j]
        line_ok = rep.converged_fraction == 1.0 and rep.max_line_deviation < 0.05
        ok = ok and line_ok
        details.append(f"line {j}: fraction {rep.converged_fraction:.3f}, "
                       f"max deviation {rep.max_line_deviation:.4f}")
    report(6, ok, f"runtime {elapsed:.1f}s (limit 120s); " + "; ".join(details))


def test_criterion_7_integrator_oracles():
    checkpoints_metric = np.linspace(0.05, 0.5, 10)
    worst_metric = 0.0
    for t in checkpoints_metric:
        tr = integrate_with_events(ff.ricci_field, (1.0, 1.0, 1.0), IntegratorConfig(t_end=float(t)))
        worst_metric = max(worst_metric,
                           abs(tr.final_state[0] - math.sqrt(1.0 - 5.0 * t / 3.0)))
    checkpoints_poly = np.linspace(0.018, 0.18, 10)
    worst_poly = 0.0
    for t in checkpoints_poly:
        tr = integrate_with_events(ff.poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=float(t)))
        worst_poly = max(worst_poly, abs(tr.final_state[0] - 1.0 / (1.0 - 5.0 * t)))
    blow = integrate_with_events(ff.poly_rhs, (1.0, 1.0, 1.0),
                                 IntegratorConfig(t_end=1.0), blow_up_radius=1e6)
    blow_ok = blow.termination == "blow_up_event" and abs(blow.final_time - 0.2) <= 1e-3
    ok = worst_metric <= 1e-6 and worst_poly <= 1e-6 and blow_ok
    report(7, ok, f"metric-flow max err {worst_metric:.2e}, quadratic-flow max err "
                  f"{worst_poly:.2e} (<= 1e-6), blow-up at t = {blow.final_time:.6f} "
                  f"(0.2 +- 1e-3)")


def test_criterion_8_reparametrization_identity():
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(0.1, 5.0, size=3)
        scale = max(1.0, float(np.max(np.abs(poly_rhs(m)))))
        worst = max(worst, reparam_check(m) / scale)
    ok = worst < 1e-10
    report(8, ok, f"max relative defect over 1000 seeded metrics = {worst:.2e} (< 1e-10)")
