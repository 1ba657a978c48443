"""Tests of the benchmark: the traced call pattern, repeatable work counts, and the checks.

Run from the repository root:

    python3 -m pytest bench/test_bench.py

Every workload runs twice as a traced worker process, so the module takes
about a minute.
"""

import functools

import pytest

import run
import workloads

SEED = 5
NONZERO = object()

# per workload: traced metrics and the value each must take, NONZERO where the
# workload is predicted to exercise the layer without a fixed count
EXPECTED = {
    "basin_tubes": {
        "cli.run.calls": 4,
        "compactify.census.calls": 1,
        "compactify.newton_sweep.calls": 3,
        "compactify.jacobian.calls": 21,  # the grid-48 census classifies 21 roots
        "model.poly_jacobian.calls": 21,
        "compactify.field.calls": NONZERO,
        "compactify.chart_ops.calls": NONZERO,
        "model.poly_rhs.calls": NONZERO,
        "dynamics.compactified.calls": 4 * workloads.BASIN_SAMPLES,
        "dynamics.compactified.steps": NONZERO,
        "experiments.basin.samples": 4 * workloads.BASIN_SAMPLES,
        "experiments.basin.converged": NONZERO,
        "dynamics.lyapunov.calls": 0,
        "dynamics.events.calls": 0,
        "experiments.octant_scan.calls": 0,
        "svgplot.portrait.self_s": 0,
    },
    "lyapunov_rays": {
        "cli.run.calls": 1,
        "dynamics.lyapunov.calls": 2,
        "dynamics.lyapunov.segments": NONZERO,
        "experiments.lyapunov_table.rows_converged": 1,
        "compactify.field.calls": NONZERO,
        "compactify.jacobian.calls": NONZERO,
        "model.poly_rhs.calls": NONZERO,  # through the PolyField3.func of model_poly_field()
        "model.poly_jacobian.calls": NONZERO,
        "dynamics.compactified.calls": 0,
        "compactify.newton_sweep.calls": 0,
        "compactify.census.calls": 0,
        "dynamics.events.calls": 0,
        "experiments.octant_scan.calls": 0,
        "experiments.basin.samples": 0,
    },
    "census_verify": {
        "cli.run.calls": 5,
        "compactify.census.calls": 3,  # infinity twice, plot once
        "compactify.newton_sweep.calls": 9,
        "compactify.jacobian.calls": 63,
        "experiments.octant_scan.calls": 1,
        "dynamics.events.calls": 1,
        "dynamics.events.steps": NONZERO,
        "dynamics.compactified.calls": 6,
        "svgplot.portrait.self_s": NONZERO,
        "model.poly_rhs.calls": NONZERO,
        "model.poly_jacobian.calls": NONZERO,
        "dynamics.lyapunov.calls": 0,
        "experiments.basin.samples": 0,
    },
}

# counts that must repeat exactly between two runs of the same code and seed
REPEATED_COUNTS = (
    "dynamics.compactified.steps",
    "compactify.field.calls",
    "dynamics.lyapunov.segments",
    "dynamics.compactified.chart_switches",
    "experiments.basin.timeouts",
)


@functools.lru_cache(maxsize=None)
def traced(workload: str, attempt: int) -> dict:
    return run.run_repetition(workloads.commands(workload, SEED), trace=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_caller_binding_is_wrapped(workload):
    assert traced(workload, 0)["unwrapped"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_call_pattern(workload):
    layers = traced(workload, 0)["layers"]
    wrong = {}
    for metric, want in EXPECTED[workload].items():
        got = layers[metric]
        if (got == 0) if want is NONZERO else (got != want):
            wrong[metric] = got
    assert wrong == {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat(workload):
    first = traced(workload, 0)["layers"]
    second = traced(workload, 1)["layers"]
    counts = [m for m in first if m.endswith(".calls")] + list(REPEATED_COUNTS)
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_and_catch_damage(workload):
    record = traced(workload, 0)
    for cmd, result in zip(workloads.commands(workload, SEED), record["commands"]):
        data = record["outputs"][cmd.out]
        assert workloads.check(cmd, result["exit_code"], data) == []
        assert workloads.check(cmd, result["exit_code"], data[: len(data) // 2]) != []
        assert workloads.check(cmd, result["exit_code"] + 1, data) != []
