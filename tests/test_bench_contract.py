"""The benchmark's tracer and workloads use names and flags that exist.

``bench/spans.py`` wraps each function listed in its ``LAYERS`` table and
fails on the first one that is missing, and ``bench/workloads.py`` runs
fixed CLI command lines, so renaming a traced function or renaming or
tightening a flag would break every benchmark run.  The benchmark's own
tests are not part of this suite; these tests load both files by path and
check them against the package.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import flagflow
from flagflow import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SRC = pathlib.Path(flagflow.__file__).resolve().parents[1]


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers() -> dict:
    return load("spans").LAYERS


def test_every_traced_function_exists():
    layers = load_layers()
    assert layers
    missing = []
    for layer, (module, functions, _) in layers.items():
        home = importlib.import_module(f"flagflow.{module}")
        missing += [f"{layer}: flagflow.{module}.{name}" for name in functions
                    if not callable(getattr(home, name, None))]
    assert missing == []


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_workload_command_lines_parse(monkeypatch, seed):
    monkeypatch.delenv("FLAGFLOW_SEED", raising=False)
    workloads = load("workloads")
    for name in workloads.WORKLOADS:
        commands = workloads.commands(name, seed)
        assert commands, name
        for command in commands:
            # a renamed, removed or tightened flag raises ValueError here
            args = cli._build_parser().parse_args(command.argv)
            assert cli._options(args)["out"] == command.out


# one CLI command under the benchmark's tracer, in a fresh process because
# Tracer.install rebinds module attributes; the last stdout line is JSON
TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import flagflow.cli
import spans
tracer = spans.Tracer()
tracer.install()
code = flagflow.cli.run(sys.argv[3:])
print(json.dumps({"code": code, "unwrapped": tracer.unwrapped_bindings(),
                  "layers": tracer.layer_metrics()}))
"""

# spans that the single-point chart kernels reach through PolyField3.func
# and .jac; bench/test_bench.py pins them nonzero on its workloads
KERNEL_SPANS = ("compactify.field", "compactify.jacobian", "model.poly_rhs",
                "model.poly_jacobian")


@pytest.mark.parametrize("argv", [
    ["basin", "--line", "2", "--samples", "2"],
    ["lyapunov", "--lines", "2", "--t-max", "1"],
    ["plot", "--t-end", "5"],
], ids=["basin", "lyapunov", "plot"])
def test_traced_command_reaches_every_kernel_span(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SRC), str(BENCH), *argv,
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] in (0, 2)
    assert record["unwrapped"] == []
    calls = {span: record["layers"][f"{span}.calls"] for span in KERNEL_SPANS}
    assert all(calls.values()), calls


@pytest.mark.parametrize("workload", ["census_verify", "basin_tubes", "lyapunov_rays"])
def test_workload_outputs_pass_the_benchmark_checks(monkeypatch, tmp_path, workload):
    # the outputs of seed 0, written in process, pass the checks the
    # benchmark applies to every repetition
    monkeypatch.delenv("FLAGFLOW_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    workloads = load("workloads")
    for command in workloads.commands(workload, 0):
        code = cli.run(command.argv)
        out = tmp_path / command.out
        data = out.read_bytes() if out.exists() else None
        assert workloads.check(command, code, data) == [], command.argv
