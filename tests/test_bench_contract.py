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
import pathlib

import pytest

from flagflow import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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
