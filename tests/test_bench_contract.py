"""The layer table of the benchmark tracer names functions that exist.

``bench/spans.py`` wraps each function listed in its ``LAYERS`` table and
fails on the first one that is missing, so renaming or deleting a traced
function would break every benchmark run.  The benchmark's own tests are
not part of this suite; this test reads the table by path and checks it
against the package.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_function_exists():
    layers = load_layers()
    assert layers
    missing = []
    for layer, (module, functions, _) in layers.items():
        home = importlib.import_module(f"flagflow.{module}")
        missing += [f"{layer}: flagflow.{module}.{name}" for name in functions
                    if not callable(getattr(home, name, None))]
    assert missing == []
