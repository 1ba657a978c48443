"""One repetition of a workload, in a fresh process started by run.py.

Usage: python3 worker.py SPEC.json RECORD.json

SPEC holds the commands (CLI argument lists), whether to trace, and where
to save the spans.  The worker times the import of ``flagflow.cli``, then
runs each command through ``flagflow.cli.run`` in its working directory,
and writes per-command exit codes and times, peak memory and, when traced,
the per-layer metrics to RECORD.  It also samples the host's speed (see
speed.py): probe chunks just before and after the import, and a timer
sample every 0.2 s while the commands run.  Each command's time excludes
the samples taken during it.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import speed

SETUP_PROBES = 10  # probe chunks on each side of the import


def main(spec_path: str, record_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    setup_chunk_s = [speed.probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import flagflow.cli
    setup_s = time.perf_counter() - t0
    setup_chunk_s += [speed.probe() for _ in range(SETUP_PROBES)]
    if not flagflow.cli.__file__.startswith(spec["src"]):
        sys.exit(f"flagflow was imported from {flagflow.cli.__file__}, not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    sampler = speed.SpeedSampler()
    sampler.start()
    results = []
    for argv in spec["commands"]:
        sink = io.StringIO()
        error = None
        spent_before = sampler.spent_s
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exit_code = flagflow.cli.run(argv)
        except Exception:
            exit_code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start - (sampler.spent_s - spent_before)
        results.append({"exit_code": exit_code, "seconds": seconds,
                        "messages": sink.getvalue(), "error": error})
    sampler.stop()

    import numpy
    import platform

    record = {
        "setup_s": setup_s,
        "setup_chunk_s": setup_chunk_s,
        "chunk_s": sampler.chunk_s,
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["unwrapped"] = tracer.unwrapped_bindings()
        if spec.get("spans_path"):
            tracer.save(spec["spans_path"])
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
