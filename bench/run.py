"""Benchmark of the flagflow command line, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload basin_tubes --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

A repetition is one fresh, single-threaded Python process (worker.py) that
imports ``flagflow.cli`` from this checkout's ``src`` and runs the
workload's commands through ``flagflow.cli.run``, writing into a temporary
directory under ``bench/results``.  A run repeats the workload with the same
inputs until ``--seconds`` is used up (at least once), checks every output
and its exit code, and checks that every repetition wrote the same bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  ``setup_s`` and ``wall_s`` are in reference seconds:
each repetition's measured times are multiplied by the host speed the
worker sampled while they ran (speed.py), because the speed of a shared
virtual machine drifts by more than the bounds.  The measured times are
printed too, as ``setup_raw_s`` and ``wall_raw_s``, with ``host_speed``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (medians over the traced ones, measured times) plus
``trace.overhead_frac``, the traced median of ``wall_s`` over the untraced
one, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes ``bench/results/<workload>-seed<seed>-trace<0|1>.json`` with the
per-repetition values and the environment (Python and numpy versions,
nproc, CPU model, BLAS threads, seed); a traced run saves the spans of its
last traced repetition to ``bench/results/<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKER = os.path.join(BENCH, "worker.py")

# every BLAS and OpenMP pool in the worker is pinned to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REP_TIMEOUT_S = 120  # with a 45 s run, a hung repetition still ends the run within 180 s


class BenchError(Exception):
    """The benchmark itself could not run (not a failed command)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FLAGFLOW_SEED", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def run_repetition(cmds, trace: bool, spans_path: str | None = None) -> dict:
    """Run one worker process; return its record plus the bytes each command wrote."""
    os.makedirs(RESULTS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="rep-", dir=RESULTS)
    try:
        spec_path = os.path.join(work, "spec.json")
        record_path = os.path.join(work, "record.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC + os.sep, "trace": trace, "spans_path": spans_path,
                       "commands": [c.argv for c in cmds]}, fh)
        try:
            proc = subprocess.run([sys.executable, WORKER, spec_path, record_path], cwd=work,
                                  env=_worker_env(), capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a repetition took longer than {REP_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        outputs = {}
        for c in cmds:
            path = os.path.join(work, c.out)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    outputs[c.out] = fh.read()
        record["outputs"] = outputs
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _extras(workload: str, record: dict, wall_s: float) -> dict:
    """Workload-specific end-to-end values of one repetition."""
    if workload == "basin_tubes":
        samples = workloads.BASIN_SAMPLES * len(workloads.BASIN_LINES)
        return {"samples_per_s": samples / wall_s}
    if workload == "lyapunov_rays":
        rows = workloads.lyapunov_rows(record["outputs"]["lyapunov.csv"])
        flow_time = sum(float(r["t_used"]) for r in rows.values())
        return {"flow_time_per_s": flow_time / wall_s,
                "lyap_diag_err": workloads.lyapunov_diag_error(rows[2])}
    return {}


EXTRA_UNITS = {"setup_raw_s": "s", "wall_raw_s": "s", "host_speed": "ref",
               "samples_per_s": "1/s", "flow_time_per_s": "t/s", "lyap_diag_err": "1/t",
               "ops_failed_frac": "frac"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat one workload for ``seconds``; return its checked, aggregated result."""
    cmds = workloads.commands(workload, seed)
    spans_path = os.path.join(RESULTS, f"{workload}.spans.npz") if trace else None
    digests: dict = {}
    problems: list = []
    reps: list = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.monotonic()
        record = run_repetition(cmds, traced, spans_path if traced else None)
        longest = max(longest, time.monotonic() - began)
        if record.get("unwrapped"):
            raise BenchError(f"layer functions left unwrapped: {record['unwrapped']}")
        rep_failed = False
        for cmd, result in zip(cmds, record["commands"]):
            data = record["outputs"].get(cmd.out)
            if result["error"] is not None:
                found = [result["error"].strip().splitlines()[-1]]
            else:
                found = workloads.check(cmd, result["exit_code"], data)
                if found and result["messages"].strip():
                    found.append(f"{cmd.argv[0]} said: {result['messages'].strip()}")
            digest = None if data is None else hashlib.sha256(data).hexdigest()
            if digests.setdefault(cmd.out, digest) != digest:
                found.append(f"{cmd.out} differs from the first repetition's bytes")
            attempted += 1
            if found:
                failed += 1
                rep_failed = True
                problems.extend(f"repetition {len(reps) + 1}: {p}" for p in found)
        wall_raw_s = sum(r["seconds"] for r in record["commands"])
        host_speed = speed.speed(record["chunk_s"])
        wall_s = wall_raw_s * host_speed
        reps.append({
            "traced": traced,
            "setup_s": record["setup_s"] * speed.speed(record["setup_chunk_s"]),
            "wall_s": wall_s,
            "setup_raw_s": record["setup_s"],
            "wall_raw_s": wall_raw_s,
            "host_speed": host_speed,
            "peak_rss_mb": record["peak_rss_mb"],
            "bytes_out": sum(len(b) for b in record["outputs"].values()),
            "layers": record.get("layers"),
            **({} if rep_failed else _extras(workload, record, wall_s)),
        })
        if len(reps) >= (2 if trace else 1) and time.monotonic() + longest > deadline:
            break

    plain = [r for r in reps if not r["traced"]]
    median = statistics.median
    values = {}
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        for name in traced_reps[0]["layers"]:
            values[name] = median(r["layers"][name] for r in traced_reps)
        values["cli.bytes_out"] = median(r["bytes_out"] for r in traced_reps)
        values["trace.overhead_frac"] = (median(r["wall_s"] for r in traced_reps)
                                         / median(r["wall_s"] for r in plain) - 1.0)
    else:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "setup_raw_s", "wall_raw_s",
                     "host_speed", "samples_per_s", "flow_time_per_s", "lyap_diag_err"):
            got = [r[name] for r in plain if name in r]
            if got:
                values[name] = median(got)
        values["ops_failed_frac"] = failed / attempted
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "problems": problems,
        "repetitions": reps,
        "environment": {
            "python": record["python"],
            "numpy": record["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "blas_threads": {var: "1" for var in THREAD_VARS},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(workloads.WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    metric_list = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    units.update(EXTRA_UNITS)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    selected = names if args.workload == "all" else [args.workload]
    for workload in selected:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        missing = [m["name"] for m in metric_list if m["name"] not in result["values"]]
        if missing:
            print(f"bench: {workload}: no value for {missing}", file=sys.stderr)
            return 1
        result["why"] = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
        with open(os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)

        reps = result["repetitions"]
        print(f"{workload} seed {args.seed} trace {args.trace}: {len(reps)} repetitions, "
              f"{result['attempted']} commands, {result['failed']} failed")
        listed = [m["name"] for m in metric_list]
        extra = [name for name in result["values"] if name not in listed]
        for name in listed + extra:
            print(f"  {name:45s} {result['values'][name]:.6g} {units[name]}")
        for problem in result["problems"][:20]:
            print(f"bench: {workload}: {problem}", file=sys.stderr)

        prefix = f"{workload}." if args.workload == "all" else ""
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m in metric_list:
            summary["metrics"][prefix + m["name"]] = {"value": result["values"][m["name"]],
                                                      "unit": m["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
