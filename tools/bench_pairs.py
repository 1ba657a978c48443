"""Run the benchmark in alternating parent/change pairs from clean copies.

    python3 tools/bench_pairs.py PARENT OUT.json [--pairs 10] [--seed 1] [--seconds 20]

PARENT is a commit of this repository.  The parent side is a copy made by
``git archive PARENT``; the change side is a copy of this tree's tracked
files (``git ls-files``) as they are on disk, staged new files included.
Both copies are made once, in a temporary directory that is removed at the
end.  Before each run every ``__pycache__`` and the ``bench/results``
directory of the copy are removed, so each run starts from the sources
alone.

Pair k of every workload in BENCHMARK.json runs

    python3 bench/run.py --workload W --seed SEED+k --seconds T --trace 0

once in each copy, the parent first for even k and the change first for
odd k.  A run's values come from the result file it wrote in its own copy,
``bench/results/W-seed<seed>-trace0.json``; nothing is written under this
repository's ``bench/``.  A run that exits non-zero is kept with its exit
code and the tail of its stderr, and its pair is left out of the stats.

OUT gets the layout of the repository's ``BENCH_<n>.json`` files: per
workload, ``stats`` for every end-to-end metric of BENCHMARK.json and for
``ops_failed_frac`` (each side's q1/median/q3 over the runs' medians by
``statistics.quantiles(n=4, method='inclusive')``, ``change_better_pairs``,
``pairs`` and ``median_ratio``, change over parent), and ``runs`` with each
run's values and its shortest untraced repetition, ``min_wall_raw_s``.
The ``description`` states the method; edit it to say what the change is.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def make_copies(parent: str, workdir: pathlib.Path) -> dict:
    """The parent commit and this tree's tracked files, each in its own directory."""
    copies = {side: workdir / side for side in SIDES}
    for path in copies.values():
        path.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", parent))) as tar:
        tar.extractall(copies["parent"], filter="data")
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted on disk is left out
            dst = copies["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return copies


def _clean(copy: pathlib.Path) -> None:
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(copy / "bench" / "results", ignore_errors=True)


def run_once(copy: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``copy``, summarised from its result file."""
    _clean(copy)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    result_path = copy / "bench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    walls = [r["wall_raw_s"] for r in result["repetitions"] if not r["traced"]]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "repetitions": len(result["repetitions"]),
        "min_wall_raw_s": min(walls, default=None),
        "values": result["values"],
        "environment": result["environment"],
    }


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pair_stats(runs: list, metrics: list) -> dict:
    """Per metric: each side's quartiles, the pairs the change wins, the median ratio."""
    done = [r for r in runs if all("values" in r[side] for side in SIDES)]
    stats = {}
    for name, better in metrics:
        if not done:
            break
        got = {side: [r[side]["values"][name] for r in done] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(got["parent"], got["change"]))
        entry = {side: _quartiles(got[side]) for side in SIDES}
        parent_median = entry["parent"]["median"]
        entry.update(change_better_pairs=wins, pairs=len(done),
                     median_ratio=(entry["change"]["median"] / parent_median
                                   if parent_median else None))
        stats[name] = entry
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("out", type=pathlib.Path, help="the BENCH_<n>.json file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k uses seed + k")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    metrics.append(("ops_failed_frac", "lower"))
    parent = _git("rev-parse", "--short", args.parent).decode().strip()
    report = {
        "description": (
            f"Parent ({parent}, git archive) and change (this tree's tracked files) ran "
            f"back to back from clean copies, every __pycache__ removed before each run, "
            f"alternating which side ran first (even pair index: parent first), "
            f"{args.pairs} pairs per workload at seeds {args.seed}-{args.seed + args.pairs - 1}, "
            f"--seconds {args.seconds:g}; written by tools/bench_pairs.py. Quartiles: "
            f"statistics.quantiles(n=4, method='inclusive') over the runs' medians."),
        "command": (f"python3 bench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "parent_commit": parent,
        "environment": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        copies = make_copies(parent, pathlib.Path(workdir))
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(copies[side], workload, seed, args.seconds)
                for side in SIDES:
                    got = run[side]
                    env = got.pop("environment", None)
                    report["environment"] = report["environment"] or env
                    print(f"{workload} seed {seed} {side}: " + (
                        f"correct {got['correct']}, {got['failed']} failed, wall_s "
                        f"{got['values']['wall_s']:.4f}, peak_rss_mb "
                        f"{got['values']['peak_rss_mb']:.2f}"
                        if "values" in got else f"exit {got['exit_code']}"), flush=True)
                runs.append(run)
            report["workloads"][workload] = {"stats": pair_stats(runs, metrics), "runs": runs}
            for name, entry in report["workloads"][workload]["stats"].items():
                print(f"  {workload} {name}: parent {entry['parent']['median']:.6g}, change "
                      f"{entry['change']['median']:.6g}, change better in "
                      f"{entry['change_better_pairs']} of {entry['pairs']}", flush=True)

    if report["environment"] is not None:
        report["environment"]["PYTHONDONTWRITEBYTECODE"] = os.environ.get(
            "PYTHONDONTWRITEBYTECODE")
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
