"""Run every benchmark command from this tree and dump what each one writes.

    python3 tools/dump_outputs.py DIR --seed N

For each workload of ``bench/workloads.py``, the commands of
``workloads.commands(workload, N)`` run in order, each in a fresh
``python3 -m flagflow.cli`` process with this tree's ``src`` on PYTHONPATH
and ``DIR/<workload>`` as working directory.  The ``EXTRA`` commands, which
the benchmark never runs (every Lyapunov row in every chart to t = 30, the
default four-row table to t = 500, both ambient systems, a compactified run,
the Ricci components and a grid-32 census),
run the same way in ``DIR/extra``.  The output files stay there;
``<out>.exit`` and ``<out>.stderr`` next to each hold the command's exit code
and its stderr.  ``diff -r`` of two dumps made from two trees with the same
seed shows whether any output changed.  Each command's peak resident set
size goes to stdout only, so that a dump holds outputs alone.  Nothing
under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/

import workloads  # noqa: E402


# (arguments, output file) of the commands dumped into DIR/extra
EXTRA = (
    (["lyapunov", "--lines", "1,2,3,4", "--charts", "1,2,3", "--t-max", "30"], "lyapunov.csv"),
    # the default table: chart 1 to t_max 500, every row a tolerance can move
    (["lyapunov", "--lines", "1,2,3,4"], "lyapunov_default.csv"),
    (["integrate", "--compactified", "--x0", "1.2,1.2,1.2", "--t-end", "20"],
     "integrate_compactified.csv"),
    (["integrate", "--system", "ricci", "--x0", "1,2,3", "--t-end", "1"], "integrate_ricci.csv"),
    (["ricci", "--metric", "1,2,1"], "ricci.csv"),
    (["infinity", "--grid", "32"], "infinity32.json"),
)


def _run_all(work: pathlib.Path, commands) -> None:
    """Run each (argv, out) in ``work``, which must not exist yet; print each peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work.mkdir(parents=True, exist_ok=False)
    for argv, out in commands:
        with open(work / f"{out}.stderr", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "flagflow.cli", *argv],
                                    cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps this child alone and returns its own rusage (ru_maxrss
        # in KiB on Linux); proc is told the exit code, so it waits no more
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        (work / f"{out}.exit").write_text(f"{proc.returncode}\n")
        print(f"{work.name}/{out}: exit {proc.returncode}, "
              f"peak RSS {usage.ru_maxrss / 1024:.1f} MB", flush=True)


def dump(out_dir: pathlib.Path, seed: int) -> None:
    for workload in workloads.WORKLOADS:
        _run_all(out_dir / workload,
                 [(c.argv, c.out) for c in workloads.commands(workload, seed)])
    _run_all(out_dir / "extra", [(argv + ["--out", out], out) for argv, out in EXTRA])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=pathlib.Path,
                        help="dump directory; its workload and extra folders must not exist yet")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    dump(args.dir, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
