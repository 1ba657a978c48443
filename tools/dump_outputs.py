"""Run every benchmark command from this tree and dump what each one writes.

    python3 tools/dump_outputs.py DIR --seed N

For each workload of ``bench/workloads.py``, the commands of
``workloads.commands(workload, N)`` run in order, each in a fresh
``python3 -m flagflow.cli`` process with this tree's ``src`` on PYTHONPATH
and ``DIR/<workload>`` as working directory.  The output files stay there;
``<out>.exit`` and ``<out>.stderr`` next to each hold the command's exit code
and its stderr.  ``diff -r`` of two dumps made from two trees with the same
seed shows whether any output changed.  Nothing under ``bench/`` is written.
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


def dump(out_dir: pathlib.Path, seed: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload in workloads.WORKLOADS:
        work = out_dir / workload
        work.mkdir(parents=True, exist_ok=False)
        for command in workloads.commands(workload, seed):
            proc = subprocess.run([sys.executable, "-m", "flagflow.cli", *command.argv],
                                  cwd=work, env=env, capture_output=True, text=True)
            (work / f"{command.out}.exit").write_text(f"{proc.returncode}\n")
            (work / f"{command.out}.stderr").write_text(proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=pathlib.Path,
                        help="dump directory; its workload folders must not exist yet")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    dump(args.dir, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
