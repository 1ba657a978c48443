"""Benchmark workloads: the CLI commands each one runs and the checks on their outputs.

Every workload is a list of ``Command``s run in order by one fresh process.
The commands write their results into that process's working directory,
and ``check`` inspects the written bytes with the standard library only, so
the checks do not depend on the code they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from typing import NamedTuple

# tube samples per line and process; 4 lines x 50 samples keep one process
# near 3 s, so a run holds about ten of them
BASIN_SAMPLES = 50
BASIN_LINES = (1, 2, 3, 4)

# the four invariant ray directions (1,t,1), (1,1,1), (1,1,t), (t,1,1), t = 2 + 2*sqrt(2)
_T = 2.0 + 2.0 * math.sqrt(2.0)
_RHO = math.sqrt(2.0 + _T * _T)
_S3 = 1.0 / math.sqrt(3.0)
RAY_DIRECTIONS = (
    (1.0 / _RHO, _T / _RHO, 1.0 / _RHO),
    (_S3, _S3, _S3),
    (1.0 / _RHO, 1.0 / _RHO, _T / _RHO),
    (_T / _RHO, 1.0 / _RHO, 1.0 / _RHO),
)
RAY_STABILITY = ("saddle", "attractor", "saddle", "saddle")

# the six mixed-sign equilibria at infinity: sign patterns of (a, b, b) with
# a^2 + 2 b^2 = 1, as found by the grid-48 census of the quadratic field
_A = 0.5054494651244236
_B = math.sqrt((1.0 - _A * _A) / 2.0)
MIXED_EQUILIBRIA = (
    ((_A, -_B, -_B), "attractor"),
    ((-_B, _A, -_B), "attractor"),
    ((-_B, -_B, _A), "attractor"),
    ((_B, -_A, _B), "repeller"),
    ((_B, _B, -_A), "repeller"),
    ((-_A, _B, _B), "repeller"),
)
CENSUS = tuple(zip(RAY_DIRECTIONS, RAY_STABILITY)) + MIXED_EQUILIBRIA

LYAPUNOV_DIAGONAL = (-5.0, -7.0, -7.0)  # exact linearisation at the diagonal attractor
LYAPUNOV_T_MAX = 500.0
BLOW_UP_TIME = 0.2  # on the diagonal x' = 5 x^2, so x(t) = 1 / (1 - 5 t) from (1,1,1)
BLOW_UP_RADIUS = 1e6  # the integrate command's default --blow-up-radius


class Command(NamedTuple):
    """One CLI invocation: its arguments, the file it writes and its expected exit code."""

    argv: list
    out: str
    exit_code: int


def _fmt(v: float) -> str:
    return repr(float(v))


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one workload process; the same seed gives the same commands."""
    if workload == "basin_tubes":
        return [
            Command(["basin", "--line", str(line), "--epsilon", "0.05", "--delta", "0.6",
                     "--samples", str(BASIN_SAMPLES), "--seed", str(seed),
                     "--out", f"basin{line}.json"], f"basin{line}.json", 0)
            for line in BASIN_LINES
        ]
    if workload == "lyapunov_rays":
        # deterministic: the seed is recorded but unused.  Line 4 runs to
        # t_max without converging, the documented exit-2 outcome.
        return [Command(["lyapunov", "--lines", "2,4", "--charts", "1", "--renorm-dt", "0.1",
                         "--t-max", _fmt(LYAPUNOV_T_MAX), "--out", "lyapunov.csv"],
                        "lyapunov.csv", 2)]
    if workload == "census_verify":
        rng = random.Random(seed)
        starts = [tuple(2.0 * v for v in d) for d in RAY_DIRECTIONS]
        starts += [tuple(rng.uniform(0.5, 3.0) for _ in range(3)) for _ in range(2)]
        plot = ["plot"]
        for x0 in starts:
            plot += ["--x0", ",".join(_fmt(v) for v in x0)]
        return [
            Command(["infinity", "--out", "infinity48.json"], "infinity48.json", 0),
            Command(["infinity", "--grid", "128", "--out", "infinity128.json"],
                    "infinity128.json", 0),
            Command(["verify", "--seed", str(seed), "--out", "verify.txt"], "verify.txt", 0),
            Command(plot + ["--out", "portrait.svg"], "portrait.svg", 0),
            Command(["integrate", "--system", "poly", "--x0", "1,1,1", "--t-end", "1",
                     "--out", "blowup.csv"], "blowup.csv", 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("basin_tubes", "lyapunov_rays", "census_verify")


def _dist(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _check_census(data: bytes) -> list[str]:
    payload = json.loads(data)
    eqs = payload["equilibria"]
    problems = []
    if len(eqs) != 10:
        problems.append(f"census has {len(eqs)} equilibria, expected 10")
    octant = [e for e in eqs if e["first_octant"]]
    if len(octant) != 4:
        problems.append(f"{len(octant)} equilibria in the first octant, expected 4")
    for direction, stability in CENSUS:
        match = [e for e in eqs if _dist(e["direction"], direction) <= 1e-9]
        if len(match) != 1:
            problems.append(f"direction {direction} found {len(match)} times")
        elif match[0]["stability"] != stability:
            problems.append(f"direction {direction} is {match[0]['stability']}, "
                            f"expected {stability}")
    return problems


def _check_verify(data: bytes) -> list[str]:
    lines = data.decode().splitlines()
    names = [line.split(":")[0] for line in lines]
    expected = ["PASS lines", "PASS einstein", "PASS reparam", "PASS no-equilibria"]
    return [] if names == expected else [f"verify reported {names}"]


def _check_svg(data: bytes, n_starts: int) -> list[str]:
    root = ET.fromstring(data)
    polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(polylines) != n_starts:
        return [f"portrait has {len(polylines)} trajectories, expected {n_starts}"]
    return []


def _check_blow_up(data: bytes) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    t_last = float(rows[-1][0])
    x_last = max(abs(float(v)) for v in rows[-1][1:])
    if (rows[0] != ["t", "x1", "x2", "x3"] or abs(t_last - BLOW_UP_TIME) > 1e-3
            or x_last < 0.9 * BLOW_UP_RADIUS):
        return [f"run ended at t = {t_last} with |x| = {x_last}, expected the blow-up "
                f"event (|x| near {BLOW_UP_RADIUS}) at t = {BLOW_UP_TIME} +- 1e-3"]
    return []


def lyapunov_rows(data: bytes) -> dict:
    """Rows of the lyapunov CSV keyed by line number."""
    rows = csv.DictReader(io.StringIO(data.decode()))
    return {int(r["line"]): r for r in rows}


def lyapunov_diag_error(row: dict) -> float:
    """max_i |lambda_i - (-5, -7, -7)| for the diagonal ray's row."""
    lam = [float(row[f"lambda{i}"]) for i in (1, 2, 3)]
    return max(abs(a - b) for a, b in zip(lam, LYAPUNOV_DIAGONAL))


def _check_lyapunov(data: bytes) -> list[str]:
    rows = lyapunov_rows(data)
    problems = []
    if sorted(rows) != [2, 4]:
        return [f"lyapunov rows for lines {sorted(rows)}, expected [2, 4]"]
    diag = rows[2]
    if diag["converged"] != "true" or lyapunov_diag_error(diag) > 1e-2:
        problems.append(f"line 2 row {diag} is not within 1e-2 of {LYAPUNOV_DIAGONAL}")
    saddle = rows[4]
    if saddle["converged"] != "false" or abs(float(saddle["t_used"]) - LYAPUNOV_T_MAX) > 1e-6:
        problems.append(f"line 4 row {saddle} did not run to t_max {LYAPUNOV_T_MAX}")
    return problems


def _check_basin(data: bytes, line: int) -> list[str]:
    report = json.loads(data)
    problems = []
    if report["line"] != line or len(report["records"]) != BASIN_SAMPLES:
        problems.append(f"basin report for line {report['line']} with "
                        f"{len(report['records'])} records")
    if line == 2 and not (report["converged_fraction"] == 1.0
                          and report["max_line_deviation"] < 0.05):
        problems.append(f"diagonal tube: converged_fraction {report['converged_fraction']}, "
                        f"max_line_deviation {report['max_line_deviation']}")
    directions = [d for d, _ in CENSUS]
    for r in report["records"]:
        if (r["termination"] != "converged_to_point"
                or min(_dist(r["end"], d) for d in directions) > 1e-3):
            problems.append(f"line {line} sample {r['index']} ended at {r['end']} "
                            f"({r['termination']}), not at a census direction")
    return problems


def check(command: Command, exit_code, data: bytes | None) -> list[str]:
    """Problems with one command's exit code and output; empty when it is correct."""
    if exit_code != command.exit_code:
        return [f"{command.argv[0]} exited {exit_code}, expected {command.exit_code}"]
    if data is None:
        return [f"{command.argv[0]} wrote no {command.out}"]
    try:
        if command.out.startswith("infinity"):
            return _check_census(data)
        if command.out == "verify.txt":
            return _check_verify(data)
        if command.out == "portrait.svg":
            return _check_svg(data, command.argv.count("--x0"))
        if command.out == "blowup.csv":
            return _check_blow_up(data)
        if command.out == "lyapunov.csv":
            return _check_lyapunov(data)
        if command.out.startswith("basin"):
            return _check_basin(data, int(command.argv[command.argv.index("--line") + 1]))
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"{command.out} is malformed: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check for {command.out}")
