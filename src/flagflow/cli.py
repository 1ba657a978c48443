"""Command-line front end: every analysis behind stable, scriptable output.

Subcommands: ricci, integrate, infinity, lyapunov, verify, basin, plot.
Global flags (--out, --format, --seed, --config) come before the
subcommand.  Values resolve as: explicit flags, then config-file entries,
then built-in defaults; the seed additionally falls back to the
FLAGFLOW_SEED environment variable.  Config files are plain
``key = value`` lines with ``#`` comments; unknown keys are errors.

Exit codes: 0 success, 1 invalid arguments or config, 2 numerical
failure (step-size collapse, blow-up, non-convergence), 3 verification
failure (a check ran and the property did not hold).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import compactify as cpt
from . import experiments, model
from .dynamics import (
    MAX_LYAPUNOV_SEGMENTS,
    IntegratorConfig,
    integrate_compactified,
    integrate_with_events,
    ricci_field,
)
from .svgplot import ball_portrait_svg

__all__ = ["run", "main"]

SCHEMA_VERSION = 1

_T_EXACT = model.invariant_ray_parameter()
_EXACT_CONSTANTS = {
    2: 5.0 / 12.0,  # diagonal direction
    1: (2.0 - math.sqrt(2.0)) / 6.0,  # (1, t, 1)-type directions
}


class _CliError(Exception):
    """Invalid arguments or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_triple(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise _CliError(f"expected three comma-separated decimals, got {text!r}")
    try:
        triple = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise _CliError(f"bad coordinate triple {text!r}: {exc}") from None
    if not np.all(np.isfinite(triple)):
        raise _CliError(f"coordinates must be finite, got {text!r}")
    return triple


def _positive_finite(flag: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise _CliError(f"{flag} must be a positive finite number, got {value!r}")
    return value


def _nonnegative_finite(flag: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise _CliError(f"{flag} must be a non-negative finite number, got {value!r}")
    return value


def _parse_lines(text: str) -> list[int]:
    try:
        lines = [int(p) for p in text.split(",")]
    except ValueError:
        raise _CliError(f"bad line list {text!r}") from None
    if not lines or any(j not in (1, 2, 3, 4) for j in lines):
        raise _CliError("line indices must be in 1..4")
    return lines


_FORMATS = ("csv", "json")
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_format(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(value)
    return value


# per-command config keys and casters, which reject a value by raising
# KeyError or ValueError; global keys apply everywhere
_GLOBAL_KEYS = {"out": str, "format": _config_format, "seed": int}
_COMMAND_KEYS = {
    "ricci": {"metric": str},
    "integrate": {"system": str, "x0": str, "t_end": float,
                  "compactified": lambda v: _BOOL_WORDS[v.lower()],
                  "rel_tol": float, "abs_tol": float, "max_step": float,
                  "min_step": float, "blow_up_radius": float},
    "infinity": {"grid": int, "seed_box": float},
    "lyapunov": {"lines": str, "charts": str, "renorm_dt": float, "t_max": float},
    "verify": {"checks": str, "tangency_tol": float, "einstein_tol": float,
               "reparam_tol": float, "scan_resolution": int},
    "basin": {"line": int, "epsilon": float, "delta": float, "samples": int},
    "plot": {"x0": str, "t_end": float},
}


def _load_config(path: str, command: str) -> dict:
    allowed = dict(_GLOBAL_KEYS)
    allowed.update(_COMMAND_KEYS[command])
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in allowed:
            raise _CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = allowed[key](value)
        except (KeyError, ValueError):
            raise _CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return values


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _resolve_seed(args, config) -> int:
    value = _resolve(args, config, "seed", None)
    if value is not None:
        return int(value)
    env = os.environ.get("FLAGFLOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _CliError(f"FLAGFLOW_SEED must be an integer, got {env!r}") from None
    return 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=_FORMATS,
                        help="output format where a command supports both")
    common.add_argument("--seed", type=int, help="seed for randomized commands")
    common.add_argument("--config", help="key = value config file")

    parser = _Parser(prog="flagflow", description=__doc__, parents=[common],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_command("ricci", help="Ricci tensor components of an invariant metric",
                    description="Evaluate the three Ricci components of the metric "
                                "(l12, l13, l23) on the flag manifold SU(3)/T.")
    p.add_argument("--metric", help="metric triple a,b,c (all positive)")

    p = add_command("integrate",
                       help="integrate the metric flow or its quadratic form, "
                            "ambient or compactified",
                       description="Integrate the Ricci flow system (system 'ricci'), its "
                                   "quadratic polynomial form (system 'poly'), or the "
                                   "Poincare-compactified quadratic field "
                                   "(--compactified); writes a CSV trajectory.")
    p.add_argument("--system", choices=("ricci", "poly"))
    p.add_argument("--x0", help="initial point a,b,c")
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--compactified", action="store_true", default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--max-step", dest="max_step", type=float)
    p.add_argument("--min-step", dest="min_step", type=float)
    p.add_argument("--blow-up-radius", dest="blow_up_radius", type=float)

    p = add_command("infinity",
                       help="equilibria at infinity of the compactified field",
                       description="Locate the singularities at infinity of the quadratic "
                                   "system on the Poincare sphere's equator, classify "
                                   "their stability, and report them as JSON.")
    p.add_argument("--grid", type=int, help="Newton seed grid resolution per chart")
    p.add_argument("--seed-box", dest="seed_box", type=float)

    p = add_command("lyapunov",
                       help="Lyapunov exponents along the four invariant rays",
                       description="Benettin Lyapunov spectra of the compactified flow "
                                   "along the invariant rays, per affine chart; CSV "
                                   "columns line,chart,lambda1,lambda2,lambda3,"
                                   "t_used,converged.")
    p.add_argument("--lines", help="comma-separated subset of 1,2,3,4")
    p.add_argument("--charts", help="comma-separated subset of 1,2,3")
    p.add_argument("--renorm-dt", dest="renorm_dt", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)

    p = add_command("verify",
                       help="algebraic verifications: invariant rays, Einstein "
                            "residuals, rescaling identity, octant scan",
                       description="Check that the four rays are invariant lines of the "
                                   "quadratic field, that their directions are Einstein "
                                   "metrics with the exact constants, that the quadratic "
                                   "form equals 12*l12*l13*l23 times the Ricci "
                                   "components, and that the field has no zero on the "
                                   "closed first-octant unit sphere.")
    p.add_argument("--checks", help="comma-separated subset of "
                                    "lines,einstein,reparam,no-equilibria")
    p.add_argument("--lines", action="store_true", default=None,
                   help="only the invariant-line tangency check")
    p.add_argument("--einstein", action="store_true", default=None,
                   help="only the Einstein residual check")
    p.add_argument("--reparam", action="store_true", default=None,
                   help="only the rescaling identity check")
    p.add_argument("--no-equilibria", dest="no_equilibria", action="store_true",
                   default=None, help="only the octant scan check")
    p.add_argument("--tangency-tol", dest="tangency_tol", type=float)
    p.add_argument("--einstein-tol", dest="einstein_tol", type=float)
    p.add_argument("--reparam-tol", dest="reparam_tol", type=float)
    p.add_argument("--scan-resolution", dest="scan_resolution", type=int)

    p = add_command("basin",
                       help="cylinder-of-initial-conditions experiment around a ray",
                       description="Sample a tube of initial metrics around one invariant "
                                   "ray and report which fraction of compactified "
                                   "trajectories terminates at the ray's equilibrium at "
                                   "infinity (JSON report).")
    p.add_argument("--line", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--samples", type=int)

    p = add_command("plot",
                       help="static SVG portrait of the Poincare ball",
                       description="Render the unit-ball picture: equilibria at infinity "
                                   "as stability-coded markers plus selected compactified "
                                   "trajectories.")
    p.add_argument("--x0", action="append", help="initial point a,b,c (repeatable)")
    p.add_argument("--t-end", dest="t_end", type=float)

    return parser


def _cmd_ricci(args, config, out, fmt) -> int:
    metric_text = _resolve(args, config, "metric", None)
    if metric_text is None:
        raise _CliError("ricci requires --metric a,b,c")
    triple = _parse_triple(metric_text)
    try:
        r = model.ricci_components(triple)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    if not all(math.isfinite(v) for v in r):
        raise FloatingPointError(f"Ricci components of {metric_text} are not finite: "
                                 + ",".join(_fmt(v) for v in r))
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metric": {"l12": triple[0], "l13": triple[1], "l23": triple[2]},
            "ricci": {"r12": r.r12, "r13": r.r13, "r23": r.r23},
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        _emit("r12,r13,r23\n" + ",".join(_fmt(v) for v in r) + "\n", out)
    return 0


def _trajectory_csv(traj) -> str:
    lines = []
    if traj.chart_ids is None:
        lines.append("t,x1,x2,x3")
        for t, x in zip(traj.times, traj.states):
            lines.append(",".join([_fmt(t)] + [_fmt(v) for v in x]))
    else:
        lines.append("t,x1,x2,x3,chart,z1,z2,z3")
        for t, x, c, z in zip(traj.times, traj.states, traj.chart_ids, traj.chart_states):
            lines.append(",".join([_fmt(t)] + [_fmt(v) for v in x]
                                  + [cpt.CHART_NAMES[c]] + [_fmt(v) for v in z]))
    return "\n".join(lines) + "\n"


def _cmd_integrate(args, config, out, fmt) -> int:
    system = _resolve(args, config, "system", "poly")
    if system not in ("ricci", "poly"):
        raise _CliError("--system must be 'ricci' or 'poly'")
    x0_text = _resolve(args, config, "x0", None)
    if x0_text is None:
        raise _CliError("integrate requires --x0 a,b,c")
    x0 = _parse_triple(x0_text)
    compactified = bool(_resolve(args, config, "compactified", False))
    if system == "ricci" and np.any(x0 <= 0.0):
        raise _CliError("zero or negative coordinates are only allowed for --system poly")
    if system == "ricci" and compactified:
        raise _CliError("--compactified applies to the polynomial system only")
    try:
        cfg = IntegratorConfig(
            rel_tol=_resolve(args, config, "rel_tol", 1e-9),
            abs_tol=_resolve(args, config, "abs_tol", 1e-12),
            max_step=_resolve(args, config, "max_step", 0.5),
            t_end=_resolve(args, config, "t_end", 10.0),
            min_step=_resolve(args, config, "min_step", 1e-12),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    radius = _resolve(args, config, "blow_up_radius", None)
    if compactified and radius is not None:
        raise _CliError("--blow-up-radius does not apply to --compactified runs")
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise _CliError("--blow-up-radius must be positive and finite")

    if compactified:
        traj = integrate_compactified(cpt.model_poly_field(), x0, cfg)
    else:
        field = ricci_field() if system == "ricci" else model.poly_rhs
        traj = integrate_with_events(field, x0, cfg,
                                     blow_up_radius=1e6 if radius is None else radius)
    _emit(_trajectory_csv(traj), out)
    if traj.termination in ("blow_up_event", "step_size_collapse"):
        print(f"flagflow integrate: terminated by {traj.termination} at "
              f"t = {traj.final_time:.9g}", file=sys.stderr)
        return 2
    return 0


def _cmd_infinity(args, config, out, fmt) -> int:
    try:
        cfg = cpt.SearchConfig(
            grid_resolution=_resolve(args, config, "grid", 48),
            seed_box=_resolve(args, config, "seed_box", 8.0),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    eqs = cpt.find_infinity_equilibria(cpt.model_poly_field(), cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "equilibria": [
            {
                "chart": cpt.CHART_NAMES[e.chart],
                "z": [float(v) for v in e.z],
                "direction": [float(v) for v in e.direction],
                "eigenvalues": [{"re": float(ev.real), "im": float(ev.imag)}
                                for ev in e.eigenvalues],
                "stability": e.stability,
                "first_octant": e.first_octant,
            }
            for e in eqs
        ],
    }
    _emit(json.dumps(payload, indent=2) + "\n", out)
    return 0


def _cmd_lyapunov(args, config, out, fmt) -> int:
    lines = _parse_lines(_resolve(args, config, "lines", "1,2,3,4"))
    charts_text = _resolve(args, config, "charts", "1")
    try:
        charts = [int(c) for c in charts_text.split(",")]
    except ValueError:
        raise _CliError(f"bad chart list {charts_text!r}") from None
    if any(c not in (1, 2, 3) for c in charts):
        raise _CliError("chart indices must be in 1..3")
    renorm_dt = _positive_finite("--renorm-dt", _resolve(args, config, "renorm_dt", 0.1))
    t_max = _positive_finite("--t-max", _resolve(args, config, "t_max", 500.0))
    if t_max / renorm_dt > MAX_LYAPUNOV_SEGMENTS:
        raise _CliError(f"--t-max / --renorm-dt must not exceed {MAX_LYAPUNOV_SEGMENTS} "
                        "renormalisation segments")
    table = experiments.lyapunov_exponent_table(lines=lines, charts=charts,
                                                renorm_dt=renorm_dt, t_max=t_max)
    rows = ["line,chart,lambda1,lambda2,lambda3,t_used,converged"]
    for r in table.rows:
        rows.append(",".join([str(r.line), cpt.CHART_NAMES[r.chart]]
                             + [_fmt(v) for v in r.exponents]
                             + [_fmt(r.t_used), str(r.converged).lower()]))
    _emit("\n".join(rows) + "\n", out)
    if not all(r.converged for r in table.rows):
        bad = [f"line {r.line} chart {cpt.CHART_NAMES[r.chart]}"
               for r in table.rows if not r.converged]
        print(f"flagflow lyapunov: no convergence for {', '.join(bad)}", file=sys.stderr)
        return 2
    return 0


def _verify_checks(args, config, seed):
    selected = []
    explicit = {
        "lines": getattr(args, "lines", None),
        "einstein": getattr(args, "einstein", None),
        "reparam": getattr(args, "reparam", None),
        "no-equilibria": getattr(args, "no_equilibria", None),
    }
    checks_text = _resolve(args, config, "checks", None)
    if checks_text:
        for name in checks_text.split(","):
            name = name.strip()
            if name not in ("lines", "einstein", "reparam", "no-equilibria"):
                raise _CliError(f"unknown check {name!r}")
            selected.append(name)
    selected.extend(name for name, flag in explicit.items() if flag)
    if not selected:
        selected = ["lines", "einstein", "reparam", "no-equilibria"]
    # dedupe, keep order
    seen = set()
    selected = [s for s in selected if not (s in seen or seen.add(s))]

    tangency_tol = _nonnegative_finite("--tangency-tol",
                                       _resolve(args, config, "tangency_tol", 1e-13))
    einstein_tol = _nonnegative_finite("--einstein-tol",
                                       _resolve(args, config, "einstein_tol", 1e-12))
    reparam_tol = _nonnegative_finite("--reparam-tol",
                                      _resolve(args, config, "reparam_tol", 1e-10))
    resolution = _resolve(args, config, "scan_resolution", 400)
    lo, hi = experiments.MIN_SCAN_RESOLUTION, experiments.MAX_SCAN_RESOLUTION
    if not lo <= resolution <= hi:
        raise _CliError(f"--scan-resolution must lie in [{lo}, {hi}], got {resolution}")

    results = []
    dirs = model.invariant_directions()
    if "lines" in selected:
        worst = max(model.tangency_defect(d) for d in dirs)
        results.append(("lines", worst <= tangency_tol, worst, tangency_tol,
                        "max tangency defect over the four ray directions"))
    if "einstein" in selected:
        worst = 0.0
        for j, d in enumerate(dirs, start=1):
            c, res = model.einstein_residual(d)
            worst = max(worst, res)
        c_diag, _ = model.einstein_residual((1.0, 1.0, 1.0))
        c_t, _ = model.einstein_residual((1.0, _T_EXACT, 1.0))
        const_err = max(abs(c_diag - _EXACT_CONSTANTS[2]), abs(c_t - _EXACT_CONSTANTS[1]))
        ok = worst <= einstein_tol and const_err <= einstein_tol
        results.append(("einstein", ok, max(worst, const_err), einstein_tol,
                        "max Einstein residual and constant error on the rays"))
    if "reparam" in selected:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(1000):
            m = rng.uniform(0.1, 5.0, size=3)
            lhs = model.poly_rhs(m)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            worst = max(worst, model.reparam_check(m) / scale)
        results.append(("reparam", worst <= reparam_tol, worst, reparam_tol,
                        "max relative defect of poly == 12*l12*l13*l23*ricci"))
    if "no-equilibria" in selected:
        min_norm = experiments.no_interior_equilibria_scan(resolution)
        diag = np.ones(3) / math.sqrt(3.0)
        spot1 = abs(float(np.linalg.norm(model.poly_rhs(diag))) - 5.0 / math.sqrt(3.0))
        spot2 = abs(float(np.linalg.norm(model.poly_rhs((1.0, 0.0, 0.0)))) - math.sqrt(3.0))
        ok = min_norm > 0.0 and spot1 <= 1e-12 and spot2 <= 1e-12
        results.append(("no-equilibria", ok, min_norm, 0.0,
                        "octant-sphere minimum of |poly| (must be > 0)"))
    return results


def _cmd_verify(args, config, out, fmt, seed) -> int:
    results = _verify_checks(args, config, seed)
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "checks": [
                {"name": n, "passed": ok, "value": v, "threshold": tol, "detail": detail}
                for n, ok, v, tol, detail in results
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    else:
        text = []
        for n, ok, v, tol, detail in results:
            status = "PASS" if ok else "FAIL"
            text.append(f"{status} {n}: {detail}: value {_fmt(v)} (threshold {_fmt(tol)})")
        _emit("\n".join(text) + "\n", out)
    return 0 if all(ok for _, ok, _, _, _ in results) else 3


def _cmd_basin(args, config, out, fmt, seed) -> int:
    line = _resolve(args, config, "line", None)
    if line is None:
        raise _CliError("basin requires --line")
    epsilon = _resolve(args, config, "epsilon", 0.05)
    delta = _resolve(args, config, "delta", 0.6)
    samples = _resolve(args, config, "samples", 200)
    try:
        report = experiments.cylinder_basin(int(line), float(epsilon), float(delta),
                                            int(samples), seed)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report.to_dict())
    _emit(json.dumps(payload, indent=2) + "\n", out)
    return 0


def _cmd_plot(args, config, out, fmt) -> int:
    x0_texts = getattr(args, "x0", None) or config.get("x0", None)
    if isinstance(x0_texts, str):
        x0_texts = [x0_texts]
    if not x0_texts:
        starts = [2.0 * d for d in model.invariant_directions()]
        starts.append(np.array([1.3, 1.1, 1.6]))
        starts.append(np.array([0.9, 2.4, 0.7]))
    else:
        starts = [_parse_triple(t) for t in x0_texts]
    try:
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11, max_step=0.25,
                               t_end=_resolve(args, config, "t_end", 30.0))
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    field = cpt.model_poly_field()
    eqs = cpt.find_infinity_equilibria(field)
    targets = [e.direction for e in eqs]
    trajectories = []
    for x0 in starts:
        traj = integrate_compactified(field, x0, cfg, targets=targets,
                                      convergence_radius=1e-5)
        trajectories.append(traj.states)
    _emit(ball_portrait_svg(eqs, trajectories), out)
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config, args.command) if args.config else {}
        out = args.out if args.out is not None else config.get("out")
        fmt = args.format if args.format is not None else config.get("format", "csv")
        seed = _resolve_seed(args, config)
        if args.command == "ricci":
            return _cmd_ricci(args, config, out, fmt)
        if args.command == "integrate":
            return _cmd_integrate(args, config, out, fmt)
        if args.command == "infinity":
            return _cmd_infinity(args, config, out, fmt)
        if args.command == "lyapunov":
            return _cmd_lyapunov(args, config, out, fmt)
        if args.command == "verify":
            return _cmd_verify(args, config, out, fmt, seed)
        if args.command == "basin":
            return _cmd_basin(args, config, out, fmt, seed)
        if args.command == "plot":
            return _cmd_plot(args, config, out, fmt)
        raise _CliError(f"unknown command {args.command!r}")
    except _CliError as exc:
        print(f"flagflow: error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"flagflow: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
