"""Command-line front end: every analysis behind stable, scriptable output.

Subcommands: ricci, integrate, infinity, lyapunov, verify, basin, plot.
Global flags (--out, --format, --seed, --config) may come before or after
the subcommand; a value given after it wins; a --format the command
cannot write is an error.  Flags are spelled in full, exactly like their
config keys.  Values resolve as: explicit flags, then config-file
entries, then built-in defaults; the seed
additionally falls back to the FLAGFLOW_SEED environment variable.  Config
files are plain ``key = value`` lines with ``#`` comments; unknown keys are
errors.

Exit codes: 0 success, 1 invalid arguments or config, 2 numerical
failure (step-size collapse, blow-up, non-convergence), 3 verification
failure (a check ran and the property did not hold).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import compactify as cpt
from . import experiments, model
from .dynamics import IntegratorConfig, integrate_compactified, integrate_with_events, ricci_field
from .svgplot import ball_portrait_svg

__all__ = ["run", "main"]

SCHEMA_VERSION = 1

_T_EXACT = model.invariant_ray_parameter()
_EXACT_CONSTANTS = {
    2: 5.0 / 12.0,  # diagonal direction
    1: (2.0 - math.sqrt(2.0)) / 6.0,  # (1, t, 1)-type directions
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json(payload: dict) -> str:
    """A JSON document: the schema version first, then ``payload``."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2) + "\n"


# Option casts: each turns a flag or config value into the option's value
# and raises ValueError to reject it.  A store_true flag arrives as True.

def _triple(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated decimals")
    triple = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(triple)):
        raise ValueError("coordinates must be finite")
    return triple


def _triples(texts) -> list[np.ndarray]:
    # repeated flags give a list, a config entry one string
    return [_triple(t) for t in ([texts] if isinstance(texts, str) else texts)]


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("must be a positive finite number")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _indices(n: int) -> Callable[[str], list[int]]:
    def cast(text: str) -> list[int]:
        values = [int(p) for p in text.split(",")]
        if any(j not in range(1, n + 1) for j in values):
            raise ValueError(f"indices must be in 1..{n}")
        if len(set(values)) < len(values):
            raise ValueError("indices must not repeat")
        return values
    return cast


_CHECKS = ("lines", "einstein", "reparam", "no-equilibria")

# verify's pass thresholds and octant scan resolution
_TANGENCY_TOL = 1e-13
_EINSTEIN_TOL = 1e-12
_REPARAM_TOL = 1e-10
_SCAN_RESOLUTION = 400


def _checks(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",")] if text else []
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
    return names


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _boolean(text) -> bool:
    try:
        return _BOOL_WORDS[str(text).lower()]
    except KeyError:
        raise ValueError("expected 1/0, true/false, yes/no or on/off") from None


_REQUIRED = object()  # default of an option the command cannot run without


def _opt(cast=str, default=None, help=None, **kwargs) -> tuple:
    """One option-table row: (cast, default, add_argument keywords).

    The row's key names both the flag (``--`` plus the key with ``-`` for
    ``_``) and the config-file key.  ``cast`` applies to flag, config and
    environment values alike; the default is used as is.  Config values
    must meet ``choices`` too.
    """
    return cast, default, dict(kwargs, help=help)


_GLOBALS = {
    "out": _opt(help="write output to this path instead of stdout"),
    "format": _opt(str, "csv", "output format of ricci and verify; a command that "
                   "writes one format rejects any other", choices=("csv", "json")),
    "seed": _opt(_seed, 0, "seed for randomized commands"),
}


def _options(args) -> dict:
    """Resolve every option of ``args.command`` in one pass.

    Every config entry and flag is cast and checked, and the last one
    given for a key wins: config entries in file order, then flags.  The
    seed falls back to FLAGFLOW_SEED, and an option no source gives takes
    its table default.
    """
    command = _COMMANDS[args.command]
    table = {**_GLOBALS, **command.options}
    given = []  # (key, where the value came from, raw value)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(raw.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in table:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            given.append((key, f"{path}:{lineno}: {key}", value.strip()))
    given += [(key, "--" + key.replace("_", "-"), value)
              for key, value in vars(args).items() if key in table]
    if "FLAGFLOW_SEED" in os.environ and all(key != "seed" for key, _, _ in given):
        given.append(("seed", "FLAGFLOW_SEED", os.environ["FLAGFLOW_SEED"]))

    opts, sources = {}, {}
    for key, where, raw in given:
        sources[key] = where
        cast, _, kwargs = table[key]
        try:
            opts[key] = cast(raw)
            choices = kwargs.get("choices")
            if choices and opts[key] not in choices:
                raise ValueError(f"must be one of {', '.join(choices)}")
        except ValueError as exc:
            raise ValueError(f"{where}: bad value {raw!r} ({exc})") from None
    if "format" in sources and opts["format"] not in command.formats:
        raise ValueError(f"{sources['format']}: {args.command} writes "
                         f"{' or '.join(command.formats)} only, not {opts['format']}")
    for key, (_, default, _) in table.items():
        if key not in opts:
            if default is _REQUIRED:
                raise ValueError(f"{args.command} requires --{key.replace('_', '-')}")
            opts[key] = default
    return opts


def _cmd_ricci(opts) -> tuple[str, int]:
    triple = opts["metric"]
    r = model.ricci_components(triple)
    if not all(math.isfinite(v) for v in r):
        raise FloatingPointError(f"Ricci components of {tuple(triple.tolist())} are not "
                                 "finite: " + ",".join(_fmt(v) for v in r))
    if opts["format"] == "json":
        return _json({"metric": {"l12": triple[0], "l13": triple[1], "l23": triple[2]},
                      "ricci": {"r12": r.r12, "r13": r.r13, "r23": r.r23}}), 0
    return "r12,r13,r23\n" + ",".join(_fmt(v) for v in r) + "\n", 0


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


def _cmd_integrate(opts) -> tuple[str, int]:
    x0, compactified, radius = opts["x0"], opts["compactified"], opts["blow_up_radius"]
    if opts["system"] == "ricci" and np.any(x0 <= 0.0):
        raise ValueError("zero or negative coordinates are only allowed for --system poly")
    if opts["system"] == "ricci" and compactified:
        raise ValueError("--compactified applies to the polynomial system only")
    if compactified and radius is not None:
        raise ValueError("--blow-up-radius does not apply to --compactified runs")
    cfg = IntegratorConfig(rel_tol=opts["rel_tol"], abs_tol=opts["abs_tol"],
                           max_step=opts["max_step"], t_end=opts["t_end"],
                           min_step=opts["min_step"])
    if compactified:
        traj = integrate_compactified(cpt.model_poly_field(), x0, cfg)
    else:
        field = ricci_field if opts["system"] == "ricci" else model.poly_rhs
        traj = integrate_with_events(field, x0, cfg,
                                     blow_up_radius=1e6 if radius is None else radius)
    code = 0
    if traj.termination in ("blow_up_event", "step_size_collapse"):
        print(f"flagflow integrate: terminated by {traj.termination} at "
              f"t = {traj.final_time:.9g}", file=sys.stderr)
        code = 2
    return _trajectory_csv(traj), code


def _cmd_infinity(opts) -> tuple[str, int]:
    eqs = cpt.find_infinity_equilibria(cpt.model_poly_field(), opts["grid"])
    return _json({
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
    }), 0


def _cmd_lyapunov(opts) -> tuple[str, int]:
    table = experiments.lyapunov_exponent_table(lines=opts["lines"], charts=opts["charts"],
                                                renorm_dt=opts["renorm_dt"],
                                                t_max=opts["t_max"])
    rows = ["line,chart,lambda1,lambda2,lambda3,t_used,converged"]
    for r in table.rows:
        # a row that ends inside its first segment has nan exponents and a note
        if not all(map(math.isfinite, r.exponents)):
            raise ValueError(f"line {r.line} chart {cpt.CHART_NAMES[r.chart]} has no finite "
                             f"exponents: {r.note}")
        rows.append(",".join([str(r.line), cpt.CHART_NAMES[r.chart]]
                             + [_fmt(v) for v in r.exponents]
                             + [_fmt(r.t_used), str(r.converged).lower()]))
    bad = [f"line {r.line} chart {cpt.CHART_NAMES[r.chart]}"
           for r in table.rows if not r.converged]
    if bad:
        print(f"flagflow lyapunov: no convergence for {', '.join(bad)}", file=sys.stderr)
    return "\n".join(rows) + "\n", 2 if bad else 0


def _cmd_verify(opts) -> tuple[str, int]:
    selected = set(opts["checks"]) or set(_CHECKS)
    results = []
    dirs = model.invariant_directions()
    if "lines" in selected:
        worst = max(model.tangency_defect(d) for d in dirs)
        results.append(("lines", worst <= _TANGENCY_TOL, worst, _TANGENCY_TOL,
                        "max tangency defect over the four ray directions"))
    if "einstein" in selected:
        worst = max(model.einstein_residual(d)[1] for d in dirs)
        c_diag, _ = model.einstein_residual((1.0, 1.0, 1.0))
        c_t, _ = model.einstein_residual((1.0, _T_EXACT, 1.0))
        const_err = max(abs(c_diag - _EXACT_CONSTANTS[2]), abs(c_t - _EXACT_CONSTANTS[1]))
        ok = worst <= _EINSTEIN_TOL and const_err <= _EINSTEIN_TOL
        results.append(("einstein", ok, max(worst, const_err), _EINSTEIN_TOL,
                        "max Einstein residual and constant error on the rays"))
    if "reparam" in selected:
        rng = np.random.default_rng(opts["seed"])
        worst = 0.0
        for _ in range(1000):
            m = rng.uniform(0.1, 5.0, size=3)
            lhs = model.poly_rhs(m)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            worst = max(worst, model.reparam_check(m) / scale)
        results.append(("reparam", worst <= _REPARAM_TOL, worst, _REPARAM_TOL,
                        "max relative defect of poly == 12*l12*l13*l23*ricci"))
    if "no-equilibria" in selected:
        min_norm = experiments.no_interior_equilibria_scan(_SCAN_RESOLUTION)
        diag = np.ones(3) / math.sqrt(3.0)
        spot1 = abs(float(np.linalg.norm(model.poly_rhs(diag))) - 5.0 / math.sqrt(3.0))
        spot2 = abs(float(np.linalg.norm(model.poly_rhs((1.0, 0.0, 0.0)))) - math.sqrt(3.0))
        ok = min_norm > 0.0 and spot1 <= 1e-12 and spot2 <= 1e-12
        results.append(("no-equilibria", ok, min_norm, 0.0,
                        "octant-sphere minimum of |poly| (must be > 0)"))

    code = 0 if all(ok for _, ok, _, _, _ in results) else 3
    if opts["format"] == "json":
        return _json({"checks": [
            {"name": n, "passed": ok, "value": v, "threshold": tol, "detail": detail}
            for n, ok, v, tol, detail in results
        ]}), code
    text = [f"{'PASS' if ok else 'FAIL'} {n}: {detail}: value {_fmt(v)} (threshold {_fmt(tol)})"
            for n, ok, v, tol, detail in results]
    return "\n".join(text) + "\n", code


def _cmd_basin(opts) -> tuple[str, int]:
    report = experiments.cylinder_basin(opts["line"], opts["epsilon"], opts["delta"],
                                        opts["samples"], opts["seed"])
    return _json(report.to_dict()), 0


def _cmd_plot(opts) -> tuple[str, int]:
    starts = opts["x0"]
    if not starts:
        starts = [2.0 * d for d in model.invariant_directions()]
        starts.append(np.array([1.3, 1.1, 1.6]))
        starts.append(np.array([0.9, 2.4, 0.7]))
    trajectories = [experiments.run_to_limit(x0, opts["t_end"])[1] for x0 in starts]
    return ball_portrait_svg(experiments._census(), trajectories), 0


class _Command(NamedTuple):
    handler: Callable[[dict], tuple[str, int]]  # resolved options -> output, exit code
    formats: tuple  # output formats it writes; --format must name one of them
    help: str
    description: str
    options: dict  # option table: key -> _opt(...) row


_COMMANDS = {
    "ricci": _Command(
        _cmd_ricci, ("csv", "json"), "Ricci tensor components of an invariant metric",
        "Evaluate the three Ricci components of the metric "
        "(l12, l13, l23) on the flag manifold SU(3)/T.",
        {"metric": _opt(_triple, _REQUIRED, "metric triple a,b,c (all positive)")}),
    "integrate": _Command(
        _cmd_integrate, ("csv",),
        "integrate the metric flow or its quadratic form, "
        "ambient or compactified",
        "Integrate the Ricci flow system (system 'ricci'), its "
        "quadratic polynomial form (system 'poly'), or the "
        "Poincare-compactified quadratic field "
        "(--compactified); writes a CSV trajectory.",
        {"system": _opt(str, "poly", choices=("ricci", "poly")),
         "x0": _opt(_triple, _REQUIRED, "initial point a,b,c"),
         "t_end": _opt(float, 10.0),
         "compactified": _opt(_boolean, False, action="store_true"),
         "rel_tol": _opt(float, 1e-9),
         "abs_tol": _opt(float, 1e-12),
         "max_step": _opt(float, 0.5),
         "min_step": _opt(float, 1e-12),
         "blow_up_radius": _opt(float)}),
    "infinity": _Command(
        _cmd_infinity, ("json",), "equilibria at infinity of the compactified field",
        "Locate the singularities at infinity of the quadratic "
        "system on the Poincare sphere's equator, classify "
        "their stability, and report them as JSON.",
        {"grid": _opt(int, 48, "Newton seed grid resolution per chart")}),
    "lyapunov": _Command(
        _cmd_lyapunov, ("csv",), "Lyapunov exponents along the four invariant rays",
        "Benettin Lyapunov spectra of the compactified flow "
        "along the invariant rays, per affine chart; CSV "
        "columns line,chart,lambda1,lambda2,lambda3,"
        "t_used,converged.",
        {"lines": _opt(_indices(4), (1, 2, 3, 4), "comma-separated subset of 1,2,3,4"),
         "charts": _opt(_indices(3), (1,), "comma-separated subset of 1,2,3"),
         "renorm_dt": _opt(_positive, 0.1),
         "t_max": _opt(_positive, 500.0)}),
    "verify": _Command(
        _cmd_verify, ("csv", "json"),
        "algebraic verifications: invariant rays, Einstein "
        "residuals, rescaling identity, octant scan",
        "Check that the four rays are invariant lines of the "
        "quadratic field, that their directions are Einstein "
        "metrics with the exact constants, that the quadratic "
        "form equals 12*l12*l13*l23 times the Ricci "
        "components, and that the field has no zero on the "
        "closed first-octant unit sphere.",
        {"checks": _opt(_checks, (), "comma-separated subset of "
                                     "lines,einstein,reparam,no-equilibria")}),
    "basin": _Command(
        _cmd_basin, ("json",), "cylinder-of-initial-conditions experiment around a ray",
        "Sample a tube of initial metrics around one invariant "
        "ray and report which fraction of compactified "
        "trajectories terminates at the ray's equilibrium at "
        "infinity (JSON report).",
        {"line": _opt(int, _REQUIRED),
         "epsilon": _opt(float, 0.05),
         "delta": _opt(float, 0.6),
         "samples": _opt(int, 200)}),
    "plot": _Command(
        _cmd_plot, ("svg",), "static SVG portrait of the Poincare ball",
        "Render the unit-ball picture: equilibria at infinity "
        "as stability-coded markers plus selected compactified "
        "trajectories.",
        {"x0": _opt(_triples, None, "initial point a,b,c (repeatable)", action="append"),
         "t_end": _opt(float, 30.0)}),
}


def _build_parser() -> _Parser:
    # SUPPRESS leaves an option that was not given out of the namespace, so
    # a global flag given before the subcommand survives the subparser
    parser = _Parser(prog="flagflow", description=__doc__,
                     argument_default=argparse.SUPPRESS, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    tables = [(parser, {})]
    for name, command in _COMMANDS.items():
        tables.append((sub.add_parser(name, help=command.help, description=command.description,
                                      argument_default=argparse.SUPPRESS, allow_abbrev=False),
                       command.options))

    def add(p, table):
        for key, (_, _, kwargs) in table.items():
            p.add_argument("--" + key.replace("_", "-"), **kwargs)

    for p, table in tables:
        add(p, _GLOBALS)
        p.add_argument("--config", help="key = value config file")
        add(p, table)
    return parser


def _check_out(path: str) -> None:
    """Reject an --out path that is a directory or lies in a missing one."""
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.exists(os.path.dirname(path) or "."):
        reason = errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(reason)}")


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        opts = _options(args)
        if opts["out"]:
            _check_out(opts["out"])
        text, code = _COMMANDS[args.command].handler(opts)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so this clause comes first
        print(f"flagflow: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"flagflow: error: {exc}", file=sys.stderr)
        return 1
    if opts["out"]:
        try:
            with open(opts["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"flagflow: error: cannot write {opts['out']}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
