"""Layer spans recorded from outside the flagflow package.

``Tracer.install`` wraps the public functions of each layer at every
module attribute that refers to them, so callers inside the package (for
example ``experiments.integrate_compactified`` or the ``compactify.poly_rhs``
that ``model_poly_field()`` hands to ``PolyField3.func``) go through the
wrapper.  Each call records a span: layer name, start, end and the index of
the enclosing span.  Spans stay in memory until ``layer_metrics`` reduces
them and ``save`` writes them out.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so children
never overlap.

``LAYERS`` lists the spans and, for each, the end-to-end metric and workload
it should move.  Later changes cite these predictions by span name.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# span name -> (module, wrapped public functions, predicted effect)
LAYERS = {
    "model.poly_rhs": (
        "model", ("poly_rhs",),
        "wall_s on census_verify (octant scan and polish); reached through "
        "PolyField3.func on basin_tubes and lyapunov_rays"),
    "model.poly_jacobian": (
        "model", ("poly_jacobian",),
        "wall_s on census_verify (polish); reached through PolyField3.jac "
        "on lyapunov_rays"),
    "compactify.field": (
        "compactify", ("compactified_field_array",),
        "samples_per_s on basin_tubes, flow_time_per_s on lyapunov_rays"),
    "compactify.jacobian": (
        "compactify", ("compactified_jacobian",),
        "flow_time_per_s on lyapunov_rays; elsewhere only the 21 calls that "
        "classify the census"),
    "compactify.chart_ops": (
        "compactify", ("ball_from_chart", "chart_point_to_sphere", "chart_coords",
                       "best_chart", "sphere_from_ambient", "ball_unprojection"),
        "samples_per_s on basin_tubes"),
    "compactify.newton_sweep": (
        "compactify", ("chart_equator_roots",),
        "wall_s on census_verify; once per process on basin_tubes, never on "
        "lyapunov_rays"),
    "compactify.census": (
        "compactify", ("find_infinity_equilibria",),
        "wall_s on census_verify (classification included); once per process "
        "on basin_tubes, never on lyapunov_rays"),
    "dynamics.compactified": (
        "dynamics", ("integrate_compactified",),
        "samples_per_s on basin_tubes; small on census_verify (plot); no calls "
        "on lyapunov_rays"),
    "dynamics.lyapunov": (
        "dynamics", ("lyapunov_spectrum",),
        "flow_time_per_s on lyapunov_rays only"),
    "dynamics.events": (
        "dynamics", ("integrate_with_events",),
        "wall_s on census_verify only (the blow-up run)"),
    "experiments.basin": (
        "experiments", ("cylinder_basin",),
        "samples_per_s on basin_tubes (sampling and the deviation loop)"),
    "experiments.lyapunov_table": (
        "experiments", ("lyapunov_exponent_table",),
        "flow_time_per_s on lyapunov_rays"),
    "experiments.octant_scan": (
        "experiments", ("no_interior_equilibria_scan",),
        "wall_s on census_verify"),
    "cli.run": (
        "cli", ("run",),
        "parsing, formatting and writing: a few percent of wall_s on every "
        "workload"),
    "svgplot.portrait": (
        "svgplot", ("ball_portrait_svg",),
        "wall_s on census_verify"),
}

NAMES = tuple(LAYERS)


def _steps(traj) -> dict:
    return {"steps": len(traj.times) - 1}


def _compactified(traj) -> dict:
    return {"steps": len(traj.times) - 1, "chart_switches": len(traj.chart_log or ())}


def _basin(report) -> dict:
    return {
        "samples": report.samples,
        "converged": sum(r.converged for r in report.records),
        "timeouts": sum(r.termination == "reached_t_end" for r in report.records),
    }


# work counts read off a span's return value
_RESULT_COUNTS = {
    "dynamics.compactified": _compactified,
    "dynamics.events": _steps,
    "dynamics.lyapunov": lambda spec: {"segments": len(spec.history)},
    "experiments.basin": _basin,
    "experiments.lyapunov_table": lambda table: {
        "rows_converged": sum(r.converged for r in table.rows)},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: {} for name in NAMES}
        self._stack = [-1]
        self._originals = []

    def _wrap(self, layer: str, fn):
        name_id = NAMES.index(layer)
        counter = _RESULT_COUNTS.get(layer)
        counts = self.counts[layer]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every flagflow module attribute bound to a layer function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "flagflow" or key.startswith("flagflow.")]
        for layer, (module, functions, _) in LAYERS.items():
            home = sys.modules[f"flagflow.{module}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                self._originals.append(original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still refer to an unwrapped layer function."""
        found = []
        for key, mod in sys.modules.items():
            if key == "flagflow" or key.startswith("flagflow."):
                for attr, value in vars(mod).items():
                    if any(value is fn for fn in self._originals):
                        found.append(f"{key}.{attr}")
        return found

    def layer_metrics(self) -> dict:
        """Per-layer calls, self times, work counts and per-call costs."""
        import numpy as np

        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=len(NAMES))
        total = np.bincount(name, weights=dur, minlength=len(NAMES))
        own = np.bincount(name, weights=self_time, minlength=len(NAMES))

        def nid(layer):
            return NAMES.index(layer)

        def children_of(layer, child):
            # calls of ``child`` made directly from spans of ``layer``
            is_child = (name == nid(child)) & has_parent
            return int(np.count_nonzero(name[parent[is_child]] == nid(layer)))

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        for layer in ("model.poly_rhs", "model.poly_jacobian", "compactify.field",
                      "compactify.jacobian", "compactify.chart_ops", "compactify.census",
                      "dynamics.compactified", "dynamics.lyapunov", "dynamics.events",
                      "experiments.octant_scan"):
            m[f"{layer}.calls"] = int(calls[nid(layer)])
            m[f"{layer}.self_s"] = float(own[nid(layer)])
        for layer in ("experiments.basin", "experiments.lyapunov_table", "svgplot.portrait"):
            m[f"{layer}.self_s"] = float(own[nid(layer)])
        for layer in ("compactify.field", "compactify.jacobian"):
            m[f"{layer}.us_per_call"] = per(total[nid(layer)], calls[nid(layer)], 1e6)
        m["compactify.newton_sweep.calls"] = int(calls[nid("compactify.newton_sweep")])
        m["compactify.newton_sweep.ms_per_call"] = per(
            total[nid("compactify.newton_sweep")], calls[nid("compactify.newton_sweep")], 1e3)

        comp = self.counts["dynamics.compactified"]
        steps = comp.get("steps", 0)
        comp_durs = dur[name == nid("dynamics.compactified")]
        m["dynamics.compactified.steps"] = steps
        m["dynamics.compactified.chart_switches"] = comp.get("chart_switches", 0)
        m["dynamics.compactified.us_per_step"] = per(own[nid("dynamics.compactified")], steps, 1e6)
        m["dynamics.compactified.evals_per_step"] = per(
            children_of("dynamics.compactified", "compactify.field"), steps)
        m["dynamics.compactified.ms_p50"] = (
            1e3 * float(np.percentile(comp_durs, 50)) if comp_durs.size else 0.0)
        m["dynamics.compactified.ms_p99"] = (
            1e3 * float(np.percentile(comp_durs, 99)) if comp_durs.size else 0.0)

        segments = self.counts["dynamics.lyapunov"].get("segments", 0)
        m["dynamics.lyapunov.segments"] = segments
        m["dynamics.lyapunov.evals_per_segment"] = per(
            children_of("dynamics.lyapunov", "compactify.field"), segments)
        m["dynamics.lyapunov.ms_per_segment"] = per(total[nid("dynamics.lyapunov")], segments, 1e3)
        m["dynamics.events.steps"] = self.counts["dynamics.events"].get("steps", 0)

        basin = self.counts["experiments.basin"]
        samples = basin.get("samples", 0)
        m["experiments.basin.samples"] = samples
        m["experiments.basin.ms_per_sample"] = per(total[nid("experiments.basin")], samples, 1e3)
        m["experiments.basin.converged"] = basin.get("converged", 0)
        m["experiments.basin.timeouts"] = basin.get("timeouts", 0)
        m["experiments.lyapunov_table.rows_converged"] = (
            self.counts["experiments.lyapunov_table"].get("rows_converged", 0))

        m["cli.run.calls"] = int(calls[nid("cli.run")])
        m["cli.self_s"] = float(own[nid("cli.run")])
        return m

    def save(self, path: str) -> None:
        """Write every span (layer name, parent index, start, end) to a .npz file."""
        import numpy as np

        np.savez(path, layers=np.array(NAMES),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
