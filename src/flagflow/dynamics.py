"""Adaptive ODE integration for the ambient and compactified flows.

The workhorse is an embedded Dormand-Prince 4(5) pair with proportional
step control on a mixed absolute/relative error norm.  On top of it:

* plain integration to a final time,
* event-terminated integration (sup-norm blow-up radius, localized by
  bisection on the cubic Hermite interpolant of the last step),
* integration of the compactified field in the affine charts with
  automatic chart switching, ball-picture reporting and a stop once a
  full step stays near one of several target points,
* Lyapunov spectra by co-integrating a tangent frame under the
  variational equations and re-orthonormalizing it on a fixed cadence,
* distance from ball points to one of the four invariant rays.

All routines are deterministic for fixed inputs and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from . import compactify as cpt
from .model import _ricci_component, line_direction

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "LyapunovSpectrum",
    "integrate_with_events",
    "integrate_compactified",
    "lyapunov_spectrum",
    "distance_to_line_ball",
    "ricci_field",
    "TERMINATIONS",
]

TERMINATIONS = ("reached_t_end", "blow_up_event", "converged_to_point", "step_size_collapse")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits of the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.5
    t_end: float = 10.0
    min_step: float = 1e-12

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        if not (0 < self.min_step < self.max_step and math.isfinite(self.max_step)):
            raise ValueError("min_step must be positive and smaller than a finite max_step")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite")


@dataclass
class Trajectory:
    """Time-stamped solution samples plus the reason integration stopped."""

    times: np.ndarray
    states: np.ndarray
    termination: str
    chart_ids: list[int] | None = None
    chart_states: np.ndarray | None = None
    chart_log: list[tuple[float, int, int]] | None = None
    # integrator counters: steppers, evaluations, accepted, rejected
    work: dict = dataclass_field(default_factory=dict)
    # why the step size collapsed, on a step_size_collapse run
    note: str = ""

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Dormand-Prince 4(5) tableau; the fifth-order solution propagates and the
# difference to the embedded fourth-order one estimates the local error.
_DP_A = (
    np.array(()),
    np.array((1 / 5,)),
    np.array((3 / 40, 9 / 40)),
    np.array((44 / 45, -56 / 15, 32 / 9)),
    np.array((19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    np.array((9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


class _StepCollapse(Exception):
    pass


class _Stepper:
    """One-step adaptive Dormand-Prince stepper (FSAL).

    A trial step evaluates all six new stages into one stage buffer, and
    its error norm is the one finiteness test: a non-finite stage makes its
    column of the error estimate non-finite (every stage enters it, and
    0 * inf is nan), so a non-finite error norm rejects the step and cuts
    h fivefold.  The stages after a non-finite one are evaluated too, so
    ``func`` must return inf/nan, not raise, at non-finite input; that
    covers a fifth-order point that overflows, whose stage 6 then is not
    finite.

    The caller holds ``np.errstate(all="ignore")`` around construction,
    ``restart`` and ``step``: each integrator enters it once per run, since a
    non-finite trial stage is an expected event here, not a warning.

    The stepper copies every value of ``func`` it keeps (the start value
    in ``restart``, each stage into its row of the stage buffer), so
    ``func`` may return the same buffer, overwritten, on every call.

    ``work`` holds the counters of one run: each start, at construction or
    ``restart`` (once per Lyapunov segment), is one of ``steppers`` and one
    of ``evaluations``, so evaluations = steppers + 6 * (accepted + rejected).
    """

    def __init__(self, func, t0: float, y0: np.ndarray, cfg: IntegratorConfig, work: dict):
        self.func, self.cfg, self.work = func, cfg, work
        self.kmat = kmat = np.empty((7, np.size(y0)))
        # per new stage: its weights, the stages they combine, the row it fills
        self.stages = [(_DP_A[s], kmat[:s], kmat[s]) for s in range(1, 7)]
        self.sqrt_n = math.sqrt(np.size(y0))
        self.restart(t0, y0)
        # modest first step from plain magnitudes; the controller adapts
        # fast, and a finite field whose norm overflows gives h = 2 * min_step
        y_rms = float(np.linalg.norm(self.y)) / math.sqrt(self.y.size)
        f_rms = float(np.linalg.norm(self.f)) / math.sqrt(self.y.size)
        self.h = min(cfg.max_step, max(0.01 * (1.0 + y_rms) / (1.0 + f_rms), 2.0 * cfg.min_step))

    def restart(self, t0: float, y0: np.ndarray) -> None:
        """Continue from a new state, keeping the step size; counts one start."""
        self.t = float(t0)
        self.y = np.array(y0, dtype=float)
        self.work["steppers"] += 1
        self.work["evaluations"] += 1
        self.f = np.array(self.func(self.y), dtype=float)
        if not np.isfinite(self.f).all():
            raise _StepCollapse("vector field not finite at the initial state")
        self.abs_y = np.abs(self.y)

    def step(self, t_limit: float):
        """Advance one accepted step, not beyond t_limit.

        Returns (t_old, y_old, f_old, t_new, y_new, f_new).  The step that
        lands on t_limit may be cut short, so h after it is the larger of the
        proposals before and after it.  Raises _StepCollapse when the
        controller drives h below min_step or the resolution of t.
        """
        cfg = self.cfg
        func = self.func
        kmat = self.kmat
        work = self.work
        h_start = self.h
        while True:
            h = min(self.h, t_limit - self.t)
            if h < cfg.min_step:
                raise _StepCollapse(f"step size {h:.3e} fell below min_step at t={self.t:.6g}")
            if self.t + h == self.t:
                raise _StepCollapse(f"step size {h:.3e} does not advance t={self.t:.6g}")
            kmat[0] = self.f
            y = self.y
            # ndarray.dot reaches the same BLAS kernels as ``@`` with half the
            # call overhead; tests/test_dynamics.py checks the bits agree
            for a, ks, row in self.stages:
                yi = y + h * a.dot(ks)
                row[...] = func(yi)
            work["evaluations"] += 6
            # stage 6 evaluates at the fifth-order solution yi (FSAL)
            err = h * _DP_E.dot(kmat)
            abs_yi = np.abs(yi)
            e = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(self.abs_y, abs_yi))
            # np.linalg.norm of a 1-D array is sqrt(e.dot(e))
            err_norm = math.sqrt(float(e.dot(e))) / self.sqrt_n
            if not math.isfinite(err_norm):
                work["rejected"] += 1
                self.h = max(h * 0.2, cfg.min_step * 0.5)
                if self.h < cfg.min_step:
                    raise _StepCollapse(f"repeated rejected steps at t={self.t:.6g}")
                continue
            if err_norm <= 1.0:
                work["accepted"] += 1
                f_new = kmat[6].copy()
                out = (self.t, y, self.f, self.t + h, yi, f_new)
                self.t += h
                self.y = yi
                self.abs_y = abs_yi
                self.f = f_new
                factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
                self.h = min(h * min(5.0, max(0.2, factor)), cfg.max_step)
                if self.t >= t_limit:
                    self.h = max(h_start, self.h)
                return out
            work["rejected"] += 1
            self.h = h * min(1.0, max(0.2, 0.9 * err_norm ** -0.2))


def _new_work() -> dict:
    return {"steppers": 0, "evaluations": 0, "accepted": 0, "rejected": 0}


def ricci_field(x: np.ndarray) -> np.ndarray:
    """Raw Ricci flow velocity l' = -2 r(l) as an unchecked formula.

    Unlike :func:`flagflow.model.flow_rhs` this performs no domain
    validation; outside the open first octant it returns inf/nan, which the
    step controller treats as a rejected step.  That lets the integrator
    degrade gracefully (step_size_collapse) at the finite-time collapse.
    ``x`` is a float ndarray, as the integrators pass it.
    """
    # numpy scalars, so a zero component divides to inf instead of raising
    a, b, c = x
    return np.array([
        -2.0 * _ricci_component(a, b, c),
        -2.0 * _ricci_component(b, a, c),
        -2.0 * _ricci_component(c, a, b),
    ])


def integrate_with_events(field, x0, cfg: IntegratorConfig, *,
                          blow_up_radius: float | None = None) -> Trajectory:
    """Integrate with an optional blow-up event.

    blow_up_radius: stop with ``blow_up_event`` once the state sup-norm
    reaches the radius; the event time is localized to 1e-9 by bisection
    on the cubic Hermite interpolant of the step that crossed it.  The
    radius must be positive and finite.  Step-size collapse terminates
    gracefully.

    A trial step evaluates all six Dormand-Prince stages and is rejected
    when any of them is not finite, so ``field`` must return inf/nan, not
    raise, where it is undefined.
    At most ``MAX_PLANNED_STEPS`` steps of ``cfg.max_step`` may fit in
    ``cfg.t_end``.
    """
    if blow_up_radius is not None and not (math.isfinite(blow_up_radius) and blow_up_radius > 0):
        raise ValueError("blow_up_radius must be positive and finite")
    _check_planned_steps(cfg.t_end / cfg.max_step, "t_end / max_step")
    x0 = np.asarray(x0, dtype=float)
    times = [0.0]
    states = [x0.copy()]
    termination = "reached_t_end"
    note = ""
    work = _new_work()
    # one error state for the run: the stepper expects it (see _Stepper)
    with np.errstate(all="ignore"):
        try:
            stepper = _Stepper(field, 0.0, x0, cfg, work)
            if blow_up_radius is not None and float(np.max(np.abs(x0))) >= blow_up_radius:
                return Trajectory(np.array(times), np.array(states), "blow_up_event", work=work)
            while stepper.t < cfg.t_end:
                t0, y0, f0, t1, y1, f1 = stepper.step(cfg.t_end)
                if blow_up_radius is not None and float(np.max(np.abs(y1))) >= blow_up_radius:
                    te, ye = _bisect_blow_up(t0, y0, f0, t1, y1, f1, blow_up_radius)
                    times.append(te)
                    states.append(ye)
                    termination = "blow_up_event"
                    break
                times.append(t1)
                states.append(y1)
        except _StepCollapse as exc:
            termination = "step_size_collapse"
            note = str(exc)
    return Trajectory(np.array(times), np.array(states), termination, work=work, note=note)


def _bisect_blow_up(t0, y0, f0, t1, y1, f1, radius):
    lo, hi = t0, t1
    for _ in range(80):
        if hi - lo <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        ymid = _hermite(t0, y0, f0, t1, y1, f1, mid)
        if float(np.max(np.abs(ymid))) >= radius:
            hi = mid
        else:
            lo = mid
    te = 0.5 * (lo + hi)
    return te, _hermite(t0, y0, f0, t1, y1, f1, te)


# fixed-length steps one run may plan: t_end / max_step for an integration,
# and for a Lyapunov spectrum its renormalisation segments times the
# max-length steps in each.  Every config in the package plans at most 5,000.
MAX_PLANNED_STEPS = 100_000


def _check_planned_steps(steps: float, what: str) -> None:
    if not steps <= MAX_PLANNED_STEPS:
        raise ValueError(f"{what} must not exceed {MAX_PLANNED_STEPS} steps, got {steps:.3g}")


# a chart is left once its pivot sphere coordinate drops below the
# threshold, for a chart whose pivot clears it by the hysteresis margin
_SWITCH_THRESHOLD = 0.3
_SWITCH_HYSTERESIS = 0.05

# rounding margin of the target prefilter, relative to 1 + max |t| + |r|
_NEAR_MARGIN = 16.0 * math.ulp(1.0)


def _near_window(tgt: np.ndarray, radius: float) -> tuple[float, float]:
    """Norm window outside which no ball point is within ``radius`` of a target.

    By the reverse triangle inequality |u - t| >= ||u| - |t||, so a ball
    point u (|u| <= 1) whose computed norm lies outside
    [min |t| - r - m, max |t| + r + m] has every computed ``_row_norm``
    distance above r.  Each computed norm (of u, of t and of u - t) is
    within 2 ulp(1) of its exact value, relatively, so m needs about
    5 ulp(1) of 1 + max |t| + |r|; ``_NEAR_MARGIN`` leaves room to spare.
    A NaN bound (a NaN target or radius) keeps every point inside.
    """
    norms = _row_norm(tgt)
    n_hi = float(np.max(norms, initial=-math.inf))
    pad = radius + _NEAR_MARGIN * (1.0 + max(n_hi, 0.0) + abs(radius))
    return float(np.min(norms, initial=math.inf)) - pad, n_hi + pad


def integrate_compactified(f: cpt.PolyField3, x0, cfg: IntegratorConfig, *,
                           targets: Sequence[np.ndarray] | None = None,
                           convergence_radius: float = 1e-3) -> Trajectory:
    """Integrate the compactified field from an ambient point x0.

    The state lives in one affine chart at a time; the chart is switched
    whenever the magnitude of the current dividing sphere coordinate drops
    below 0.3 and another chart's clears 0.35.  The trajectory is reported
    in ball coordinates, with the chart bookkeeping kept alongside.  When
    ``targets`` (ball points) are given, the run stops with
    ``converged_to_point`` once a full step stays within
    ``convergence_radius`` of one of them.  The step cap is that of
    :func:`integrate_with_events`.

    The equator z3 = 0 is invariant, so an exact solution never crosses
    it; a trial step that does is rejected as if the field were not
    finite there.  Without that, once |z3| is far below ``abs_tol`` the
    error control no longer sees z3, a step past the stability interval
    of its decay flips its sign, and the run tracks the antipodal point.
    """
    _check_planned_steps(cfg.t_end / cfg.max_step, "t_end / max_step")
    y = cpt.sphere_from_ambient(np.asarray(x0, dtype=float))
    chart = cpt.best_chart(y)
    z = cpt.chart_coords(y, chart)
    # ball coordinates of the northern-hemisphere point a chart state tracks
    u = cpt.ball_from_chart(chart, z)

    times = [0.0]
    chart_ids = [chart]
    chart_states = [z]
    ball_states = [(-u if z[2] < 0 else u).tolist()]
    chart_log: list[tuple[float, int, int]] = []
    termination = "reached_t_end"
    note = ""
    work = _new_work()
    if targets is not None:
        tgt = np.asarray(targets, dtype=float).reshape(-1, 3)
        was_near = _row_norm(np.array(ball_states[0]) - tgt) <= convergence_radius
        near_lo, near_hi = _near_window(tgt, convergence_radius)

    # the chart formula moves the slot-positive representative; tracking the
    # northern point at z3 < 0 needs the antipodal sign (-1)^(d+1)
    flip_south = f.degree % 2 == 0

    def make_rhs(c, z0):
        # z0 is the stepper's start; a trial point on the other side of the
        # equator gets NaN, which rejects the step.  Python floats and bools
        # keep the test off numpy's slow scalar comparisons.
        south = z0.item(2) < 0.0

        def rhs(state):
            if (state.item(2) < 0.0) != south:
                return np.full(3, np.nan)
            g = cpt.compactified_field_array(f, c, state)
            return -g if flip_south and south else g
        return rhs

    with np.errstate(all="ignore"):
        try:
            stepper = _Stepper(make_rhs(chart, z), 0.0, z, cfg, work)
            while stepper.t < cfg.t_end:
                _, _, _, t1, z1, _ = stepper.step(cfg.t_end)
                # ball_from_chart in Python floats, same operations; dividing by
                # -scale south of the equator negates each quotient exactly
                a, b, z3 = z1.tolist()
                w0, w1, w2 = ((1.0, a, b) if chart == 1 else (a, 1.0, b) if chart == 2
                              else (a, b, 1.0))
                scale = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2 + z3 * z3)
                if z3 < 0.0:
                    scale = -scale
                u = (w0 / scale, w1 / scale, w2 / scale)
                times.append(t1)
                chart_ids.append(chart)
                chart_states.append(z1)
                ball_states.append(u)
                if targets is not None:
                    is_near = None
                    norm_u = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
                    # the negated test keeps a NaN window on the exact path
                    if not (norm_u < near_lo or norm_u > near_hi):
                        is_near = _row_norm(np.array(u) - tgt) <= convergence_radius
                        if was_near is not None and np.any(was_near & is_near):
                            termination = "converged_to_point"
                            break
                    was_near = is_near
                # u carries the pivot of the chart as its own sphere component
                if abs(u[chart - 1]) < _SWITCH_THRESHOLD:
                    ysph = cpt.chart_point_to_sphere(chart, z1)
                    if z1[2] < 0:
                        ysph = -ysph
                    cand = cpt.best_chart(ysph)
                    if cand != chart and (abs(float(ysph[cand - 1]))
                                          >= _SWITCH_THRESHOLD + _SWITCH_HYSTERESIS):
                        chart_log.append((t1, chart, cand))
                        chart = cand
                        z_new = cpt.chart_coords(ysph, chart)
                        stepper = _Stepper(make_rhs(chart, z_new), t1, z_new, cfg, work)
        except _StepCollapse as exc:
            termination = "step_size_collapse"
            note = str(exc)

    return Trajectory(
        times=np.array(times),
        states=np.array(ball_states),
        termination=termination,
        chart_ids=chart_ids,
        chart_states=np.array(chart_states),
        chart_log=chart_log,
        work=work,
        note=note,
    )


@dataclass
class LyapunovSpectrum:
    """Benettin estimate of the three Lyapunov exponents of a trajectory."""

    exponents: np.ndarray  # sorted descending
    t_used: float
    converged: bool
    history: list[tuple[float, np.ndarray]] = dataclass_field(default_factory=list)
    max_gram_defect: float = 0.0
    note: str = ""
    # integrator counters over all segments, as on Trajectory
    work: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.exponents) > 1e-12):
            raise ValueError("exponents must be sorted in descending order")


# Benettin convergence: running averages at 0.75*t and t within this
# componentwise tolerance, checked from this elapsed time on
_LYAPUNOV_TOL = 1e-3
_LYAPUNOV_MIN_TIME = 10.0

# sup-norm radius beyond which the base trajectory counts as diverged
_DIVERGENCE_GUARD = 1e3

_EYE3 = np.eye(3)


def lyapunov_spectrum(field, x0, cfg: IntegratorConfig, renorm_dt: float, *,
                      jacobian) -> LyapunovSpectrum:
    """Lyapunov spectrum of the trajectory of ``field`` through x0.

    Co-integrates the base state with three tangent vectors under
    v' = J(x) v, with J the ``(n, n)`` array ``jacobian`` returns,
    orthonormalizes the frame every ``renorm_dt`` by modified Gram-Schmidt
    and averages the accumulated log stretch factors over elapsed time.
    Both ``field`` and ``jacobian`` must return inf/nan, not raise, at
    non-finite input (see :func:`integrate_with_events`).  Convergence is
    declared once, after t = 10, the running averages move less than 1e-3
    componentwise between 0.75*t and t.  The ceil(t_end / renorm_dt)
    segments, each of at least one step and of steps no longer than
    ``cfg.max_step``, may plan at most ``MAX_PLANNED_STEPS`` steps.
    One stepper runs them all, restarting at each renormalised state.
    The state needs at least three components, one per frame vector, and
    ``renorm_dt`` must not exceed ``cfg.t_end``.

    If the base trajectory diverges (leaves the sup-norm ball of radius
    1e3, or collapses the step size) before convergence, the partial
    averages are returned with ``converged=False``.
    """
    if not (math.isfinite(renorm_dt) and renorm_dt > 0):
        raise ValueError("renorm_dt must be positive and finite")
    segments = cfg.t_end / renorm_dt
    # the first test keeps ceil() away from an infinite ratio
    _check_planned_steps(segments, "t_end / renorm_dt")
    _check_planned_steps(math.ceil(segments) * max(1.0, renorm_dt / cfg.max_step),
                         "segments times renorm_dt / max_step")
    # a segment longer than the run would integrate far past t_end
    if renorm_dt > cfg.t_end:
        raise ValueError(f"renorm_dt must not exceed t_end, got {renorm_dt:g} > {cfg.t_end:g}")
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 3:
        raise ValueError(f"the state needs at least 3 components for 3 frame vectors, got {n}")

    # one output buffer per run, which the stepper copies from (see
    # _Stepper); ndarray.dot skips np.dot's dispatcher, same BLAS call
    out = np.empty(4 * n)
    out_base = out[:n]
    out_tangent = out[n:].reshape(3, n)

    def ext_rhs(yext: np.ndarray) -> np.ndarray:
        base = yext[:n]
        out_base[...] = field(base)
        yext[n:].reshape(3, n).dot(jacobian(base).T, out=out_tangent)
        return out

    frame = np.eye(3, n)
    state = np.concatenate([x0, frame.ravel()])
    sums = np.zeros(3)
    t_acc = 0.0
    history: list[tuple[float, np.ndarray]] = []
    n_past = 0
    max_defect = 0.0
    converged = False
    note = ""
    work = _new_work()

    with np.errstate(all="ignore"):
        try:
            stepper = _Stepper(ext_rhs, 0.0, state, cfg, work)
            for k in range(math.ceil(segments)):
                if k:
                    stepper.restart(0.0, state)
                while stepper.t < renorm_dt:
                    stepper.step(renorm_dt)
                state = stepper.y
                # an accepted state holds no NaN (np.maximum carries one into
                # the error norm), so the Python max agrees with np.max
                if max(map(abs, state[:n].tolist())) > _DIVERGENCE_GUARD:
                    note = "base trajectory left the divergence guard ball"
                    break
                # modified Gram-Schmidt with log-stretch accounting, in place
                # on the frame rows, which are views of state
                frame = state[n:].reshape(3, n)
                rows = tuple(frame)
                for i, row in enumerate(rows):
                    for prev in rows[:i]:
                        row -= row.dot(prev) * prev
                    r = math.sqrt(float(row.dot(row)))
                    if r == 0.0 or not math.isfinite(r):
                        raise _StepCollapse("tangent frame degenerated")
                    sums[i] += math.log(r)
                    row /= r
                max_defect = max(max_defect, float(abs(frame @ frame.T - _EYE3).max()))
                t_acc += renorm_dt
                running = np.sort(sums / t_acc)[::-1]
                history.append((t_acc, running))
                if t_acc >= _LYAPUNOV_MIN_TIME:
                    # history times increase, so the entries at or before the
                    # cutoff form a prefix whose end only moves forward
                    cutoff = 0.75 * t_acc
                    while n_past < len(history) and history[n_past][0] <= cutoff:
                        n_past += 1
                    if n_past:
                        drift = float(abs(history[n_past - 1][1] - running).max())
                        if drift < _LYAPUNOV_TOL:
                            converged = True
                            break
        except _StepCollapse as exc:
            note = f"base trajectory diverged: {exc}"

    exponents = np.sort(sums / t_acc)[::-1] if t_acc > 0 else np.full(3, np.nan)
    return LyapunovSpectrum(exponents=exponents, t_used=t_acc, converged=converged,
                            history=history, max_gram_defect=max_defect, note=note, work=work)


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # row-wise u_i . v_i through the same BLAS dot as a 1-D ``u_i @ v_i``
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _row_norm(u: np.ndarray) -> np.ndarray:
    # equal bit for bit to ``np.linalg.norm`` of each row
    return np.sqrt(_row_dot(u, u))


def distance_to_line_ball(u, line: int) -> float | np.ndarray:
    """Distance from a ball point to the ray spanned by an invariant direction.

    ``u`` is one point (a float is returned) or an (N, 3) array of points
    (an (N,) array is returned, equal bit for bit to the per-point values).
    """
    u = np.asarray(u, dtype=float)
    rows = u.reshape(-1, 3)
    d = line_direction(line)
    s = np.maximum(_row_dot(rows, np.broadcast_to(d, rows.shape)), 0.0)
    dist = _row_norm(rows - s[:, None] * d)
    return float(dist[0]) if u.ndim == 1 else dist
