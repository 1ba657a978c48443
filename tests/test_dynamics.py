import functools
import math

import numpy as np
import pytest

from flagflow import compactify as cpt
from flagflow import dynamics
from flagflow import experiments
from flagflow.compactify import PolyField3, ball_projection, chart_coords, sphere_from_ambient
from flagflow.compactify import compactified_field_array, compactified_jacobian, model_poly_field
from flagflow.compactify import find_infinity_equilibria
from flagflow.dynamics import _DP_A, _DP_E, _StepCollapse
from flagflow.dynamics import (
    IntegratorConfig,
    Trajectory,
    distance_to_line_ball,
    integrate_compactified,
    integrate_with_events,
    lyapunov_spectrum,
    ricci_field,
)
from flagflow.dynamics import MAX_PLANNED_STEPS
from flagflow.model import flow_rhs, invariant_directions, poly_jacobian, poly_rhs


def decay_field(y):
    return -y


def linear_diag_field():
    A = np.diag([1.0, 2.0, 3.0])
    return PolyField3(func=lambda x: A @ np.asarray(x, float), jac=lambda x: A,
                      degree=1)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(min_step=1.0, max_step=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=0.0)

    @pytest.mark.parametrize("name", ["t_end", "max_step", "rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: value})


class TestRicciField:
    def test_matches_model_flow_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(0.1, 5.0, size=3)
            assert np.array_equal(ricci_field(m), flow_rhs(m))

    def test_outside_octant_gives_nonfinite_without_raising(self):
        with np.errstate(all="ignore"):
            v = ricci_field(np.array([0.0, 1.0, 1.0]))
        assert not np.all(np.isfinite(v))


class TestIntegrate:
    def test_exponential_decay(self):
        tr = integrate_with_events(decay_field, (1.0, 0.0, 0.0), IntegratorConfig(t_end=1.0))
        assert tr.termination == "reached_t_end"
        assert tr.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_metric_flow_diagonal_closed_form(self):
        # on the diagonal the metric flow collapses as c(t) = sqrt(1 - 5t/3)
        tr = integrate_with_events(ricci_field, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.3))
        assert tr.final_state[0] == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_quadratic_flow_diagonal_closed_form(self):
        # on the diagonal the quadratic flow blows up as c(t) = 1/(1 - 5t)
        tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.1))
        assert tr.final_state[0] == pytest.approx(2.0, abs=1e-7)

    def test_diagonal_invariance_is_exact(self):
        for field, t_end in ((poly_rhs, 0.15), (ricci_field, 0.3)):
            tr = integrate_with_events(field, (1.0, 1.0, 1.0), IntegratorConfig(t_end=t_end))
            spread = np.max(np.abs(tr.states - tr.states[:, :1]))
            assert spread <= 1e-10  # cyclic formula coding keeps it bitwise 0

    def test_order_of_accuracy(self):
        # a 4/5 pair with error-per-step control: dividing both tolerances
        # by 16 must cut the end-state error by >= 8x
        def end_err(rtol):
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3, t_end=0.18)
            tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), cfg)
            return abs(tr.final_state[0] - 1.0 / (1.0 - 5 * 0.18))

        for rtol in (1e-5, 1e-6):
            assert end_err(rtol) / end_err(rtol / 16.0) >= 8.0

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)),
                       termination="reached_t_end")
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)),
                       termination="no_such_reason")


class TestStepCap:
    @pytest.mark.parametrize("integrate, field", [
        (integrate_with_events, poly_rhs),
        (integrate_compactified, model_poly_field()),
    ])
    def test_rejects_runs_planning_too_many_steps(self, integrate, field):
        # from (-1,-1,-1) the flow decays to the origin at max_step, so
        # nothing but the cap ends a run to t_end = 1e300
        with pytest.raises(ValueError):
            integrate(field, (-1.0, -1.0, -1.0), IntegratorConfig(t_end=1e300))
        cfg = IntegratorConfig(max_step=0.5, t_end=0.5 * MAX_PLANNED_STEPS * 1.01)
        with pytest.raises(ValueError):
            integrate(field, (-1.0, -1.0, -1.0), cfg)


class TestEvents:
    def test_blow_up_event_location(self):
        # sup-norm hits 100 on the diagonal at t = (1 - 1/100)/5 = 0.198
        tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0),
                                   IntegratorConfig(t_end=1.0), blow_up_radius=100.0)
        assert tr.termination == "blow_up_event"
        assert tr.final_time == pytest.approx(0.198, abs=1e-3)

    def test_step_collapse_is_graceful(self):
        # finite-time blow-up without an event trap exhausts the controller
        tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=1.0))
        assert tr.termination == "step_size_collapse"
        assert np.all(np.isfinite(tr.states))
        assert tr.final_time == pytest.approx(0.2, abs=1e-4)

    def test_step_that_does_not_advance_t_collapses(self):
        # near the metric flow's collapse at t = 0.7637 the controller, allowed
        # steps down to 1e-20, proposes one below the resolution of t
        tr = integrate_with_events(ricci_field, (1.0, 2.0, 3.0),
                                   IntegratorConfig(t_end=1.0, max_step=1e-3, min_step=1e-20))
        assert tr.termination == "step_size_collapse"
        assert tr.final_time == pytest.approx(0.76369, abs=1e-5)


class TestCompactifiedIntegration:
    def test_diagonal_start_reaches_diagonal_at_infinity(self):
        field = model_poly_field()
        target = invariant_directions()[1]
        tr = integrate_compactified(field, (1.2, 1.2, 1.2), IntegratorConfig(t_end=50.0),
                                    targets=[target], convergence_radius=1e-5)
        assert tr.termination == "converged_to_point"
        assert np.linalg.norm(tr.final_state - target) <= 1e-4

    def test_ray_start_reaches_its_equilibrium(self):
        field = model_poly_field()
        d1 = invariant_directions()[0]
        tr = integrate_compactified(field, 2.0 * d1, IntegratorConfig(t_end=50.0),
                                    targets=[d1], convergence_radius=1e-5)
        assert tr.termination == "converged_to_point"
        assert np.linalg.norm(tr.final_state - d1) <= 1e-4

    def test_chart_switching_and_threshold_audit(self, monkeypatch):
        # a linear diagnostic field drives trajectories from the x-dominant
        # chart to the z-dominant one; the final point must not depend on
        # the switching threshold
        lin = linear_diag_field()
        finals = {}
        for threshold in (0.3, 0.4):
            monkeypatch.setattr(dynamics, "_SWITCH_THRESHOLD", threshold)
            tr = integrate_compactified(lin, (5.0, 0.5, 0.5), IntegratorConfig(t_end=3.0))
            assert tr.termination == "reached_t_end"
            assert tr.chart_log, "expected at least one chart switch"
            assert tr.chart_log[0][1:] == (1, 3)
            finals[threshold] = tr.final_state
        assert np.linalg.norm(finals[0.3] - finals[0.4]) < 1e-8

    def test_limit_agrees_with_ambient_blow_up_direction(self):
        # the compactified run and the ambient run (projected to the ball)
        # terminate at the same boundary point
        x0 = (1.3, 1.1, 1.2)
        amb = integrate_with_events(poly_rhs, x0,
                                    IntegratorConfig(t_end=1.0, rel_tol=1e-10, abs_tol=1e-13),
                                    blow_up_radius=1e9)
        assert amb.termination == "blow_up_event"
        target = invariant_directions()[1]
        cmp_ = integrate_compactified(model_poly_field(), x0, IntegratorConfig(t_end=60.0),
                                      targets=[target], convergence_radius=1e-5)
        assert cmp_.termination == "converged_to_point"
        assert np.linalg.norm(ball_projection(amb.final_state) - cmp_.final_state) <= 1e-4

    @pytest.mark.parametrize("t_end", [20.0, 140.0])
    def test_equator_is_never_crossed(self, t_end):
        # once |z3| is far below abs_tol a full max_step flips the sign of z3;
        # the run must stay on its side of the invariant equator and end at
        # the diagonal attractor, not at the antipodal repeller
        tr = integrate_compactified(model_poly_field(), (1.2, 1.2, 1.2),
                                    IntegratorConfig(t_end=t_end))
        assert tr.termination == "reached_t_end"
        assert np.all(tr.chart_states[:, 2] >= 0.0)
        assert np.linalg.norm(tr.final_state - invariant_directions()[1]) <= 1e-6

    def test_csv_bookkeeping_fields(self):
        field = model_poly_field()
        tr = integrate_compactified(field, (1.2, 1.2, 1.2), IntegratorConfig(t_end=1.0))
        assert tr.chart_ids is not None and len(tr.chart_ids) == len(tr.times)
        assert tr.chart_states.shape == tr.states.shape
        assert np.all(np.linalg.norm(tr.states, axis=1) < 1.0)


class TestLyapunovSpectrum:
    def test_linear_field_exact(self):
        A = np.diag([-1.0, -2.0, -3.0])
        spec = lyapunov_spectrum(lambda x: A @ x, (0.3, 0.3, 0.3),
                                 IntegratorConfig(t_end=100.0), 0.1, jacobian=lambda x: A)
        assert spec.converged
        assert spec.exponents == pytest.approx([-1.0, -2.0, -3.0], abs=1e-6)

    def test_frame_stays_orthonormal(self):
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.5]])
        spec = lyapunov_spectrum(lambda x: A @ x, (1.0, 0.0, 0.5),
                                 IntegratorConfig(t_end=50.0), 0.1, jacobian=lambda x: A)
        assert spec.max_gram_defect < 1e-12

    @pytest.mark.parametrize("renorm_dt", [0.05, 0.1, 0.2])
    def test_renorm_cadence_independence(self, renorm_dt):
        A = np.diag([-1.0, -2.0, -3.0])
        spec = lyapunov_spectrum(lambda x: A @ x, (0.3, 0.3, 0.3),
                                 IntegratorConfig(t_end=80.0), renorm_dt, jacobian=lambda x: A)
        assert spec.exponents == pytest.approx([-1.0, -2.0, -3.0], abs=2e-3)

    def test_history_tracks_running_averages(self):
        A = np.diag([-1.0, -2.0, -3.0])
        spec = lyapunov_spectrum(lambda x: A @ x, (0.3, 0.3, 0.3),
                                 IntegratorConfig(t_end=30.0), 0.1, jacobian=lambda x: A)
        assert spec.history[-1][0] == pytest.approx(spec.t_used)
        assert spec.history[-1][1] == pytest.approx(spec.exponents)

    def test_diagonal_ray_spectrum_in_chart(self):
        # along the diagonal invariant ray the chart-1 tangent dynamics are
        # exactly triangular with rates (-7, -7, -5); the Benettin estimate
        # has to land there
        field = model_poly_field()
        y = sphere_from_ambient(2.0 * invariant_directions()[1])
        z0 = chart_coords(y, 1)
        spec = lyapunov_spectrum(
            lambda z: compactified_field_array(field, 1, z), z0,
            IntegratorConfig(t_end=300.0, max_step=0.1, rel_tol=1e-7, abs_tol=1e-10),
            0.1, jacobian=lambda z: compactified_jacobian(field, 1, z))
        assert spec.converged
        assert spec.exponents == pytest.approx([-5.0, -7.0, -7.0], abs=2e-2)

    @staticmethod
    def _line_4_run(f, t_end=20.0):
        z0 = chart_coords(sphere_from_ambient(2.0 * invariant_directions()[3]), 1)
        cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, max_step=0.1, t_end=t_end)
        return lyapunov_spectrum(functools.partial(compactified_field_array, f, 1), z0, cfg,
                                 0.1, jacobian=functools.partial(compactified_jacobian, f, 1))

    def test_one_field_evaluation_per_variational_evaluation(self):
        calls = {"func": 0, "jac": 0}

        def func(x):
            calls["func"] += 1
            return poly_rhs(x)

        def jac(x):
            calls["jac"] += 1
            return poly_jacobian(x)

        spec = self._line_4_run(PolyField3(func=func, jac=jac, degree=2))
        evaluations = spec.work["evaluations"]
        assert evaluations > 0
        assert calls == {"func": evaluations, "jac": evaluations}

    def test_step_size_carries_across_segments(self):
        # a fresh first-step guess per segment costs 5 accepted steps per
        # 0.1 time units here; the carried step needs fewer
        spec = self._line_4_run(model_poly_field())
        assert spec.work["steppers"] == len(spec.history) == 200
        assert spec.work["accepted"] / spec.work["steppers"] <= 4.5

    def test_one_stepper_per_run(self, monkeypatch):
        starts = []

        class Counted(dynamics._Stepper):
            def __init__(self, *args):
                starts.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dynamics, "_Stepper", Counted)
        spec = self._line_4_run(model_poly_field(), t_end=2.0)
        assert len(starts) == 1
        # a restart counts as a start, so the counter still sees one per segment
        assert spec.work["steppers"] == len(spec.history) == 20

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0),
                              IntegratorConfig(t_end=1.0), 0.0, jacobian=lambda x: -np.eye(3))

    @pytest.mark.parametrize("renorm_dt, t_end", [(1e300, 5.0), (2e4, 2e4)])
    def test_rejects_too_many_steps_in_long_segments(self, renorm_dt, t_end):
        # one segment of length renorm_dt runs renorm_dt / max_step steps
        with pytest.raises(ValueError, match="segments times renorm_dt / max_step"):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0),
                              IntegratorConfig(t_end=t_end, max_step=0.1), renorm_dt,
                              jacobian=lambda x: -np.eye(3))

    def test_rejects_too_many_segments(self):
        renorm_dt = 0.1
        cfg = IntegratorConfig(t_end=2.0 * MAX_PLANNED_STEPS * renorm_dt)
        with pytest.raises(ValueError):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0), cfg, renorm_dt,
                              jacobian=lambda x: -np.eye(3))

    @pytest.mark.parametrize("renorm_dt, t_end", [(1000.0, 1.0), (1.5, 1.0)])
    def test_rejects_a_segment_longer_than_the_run(self, renorm_dt, t_end):
        # one such segment used to integrate far past t_end and could end
        # in nan exponents with t_used 0
        with pytest.raises(ValueError, match="renorm_dt must not exceed t_end"):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0), IntegratorConfig(t_end=t_end),
                              renorm_dt, jacobian=lambda x: -np.eye(3))

    def test_accepts_one_segment_as_long_as_the_run(self):
        spec = lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0), IntegratorConfig(t_end=1.0),
                                 1.0, jacobian=lambda x: -np.eye(3))
        assert spec.t_used == 1.0 and len(spec.history) == 1

    @pytest.mark.parametrize("x0", [(1.0, 2.0), (1.0,), ()])
    def test_rejects_states_of_fewer_than_three_components(self, x0):
        # three frame vectors need three dimensions; a smaller state used to
        # come back as nan exponents with a "diverged" note
        n = len(x0)
        with pytest.raises(ValueError, match="at least 3 components"):
            lyapunov_spectrum(decay_field, x0, IntegratorConfig(t_end=1.0), 0.1,
                              jacobian=lambda x: -np.eye(n))


class TestDistanceToLine:
    def test_on_ray_distance_vanishes(self):
        d = invariant_directions()[1]
        assert distance_to_line_ball(ball_projection(3.0 * d), 2) == pytest.approx(0.0, abs=1e-12)

    def test_origin_is_on_every_ray(self):
        for line in (1, 2, 3, 4):
            assert distance_to_line_ball(ball_projection((0.0, 0.0, 0.0)), line) == 0.0

    def test_known_offset_point(self):
        # perpendicular distance from (0.6, 0.6, 0.7) to the diagonal ray
        assert distance_to_line_ball((0.6, 0.6, 0.7), 2) == pytest.approx(0.0816497, abs=1e-6)

    def test_negative_projection_clamps_to_apex(self):
        u = np.array([-0.2, -0.2, -0.2])
        assert distance_to_line_ball(u, 2) == pytest.approx(np.linalg.norm(u), abs=1e-12)

    @pytest.mark.parametrize("line", [1, 2, 3, 4])
    def test_array_matches_points_bitwise(self, line):
        rng = np.random.default_rng(line)
        u = rng.uniform(-0.6, 0.6, size=(200, 3))
        u[:3] = -np.abs(u[:3])  # projections onto every ray clamp to 0
        dist = distance_to_line_ball(u, line)
        assert dist.shape == (200,)
        per_point = np.array([distance_to_line_ball(p, line) for p in u])
        assert dist.tobytes() == per_point.tobytes()


class _ParentStepper:
    """Verbatim copy of the stepper that tested each stage for finiteness.

    It is the reference for the bitwise tests below: the current stepper
    must reproduce its accepted steps, step sizes and terminations.
    """

    def __init__(self, func, t0: float, y0: np.ndarray, cfg: IntegratorConfig):
        self.func = func
        self.cfg = cfg
        self.t = float(t0)
        self.y = np.array(y0, dtype=float)
        with np.errstate(all="ignore"):
            self.f = np.asarray(func(self.y), dtype=float)
        if not np.all(np.isfinite(self.f)):
            raise _StepCollapse("vector field not finite at the initial state")
        # modest first step from plain magnitudes; the controller adapts fast
        y_rms = float(np.linalg.norm(self.y)) / math.sqrt(self.y.size)
        f_rms = float(np.linalg.norm(self.f)) / math.sqrt(self.y.size)
        self.h = min(cfg.max_step, max(0.01 * (1.0 + y_rms) / (1.0 + f_rms), 2.0 * cfg.min_step))

    def step(self, t_limit: float):
        """Advance one accepted step, not beyond t_limit.

        Returns (t_old, y_old, f_old, t_new, y_new, f_new).
        Raises _StepCollapse when the controller drives h below min_step.
        """
        cfg = self.cfg
        n = self.y.size
        kmat = np.empty((7, n))
        while True:
            h = min(self.h, t_limit - self.t)
            if h < cfg.min_step:
                raise _StepCollapse(f"step size {h:.3e} fell below min_step at t={self.t:.6g}")
            kmat[0] = self.f
            ok = True
            with np.errstate(all="ignore"):
                for stage in range(1, 7):
                    yi = self.y + h * (_DP_A[stage] @ kmat[:stage])
                    fi = np.asarray(self.func(yi), dtype=float)
                    kmat[stage] = fi
                    if not np.all(np.isfinite(fi)):
                        ok = False
                        break
            if ok:
                y_new = yi  # stage 6 evaluates at the fifth-order solution (FSAL)
                f_new = fi
                err = h * (_DP_E @ kmat)
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(self.y), np.abs(y_new))
                with np.errstate(all="ignore"):
                    err_norm = float(np.linalg.norm(err / scale) / math.sqrt(err.size))
            if not ok or not math.isfinite(err_norm):
                self.h = max(h * 0.2, cfg.min_step * 0.5)
                if self.h < cfg.min_step:
                    raise _StepCollapse(f"repeated rejected steps at t={self.t:.6g}")
                continue
            if err_norm <= 1.0:
                out = (self.t, self.y, self.f, self.t + h, y_new, f_new)
                self.t += h
                self.y = y_new
                self.f = f_new
                factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
                self.h = min(h * min(5.0, max(0.2, factor)), cfg.max_step)
                return out
            self.h = h * min(1.0, max(0.2, 0.9 * err_norm ** -0.2))


class _ReferenceStepper(_ParentStepper):
    # the integrators pass a work dict, which the reference does not keep
    def __init__(self, func, t0, y0, cfg, work):
        super().__init__(func, t0, y0, cfg)


def _parent_lyapunov_spectrum(field, x0, cfg, renorm_dt, *, jacobian):
    """Verbatim copy of the Lyapunov driver that started a stepper per segment.

    Each segment builds a fresh reference stepper on a config whose
    max_step is capped at renorm_dt, and the step size is carried across
    by hand.  The driver's validation and work counters are left out.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size

    def ext_rhs(yext: np.ndarray) -> np.ndarray:
        return np.concatenate((field(yext[:n]),
                               yext[n:].reshape(3, n).dot(jacobian(yext[:n]).T).ravel()))

    frame = np.eye(3, n)
    state = np.concatenate([x0, frame.ravel()])
    sums = np.zeros(3)
    t_acc = 0.0
    history: list[tuple[float, np.ndarray]] = []
    n_past = 0
    max_defect = 0.0
    converged = False
    note = ""

    seg_cfg = IntegratorConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                               max_step=min(cfg.max_step, renorm_dt),
                               t_end=renorm_dt, min_step=cfg.min_step)
    n_segments = math.ceil(cfg.t_end / renorm_dt)
    h_carried = None
    try:
        for _ in range(n_segments):
            stepper = _ParentStepper(ext_rhs, 0.0, state, seg_cfg)
            if h_carried is not None:
                stepper.h = h_carried
            while stepper.t < renorm_dt:
                h_proposed = stepper.h
                stepper.step(renorm_dt)
            # the last step was cut to land on renorm_dt, so the proposal
            # after it can be far below the step the controller had settled on
            h_carried = max(h_proposed, stepper.h)
            state = stepper.y
            base = state[:n]
            if float(np.max(np.abs(base))) > dynamics._DIVERGENCE_GUARD:
                note = "base trajectory left the divergence guard ball"
                break
            frame = state[n:].reshape(3, n)
            # modified Gram-Schmidt with log-stretch accounting
            for i in range(3):
                for j in range(i):
                    frame[i] -= (frame[i] @ frame[j]) * frame[j]
                r = math.sqrt(float(frame[i].dot(frame[i])))
                if r == 0.0 or not math.isfinite(r):
                    raise _StepCollapse("tangent frame degenerated")
                sums[i] += math.log(r)
                frame[i] /= r
            gram = frame @ frame.T
            max_defect = max(max_defect, float(np.max(np.abs(gram - np.eye(3)))))
            state[n:] = frame.ravel()
            t_acc += renorm_dt
            running = np.sort(sums / t_acc)[::-1]
            history.append((t_acc, running))
            if t_acc >= dynamics._LYAPUNOV_MIN_TIME:
                # history times increase, so the entries at or before the
                # cutoff form a prefix whose end only moves forward
                cutoff = 0.75 * t_acc
                while n_past < len(history) and history[n_past][0] <= cutoff:
                    n_past += 1
                if n_past:
                    drift = float(np.max(np.abs(history[n_past - 1][1] - running)))
                    if drift < dynamics._LYAPUNOV_TOL:
                        converged = True
                        break
    except _StepCollapse as exc:
        note = f"base trajectory diverged: {exc}"

    exponents = np.sort(sums / t_acc)[::-1] if t_acc > 0 else np.full(3, np.nan)
    return dynamics.LyapunovSpectrum(
        exponents=exponents,
        t_used=t_acc,
        converged=converged,
        history=history,
        max_gram_defect=max_defect,
        note=note,
    )


def _parent_north_ball(chart: int, z: np.ndarray) -> np.ndarray:
    """Ball coordinates of the northern-hemisphere point a chart state tracks."""
    u = cpt.ball_from_chart(chart, z)
    return -u if z[2] < 0 else u


def _parent_integrate_compactified(f, x0, cfg, *, targets=None, convergence_radius=1e-3):
    """Verbatim copy of the compactified step loop that built numpy ball points.

    It computes each step's ball point with ``ball_from_chart`` and tests
    every target on every step.  It runs the reference stepper; the step
    cap check and the work counters are left out.
    """
    y = cpt.sphere_from_ambient(np.asarray(x0, dtype=float))
    chart = cpt.best_chart(y)
    z = cpt.chart_coords(y, chart)

    times = [0.0]
    chart_ids = [chart]
    chart_states = [z]
    ball_states = [_parent_north_ball(chart, z)]
    chart_log: list[tuple[float, int, int]] = []
    termination = "reached_t_end"
    if targets is not None:
        tgt = np.asarray(targets, dtype=float).reshape(-1, 3)
        was_near = dynamics._row_norm(ball_states[0] - tgt) <= convergence_radius

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

    try:
        stepper = _ParentStepper(make_rhs(chart, z), 0.0, z, cfg)
        while stepper.t < cfg.t_end:
            _, _, _, t1, z1, _ = stepper.step(cfg.t_end)
            u1 = _parent_north_ball(chart, z1)
            times.append(t1)
            chart_ids.append(chart)
            chart_states.append(z1)
            ball_states.append(u1)
            if targets is not None:
                is_near = dynamics._row_norm(u1 - tgt) <= convergence_radius
                if np.any(was_near & is_near):
                    termination = "converged_to_point"
                    break
                was_near = is_near
            # u1 carries the pivot of the chart as its own sphere component
            if abs(float(u1[chart - 1])) < dynamics._SWITCH_THRESHOLD:
                ysph = cpt.chart_point_to_sphere(chart, z1)
                if z1[2] < 0:
                    ysph = -ysph
                cand = cpt.best_chart(ysph)
                if cand != chart and abs(float(ysph[cand - 1])) >= \
                        dynamics._SWITCH_THRESHOLD + dynamics._SWITCH_HYSTERESIS:
                    chart_log.append((t1, chart, cand))
                    chart = cand
                    z_new = cpt.chart_coords(ysph, chart)
                    stepper = _ParentStepper(make_rhs(chart, z_new), t1, z_new, cfg)
    except _StepCollapse:
        termination = "step_size_collapse"

    return Trajectory(
        times=np.array(times),
        states=np.array(ball_states),
        termination=termination,
        chart_ids=chart_ids,
        chart_states=np.array(chart_states),
        chart_log=chart_log,
    )


def _assert_same_spectrum(a, b):
    assert a.exponents.tobytes() == b.exponents.tobytes()
    assert (a.t_used, a.converged, a.max_gram_defect, a.note) == \
        (b.t_used, b.converged, b.max_gram_defect, b.note)
    assert len(a.history) == len(b.history)
    for (ta, ra), (tb, rb) in zip(a.history, b.history):
        assert ta == tb and ra.tobytes() == rb.tobytes()


def nan_beyond_field(y):
    # exponential growth that is undefined beyond sup-norm 3
    y = np.asarray(y, dtype=float)
    return np.full(3, np.nan) if np.max(np.abs(y)) > 3.0 else 1.0 * y


def inf_component_beyond_field(y):
    # exponential growth whose first component turns +inf beyond sup-norm 3
    y = np.asarray(y, dtype=float)
    f = 1.0 * y
    if np.max(np.abs(y)) > 3.0:
        f[0] = np.inf
    return f


def huge_field(y):
    # finite and constant at finite input, NaN elsewhere
    y = np.asarray(y, dtype=float)
    return np.array([1e306, 5e305, 1.0]) if np.isfinite(y).all() else np.full(3, np.nan)


def _with_reference(monkeypatch, run):
    """(run() with the current stepper, run() with the reference stepper)."""
    current = run()
    monkeypatch.setattr(dynamics, "_Stepper", _ReferenceStepper)
    reference = run()
    monkeypatch.undo()
    return current, reference


def _assert_same_trajectory(a, b):
    assert a.termination == b.termination
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    if b.chart_ids is not None:
        assert a.chart_ids == b.chart_ids
        assert a.chart_states.tobytes() == b.chart_states.tobytes()
        assert a.chart_log == b.chart_log


class TestStepperMatchesReference:
    @pytest.mark.parametrize("field, x0, t_end, radius, termination", [
        (ricci_field, (1.0, 2.0, 3.0), 5.0, None, "step_size_collapse"),
        (ricci_field, (1.0, 1.0, 1.0), 5.0, None, "step_size_collapse"),
        (poly_rhs, (1.0, 1.0, 1.0), 1.0, 1e6, "blow_up_event"),
        (poly_rhs, (1.0, 1.0, 1.0), 1.0, None, "step_size_collapse"),
        (nan_beyond_field, (1.0, 0.5, 0.2), 5.0, None, "step_size_collapse"),
    ])
    def test_integrate_with_events_bitwise(self, monkeypatch, field, x0, t_end, radius,
                                           termination):
        cur, ref = _with_reference(monkeypatch, lambda: integrate_with_events(
            field, x0, IntegratorConfig(t_end=t_end), blow_up_radius=radius))
        assert ref.termination == termination
        _assert_same_trajectory(cur, ref)

    def test_compactified_with_targets_bitwise(self, monkeypatch):
        # a cylinder_basin run: tube start near ray 1, census targets
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11, max_step=0.25, t_end=200.0)
        targets = [e.direction for e in find_infinity_equilibria(model_poly_field())]
        x0 = 0.6 * invariant_directions()[0] + np.array([0.02, -0.01, 0.015])
        cur, ref = _with_reference(monkeypatch, lambda: integrate_compactified(
            model_poly_field(), x0, cfg, targets=targets, convergence_radius=1e-5))
        assert ref.termination == "converged_to_point"
        _assert_same_trajectory(cur, ref)

    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_chart_switching_bitwise(self, monkeypatch, threshold):
        monkeypatch.setattr(dynamics, "_SWITCH_THRESHOLD", threshold)
        cur, ref = _with_reference(monkeypatch, lambda: integrate_compactified(
            linear_diag_field(), (5.0, 0.5, 0.5), IntegratorConfig(t_end=3.0)))
        assert ref.chart_log
        _assert_same_trajectory(cur, ref)

    @pytest.mark.parametrize("line", [2, 4])
    @pytest.mark.parametrize("renorm_dt", [0.1, 0.05, 0.3])
    def test_lyapunov_rays_bitwise(self, line, renorm_dt):
        field = model_poly_field()
        z0 = chart_coords(sphere_from_ambient(2.0 * invariant_directions()[line - 1]), 1)
        cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, max_step=0.1, t_end=20.0)
        args = (functools.partial(compactified_field_array, field, 1), z0, cfg, renorm_dt)
        jac = functools.partial(compactified_jacobian, field, 1)
        cur = lyapunov_spectrum(*args, jacobian=jac)
        ref = _parent_lyapunov_spectrum(*args, jacobian=jac)
        _assert_same_spectrum(cur, ref)
        assert len(cur.history) == math.ceil(20.0 / renorm_dt)

    def test_converged_lyapunov_run_bitwise(self):
        A = np.diag([-1.0, -2.0, -3.0])
        args = (lambda x: A @ x, (0.3, 0.3, 0.3), IntegratorConfig(t_end=100.0), 0.1)
        cur = lyapunov_spectrum(*args, jacobian=lambda x: A)
        ref = _parent_lyapunov_spectrum(*args, jacobian=lambda x: A)
        assert ref.converged and ref.t_used < 100.0
        _assert_same_spectrum(cur, ref)
        assert cur.work["steppers"] == len(cur.history)

    @staticmethod
    def _drive(field, y0, cfg, h0=None):
        """Accepted (t, h, y, f) of both steppers, their collapse messages and call counts."""
        def run(make):
            calls = [0]

            def counted(y):
                calls[0] += 1
                return field(y)

            stepper = make(counted)
            if h0 is not None:
                stepper.h = h0
            steps, per_step = [], []
            with pytest.raises(_StepCollapse) as collapse:
                while stepper.t < cfg.t_end:
                    before = calls[0]
                    stepper.step(cfg.t_end)
                    steps.append((stepper.t, stepper.h, stepper.y.tobytes(), stepper.f.tobytes()))
                    per_step.append(calls[0] - before)
            return steps, str(collapse.value), per_step, stepper

        # the stepper's caller holds the error state, as the integrators do
        with np.errstate(all="ignore"):
            cur = run(lambda f: dynamics._Stepper(f, 0.0, y0, cfg, dynamics._new_work()))
            ref = run(lambda f: _ParentStepper(f, 0.0, y0, cfg))
        assert cur[:2] == ref[:2]
        return cur[3], ref[2]

    def _check_early_nonfinite_stages(self, field):
        # drive both steppers through trial steps that turn non-finite before
        # their last stage; every accepted t, y, f, every next h and the
        # collapse must agree
        stepper, ref_calls = self._drive(field, (1.0, 0.5, 0.2), IntegratorConfig(t_end=5.0))
        # the reference broke off some trial step before its sixth stage
        assert any(c % 6 for c in ref_calls)
        assert stepper.work["rejected"] > 0

    def test_nan_stage_rejections_follow_the_reference(self):
        self._check_early_nonfinite_stages(nan_beyond_field)

    def test_inf_component_rejections_follow_the_reference(self):
        self._check_early_nonfinite_stages(inf_component_beyond_field)

    def test_overflowing_fifth_order_point_follows_the_reference(self):
        # a constant field of size 1e306 from y = max/2: bisect for the first
        # step whose fifth-order point overflows while stages 1-5 stay finite
        y0 = np.array([0.5 * np.finfo(float).max, 0.0, 0.0])
        kmat = np.tile(huge_field(y0), (7, 1))

        def points(h):
            return [y0 + h * _DP_A[s].dot(kmat[:s]) for s in range(1, 7)]

        lo, hi = 0.0, 1e3
        with np.errstate(over="ignore"):
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if not np.isfinite(points(mid)[5]).all() else (mid, hi)
            finite = [bool(np.isfinite(p).all()) for p in points(hi)]
        assert finite == [True] * 5 + [False]
        stepper, _ = self._drive(huge_field, y0, IntegratorConfig(t_end=200.0, max_step=100.0),
                                 h0=hi)
        assert stepper.work["rejected"] > 0 and stepper.work["accepted"] > 0


def _reused_buffer(func):
    """``func`` writing every value into one buffer and returning that buffer."""
    buf = []

    def wrapped(*args):
        value = func(*args)
        if not buf:
            buf.append(np.empty(np.shape(value)))
        buf[0][...] = value
        return buf[0]
    return wrapped


class TestStepperCopyContract:
    # the stepper copies what it keeps of func's values, so a field that
    # overwrites one buffer on every call runs bit for bit like one that
    # returns fresh arrays.  Some runs below reject the first trial step
    # after a (re)start or bisect it for the blow-up; both read the start
    # value again after the stages have overwritten the buffer

    @pytest.mark.parametrize("field, x0, t_end, radius", [
        (poly_rhs, (1.0, 1.0, 1.0), 1.0, 1e6),
        # the first step crosses the radius: the bisection reads f0 and f1
        (poly_rhs, (1.0, 1.0, 1.0), 1.0, 1.0001),
        # the first trial step leaves the domain and is rejected
        (nan_beyond_field, (2.99, 0.5, 0.2), 1.0, None),
        (ricci_field, (1.0, 2.0, 3.0), 5.0, None),
    ])
    def test_integrate_with_events(self, field, x0, t_end, radius):
        def run(func):
            return integrate_with_events(func, x0, IntegratorConfig(t_end=t_end),
                                         blow_up_radius=radius)
        fresh, reused = run(field), run(_reused_buffer(field))
        _assert_same_trajectory(reused, fresh)
        assert reused.work == fresh.work and reused.note == fresh.note
        if radius == 1.0001:
            assert fresh.termination == "blow_up_event" and fresh.work["accepted"] == 1
        if field is nan_beyond_field:
            assert fresh.work["rejected"] > 0 and fresh.times[-1] > 0.0

    @pytest.mark.parametrize("field, x0, t_end", [
        (model_poly_field(), (1.2, 1.2, 1.2), 20.0),
        (linear_diag_field(), (5.0, 0.5, 0.5), 3.0),
    ])
    def test_integrate_compactified(self, monkeypatch, field, x0, t_end):
        def run():
            return integrate_compactified(field, x0, IntegratorConfig(t_end=t_end))
        fresh = run()
        monkeypatch.setattr(cpt, "compactified_field_array",
                            _reused_buffer(cpt.compactified_field_array))
        reused = run()
        _assert_same_trajectory(reused, fresh)
        assert reused.work == fresh.work

    def test_lyapunov_spectrum(self):
        # line 1 rejects the first trial step of almost every segment, and
        # lyapunov_spectrum itself hands the stepper one buffer per run
        field = model_poly_field()
        z0 = chart_coords(sphere_from_ambient(2.0 * invariant_directions()[0]), 1)
        cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, max_step=0.1, t_end=3.0)
        fld = functools.partial(compactified_field_array, field, 1)
        jac = functools.partial(compactified_jacobian, field, 1)
        cur = lyapunov_spectrum(_reused_buffer(fld), z0, cfg, 0.1, jacobian=_reused_buffer(jac))
        ref = _parent_lyapunov_spectrum(fld, z0, cfg, 0.1, jacobian=jac)
        _assert_same_spectrum(cur, ref)
        assert cur.work["rejected"] >= len(cur.history) - 1 > 0


class TestCompactifiedLoopMatchesParent:
    # the loop computes ball points in Python floats and skips the target
    # test outside a norm window; the parent copy does neither

    @staticmethod
    def _tube_start(line, idx):
        # the launch point of basin sample idx at epsilon 0.05, delta 0.6, seed 7
        d, e1, e2 = experiments._tube_frame(line)
        rng = np.random.default_rng([7, line, idx])
        height = rng.uniform(0.6 / math.sqrt(1.36), 0.98)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return cpt.ball_unprojection(height * d + 0.05 * (math.cos(angle) * e1
                                                          + math.sin(angle) * e2))

    @staticmethod
    def _both(*args, **kwargs):
        cur = integrate_compactified(*args, **kwargs)
        ref = _parent_integrate_compactified(*args, **kwargs)
        _assert_same_trajectory(cur, ref)
        return cur

    @pytest.mark.parametrize("line", [1, 2, 3, 4])
    def test_tube_samples_bitwise(self, line):
        targets = experiments._equilibrium_targets()
        for idx in range(3):
            tr = self._both(model_poly_field(), self._tube_start(line, idx), experiments._RUN_CFG,
                            targets=targets, convergence_radius=experiments._STOP_RADIUS)
            assert tr.termination == "converged_to_point"

    def test_interior_targets_of_mixed_norms_bitwise(self):
        # the run leaves |u| = 0.45 along the diagonal and settles into the
        # target at |t| = 0.9 on it; steps below the norm window skip the test
        d1, d2 = invariant_directions()[:2]
        targets = [0.5 * d1, 0.9 * d2, -d1]
        radius = 0.02
        tr = self._both(model_poly_field(), 0.5 * d2, IntegratorConfig(t_end=50.0),
                        targets=targets, convergence_radius=radius)
        assert tr.termination == "converged_to_point"
        assert np.linalg.norm(tr.final_state - 0.9 * d2) <= radius
        lo, _ = dynamics._near_window(np.array(targets), radius)
        assert np.sum(np.linalg.norm(tr.states, axis=1) < lo) >= 2

    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_chart_switching_bitwise(self, monkeypatch, threshold):
        monkeypatch.setattr(dynamics, "_SWITCH_THRESHOLD", threshold)
        tr = self._both(linear_diag_field(), (5.0, 0.5, 0.5), IntegratorConfig(t_end=3.0))
        assert tr.chart_log

    def test_near_window_never_excludes_a_hit(self):
        # points on the window's edge, along a target's own direction, are
        # as close to it as the window allows; the exact test must miss them
        rng = np.random.default_rng(21)
        for _ in range(2000):
            tgt = rng.standard_normal((3, 3))
            tgt *= rng.uniform(0.3, 1.0, size=(3, 1)) / np.linalg.norm(tgt, axis=1, keepdims=True)
            radius = 10.0 ** rng.uniform(-9, -1)
            lo, hi = dynamics._near_window(tgt, radius)
            norms = dynamics._row_norm(tgt)
            for edge, t in ((lo, tgt[np.argmin(norms)]), (hi, tgt[np.argmax(norms)])):
                u = t / np.linalg.norm(t) * edge
                u_norm = math.sqrt(float(u.dot(u)))
                if u_norm < lo or u_norm > hi:
                    assert not np.any(dynamics._row_norm(u - tgt) <= radius)

    def test_empty_and_nan_targets(self):
        lo, hi = dynamics._near_window(np.empty((0, 3)), 1e-3)
        assert lo > hi  # every point lies outside
        lo, hi = dynamics._near_window(np.array([[np.nan, 0.0, 0.0], [0.5, 0.0, 0.0]]), 1e-3)
        assert math.isnan(lo) and math.isnan(hi)  # every point lies inside


class TestDotForms:
    # the stepper and the variational field use ndarray.dot where the
    # reference stepper used ``@`` and np.linalg.norm

    def test_error_norm_equals_linalg_norm_bitwise(self):
        rng = np.random.default_rng(11)
        for n in (3, 12):
            for _ in range(2000):
                e = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3)
                assert math.sqrt(float(e.dot(e))) / math.sqrt(n) == \
                    float(np.linalg.norm(e) / math.sqrt(n))

    def test_dot_equals_matmul_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            for rows in range(1, 8):
                k = rng.standard_normal((7, 12)) * 10.0 ** rng.uniform(-5, 5, size=(7, 1))
                a = rng.standard_normal(rows)
                assert a.dot(k[:rows]).tobytes() == (a @ k[:rows]).tobytes()
            frame, jac = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
            assert frame.dot(jac.T).tobytes() == (frame @ jac.T).tobytes()
            out = np.empty(12)
            np.dot(frame, jac.T, out=out[3:].reshape(3, 3))
            assert out[3:].tobytes() == frame.dot(jac.T).ravel().tobytes()

    def test_nonfinite_stage_makes_its_error_column_nonfinite(self):
        # the stepper's one finiteness test: a non-finite entry of any stage,
        # the one with weight 0 included, reaches the error estimate
        rng = np.random.default_rng(13)
        for n in (3, 12):
            for stage in range(7):
                for bad in (np.inf, -np.inf, np.nan):
                    kmat = rng.standard_normal((7, n))
                    col = rng.integers(n)
                    kmat[stage, col] = bad
                    with np.errstate(invalid="ignore"):
                        err = 0.1 * _DP_E.dot(kmat)
                    assert not math.isfinite(err[col])


class TestCollapseNote:
    def test_ricci_collapse_carries_the_message(self):
        tr = integrate_with_events(ricci_field, (1.0, 2.0, 3.0), IntegratorConfig(t_end=5.0))
        assert tr.termination == "step_size_collapse"
        assert tr.note == "step size 9.620e-13 fell below min_step at t=0.763695"

    def test_other_terminations_have_no_note(self):
        tr = integrate_with_events(decay_field, (1.0, 0.0, 0.0), IntegratorConfig(t_end=1.0))
        assert tr.termination == "reached_t_end" and tr.note == ""
        tr = integrate_compactified(model_poly_field(), (1.2, 1.2, 1.2), IntegratorConfig(t_end=1.0))
        assert tr.termination == "reached_t_end" and tr.note == ""


class TestWorkCounters:
    @staticmethod
    def _check(work, accepted=None):
        assert work["evaluations"] == work["steppers"] + 6 * (work["accepted"] + work["rejected"])
        if accepted is not None:
            assert work["accepted"] == accepted

    def test_integrate_with_events(self):
        for field, x0, radius in ((ricci_field, (1.0, 2.0, 3.0), None),
                                  (poly_rhs, (1.0, 1.0, 1.0), 1e6),
                                  (nan_beyond_field, (1.0, 0.5, 0.2), None)):
            calls = []

            def counted(y, field=field):
                calls.append(1)
                return field(y)

            tr = integrate_with_events(counted, x0, IntegratorConfig(t_end=5.0),
                                       blow_up_radius=radius)
            assert tr.work["steppers"] == 1
            assert tr.work["evaluations"] == len(calls)
            self._check(tr.work, accepted=len(tr.times) - 1)
        assert tr.work["rejected"] > 0

    def test_compactified_counts_every_chart(self):
        tr = integrate_compactified(linear_diag_field(), (5.0, 0.5, 0.5),
                                    IntegratorConfig(t_end=3.0))
        assert tr.work["steppers"] == len(tr.chart_log) + 1 >= 2
        self._check(tr.work, accepted=len(tr.times) - 1)

    def test_lyapunov_counts_every_segment(self):
        A = np.diag([-1.0, -2.0, -3.0])
        spec = lyapunov_spectrum(lambda x: A @ x, (0.3, 0.3, 0.3),
                                 IntegratorConfig(t_end=3.0), 0.1, jacobian=lambda x: A)
        assert spec.work["steppers"] == len(spec.history) == 30
        self._check(spec.work)

    def test_defaults_to_empty(self):
        tr = Trajectory(times=np.array([0.0]), states=np.zeros((1, 3)),
                        termination="reached_t_end")
        assert tr.work == {}


def _finite_once(func):
    """``func`` at its first call, NaN at every later one: the run collapses."""
    calls = []

    def wrapped(x):
        calls.append(1)
        return func(x) if len(calls) == 1 else np.full(np.shape(x), np.nan)
    return wrapped


def _raising(x):
    raise KeyError("field failure")


_A_DIAG = np.diag([-1.0, -2.0, -3.0])

# each integrator ends normally, in a step-size collapse, or with the field's
# own exception; the error state must come back as it was in every case
_INTEGRATOR_RUNS = {
    "events": lambda field: integrate_with_events(
        field, (1.0, 0.5, 0.2), IntegratorConfig(t_end=1.0)),
    "compactified": lambda field: integrate_compactified(
        PolyField3(func=field, jac=poly_jacobian, degree=2), (1.2, 1.2, 1.2),
        IntegratorConfig(t_end=1.0)),
    "lyapunov": lambda field: lyapunov_spectrum(
        field, (0.3, 0.3, 0.3), IntegratorConfig(t_end=1.0), 0.1, jacobian=lambda x: _A_DIAG),
}


class TestErrorState:
    # the integrators enter np.errstate(all="ignore") once per run and the
    # stepper itself sets nothing

    @staticmethod
    def _outside():
        # a state no integrator would set, so a leak or a reset shows
        return np.errstate(divide="warn", over="raise", under="print", invalid="call")

    @pytest.mark.parametrize("integrator", sorted(_INTEGRATOR_RUNS))
    def test_restored_after_a_normal_run(self, integrator):
        seen = []

        def field(x):
            seen.append(np.geterr())
            return poly_rhs(x) if integrator == "compactified" else -np.asarray(x, dtype=float)

        with self._outside():
            before = np.geterr()
            result = _INTEGRATOR_RUNS[integrator](field)
            assert np.geterr() == before
        assert getattr(result, "termination", "reached_t_end") == "reached_t_end"
        assert seen and all(err == dict.fromkeys(before, "ignore") for err in seen)

    @pytest.mark.parametrize("integrator", sorted(_INTEGRATOR_RUNS))
    def test_restored_after_a_collapse(self, integrator):
        base = poly_rhs if integrator == "compactified" else (lambda x: -np.asarray(x, dtype=float))
        with self._outside():
            before = np.geterr()
            result = _INTEGRATOR_RUNS[integrator](_finite_once(base))
            assert np.geterr() == before
        if integrator == "lyapunov":
            assert result.note.startswith("base trajectory diverged: repeated rejected steps")
        else:
            assert result.termination == "step_size_collapse"

    @pytest.mark.parametrize("integrator", sorted(_INTEGRATOR_RUNS))
    def test_restored_after_the_field_raises(self, integrator):
        with self._outside():
            before = np.geterr()
            with pytest.raises(KeyError, match="field failure"):
                _INTEGRATOR_RUNS[integrator](_raising)
            assert np.geterr() == before


class TestBlowUpRadius:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_nonfinite(self, radius):
        with pytest.raises(ValueError):
            integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.1),
                                  blow_up_radius=radius)
