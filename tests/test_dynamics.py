import math

import numpy as np
import pytest

from flagflow.compactify import PolyField3, ball_projection, chart_coords, sphere_from_ambient
from flagflow.compactify import compactified_field_array, compactified_jacobian, model_poly_field
from flagflow.dynamics import (
    IntegratorConfig,
    Trajectory,
    distance_to_line_ball,
    integrate_compactified,
    integrate_with_events,
    lyapunov_spectrum,
    ricci_field,
)
from flagflow.dynamics import MAX_LYAPUNOV_SEGMENTS
from flagflow.model import flow_rhs, invariant_directions, poly_rhs


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
        rhs = ricci_field()
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(0.1, 5.0, size=3)
            assert np.array_equal(rhs(m), flow_rhs(m))

    def test_outside_octant_gives_nonfinite_without_raising(self):
        with np.errstate(all="ignore"):
            v = ricci_field()(np.array([0.0, 1.0, 1.0]))
        assert not np.all(np.isfinite(v))


class TestIntegrate:
    def test_exponential_decay(self):
        tr = integrate_with_events(decay_field, (1.0, 0.0, 0.0), IntegratorConfig(t_end=1.0))
        assert tr.termination == "reached_t_end"
        assert tr.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_metric_flow_diagonal_closed_form(self):
        # on the diagonal the metric flow collapses as c(t) = sqrt(1 - 5t/3)
        tr = integrate_with_events(ricci_field(), (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.3))
        assert tr.final_state[0] == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_quadratic_flow_diagonal_closed_form(self):
        # on the diagonal the quadratic flow blows up as c(t) = 1/(1 - 5t)
        tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.1))
        assert tr.final_state[0] == pytest.approx(2.0, abs=1e-7)

    def test_diagonal_invariance_is_exact(self):
        for field, t_end in ((poly_rhs, 0.15), (ricci_field(), 0.3)):
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

    def test_chart_switching_and_threshold_audit(self):
        # a linear diagnostic field drives trajectories from the x-dominant
        # chart to the z-dominant one; the final point must not depend on
        # the switching threshold
        lin = linear_diag_field()
        finals = {}
        for threshold in (0.3, 0.4):
            tr = integrate_compactified(lin, (5.0, 0.5, 0.5), IntegratorConfig(t_end=3.0),
                                        switch_threshold=threshold)
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

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0),
                              IntegratorConfig(t_end=1.0), 0.0, jacobian=lambda x: -np.eye(3))

    def test_rejects_too_many_segments(self):
        renorm_dt = 0.1
        cfg = IntegratorConfig(t_end=2.0 * MAX_LYAPUNOV_SEGMENTS * renorm_dt)
        with pytest.raises(ValueError):
            lyapunov_spectrum(decay_field, (1.0, 0.0, 0.0), cfg, renorm_dt,
                              jacobian=lambda x: -np.eye(3))


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
