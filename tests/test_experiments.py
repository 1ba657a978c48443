import dataclasses
import functools
import math

import numpy as np
import pytest

from flagflow import compactify, experiments
from flagflow.dynamics import distance_to_line_ball, lyapunov_spectrum
from flagflow.experiments import (
    classify_limit,
    cylinder_basin,
    lyapunov_exponent_table,
    no_interior_equilibria_scan,
    run_to_limit,
)
from flagflow.model import (
    einstein_residual,
    invariant_directions,
    line_direction,
    poly_jacobian,
    poly_rhs,
)

# frozen from the resolution-400 grid + descent oracle; the minimum sits on
# an interior direction of the (1, t, 1) family near t ~ 6.3
OCTANT_MIN_BASELINE = 1.049885949


def sequential_polish(d):
    """Reference octant polish: one projected-gradient descent for one start."""
    d = d / np.linalg.norm(d)
    f = float(poly_rhs(d) @ poly_rhs(d))
    for _ in range(200):
        p = poly_rhs(d)
        g = 2.0 * poly_jacobian(d).T @ p
        g_t = g - (g @ d) * d
        gnorm = float(np.linalg.norm(g_t))
        if gnorm < 1e-12:
            break
        alpha = 0.1 / (1.0 + gnorm)
        improved = False
        for _ in range(40):
            cand = np.clip(d - alpha * g_t, 0.0, None)
            norm = float(np.linalg.norm(cand))
            if norm > 0.0:
                cand = cand / norm
                fc = float(poly_rhs(cand) @ poly_rhs(cand))
                if fc < f - 1e-18:
                    d, f = cand, fc
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            break
    return math.sqrt(f)


class TestNoInteriorEquilibriaScan:
    @pytest.mark.parametrize("resolution", [200, 400])
    def test_batched_polish_matches_sequential_reference(self, resolution):
        dirs = experiments._octant_grid(resolution)
        order = np.argsort(np.linalg.norm(poly_rhs(dirs), axis=1), kind="stable")[:40]
        batched = experiments._polish_octant_minima(dirs[order])
        reference = [sequential_polish(dirs[i]) for i in order]
        # the batch takes every dot product through the same BLAS calls as
        # the reference, so the minima agree bit for bit; a 1e-12 tolerance
        # would miss a changed line search, which moves them by an ulp
        assert batched.tolist() == reference


    def test_spot_value_diagonal(self):
        d = np.ones(3) / math.sqrt(3.0)
        assert np.linalg.norm(poly_rhs(d)) == pytest.approx(5.0 / math.sqrt(3.0), abs=1e-12)

    def test_spot_value_corner(self):
        assert np.linalg.norm(poly_rhs((1.0, 0.0, 0.0))) == pytest.approx(
            math.sqrt(3.0), abs=1e-12)

    def test_minimum_positive_and_stable(self):
        v200 = no_interior_equilibria_scan(200)
        v400 = no_interior_equilibria_scan(400)
        assert v400 > 0.0
        assert abs(v200 - v400) / v400 < 0.05

    def test_regression_baseline(self):
        assert no_interior_equilibria_scan(400) == pytest.approx(
            OCTANT_MIN_BASELINE, abs=1e-6)

    def test_rejects_coarse_resolution(self):
        with pytest.raises(ValueError):
            no_interior_equilibria_scan(49)

    def test_rejects_resolution_above_cap(self):
        with pytest.raises(ValueError):
            no_interior_equilibria_scan(experiments.MAX_SCAN_RESOLUTION + 1)


class TestCylinderBasin:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cylinder_basin(2, 0.2, 0.6, 10, 1)
        with pytest.raises(ValueError):
            cylinder_basin(2, 0.05, 0.4, 10, 1)
        with pytest.raises(ValueError):
            cylinder_basin(2, 0.05, 0.6, 0, 1)

    def test_sample_count_upper_bound(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sample ran")
        monkeypatch.setattr(experiments, "integrate_compactified", fail)
        with pytest.raises(ValueError, match="sample count"):
            cylinder_basin(2, 0.05, 0.6, experiments.MAX_BASIN_SAMPLES + 1, 1)

    def test_delta_upper_bound(self):
        # at the cap the launch band [delta / sqrt(1 + delta^2), 0.98] is
        # still open; just above it the band closes
        delta = experiments.MAX_BASIN_DELTA
        rep = cylinder_basin(2, 0.05, delta, 2, 1)
        for r in rep.records:
            height = float(np.array(r.start) @ line_direction(2))
            assert delta / math.hypot(1.0, delta) - 1e-12 <= height <= 0.98 + 1e-12
        for bad in (4.91, 5.0, 1e300):
            with pytest.raises(ValueError):
                cylinder_basin(2, 0.05, bad, 1, 1)

    def test_diagonal_tube_fully_converges(self):
        rep = cylinder_basin(2, 0.05, 0.6, 25, 7)
        assert rep.converged_fraction == 1.0
        assert rep.max_line_deviation < 0.05
        assert all(r.termination == "converged_to_point" for r in rep.records)

    def test_saddle_tube_does_not_converge_to_its_ray(self):
        # the ray equilibrium has an unstable direction inside the equator,
        # so tube samples settle elsewhere; this is the honest outcome
        rep = cylinder_basin(1, 0.05, 0.6, 25, 7)
        assert rep.converged_fraction == 0.0
        assert rep.max_line_deviation > 0.05
        diag = line_direction(2)
        settled_on_diag = sum(
            1 for r in rep.records
            if r.termination == "converged_to_point"
            and np.linalg.norm(np.array(r.end) - diag) < 1e-3)
        assert settled_on_diag >= 1

    def test_saddle_tubes_agree_under_permutation(self):
        reports = {j: cylinder_basin(j, 0.05, 0.6, 25, 7) for j in (1, 3, 4)}
        fractions = {j: r.converged_fraction for j, r in reports.items()}
        assert len(set(fractions.values())) == 1

    def test_converged_limits_are_einstein(self):
        for line in (1, 2):
            rep = cylinder_basin(line, 0.05, 0.6, 12, 3)
            for r in rep.records:
                if r.termination != "converged_to_point":
                    continue
                direction = np.array(r.end) / np.linalg.norm(r.end)
                if np.all(direction > 0.0):
                    _, res = einstein_residual(direction)
                    assert res < 1e-6

    def test_deterministic_for_fixed_seed(self):
        a = cylinder_basin(2, 0.05, 0.6, 8, 11).to_dict()
        b = cylinder_basin(2, 0.05, 0.6, 8, 11).to_dict()
        assert a == b

    def test_seed_changes_samples(self):
        a = cylinder_basin(2, 0.05, 0.6, 8, 11).to_dict()
        c = cylinder_basin(2, 0.05, 0.6, 8, 12).to_dict()
        assert a != c

    @pytest.mark.parametrize("line, delta, seed", [(1, 0.6, 0), (2, 4.9, 2**64 + 3),
                                                   (3, 0.5, 2**32), (4, 1.7, 123)])
    def test_launch_points_are_those_of_default_rng(self, line, delta, seed):
        # each launch point as numpy.random.default_rng draws it
        d, e1, e2 = experiments._tube_frame(line)
        r_lo = delta / math.sqrt(1.0 + delta * delta)
        rep = cylinder_basin(line, 0.05, delta, 3, seed)
        for idx, r in enumerate(rep.records):
            rng = np.random.default_rng([seed, line, idx])
            height = rng.uniform(r_lo, 0.98)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            u0 = height * d + 0.05 * (math.cos(angle) * e1 + math.sin(angle) * e2)
            assert r.start == tuple(float(v) for v in u0)


class TestRngDoubles:
    """``_rng_doubles`` against ``numpy.random.default_rng``, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    def test_basin_draws_match_default_rng(self, seed):
        # idx 0..9,999 (the sample cap) on lines 1-4 in turn, over the
        # height bands of delta 0.5 to 4.9 and the angle range
        r_hi, angle_hi = 0.98, 2.0 * math.pi
        for idx in range(experiments.MAX_BASIN_SAMPLES):
            line = idx % 4 + 1
            delta = 0.5 + 4.4 * (idx % 7) / 6
            r_lo = delta / math.sqrt(1.0 + delta * delta)
            draws = experiments._rng_doubles((seed, line, idx))
            rng = np.random.default_rng([seed, line, idx])
            assert r_lo + (r_hi - r_lo) * next(draws) == rng.uniform(r_lo, r_hi), idx
            assert angle_hi * next(draws) == rng.uniform(0.0, angle_hi), idx

    def test_int_seed_stream_matches_default_rng(self):
        draws = experiments._rng_doubles((12345,))
        ours = np.array([next(draws) for _ in range(3000)])
        assert ours.tobytes() == np.random.default_rng(12345).random(3000).tobytes()

    def test_entropy_words_match_seed_sequence(self):
        # 2^200 + 5 is seven 32-bit words, so the pool takes words past the fourth
        for entropy in ([], [0], [2**200 + 5, 3, 2**70], [1, 2, 3, 4, 5, 6]):
            draws = experiments._rng_doubles(entropy)
            ours = np.array([next(draws) for _ in range(50)])
            assert ours.tobytes() == np.random.default_rng(entropy).random(50).tobytes()


@pytest.fixture(scope="module")
def certified_and_plain():
    # lines 1-4 x 25 samples (seed 7), with the certified stops and with
    # every equilibrium a target of the two-point 1e-7 rule, as before them
    args = (0.05, 0.6, 25, 7)
    certified = {j: cylinder_basin(j, *args) for j in (1, 2, 3, 4)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_stops", lambda: (_census_directions(), ()))
        plain = {j: cylinder_basin(j, *args) for j in (1, 2, 3, 4)}
    return certified, plain


def _census_directions():
    return tuple(e.direction for e in experiments._census())


def _census_index(point):
    dists = [np.linalg.norm(np.array(point) - d) for d in _census_directions()]
    k = int(np.argmin(dists))
    return k, dists[k]


class TestCertifiedStops:
    def test_samples_land_where_the_plain_runs_land(self, certified_and_plain):
        certified, plain = certified_and_plain
        centers = [tuple(c.tolist()) for c, _ in experiments._stops()[1]]
        for j in (1, 2, 3, 4):
            for a, b in zip(certified[j].records, plain[j].records):
                assert a.start == b.start
                assert a.termination == b.termination == "converged_to_point"
                k, dist = _census_index(b.end)
                assert dist <= 1e-3
                # every sample stops in a certified set, at its census direction
                assert a.end in centers and _census_index(a.end) == (k, 0.0)
                assert a.converged == b.converged

    def test_fractions_and_deviations_agree(self, certified_and_plain):
        certified, plain = certified_and_plain
        for j in (1, 2, 3, 4):
            assert certified[j].converged_fraction == plain[j].converged_fraction
            assert certified[j].max_line_deviation == pytest.approx(
                plain[j].max_line_deviation, abs=1e-6)
        saddles = [certified[j] for j in (1, 3, 4)]
        assert len({r.converged_fraction for r in saddles}) == 1
        for r in saddles[1:]:
            assert r.max_line_deviation == pytest.approx(saddles[0].max_line_deviation,
                                                         rel=1e-12)

    def test_deviation_includes_the_certified_limit(self, certified_and_plain):
        certified, _ = certified_and_plain
        for j in (1, 2, 3, 4):
            for r in certified[j].records:
                assert r.max_deviation >= distance_to_line_ball(np.array(r.end), j)


@pytest.fixture(scope="module")
def table():
    return lyapunov_exponent_table(lines=(1, 2), t_max=300.0)


class TestLyapunovTable:

    def test_diagonal_ray_row(self, table):
        row = table.row(2, 1)
        assert row.converged
        assert all(v < 0.0 for v in row.exponents)
        assert row.exponents == pytest.approx((-5.0, -7.0, -7.0), abs=2e-2)

    def test_saddle_ray_row_exposes_positive_exponent(self, table):
        # the tangent flow along the ray sees the equilibrium's unstable
        # equator direction; the leading exponent is positive
        row = table.row(1, 1)
        assert row.exponents[0] > 0.0

    @pytest.mark.parametrize("renorm_dt", [0.05, 0.2])
    def test_diagonal_ray_sign_robust_to_cadence(self, renorm_dt):
        t = lyapunov_exponent_table(lines=(2,), renorm_dt=renorm_dt, t_max=300.0)
        row = t.row(2, 1)
        assert all(v < 0.0 for v in row.exponents)
        assert row.exponents == pytest.approx((-5.0, -7.0, -7.0), abs=3e-2)

    def test_rows_carry_work_counts(self, table):
        for row in table.rows:
            w = row.work
            assert set(w) == {"steppers", "evaluations", "accepted", "rejected",
                              "h_min", "h_max"}
            assert w["steppers"] == round(row.t_used / 0.1)
            assert w["evaluations"] == w["steppers"] + 6 * (w["accepted"] + w["rejected"])
            # no step is longer than a segment or than the base max_step 0.1
            assert 0.0 < w["h_min"] <= w["h_max"] <= 0.1

    def test_rows_are_permutation_equivariant(self):
        # swapping x1 and x2 maps ray 1, (1, 2+2*sqrt2, 1), onto line 4,
        # (2+2*sqrt2, 1, 1), and chart U1 onto U2, so the rows are the same run
        t = lyapunov_exponent_table(lines=(1, 4), charts=(1, 2), t_max=20.0)
        for a, b in (((1, 1), (4, 2)), ((1, 2), (4, 1))):
            ra, rb = t.row(*a), t.row(*b)
            assert (ra.exponents, ra.t_used, ra.converged, ra.work) == \
                (rb.exponents, rb.t_used, rb.converged, rb.work)

    @pytest.mark.parametrize("renorm_dt, t_max", [(7.0, 12.0), (0.6, 1.0), (0.3, 1.0)])
    def test_rejects_a_partial_last_segment(self, renorm_dt, t_max):
        # whole segments only, so a partial one would run past t_max
        with pytest.raises(ValueError, match="whole number of renorm_dt segments"):
            lyapunov_exponent_table(lines=(2,), renorm_dt=renorm_dt, t_max=t_max)

    @pytest.mark.parametrize("renorm_dt, t_max", [(0.1, 0.3), (0.1, 0.7), (0.3, 0.9)])
    def test_whole_segments_within_rounding_run_to_t_max(self, renorm_dt, t_max):
        # 0.3 / 0.1 is 2.9999999999999996 in floats: a whole number within 1e-9
        row = lyapunov_exponent_table(lines=(2,), renorm_dt=renorm_dt, t_max=t_max).row(2)
        assert row.t_used == pytest.approx(t_max, rel=1e-12)

    @staticmethod
    def _z0(line, chart):
        # the chart image of the table's base point on the ray
        return compactify.chart_coords(
            compactify.sphere_from_ambient(experiments._BASE_RADIUS * line_direction(line)),
            chart)

    @staticmethod
    def _line_run(line, chart, held, rel_tol, t_max):
        # the table's run of one row: held on the ray (field and Jacobian from
        # _held_on_ray), or the plain chart field with the per-point Jacobian
        f = compactify.model_poly_field()
        z0 = TestLyapunovTable._z0(line, chart)
        if held:
            field, jacobian = experiments._held_on_ray(f, chart, z0)
        else:
            field = functools.partial(compactify.compactified_field_array, f, chart)
            jacobian = functools.partial(compactify.compactified_jacobian, f, chart)
        cfg = dataclasses.replace(experiments._LYAPUNOV_CFG, rel_tol=rel_tol, t_end=t_max)
        return lyapunov_spectrum(field, z0, cfg, 0.1, jacobian=jacobian)

    @pytest.mark.parametrize("chart", [1, 2, 3])
    @pytest.mark.parametrize("line", [1, 2, 3, 4])
    def test_held_jacobian_equals_the_chart_jacobian_bit_for_bit(self, line, chart):
        # the held Jacobian rescales the two z3 entries of one evaluation; at
        # every z3 a run visits, and at a few far ones, that is the chart
        # Jacobian at (z0[0], z0[1], z3), in one array rewritten by each call
        f = compactify.model_poly_field()
        z0 = self._z0(line, chart)
        field, held = experiments._held_on_ray(f, chart, z0)
        returned, wrong = [], []

        def checked(z):
            got = held(z)
            want = compactify.compactified_jacobian(f, chart, (z0[0], z0[1], z[2]))
            if z[:2].tobytes() != z0[:2].tobytes() or got.tobytes() != want.tobytes():
                wrong.append(z.tolist())
            returned.append(got)
            return got

        cfg = dataclasses.replace(experiments._LYAPUNOV_CFG, t_end=2.0)
        lyapunov_spectrum(field, z0, cfg, 0.1, jacobian=checked)
        assert len(returned) > 100 and wrong == []
        assert all(j is returned[0] for j in returned)
        for z3 in (0.0, -0.0, -1.0, 5e-324, 1e300):
            z = np.array([z0[0], z0[1], z3])
            assert held(z).tobytes() == compactify.compactified_jacobian(f, chart, z).tobytes()

    def test_held_rows_equal_the_plain_field_bit_for_bit(self):
        # at the table's tolerance no step is long enough for the rounding
        # residue of (z1, z2) on a ray to move them, so holding the field and
        # the Jacobian changes no bit, in any chart
        rel_tol = experiments._LYAPUNOV_CFG.rel_tol
        t = lyapunov_exponent_table(charts=(1, 2, 3), t_max=5.0)
        for line in (1, 2, 3, 4):
            for chart in (1, 2, 3):
                row = t.row(line, chart)
                held = self._line_run(line, chart, True, rel_tol, 5.0)
                plain = self._line_run(line, chart, False, rel_tol, 5.0)
                assert row.exponents == tuple(plain.exponents.tolist())
                assert (row.t_used, row.converged, row.work) == \
                    (plain.t_used, plain.converged, plain.work)
                assert [(s, a.tolist()) for s, a in held.history] == \
                    [(s, a.tolist()) for s, a in plain.history]

    def test_table_tolerance_moves_no_exponent_by_1e_3(self):
        # the table runs at a looser rel_tol than 1e-7 for a third of the work;
        # it keeps each row within 1e-3 of the 1e-7 run and, like that run,
        # within 3.1e-3 of the exact spectrum (the running average's 1/t bias)
        r2 = math.sqrt(2.0)
        exact = {1: (16.0 + 4.0 * r2, -4.0 * r2, -(8.0 + 16.0 * r2)), 2: (-5.0, -7.0, -7.0)}
        table = lyapunov_exponent_table(lines=(1, 2), t_max=300.0)
        for line, spectrum in exact.items():
            row = table.row(line, 1)
            tight = self._line_run(line, 1, True, 1e-7, 300.0)
            assert row.converged and tight.converged
            assert row.exponents == pytest.approx(tight.exponents.tolist(), abs=1e-3)
            assert row.exponents == pytest.approx(spectrum, abs=3.1e-3)
            assert tight.exponents.tolist() == pytest.approx(spectrum, abs=3.1e-3)

    def test_held_saddle_row_stays_on_its_ray_at_a_loose_tolerance(self):
        # at rtol 1e-4 the steps reach 0.1 and the plain base leaves ray 4 for
        # the diagonal's basin; held, it keeps the saddle's unstable exponent
        # 6 sqrt2 - 4 = 4.485
        held = self._line_run(4, 1, True, 1e-4, 20.0)
        assert held.exponents[0] == pytest.approx(6.0 * math.sqrt(2.0) - 4.0, abs=0.05)
        assert self._line_run(4, 1, False, 1e-4, 20.0).exponents[0] < 0.0

    def test_row_lookup(self, table):
        with pytest.raises(KeyError):
            table.row(4, 1)


class TestClassifyLimit:
    def test_near_diagonal_start(self):
        res = classify_limit((1.2, 1.25, 1.2))
        assert res.kind == "normal_einstein"
        assert res.termination == "converged_to_point"

    def test_certified_stop_reports_the_census_direction(self):
        traj, states = run_to_limit((1.2, 1.25, 1.2))
        assert traj.note.startswith("entered the certified attraction set of (0.577350, ")
        diagonal = [e.direction for e in experiments._census()
                    if np.linalg.norm(e.direction - line_direction(2)) < 1e-12]
        assert len(diagonal) == 1
        assert traj.limit.tobytes() == states[-1].tobytes() == diagonal[0].tobytes()
        res = classify_limit((1.2, 1.25, 1.2))
        assert res.limit_direction.tobytes() == diagonal[0].tobytes()
        assert res.einstein_residual_at_limit < 1e-14

    def test_on_ray_start_with_radial_perturbation(self):
        d1 = invariant_directions()[0]
        res = classify_limit(2.01 * d1)
        assert res.kind == "einstein"
        assert res.einstein_residual_at_limit < 1e-8
        assert np.linalg.norm(res.limit_direction - d1) < 1e-4

    def test_exact_diagonal_start(self):
        res = classify_limit((1.5, 1.5, 1.5))
        assert res.kind == "normal_einstein"
        assert np.linalg.norm(res.limit_direction - line_direction(2)) <= 1e-9

    def test_far_start_matches_a_nearer_one(self):
        # |x|^2 overflows at 1e160, not at 1e150; both start next to the
        # direction (1, 0, 0) at infinity and settle at the same equilibrium
        far, near = classify_limit((1e160, 1.0, 1.0)), classify_limit((1e150, 1.0, 1.0))
        assert far.termination == near.termination == "converged_to_point"
        assert far.kind == near.kind
        assert far.limit_direction == pytest.approx(near.limit_direction, abs=1e-6)

    def test_rejects_invalid_metric(self):
        with pytest.raises(ValueError):
            classify_limit((1.0, -1.0, 1.0))
