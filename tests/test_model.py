import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagflow.model import (
    MetricParams,
    _ricci_component,
    einstein_residual,
    flow_rhs,
    invariant_directions,
    invariant_ray_parameter,
    line_direction,
    poly_jacobian,
    poly_rhs,
    reparam_check,
    ricci_components,
    tangency_defect,
)

SQRT2 = math.sqrt(2.0)
T = 2.0 + 2.0 * SQRT2
RHO1 = math.sqrt(2.0 + T * T)

metric_values = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
state_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestRicciComponents:
    def test_round_metric(self):
        # hand substitution: 1/2 + (1 - 1 - 1)/12 = 5/12
        r = ricci_components((1.0, 1.0, 1.0))
        assert r == pytest.approx((5 / 12, 5 / 12, 5 / 12), abs=1e-15)

    def test_stretched_metric(self):
        r = ricci_components((1.0, 2.0, 1.0))
        assert r == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_einstein_ray_metric(self):
        # r = ((2-sqrt2)/6, sqrt2/3, (2-sqrt2)/6), proportional to the metric
        r = ricci_components((1.0, T, 1.0))
        c = (2.0 - SQRT2) / 6.0
        assert r == pytest.approx((c, SQRT2 / 3.0, c), abs=1e-14)
        assert r.r13 / T == pytest.approx(c, abs=1e-14)

    @pytest.mark.parametrize("bad", [(0.0, 1, 1), (1, -2, 1), (1, 1, float("nan"))])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ricci_components(bad)
        with pytest.raises(ValueError):
            MetricParams.of(bad)

    @given(st.tuples(metric_values, metric_values, metric_values))
    @settings(deadline=None)
    def test_permutation_equivariance(self, m):
        base = np.array(ricci_components(m))
        for perm in itertools.permutations(range(3)):
            permuted = tuple(m[i] for i in perm)
            expected = tuple(base[i] for i in perm)
            assert ricci_components(permuted) == pytest.approx(expected, rel=1e-12)

    @given(st.tuples(metric_values, metric_values, metric_values),
           st.floats(min_value=0.2, max_value=4.0))
    @settings(deadline=None)
    def test_inverse_scaling(self, m, c):
        scaled = ricci_components(tuple(c * v for v in m))
        assert np.asarray(scaled) == pytest.approx(np.asarray(ricci_components(m)) / c,
                                                   rel=1e-11)


class TestRicciAtExtremeScales:
    # the products of two components overflow near 1e155 and underflow
    # near 1e-155 unless the metric is scaled first

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-300, 1e300, 1e308])
    def test_round_metric_at_any_scale(self, scale):
        r = ricci_components((scale, scale, scale))
        assert r == pytest.approx((5 / 12 / scale,) * 3, rel=1e-15, abs=0)

    def test_unequal_components_at_large_scale(self):
        # exact values 13/36 and 1/4 at (3, 1, 1), divided by the scale
        r = ricci_components((3e155, 1e155, 1e155))
        assert r == pytest.approx((13 / 36 / 1e155, 0.25 / 1e155, 0.25 / 1e155), rel=1e-15, abs=0)

    def test_bitwise_equal_to_unscaled_formula_in_range(self):
        grid = np.geomspace(1e-3, 1e3, 13)
        rng = np.random.default_rng(3)
        points = list(itertools.product(grid, repeat=3)) + list(rng.uniform(1e-3, 1e3, (300, 3)))
        for a, b, c in points:
            a, b, c = float(a), float(b), float(c)
            unscaled = (_ricci_component(a, b, c), _ricci_component(b, a, c),
                        _ricci_component(c, a, b))
            assert tuple(ricci_components((a, b, c))) == unscaled

    @staticmethod
    def _rational(a, b, c):
        # r_a in exact rational arithmetic, rounded once; beyond the float
        # range, an infinity of its sign
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        r = 1 / (2 * a) + (a / (b * c) - b / (a * c) - c / (a * b)) / 12
        try:
            return float(r)
        except OverflowError:
            return math.inf if r > 0 else -math.inf

    def _assert_rational(self, a, b, c):
        # each result is the exact value where that is representable, and
        # infinite where not
        got = ricci_components((a, b, c))
        for value, slots in zip(got, ((a, b, c), (b, a, c), (c, a, b))):
            want = self._rational(*slots)
            assert value == (want if math.isinf(want) else pytest.approx(want, rel=1e-12, abs=0))

    def test_log_uniform_triples_match_rational_arithmetic(self):
        # components up to the whole float range apart
        for a, b, c in 10.0 ** np.random.default_rng(23).uniform(-307, 307, (1000, 3)):
            self._assert_rational(float(a), float(b), float(c))

    @pytest.mark.parametrize("triple", [
        (1e300, 1e300, 1e-30), (1e300, 1e300, 1e-10), (1e155, 1.0, 1e-155),
        (5e-324, 5e-324, 5e-324), (1.7976931348623157e308, 5e-324, 1.0),
    ])
    def test_far_apart_triples_match_rational_arithmetic(self, triple):
        self._assert_rational(*triple)


class TestFlowRhs:
    def test_round_metric(self):
        assert flow_rhs((1.0, 1.0, 1.0)) == pytest.approx([-5 / 6] * 3, abs=1e-15)

    def test_scaling(self):
        # r scales as 1/c, so the velocity at 2*(1,1,1) is half the base one
        assert flow_rhs((2.0, 2.0, 2.0)) == pytest.approx([-5 / 12] * 3, abs=1e-15)

    def test_stretched_metric(self):
        assert flow_rhs((1.0, 2.0, 1.0)) == pytest.approx([-2 / 3] * 3, abs=1e-15)


class TestPolyRhs:
    def test_round_point(self):
        assert poly_rhs((1.0, 1.0, 1.0)) == pytest.approx([5.0, 5.0, 5.0], abs=0)

    def test_einstein_ray_point(self):
        v = poly_rhs((1.0, T, 1.0))
        assert v == pytest.approx([4 * SQRT2, 16 + 8 * SQRT2, 4 * SQRT2], abs=1e-13)
        # output parallel to input direction
        x = np.array([1.0, T, 1.0])
        assert np.linalg.norm(np.cross(v, x)) == pytest.approx(0.0, abs=1e-12)

    def test_origin(self):
        assert poly_rhs((0.0, 0.0, 0.0)) == pytest.approx([0.0, 0.0, 0.0], abs=0)

    def test_batched_evaluation_matches_scalar(self):
        pts = np.array([[1.0, 1.0, 1.0], [0.3, -1.2, 2.0], [0.0, 0.0, 0.0]])
        batch = poly_rhs(pts)
        assert batch.shape == (3, 3)
        for row, x in zip(batch, pts):
            assert row == pytest.approx(poly_rhs(x), abs=0)

    def test_tuple_point_gives_floats_equal_to_batched_row_bitwise(self):
        # the tuple branch computes in Python floats, the batched one in
        # arrays; both must round alike at any magnitude, ints included
        rng = np.random.default_rng(150)
        pts = rng.choice([-1.0, 1.0], size=(400, 3)) * 10.0 ** rng.uniform(-150, 150, (400, 3))
        pts[:20] = rng.uniform(-3.0, 3.0, (20, 3))
        ints = [tuple(int(v) for v in row) for row in rng.integers(-10**6, 10**6, (50, 3))]
        # int arithmetic would square 2**53 + 1 exactly and round the sum differently
        ints += [(2**53 + 1, 3, 5), (0, 0, 0), (1, -2, 3)]
        batched = np.concatenate([poly_rhs(pts), poly_rhs(np.array(ints, dtype=float))])
        assert batched.shape == (len(pts) + len(ints), 3)
        for x, row in zip(pts.tolist() + ints, batched):
            single = poly_rhs(tuple(x))
            assert type(single) is tuple and all(type(v) is float for v in single)
            assert np.array(single).tobytes() == row.tobytes()
            assert poly_rhs(np.array(x, dtype=float)).tobytes() == row.tobytes()

    @given(st.tuples(state_values, state_values, state_values),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(deadline=None)
    def test_degree_two_homogeneity(self, x, c):
        # a tuple point gives a tuple, so the scaling goes through an array
        assert poly_rhs(tuple(c * v for v in x)) == pytest.approx(
            c * c * np.array(poly_rhs(x)), rel=1e-10, abs=1e-10)

    @given(st.tuples(state_values, state_values, state_values))
    @settings(deadline=None)
    def test_permutation_equivariance(self, x):
        base = poly_rhs(x)
        for perm in itertools.permutations(range(3)):
            permuted = tuple(x[i] for i in perm)
            expected = tuple(base[i] for i in perm)
            assert poly_rhs(permuted) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestPolyJacobian:
    def test_round_point(self):
        expected = np.array([[2.0, 4.0, 4.0], [4.0, 2.0, 4.0], [4.0, 4.0, 2.0]])
        assert poly_jacobian((1.0, 1.0, 1.0)) == pytest.approx(expected, abs=0)

    def test_origin_is_zero(self):
        assert poly_jacobian((0.0, 0.0, 0.0)) == pytest.approx(np.zeros((3, 3)), abs=0)

    def test_single_point_equals_batched_row_bitwise(self):
        # one ndarray path serves every input: a tuple, list or 1-D point
        # gives a C-contiguous (3, 3) array with the bytes of its batched row
        rng = np.random.default_rng(140)
        pts = rng.choice([-1.0, 1.0], size=(400, 3)) * 10.0 ** rng.uniform(-150, 150, (400, 3))
        pts[:20] = rng.uniform(-3.0, 3.0, (20, 3))
        batched = poly_jacobian(pts)
        assert batched.shape == (400, 3, 3)
        for x, row in zip(pts, batched):
            for single in (poly_jacobian(x), poly_jacobian(x.tolist()),
                           poly_jacobian(tuple(x.tolist()))):
                assert type(single) is np.ndarray and single.dtype == np.float64
                assert single.shape == (3, 3) and single.flags.c_contiguous
                assert single.tobytes() == row.tobytes()

    @pytest.mark.parametrize("x", [(1, -2, 3), [0, 0, 7], np.array([4, 5, -6]),
                                   (2**53 + 1, 3, 5)])
    def test_single_point_accepts_ints(self, x):
        # integer points convert as a float batch would, tuples included
        expected = poly_jacobian(np.array([x], dtype=float))[0]
        got = poly_jacobian(x)
        assert type(got) is np.ndarray and got.shape == (3, 3) and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20240711)
        h = 1e-5
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=3)
            fd = np.empty((3, 3))
            for j in range(3):
                xp = x.copy(); xp[j] += h
                xm = x.copy(); xm[j] -= h
                fd[:, j] = (poly_rhs(xp) - poly_rhs(xm)) / (2 * h)
            assert np.max(np.abs(poly_jacobian(x) - fd)) < 1e-6


class TestReparamCheck:
    # poly == 12 * l12*l13*l23 * ricci holds exactly in real arithmetic

    @pytest.mark.parametrize("m, tol", [
        ((1.0, 1.0, 1.0), 1e-12),
        ((1.0, 2.0, 1.0), 1e-12),
        ((0.3, 1.7, 2.2), 1e-10),
    ])
    def test_pinned_points(self, m, tol):
        assert reparam_check(m) <= tol

    @given(st.tuples(metric_values, metric_values, metric_values))
    @settings(deadline=None)
    def test_identity_everywhere(self, m):
        scale = max(1.0, float(np.max(np.abs(poly_rhs(m)))))
        assert reparam_check(m) / scale < 1e-10


class TestInvariantDirections:
    def test_paper_coordinates(self):
        dirs = invariant_directions()
        assert dirs[0] == pytest.approx((0.198756, 0.959682, 0.198756), abs=1e-6)
        assert dirs[1] == pytest.approx((0.577350, 0.577350, 0.577350), abs=1e-6)
        assert dirs[2] == pytest.approx((0.198756, 0.198756, 0.959682), abs=1e-6)
        assert dirs[3] == pytest.approx((0.959682, 0.198756, 0.198756), abs=1e-6)

    def test_unit_norm_positive(self):
        for d in invariant_directions():
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-14)
            assert np.all(d > 0)

    def test_ray_parameter_closed_form(self):
        assert invariant_ray_parameter() == pytest.approx(2 + 2 * SQRT2, abs=0)

    def test_line_direction_validates(self):
        with pytest.raises(ValueError):
            line_direction(0)
        with pytest.raises(ValueError):
            line_direction(5)


class TestTangencyDefect:
    def test_invariant_rays(self):
        for d in invariant_directions():
            assert tangency_defect(d) <= 1e-13

    def test_known_off_ray_value(self):
        # poly(1,1,2) = (8,8,8); projecting off (1,1,2)/sqrt6 leaves 4*sqrt3/9
        d = np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)
        assert tangency_defect(d) == pytest.approx(4 * math.sqrt(3) / 9, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            tangency_defect((1.0, 1.0, 1.0))

    def test_lattice_directions_not_invariant(self):
        # of the 26 sign-vectors with entries in {-1,0,1}, only +-(1,1,1)
        # span invariant lines (the field is permutation-equivariant but not
        # sign-equivariant); all 24 others show a defect above 0.1
        invariant = {(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)}
        count = 0
        for entry in itertools.product((-1.0, 0.0, 1.0), repeat=3):
            if entry == (0.0, 0.0, 0.0):
                continue
            if entry in invariant:
                assert tangency_defect(np.array(entry) / math.sqrt(3.0)) <= 1e-13
                continue
            d = np.array(entry) / np.linalg.norm(entry)
            assert tangency_defect(d) > 0.1
            count += 1
        assert count == 24


class TestEinsteinResidual:
    def test_round_metric(self):
        c, res = einstein_residual((1.0, 1.0, 1.0))
        assert c == pytest.approx(5 / 12, abs=1e-14)
        assert res <= 1e-14

    def test_einstein_ray_metric(self):
        c, res = einstein_residual((1.0, T, 1.0))
        assert c == pytest.approx((2 - SQRT2) / 6, abs=1e-13)
        assert res <= 1e-13

    def test_non_einstein_metric(self):
        c, res = einstein_residual((1.0, 2.0, 1.0))
        assert c == pytest.approx(2 / 9, abs=1e-14)
        assert res == pytest.approx(1 / 9, abs=1e-14)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 10.0])
    def test_residual_vanishes_along_rays(self, scale):
        for d in invariant_directions():
            _, res = einstein_residual(scale * d)
            assert res <= 1e-12
