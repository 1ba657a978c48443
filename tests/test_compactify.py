import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagflow import compactify
from flagflow.compactify import (
    MAX_GRID_RESOLUTION,
    PolyField3,
    attraction_certificate,
    ball_projection,
    ball_unprojection,
    best_chart,
    chart_coords,
    chart_equator_roots,
    chart_point_to_sphere,
    classify_equilibrium,
    compactified_field_array,
    compactified_jacobian,
    find_infinity_equilibria,
    model_poly_field,
    sphere_from_ambient,
)
from flagflow.model import invariant_directions, invariant_ray_parameter, poly_jacobian, poly_rhs

T = invariant_ray_parameter()


@pytest.fixture(scope="module")
def field():
    return model_poly_field()


@pytest.fixture(scope="module")
def census(field):
    return find_infinity_equilibria(field)


class TestBallProjection:
    def test_origin_fixed(self):
        assert ball_projection((0.0, 0.0, 0.0)) == pytest.approx((0, 0, 0), abs=0)

    def test_round_point(self):
        # Delta = sqrt(1+3) = 2
        assert ball_projection((1.0, 1.0, 1.0)) == pytest.approx((0.5, 0.5, 0.5), abs=1e-15)

    def test_limits_to_unit_sphere(self):
        u = ball_projection((1e6, 0.0, 0.0))
        assert u[0] > 0.999999
        assert np.linalg.norm(u) < 1.0

    def test_far_points_do_not_overflow(self):
        # beyond |x| ~ 1.3e154 the square |x|^2 overflows; such points map to x / |x|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ball_projection((1e300, 1.0, 1.0)).tolist() == [1.0, 1e-300, 1e-300]
            rows = ball_projection([[1e300, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
            y = sphere_from_ambient((1e300, 1.0, 1.0))
        assert rows.tolist() == [[1.0, 1e-300, 1e-300], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]]
        assert y.tolist() == [1.0, 1e-300, 1e-300, 1e-300]
        assert sphere_from_ambient((1e160, -1e160, 1e160)) == \
            pytest.approx([1 / math.sqrt(3.0), -1 / math.sqrt(3.0), 1 / math.sqrt(3.0),
                           1e-160 / math.sqrt(3.0)], rel=1e-15)

    def test_finite_squares_keep_the_plain_formula(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-5, 150, size=(500, 1))
        assert ball_projection(x).tobytes() == \
            (x / np.sqrt(1.0 + np.sum(x * x, axis=-1, keepdims=True))).tobytes()
        for p in x:
            delta = math.sqrt(1.0 + float(p @ p))
            assert sphere_from_ambient(p).tobytes() == \
                np.array([p[0] / delta, p[1] / delta, p[2] / delta, 1.0 / delta]).tobytes()

    def test_unprojection_inverts(self):
        assert ball_unprojection((0.5, 0.5, 0.5)) == pytest.approx((1, 1, 1), abs=1e-12)
        assert ball_unprojection((0.0, 0.0, 0.0)) == pytest.approx((0, 0, 0), abs=0)

    def test_unprojection_domain(self):
        with pytest.raises(ValueError):
            ball_unprojection((1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ball_unprojection((0.8, 0.8, 0.0))

    @given(st.tuples(*[st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)] * 3))
    @settings(deadline=None)
    def test_roundtrip(self, x):
        x = np.asarray(x)
        back = ball_unprojection(ball_projection(x))
        assert np.linalg.norm(back - x) <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestCharts:
    def test_chart_coords_round_direction(self):
        y = np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3.0)
        p = chart_coords(y, 1)
        assert (p[0], p[1], p[2]) == pytest.approx((1.0, 1.0, 0.0), abs=1e-15)

    def test_chart_center(self):
        p = chart_coords(np.array([1.0, 0.0, 0.0, 0.0]), 1)
        assert (p[0], p[1], p[2]) == (0.0, 0.0, 0.0)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            chart_coords(np.array([0.0, 1.0, 0.0, 0.0]), 1)

    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_roundtrip_on_sphere(self, chart):
        rng = np.random.default_rng(99)
        for _ in range(50):
            y = rng.normal(size=4)
            y /= np.linalg.norm(y)
            if abs(y[chart - 1]) < 0.1:
                continue
            if y[chart - 1] < 0:
                y = -y  # chart encodes the slot-positive representative
            p = chart_coords(y, chart)
            assert chart_point_to_sphere(chart, p) == pytest.approx(y, abs=1e-12)

    def test_best_chart(self):
        assert best_chart(sphere_from_ambient((10.0, 1.0, 1.0))) == 1
        assert best_chart(sphere_from_ambient((1.0, 1.0, 12.0))) == 3

    def test_invalid_chart_index(self):
        with pytest.raises(ValueError):
            chart_coords(np.array([1.0, 0.0, 0.0, 0.0]), 4)


def reference_chart_field(z1, z2, z3):
    """Independent brute-force evaluation of the chart-1 compactified field.

    Written straight from the chart formula with P evaluated at (1, z1, z2),
    bypassing the library's dispatch entirely.
    """
    p = poly_rhs(np.array([1.0, z1, z2]))
    return np.array([-z1 * p[0] + p[1], -z2 * p[0] + p[2], -z3 * p[0]])


class TestCompactifiedField:
    def test_vanishes_at_diagonal_equator_point(self, field):
        p = (1, 1.0, 1.0, 0.0)
        g = compactified_field_array(field, p[0], p[1:])
        assert g == pytest.approx((0.0, 0.0, 0.0), abs=1e-13)

    def test_vanishes_at_ray_equator_point(self, field):
        p = (1, T, 1.0, 0.0)
        g = compactified_field_array(field, p[0], p[1:])
        assert g == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_chart_center_value(self, field):
        # P(1,0,0) = (1,-1,-1), so the chart field is (-1,-1,0); checked
        # against the brute-force evaluator before freezing
        p = (1, 0.0, 0.0, 0.0)
        g = compactified_field_array(field, p[0], p[1:])
        assert g == pytest.approx(reference_chart_field(0.0, 0.0, 0.0), abs=0)
        assert g == pytest.approx((-1.0, -1.0, 0.0), abs=1e-15)

    def test_matches_reference_everywhere(self, field):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.uniform(-3, 3, size=3)
            g = compactified_field_array(field, 1, z)
            assert g == pytest.approx(reference_chart_field(*z), rel=1e-12, abs=1e-12)

    def test_equator_invariant(self, field):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            z1, z2 = rng.uniform(-8, 8, size=2)
            g = compactified_field_array(field, 1, (z1, z2, 0.0))
            assert g[2] == 0.0

    def test_interior_pushforward_consistency(self, field):
        # the chart flow is a positive time-rescaling of the ambient flow:
        # push the chart velocity to R^3 by finite differences of the chart
        # map and compare directions against poly_rhs
        rng = np.random.default_rng(2024)
        for _ in range(50):
            z = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 1.0)])
            x = np.array([1.0, z[0], z[1]]) / z[2]
            g = compactified_field_array(field, 1, z)
            h = 1e-7

            def ambient_of(zz):
                return np.array([1.0, zz[0], zz[1]]) / zz[2]

            push = np.zeros(3)
            for j in range(3):
                zp = z.copy(); zp[j] += h
                zm = z.copy(); zm[j] -= h
                push += g[j] * (ambient_of(zp) - ambient_of(zm)) / (2 * h)
            v = poly_rhs(x)
            factor = float(push @ v) / float(v @ v)
            assert factor > 0.0
            assert push == pytest.approx(factor * v, rel=1e-5, abs=1e-6)


class TestCompactifiedJacobian:
    @pytest.mark.parametrize("z", [(1.0, 1.0, 0.0), (T, 1.0, 0.0), (0.3, -1.4, 0.8),
                                   (1.0, 1.0, 0.5)])
    def test_matches_finite_differences(self, field, z):
        J = compactified_jacobian(field, 1, z)
        fd = np.empty((3, 3))
        h = 1e-6
        for j in range(3):
            zp = np.array(z); zp[j] += h
            zm = np.array(z); zm[j] -= h
            fd[:, j] = (compactified_field_array(field, 1, zp)
                        - compactified_field_array(field, 1, zm)) / (2 * h)
        assert J == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_known_spectrum_at_diagonal(self, field):
        eig = np.sort(np.linalg.eigvals(compactified_jacobian(field, 1, (1.0, 1.0, 0.0))).real)
        assert eig == pytest.approx([-7.0, -7.0, -5.0], abs=1e-12)


_A_LINEAR = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75], [-2.0, 1.0, 1.25]])


def _cubic(x):
    # x * P(x) componentwise, homogeneous of degree 3
    x = np.asarray(x, dtype=float)
    return x * poly_rhs(x)


def _cubic_jac(x):
    # diag(P(x)) + x J(x), the Jacobian of x * P(x); a tuple point, as the
    # chart formulas pass, becomes an array first
    x = np.asarray(x, dtype=float)
    return np.diag(poly_rhs(x)) + x[:, None] * poly_jacobian(x)


# one homogeneous field per degree; only the quadratic one is the model
HOMOGENEOUS_FIELDS = {
    1: PolyField3(func=lambda x: np.asarray(x, dtype=float) @ _A_LINEAR.T,
                  jac=lambda x: _A_LINEAR, degree=1),
    2: model_poly_field(),
    3: PolyField3(func=_cubic, jac=_cubic_jac, degree=3),
}


class TestJacobianOfEveryDegree:
    # the chart Jacobian reads the slot value P_slot(w) off J(w) by Euler's
    # identity, so it must hold for homogeneous fields of any degree

    @staticmethod
    def _points(chart):
        rng = np.random.default_rng(40 + chart)
        z = rng.uniform(-2.0, 2.0, size=(12, 3))
        z[:4, 2] = 0.0  # on the equator
        return z

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_matches_central_differences(self, degree, chart):
        f = HOMOGENEOUS_FIELDS[degree]
        h = 1e-6
        for z in self._points(chart):
            J = compactified_jacobian(f, chart, z)
            fd = np.empty((3, 3))
            for j in range(3):
                zp = z.copy(); zp[j] += h
                zm = z.copy(); zm[j] -= h
                fd[:, j] = (compactified_field_array(f, chart, zp)
                            - compactified_field_array(f, chart, zm)) / (2 * h)
            assert J == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_slot_value_equals_field(self, degree, chart):
        # the last diagonal entry is -P_slot(w)
        f = HOMOGENEOUS_FIELDS[degree]
        slot = chart - 1
        for z in self._points(chart):
            w = np.insert(z[:2], slot, 1.0)
            qs = float(f.func(w)[slot])
            assert -compactified_jacobian(f, chart, z)[2, 2] == pytest.approx(qs, rel=1e-13, abs=0)


# chart -> (slot, a, b): the ambient index fixed to 1 in w and the two that
# drive the first two chart velocities
_SLOT_INDEX = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}


def _slot_index_field(f, chart, z):
    """Copy of the slot-index chart field that the per-chart dispatch replaced."""
    z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    slot, a, b = _SLOT_INDEX[chart]
    w = [z1, z2]
    w.insert(slot, 1.0)
    q = f.func(np.array(w)).tolist()
    qs = q[slot]
    return np.array([-z1 * qs + q[a], -z2 * qs + q[b], -z3 * qs])


def _slot_index_jacobian(f, chart, z):
    """Reference copy of the slot-index chart Jacobian, from the ndarray point."""
    z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    slot, a, b = _SLOT_INDEX[chart]
    w = [z1, z2]
    w.insert(slot, 1.0)
    pj = f.jac(np.array(w)).tolist()
    js, ja, jb = pj[slot], pj[a], pj[b]
    qs = (js[slot] + z1 * js[a] + z2 * js[b]) / f.degree
    return np.array([
        -qs - z1 * js[a] + ja[a], -z1 * js[b] + ja[b], 0.0,
        -z2 * js[a] + jb[a], -qs - z2 * js[b] + jb[b], 0.0,
        -z3 * js[a], -z3 * js[b], -qs,
    ]).reshape(3, 3)


class TestChartDispatch:
    # the chart field unpacks P(w) in one branch per chart, and the chart
    # Jacobian reads J(w) through the slot indices; the slot-index formulas
    # are the reference, bit for bit, for every degree and input form

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_matches_slot_index_formula_bitwise(self, degree, chart):
        f = HOMOGENEOUS_FIELDS[degree]
        rng = np.random.default_rng(70 + 3 * degree + chart)
        z = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
        z[:20, 2] = 0.0
        z[20:40, 2] = -0.0
        for zi in z:
            for given in (zi, zi.tolist()):
                assert compactified_field_array(f, chart, given).tobytes() == \
                    _slot_index_field(f, chart, zi).tobytes()
                assert compactified_jacobian(f, chart, given).tobytes() == \
                    _slot_index_jacobian(f, chart, zi).tobytes()

    @pytest.mark.parametrize("chart", [1, 2, 3])
    @pytest.mark.parametrize("z", [
        (0.5, -2, 0),
        np.array([1, -3, 0]),
        np.array([0.25, -1.5, 0.75], dtype=np.float32),
        np.array([[0.3, 0.4, 0.5]])[0, ::-1],
    ])
    def test_other_input_forms_convert_as_before(self, field, chart, z):
        # tuples with ints, integer and float32 arrays and strided views
        assert compactified_field_array(field, chart, z).tobytes() == \
            _slot_index_field(field, chart, z).tobytes()
        assert compactified_jacobian(field, chart, z).tobytes() == \
            _slot_index_jacobian(field, chart, z).tobytes()


class TestTuplePointContract:
    # the chart field hands f.func a tuple point and unpacks any sequence it
    # returns, and the chart Jacobian hands f.jac a float ndarray point, so a
    # field that answers in ndarrays gives the same bytes as the model field

    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_tuple_and_array_fields_give_identical_bytes(self, field, chart):
        seen_func, seen_jac = [], []

        def func(x):
            seen_func.append(x)
            return np.array(poly_rhs(x))

        def jac(x):
            seen_jac.append(x)
            return poly_jacobian(x)

        wrapped = PolyField3(func=func, jac=jac, degree=2)
        rng = np.random.default_rng(80 + chart)
        z = rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(-100, 100, size=(300, 1))
        z[:20, 2] = 0.0
        z[20:40, 2] = -0.0
        for zi in z:
            assert isinstance(field.func(tuple(zi.tolist())), tuple)
            assert compactified_field_array(field, chart, zi).tobytes() == \
                compactified_field_array(wrapped, chart, zi).tobytes()
            assert compactified_jacobian(field, chart, zi).tobytes() == \
                compactified_jacobian(wrapped, chart, zi).tobytes()
        assert len(seen_func) == len(seen_jac) == len(z)
        assert all(type(x) is tuple and len(x) == 3 and all(type(v) is float for v in x)
                   for x in seen_func)
        assert all(type(x) is np.ndarray and x.shape == (3,) and x.dtype == np.float64
                   for x in seen_jac)


_Z = (0.3, -0.4, 0.5)
_Y = np.array([0.5, 0.5, 0.5, 0.5])

# every public entry point that takes a chart, called with that chart
CHART_ENTRY_POINTS = {
    "compactified_field_array": lambda c: compactified_field_array(model_poly_field(), c, _Z),
    "compactified_jacobian": lambda c: compactified_jacobian(model_poly_field(), c, _Z),
    "chart_coords": lambda c: chart_coords(_Y, c),
    "chart_point_to_sphere": lambda c: chart_point_to_sphere(c, _Z),
    "ball_from_chart": lambda c: compactify.ball_from_chart(c, _Z),
    "classify_equilibrium": lambda c: classify_equilibrium(
        model_poly_field(), c, 1.0, 1.0).eigenvalues,
    "chart_equator_roots": lambda c: np.array(
        chart_equator_roots(model_poly_field(), c, 32)),
}


class TestChartArgument:
    @pytest.mark.parametrize("entry", sorted(CHART_ENTRY_POINTS))
    @pytest.mark.parametrize("chart", [1.5, "1", 1.0, np.float64(2.0), 0, 4, np.int64(-1), None])
    def test_rejects_anything_but_an_integer_chart(self, entry, chart):
        with pytest.raises(ValueError, match="chart must be 1, 2 or 3"):
            CHART_ENTRY_POINTS[entry](chart)

    @pytest.mark.parametrize("entry", sorted(CHART_ENTRY_POINTS))
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_accepts_numpy_integers(self, entry, chart):
        expected = CHART_ENTRY_POINTS[entry](chart).tobytes()
        for cast in (np.int64, np.int32, np.uint8):
            assert CHART_ENTRY_POINTS[entry](cast(chart)).tobytes() == expected


# grids at which the census must give the same roots, bit for bit
CENSUS_GRIDS = [32, 48, 128, 512]


class TestEquatorCensus:
    def test_seven_roots_per_chart(self, field):
        for chart in (1, 2, 3):
            assert len(chart_equator_roots(field, chart)) == 7

    def test_ten_distinct_equilibria(self, census):
        assert len(census) == 10

    def test_four_in_first_octant(self, census):
        octant = [e for e in census if e.first_octant]
        assert len(octant) == 4
        expected = invariant_directions()
        for d in expected:
            dist = min(np.linalg.norm(e.direction - d) for e in octant)
            assert dist <= 1e-6

    def test_residuals_polished(self, census, field):
        for e in census:
            assert np.linalg.norm(compactified_field_array(field, e.chart, e.z)[:2]) < 1e-12

    def test_octant_classification(self, census):
        # the diagonal point attracts; the three ray points are saddles
        by_dir = {}
        for e in census:
            if e.first_octant:
                by_dir[tuple(np.round(e.direction, 4))] = e.stability
        diag = tuple(np.round(np.ones(3) / math.sqrt(3), 4))
        assert by_dir.pop(diag) == "attractor"
        assert set(by_dir.values()) == {"saddle"}

    def test_diagonal_is_symmetric_to_the_bit(self, field):
        # the certified limit of a run near the diagonal is this direction
        for grid in CENSUS_GRIDS:
            diag = [e.direction for e in find_infinity_equilibria(field, grid)
                    if e.first_octant and e.stability == "attractor"]
            assert len(diag) == 1, grid
            assert diag[0].tolist() == [0.5773502691896258] * 3, grid

    @pytest.mark.parametrize("grid", CENSUS_GRIDS)
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_roots_closed_under_swap_to_the_bit(self, field, chart, grid):
        # (z1, z2) -> (z2, z1) exchanges the two non-slot coordinates, a
        # symmetry of the field, so it maps each chart's root set onto itself
        roots = {tuple(r.tolist()) for r in chart_equator_roots(field, chart, grid)}
        assert {(b, a) for a, b in roots} == roots

    def test_eigenvalues_hyperbolic(self, census):
        for e in census:
            assert np.min(np.abs(e.eigenvalues.real)) > 1e-6

    def test_dedupe_idempotent_under_finer_grid(self, field, census):
        finer = find_infinity_equilibria(field, 96)
        assert len(finer) == 10
        assert [e.direction.tobytes() for e in finer] == [e.direction.tobytes() for e in census]
        assert [e.z.tobytes() for e in finer] == [e.z.tobytes() for e in census]

    def test_chart_compatibility(self, census, field):
        # an equilibrium visible in several charts gets the same stability
        # everywhere, and the eigenvalue sets match up to one positive
        # scalar per chart (the dropped conformal factors differ)
        for e in census:
            for chart in (1, 2, 3):
                if e.direction[chart - 1] <= 1e-9:
                    continue
                y = np.concatenate([e.direction, [0.0]])
                p = chart_coords(y, chart)
                other = classify_equilibrium(field, chart, p[0], p[1])
                assert other.stability == e.stability
                a = np.sort(e.eigenvalues.real)
                b = np.sort(other.eigenvalues.real)
                ratio = np.linalg.norm(b) / np.linalg.norm(a)
                assert ratio > 0
                assert b == pytest.approx(ratio * a, rel=1e-8)
                assert np.all(np.sign(b) == np.sign(a))

    def test_nonoctant_points_split_by_antipodal_reversal(self, census):
        # the six mixed-sign points come in antipodal pairs whose spectra
        # are negatives of each other: three repellers, three attractors
        others = [e for e in census if not e.first_octant]
        assert sorted(e.stability for e in others) == (
            ["attractor"] * 3 + ["repeller"] * 3)


# The census in closed form: the seven eigenpoints of the chart-1 resultant
# lie in Q(sqrt 2), and so do the real parts of the chart spectra.
_S2 = math.sqrt(2.0)
_AP, _AM = (-1.0 + _S2) / 2.0, (-1.0 - _S2) / 2.0
_DIAG = (-5.0, -7.0, -7.0)
_RAY = (16.0 + 4.0 * _S2, -4.0 * _S2, -(8.0 + 16.0 * _S2))  # rays 1 and 3 in chart 1
_RAY4 = (6.0 * _S2 - 4.0, -(4.0 - 2.0 * _S2), -(12.0 - 4.0 * _S2))  # line 4 in chart 1
_MIXED = (-(4.0 + 2.0 * _S2), -(4.0 + 6.0 * _S2), -(12.0 + 4.0 * _S2))
_REPEL = (16.0 * _S2 - 8.0, 16.0 - 4.0 * _S2, 4.0 * _S2)
# (sign, eigenpoint, spectrum) of each census direction; the mixed-sign
# attractors are the antipodes of the repellers
_EXACT_CENSUS = [
    (1, (1.0, 1.0, 1.0), _DIAG),
    (1, (1.0, 1.0, 2.0 + 2.0 * _S2), _RAY),
    (1, (1.0, 2.0 + 2.0 * _S2, 1.0), _RAY),
    (1, (1.0, _AP, _AP), _RAY4),
    (1, (1.0, _AM, _AM), _MIXED),
    (-1, (1.0, 1.0, 2.0 - 2.0 * _S2), _MIXED),
    (-1, (1.0, 2.0 - 2.0 * _S2, 1.0), _MIXED),
    (1, (1.0, 1.0, 2.0 - 2.0 * _S2), _REPEL),
    (1, (1.0, 2.0 - 2.0 * _S2, 1.0), _REPEL),
    (-1, (1.0, _AM, _AM), _REPEL),
]


class TestExactCensus:
    @staticmethod
    def _match(census):
        """(census entry, exact direction, exact spectrum) pairs, nearest first."""
        exact = [(sign * np.array(w) / np.linalg.norm(w), spectrum)
                 for sign, w, spectrum in _EXACT_CENSUS]
        pairs = []
        for e in census:
            d, spectrum = min(exact, key=lambda x: np.abs(x[0] - e.direction).max())
            pairs.append((e, d, spectrum))
        return pairs

    def test_directions_are_the_signed_eigenpoints(self, census):
        pairs = self._match(census)
        assert len(census) == len(_EXACT_CENSUS)
        # every closed-form direction is hit exactly once
        assert len({d.tobytes() for _, d, _ in pairs}) == len(_EXACT_CENSUS)
        for e, d, _ in pairs:
            assert np.abs(e.direction - d).max() <= 1e-12

    def test_spectra_are_the_closed_forms(self, census):
        for e, _, spectrum in self._match(census):
            got = np.sort(e.eigenvalues.real)[::-1]
            assert np.abs(got - np.array(spectrum)).max() <= 1e-12, e.direction

    def test_rays_and_line_4_are_read_in_chart_1(self, census):
        for e, d, spectrum in self._match(census):
            if spectrum in (_RAY, _RAY4):
                assert e.chart == 1
                assert min(np.abs(d - r).max() for r in invariant_directions()) <= 1e-15

    def test_chart_1_resultant_factors(self):
        sp = pytest.importorskip("sympy")
        a, b = sp.symbols("a b")
        x = (sp.Integer(1), a, b)
        p = [6 * x[1] * x[2] + x[0] ** 2 - x[1] ** 2 - x[2] ** 2,
             6 * x[0] * x[2] + x[1] ** 2 - x[0] ** 2 - x[2] ** 2,
             6 * x[0] * x[1] + x[2] ** 2 - x[0] ** 2 - x[1] ** 2]
        # the polynomials are the package's field, checked at integer points
        for point in ((2, -3), (5, 7), (-1, 4)):
            values = [float(q.subs({a: point[0], b: point[1]})) for q in p]
            assert tuple(values) == poly_rhs((1.0, float(point[0]), float(point[1])))
        g1, g2 = sp.expand(p[1] - a * p[0]), sp.expand(p[2] - b * p[0])
        res = sp.resultant(g1, g2, b)
        want = -64 * (a - 1) ** 3 * (a ** 2 - 4 * a - 4) * (4 * a ** 2 + 4 * a - 1)
        assert sp.expand(res - want) == 0


def _max_rel_error(got, want):
    # largest entry error over the largest reference entry, per point
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestNewtonKernel:
    # the sweep's Newton step reads G and its exact Jacobian off P's monomial
    # coefficients, so they must match the chart formulas for every degree

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("chart", [1, 2, 3])
    def test_matches_chart_field_and_jacobian(self, degree, chart):
        f = HOMOGENEOUS_FIELDS[degree]
        escape = 10.0 * compactify._SEED_BOX
        rng = np.random.default_rng(60 + 3 * degree + chart)
        # out to the escape radius, with a share of points near the chart origin
        pts = rng.uniform(-escape, escape, size=(300, 2))
        pts[:100] *= 10.0 ** rng.uniform(-6.0, -1.0, size=(100, 1))
        g1, g2, j11, j12, j21, j22 = compactify._equator_system(f, chart)(pts[:, 0], pts[:, 1])
        want_g = compactify._batch_equator_field(f, chart, pts)
        for k, (z1, z2) in enumerate(pts):
            want_j = compactified_jacobian(f, chart, (z1, z2, 0.0))[:2, :2]
            assert _max_rel_error(np.array([g1[k], g2[k]]), want_g[k]) <= 1e-12
            assert _max_rel_error(np.array([[j11[k], j12[k]], [j21[k], j22[k]]]), want_j) <= 1e-12

    def test_sweep_never_calls_the_jacobian(self, field):
        # only classify_equilibrium may evaluate f.jac, once per census root
        def no_jac(x):
            raise AssertionError("the Newton sweep called f.jac")

        blind = PolyField3(func=field.func, jac=no_jac, degree=2)
        for chart in (1, 2, 3):
            roots = chart_equator_roots(blind, chart)
            assert len(roots) == 7
            assert [r.tobytes() for r in roots] == \
                [r.tobytes() for r in chart_equator_roots(field, chart)]

    # roots per chart and census stabilities of the other degrees, pinned (the
    # linear field's matrix has one real eigenvalue, so one direction)
    _OTHER_DEGREES = {
        1: (1, ["attractor"]),
        3: (9, ["nonhyperbolic", "nonhyperbolic", "attractor", "nonhyperbolic", "saddle",
                "nonhyperbolic", "attractor", "saddle", "saddle", "nonhyperbolic",
                "nonhyperbolic", "attractor", "nonhyperbolic", "nonhyperbolic",
                "nonhyperbolic", "attractor"]),
    }

    @pytest.mark.parametrize("degree", [1, 3])
    def test_other_degrees_keep_their_census(self, degree):
        f = HOMOGENEOUS_FIELDS[degree]
        per_chart, stabilities = self._OTHER_DEGREES[degree]
        assert [len(chart_equator_roots(f, chart)) for chart in (1, 2, 3)] == [per_chart] * 3
        census = find_infinity_equilibria(f)
        assert [e.stability for e in census] == stabilities
        for e in census:
            assert np.linalg.norm(compactified_field_array(f, e.chart, e.z)[:2]) < 1e-12

    def test_double_root_survives_the_polish(self):
        # a Jordan block puts a double root at the chart-2 origin: Newton only
        # halves its way there, the settled points round to (0, 0), and the
        # polish keeps that start although the Jacobian is singular there
        a = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        f = PolyField3(func=lambda x: np.asarray(x, dtype=float) @ a.T, jac=lambda x: a, degree=1)
        assert [r.tolist() for r in chart_equator_roots(f, 2)] == [[0.0, 0.0]]

    @pytest.mark.parametrize("grid", [32, 48])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_census_comes_sorted(self, degree, grid):
        # the charts run in order and each chart's roots come sorted, so the
        # census needs no sort of its own
        census = find_infinity_equilibria(HOMOGENEOUS_FIELDS[degree], grid)
        keys = [(e.chart, round(e.z[0], 9), round(e.z[1], 9)) for e in census]
        assert census and keys == sorted(keys)


class TestSearchConfig:
    def test_validation(self):
        for grid in (16, MAX_GRID_RESOLUTION + 1):
            with pytest.raises(ValueError, match="grid must lie in"):
                chart_equator_roots(model_poly_field(), 1, grid)

    def test_polyfield_validation(self):
        with pytest.raises(ValueError):
            PolyField3(func=poly_rhs, jac=None, degree=0)


def _ball_field(f, u):
    # F(u) = P(u) - (u.P(u)) u at each row of u, straight from f.func
    p = np.asarray(f.func(u), dtype=float)
    return p - np.sum(u * p, axis=1, keepdims=True) * u


def _ball_points(radius, n, seed):
    # n seeded points uniform in the ball |e| <= radius
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 3))
    return z * (radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
                / np.linalg.norm(z, axis=1, keepdims=True))


def _max_vdot(f, center, e):
    # largest dV/dt = 2 e^T F(center + e) of V = |e|^2 over the rows of e outside the 1e-9 core
    e = e[np.linalg.norm(e, axis=1) >= 1e-9]
    return float(np.max(2.0 * np.sum(e * _ball_field(f, center + e), axis=1)))


@pytest.fixture(scope="module")
def certificates(field, census):
    return [(e, attraction_certificate(field, e)) for e in census]


class TestAttractionCertificate:
    def test_exactly_the_attractors_are_certified(self, certificates):
        certified = [e for e, cert in certificates if cert is not None]
        assert len(certified) == 4
        assert all(e.stability == "attractor" for e in certified)
        assert all(cert is None for e, cert in certificates if e.stability != "attractor")

    def test_lyapunov_derivative_negative_on_each_set(self, field, certificates):
        for k, (e, cert) in enumerate(certificates):
            if cert is None:
                continue
            pts = _ball_points(cert.radius, 10_000, seed=100 + k)
            assert _max_vdot(field, cert.center, pts) < 0.0

    def test_sampled_test_catches_a_wrong_claim(self, field, certificates):
        # sampled, |e|^2 decreases out to |e| = 0.61 (diagonal) and 0.78
        # (mixed-sign points); the ball |e| <= 1 reaches past both, and past
        # the saddle 0.66 from the diagonal
        for k, (e, cert) in enumerate(certificates):
            if cert is None:
                continue
            assert _max_vdot(field, cert.center, _ball_points(1.0, 10_000, seed=200 + k)) > 0.0

    def test_linearisation_has_negative_definite_symmetric_part(self, field, certificates):
        # A from central differences of F, independent of the Taylor
        # expansion: mu = -lambda_max((A + A^T) / 2) is 4.04 on the diagonal
        # and 6.31 at the mixed-sign points
        h = 1e-6
        for e, cert in certificates:
            if cert is None:
                continue
            steps = h * np.eye(3)
            a = ((_ball_field(field, cert.center + steps)
                  - _ball_field(field, cert.center - steps)) / (2.0 * h)).T
            mu = -float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])
            assert mu == pytest.approx(4.04 if e.first_octant else 6.31, abs=5e-3)

    @pytest.mark.parametrize("coupling, certified", [(2.0, True), (10.0, False)])
    def test_none_where_the_symmetric_part_is_not_negative_definite(self, coupling, certified):
        # x' = M x with a Jordan block below the dominant rate 3: (1, 0, 0)
        # attracts at any coupling, but at 10 the symmetric part of the ball
        # field's linear part has the eigenvalue +3, so no ball is certified
        m = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, coupling], [0.0, 0.0, 1.0]])
        f = PolyField3(func=lambda x: np.asarray(x, dtype=float) @ m.T, jac=lambda x: m,
                       degree=1)
        (eq,) = [e for e in find_infinity_equilibria(f) if e.stability == "attractor"]
        assert eq.direction.tolist() == [1.0, 0.0, 0.0]
        assert (attraction_certificate(f, eq) is not None) == certified

    def test_stop_ball_lies_in_the_certified_set(self, certificates):
        for e, cert in certificates:
            if cert is None:
                continue
            assert cert.core_radius < 1e-12 < cert.stop_radius < cert.radius

    def test_radii(self, certificates):
        # the certified radius: 0.0762 on the diagonal, 0.0939 at the mixed-sign points
        for e, cert in certificates:
            if cert is None:
                continue
            want = 0.0762 if e.first_octant else 0.0939
            assert cert.radius == pytest.approx(want, abs=5e-5)
            assert cert.stop_radius == compactify._STOP_SAFETY * cert.radius == 0.9 * cert.radius

    def test_mixed_sign_certificates_agree_under_permutation(self, certificates):
        mixed = [cert for e, cert in certificates if cert is not None and not e.first_octant]
        assert len(mixed) == 3
        first = mixed[0]
        for cert in mixed[1:]:
            # some coordinate permutation takes the first center to this one
            assert any(np.allclose(first.center[p], cert.center, atol=1e-12)
                       for p in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]))
            for name in ("radius", "core_radius", "stop_radius"):
                assert getattr(cert, name) == pytest.approx(getattr(first, name), rel=1e-9)

    def test_degree_three_field(self):
        # the expansion is generic in the degree: x * P(x) attracts at the
        # diagonal and at the three mixed-sign points
        cubic = HOMOGENEOUS_FIELDS[3]
        found = [(e, attraction_certificate(cubic, e)) for e in find_infinity_equilibria(cubic)]
        certified = [(e, c) for e, c in found if c is not None]
        assert len(certified) == 4 and all(e.stability == "attractor" for e, _ in certified)
        for k, (e, cert) in enumerate(certified):
            pts = _ball_points(cert.radius, 2000, seed=400 + k)
            assert _max_vdot(cubic, cert.center, pts) < 0.0

    def test_taylor_coefficients_match_sympy(self, field, certificates):
        sp = pytest.importorskip("sympy")
        e = sp.symbols("e1:4")
        for eq, cert in certificates:
            if cert is None:
                continue
            x = [sp.Float(float(v), 30) + ei for v, ei in zip(cert.center, e)]
            p = [6 * x[1] * x[2] + x[0] ** 2 - x[1] ** 2 - x[2] ** 2,
                 6 * x[0] * x[2] + x[1] ** 2 - x[0] ** 2 - x[2] ** 2,
                 6 * x[0] * x[1] + x[2] ** 2 - x[0] ** 2 - x[1] ** 2]
            u_dot_p = sum(xi * pi for xi, pi in zip(x, p))
            taylor = compactify._ball_field_taylor(field, cert.center)
            want = np.zeros_like(taylor)
            for j in range(3):
                for k, v in sp.Poly(sp.expand(p[j] - u_dot_p * x[j]), *e).as_dict().items():
                    want[(j,) + k] = float(v)
            assert np.abs(taylor - want).max() < 1e-12
