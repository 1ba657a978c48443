"""Poincare compactification of homogeneous polynomial vector fields on R^3.

R^3 is identified with the open northern hemisphere of S^3 through the
central projection x -> (x, 1)/sqrt(1 + |x|^2); the equator y4 = 0 is the
sphere of directions at infinity.  Orthogonal projection of the hemisphere
onto its equatorial ball gives the "ball picture" used for reporting.

Three affine charts cover the sphere away from y1 = y2 = y3 = 0:

* chart 1:  z = (y2/y1, y3/y1, y4/y1)
* chart 2:  z = (y1/y2, y3/y2, y4/y2)
* chart 3:  z = (y1/y3, y2/y3, y4/y3)

For a field P = (P1, P2, P3) homogeneous of degree d, clearing the z3^d
denominator gives z3^d * P(w/z3) = P(w), where w carries 1 in the chart
slot and (z1, z2) in the other two.  After dropping a positive conformal
factor the compactified field is

    chart 1:  (-z1*P1(w) + P2(w), -z2*P1(w) + P3(w), -z3*P1(w)),

with cyclic analogues.  It does not depend on z3 except through the last
component, which vanishes at z3 = 0, so the equator is invariant.
Equilibria on the equator, their Jacobians and their stability types are
found by a seeded Newton search per chart.

Each attracting equilibrium can be given a Lyapunov certificate, V = |e|^2:
a ball around it that provably flows to it (``attraction_certificate``).

Points on the equator are recorded as *signed* ambient directions, one per
covering chart (the chart-slot component positive).  A direction pair
{d, -d} therefore contributes one point per sign that is visible in some
chart; for the quadratic flag-manifold system this census has exactly ten
members, seven per chart.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import _F64, poly_jacobian, poly_rhs

__all__ = [
    "PolyField3",
    "model_poly_field",
    "CHART_NAMES",
    "ball_projection",
    "ball_unprojection",
    "sphere_from_ambient",
    "chart_coords",
    "chart_point_to_sphere",
    "ball_from_chart",
    "best_chart",
    "compactified_field_array",
    "compactified_jacobian",
    "chart_equator_roots",
    "classify_equilibrium",
    "find_infinity_equilibria",
    "InfinityEquilibrium",
    "AttractionCertificate",
    "attraction_certificate",
]

CHART_NAMES = {1: "U1", 2: "U2", 3: "U3"}

# ambient coordinate bookkeeping per chart: (slot, a, b) with slot the
# ambient index fixed to 1 in w, and (a, b) the ambient indices driving
# the first two chart velocities
_CHART_IDX = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}


@dataclass(frozen=True)
class PolyField3:
    """Homogeneous polynomial vector field on R^3: evaluator, Jacobian, degree.

    Every component must be homogeneous of exactly degree ``degree``; the
    chart formulas rely on P(t*x) = t^d * P(x).  A single point reaches
    ``func`` as a tuple of three Python floats, for example ``(1.0, z1,
    z2)`` in chart 1, and ``func`` returns any sequence of three floats,
    which the chart field unpacks (a tuple answer, as ``poly_rhs`` gives,
    costs no array round trip).  ``func`` must also accept an (N, 3) float
    array of points, evaluated row by row into an (N, 3) float ndarray: the
    census reads P's monomial coefficients off its values at integer points
    and takes the residual of its root polish.  ``jac`` gets one point as a
    float ndarray of shape (3,) and returns the (3, 3) ndarray J(w).
    """

    func: Callable
    jac: Callable
    degree: int

    def __post_init__(self):
        if int(self.degree) < 1:
            raise ValueError("polynomial degree must be a positive integer")


def model_poly_field() -> PolyField3:
    """The quadratic flag-manifold system as a :class:`PolyField3`."""
    return PolyField3(func=poly_rhs, jac=poly_jacobian, degree=2)


def ball_projection(x) -> np.ndarray:
    """Shrink R^3 onto the open unit ball: x / sqrt(1 + |x|^2)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        big = np.isinf(np.sum(x * x, axis=-1, keepdims=True))
    # |x|^2 overflows beyond |x| ~ 1.3e154: scale such points by their largest component
    s = np.where(big, np.max(np.abs(x), axis=-1, keepdims=True), 1.0)
    x = x / s
    return x / np.sqrt((1.0 / s) ** 2 + np.sum(x * x, axis=-1, keepdims=True))


def ball_unprojection(u) -> np.ndarray:
    """Inverse of :func:`ball_projection`; requires |u| < 1 - 1e-12."""
    u = np.asarray(u, dtype=float)
    n2 = float(u @ u)
    if n2 >= (1.0 - 1e-12) ** 2:
        raise ValueError("ball_unprojection requires a point strictly inside the unit ball")
    return u / math.sqrt(1.0 - n2)


def sphere_from_ambient(x) -> np.ndarray:
    """Northern-hemisphere representative (x, 1)/sqrt(1 + |x|^2) on S^3."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        s = 1.0 if math.isfinite(float(x @ x)) else float(np.max(np.abs(x)))
    # |x|^2 overflows beyond |x| ~ 1.3e154: scale by the largest component
    x, inv = x / s, 1.0 / s
    delta = math.sqrt(inv * inv + float(x @ x))
    return np.array([x[0] / delta, x[1] / delta, x[2] / delta, inv / delta])


def chart_coords(y, chart: int) -> np.ndarray:
    """Chart coordinates of a point of S^3; the dividing coordinate must be nonzero.

    Antipodal points share chart coordinates, so the result encodes the
    representative whose chart-slot component is positive.
    """
    y = np.asarray(y, dtype=float)
    slot, a, b = _chart_idx(chart)
    pivot = float(y[slot])
    if abs(pivot) <= 1e-12:
        raise ValueError(f"point is outside the domain of chart {CHART_NAMES[chart]}")
    return np.array([y[a] / pivot, y[b] / pivot, y[3] / pivot])


def chart_point_to_sphere(chart: int, z) -> np.ndarray:
    """Unit S^3 point of the chart point z (chart-slot component positive)."""
    w = _chart_w(chart, z[0], z[1])
    v = np.array([w[0], w[1], w[2], z[2]])
    return v / float(np.linalg.norm(v))


def ball_from_chart(chart: int, z) -> np.ndarray:
    """Ball-picture coordinates (first three sphere components) of a chart point."""
    z1, z2, z3 = (float(v) for v in z)
    w = _chart_w(chart, z1, z2)
    scale = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2] + z3 * z3)
    return np.array([w[0] / scale, w[1] / scale, w[2] / scale])


def best_chart(y) -> int:
    """Chart whose dividing coordinate is largest in magnitude at y."""
    y = np.asarray(y, dtype=float)
    return int(np.argmax(np.abs(y[:3]))) + 1


def _chart_number(chart) -> int:
    """``chart`` as the int 1, 2 or 3; any other value raises ValueError.

    A chart is an integer (numpy integers included), so 1.5 or "1" is
    rejected instead of being truncated or parsed.
    """
    try:
        number = operator.index(chart)
    except TypeError:
        number = None
    if number not in _CHART_IDX:
        raise ValueError(f"chart must be 1, 2 or 3, got {chart!r}")
    return number


def _chart_idx(chart: int) -> tuple[int, int, int]:
    return _CHART_IDX[_chart_number(chart)]


def _chart_w(chart: int, z1: float, z2: float) -> np.ndarray:
    chart = _chart_number(chart)
    if chart == 1:
        return np.array([1.0, z1, z2])
    if chart == 2:
        return np.array([z1, 1.0, z2])
    return np.array([z1, z2, 1.0])


def _z_floats(z) -> list:
    # a float64 ndarray converts directly; anything else as np.asarray would
    if z.__class__ is np.ndarray and z.dtype is _F64:
        return z.tolist()
    return np.asarray(z, dtype=float).tolist()


def compactified_field_array(f: PolyField3, chart: int, z) -> np.ndarray:
    """Compactified field in a chart, as a function of z = (z1, z2, z3).

    Polynomial in z (conformal factor dropped); the third component
    vanishes identically at z3 = 0, so the equator is invariant.  The
    formula describes the motion of the representative whose chart-slot
    coordinate is positive; at z3 < 0 that representative lies on the
    southern hemisphere, and tracking a northern point there instead
    requires the antipodal sign (-1)^(d+1) (see dynamics).
    """
    z1, z2, z3 = _z_floats(z)
    if chart.__class__ is not int or not 1 <= chart <= 3:
        chart = _chart_number(chart)
    # P at the ambient point w (1 in the chart slot, (z1, z2) in the other
    # two), unpacked as (slot, a, b) components
    if chart == 1:
        qs, qa, qb = f.func((1.0, z1, z2))
    elif chart == 2:
        qa, qs, qb = f.func((z1, 1.0, z2))
    else:
        qa, qb, qs = f.func((z1, z2, 1.0))
    return np.array([-z1 * qs + qa, -z2 * qs + qb, -z3 * qs])


def compactified_jacobian(f: PolyField3, chart: int, z) -> np.ndarray:
    """Analytic 3x3 Jacobian of :func:`compactified_field_array` in z.

    With w the chart point of the ambient space, the first two components
    depend on (z1, z2) through P(w) and its Jacobian, and only the last
    component depends on z3; the entries are exact down to the equator.
    Only ``f.jac`` is evaluated, once, at w as a float ndarray: Euler's
    identity J(w) w = d P(w) for a field homogeneous of degree d gives the
    slot value P_slot(w).
    """
    slot, a, b = _chart_idx(chart)
    z1, z2, z3 = (float(v) for v in z)
    # rows and columns of J(w) taken as (s)lot, a and b
    jw = f.jac(_chart_w(chart, z1, z2)).tolist()
    js, ja, jb = jw[slot], jw[a], jw[b]
    qs = (js[slot] + z1 * js[a] + z2 * js[b]) / f.degree
    return np.array([
        -qs - z1 * js[a] + ja[a], -z1 * js[b] + ja[b], 0.0,
        -z2 * js[a] + jb[a], -qs - z2 * js[b] + jb[b], 0.0,
        -z3 * js[a], -z3 * js[b], -qs,
    ]).reshape(3, 3)


# a Newton step over all seeds peaks at a few dozen float vectors of grid^2
# entries, about 80 MB at 512
MAX_GRID_RESOLUTION = 512

# half-width of each chart's square of Newton seeds; the ten-point census
# holds at grids 32 to 512 for any box up to 1e6
_SEED_BOX = 8.0

_MAX_NEWTON_ITER = 40
_POLISH_STEPS = 3  # Newton steps from a rounded start; from 5e-10 off, two reach rounding

# a polished Newton point is a root when its equator residual is below
# _NEWTON_TOL; roots (and census directions) closer than _DEDUPE_RADIUS merge
_NEWTON_TOL = 1e-12
_DEDUPE_RADIUS = 1e-6

# eigenvalues with |Re| at or below this count as nonhyperbolic
_HYPER_TOL = 1e-9


@dataclass(frozen=True)
class InfinityEquilibrium:
    """Equilibrium of the compactified field on the equator of S^3."""

    chart: int
    z: np.ndarray  # (z1, z2, 0)
    direction: np.ndarray  # signed ambient unit direction, chart slot positive
    eigenvalues: np.ndarray  # Jacobian spectrum, sorted by descending real part
    stability: str  # attractor | repeller | saddle | nonhyperbolic
    first_octant: bool


def _batch_equator_field(f: PolyField3, chart: int, pts: np.ndarray) -> np.ndarray:
    """Equator system at many (z1, z2) points at once."""
    slot, a, b = _chart_idx(chart)
    q = f.func(np.insert(pts, slot, 1.0, axis=1))
    return np.stack(
        [-pts[:, 0] * q[:, slot] + q[:, a], -pts[:, 1] * q[:, slot] + q[:, b]],
        axis=-1,
    )


def _monomial_coefficients(f: PolyField3) -> tuple[list, np.ndarray]:
    """Exponents beta, |beta| = d, and P's coefficients of x^beta, one row per beta.

    The integer points beta of the simplex determine P: one ``f.func`` call, one solve.
    """
    d = f.degree
    betas = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    vander = [[math.prod(p ** b for p, b in zip(pt, beta)) for beta in betas] for pt in betas]
    return betas, np.linalg.solve(np.array(vander, dtype=float),
                                  np.asarray(f.func(np.array(betas, dtype=float)), dtype=float))


def _equator_system(f: PolyField3, chart: int) -> Callable:
    """Exact evaluator (z1, z2) -> (G1, G2, J11, J12, J21, J22) of the equator system.

    G = (-z1*P_slot(w) + P_a(w), -z2*P_slot(w) + P_b(w)), from P's monomial coefficients.
    """
    slot, a, b = _chart_idx(chart)
    n = f.degree + 1
    p = np.zeros((3, n, n))
    for beta, c in zip(*_monomial_coefficients(f)):
        p[:, beta[a], beta[b]] += c[[slot, a, b]]
    k = np.arange(n)
    # rows P, dP/dz1, dP/dz2; column i*n + j multiplies z1^i * z2^j.  A partial's
    # zeroed exponent-0 terms roll round to power n - 1, which it does not reach
    kernel = np.concatenate([p, np.roll(p * k[:, None], -1, axis=1),
                             np.roll(p * k, -1, axis=2)]).reshape(9, n * n)

    def system(z1, z2):
        # powers of each coordinate as contiguous rows, so P is one matmul
        p1, p2 = np.ones((n, len(z1))), np.ones((n, len(z1)))
        for i in range(1, n):
            p1[i], p2[i] = p1[i - 1] * z1, p2[i - 1] * z2
        qs, qa, qb, s1, a1, b1, s2, a2, b2 = kernel @ (p1[:, None] * p2).reshape(n * n, -1)
        return (-z1 * qs + qa, -z2 * qs + qb, -qs - z1 * s1 + a1, -z1 * s2 + a2,
                -z2 * s1 + b1, -qs - z2 * s2 + b2)

    return system


def _newton_step(g1, g2, j11, j12, j21, j22):
    """Newton step -J^-1 G of the equator system, elementwise over arrays."""
    det = j11 * j22 - j12 * j21
    with np.errstate(all="ignore"):
        return (-g1 * j22 + g2 * j12) / det, (-g2 * j11 + g1 * j21) / det


def chart_equator_roots(f: PolyField3, chart: int, grid: int = 48) -> list[np.ndarray]:
    """Distinct equator roots (z1, z2) of one chart, from a seeded grid search.

    ``grid`` seeds per axis, in [32, MAX_GRID_RESOLUTION], run through one
    vectorized Newton iteration with the exact Jacobian; an empty list means
    a grid too coarse for the field.  Settled points rounded to 9 decimals
    start a fixed Newton polish, so a root's bits depend on its rounded start
    alone, not on the grid; roots come deduplicated, in sorted start order.
    """
    if not 32 <= grid <= MAX_GRID_RESOLUTION:
        raise ValueError(f"grid must lie in [32, {MAX_GRID_RESOLUTION}]")
    system = _equator_system(f, chart)
    lin = np.linspace(-_SEED_BOX, _SEED_BOX, grid)
    z1, z2 = (g.ravel() for g in np.meshgrid(lin, lin, indexing="ij"))
    escape = 10.0 * _SEED_BOX
    settled_pts = []
    for _ in range(_MAX_NEWTON_ITER):
        if len(z1) == 0:
            break
        s1, s2 = _newton_step(*system(z1, z2))
        n1, n2 = z1 + s1, z2 + s2
        # NaN fails both comparisons, so non-finite points escape too
        finite = (np.abs(n1) <= escape) & (np.abs(n2) <= escape)
        settled = finite & (np.hypot(s1, s2) < 1e-12 * (1.0 + np.hypot(z1, z2)))
        settled_pts.append(n1[settled] + 1j * n2[settled])
        keep = finite & ~settled
        z1, z2 = n1[keep], n2[keep]
    # z1 + z2 i sorts by (z1, z2) (np.unique would import numpy.ma); + 0.0: no -0.0 start
    s = np.sort(np.round(np.concatenate(settled_pts), 9) + 0.0)
    pts = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]])).view(float).reshape(-1, 2)
    # G in the chart field's operation order keeps the polish as symmetric as the field;
    # a singular Jacobian (a start on a multiple root) gives no finite step, and no move
    for _ in range(_POLISH_STEPS):
        _, _, *jac = system(pts[:, 0], pts[:, 1])
        g = _batch_equator_field(f, chart, pts)
        step = np.column_stack(_newton_step(g[:, 0], g[:, 1], *jac))
        pts = pts + np.where(np.isfinite(step), step, 0.0)
    roots = []
    for z in pts[np.linalg.norm(_batch_equator_field(f, chart, pts), axis=1) < _NEWTON_TOL]:
        if all(np.linalg.norm(z - r) >= _DEDUPE_RADIUS for r in roots):
            roots.append(z)
    return roots


def classify_equilibrium(f: PolyField3, chart: int, z1: float, z2: float) -> InfinityEquilibrium:
    """Classify a converged equator root by its chart-field Jacobian spectrum."""
    jac = compactified_jacobian(f, chart, (z1, z2, 0.0))
    eig = np.linalg.eigvals(jac)
    eig = eig[np.lexsort((-eig.imag, -eig.real))]
    re = eig.real
    if np.any(np.abs(re) <= _HYPER_TOL):
        stability = "nonhyperbolic"
    elif np.all(re < 0.0):
        stability = "attractor"
    elif np.all(re > 0.0):
        stability = "repeller"
    else:
        stability = "saddle"
    w = _chart_w(chart, z1, z2)
    direction = w / np.linalg.norm(w)
    return InfinityEquilibrium(
        chart=chart,
        z=np.array([z1, z2, 0.0]),
        direction=direction,
        eigenvalues=eig,
        stability=stability,
        first_octant=bool(np.all(direction > 0.0)),
    )


def find_infinity_equilibria(f: PolyField3, grid: int = 48) -> list[InfinityEquilibrium]:
    """All equator equilibria of the compactified field, across the three charts.

    Each equilibrium is reported once per *signed* ambient direction (the
    representative a covering chart sees, slot component positive); merging
    across charts keeps the first covering chart.  Sorted deterministically
    by (chart, z1, z2): the charts are visited in order, and each chart's
    roots come sorted.  ``grid`` is the seeds per axis of each chart's search.
    """
    found: list[InfinityEquilibrium] = []
    for chart in (1, 2, 3):
        for root in chart_equator_roots(f, chart, grid):
            eq = classify_equilibrium(f, chart, root[0], root[1])
            if not any(np.linalg.norm(eq.direction - other.direction) < _DEDUPE_RADIUS
                       for other in found):
                found.append(eq)
    return found


# the stop ball is this fraction of the certified ball, a margin for the
# rounding of the bound and of ball points
_STOP_SAFETY = 0.9


class AttractionCertificate(NamedTuple):
    """Lyapunov proof that a ball around an attractor at infinity flows to it.

    In the ball picture the flow has the orbits of the ball field
    F(u) = P(u) - (u.P(u)) u (the integrators follow it up to a positive
    time change).  With e = u - center and V(e) = |e|^2, V decreases along
    F at every e with ``core_radius`` < |e| <= ``radius``, so the ball
    |e| <= ``radius`` is forward invariant, and every orbit in it
    approaches an attractor within ``core_radius`` of the center (the
    center is a computed root, not an exact one).  ``stop_radius`` is a
    fixed fraction of ``radius``.
    """

    center: np.ndarray  # the attractor's ball point, its census direction
    radius: float
    core_radius: float
    stop_radius: float


def _ball_field_taylor(f: PolyField3, center) -> np.ndarray:
    """Exact Taylor coefficients of the ball field F at ``center``.

    Returns an array t of shape (3, n, n, n), n = d + 3, with
    F_j(center + e) = sum over a of t[j, a] * e1^a1 * e2^a2 * e3^a3, built
    from P's monomial coefficients (:func:`_monomial_coefficients`).
    """
    n = f.degree + 3
    betas, coef = _monomial_coefficients(f)

    def mul(p, q):
        # product of two polynomials whose degrees sum to less than n
        out = np.zeros((n, n, n))
        for i, j, k in zip(*np.nonzero(p)):
            out[i:, j:, k:] += p[i, j, k] * q[:n - i, :n - j, :n - k]
        return out

    u = np.zeros((3, n, n, n))  # u_i = center_i + e_i
    u[:, 0, 0, 0] = center
    u[0, 1, 0, 0] = u[1, 0, 1, 0] = u[2, 0, 0, 1] = 1.0
    p_of_u = np.zeros((3, n, n, n))
    for beta, c in zip(betas, coef):
        mono = np.zeros((n, n, n))
        mono[0, 0, 0] = 1.0
        for i, b in enumerate(beta):
            for _ in range(b):
                mono = mul(u[i], mono)
        p_of_u += c[:, None, None, None] * mono
    u_dot_p = sum(mul(u[i], p_of_u[i]) for i in range(3))
    return p_of_u - np.array([mul(u[j], u_dot_p) for j in range(3)])


def attraction_certificate(f: PolyField3, eq: InfinityEquilibrium) -> AttractionCertificate | None:
    """Certified attraction ball of an attracting equilibrium at infinity, or None.

    Expands the ball field at u* = ``eq.direction`` exactly:
    F(u* + e) = F(u*) + A e + R_2(e) + ... + R_{d+2}(e), where each
    component of R_k is at most its sum of absolute coefficients times
    |e|^k, so |R_k(e)| <= c_k |e|^k.  With V = |e|^2 and
    mu = -lambda_max((A + A^T) / 2),

        dV/dt = 2 e^T F(u* + e) <= -2 |e|^2 (mu - |F(u*)| / |e| - sum_k c_k |e|^(k-1)),

    which is negative on an interval of |e|; its upper end is the
    certified radius (found by bisection) and its lower end lies below
    ``core_radius`` = 2 |F(u*)| / mu.  The stop radius is ``_STOP_SAFETY``
    times the radius.  Returns None when ``eq`` is not an attractor, the
    symmetric part of A is not negative definite, or the bound holds
    nowhere.
    """
    if eq.stability != "attractor":
        return None
    center = np.array(eq.direction, dtype=float)
    taylor = _ball_field_taylor(f, center)
    a = np.stack([taylor[:, 1, 0, 0], taylor[:, 0, 1, 0], taylor[:, 0, 0, 1]], axis=1)
    residual = float(np.linalg.norm(taylor[:, 0, 0, 0]))
    degree = np.indices(taylor.shape[1:]).sum(axis=0)
    bounds = [float(np.linalg.norm(np.abs(taylor[:, degree == k]).sum(axis=1)))
              for k in range(2, f.degree + 3)]
    # the symmetric part's spectrum is real; eigvals is the LAPACK routine
    # the census already loads
    budget = -float(np.linalg.eigvals(0.5 * (a + a.T)).real.max())

    def holds(r: float) -> bool:
        return residual / r + sum(c * r ** (k + 1) for k, c in enumerate(bounds)) < budget

    # below r0 <= 1 the remainder terms stay under half the budget, so the
    # bound holds from core_radius (the residual term at the other half) to r0
    r0 = min(1.0, 0.5 * budget / sum(bounds))
    core = 2.0 * residual / budget
    if not (budget > 0.0 and core < r0):
        return None
    # the bound is a convex function of r, so it holds on an interval: bisect
    # for its upper end, capped at the ball's diameter
    good, bad = r0, 2.0
    if holds(bad):
        good = bad
    while bad - good > 1e-12 * good:
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if holds(mid) else (good, mid)
    return AttractionCertificate(center=center, radius=good, core_radius=core,
                                 stop_radius=_STOP_SAFETY * good)
