"""Invariant-metric model for the full flag manifold SU(3)/T.

An invariant metric on SU(3)/T is an ordered triple of positive scales
(l12, l13, l23), one per irreducible isotropy summand.  This module
evaluates, in closed form:

* the three Ricci components of such a metric,
* the Ricci flow velocity  l' = -2 r  on the metric cone,
* the quadratic polynomial system obtained by rescaling time with the
  positive factor 12*l12*l13*l23 (which also reverses the time arrow),
* the analytic Jacobian of the quadratic system,
* algebraic verifiers: the rescaling identity, tangency of rays to the
  quadratic field, and the Einstein residual  max |r - c*l|.

Everything here is an exact formula in 64-bit floats; no iteration, no
state.  The three components are always coded in the same cyclic pattern
so that exactly-diagonal inputs produce bitwise-equal outputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MetricParams",
    "RicciComponents",
    "ricci_components",
    "flow_rhs",
    "poly_rhs",
    "poly_jacobian",
    "reparam_check",
    "invariant_directions",
    "invariant_ray_parameter",
    "line_direction",
    "tangency_defect",
    "einstein_residual",
]


class MetricParams(NamedTuple):
    """Invariant metric (l12, l13, l23); every component must be > 0."""

    l12: float
    l13: float
    l23: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "MetricParams":
        """Validated metric from any three reals, a MetricParams included."""
        a, b, c = (float(v) for v in values)
        if not all(math.isfinite(v) and v > 0.0 for v in (a, b, c)):
            raise ValueError(f"metric components must be positive reals, got {(a, b, c)}")
        return cls(a, b, c)

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


class RicciComponents(NamedTuple):
    """Ricci tensor components (r12, r13, r23) in the metric basis."""

    r12: float
    r13: float
    r23: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


def _ricci_component(a: float, b: float, c: float) -> float:
    # r_a = 1/(2a) + (a/(bc) - b/(ac) - c/(ab)) / 12, identical op order in
    # all three slots so diagonal inputs stay bitwise diagonal
    return 1.0 / (2.0 * a) + (a / (b * c) - b / (a * c) - c / (a * b)) / 12.0


def ricci_components(m) -> RicciComponents:
    """Ricci components of a valid metric.

    Raises ValueError if any component is <= 0 (the formulas divide by
    every product of two components).  The components are homogeneous of
    degree -1, so they are evaluated as r(m) = r(m/s)/s with s the power of
    two that brings the largest component into [0.5, 1): the products of
    two components can then neither overflow nor underflow, and scaling by
    a power of two is exact, so results that need no scaling keep their bits.
    """
    l12, l13, l23 = MetricParams.of(m)
    e = math.frexp(max(l12, l13, l23))[1]
    a, b, c = math.ldexp(l12, -e), math.ldexp(l13, -e), math.ldexp(l23, -e)
    return RicciComponents(
        math.ldexp(_ricci_component(a, b, c), -e),
        math.ldexp(_ricci_component(b, a, c), -e),
        math.ldexp(_ricci_component(c, a, b), -e),
    )


def flow_rhs(m) -> np.ndarray:
    """Ricci flow velocity l' = -2 r(l) for a valid metric."""
    r = ricci_components(m)
    return np.array([-2.0 * r.r12, -2.0 * r.r13, -2.0 * r.r23])


def _poly_component(a, b, c):
    # component paired with slot a of the quadratic system: 6bc + a^2 - b^2 - c^2
    return 6.0 * b * c + a * a - b * b - c * c


_F64 = np.dtype(np.float64)


def poly_rhs(x) -> np.ndarray:
    """Quadratic polynomial system on all of R^3.

    Equals 12*l12*l13*l23 * ricci_components on the open first octant
    (see ``reparam_check``) but is defined and homogeneous of degree 2
    everywhere: poly_rhs(c*x) = c^2 * poly_rhs(x) for every real c.

    Accepts a single 3-vector or an (..., 3) array (broadcasts).
    """
    # a float64 ndarray, as the integrators pass, needs no conversion
    if x.__class__ is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        # _poly_component inlined, same operation order
        a, b, c = x.tolist()
        return np.array([6.0 * b * c + a * a - b * b - c * c,
                         6.0 * a * c + b * b - a * a - c * c,
                         6.0 * a * b + c * c - a * a - b * b])
    a, b, c = x[..., 0], x[..., 1], x[..., 2]
    return np.stack(
        [
            _poly_component(a, b, c),
            _poly_component(b, a, c),
            _poly_component(c, a, b),
        ],
        axis=-1,
    )


def poly_jacobian(x) -> np.ndarray:
    """Analytic 3x3 Jacobian of :func:`poly_rhs` at a point.

    Accepts a single 3-vector or an (..., 3) array, giving (..., 3, 3).
    """
    if x.__class__ is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        # one point in Python floats; the batched entries below, same order
        a, b, c = x.tolist()
        a2, b2, c2 = 2.0 * a, 2.0 * b, 2.0 * c
        a6, b6, c6 = 6.0 * a, 6.0 * b, 6.0 * c
        # a flat list converts faster than nested rows
        return np.array([
            a2, c6 - b2, b6 - c2,
            c6 - a2, b2, a6 - c2,
            b6 - a2, a6 - b2, c2,
        ]).reshape(3, 3)
    a, b, c = np.moveaxis(x, -1, 0)
    a2, b2, c2 = 2.0 * a, 2.0 * b, 2.0 * c
    a6, b6, c6 = 6.0 * a, 6.0 * b, 6.0 * c
    jac = np.array([
        a2, c6 - b2, b6 - c2,
        c6 - a2, b2, a6 - c2,
        b6 - a2, a6 - b2, c2,
    ]).reshape((3, 3) + x.shape[:-1])
    return np.ascontiguousarray(np.moveaxis(jac, (0, 1), (-2, -1)))


def reparam_check(m) -> float:
    """Max componentwise defect of poly_rhs(m) == 12*l12*l13*l23*ricci(m).

    The identity is exact in real arithmetic, so the returned value is
    floating-point noise for any valid metric.
    """
    mp = MetricParams.of(m)
    lhs = poly_rhs(mp.as_array())
    rhs = 12.0 * mp.l12 * mp.l13 * mp.l23 * ricci_components(mp).as_array()
    return float(np.max(np.abs(lhs - rhs)))


def invariant_ray_parameter() -> float:
    """The off-diagonal ray parameter 2 + 2*sqrt(2).

    Rays of the form (1, t, 1) (and coordinate permutations) are invariant
    under the quadratic field exactly for t = 1 and t = 2 +- 2*sqrt(2);
    only t = 1 and t = 2 + 2*sqrt(2) give first-octant rays.
    """
    return 2.0 + 2.0 * math.sqrt(2.0)


def invariant_directions() -> list[np.ndarray]:
    """The four first-octant unit directions spanning invariant rays.

    Order: (1,t,1), (1,1,1), (1,1,t), (t,1,1) with t = 2 + 2*sqrt(2),
    each normalized.  All values are computed from sqrt(2), never from
    decimal literals, so tangency and Einstein checks hold to ~1e-13.
    """
    t = invariant_ray_parameter()
    rho = math.sqrt(2.0 + t * t)
    s3 = math.sqrt(3.0)
    return [
        np.array([1.0 / rho, t / rho, 1.0 / rho]),
        np.array([1.0 / s3, 1.0 / s3, 1.0 / s3]),
        np.array([1.0 / rho, 1.0 / rho, t / rho]),
        np.array([t / rho, 1.0 / rho, 1.0 / rho]),
    ]


def line_direction(line: int) -> np.ndarray:
    """Unit direction of invariant line ``line`` (1-based index in 1..4)."""
    if line not in (1, 2, 3, 4):
        raise ValueError(f"line index must be in 1..4, got {line!r}")
    return invariant_directions()[line - 1]


def tangency_defect(d) -> float:
    """Norm of the component of poly_rhs(d) orthogonal to the unit vector d.

    Zero exactly when the line through d is invariant under the quadratic
    field.  Raises ValueError unless |d| = 1 within 1e-12.
    """
    d = np.asarray(d, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("tangency_defect expects a unit vector")
    v = poly_rhs(d)
    return float(np.linalg.norm(v - (v @ d) * d))


def einstein_residual(m) -> tuple[float, float]:
    """Least-squares Einstein constant and residual for a valid metric.

    Returns (c_fit, residual) with c_fit = <r, m>/<m, m> and
    residual = max_i |r_i - c_fit*m_i|; the residual vanishes exactly on
    Einstein metrics.
    """
    mp = MetricParams.of(m)
    marr = mp.as_array()
    r = ricci_components(mp).as_array()
    c = float((r @ marr) / (marr @ marr))
    residual = float(np.max(np.abs(r - c * marr)))
    return c, residual
