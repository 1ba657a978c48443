"""Invariant-metric model for the full flag manifold SU(3)/T.

An invariant metric on SU(3)/T is an ordered triple of positive scales
(l12, l13, l23), one per irreducible isotropy summand.  This module
evaluates, in closed form:

* the three Ricci components r_k of such a metric, Ric|m_k = r_k*g|m_k,
* the Ricci flow velocity  l' = -2 r  on the metric cone (the standard
  g' = -2 Ric would read l_k' = -2 l_k r_k),
* the quadratic polynomial system obtained by rescaling time with the
  positive factor 12*l12*l13*l23 (which also reverses the time arrow),
* the analytic Jacobian of the quadratic system,
* algebraic verifiers: the rescaling identity, tangency of rays to the
  quadratic field, and the Einstein residual  max |r - c*l|.  Einstein
  means r proportional to l here; the test r1 = r2 = r3 would instead
  call (1, 2, 1) Einstein, since r(1, 2, 1) = (1/3, 1/3, 1/3).

Everything here is an exact formula in 64-bit floats (the Ricci
components fall back to rational arithmetic at extreme scales); no
iteration, no state.  The three components are always coded in the same
cyclic pattern so that exactly-diagonal inputs produce bitwise-equal outputs.
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


class RicciComponents(NamedTuple):
    """Ricci tensor components (r12, r13, r23) in the metric basis."""

    r12: float
    r13: float
    r23: float


def _ricci_component(a, b, c):
    # r_a = 1/(2a) + (a/(bc) - b/(ac) - c/(ab)) / 12, identical op order in
    # all three slots so diagonal inputs stay bitwise diagonal; the integer
    # constants convert exactly, so the formula also runs on Fractions
    return 1 / (2 * a) + (a / (b * c) - b / (a * c) - c / (a * b)) / 12


def _exact_ricci_component(a: float, b: float, c: float) -> float:
    # the formula in rationals, rounded once; a value beyond the float range
    # becomes an infinity of its sign.  Imported here: few metrics need it,
    # and fractions loads decimal, which costs every run about 2 ms
    from fractions import Fraction

    r = _ricci_component(Fraction(a), Fraction(b), Fraction(c))
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def ricci_components(m) -> RicciComponents:
    """Ricci components of a valid metric.

    Raises ValueError if any component is <= 0 (the formulas divide by
    every product of two components).  The components are homogeneous of
    degree -1, so they are evaluated as r(m) = r(m/s)/s with s the power of
    two that brings the largest component into [0.5, 1): the products of
    two components can then no longer overflow, and scaling by a power of
    two is exact, so results that need no scaling keep their bits.  Where
    the components lie so far apart that a product still underflows to 0,
    or a result overflows or is not finite, every component is evaluated
    exactly in rationals and rounded once; a component beyond the float
    range comes back as an infinity of its sign.
    """
    l12, l13, l23 = MetricParams.of(m)
    e = math.frexp(max(l12, l13, l23))[1]
    a, b, c = math.ldexp(l12, -e), math.ldexp(l13, -e), math.ldexp(l23, -e)
    try:
        r = RicciComponents(
            math.ldexp(_ricci_component(a, b, c), -e),
            math.ldexp(_ricci_component(b, a, c), -e),
            math.ldexp(_ricci_component(c, a, b), -e),
        )
        if math.isfinite(r.r12) and math.isfinite(r.r13) and math.isfinite(r.r23):
            return r
    except ArithmeticError:  # a product underflowed to 0, or a result overflowed
        pass
    return RicciComponents(_exact_ricci_component(l12, l13, l23),
                           _exact_ricci_component(l13, l12, l23),
                           _exact_ricci_component(l23, l12, l13))


def flow_rhs(m) -> np.ndarray:
    """Ricci flow velocity l' = -2 r(l) for a valid metric."""
    r = ricci_components(m)
    return np.array([-2.0 * r.r12, -2.0 * r.r13, -2.0 * r.r23])


def _poly_component(a, b, c):
    # component paired with slot a of the quadratic system: 6bc + a^2 - b^2 - c^2
    return 6.0 * b * c + a * a - b * b - c * c


_F64 = np.dtype(np.float64)


def poly_rhs(x):
    """Quadratic polynomial system on all of R^3.

    Equals 12*l12*l13*l23 * ricci_components on the open first octant
    (see ``reparam_check``) but is defined and homogeneous of degree 2
    everywhere: poly_rhs(c*x) = c^2 * poly_rhs(x) for every real c.

    A tuple (a, b, c) is one point in Python floats and gives a 3-tuple of
    floats; the chart formulas pass their points this way.  Any other
    3-vector gives a float ndarray of the same values, and an (..., 3)
    array gives (..., 3), row by row with the same operations.
    """
    if x.__class__ is tuple:
        a, b, c = x
        # an int or numpy scalar point computes as the float rows do
        if a.__class__ is not float or b.__class__ is not float or c.__class__ is not float:
            a, b, c = float(a), float(b), float(c)
        # _poly_component inlined, same operation order
        return (6.0 * b * c + a * a - b * b - c * c,
                6.0 * a * c + b * b - a * a - c * c,
                6.0 * a * b + c * c - a * a - b * b)
    # a float64 ndarray, as the integrators pass, needs no conversion
    if x.__class__ is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(poly_rhs(tuple(x.tolist())))
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
    """Analytic 3x3 Jacobian of :func:`poly_rhs`.

    Any 3-vector (a tuple, list or array of numbers) gives a C-contiguous
    (3, 3) float ndarray, and an (..., 3) array gives (..., 3, 3): one
    path with the same operations for every input, so a single point's
    bytes equal its row of a batch.
    """
    x = np.asarray(x, dtype=float)
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
    lhs = poly_rhs(np.array(mp, dtype=float))
    rhs = 12.0 * mp.l12 * mp.l13 * mp.l23 * np.array(ricci_components(mp), dtype=float)
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
    marr = np.array(mp, dtype=float)
    r = np.array(ricci_components(mp), dtype=float)
    c = float((r @ marr) / (marr @ marr))
    residual = float(np.max(np.abs(r - c * marr)))
    return c, residual
