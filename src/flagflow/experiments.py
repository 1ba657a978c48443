"""Runnable reproductions of the qualitative results for the SU(3)/T flow.

* ``no_interior_equilibria_scan``: certifies numerically that the
  quadratic field has no zero on the closed first-octant unit sphere, so
  by homogeneity the origin is its only zero in the octant cone.
* ``cylinder_basin``: samples a tube of initial conditions around one of
  the four invariant rays and reports which fraction of the compactified
  trajectories terminates at the ray's equilibrium at infinity.
* ``lyapunov_exponent_table``: Benettin spectra for the four rays in a
  fixed affine chart.
* ``classify_limit``: runs one metric to its limit direction and labels
  the limit (normal Einstein / Einstein / neither).
* ``run_to_limit``: the run to infinity that the basin, ``classify_limit``
  and the ball portrait share, with one stop table from the census.

Sampling streams are derived from (seed, line, sample index), so reports
are independent of execution order and reproducible byte for byte.  A
basin sample's stream equals ``numpy.random.default_rng([seed, line,
idx])``, drawn by a pure-Python copy of its SeedSequence and PCG64
(:func:`_rng_doubles`), so that no basin process imports ``numpy.random``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple, Sequence

import numpy as np

from . import compactify as cpt
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    _row_dot,
    _row_norm,
    distance_to_line_ball,
    integrate_compactified,
    lyapunov_spectrum,
)
from .model import (
    MetricParams,
    einstein_residual,
    line_direction,
    poly_jacobian,
    poly_rhs,
)

__all__ = [
    "no_interior_equilibria_scan",
    "cylinder_basin",
    "lyapunov_exponent_table",
    "classify_limit",
    "run_to_limit",
    "BasinReport",
    "BasinSample",
    "LyapunovTable",
    "LyapunovTableRow",
    "LimitClassification",
]

# ball radius below which a terminal point counts as "at" an equilibrium
# direction when reporting convergence
CONVERGED_DISTANCE = 1e-3

_RUN_CFG = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11, max_step=0.25, t_end=200.0)

# ambient radius of the Lyapunov base point on each ray
_BASE_RADIUS = 2.0
# the loosest rel_tol tried at which no exponent of the default table moves
# by 1e-3 from its value at 1e-7: at 2e-5 rows 1-4 move by 6.8e-4, 6.3e-5,
# 6.8e-4 and 1.2e-4, and the table takes 254,163 field evaluations instead
# of 688,976.  The move is not monotone in rel_tol (1e-5 moves row 4 by
# 4.3e-3, 3e-5 rows 1 and 3 by 1.0e-3): row 4 is sensitive to the step sequence
_LYAPUNOV_CFG = IntegratorConfig(rel_tol=2e-5, abs_tol=1e-10, max_step=0.1, t_end=500.0)

# basin launch heights run from the ball image delta / sqrt(1 + delta^2) of
# the sphere |x| = delta up to 0.98; from delta 4.925 on that band is empty
MAX_BASIN_DELTA = 4.9
# a basin sample takes about 1.5 ms and 30.5 accepted steps (lines 1-4,
# seed 7, 200 samples each, 1.2-1.9 ms over three runs on a shared 2-vCPU
# Xeon), so the cap bounds a line near 19 s
MAX_BASIN_SAMPLES = 10_000

# octant-scan grids hold about resolution^2 / 2 points; a whole verify run
# at the upper bound peaks near 150 MB
MIN_SCAN_RESOLUTION = 50
MAX_SCAN_RESOLUTION = 1600


_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _rng_doubles(entropy: Sequence[int]):
    """Yield the doubles of ``numpy.random.default_rng(list(entropy)).random()``, bit for bit.

    ``entropy`` holds non-negative ints.  numpy's SeedSequence hashes their
    little-endian 32-bit words into a pool of four and draws four 64-bit
    words from it, which seed PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit
    LCG whose output is its high and low halves xored and rotated right by
    the state's top six bits.  A stream takes about 18 us to seed and draw
    twice, against 20-27 us for ``default_rng`` (2-vCPU Xeon), and loads
    none of ``numpy.random``'s extension modules, 5 MB resident.
    """
    words = []
    for v in entropy:
        words.append(v & _M32)
        while v > _M32:
            v >>= 32
            words.append(v & _M32)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(w))
    h = 0x8B51F9DD
    state_words = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        state_words.append(v ^ v >> 16)
    s0, s1, s2, s3 = (state_words[2 * k] | state_words[2 * k + 1] << 32 for k in range(4))
    # seeding: state 0, one step, add the seed, one step; each draw steps first
    inc = (s2 << 64 | s3) << 1 | 1
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
    while True:
        state = (state * _PCG64_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield (x >> 11) * 2.0 ** -53


@functools.lru_cache(maxsize=1)
def _census() -> tuple[cpt.InfinityEquilibrium, ...]:
    """The equilibria at infinity of the quadratic field, computed once per process."""
    return tuple(cpt.find_infinity_equilibria(cpt.model_poly_field()))


@functools.lru_cache(maxsize=1)
def _stops() -> tuple[tuple[np.ndarray, ...], tuple[tuple[np.ndarray, float], ...]]:
    """Stop table of every run to infinity: (targets, certified (center, stop radius) pairs).

    Every attractor at infinity with an attraction certificate stops a run
    on entry to its stop ball; the other equilibria stay targets of the
    two-point rule, so a run that leaves the first octant ends too.
    """
    field = cpt.model_poly_field()
    targets, certified = [], []
    for eq in _census():
        cert = cpt.attraction_certificate(field, eq)
        if cert is None:
            targets.append(eq.direction)
        else:
            certified.append((cert.center, cert.stop_radius))
    return tuple(targets), tuple(certified)


def run_to_limit(x0, t_end: float = _RUN_CFG.t_end) -> tuple[Trajectory, np.ndarray]:
    """Run an ambient start of the quadratic field to its limit at infinity.

    The compactified run stops on entry to the certified attraction set of
    an attractor at infinity, once two consecutive points lie within
    ``STOP_RADIUS`` of another equilibrium at infinity, or at ``t_end``.
    Returns the trajectory and its ball states; after a certified stop the
    states end with the attractor's census direction, ``Trajectory.limit``.
    """
    cfg = dataclasses.replace(_RUN_CFG, t_end=t_end)
    targets, certified = _stops()
    traj = integrate_compactified(cpt.model_poly_field(), x0, cfg,
                                  targets=targets, certified=certified)
    states = traj.states if traj.limit is None else np.vstack([traj.states, traj.limit])
    return traj, states


def _octant_grid(resolution: int) -> np.ndarray:
    """Geodesic grid of the closed first-octant unit sphere (projected lattice)."""
    n = resolution
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = i + j <= n
    pts = np.column_stack([i[mask], j[mask], (n - i - j)[mask]]).astype(float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _polish_octant_minima(d: np.ndarray) -> np.ndarray:
    """Projected-gradient descent of |poly_rhs|^2 on the octant sphere patch.

    Runs one descent per row of ``d``, all rows at once: each row keeps its
    own backtracking step and stops on its own when its projected gradient
    vanishes or its line search finds no decrease.  Returns the minimum
    |poly_rhs| reached by each row.
    """
    d = d / _row_norm(d)[:, None]
    p = poly_rhs(d)
    f = _row_dot(p, p)
    active = np.arange(len(d))
    for _ in range(200):
        if active.size == 0:
            break
        da = d[active]
        p = poly_rhs(da)
        g = 2.0 * (np.swapaxes(poly_jacobian(da), 1, 2) @ p[:, :, None])[:, :, 0]
        g_t = g - _row_dot(g, da)[:, None] * da
        gnorm = _row_norm(g_t)
        moving = ~(gnorm < 1e-12)
        active, da, g_t, gnorm = active[moving], da[moving], g_t[moving], gnorm[moving]
        alpha = 0.1 / (1.0 + gnorm)
        searching = np.ones(active.size, dtype=bool)
        for _ in range(40):
            rows = np.flatnonzero(searching)
            if rows.size == 0:
                break
            cand = np.clip(da[rows] - alpha[rows, None] * g_t[rows], 0.0, None)
            norm = _row_norm(cand)
            pos = norm > 0.0
            rows = rows[pos]
            cand = cand[pos] / norm[pos, None]
            pc = poly_rhs(cand)
            fc = _row_dot(pc, pc)
            better = fc < f[active[rows]] - 1e-18
            hit = rows[better]
            d[active[hit]] = cand[better]
            f[active[hit]] = fc[better]
            searching[hit] = False
            alpha[searching] *= 0.5
        active = active[~searching]
    return np.sqrt(f)


def no_interior_equilibria_scan(resolution: int) -> float:
    """Minimum of |poly_rhs| over the closed first-octant unit sphere.

    Evaluates the field norm on a geodesic grid at the given resolution and
    polishes the best candidates by projected descent.  A strictly positive
    result certifies (numerically) that the origin is the only zero of the
    quadratic system in the closed octant cone, hence the metric flow has
    no fixed point on the open cone.
    """
    if not MIN_SCAN_RESOLUTION <= resolution <= MAX_SCAN_RESOLUTION:
        raise ValueError(f"resolution must lie in [{MIN_SCAN_RESOLUTION}, {MAX_SCAN_RESOLUTION}]")
    dirs = _octant_grid(resolution)
    norms = np.linalg.norm(poly_rhs(dirs), axis=1)
    best = float(np.min(norms))
    order = np.argsort(norms, kind="stable")[:40]
    return min(best, float(np.min(_polish_octant_minima(dirs[order]))))


class BasinSample(NamedTuple):
    """One tube sample: seed index, launch point, terminal ball point, outcome."""

    index: int
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    termination: str
    converged: bool
    max_deviation: float


@dataclass
class BasinReport:
    """Outcome of a cylinder-of-initial-conditions experiment around one ray."""

    line: int
    epsilon: float
    delta: float
    samples: int
    seed: int
    converged_fraction: float
    max_line_deviation: float
    records: list[BasinSample] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        # keys in field order, the order of the basin JSON schema
        return {**vars(self), "records": [r._asdict() for r in self.records]}


# transverse reference axis per line, chosen equivariantly under the
# coordinate permutations relating lines 1, 3 and 4 (the axis of the
# dominant component; the diagonal line uses the third axis)
_FRAME_AXIS = {1: 1, 2: 2, 3: 2, 4: 0}


def _tube_frame(line: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = line_direction(line)
    axis = np.zeros(3)
    axis[_FRAME_AXIS[line]] = 1.0
    e1 = axis - (axis @ d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return d, e1, e2


def cylinder_basin(line: int, epsilon: float, delta: float, n: int, seed: int) -> BasinReport:
    """Sample the radius-``epsilon`` tube around an invariant ray and integrate.

    Launch points sit on the lateral surface of the tube (ball picture),
    uniform in height along the ray and in angle; heights range from the
    ball image of the ambient sphere |x| = delta, delta in [0.5, 4.9], up
    to ball radius 0.98.
    Each sample runs to its limit with :func:`run_to_limit`: it stops on
    entry to the certified attraction set of an attractor at infinity (see
    :func:`flagflow.compactify.attraction_certificate`), once it settles at
    one of the other equilibria at infinity, or at time 200.  ``end`` is the
    attractor's census direction after a certified stop and the last
    integrated point otherwise; a sample counts as converged when it
    terminates with ``end`` within 1e-3 of the ray's own direction.
    ``max_deviation`` is the largest ball-coordinate distance to the ray
    over the integrated states after launch and the certified limit.
    Sample ``idx`` draws its height and angle from the stream of
    ``numpy.random.default_rng([seed, line, idx])`` (:func:`_rng_doubles`).
    """
    if not (0.0 < epsilon <= 0.1):
        raise ValueError("epsilon must lie in (0, 0.1]")
    if not 0.5 <= delta <= MAX_BASIN_DELTA:
        raise ValueError(f"delta must lie in [0.5, {MAX_BASIN_DELTA}]")
    if not 1 <= n <= MAX_BASIN_SAMPLES:
        raise ValueError(f"sample count must lie in [1, {MAX_BASIN_SAMPLES}]")
    d, e1, e2 = _tube_frame(line)
    target = line_direction(line)
    r_lo = delta / math.sqrt(1.0 + delta * delta)
    r_hi = 0.98

    records: list[BasinSample] = []
    n_conv = 0
    overall_dev = 0.0
    for idx in range(n):
        # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(); lo = 0.0 drops out
        draws = _rng_doubles((seed, line, idx))
        height = r_lo + (r_hi - r_lo) * next(draws)
        angle = 2.0 * math.pi * next(draws)
        u0 = height * d + epsilon * (math.cos(angle) * e1 + math.sin(angle) * e2)
        x0 = cpt.ball_unprojection(u0)
        traj, states = run_to_limit(x0)
        end = states[-1]
        converged = (traj.termination == "converged_to_point"
                     and float(np.linalg.norm(end - target)) <= CONVERGED_DISTANCE)
        devs = distance_to_line_ball(states[1:], line)
        dev = float(devs.max()) if devs.size else 0.0
        n_conv += converged
        overall_dev = max(overall_dev, dev)
        records.append(BasinSample(
            index=idx,
            start=tuple(float(v) for v in u0),
            end=tuple(float(v) for v in end),
            termination=traj.termination,
            converged=converged,
            max_deviation=dev,
        ))
    return BasinReport(
        line=line,
        epsilon=epsilon,
        delta=delta,
        samples=n,
        seed=seed,
        converged_fraction=n_conv / n,
        max_line_deviation=overall_dev,
        records=records,
    )


class LyapunovTableRow(NamedTuple):
    line: int
    chart: int
    exponents: tuple[float, float, float]  # sorted descending
    t_used: float
    converged: bool
    note: str
    work: dict  # integrator counters of the run, as on LyapunovSpectrum


@dataclass
class LyapunovTable:
    rows: list[LyapunovTableRow]

    def row(self, line: int, chart: int = 1) -> LyapunovTableRow:
        for r in self.rows:
            if r.line == line and r.chart == chart:
                return r
        raise KeyError((line, chart))


def _held_on_ray(field: cpt.PolyField3, chart: int, z0):
    """The row's linear system on the invariant ray through z0: (held field, held Jacobian).

    The chart field's first two components do not depend on z3 and vanish
    exactly on the ray, but in floats they leave a rounding residue of up
    to 3.6e-15 there; steps long enough to turn it into a change of
    (z1, z2) would carry the base off its ray.  Set to 0.0, they keep
    (z1, z2) at z0's, so the held field is the chart field's third
    component at (z0[0], z0[1], z3), linear in z3, bit for bit.  On that
    base the chart Jacobian is fixed but for entries [2, 0] and [2, 1], z3
    times constants: the held Jacobian evaluates it once and rescales those
    two in place, equal bit for bit to ``compactified_jacobian`` at (z0[0],
    z0[1], z3).  It is valid only on the held base and returns one reused array.
    """
    z = (z0[0], z0[1], 1.0)
    rate = float(cpt.compactified_field_array(field, chart, z)[2])
    jac = cpt.compactified_jacobian(field, chart, z)
    unit_row, row = jac[2, :2].copy(), jac[2, :2]

    def jacobian(z: np.ndarray) -> np.ndarray:
        np.multiply(unit_row, z.item(2), out=row)
        return jac

    return (lambda z: np.array([0.0, 0.0, rate * z[2]])), jacobian


def lyapunov_exponent_table(lines: Sequence[int] = (1, 2, 3, 4),
                            charts: Sequence[int] = (1,),
                            renorm_dt: float = 0.1,
                            t_max: float = 500.0) -> LyapunovTable:
    """Benettin spectra along the invariant rays, one row per (line, chart).

    The base trajectory starts at the chart image of the ambient point at
    radius 2 on the ray (outside the numerically unstable ball around the
    origin) and follows the compactified field of the chart, held on the ray
    with its analytic chart Jacobian (:func:`_held_on_ray`), which drives the
    tangent flow.
    Non-convergent rows (including base trajectories that leave the chart)
    are reported with their partial averages and ``converged=False``.
    ``t_max`` passes to :func:`lyapunov_spectrum` as ``t_end``, so it must
    be a whole number of ``renorm_dt`` segments.
    """
    field = cpt.model_poly_field()
    base_cfg = dataclasses.replace(_LYAPUNOV_CFG, t_end=t_max)
    rows = []
    for line in lines:
        x0 = _BASE_RADIUS * line_direction(line)
        y = cpt.sphere_from_ambient(x0)
        for chart in charts:
            z0 = cpt.chart_coords(y, chart)
            held_field, held_jacobian = _held_on_ray(field, chart, z0)
            spec = lyapunov_spectrum(held_field, z0, base_cfg, renorm_dt,
                                     jacobian=held_jacobian)
            rows.append(LyapunovTableRow(
                line=line,
                chart=chart,
                exponents=tuple(float(v) for v in spec.exponents),
                t_used=spec.t_used,
                converged=spec.converged,
                note=spec.note,
                work=spec.work,
            ))
    return LyapunovTable(rows=rows)


@dataclass
class LimitClassification:
    """Limit direction of one compactified run and its geometric label."""

    limit_direction: np.ndarray
    einstein_residual_at_limit: float
    kind: str  # normal_einstein | einstein | non_einstein
    termination: str


def classify_limit(x0) -> LimitClassification:
    """Run a metric to its limit direction and label the limit metric.

    The run is that of :func:`run_to_limit`.  The limit direction is the
    attractor's census direction after a certified stop, and the last ball
    point, normalised, otherwise.  ``normal_einstein`` when the limit
    direction is the diagonal (within 1e-6), ``einstein`` when the
    Einstein residual of the limit direction is below 1e-8, otherwise
    ``non_einstein``.  A run that does not settle
    at an equilibrium direction is labelled ``non_einstein`` and carries
    its termination reason as the diagnostic.
    """
    m = MetricParams.of(np.asarray(x0, dtype=float))
    traj, states = run_to_limit(np.array(m, dtype=float))
    u = states[-1]
    direction = u if traj.limit is not None else u / float(np.linalg.norm(u))
    if np.all(direction > 0.0):
        _, residual = einstein_residual(direction)
    else:
        residual = math.inf
    diag = line_direction(2)
    if traj.termination != "converged_to_point":
        kind = "non_einstein"
    elif float(np.linalg.norm(direction - diag)) <= 1e-6:
        kind = "normal_einstein"
    elif residual < 1e-8:
        kind = "einstein"
    else:
        kind = "non_einstein"
    return LimitClassification(
        limit_direction=direction,
        einstein_residual_at_limit=float(residual),
        kind=kind,
        termination=traj.termination,
    )
