# Compactifying the quadratic flow: the sphere at infinity
# =========================================================
#
# The quadratic system blows up in finite time, so its asymptotics live
# "at infinity".  The Poincare construction embeds R^3 into the open unit
# ball; the boundary sphere collects the directions of escape, and the
# rescaled field extends analytically to it.

import numpy as np

from flagflow import (
    ball_projection,
    ball_unprojection,
    chart_equator_roots,
    compactified_field_array,
    find_infinity_equilibria,
    model_poly_field,
)

# The ball projection x -> x / sqrt(1 + |x|^2) and its inverse:

x = np.array([1.0, 1.0, 1.0])
u = ball_projection(x)
print("ball image of (1,1,1):", u, " back:", ball_unprojection(u))

# Three affine charts cover the sphere; in each, the compactified field is
# polynomial and the plane z3 = 0 is the invariant equator (infinity).

field = model_poly_field()
print("\nchart-1 field at the diagonal equator point:",
      compactified_field_array(field, 1, (1.0, 1.0, 0.0)))

# That zero is no accident: the diagonal direction is an equilibrium at
# infinity.  A seeded Newton search per chart finds every equator root;
# each chart sees seven, and collecting the signed directions across the
# three charts gives ten distinct points.

for chart in (1, 2, 3):
    roots = chart_equator_roots(field, chart)
    print(f"chart {chart}: {len(roots)} equator roots")

print("\nfull census:")
for eq in find_infinity_equilibria(field):
    d = np.round(eq.direction, 6)
    eig = np.round(eq.eigenvalues.real, 3)
    octant = "first octant" if eq.first_octant else "            "
    print(f"  chart {eq.chart}  dir=({d[0]:+.6f}, {d[1]:+.6f}, {d[2]:+.6f})  "
          f"{eq.stability:13s} {octant}  Re(eig)={eig}")

# Four of the ten sit in the open first octant, where points are honest
# metrics: the diagonal (an attractor) and three permutation-related
# saddle points.  The mixed-sign points pair up antipodally; the even
# degree of the field reverses time between antipodes, which is why they
# split into attractors and repellers.
