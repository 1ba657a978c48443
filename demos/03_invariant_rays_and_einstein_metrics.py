# Four invariant rays and the Einstein metrics they carry
# ========================================================
#
# A ray t -> t*d is a solution of the quadratic system exactly when the
# field at d is parallel to d.  Restricting to directions of the form
# (1, t, 1) and permutations, the parallelism condition factors into
# t^3 - 5 t^2 + 4 = 0, whose positive roots t = 1 and t = 2 + 2*sqrt(2)
# give four rays in the first octant.

import numpy as np

from flagflow import (
    classify_limit,
    einstein_residual,
    invariant_directions,
    line_direction,
    tangency_defect,
)
from flagflow.model import invariant_ray_parameter

t = invariant_ray_parameter()
print("ray parameter t = 2 + 2*sqrt(2) =", t)

for j, d in enumerate(invariant_directions(), start=1):
    defect = tangency_defect(d)
    c, residual = einstein_residual(d)
    print(f"ray {j}: direction {np.round(d, 6)}  tangency defect {defect:.1e}  "
          f"Einstein residual {residual:.1e}")

# Every ray direction is an Einstein metric: the Ricci tensor is a scalar
# multiple of the metric.  The constants come out in closed form:

c_diag, _ = einstein_residual((1.0, 1.0, 1.0))
c_ray, _ = einstein_residual((1.0, t, 1.0))
print("\nEinstein constant on the diagonal      :", c_diag, "= 5/12")
print("Einstein constant on the (1,t,1)-type  :", c_ray, "= (2 - sqrt 2)/6")

# Following the compactified flow to its limit classifies starting metrics
# by the geometry of their limit direction: the diagonal limit is the
# normal (bi-invariant) Einstein metric, the other rays are Einstein but
# not normal.  The run is the one the basin experiment makes.  It stops on
# entry to the certified attraction set of the diagonal attractor, whose
# census direction then is the limit (three bitwise-equal components); a
# run that settles at a saddle ray stops once two consecutive points lie
# within 1e-7 of it.

for label, x0 in [
    ("slightly off the diagonal", (1.2, 1.25, 1.2)),
    ("on ray 1, radial nudge", tuple(2.01 * line_direction(1))),
    ("exactly diagonal", (1.5, 1.5, 1.5)),
]:
    res = classify_limit(x0)
    print(f"\nstart {label}:")
    print(f"  limit direction {np.round(res.limit_direction, 6)}")
    print(f"  kind: {res.kind}   residual at limit: {res.einstein_residual_at_limit:.2e}")
