# The invariant-metric flow on SU(3)/T in three numbers
# =====================================================
#
# An invariant metric on the full flag manifold SU(3)/T is fixed by three
# positive scales (l12, l13, l23), one per isotropy summand.  The Ricci
# tensor of such a metric has three components, given in closed form, and
# the Ricci flow  l' = -2 r(l)  becomes an autonomous ODE on the open
# first octant.

import numpy as np

from flagflow import flow_rhs, poly_rhs, reparam_check, ricci_components

m = (1.0, 1.0, 1.0)
print("metric           :", m)
print("ricci components :", tuple(ricci_components(m)))
print("flow velocity    :", flow_rhs(m))

# The round metric (1,1,1) has r = (5/12, 5/12, 5/12): it is Einstein, and
# under the flow it shrinks isotropically.

# Multiplying the flow by the positive factor 12*l12*l13*l23 clears all
# denominators and reverses the time direction.  The result is a quadratic
# polynomial system defined on all of R^3:

print("\nquadratic system at (1,1,1):", poly_rhs((1.0, 1.0, 1.0)))
print("rescaling identity defect  :", reparam_check((0.7, 1.9, 3.2)))

# The identity  poly = 12*l12*l13*l23 * ricci  holds exactly; the defect
# above is floating-point noise.  Because the factor is positive on the
# octant, both systems share trajectories there, with opposite time arrows
# (the metric flow contracts, the quadratic flow expands).

# Both flows preserve the diagonal, where they reduce to scalar ODEs with
# closed-form solutions: the metric flow collapses as sqrt(1 - 5t/3) and
# the quadratic flow blows up as 1/(1 - 5t).

from flagflow import IntegratorConfig, integrate_with_events, ricci_field

tr = integrate_with_events(ricci_field, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.3))
print("\nmetric flow at t=0.3   :", tr.final_state[0], " closed form:", np.sqrt(1 - 0.5))
tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0), IntegratorConfig(t_end=0.1))
print("quadratic flow at t=0.1:", tr.final_state[0], " closed form:", 1 / (1 - 0.5))

# Pushed past its blow-up time the quadratic flow terminates cleanly, either
# by a blow-up event or by step-size collapse:

tr = integrate_with_events(poly_rhs, (1.0, 1.0, 1.0),
                           IntegratorConfig(t_end=1.0), blow_up_radius=1e6)
print("\nblow-up event at t =", tr.final_time, "(diagonal blow-up time is 0.2)")
