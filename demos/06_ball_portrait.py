# Drawing the Poincare ball
# =========================
#
# A single static picture summarizes the qualitative story: the unit ball
# with the ten equilibria at infinity on its boundary (disks for
# attractors and repellers, diamonds for saddles, larger markers for the
# first-octant points) and a few compactified trajectories flowing to the
# boundary.
#
# Each trajectory is the run that `run_to_limit` makes, the same run the
# basin experiment and `classify_limit` use.  A run that enters the
# certified attraction set of an attractor stops there, and its polyline
# ends at the attractor's census direction.  A run that settles at a
# saddle or repeller stops once two consecutive points lie within 1e-7 of
# it.

from pathlib import Path

from flagflow import find_infinity_equilibria, invariant_directions, model_poly_field
from flagflow import run_to_limit
from flagflow.svgplot import ball_portrait_svg

equilibria = find_infinity_equilibria(model_poly_field())

starts = [2.0 * d for d in invariant_directions()]
starts += [(1.3, 1.1, 1.6), (0.9, 2.4, 0.7), (2.2, 0.8, 1.1)]

trajectories = []
for x0 in starts:
    traj, states = run_to_limit(x0, t_end=30.0)
    print(f"start {tuple(round(float(v), 3) for v in x0)}: {traj.termination} after "
          f"{len(traj.times) - 1} steps{', ' + traj.note if traj.note else ''}")
    trajectories.append(states)

svg = ball_portrait_svg(equilibria, trajectories)
out = Path(__file__).with_name("ball_portrait.svg")
out.write_text(svg)
print("wrote", out)

# The same picture is available from the command line:
#
#     flagflow plot --out portrait.svg
