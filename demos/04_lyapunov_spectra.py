# Lyapunov spectra along the invariant rays (and what they reveal)
# =================================================================
#
# Along each invariant ray the compactified flow marches to the ray's
# equilibrium at infinity.  Co-integrating a tangent frame and
# re-orthonormalizing it on a fixed cadence (the Benettin procedure)
# estimates the Lyapunov exponents of that trajectory.
#
# Takes about 3 seconds (2.4-3.4 s over four runs on a shared 2-vCPU Xeon;
# 6.2-8.8 s in the same sitting at the earlier rel_tol of 1e-7): the running
# averages settle at the 1e-3 level only after a few hundred time units.

from flagflow import lyapunov_exponent_table

table = lyapunov_exponent_table()

print("line  chart  exponents (sorted)                 t_used  converged")
for row in table.rows:
    e = row.exponents
    print(f"  {row.line}    U{row.chart}   ({e[0]:+9.5f}, {e[1]:+9.5f}, {e[2]:+9.5f})"
          f"   {row.t_used:6.1f}  {row.converged}")

# Reading the table:
#
# * Ray 2 (the diagonal): spectrum (-5, -7, -7).  The equilibrium at
#   infinity attracts in every direction; the whole tube of nearby initial
#   metrics follows the ray.  These are exactly the eigenvalue real parts
#   of the chart Jacobian at the equilibrium, as they must be for a
#   trajectory converging to a hyperbolic rest point.
#
# * Rays 1, 3, 4: the leading exponent is positive (about +21.66 for rays
#   1 and 3 as seen in chart 1, +4.49 for ray 4, which chart 1 views at a
#   different conformal scale).  Their equilibria are saddles whose
#   unstable direction lies inside the equator: motion along the ray is
#   attracted, but any transverse push along the sphere at infinity grows.
#   A frame riding the ray picks that growth up immediately.
#
# The positive leading exponents are the quantitative face of the basin
# experiment in demo 05: tubes around the saddle rays do not converge to
# their own equilibria.
