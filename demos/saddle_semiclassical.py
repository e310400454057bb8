"""How the classical identity emerges from the quantum one: the
stationary-phase construction.

The phase attached to a mutation period depends on positions u(t) and
momenta p(t).  The stationary point is constructed in closed form: the
initial u fixes w(1) = B^T u(1), the trajectory y(t) follows classical
mutation from y(1) = e^(2 w(1)), and the momenta are half-logarithms
of the y-values.  Every stationarity equation holds to machine
precision, and the phase value collapses -- via the logarithmic
identity relating the Euler and Rogers dilogarithms -- to the signed
Rogers sum of the period, which is zero.
"""

import cmath
import math

import numpy as np

from clusterdilog import (
    action,
    build_solution,
    builtin_seed,
    coordinate_maps,
    newton_refine,
    residuals,
)
from clusterdilog.saddle import matrices_along

B, sched = builtin_seed("A2")
rng = np.random.default_rng(5)
u1 = rng.uniform(-2, 2, size=2)
print(f"initial position u(1) = {np.round(u1, 4)}")

st = build_solution(B, sched, u1)
print(f"w(1) = {np.round(st.w[0], 4)}, y(1) = {np.round(st.ys[0], 4)}")
print(f"active y-values along the period: {np.round(st.yactive, 5)}")
print(f"tropical signs: {st.signs}")

rep = residuals(st, B, sched)
print("\nstationarity residuals (max over equations):")
print(f"  d/du equations: {rep.residual_u_eqs:.2e}")
print(f"  d/dp equations: {rep.residual_p_eqs:.2e}")
print(f"  induced w relations: {rep.residual_w_eqs:.2e}")

val, cross = action(st, B, sched)
print(f"\nphase value at the stationary point: {val:.3e}")
print(f"closed-form cross-check (signed Rogers sum x -1/2): {cross:.3e}")
print(f"difference: {abs(val - cross):.2e}")

step = newton_refine(st, B, sched)
print(f"a Newton step moves the point by {step:.2e} (confirming stationarity)")

print("\ndeforming the exponent by lambda with Im(lambda^2) > 0:")
ray = cmath.exp(1j * math.pi / 4)
for d in (0.1, 0.05, 0.01):
    lam = 1 + d * ray
    stl = build_solution(B, sched, [0.2, -0.3], mode="lambda", lam=lam)
    v, c = action(stl, B, sched)
    print(f"  |lambda - 1| = {d}: |action| = {abs(v):.2e}, "
          f"|action - cross| = {abs(v - c):.2e}")
print("the deformed phase vanishes all along the ray and at lambda -> 1")

print("\ninteger coordinate maps of the five mutation steps (u and w):")
mats = matrices_along(B, sched.sequence)
for t in range(5):
    spec = coordinate_maps(mats[t], sched.sequence[t], st.signs[t])
    u_map, w_map = np.array(spec.u_map), np.array(spec.w_map)
    print(f"  t={t + 1}: u-map {u_map.tolist()}, w-map {w_map.tolist()},"
          f" duality u^T w = I: "
          f"{np.array_equal(u_map.T @ w_map, np.eye(2, dtype=int))}")
