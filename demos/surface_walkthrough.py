"""Step-by-step tour of the closed-form surface route.

Every limit value comes from a rational parametrization with one conformal
parameter u in (1, 2] and three distinguished points tau0, tau1, tau2.
The route works in the small unknowns w = u - 1 and d = tau - 1, so that
nothing it divides by is a difference of nearly equal numbers.  This
script walks through the solves for one configuration: normalize to the
star frame, recover w from the gap invariant, find d0, split off the other
two preimages, and read the limit constants from residues.  It then tracks
the effective gap seen along rays right of the threshold, and ends with an
unbalanced system whose (u, tau) crowd against 1.
"""
import numpy as np

from angelesco import AngelescoSystem, Interval, star_normalize
from angelesco.surface import (beta_coord, infinity_preimages, pushed_beta,
                               ray_gaps, residue_limits, solve_d0, solve_w,
                               threshold_ray)

system = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0))
star, frame = star_normalize(system)
alpha, beta = star.alpha, star.beta
print(f"user intervals: {system.i1.lo:g}..{system.i1.hi:g} and "
      f"{system.i2.lo:g}..{system.i2.hi:g}")
print(f"star frame: [-{alpha:g}, 0] u [{beta:g}, 1] "
      f"(scale {frame.scale:g}, shift {frame.shift:g})")

# the gap invariant pins the conformal parameter
w = solve_w(alpha, beta)
print(f"\ngap invariant -> w = u - 1 = {w:.12f} "
      f"(beta recovered to {abs(beta_coord(alpha, w) - beta):.1e})")

# the alpha level-set cubic in d has one positive root
d0 = solve_d0(w, alpha)
tau1, tau2 = infinity_preimages(w, d0)
print(f"d0 = tau0 - 1 = {d0:.10f}; other preimages of infinity: "
      f"tau1={tau1:.10f} tau2={tau2:.10f}")
# the ray s = (1 + theta) / 2 of (w, d0), read as its exact end distances
minus, plus = ray_gaps(w, d0)
print(f"upper plateau edge c2 = {plus / 2:.10f} (1 - c2 = {minus / 2:.10f})")

A1, A2, B1, B2 = residue_limits(alpha, w, d0)
print(f"plateau constants (star frame): A1={A1:.8f} A2={A2:.8f} "
      f"B1={B1:.8f} B2={B2:.8f}")

# rays right of the threshold see a growing effective gap
s_a, _ = threshold_ray(alpha)
print(f"\nthreshold ray of the touching configuration: s_alpha = {s_a:.10f}")
print(f"{'s':>6} {'beta_s':>12} {'w(s)':>12} {'d(s)':>12}")
for s in np.linspace(s_a + 0.02, 0.98, 6):
    b, ws, ds = pushed_beta(alpha, (s, 1.0 - s))
    print(f"{s:>6.3f} {b:>12.8f} {ws:>12.8f} {ds:>12.8f}")
print("beta_s -> 0 at the threshold and -> 1 toward s = 1.")

# alpha = 1e-6: tau0 = 1 + 6e-4 and, near s = 1, u = 1 + 5e-13, yet
# (B2 - B1)^2 = A1 / s^2 + A2 / (1 - s)^2 holds to rounding up to the end:
# w is proportional to x = d - d1 there, and the bisection resolves x
alpha = 1e-6
s = np.array([0.9, 0.99, 0.999999])
_, ws, ds = pushed_beta(alpha, (s, 1.0 - s))
A1, A2, B1, B2 = residue_limits(alpha, ws, ds)
rel = np.abs((B2 - B1) ** 2 - A1 / s ** 2 - A2 / (1 - s) ** 2) / (B2 - B1) ** 2
print(f"\nalpha = {alpha:g}: d0 = {solve_d0(1.0, alpha):.3e} at w = 1")
for row in zip(s, ws, ds, A2, rel):
    print("s={:<9g} w={:.3e} d={:.3e} A2={:.6e} identity {:.1e}".format(*row))
