"""Even cat state: reconstruct it and export its Wigner function.

The even cat (|alpha> + |-alpha>)/N with alpha = sqrt(2) is the stress test
for phase coherence: the two lobes are easy, the interference fringes
between them are not.  A reconstruction that loses the off-diagonal
elements keeps the lobes but the fringes wash out, so the fringe contrast
of the fitted Wigner function is an honest summary of how much coherence
survived the fit.

Writes wigner_true.csv and wigner_fit.csv next to this script.
"""

import math
import os

import numpy as np

from maxent_tomo import (
    FockSpace,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
    even_cat,
    expectation,
    fidelity,
    fit,
    number_operator,
    simulate_ideal,
    wigner_eval,
    write_wigner_csv,
)

trap = TrapConfig(omega_z=2 * math.pi * 80e3, dz0=22e-9, dv0=11e-3,
                  cloud_rms=60e-6, be_time=8.7e-3)
space = FockSpace(16)
thetas = tuple(trap.omega_z * t for t in (0.0, 1.6e-6, 3.2e-6, 4.8e-6))

cat = even_cat(space, math.sqrt(2.0))
nbar = expectation(cat, number_operator(space))
print(f"even cat, alpha = sqrt(2): <n> = {nbar:.6f} "
      f"(alpha^2 tanh alpha^2 = {2 * math.tanh(2.0):.6f})")

grid = default_bin_grid(trap, nbar=nbar, half_count=25)
obs = build_observation_level(trap, grid, thetas, nbar=nbar, space=space)
state, report = fit(obs.with_record(simulate_ideal(cat, obs)), grad_tol=1e-13)
print(f"delta_f = {report.delta_f:.2e}, entropy = {report.entropy:.2e}, "
      f"fidelity = {fidelity(cat, state.rho):.6f}")

w_true = wigner_eval(cat, span=6.0, points=201)
w_fit = wigner_eval(state.rho, span=6.0, points=201)
here = os.path.dirname(os.path.abspath(__file__))
write_wigner_csv(w_true, os.path.join(here, "wigner_true.csv"))
write_wigner_csv(w_fit, os.path.join(here, "wigner_fit.csv"))

# fringe pattern along p at q = 0: W alternates sign with period pi/(2 alpha)
mid = 100
p_axis = w_fit.p_axis
slice_fit = w_fit.values[mid]
slice_true = w_true.values[mid]
print()
print("W(0, p) fringe slice (true vs fit):")
for p_target in (0.0, 0.56, 1.11, 1.67):
    j = int(np.argmin(np.abs(p_axis - p_target)))
    print(f"  p = {p_axis[j]:5.2f}   {slice_true[j]:+.4f}   {slice_fit[j]:+.4f}")
neg_true = slice_true.min()
neg_fit = slice_fit.min()
print(f"deepest fringe: true {neg_true:+.4f}, fit {neg_fit:+.4f} "
      f"({100 * neg_fit / neg_true:.1f} percent of the negativity kept)")
print("wrote wigner_true.csv and wigner_fit.csv")
