"""Reconstruct (|0> + |1>)/sqrt(2) from noise-free ballistic-expansion data.

The measurement: release the atoms after four different hold times in the
trap, let them fall for 8.7 ms, and histogram the arrival positions into 51
detector bins.  Each (hold time, bin) pair is one observable; the mean
occupation is measured separately and anchors the energy scale.  The
reconstruction is the canonical state exp(-sum lambda_v G_v)/Z whose means
best match the data.
"""

import math

import numpy as np

from maxent_tomo import (
    FockSpace,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
    delta_rho,
    fidelity,
    fit,
    simulate_ideal,
    superposition,
)

# 80 kHz trap, matched 22 nm / 11 mm/s vacuum widths, 60 um cloud
trap = TrapConfig(
    omega_z=2 * math.pi * 80e3,
    dz0=22e-9,
    dv0=11e-3,
    cloud_rms=60e-6,
    be_time=8.7e-3,
)
space = FockSpace(16)
taus = (0.0, 1.6e-6, 3.2e-6, 4.8e-6)
thetas = tuple(trap.omega_z * t for t in taus)

psi = superposition(space, [1.0, 1.0])
grid = default_bin_grid(trap, nbar=0.5, half_count=25)
obs = build_observation_level(trap, grid, thetas, nbar=0.5, space=space)
print(f"observation level: {obs.n_ops} operators "
      f"({len(thetas)} rotations x {grid.n_bins} bins + number operator)")

record = simulate_ideal(psi, obs)
print("bin capture per rotation:", np.round(record.values.sum(axis=1), 6))

# exact data deserves a tight gradient tolerance; the deviation floor near
# a pure state is shallow and the default 1e-9 stops a little early
state, report = fit(obs.with_record(record), grad_tol=1e-13)

print(f"converged = {report.converged} after {report.iterations} iterations")
print(f"deviation delta_f = {report.delta_f:.3e}")
print(f"entropy           = {report.entropy:.3e}  (true state is pure: 0)")
print(f"fidelity          = {fidelity(state.rho, psi.density()):.7f}")
print(f"delta_rho         = {delta_rho(state.rho, psi.density()):.3e}")
print()
print("populations (true vs reconstructed):")
true_pops = np.abs(psi.amplitudes) ** 2
fit_pops = state.rho.populations()
for n in range(4):
    print(f"  |{n}>  {true_pops[n]:.6f}   {fit_pops[n]:.6f}")
print("coherence rho_01: true 0.5, reconstructed "
      f"{state.rho.matrix[0, 1].real:.6f}{state.rho.matrix[0, 1].imag:+.1e}j")
