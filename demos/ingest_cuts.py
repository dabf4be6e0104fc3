"""From raw absorption-image cuts on disk to a reconstructed state.

Real input is not a tidy record: it is one histogram file per rotation,
on a camera pixel grid, with an optical-density offset and an arbitrary
overall scale.  This script manufactures such files for a displaced
state, writes them to ./cuts_demo/, then runs the ingestion chain
(Gaussian profile fit, background subtraction, rebinning onto the
reconstruction grid, normalization) and fits the result.

It also demonstrates the one genuinely destructive preprocessing choice:
recentering every image on its own fitted cloud center.  For a displaced
state the center oscillates with the hold angle, and that oscillation IS
the signal; per-image recentering erases it and the reconstruction
collapses onto a phase-averaged mixture.  Passing a common fixed center
keeps the displacement intact.
"""

import math
import os

import numpy as np

from maxent_tomo import (
    CutFile,
    FockSpace,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
    fidelity,
    fit,
    preprocess,
    read_cut_file,
    simulate_ideal,
    superposition,
    write_cut_file,
)

trap = TrapConfig(omega_z=2 * math.pi * 80e3, dz0=22e-9, dv0=11e-3,
                  cloud_rms=60e-6, be_time=8.7e-3)
space = FockSpace(16)
psi = superposition(space, [1.0, 1.0])
taus_us = (0.0, 1.6, 3.2, 4.8)                 # hold times, microseconds
thetas = tuple(trap.omega_z * tau * 1e-6 for tau in taus_us)  # as RunConfig.rotations

# camera: a much finer grid than the reconstruction wants, wide margins
pixels = default_bin_grid(trap, nbar=0.5, half_count=120, margin=8.0)
obs_pix = build_observation_level(trap, pixels, thetas, nbar=0.5, space=space)
record = simulate_ideal(psi, obs_pix)

here = os.path.dirname(os.path.abspath(__file__))
outdir = os.path.join(here, "cuts_demo")
os.makedirs(outdir, exist_ok=True)
paths = []
for i, tau in enumerate(taus_us):
    od = 37.0 * record.values[i] + 0.002   # arbitrary scale plus dc offset
    cut = CutFile(tau_us=tau, positions=pixels.centers(), values=od,
                  pixel_width=pixels.width)
    path = os.path.join(outdir, f"cut_{i}.csv")
    write_cut_file(cut, path)
    paths.append(path)
print(f"wrote {len(paths)} cut files to {outdir}")

cuts = [read_cut_file(p) for p in paths]
for cut in cuts:
    od = cut.values
    print(f"  tau = {cut.tau_us:3.1f} us: {od.size} pixels, "
          f"od range [{od.min():.4f}, {od.max():.4f}]")

grid = default_bin_grid(trap, nbar=0.5, half_count=25)
obs = build_observation_level(trap, grid, thetas, nbar=0.5, space=space)


def reconstruct(center):
    rows = [preprocess(c, grid, fixed_center=center) for c in cuts]
    means = np.concatenate([np.concatenate(rows), [0.5]])
    return fit(obs.with_means(means), grad_tol=1e-12)


state_fixed, rep_fixed = reconstruct(0.0)
state_auto, rep_auto = reconstruct(None)       # per-image Gaussian centers

rho_true = psi.density()
print()
print("preprocessing with a common fixed center (the trap axis):")
print(f"  delta_f = {rep_fixed.delta_f:.2e}  "
      f"fidelity = {fidelity(rho_true, state_fixed.rho):.4f}")
print("preprocessing with per-image recentering:")
print(f"  delta_f = {rep_auto.delta_f:.2e}  "
      f"fidelity = {fidelity(rho_true, state_auto.rho):.4f}")
print()
print("per-image recentering pinned every marginal at zero mean, so the")
print("oscillating displacement that distinguishes (|0> + |1>)/sqrt(2)")
print("from a mixture never reached the fit.")
