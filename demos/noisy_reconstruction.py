"""How the reconstruction degrades with multiplicative detection noise.

Each bin value v is replaced by v + eta xi sqrt(v) with xi standard normal,
the square-root scaling of atom-counting statistics.  The separately
calibrated mean occupation is also biased (0.5 -> 0.6) to mimic an imperfect
thermometry calibration.  Ten seeds per noise level give the spread.
"""

import math

import numpy as np

from maxent_tomo import (
    FockSpace,
    NoiseSpec,
    TrapConfig,
    add_noise,
    build_observation_level,
    default_bin_grid,
    fidelity,
    fit,
    simulate_ideal,
    superposition,
)

trap = TrapConfig(omega_z=2 * math.pi * 80e3, dz0=22e-9, dv0=11e-3,
                  cloud_rms=60e-6, be_time=8.7e-3)
space = FockSpace(16)
thetas = tuple(trap.omega_z * t for t in (0.0, 1.6e-6, 3.2e-6, 4.8e-6))

psi = superposition(space, [1.0, 1.0])
grid = default_bin_grid(trap, nbar=0.5, half_count=25)
obs = build_observation_level(trap, grid, thetas, nbar=0.5, space=space)
ideal = simulate_ideal(psi, obs)

print("eta     median fid   min fid   max fid   median delta_f")
for eta in (0.02, 0.05, 0.1, 0.2):
    fids, dfs = [], []
    for seed in range(10):
        rec = add_noise(ideal, NoiseSpec(eta=eta, seed=seed), nbar_noisy=0.6)
        state, report = fit(obs.with_record(rec))
        fids.append(fidelity(psi, state.rho))
        dfs.append(report.delta_f)
    print(f"{eta:4.2f}    {np.median(fids):.4f}      {min(fids):.4f}    "
          f"{max(fids):.4f}    {np.median(dfs):.4f}")

print()
print("the residual deviation grows with eta^2 (it absorbs exactly the")
print("noise the canonical family cannot reproduce), while the fidelity")
print("falls gently: the maximum-entropy completion stays conservative")
print("about structure the data cannot support.")
