"""How many trap rotations does a faithful reconstruction need?

Detected-velocity histograms at hold angle theta are marginals of the
rotated state, so each rotation contributes one tomographic cut through
phase space.  One cut fixes the diagonal-ish structure along that axis
but says nothing about phases; a quarter period of extra cuts pins down
the rest.  Here the cloud is made effectively point-like so the bins are
sharp marginals, and the same superposition is reconstructed from one,
two and three rotations spanning [0, pi/2].

The maximum-entropy fit never invents coherence it was not shown: with a
single rotation the deviation still converges to zero, but the state it
returns is the most mixed one consistent with that lone histogram, and
the fidelity says so.
"""

import math

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
    superposition,
)

trap = TrapConfig(omega_z=2 * math.pi * 80e3, dz0=22e-9, dv0=11e-3,
                  cloud_rms=1e-12, be_time=8.7e-3)
space = FockSpace(16)
psi = superposition(space, [1.0, 1.0])
grid = default_bin_grid(trap, nbar=0.5, half_count=50)

angle_sets = {
    "one rotation (theta = 0)": (0.0,),
    "two rotations (0, pi/2)": (0.0, math.pi / 2),
    "three rotations (0, pi/4, pi/2)": (0.0, math.pi / 4, math.pi / 2),
}

print("state: (|0> + |1>)/sqrt(2), point-like cloud")
for name, thetas in angle_sets.items():
    obs = build_observation_level(trap, grid, thetas, nbar=0.5, space=space)
    state, report = fit(obs.with_record(simulate_ideal(psi, obs)),
                        grad_tol=1e-11)
    fid = fidelity(psi.density(), state.rho)
    print(f"  {name:34s} delta_f = {report.delta_f:.1e}  "
          f"entropy = {report.entropy:.3f}  fidelity = {fid:.5f}")

# the cat needs the same three angles but a grid wide enough for nbar ~ 1.9
cat = even_cat(space, math.sqrt(2.0))
nbar_cat = expectation(cat, number_operator(space))
grid_cat = default_bin_grid(trap, nbar=nbar_cat, half_count=50)
thetas = (0.0, math.pi / 4, math.pi / 2)
obs = build_observation_level(trap, grid_cat, thetas, nbar=nbar_cat,
                              space=space)
state, report = fit(obs.with_record(simulate_ideal(cat, obs)), grad_tol=1e-11)
print()
print("even cat, alpha = sqrt(2), three rotations:")
print(f"  delta_f = {report.delta_f:.1e}  entropy = {report.entropy:.3f}  "
      f"fidelity = {fidelity(cat.density(), state.rho):.5f}")
