"""Acceptance suite: one test per headline capability, one printed verdict
line each.  These runs pin the package's end-to-end behavior, so every
threshold is written out explicitly rather than imported from elsewhere.
"""

import math
import time

import numpy as np
import pytest

from maxent_tomo import (
    FockSpace,
    LagrangeVector,
    NoiseSpec,
    ObservableSet,
    add_noise,
    build_observation_level,
    canonical_state,
    default_bin_grid,
    delta_rho,
    deviation,
    entropy,
    even_cat,
    fidelity,
    fit,
    number_operator,
    simulate_ideal,
    superposition,
    thermal_state,
    wigner_eval,
)

from conftest import ideal_quadrature_distribution, make_trap, rotations, wigner_marginal

LN3 = 1.0986122886681098


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"ACCEPTANCE {label} FAIL: {detail}"


@pytest.fixture(scope="module")
def obs_superposition(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    return build_observation_level(trap, grid, rotations(trap), 0.5, space16)


@pytest.fixture(scope="module")
def obs_cat(trap, space16):
    cat = even_cat(space16, math.sqrt(2.0))
    nbar = float(np.abs(cat.amplitudes) ** 2 @ np.arange(16))
    grid = default_bin_grid(trap, nbar=nbar, half_count=25)
    return build_observation_level(trap, grid, rotations(trap), nbar, space16)


# ---------------------------------------------------------------------------
# 1. exact data, four rotations: near-perfect recovery of a coherent
#    superposition, fast enough for interactive use


def test_acceptance_1_ideal_superposition(capsys, space16, obs_superposition):
    psi = superposition(space16, [1.0, 1.0])
    record = simulate_ideal(psi, obs_superposition)
    t0 = time.perf_counter()
    state, report = fit(obs_superposition.with_record(record), grad_tol=1e-13)
    wall = time.perf_counter() - t0
    fid = fidelity(psi.density(), state.rho)
    drho = delta_rho(psi.density(), state.rho)
    ok = (
        report.converged
        and report.delta_f <= 1e-6
        and fid >= 0.999
        and drho <= 1e-3
        and report.entropy <= 1e-3
        and wall <= 300.0
    )
    _verdict(
        capsys, "1 ideal four-rotation superposition", ok,
        f"delta_f={report.delta_f:.2e}, fidelity={fid:.6f}, "
        f"delta_rho={drho:.2e}, entropy={report.entropy:.2e}, "
        f"wall={wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. noisy data: graceful degradation, median over ten noise seeds


def test_acceptance_2_noisy_superposition(capsys, space16, obs_superposition):
    psi = superposition(space16, [1.0, 1.0])
    ideal = simulate_ideal(psi, obs_superposition)
    fids, dfs, drhos = [], [], []
    for seed in range(10):
        noisy = add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=0.6)
        state, report = fit(obs_superposition.with_record(noisy))
        fids.append(fidelity(psi.density(), state.rho))
        dfs.append(report.delta_f)
        drhos.append(delta_rho(psi.density(), state.rho))
    med_fid = float(np.median(fids))
    med_df = float(np.median(dfs))
    med_drho = float(np.median(drhos))
    ok = med_fid >= 0.95 and 0.03 <= med_df <= 0.5 and med_drho <= 0.15
    _verdict(
        capsys, "2 noisy superposition (eta=0.1, 10 seeds)", ok,
        f"median fidelity={med_fid:.4f}, median delta_f={med_df:.4f}, "
        f"median delta_rho={med_drho:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. a nonclassical state with interference structure: the even cat


def test_acceptance_3_even_cat(capsys, space16, obs_cat):
    cat = even_cat(space16, math.sqrt(2.0))
    ideal = simulate_ideal(cat, obs_cat)
    state, report = fit(obs_cat.with_record(ideal), grad_tol=1e-13)
    drho = delta_rho(cat.density(), state.rho)
    ok_ideal = report.delta_f <= 1e-5 and report.entropy <= 0.1 and drho <= 1e-2

    fids = []
    for seed in range(10):
        noisy = add_noise(ideal, NoiseSpec(eta=0.1, seed=seed),
                          nbar_noisy=2.09)
        noisy_state, _ = fit(obs_cat.with_record(noisy))
        fids.append(fidelity(cat.density(), noisy_state.rho))
    med_fid = float(np.median(fids))
    ok = ok_ideal and med_fid >= 0.9
    _verdict(
        capsys, "3 even cat (ideal + eta=0.1 noise)", ok,
        f"ideal delta_f={report.delta_f:.2e}, ideal delta_rho={drho:.2e}, "
        f"ideal entropy={report.entropy:.2e}, noisy median fidelity={med_fid:.4f}",
    )


# ---------------------------------------------------------------------------
# 4. the minimal observation level: number operator only, thermal answer


def test_acceptance_4_number_operator_gives_thermal(capsys):
    space = FockSpace(32)
    obs = ObservableSet(
        operators=[number_operator(space)],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    state, report = fit(obs)
    lam = float(np.ravel(state.lambdas)[0])
    drho = delta_rho(thermal_state(space, 0.5), state.rho)
    ok = report.converged and abs(lam - LN3) < 1e-6 and drho < 1e-8
    _verdict(
        capsys, "4 number operator alone reproduces the thermal state", ok,
        f"lambda_n-ln3={lam - LN3:.2e}, delta_rho={drho:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. three rotations at 0, pi/4, pi/2 with a point cloud suffice for pure
#    states on a dense grid


def test_acceptance_5_three_rotation_sufficiency(capsys, space16):
    trap = make_trap(cloud_rms=1e-12)
    thetas = (0.0, math.pi / 4.0, math.pi / 2.0)
    results = []
    for label, state, nbar in (
        ("superposition", superposition(space16, [1.0, 1.0]), 0.5),
        ("even cat", even_cat(space16, math.sqrt(2.0)), None),
    ):
        if nbar is None:
            nbar = float(np.abs(state.amplitudes) ** 2 @ np.arange(16))
        grid = default_bin_grid(trap, nbar=nbar, half_count=50)
        obs = build_observation_level(trap, grid, thetas, nbar, space16)
        record = simulate_ideal(state, obs)
        fitted, report = fit(obs.with_record(record), grad_tol=1e-11)
        fid = fidelity(state.density(), fitted.rho)
        results.append((label, fid, report.delta_f))
    ok = all(fid >= 0.99 for _, fid, _ in results)
    detail = ", ".join(f"{lab}: fidelity={fid:.5f} (delta_f={df:.1e})"
                       for lab, fid, df in results)
    _verdict(capsys, "5 three rotations suffice for pure states", ok, detail)


# ---------------------------------------------------------------------------
# 6. property sweeps: analytic gradient, quadrature convergence, marginal
#    consistency, canonical physicality, matrix exponential


def _sweep_gradient(rng):
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 11))
        n_ops = int(rng.integers(1, 6))
        ops = []
        for _ in range(n_ops):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ops.append((raw + raw.conj().T) / 2.0)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        means = np.real([np.trace(rho @ op) for op in ops])
        obs = ObservableSet(operators=ops,
                            labels=[("op", i) for i in range(n_ops)],
                            means=means)
        lam = rng.uniform(-1.5, 1.5, n_ops)
        grad = deviation(lam, obs)[1]
        h = 1e-5
        for i in range(n_ops):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd = (deviation(lp, obs)[0] - deviation(lm, obs)[0]) / (2.0 * h)
            scale = max(abs(fd), abs(grad[i]), 1e-10)
            worst = max(worst, abs(grad[i] - fd) / scale)
    return worst


def _sweep_simulator(trap, space16):
    psi = superposition(space16, [1.0, 0.6j, -0.2])
    grid = default_bin_grid(trap, nbar=0.6, half_count=12)
    obs = build_observation_level(trap, grid, (0.0, 0.9), 0.6, space16)
    fine = build_observation_level(trap, grid, (0.0, 0.9), 0.6, space16,
                                   gh_nodes=320, gl_nodes=80)
    coarse = simulate_ideal(psi, obs).values
    exact = simulate_ideal(psi, fine).values
    return float(np.max(np.abs(coarse - exact)))


def _sweep_marginals(space16):
    worst = 0.0
    for state in (superposition(space16, [1.0, 1.0j]),
                  even_cat(space16, math.sqrt(2.0))):
        grid = wigner_eval(state, span=6.5, points=261)
        for theta in (0.0, math.pi / 4, math.pi / 2, 2.5):
            x, dens = wigner_marginal(grid, theta)
            ref = ideal_quadrature_distribution(state, theta, x)
            worst = max(worst, float(np.max(np.abs(dens - ref))))
    return worst


def _sweep_canonical(rng):
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        n_ops = int(rng.integers(1, 6))
        ops = []
        for _ in range(n_ops):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ops.append((raw + raw.conj().T) / 2.0)
        obs = ObservableSet(operators=ops,
                            labels=[("op", i) for i in range(n_ops)])
        lam = rng.uniform(-5.0, 5.0, n_ops)
        state = canonical_state(lam, obs)  # constructor enforces physicality
        if abs(float(state.rho.populations().sum()) - 1.0) > 1e-10:
            return False
    return True


def _sweep_expm(rng):
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (raw + raw.conj().T) / 2.0
        herm /= max(np.linalg.norm(herm, 2), 1.0)
        # exp(-herm) = rho e^{ln Z} for the canonical state of one observable
        state = canonical_state([1.0], ObservableSet(operators=[herm], labels=[("op", 0)]))
        expm = state.rho.matrix * math.exp(state.log_partition)
        out = np.eye(dim, dtype=complex)
        term = np.eye(dim, dtype=complex)
        for k in range(1, 20):
            term = term @ (-herm) / k
            out = out + term
        worst = max(worst, float(np.max(np.abs(expm - out))))
    return worst


def test_acceptance_6_property_sweeps(capsys, trap, space16):
    rng = np.random.default_rng(2024)
    grad_worst = _sweep_gradient(rng)
    sim_worst = _sweep_simulator(trap, space16)
    marg_worst = _sweep_marginals(space16)
    canon_ok = _sweep_canonical(rng)
    expm_worst = _sweep_expm(rng)
    ok = (
        grad_worst < 1e-4
        and sim_worst < 1e-8
        and marg_worst < 1e-3
        and canon_ok
        and expm_worst < 1e-12
    )
    _verdict(
        capsys, "6 property sweeps", ok,
        f"gradient vs FD worst={grad_worst:.1e}, "
        f"simulator vs dense quadrature worst={sim_worst:.1e}, "
        f"marginal vs distribution worst={marg_worst:.1e}, "
        f"1000 canonical states physical={canon_ok}, "
        f"expm vs Taylor worst={expm_worst:.1e}",
    )
