"""End-to-end synthetic measurements: ideal records, noise, preparation."""

import math

import numpy as np
import pytest

from maxent_tomo import (
    DimensionMismatch,
    FockSpace,
    MeasurementRecord,
    NoiseSpec,
    TruncationError,
    add_noise,
    build_observation_level,
    default_bin_grid,
    expectation,
    fock_state,
    number_operator,
    prepare_free_expansion,
    simulate_ideal,
    superposition,
)

from conftest import TAUS, ideal_quadrature_distribution, make_trap, quadratures, rotations


@pytest.fixture(scope="module")
def obs_half(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    return build_observation_level(trap, grid, rotations(trap), 0.5, space16)


# ---------------------------------------------------------------------------
# ideal records


def test_ideal_record_vacuum(trap, space16, obs_half):
    rec = simulate_ideal(fock_state(space16, 0), obs_half)
    assert rec.values.shape == (4, 51)
    # the vacuum is rotation invariant: all rows identical
    for j in range(1, 4):
        assert np.max(np.abs(rec.values[j] - rec.values[0])) < 1e-14
    assert rec.values.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-6)
    assert rec.nbar == pytest.approx(0.0, abs=1e-12)
    assert rec.provenance["kind"] == "ideal"


def test_ideal_record_superposition_nbar(trap, space16, obs_half):
    psi = superposition(space16, [1.0, 1.0])
    rec = simulate_ideal(psi, obs_half)
    assert rec.nbar == pytest.approx(0.5, abs=1e-13)
    assert rec.flat_means().shape == (205,)
    assert rec.flat_means()[-1] == rec.nbar


def test_simulate_rejects_mismatched_dims(trap, obs_half):
    with pytest.raises(DimensionMismatch):
        simulate_ideal(fock_state(FockSpace(8), 0), obs_half)


def test_record_validation(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=2)
    good = np.full((1, 5), 0.2)
    MeasurementRecord(rotations=(0.0,), grid=grid, values=good, nbar=0.5)
    with pytest.raises(ValueError):
        MeasurementRecord(rotations=(0.0,), grid=grid, values=np.zeros((2, 5)),
                          nbar=0.5)
    with pytest.raises(ValueError):
        MeasurementRecord(rotations=(0.0,), grid=grid, values=-good, nbar=0.5)
    with pytest.raises(ValueError):
        MeasurementRecord(rotations=(0.0,), grid=grid, values=good, nbar=-1.0)


def test_ideal_record_against_double_quadrature_oracle(trap, space16):
    """Independent route to the same numbers: the detected-position density
    is the continuous quadrature distribution at theta + pi/2, rescaled by
    the drop scale and convolved with the cloud profile.  Integrate that
    directly with dense Gauss-Hermite x Gauss-Legendre quadrature and
    compare bin by bin."""
    psi = superposition(space16, [1.0, 0.5j, 0.2])
    grid = default_bin_grid(trap, nbar=0.5, half_count=10)
    thetas = (0.0, rotations(trap)[2])
    obs = build_observation_level(trap, grid, thetas, None, space16)
    rec = simulate_ideal(psi, obs)

    t, v = np.polynomial.hermite.hermgauss(320)
    xi0 = math.sqrt(2.0) * trap.cloud_rms * t
    w_cloud = v / math.sqrt(math.pi)
    tl, wl = np.polynomial.legendre.leggauss(80)
    s = trap.drop_scale

    for j, theta in enumerate(thetas):
        for i, center in enumerate(grid.centers()):
            z = center + 0.5 * grid.width * tl
            u = (z[None, :] - grid.center - xi0[:, None]) / s
            w = ideal_quadrature_distribution(psi, theta + math.pi / 2, u.ravel())
            w = w.reshape(u.shape)
            val = float(
                w_cloud @ w @ (0.5 * grid.width * wl) / s
            )
            assert abs(rec.values[j, i] - val) < 1e-8


# ---------------------------------------------------------------------------
# noise


def test_noise_zero_eta_is_identity(trap, space16, obs_half):
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs_half)
    noisy = add_noise(rec, NoiseSpec(eta=0.0, seed=3))
    assert np.array_equal(noisy.values, rec.values)
    assert noisy.provenance == {"kind": "noisy", "eta": 0.0, "seed": 3}


def test_noise_is_deterministic_and_documented(trap, space16, obs_half):
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs_half)
    a = add_noise(rec, NoiseSpec(eta=0.1, seed=42))
    b = add_noise(rec, NoiseSpec(eta=0.1, seed=42))
    assert np.array_equal(a.values, b.values)
    # the exact draw is part of the contract: one row-major standard-normal
    # array from the seeded default generator
    xi = np.random.default_rng(42).standard_normal(rec.values.shape)
    expect = np.clip(rec.values + 0.1 * xi * np.sqrt(rec.values), 0.0, None)
    assert np.array_equal(a.values, expect)
    c = add_noise(rec, NoiseSpec(eta=0.1, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_noise_statistics_follow_sqrt_scaling():
    """On a synthetic record with constant value 4 the perturbation must be
    centered with standard deviation eta*sqrt(4)."""
    grid = default_bin_grid(make_trap(), nbar=0.5, half_count=50)
    vals = np.full((100, 101), 4.0)
    rec = MeasurementRecord(rotations=tuple(np.arange(100) * 1e-3), grid=grid,
                            values=vals, nbar=1.0)
    noisy = add_noise(rec, NoiseSpec(eta=0.1, seed=0))
    diff = noisy.values - 4.0
    n = diff.size
    assert n == 10100
    assert abs(diff.mean()) < 4.0 * 0.2 / math.sqrt(n)
    assert diff.std() == pytest.approx(0.2, rel=0.05)


def test_noise_clamps_at_zero(trap, space16, obs_half):
    rec = simulate_ideal(fock_state(space16, 0), obs_half)
    noisy = add_noise(rec, NoiseSpec(eta=50.0, seed=1))
    assert np.all(noisy.values >= 0.0)
    assert np.any(noisy.values == 0.0)  # the clamp actually engaged


def test_noise_refuses_to_stack(trap, space16, obs_half):
    rec = simulate_ideal(fock_state(space16, 0), obs_half)
    noisy = add_noise(rec, NoiseSpec(eta=0.1, seed=0))
    with pytest.raises(ValueError):
        add_noise(noisy, NoiseSpec(eta=0.1, seed=1))


def test_noise_nbar_override(trap, space16, obs_half):
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs_half)
    noisy = add_noise(rec, NoiseSpec(eta=0.1, seed=0), nbar_noisy=0.6)
    assert noisy.nbar == 0.6
    untouched = add_noise(rec, NoiseSpec(eta=0.1, seed=0))
    assert untouched.nbar == rec.nbar


# ---------------------------------------------------------------------------
# free-expansion preparation


def test_free_expansion_nbar_is_kappa_squared(trap):
    """Switching the trap off for t1 squeezes the vacuum; the exact mean
    occupation is (omega_z t1 / 2)^2."""
    for t1, dim in ((4e-6, 40), (8e-6, 160)):
        kappa = 0.5 * trap.omega_z * t1
        space = FockSpace(dim)
        psi = prepare_free_expansion(trap, t1, space)
        nbar = expectation(psi, number_operator(space))
        # the residual is the basis truncation tail, not the physics
        assert nbar == pytest.approx(kappa**2, rel=1e-5)
        pops = np.abs(psi.amplitudes) ** 2
        assert np.all(pops[1::2] < 1e-20)  # quadratic drive: even levels only


def test_free_expansion_preserves_momentum_spread(trap):
    space = FockSpace(60)
    psi = prepare_free_expansion(trap, 5e-6, space)
    _, p = quadratures(space.dim)
    assert expectation(psi, p @ p) == pytest.approx(0.5, abs=1e-9)


def _dense_free_flight(kappa: float, dim: int) -> np.ndarray:
    """exp(-i kappa p^2)|0> by eigendecomposing p^2 in a space four times
    larger, where the truncation no longer reaches the state."""
    _, p = quadratures(4 * dim)
    d, v = np.linalg.eigh(p @ p)
    return v @ (np.exp(-1j * kappa * d) * v[0].conj())


def _squeezed_vacuum_leak(kappa: float, dim: int) -> float:
    """Population above level dim-1 of the squeezed vacuum with sinh r =
    kappa: p_2k = C(2k, k) (tanh^2 r / 4)^k / cosh r on the even levels."""
    t2 = kappa**2 / (1.0 + kappa**2)
    head = sum(math.comb(2 * k, k) * (t2 / 4.0) ** k for k in range((dim + 1) // 2))
    return 1.0 - head / math.sqrt(1.0 + kappa**2)


@pytest.mark.parametrize("t1, dim", [(2e-6, 16), (4e-6, 40), (8e-6, 160)])
def test_free_expansion_is_the_renormalized_head_of_the_exact_state(trap, t1, dim):
    """The closed form against a dense exponential: the amplitudes are the
    exact state's first dim levels, renormalized, and what they miss is the
    squeezed vacuum's population above the truncation."""
    kappa = 0.5 * trap.omega_z * t1
    exact = _dense_free_flight(kappa, dim)
    psi = prepare_free_expansion(trap, t1, FockSpace(dim))
    head = exact[:dim] / np.linalg.norm(exact[:dim])
    assert np.max(np.abs(psi.amplitudes - head)) < 1e-14
    fidelity = abs(np.vdot(exact[:dim], psi.amplitudes)) ** 2
    assert 1.0 - fidelity == pytest.approx(_squeezed_vacuum_leak(kappa, dim), abs=1e-12)


def test_free_expansion_without_flight_is_the_vacuum_bit_for_bit(trap):
    psi = prepare_free_expansion(trap, 0.0, FockSpace(16))
    assert psi.amplitudes.tobytes() == fock_state(FockSpace(16), 0).amplitudes.tobytes()


def test_free_expansion_truncation_guard(trap):
    with pytest.raises(TruncationError):
        prepare_free_expansion(trap, 4e-6, FockSpace(16))
    # t1 = 0 is the vacuum
    psi = prepare_free_expansion(trap, 0.0, FockSpace(16))
    assert np.allclose(psi.amplitudes, fock_state(FockSpace(16), 0).amplitudes)
