"""Ballistic-expansion bin operators and observation levels.

The central oracle is the vacuum: after the flight the detected position is
Gaussian with variance (drop_scale^2)/2 + cloud_rms^2, so every vacuum bin
probability has an erf closed form that the quadrature build must hit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from maxent_tomo import (
    BinGrid,
    CutFile,
    DegenerateRotationError,
    DensityOperator,
    FockSpace,
    MeasurementRecord,
    NoiseSpec,
    ObservableSet,
    PureState,
    QuadratureError,
    RunConfig,
    TrapConfig,
    WignerGrid,
    build_observation_level,
    default_bin_grid,
    expectation,
    fock_state,
    harmonic_evolve,
    ideal_quadrature_distribution,
    superposition,
    thermal_state,
)

from maxent_tomo.measurement import _bin_base_matrices, _rotation_phases

from conftest import TAUS, TRAP_KW, make_trap, rotations


# ---------------------------------------------------------------------------
# configuration objects


def test_trap_config_validation_and_scales():
    cfg = make_trap()
    assert cfg.velocity_scale == pytest.approx(math.sqrt(2.0) * 11e-3)
    assert cfg.drop_scale == pytest.approx(math.sqrt(2.0) * 11e-3 * 8.7e-3)
    with pytest.raises(ValueError):
        make_trap(dv0=-1.0)
    with pytest.raises(ValueError):
        make_trap(be_time=0.0)


def test_trap_config_calibration_warning():
    # 11 mm/s vs omega_z*dz0 = 11.06 mm/s: consistent, no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_trap()
    # a 20 percent mismatch should complain
    with pytest.warns(UserWarning, match="disagree"):
        make_trap(dv0=9e-3)


def test_bin_grid_layout():
    grid = BinGrid(center=1e-5, width=2e-5, half_count=3)
    assert grid.n_bins == 7
    assert np.array_equal(grid.indices(), np.arange(-3, 4))
    centers = grid.centers()
    assert centers[3] == pytest.approx(1e-5)
    assert np.allclose(np.diff(centers), 2e-5)
    edges = grid.edges()
    assert edges.size == 8
    assert np.allclose(edges[1:] - edges[:-1], 2e-5)
    assert np.allclose(0.5 * (edges[:-1] + edges[1:]), centers)
    with pytest.raises(ValueError):
        BinGrid(center=0.0, width=0.0, half_count=3)
    with pytest.raises(ValueError):
        BinGrid(center=0.0, width=1e-5, half_count=0)


NAN_2X2 = np.full((2, 2), np.nan)


def _one_op_set(**kw):
    return ObservableSet(operators=[np.eye(2)], labels=[("op", 0)], **kw)


def _cut(**kw):
    args = dict(tau_us=0.0, positions=[0.0, 1e-6, 2e-6], values=[1.0, 1.0, 1.0],
                pixel_width=1e-6)
    args.update(kw)
    return CutFile(**args)


def _record(rotations=(0.0,), value=0.2):
    grid = BinGrid(center=0.0, width=1e-5, half_count=1)
    values = np.full((len(rotations), 3), 0.2)
    values[0, 1] = value
    return MeasurementRecord(rotations=rotations, grid=grid, values=values, nbar=0.5)


@pytest.mark.parametrize("build", [
    lambda: PureState([np.nan, 1.0]),
    lambda: DensityOperator(NAN_2X2),
    lambda: make_trap(omega_z=np.nan),
    lambda: BinGrid(center=0.0, width=np.nan, half_count=3),
    lambda: BinGrid(center=0.0, width=np.inf, half_count=3),
    lambda: NoiseSpec(eta=np.nan),
    lambda: _one_op_set(weights=[np.nan]),
    lambda: ObservableSet(operators=np.full((1, 1, 1), np.nan), labels=[("op", 0)]),
    lambda: _cut(tau_us=np.nan),
    lambda: _cut(positions=[0.0, np.nan, 1.0]),
    lambda: _cut(pixel_width=np.nan),
    lambda: _cut(pixel_width=np.inf),
    lambda: _cut(center_m=np.nan),
    lambda: _record(value=np.nan),
    lambda: _record(value=np.inf),
    lambda: _record(rotations=(np.nan,)),
    lambda: _record(rotations=(0.0, np.inf)),
], ids=["pure-state", "density-operator", "trap-omega",
        "grid-width-nan", "grid-width-inf", "noise-eta", "set-weights",
        "set-operators", "cut-tau", "cut-positions", "cut-pixel-width-nan",
        "cut-pixel-width-inf", "cut-center", "record-value-nan", "record-value-inf",
        "record-rotation-nan", "record-rotation-inf"])
def test_constructors_reject_non_finite_input(build):
    with pytest.raises(ValueError):
        build()


# constructor -> (valid keyword arguments, numeric fields that must be positive)
VALID_ARGUMENTS = {
    PureState: (dict(amplitudes=[1.0, 0.0]), set()),
    DensityOperator: (dict(matrix=np.eye(2) / 2.0), set()),
    TrapConfig: (dict(TRAP_KW), set(TRAP_KW)),
    BinGrid: (dict(center=0.0, width=1e-5, half_count=3), {"width", "half_count"}),
    NoiseSpec: (dict(eta=0.1, seed=0), set()),
    CutFile: (dict(tau_us=0.0, positions=[0.0, 1e-6, 2e-6], values=[1.0, 1.0, 1.0],
                   pixel_width=1e-6, center_m=0.0), {"pixel_width"}),
    MeasurementRecord: (dict(rotations=(0.0,), grid=BinGrid(center=0.0, width=1e-5, half_count=1),
                             values=np.full((1, 3), 0.2), nbar=0.5), set()),
    WignerGrid: (dict(q_axis=[-1.0, 0.0, 1.0], p_axis=[-1.0, 1.0], values=np.zeros((3, 2)),
                      imag_residual=0.0), set()),
    RunConfig: (
        dataclasses.asdict(RunConfig(bin_width_m=1e-5, nbar=0.5, noisy_nbar=0.5,
                                     fixed_center_m=0.0)),
        {"omega_z_hz", "dz0_m", "dv0_mps", "cloud_rms_m", "be_time_s", "bin_width_m",
         "weight_nbar", "grad_tol", "dim", "bin_half_count", "max_iter", "gh_nodes",
         "gl_nodes"},
    ),
}


def _numeric_fields(kwargs) -> list:
    return [k for k, v in kwargs.items() if np.issubdtype(np.asarray(v).dtype, np.number)]


def _with_value(kwargs, name, value) -> dict:
    """kwargs with ``name`` set to ``value``; for a vector, its first entry."""
    old = kwargs[name]
    if np.ndim(old):
        new = np.array(old, dtype=np.float64)
        new.flat[0] = value
        value = tuple(new) if isinstance(old, tuple) else new
    return {**kwargs, name: value}


@settings(max_examples=150)
@given(st.data())
def test_constructors_reject_non_finite_and_non_positive_fields(data):
    cls = data.draw(st.sampled_from(list(VALID_ARGUMENTS)), label="constructor")
    kwargs, positive = VALID_ARGUMENTS[cls]
    name = data.draw(st.sampled_from(_numeric_fields(kwargs)), label="field")
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    if name in positive:
        bad |= st.floats(max_value=0.0)
    value = data.draw(bad, label="value")
    cls(**kwargs)
    with pytest.raises(ValueError):
        cls(**_with_value(kwargs, name, value))


@pytest.mark.parametrize("build", [
    lambda: PureState([np.nan, 1.0]),
    lambda: DensityOperator([[np.inf, 0.0], [0.0, 0.5]]),
], ids=["pure-state", "density-operator"])
def test_states_name_non_finite_entries_before_other_faults(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_default_bin_grid_span():
    cfg = make_trap()
    grid = default_bin_grid(cfg, nbar=0.5, half_count=25, margin=3.5)
    span = grid.n_bins * grid.width
    assert span == pytest.approx(2.0 * (math.sqrt(2.0) + 3.5) * cfg.drop_scale)
    assert grid.n_bins == 51


# ---------------------------------------------------------------------------
# single-bin operators


def _bin_operator(cfg, grid, theta, k, space, **nodes) -> np.ndarray:
    """Operator of bin k after rotation theta, from a one-rotation level."""
    level = build_observation_level(cfg, grid, (theta,), None, space, **nodes)
    return level.operators[k + grid.half_count]


def _vacuum_bin_probability(cfg: TrapConfig, grid: BinGrid, k: int) -> float:
    """Closed form for the vacuum: Gaussian position at the detector with
    variance drop^2/2 + cloud^2."""
    sigma = math.sqrt(0.5 * cfg.drop_scale**2 + cfg.cloud_rms**2)
    lo = grid.center + (k - 0.5) * grid.width
    hi = grid.center + (k + 0.5) * grid.width
    z0 = grid.center
    a = (lo - z0) / (sigma * math.sqrt(2.0))
    b = (hi - z0) / (sigma * math.sqrt(2.0))
    return 0.5 * (erf(b) - erf(a))


@pytest.mark.parametrize("cloud", [60e-6, 1e-12])
def test_vacuum_bin_probabilities_hit_erf_closed_form(cloud):
    cfg = make_trap(cloud_rms=cloud)
    space = FockSpace(12)
    grid = default_bin_grid(cfg, nbar=0.5, half_count=10)
    vac = fock_state(space, 0)
    for k in (-10, -3, 0, 2, 7):
        op = _bin_operator(cfg, grid, 0.9, k, space)
        got = expectation(vac, op)
        assert got == pytest.approx(_vacuum_bin_probability(cfg, grid, k), abs=1e-12)


def test_bin_operator_spectrum_and_bounds():
    cfg = make_trap()
    space = FockSpace(16)
    grid = default_bin_grid(cfg, nbar=0.5, half_count=5)
    op = _bin_operator(cfg, grid, 0.3, 1, space)
    ev = np.linalg.eigvalsh(op)
    assert ev[0] > -1e-10
    assert ev[-1] < 1.0 + 1e-10
    with pytest.raises(QuadratureError):
        build_observation_level(cfg, grid, (0.3,), None, space, gh_nodes=1)
    with pytest.raises(QuadratureError):
        build_observation_level(cfg, grid, (0.3,), None, space, gl_nodes=1)


def test_rotation_enters_as_heisenberg_evolution():
    """Measuring after a hold time equals measuring the evolved state at
    zero hold: the operator family is covariant under trap evolution."""
    cfg = make_trap()
    space = FockSpace(16)
    grid = default_bin_grid(cfg, nbar=0.5, half_count=6)
    psi = superposition(space, [1.0, 0.7j, -0.3])
    for theta in (0.0, 0.5, 2.2, -1.1):
        evolved = harmonic_evolve(psi, theta)
        for k in (-2, 0, 3):
            op_theta = _bin_operator(cfg, grid, theta, k, space)
            op_zero = _bin_operator(cfg, grid, 0.0, k, space)
            assert expectation(psi, op_theta) == pytest.approx(
                expectation(evolved, op_zero), abs=1e-13
            )


def test_quadrature_node_doubling_is_converged():
    cfg = make_trap()
    space = FockSpace(16)
    grid = default_bin_grid(cfg, nbar=2.0, half_count=8)
    psi = superposition(space, [1.0, 0.0, 1.0, 0.5])
    for k in (-8, -1, 4):
        coarse = _bin_operator(cfg, grid, 0.7, k, space)
        fine = _bin_operator(cfg, grid, 0.7, k, space, gh_nodes=64, gl_nodes=16)
        assert np.max(np.abs(coarse - fine)) < 1e-8
        assert expectation(psi, coarse) == pytest.approx(
            expectation(psi, fine), abs=1e-8
        )


def test_cloud_smearing_converges_quadratically():
    """Bin values approach the point-source limit as cloud_rms^2; halving
    the cloud size four-folds the aggregate distance to the limit.  Single
    bins can sit on sign cancellations of the sigma^2 coefficient, so the
    L1 error over the whole row is the honest convergence measure."""
    space = FockSpace(12)
    psi = superposition(space, [1.0, 1.0])

    def row(cloud):
        cfg = make_trap(cloud_rms=cloud)
        grid = default_bin_grid(cfg, nbar=0.5, half_count=8)
        return np.array([
            expectation(psi, _bin_operator(cfg, grid, 0.8, k, space))
            for k in grid.indices()
        ])

    limit = row(1e-12)
    errs = [np.abs(row(30e-6 / 2**j) - limit).sum() for j in range(3)]
    assert errs[0] > errs[1] > errs[2] > 0
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


# ---------------------------------------------------------------------------
# observation level


def test_observation_level_layout(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16)
    assert obs.n_ops == 4 * 51 + 1
    assert obs.labels[0] == ("bin", 0, -25)
    assert obs.labels[50] == ("bin", 0, 25)
    assert obs.labels[51] == ("bin", 1, -25)
    assert obs.labels[-1] == ("nbar",)
    assert obs.nbar_index == obs.n_ops - 1
    assert obs.bin_shape == (4, 51)
    # bin means unmeasured, nbar prefilled
    assert np.all(np.isnan(obs.means[:-1]))
    assert obs.means[-1] == 0.5
    assert np.all(obs.weights == 1.0)


def test_observation_level_weights_and_errors(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(
        trap, grid, (0.0, 1.0), 0.5, space16, weight_nbar=7.0
    )
    assert obs.weights[-1] == 7.0
    with pytest.raises(DegenerateRotationError):
        build_observation_level(trap, grid, (0.0, 1.0, 0.0), 0.5, space16)
    with pytest.raises(ValueError):
        build_observation_level(trap, grid, (), 0.5, space16)
    with pytest.raises(ValueError):
        build_observation_level(trap, grid, (0.0,), -0.5, space16)


def test_observation_level_matches_single_bin_builds(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=4)
    thetas = (0.0, 0.7)
    obs = build_observation_level(trap, grid, thetas, 0.5, space16)
    for i, lab in enumerate(obs.labels[:-1]):
        _, j, k = lab
        base = _bin_base_matrices(trap, space16, np.array([grid.center + grid.width * k]),
                                  grid.width, grid.center, 32, 8)[0]
        single = _rotation_phases(space16.dim, thetas[j]) * base
        assert np.max(np.abs(obs.operators[i] - single)) < 1e-15


def test_validate_names_the_operator_it_rejects():
    half = np.diag([0.5, 0.0]).astype(complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # finite, not Hermitian
    with pytest.raises(ValueError, match=r"operator \('bin', 0, 1\) hermiticity off"):
        ObservableSet(operators=np.stack([half, skew]), labels=[("bin", 0, 0), ("bin", 0, 1)])
    for bad in (np.diag([1.5, 0.0]), np.diag([-0.25, 0.5])):
        ops = np.stack([half, bad.astype(complex)])
        with pytest.raises(ValueError, match=r"bin operator \('bin', 2, -3\) spectrum .* "
                                              r"outside \[0, 1\]"):
            ObservableSet(operators=ops, labels=[("bin", 2, -4), ("bin", 2, -3)])
        # the [0, 1] bound holds for bin operators only
        ObservableSet(operators=ops, labels=[("bin", 2, -4), ("nbar",)])


# ---------------------------------------------------------------------------
# ideal quadrature distributions


def test_quadrature_distribution_vacuum_gaussian():
    space = FockSpace(10)
    x = np.linspace(-4.0, 4.0, 201)
    w = ideal_quadrature_distribution(fock_state(space, 0), 0.3, x)
    assert np.max(np.abs(w - np.exp(-(x**2)) / math.sqrt(math.pi))) < 1e-12


def test_quadrature_distribution_normalization_and_nodes():
    space = FockSpace(16)
    x = np.linspace(-8.0, 8.0, 2001)
    one = fock_state(space, 1)
    w = ideal_quadrature_distribution(one, 1.1, x)
    assert w[1000] == pytest.approx(0.0, abs=1e-15)  # |1> vanishes at x = 0
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)


def test_quadrature_distribution_of_mixture_is_mixture_of_distributions():
    space = FockSpace(32)
    x = np.linspace(-5.0, 5.0, 101)
    th = thermal_state(space, 0.5)
    direct = ideal_quadrature_distribution(th, 0.6, x)
    pops = th.populations()
    summed = sum(
        pops[n] * ideal_quadrature_distribution(fock_state(space, n), 0.6, x)
        for n in range(space.dim)
    )
    assert np.max(np.abs(direct - summed)) < 1e-12


def test_quadrature_distribution_shifts_with_rotation():
    # (|0>+|1>)/sqrt2 has <z> = 1/sqrt2; the detected-velocity quadrature at
    # hold angle theta has mean -sin(theta)/sqrt2
    space = FockSpace(16)
    psi = superposition(space, [1.0, 1.0])
    x = np.linspace(-6.0, 6.0, 4001)
    for theta in (0.0, math.pi / 4, math.pi / 2, 2.0):
        w = ideal_quadrature_distribution(psi, theta + math.pi / 2, x)
        mean = np.trapezoid(w * x, x)
        assert mean == pytest.approx(-math.sin(theta) / math.sqrt(2.0), abs=1e-9)
