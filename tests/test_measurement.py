"""Ballistic-expansion bin operators and observation levels.

The central oracle is the vacuum: after the flight the detected position is
Gaussian with variance (drop_scale^2)/2 + cloud_rms^2, so every vacuum bin
probability has an erf closed form that the quadrature build must hit.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
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
    QuadratureError,
    RunConfig,
    TrapConfig,
    WignerGrid,
    build_observation_level,
    default_bin_grid,
    even_cat,
    expectation,
    fock_state,
    hermite_functions,
    prepare_free_expansion,
    simulate_ideal,
    superposition,
    thermal_state,
)

from maxent_tomo.measurement import _bin_base_matrices, _rotation_phases

from conftest import (
    TAUS,
    TRAP_KW,
    harmonic_evolve,
    ideal_quadrature_distribution,
    make_trap,
    rotations,
)


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


def test_integers_past_the_float_range_are_compared_not_converted():
    """np.isfinite raised TypeError on a Python int past the float range."""
    with pytest.raises(ValueError, match=r"^half_count must be an integer from 1 to 2\*\*53"):
        BinGrid(center=0.0, width=1e-5, half_count=10**400)
    assert NoiseSpec(eta=0.1, seed=10**400).seed == 10**400


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


@pytest.mark.parametrize("build, name", [
    (lambda: superposition(FockSpace(8), [np.nan, 1.0]), "coeffs"),
    (lambda: DensityOperator(NAN_2X2), None),
    (lambda: make_trap(omega_z=np.nan), None),
    (lambda: BinGrid(center=0.0, width=np.nan, half_count=3), None),
    (lambda: BinGrid(center=0.0, width=np.inf, half_count=3), None),
    (lambda: NoiseSpec(eta=np.nan), None),
    (lambda: _one_op_set(weights=[np.nan]), None),
    (lambda: ObservableSet(operators=np.full((1, 1, 1), np.nan), labels=[("op", 0)]), None),
    (lambda: _cut(tau_us=np.nan), None),
    (lambda: _cut(positions=[0.0, np.nan, 1.0]), None),
    (lambda: _cut(pixel_width=np.nan), None),
    (lambda: _cut(pixel_width=np.inf), None),
    (lambda: _record(value=np.nan), None),
    (lambda: _record(value=np.inf), None),
    (lambda: _record(rotations=(np.nan,)), None),
    (lambda: _record(rotations=(0.0, np.inf)), None),
    (lambda: even_cat(FockSpace(8), np.nan), "alpha"),
    (lambda: even_cat(FockSpace(8), np.inf), "alpha"),
    (lambda: thermal_state(FockSpace(8), np.nan), "nbar"),
    (lambda: thermal_state(FockSpace(8), np.inf), "nbar"),
    (lambda: prepare_free_expansion(make_trap(), np.nan, FockSpace(8)), "t1"),
    (lambda: prepare_free_expansion(make_trap(), np.inf, FockSpace(8)), "t1"),
], ids=["superposition", "density-operator", "trap-omega",
        "grid-width-nan", "grid-width-inf", "noise-eta", "set-weights",
        "set-operators", "cut-tau", "cut-positions", "cut-pixel-width-nan",
        "cut-pixel-width-inf", "record-value-nan", "record-value-inf",
        "record-rotation-nan", "record-rotation-inf", "even-cat-nan", "even-cat-inf",
        "thermal-nan", "thermal-inf", "free-expansion-nan", "free-expansion-inf"])
def test_constructors_reject_non_finite_input(build, name):
    """A ValueError, named after the parameter where one is given: a nan
    cat amplitude used to give the vacuum, a nan free-flight time a
    RuntimeWarning first."""
    with pytest.raises(ValueError, match=None if name is None else f"^{name} must be finite"):
        build()


# constructor -> (valid keyword arguments, numeric fields that must be positive)
VALID_ARGUMENTS = {
    DensityOperator: (dict(matrix=np.eye(2) / 2.0), set()),
    TrapConfig: (dict(TRAP_KW), set(TRAP_KW)),
    BinGrid: (dict(center=0.0, width=1e-5, half_count=3), {"width", "half_count"}),
    NoiseSpec: (dict(eta=0.1, seed=0), set()),
    CutFile: (dict(tau_us=0.0, positions=[0.0, 1e-6, 2e-6], values=[1.0, 1.0, 1.0],
                   pixel_width=1e-6), {"pixel_width"}),
    MeasurementRecord: (dict(rotations=(0.0,), grid=BinGrid(center=0.0, width=1e-5, half_count=1),
                             values=np.full((1, 3), 0.2), nbar=0.5), set()),
    WignerGrid: (dict(q_axis=[-1.0, 0.0, 1.0], p_axis=[-1.0, 1.0], values=np.zeros((3, 2)),
                      imag_residual=0.0), set()),
    RunConfig: (
        dataclasses.asdict(RunConfig(nbar=0.5, fixed_center_m=0.0)),
        {"omega_z_hz", "dz0_m", "dv0_mps", "cloud_rms_m", "be_time_s", "grad_tol", "dim",
         "bin_half_count"},
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
    lambda: superposition(FockSpace(2), [np.nan, 1.0]),
    lambda: DensityOperator([[np.inf, 0.0], [0.0, 0.5]]),
], ids=["superposition", "density-operator"])
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


def test_with_record_refuses_a_record_of_other_rotations_or_another_grid(trap, space16):
    """A record of the level's shape is not yet the level's data: one taken
    at (0, 1.2) rad, or on bins 10% wider, attached to a level at (0, 0.5)."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    level = build_observation_level(trap, grid, (0.0, 0.5), 0.5, space16)
    psi = superposition(space16, [1.0, 1.0])
    record = simulate_ideal(psi, level)
    assert np.array_equal(level.with_record(record).means, record.flat_means())
    wider = dataclasses.replace(grid, width=1.1 * grid.width)
    for rotations_, grid_ in (((0.0, 1.2), grid), ((0.0, 0.5), wider)):
        other = simulate_ideal(psi, build_observation_level(trap, grid_, rotations_, 0.5, space16))
        assert other.values.shape == record.values.shape
        with pytest.raises(ValueError, match=re.escape(
                f"record taken at rotations {rotations_} on {grid_}, "
                f"the observables at (0.0, 0.5) on {grid}")):
            level.with_record(other)


@pytest.mark.parametrize("first, second", [(0.3, 0.3 + 2.0 * math.pi), (0.3, 0.3 + math.pi),
                                            (-1.0, -1.0 + 1e-10)],
                         ids=["two-pi", "pi", "within-tolerance"])
def test_rotations_equal_modulo_pi_are_refused_naming_both(trap, space16, first, second):
    """A half turn mirrors the bins and a full turn repeats them: built alone,
    the second rotation's operators are the first's, bin k at bin +-k, to
    1e-10, so the pair is refused by name; 1e-6 rad apart it is kept."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    one, two = (build_observation_level(trap, grid, (t,), 0.5, space16).operators[:-1]
                for t in (first, second))
    mirror = two if round((second - first) / math.pi) % 2 == 0 else two[::-1]
    assert np.max(np.abs(one - mirror)) < 1e-10
    with pytest.raises(DegenerateRotationError,
                       match=re.escape(f"rotations {first} and {second} coincide modulo pi")):
        build_observation_level(trap, grid, (first, 1.0, second), 0.5, space16)
    build_observation_level(trap, grid, (first, 1.0, second + 1e-6), 0.5, space16)


@pytest.mark.parametrize("rotations, nbar, name", [
    ((math.nan,), 0.5, "rotations"),
    ((0.0, math.inf), 0.5, "rotations"),
    ((0.0, -math.inf), 0.5, "rotations"),
    ((0.0, 1.0), math.nan, "nbar"),
    ((0.0, 1.0), math.inf, "nbar"),
])
def test_observation_level_rejects_non_finite_input_naming_the_argument(
        trap, space16, rotations, nbar, name):
    """The group checks never see a rotation angle, and None is the only
    unset nbar, so both are checked where they enter."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build_observation_level(trap, grid, rotations, nbar, space16)


def test_rotation_whose_phases_overflow_is_refused_by_name(trap):
    """A finite angle times dim - 1 can overflow the phase vector to NaN:
    the rotation is named before any phase is built.  The largest angle
    whose phases stay finite builds a level with unit-modulus phases."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    with pytest.raises(ValueError, match=re.escape("rotation 1e+308 is too large")):
        build_observation_level(trap, grid, (1e308, -1e308), 0.5, FockSpace(4))
    with pytest.raises(ValueError, match=re.escape("rotation -6e+307 is too large")):
        build_observation_level(trap, grid, (0.0, -6e307), 0.5, FockSpace(4))
    obs = build_observation_level(trap, grid, (0.0, 5e307), 0.5, FockSpace(4))
    assert np.allclose(np.abs(obs.groups[0][0]), 1.0)


def test_observation_level_matches_single_bin_builds(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=4)
    thetas = (0.0, 0.7)
    obs = build_observation_level(trap, grid, thetas, 0.5, space16)
    for i, lab in enumerate(obs.labels[:-1]):
        _, j, k = lab
        base = _bin_base_matrices(trap, space16, np.array([grid.center + grid.width * k]),
                                  grid.width, grid.center, 32, 8)[0]
        v = _rotation_phases(space16.dim, thetas[j])
        single = np.conj(v)[:, None] * v[None, :] * base
        assert np.max(np.abs(obs.operators[i] - single)) < 1e-15


def _einsum_bases(trap, space, grid, gh_nodes, gl_nodes):
    """The bases as one weighted einsum over all bins, the reference form."""
    t, v = hermgauss(gh_nodes)
    tl, wl = leggauss(gl_nodes)
    xi0 = math.sqrt(2.0) * trap.cloud_rms * t
    z = grid.centers()[:, None] + 0.5 * grid.width * tl[None, :]
    u = (z[:, None, :] - grid.center - xi0[None, :, None]) / trap.drop_scale
    psi = hermite_functions(space.dim - 1, u.reshape(-1)).reshape(space.dim, grid.n_bins, -1)
    wq = (v[:, None] / math.sqrt(math.pi) * (0.5 * grid.width * wl)[None, :]
          / trap.drop_scale).reshape(-1)
    return np.einsum("q,mkq,nkq->kmn", wq, psi, psi, optimize=True)


@pytest.mark.parametrize("dim, half_count", [(2, 600), (16, 75), (48, 50), (80, 50)])
@pytest.mark.parametrize("gh_nodes, gl_nodes", [(32, 8), (16, 4), (48, 12)])
def test_bin_bases_match_the_einsum_form(trap, dim, half_count, gh_nodes, gl_nodes):
    """The bases, one batched product per 1 MiB of bins (a partial last
    chunk at every size here), are the one-einsum reference to 16 ulp of
    their largest entry: einsum's own path may differ between numpy builds."""
    space = FockSpace(dim)
    grid = default_bin_grid(trap, nbar=dim / 8, half_count=half_count)
    bases = _bin_base_matrices(trap, space, grid.centers(), grid.width, grid.center,
                               gh_nodes, gl_nodes)
    reference = _einsum_bases(trap, space, grid, gh_nodes, gl_nodes)
    assert bases.shape == reference.shape == (grid.n_bins, dim, dim)
    step = 2**20 // (dim * gh_nodes * gl_nodes * 8)
    assert 0 < step < grid.n_bins and grid.n_bins % step
    scale = 16 * np.finfo(float).eps * np.max(np.abs(reference))
    assert np.max(np.abs(bases - reference)) <= scale


def test_validate_names_the_operator_it_rejects(monkeypatch):
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
    # one group of bin and nbar labels: the Cholesky test takes the bin bases
    # alone, so the number operator's spectrum [0, 2] leaves eigvalsh unrun
    eigvalsh, spectra = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or eigvalsh(a))
    number = np.diag([0.0, 2.0]).astype(complex)
    labels = [("bin", 0, 0), ("nbar",), ("bin", 0, 1)]
    ObservableSet(operators=np.stack([half, number, half]), labels=labels)
    assert spectra == []
    with pytest.raises(ValueError, match=r"bin operator \('bin', 0, 1\) spectrum \[0.000e\+00, "
                                          r"1.500e\+00\] outside \[0, 1\]"):
        ObservableSet(operators=np.stack([half, number, 3.0 * half]), labels=labels)


def _dense_validation_error(ops: np.ndarray, labels: list) -> str | None:
    """The checks validate ran on every dense operator before it ran on
    groups, kept as the oracle: the error message, or None."""
    dev = np.max(np.abs(ops - ops.conj().transpose(0, 2, 1)), axis=(1, 2))
    bad = np.flatnonzero(~(dev <= 1e-12))
    if bad.size:
        return f"operator {labels[bad[0]]} hermiticity off by {dev[bad[0]]:.3e}"
    is_bin = np.array([lab[0] == "bin" for lab in labels])
    ev = np.linalg.eigvalsh(ops)
    bad = np.flatnonzero(is_bin & ~((ev[:, 0] >= -1e-10) & (ev[:, -1] <= 1.0 + 1e-10)))
    if bad.size:
        i = bad[0]
        return f"bin operator {labels[i]} spectrum [{ev[i, 0]:.3e}, {ev[i, -1]:.3e}] outside [0, 1]"
    return None


def _verdict(message: str | None) -> str | None:
    """The check and the operator label a validation error names."""
    return message and re.match(r".*?operator \(.*?\) (hermiticity|spectrum)", message)[0]


def _set_eigenvalue(which, value):
    def perturb(b):
        w, u = np.linalg.eigh(b)
        w[which] = value
        b[:] = (u * w) @ u.T
        b[:] = 0.5 * (b + b.T)
    return perturb


def _nan_entry(b):
    b[3, 5] = np.nan


def _asymmetric(b):
    b[0, 1] += 1e-11


@pytest.mark.parametrize("perturb, accepted", [
    (None, True), (_asymmetric, False), (_set_eigenvalue(-1, 1.0 + 1e-9), False),
    (_nan_entry, False), (_set_eigenvalue(0, -1e-9), False),
    (_set_eigenvalue(0, -5e-11), True), (_set_eigenvalue(-1, 1.0 + 5e-11), True),
], ids=["good", "asymmetric-1e-11", "top-eigenvalue-1+1e-9", "nan-entry",
        "lowest-eigenvalue--1e-9", "lowest-eigenvalue--5e-11", "top-eigenvalue-1+5e-11"])
def test_group_validation_agrees_with_dense_validation(monkeypatch, trap, perturb, accepted):
    """On a level shaped like perfbench's noisy-dim48 one (8 rotations x 101
    bins at dim 48), with one bin basis spoiled, the group checks give the
    dense checks' verdict and name the same operator.  Spectra pushed out by
    1e-9 are rejected; pushed out by 5e-11, inside SPECTRUM_TOL, they are
    accepted, on the Cholesky test alone."""
    from maxent_tomo import measurement

    made = []

    def bases(*args):
        base = _bin_base_matrices(*args)
        if perturb is not None:
            perturb(base[37])
        made.append(base.copy())
        return base

    monkeypatch.setattr(measurement, "_bin_base_matrices", bases)
    eigvalsh, spectra = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",  # stacks: validate's, not a Gauss rule's
                        lambda a: (a.ndim == 3 and spectra.append(a)) or eigvalsh(a))
    space = FockSpace(48)
    thetas = tuple(math.pi * j / 8 for j in range(8))
    grid = default_bin_grid(trap, nbar=6.0, half_count=50)
    try:
        obs = build_observation_level(trap, grid, thetas, 6.0, space)
        error = None
    except ValueError as exc:
        obs, error = None, str(exc)
    monkeypatch.undo()

    v = np.stack([_rotation_phases(space.dim, t) for t in thetas])
    phases = np.conj(v)[:, :, None] * v[:, None, :]
    ops = np.concatenate([
        (phases[:, None] * made[0][None]).reshape(-1, space.dim, space.dim),
        np.diag(np.arange(space.dim, dtype=np.complex128))[None],
    ])
    labels = [("bin", j, int(k)) for j in range(len(thetas)) for k in grid.indices()]
    labels.append(("nbar",))
    expected = _dense_validation_error(ops, labels)
    assert _verdict(error) == _verdict(expected)
    assert (expected is None) == accepted
    if accepted:
        assert error is None and obs.operators.tobytes() == ops.tobytes()
        assert spectra == []  # the Cholesky test accepted
    else:
        assert re.match(r".*operator \('bin', 0, -13\) ", error)


def test_transformed_operators_match_the_dense_stack(trap, space16):
    """V^dagger G_nu V from the groups, packed at a kernel k, equals the same
    product of the dense operators packed by hand: the diagonal times
    sqrt(k), then the real and the imaginary strict upper triangle times
    sqrt(2 k), so that F^T F is sum_ab k_ab conj(Gt_mu)_ab (Gt_nu)_ab.  For a
    built level (bin group and number group) and for a set given as a dense
    stack, at a random unitary V and a random symmetric kernel."""
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v = np.linalg.qr(raw)[0]
    kernel = rng.uniform(0.0, 1.0, (16, 16))
    kernel = 0.5 * (kernel + kernel.T)
    iu, ju = np.triu_indices(16, 1)
    grid = default_bin_grid(trap, nbar=0.5, half_count=4)
    built = build_observation_level(trap, grid, (0.0, 0.7, 2.1), 0.5, space16)
    dense = ObservableSet(operators=built.operators[::5], labels=built.labels[::5])
    for obs in (built, dense):
        reference = np.einsum("ab,kbc,cd->kad", v.conj().T, obs.operators, v)
        upper = reference[:, iu, ju] * np.sqrt(2.0 * kernel[iu, ju])
        diag = np.real(np.diagonal(reference, axis1=1, axis2=2)) * np.sqrt(np.diag(kernel))
        by_hand = np.concatenate([diag, upper.real, upper.imag], axis=1).T
        packed = obs.packed_transformed(v, kernel, obs.groups)
        assert packed.shape == (256, obs.n_ops)
        assert np.max(np.abs(packed - by_hand)) < 1e-14 * np.max(np.abs(by_hand))
        gram = np.real(np.einsum("mab,ab,nab->mn", reference.conj(), kernel, reference))
        assert np.max(np.abs(packed.T @ packed - gram)) < 1e-14 * np.max(np.abs(gram))


def _span_operators(groups) -> np.ndarray:
    """The (sum of J*L, N, N) stack of the operators H of reduced groups."""
    return np.concatenate([((np.conj(v)[:, :, None] * v[:, None, :])[:, None] * e[None])
                           .reshape(-1, *e.shape[1:]) for v, e in groups])


def test_span_rebuilds_every_operator_with_one_quadrature_rank_per_rotation(trap, space16):
    """The standard dim-16 level (four rotations of 51 bins, and the number
    operator): each rotation's bins span 2 dim - 1 = 31 operators, since
    psi_m psi_n is exp(-u^2) times a polynomial of degree m + n, and the
    number group 1.  C has orthonormal rows, and C^T H, i.e. sum_l T_kl E_l
    dressed with each rotation's phases, rebuilds every operator to 1e-14
    relative."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16)
    c, groups = obs.span()
    assert [len(e) for _, e in groups] == [31, 1]
    assert all(np.isrealobj(e) for _, e in groups)
    assert c.shape == (4 * 31 + 1, 205)
    assert np.max(np.abs(c @ c.T - np.eye(len(c)))) < 1e-14
    rebuilt = np.einsum("an,aij->nij", c, _span_operators(groups))
    assert np.max(np.abs(rebuilt - obs.operators)) < 1e-14 * np.max(np.abs(obs.operators))


def test_span_of_complex_hermitian_operators_has_at_most_their_count():
    """An array-like set of complex Hermitian operators, four random and two
    combinations of them: stacked as real rows they have rank 4, the span keeps
    4 Hermitian operators, and C^T H rebuilds all six to 1e-14 relative."""
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    ops = raw + raw.conj().transpose(0, 2, 1)
    ops = np.concatenate([ops, [ops[0] - 2.0 * ops[3], 0.5 * ops[1] + ops[2]]])
    obs = ObservableSet(operators=ops, labels=[("op", i) for i in range(6)])
    c, groups = obs.span()
    ((_, e),) = groups
    assert len(e) == 4 and np.iscomplexobj(e)
    assert np.max(np.abs(e - e.conj().transpose(0, 2, 1))) < 1e-14 * np.max(np.abs(e))
    rebuilt = np.einsum("an,aij->nij", c, _span_operators(groups))
    assert np.max(np.abs(rebuilt - ops)) < 1e-14 * np.max(np.abs(ops))


def test_validate_checks_each_phase_for_unit_modulus():
    bases = np.stack([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
    for phases in ([[1.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [np.nan, 1.0]]):
        with pytest.raises(ValueError, match=r"operator \('bin', 1, 0\) phase modulus off"):
            ObservableSet(operators=None, labels=[("bin", j, k) for j in (0, 1) for k in (0, 1)],
                          groups=((np.array(phases), bases),))


def test_set_refuses_operators_and_groups_together():
    """The groups used to win and the operators went unread: this pair
    built the identity, not diag(1, 0)."""
    with pytest.raises(ValueError, match="operators or groups, not both"):
        ObservableSet(operators=[np.diag([1.0, 0.0])], labels=[("op", 0)],
                      groups=((np.ones((1, 2)), np.eye(2)[None]),))


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
