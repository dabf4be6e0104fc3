"""Canonical states, the deviation functional, gradients, and the fit."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxent_tomo import (
    DensityOperator,
    FockSpace,
    LagrangeVector,
    MissingMeans,
    NoiseSpec,
    ObservableSet,
    add_noise,
    build_observation_level,
    canonical_state,
    default_bin_grid,
    deviation,
    entropy,
    even_cat,
    fidelity,
    fit,
    ladder_operators,
    simulate_ideal,
    superposition,
    thermal_state,
)

from conftest import make_trap, rotations

LN3 = 1.0986122886681098


def _random_obs(rng, dim, n_ops, with_means=True):
    """Small random observable set with means from a full-rank state, so the
    target is strictly interior and a finite multiplier vector exists."""
    ops = []
    for _ in range(n_ops):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append((raw + raw.conj().T) / 2.0)
    labels = [("op", i) for i in range(n_ops)]
    obs = ObservableSet(operators=ops, labels=labels)
    if with_means:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        means = np.real([np.trace(rho @ op) for op in ops])
        obs = obs.with_means(means)
    return obs


# ---------------------------------------------------------------------------
# multiplier bookkeeping


def test_lagrange_vector_round_trip(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(trap, grid, (0.0, 1.0), 0.5, space16)
    flat = np.arange(15.0)
    lam2 = LagrangeVector.from_flat(flat, (2, 7))
    assert lam2.lambda_n == 14.0
    assert lam2.lambda_bins[1, 6] == 13.0
    assert np.array_equal(lam2.flat(), flat)
    state = canonical_state(lam2, obs)
    assert np.array_equal(state.lambdas.flat(), flat)
    with pytest.raises(ValueError):
        LagrangeVector.from_flat(np.array([1.0, np.nan]), (1, 1))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multiplier_flattening_round_trips(n_rot, n_bin, seed):
    flat = np.random.default_rng(seed).standard_normal(n_rot * n_bin + 1)
    lam = LagrangeVector.from_flat(flat, (n_rot, n_bin))
    assert lam.lambda_bins.shape == (n_rot, n_bin)
    assert np.array_equal(lam.flat(), flat)


# ---------------------------------------------------------------------------
# canonical states


def test_zero_multipliers_give_maximally_mixed(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(trap, grid, (0.0,), 0.5, space16)
    state = canonical_state(np.zeros(obs.n_ops), obs)
    assert np.max(np.abs(state.rho.matrix - np.eye(16) / 16.0)) < 1e-14
    assert state.log_partition == pytest.approx(math.log(16.0), abs=1e-12)


def test_number_operator_multiplier_reproduces_thermal():
    """exp(-lambda n)/Z with lambda = ln((nbar+1)/nbar) is the geometric
    state; nbar = 0.5 needs lambda = ln 3."""
    space = FockSpace(32)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
    )
    lam = LagrangeVector(lambda_n=LN3, lambda_bins=np.zeros((0, 0)))
    state = canonical_state(lam, obs)
    target = thermal_state(space, 0.5)
    assert np.max(np.abs(state.rho.matrix - target.matrix)) < 1e-10

    # large multiplier freezes the state into the vacuum
    lam_big = LagrangeVector(lambda_n=50.0, lambda_bins=np.zeros((0, 0)))
    frozen = canonical_state(lam_big, obs)
    assert frozen.rho.populations()[0] == pytest.approx(1.0, abs=1e-12)


def test_canonical_state_matches_direct_exponential():
    rng = np.random.default_rng(5)
    obs = _random_obs(rng, 6, 3, with_means=False)
    flat = rng.uniform(-2.0, 2.0, 3)
    state = canonical_state(flat, obs)
    from scipy.linalg import expm

    a = np.tensordot(flat, obs.operators, axes=(0, 0))
    raw = expm(-a)
    direct = raw / np.trace(raw).real
    assert np.max(np.abs(state.rho.matrix - direct)) < 1e-12
    assert state.log_partition == pytest.approx(
        math.log(np.trace(raw).real), abs=1e-10
    )


def test_canonical_states_are_always_physical():
    """Any multiplier vector must map to a valid density operator; the
    DensityOperator constructor enforces hermiticity, trace and positivity."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        n_ops = int(rng.integers(1, 5))
        obs = _random_obs(rng, dim, n_ops, with_means=False)
        lam = rng.uniform(-5.0, 5.0, n_ops)
        state = canonical_state(lam, obs)
        assert isinstance(state.rho, DensityOperator)
        pops = state.rho.populations()
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# deviation functional and derivatives


def test_deviation_requires_means(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(trap, grid, (0.0,), None, space16)
    with pytest.raises(MissingMeans):
        deviation(np.zeros(obs.n_ops), obs)
    with pytest.raises(MissingMeans):
        fit(obs)


def test_deviation_takes_one_multiplier_per_observable(trap, space16):
    """A flat vector of the wrong length is rejected; a LagrangeVector is
    read in the set's operator order."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(trap, grid, (0.0,), None, space16)
    with_means = obs.with_means(np.full(obs.n_ops, 0.1))
    with pytest.raises(ValueError, match=f"{obs.n_ops + 1} multipliers for {obs.n_ops}"):
        deviation(np.zeros(obs.n_ops + 1), with_means)
    lam = LagrangeVector.from_flat(np.linspace(-1.0, 1.0, obs.n_ops), obs.bin_shape)
    f, grad = deviation(lam, with_means)
    f_flat, grad_flat = deviation(lam.flat(), with_means)
    assert f == f_flat and np.array_equal(grad, grad_flat)


def test_deviation_vanishes_on_self_consistent_means():
    rng = np.random.default_rng(9)
    obs = _random_obs(rng, 5, 3, with_means=False)
    lam = rng.uniform(-1.0, 1.0, 3)
    state = canonical_state(lam, obs)
    model = np.real([np.trace(state.rho.matrix @ op) for op in obs.operators])
    matched = obs.with_means(model)
    f, grad = deviation(lam, matched)
    assert f < 1e-25
    assert np.max(np.abs(grad)) < 1e-12


def test_deviation_weights_scale_terms():
    rng = np.random.default_rng(21)
    obs = _random_obs(rng, 4, 2)
    base = deviation(np.zeros(2), obs)[0]
    doubled = ObservableSet(
        operators=obs.operators, labels=obs.labels, means=obs.means,
        weights=np.full(2, 2.0),
    )
    assert deviation(np.zeros(2), doubled)[0] == pytest.approx(2.0 * base, rel=1e-12)


def test_gradient_matches_finite_differences():
    """Central differences with h = 1e-5 on random small problems."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        n_ops = int(rng.integers(1, 5))
        obs = _random_obs(rng, dim, n_ops)
        lam = rng.uniform(-1.5, 1.5, n_ops)
        grad = deviation(lam, obs)[1]
        h = 1e-5
        for i in range(n_ops):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd = (deviation(lp, obs)[0] - deviation(lm, obs)[0]) / (2.0 * h)
            scale = max(abs(fd), abs(grad[i]), 1e-10)
            assert abs(grad[i] - fd) / scale < 1e-5


# ---------------------------------------------------------------------------
# fitting


def test_fit_thermal_from_number_operator_alone():
    space = FockSpace(32)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    state, report = fit(obs)
    assert report.converged
    assert report.delta_f < 1e-13
    # sets without a (rotation, bin) layout carry plain multiplier arrays
    assert np.ravel(state.lambdas)[0] == pytest.approx(LN3, abs=1e-6)
    target = thermal_state(space, 0.5)
    assert np.max(np.abs(state.rho.matrix - target.matrix)) < 1e-8
    assert report.nbar_fit == pytest.approx(0.5, abs=1e-7)


def test_fit_reaches_ideal_data_from_zero_multipliers(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=6)
    obs = build_observation_level(trap, grid, (0.0, 1.3), 0.5, space16)
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs)
    obs = obs.with_record(rec)
    state, report = fit(obs, grad_tol=1e-10)
    assert state.lambdas.lambda_bins.shape == (2, 13)
    assert report.delta_f < 1e-8
    assert report.iterations > 0


def test_fit_is_deterministic(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    obs = build_observation_level(trap, grid, (0.0, 0.9), 0.5, space16)
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs)
    obs = obs.with_record(rec)
    s1, r1 = fit(obs)
    s2, r2 = fit(obs)
    assert np.array_equal(s1.lambdas.flat(), s2.lambdas.flat())
    assert r1.delta_f == r2.delta_f
    assert r1.iterations == r2.iterations


def test_fit_report_serializes():
    space = FockSpace(8)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([1.0]),
    )
    _, report = fit(obs)
    payload = report.to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["converged"] is True
    assert back["delta_f"] == report.delta_f
    assert back["message"] == report.message
    assert "history" not in back


@pytest.mark.parametrize("kwargs, name", [
    ({"grad_tol": math.inf}, "grad_tol"),
    ({"grad_tol": math.nan}, "grad_tol"),
    ({"grad_tol": 0.0}, "grad_tol"),
    ({"grad_tol": -1e-9}, "grad_tol"),
    ({"max_iter": 0}, "max_iter"),
    ({"max_iter": -5}, "max_iter"),
    ({"max_iter": 10.0}, "max_iter"),
    ({"max_iter": True}, "max_iter"),
], ids=["tol-inf", "tol-nan", "tol-zero", "tol-negative",
        "iter-zero", "iter-negative", "iter-float", "iter-bool"])
def test_fit_rejects_bad_arguments_naming_them(kwargs, name):
    """grad_tol=inf used to return the maximally mixed state as converged
    after 0 iterations, and max_iter=0 ran four empty attempts."""
    space = FockSpace(8)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([1.0]),
    )
    with pytest.raises(ValueError, match=name):
        fit(obs, **kwargs)


def test_fit_stops_at_the_deviation_floor(monkeypatch):
    """With a gradient test that cannot pass, the iteration callback stops
    L-BFGS on the dF floor (1e-14), and the fit reports that point as
    converged, long before the iteration cap."""
    from maxent_tomo import maxent

    space = FockSpace(32)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    real_minimize = maxent.minimize
    stops = []

    def spying(fun, x0, callback, **kwargs):
        def spy(intermediate_result):
            try:
                callback(intermediate_result)
            except StopIteration:
                stops.append(float(intermediate_result.fun))
                raise

        return real_minimize(fun, x0, callback=spy, **kwargs)

    monkeypatch.setattr(maxent, "minimize", spying)
    _, report = fit(obs, grad_tol=1e-300)
    assert report.converged
    assert report.delta_f < 1e-14
    assert report.iterations < 20
    assert stops == [report.delta_f]
    assert report.message.startswith("deviation floor")


@pytest.fixture(scope="module")
def acceptance_level(trap, space16):
    """The four-rotation, 51-bin level of acceptance tests 1 and 2, with the
    exact bin means of (|0> + |1>)/sqrt(2)."""
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16)
    return obs, simulate_ideal(superposition(space16, [1.0, 1.0]), obs)


def test_relative_gradient_test_leaves_exact_fits_bit_identical(monkeypatch, acceptance_level):
    """Exact data drive dF to 0, so the relative-gradient test never fires
    before the absolute one: switching it off changes no bit of the fit."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(ideal)
    state, report = fit(obs, grad_tol=1e-13)
    monkeypatch.setattr(maxent, "REL_GRAD_TOL", 0.0)
    state_off, report_off = fit(obs, grad_tol=1e-13)
    assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
    assert np.array_equal(state.rho.matrix, state_off.rho.matrix)
    assert report.to_dict() == report_off.to_dict()
    assert report.converged and "relative gradient" not in report.message


def test_noisy_fit_stops_on_the_relative_gradient_test(acceptance_level):
    """Noisy data leave dF a positive floor; the fit ends there, converged
    and without a restart, where the absolute gradient test alone ran 7699
    iterations (noise seed 9 of acceptance test 2)."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    noisy = add_noise(ideal, NoiseSpec(eta=0.1, seed=9), nbar_noisy=0.6)
    _, report = fit(obs.with_record(noisy))
    assert report.converged
    assert report.restarts == 0
    assert report.grad_inf_norm <= maxent.REL_GRAD_TOL * report.delta_f
    assert report.iterations < 1000
    assert report.message.startswith("relative gradient")


@pytest.mark.parametrize("level", ["random", "acceptance"])
def test_mean_jacobian_matches_finite_differences_and_the_gradient(level, acceptance_level):
    """The Jacobian of the model means at a non-zero multiplier vector: it
    matches central differences (h = 1e-5) of Tr[rho G_mu], and 2 J^T W r
    is ``deviation``'s gradient to 1e-12 relative."""
    from maxent_tomo import maxent

    rng = np.random.default_rng(41)
    if level == "random":
        obs = _random_obs(rng, 6, 5)
        obs = ObservableSet(operators=obs.operators, labels=obs.labels, means=obs.means,
                            weights=rng.uniform(0.5, 2.0, 5))
        lam = rng.uniform(-1.0, 1.0, 5)
    else:
        obs, ideal = acceptance_level
        obs = obs.with_record(ideal)
        lam = rng.uniform(-0.5, 0.5, obs.n_ops)

    def means_at(x):
        return obs.expectations(canonical_state(x, obs).rho.matrix)

    model, jac = maxent._mean_jacobian(lam, obs)
    assert np.max(np.abs(model - means_at(lam))) < 1e-14
    h = 1e-5
    fd = np.empty_like(jac)
    for nu in range(obs.n_ops):
        step = np.zeros(obs.n_ops)
        step[nu] = h
        fd[:, nu] = (means_at(lam + step) - means_at(lam - step)) / (2.0 * h)
    assert np.max(np.abs(jac - fd)) < 1e-8 * np.max(np.abs(jac))
    grad = deviation(lam, obs)[1]
    from_jac = 2.0 * jac.T @ (obs.weights * (model - obs.means))
    assert np.max(np.abs(from_jac - grad)) < 1e-12 * np.max(np.abs(grad))


@pytest.mark.parametrize("level", ["random", "acceptance"])
def test_packed_jacobian_is_symmetric_and_matches_the_unpacked_formula(level, acceptance_level):
    """J = m m^T - F^T F from the packed Hermitian features equals its own
    transpose bit for bit and the unpacked <G_mu><G_nu> - sum_ab
    conj(Gt_mu)_ab phi_ab (Gt_nu)_ab / Z over the dense stack, Gt = V+ G V,
    to 1e-14 relative (measured 1.2e-15 and 1.9e-17)."""
    from maxent_tomo import maxent

    rng = np.random.default_rng(41)
    if level == "random":
        obs = _random_obs(rng, 6, 5)
        obs = ObservableSet(operators=obs.operators, labels=obs.labels, means=obs.means,
                            weights=rng.uniform(0.5, 2.0, 5))
        lam = rng.uniform(-1.0, 1.0, 5)
    else:
        obs, ideal = acceptance_level
        obs = obs.with_record(ideal)
        lam = rng.uniform(-0.5, 0.5, obs.n_ops)
    model, jac = maxent._mean_jacobian(lam, obs)
    assert np.array_equal(jac, jac.T)
    d, v = maxent._spectrum(lam, obs)
    e, q, z, _ = maxent._gibbs(d, v)
    gt = (v.conj().T @ obs.operators @ v).reshape(obs.n_ops, -1)
    unpacked = np.real(gt.conj() * maxent._phi_kernel(e, q).ravel() @ gt.T) / z
    means = obs.expectations(canonical_state(lam, obs).rho.matrix)
    reference = np.outer(means, means) - unpacked
    assert np.max(np.abs(jac - reference)) < 1e-14 * np.max(np.abs(reference))


def test_exact_fits_do_not_depend_on_rounding_of_the_data(acceptance_level):
    """Eight 1-ulp perturbations of the exact acceptance-1 means: each ends
    in the second-order probe with no restart, after the same number of
    iterations, and at the same fidelity to 1e-9.  L-BFGS alone took
    822-2469 iterations and 0-2 restarts on these draws."""
    obs, ideal = acceptance_level
    obs = obs.with_record(ideal)
    target = superposition(FockSpace(obs.dim), [1.0, 1.0]).density()
    rng = np.random.default_rng(0)
    iterations, fids = set(), []
    for _ in range(8):
        up = rng.random(obs.n_ops) < 0.5
        means = np.nextafter(obs.means, np.where(up, np.inf, -np.inf))  # one ulp each
        state, report = fit(obs.with_means(means), grad_tol=1e-13)
        assert report.converged and report.restarts == 0
        assert report.message.startswith("lm: deviation floor")
        iterations.add(report.iterations)
        fids.append(fidelity(target, state.rho))
    assert len(iterations) == 1
    assert max(fids) - min(fids) < 1e-9


@pytest.mark.parametrize("seed, probes", [(2, 1), (0, 0)])
def test_noisy_fits_keep_their_bits_when_the_probe_declines(monkeypatch, acceptance_level,
                                                            seed, probes):
    """Acceptance-2 noise: seed 2 runs 516 L-BFGS iterations, past the
    probe's trigger at n_ops = 205, and seed 0 stops at 115, before it.
    Either way the multipliers and the report are those of a fit whose
    probe always declines, bit for bit."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=0.6))
    real_probe, calls = maxent._lm_probe, []

    def counting(*args):
        calls.append(args)
        return real_probe(*args)

    monkeypatch.setattr(maxent, "_lm_probe", counting)
    state, report = fit(obs)
    assert len(calls) == probes
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
    state_off, report_off = fit(obs)
    assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
    assert report.to_dict() == report_off.to_dict()
    assert report.converged and report.message.startswith("relative gradient")


def test_exact_fit_reaches_the_probe_before_iteration_n_ops(monkeypatch, acceptance_level):
    """On the exact acceptance-1 data dF falls more than 10x within one
    L-BFGS memory (30 iterations) by iteration 60, so the probe runs once,
    long before the n_ops = 205 trigger, and the fit ends in it."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    real_probe, answers = maxent._lm_probe, []

    def recording(*args):
        answers.append(real_probe(*args))
        return answers[-1]

    monkeypatch.setattr(maxent, "_lm_probe", recording)
    _, report = fit(obs.with_record(ideal), grad_tol=1e-13)
    assert len(answers) == 1 and answers[0] is not None
    lbfgs = report.iterations - answers[0][3]  # the probe returns its own count
    assert obs.n_ops == 205 and lbfgs < 205
    assert report.converged and report.restarts == 0
    assert report.message.startswith("lm: ") and report.iterations < 205


def test_noisy_cat_fits_keep_their_bits_and_probe_only_past_n_ops(monkeypatch, trap, space16):
    """Acceptance-3 noise seeds 0-9, the noisy fits whose dF falls fastest
    early on: no fit reaches the early trigger (dF falls at most 1.4x per
    30 iterations), so each gives the multipliers and report of a twin whose
    probe always declines, bit for bit, and the probe runs exactly in the
    fits where that twin ran past n_ops = 205 iterations."""
    from maxent_tomo import maxent

    cat = even_cat(space16, math.sqrt(2.0))
    nbar = float(np.abs(cat.amplitudes) ** 2 @ np.arange(16))
    grid = default_bin_grid(trap, nbar=nbar, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), nbar, space16)
    ideal = simulate_ideal(cat, obs)
    real_probe, past = maxent._lm_probe, []
    for seed in range(10):
        noisy = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=2.09))
        calls = []
        monkeypatch.setattr(maxent, "_lm_probe",
                            lambda *args: calls.append(args) or real_probe(*args))
        state, report = fit(noisy)
        monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
        state_off, report_off = fit(noisy)
        assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
        assert report.to_dict() == report_off.to_dict()
        assert report_off.restarts == 0
        assert len(calls) == (report_off.iterations > obs.n_ops)
        past.append(report_off.iterations > obs.n_ops)
    assert 0 < sum(past) < 10  # both kinds of fit occur


def test_nearly_noise_free_fit_declines_an_early_probe_and_says_why_it_stopped(
        monkeypatch, acceptance_level):
    """eta = 1e-3 on the acceptance-1 level (noise seed 0): dF falls more
    than 10x in 30 iterations, so the probe runs before iteration 205, meets
    the noise floor and declines.  The fit keeps the bits of a twin whose
    probe always declines and ends on L-BFGS-B's own gradient test, which
    the report names in the package's wording, not scipy's."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=1e-3, seed=0), nbar_noisy=0.5))
    real_probe, answers = maxent._lm_probe, []
    monkeypatch.setattr(maxent, "_lm_probe",
                        lambda *args: answers.append(real_probe(*args)) or answers[-1])
    state, report = fit(obs)
    assert answers == [None] and report.iterations < 205
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
    state_off, report_off = fit(obs)
    assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
    assert report.to_dict() == report_off.to_dict()
    assert report.converged and report.message == "gradient: |grad dF|inf < 1e-09"


def test_probe_ends_exact_fits_within_30_steps_and_declines_noisy_ones(trap, space16):
    """The probe on its own, from lambda = 0: the exact data of acceptance 1,
    3 (ideal) and both acceptance-5 levels end in an accept within 30 LM
    iterations (21-24 with Marquardt's mu / 5; Nielsen's gain-ratio rule
    took 53-80), and the acceptance-2 and acceptance-3 noise seeds 0-9 all
    decline."""
    from maxent_tomo import maxent

    pair = superposition(space16, [1.0, 1.0])
    cat = even_cat(space16, math.sqrt(2.0))
    nbar_cat = float(np.abs(cat.amplitudes) ** 2 @ np.arange(16))
    point = make_trap(cloud_rms=1e-12)
    three = (0.0, math.pi / 4.0, math.pi / 2.0)

    def level(cfg, state, nbar, thetas, half_count):
        grid = default_bin_grid(cfg, nbar=nbar, half_count=half_count)
        obs = build_observation_level(cfg, grid, thetas, nbar, space16)
        return obs, simulate_ideal(state, obs)

    four_pair = level(trap, pair, 0.5, rotations(trap), 25)
    four_cat = level(trap, cat, nbar_cat, rotations(trap), 25)
    for (obs, ideal), grad_tol in ((four_pair, 1e-13), (four_cat, 1e-13),
                                   (level(point, pair, 0.5, three, 50), 1e-11),
                                   (level(point, cat, nbar_cat, three, 50), 1e-11)):
        answer = maxent._lm_probe(obs.with_record(ideal), grad_tol)
        assert answer is not None and answer[4].startswith("lm: ")
        assert answer[3] <= 30
    for (obs, ideal), nbar_noisy in ((four_pair, 0.6), (four_cat, 2.09)):
        for seed in range(10):
            noisy = add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=nbar_noisy)
            assert maxent._lm_probe(obs.with_record(noisy), 1e-9) is None


def test_fit_flags_non_convergence(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    obs = build_observation_level(trap, grid, (0.0, 0.9), 0.5, space16)
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs)
    obs = obs.with_record(rec)
    state, report = fit(obs, max_iter=2, grad_tol=1e-30)
    assert not report.converged
    assert report.message


def test_maxent_state_dominates_feasible_entropies():
    """The converged canonical state must out-entropy every other state
    with the same means.  Generate alternatives by Frobenius-projecting
    random density matrices onto the constraint set with a convex solver."""
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(57)
    dim, n_ops = 5, 3
    obs = _random_obs(rng, dim, n_ops)
    state, report = fit(obs, grad_tol=1e-12)
    assert report.delta_f < 1e-14
    s_fit = entropy(state.rho)

    mats = obs.operators
    for trial in range(6):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        target = raw @ raw.conj().T
        target /= np.trace(target).real
        x = cvxpy.Variable((dim, dim), hermitian=True)
        constraints = [x >> 0, cvxpy.trace(x) == 1]
        for v in range(n_ops):
            constraints.append(
                cvxpy.real(cvxpy.trace(x @ mats[v])) == obs.means[v]
            )
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.norm(x - target, "fro")), constraints
        )
        prob.solve()
        assert prob.status in ("optimal", "optimal_inaccurate")
        ev = np.linalg.eigvalsh(x.value)
        ev = np.clip(ev, 1e-14, None)
        ev = ev / ev.sum()
        s_other = float(-(ev * np.log(ev)).sum())
        assert s_other <= s_fit + 1e-5


def _feasible_directions(obs):
    """Frobenius-orthonormal Hermitian X with Tr X = 0 and Tr X G_nu = 0 for
    every nu: the SVD null space of those constraints, written in an
    orthonormal basis of Hermitian matrices."""
    dim = obs.dim
    basis = []
    for j in range(dim):
        for k in range(j, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            if j == k:
                basis.append(e)
            else:
                basis += [(e + e.T) / math.sqrt(2.0), 1j * (e - e.T) / math.sqrt(2.0)]
    basis = np.array(basis)
    constraints = np.concatenate([np.eye(dim)[None], obs.operators])
    c = np.real(np.einsum("iab,kba->ik", constraints, basis))
    _, sv, vt = np.linalg.svd(c)
    null = vt[np.count_nonzero(sv > 1e-12 * sv[0]):]
    return np.einsum("nk,kab->nab", null, basis)


def _largest_entropy_gain(rho, directions):
    """max S(rho + t X) - S(rho) over the directions and the steps
    t = s lambda_min(rho) / ||X||_2, |s| < 1, which keep rho + t X positive."""
    s0 = entropy(DensityOperator(rho))
    lowest = np.linalg.eigvalsh(rho)[0]
    gains = [
        entropy(DensityOperator(rho + s * lowest / np.linalg.norm(x, 2) * x)) - s0
        for x in directions
        for s in (-0.99, -0.1, -1e-2, -1e-4, 1e-4, 1e-2, 0.1, 0.99)
    ]
    return max(gains)


def test_maxent_state_has_no_feasible_entropy_ascent():
    """Numpy-only maximum-entropy oracle.  For a canonical rho* and any rho'
    with the same means, S(rho') = S(rho*) - D(rho' || rho*) (Gibbs), so no
    step rho* + t X along a constraint-preserving direction raises the
    entropy beyond rounding (1e-12).  The same probe started from a feasible
    state off the maximizer finds an ascent."""
    rng = np.random.default_rng(57)
    dim, n_ops = 5, 3
    obs = _random_obs(rng, dim, n_ops)
    state, report = fit(obs, grad_tol=1e-12)
    assert report.delta_f < 1e-14
    directions = _feasible_directions(obs)
    assert len(directions) == dim * dim - n_ops - 1
    for x in directions:
        assert np.allclose(x, x.conj().T, atol=1e-15)
        assert abs(np.trace(x)) < 1e-12
        assert np.max(np.abs(np.einsum("vab,ba->v", obs.operators, x))) < 1e-12

    rho = state.rho.matrix
    assert _largest_entropy_gain(rho, directions) < 1e-12
    x = directions[0]
    off = rho + 0.5 * np.linalg.eigvalsh(rho)[0] / np.linalg.norm(x, 2) * x
    assert _largest_entropy_gain(off, directions) > 1e-6


def _scripted_minimize(monkeypatch, x, f, jac):
    """Replace the fit's minimizer: each call records the objective it was
    given and returns the scripted (x, f, jac) as the run's end."""
    from scipy.optimize import OptimizeResult

    from maxent_tomo import maxent

    seen = []

    def fake(fun, x0, args=(), **kwargs):
        seen.append((fun, args))
        return OptimizeResult(x=np.array(x), fun=f, jac=np.array(jac), nit=1,
                              message=f"scripted run {len(seen) - 1}")

    monkeypatch.setattr(maxent, "minimize", fake)
    return seen


def test_fit_minimizes_the_deviation_it_reports(monkeypatch):
    """The objective handed to the minimizer returns ``deviation`` of the
    fitted set, value and gradient, bit for bit, and the reported dF and
    gradient norm are ``deviation`` at the returned multipliers, bit for
    bit."""
    rng = np.random.default_rng(77)
    obs = _random_obs(rng, 7, 4)
    state, report = fit(obs)
    f, grad = deviation(state.lambdas, obs)
    assert report.delta_f == f
    assert report.grad_inf_norm == np.max(np.abs(grad))
    seen = _scripted_minimize(monkeypatch, np.zeros(4), 1.0, np.zeros(4))
    fit(obs)
    (fun, args), = seen
    for x in (np.zeros(4), rng.standard_normal(4), np.ravel(state.lambdas)):
        f_obj, g_obj = fun(x, *args)
        f_ref, g_ref = deviation(x, obs)
        assert f_obj == f_ref
        assert np.array_equal(g_obj, g_ref)


def test_unconverged_fit_reports_its_one_run(monkeypatch):
    """fit calls the minimizer once and reports that run as it ended: its
    multipliers, dF, gradient norm and message, with no restart."""
    space = FockSpace(8)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    seen = _scripted_minimize(monkeypatch, [1.0], 1e-6, [1e-3])  # gradient test failed
    state, report = fit(obs, grad_tol=1e-9)
    assert len(seen) == 1
    assert not report.converged
    assert report.restarts == 0
    assert report.delta_f == 1e-6
    assert report.grad_inf_norm == 1e-3
    assert report.message == "L-BFGS-B: scripted run 0"
    assert np.array_equal(np.ravel(state.lambdas), [1.0])


@pytest.mark.parametrize("status, nit, message", [
    (1, 10, "iteration cap: 10 iterations"),
    (1, 4, "evaluation cap: 30 evaluations"),
    (0, 4, "stalled line search: no lower dF along the search direction"),
    (2, 4, "stalled line search: no lower dF along the search direction"),
    (7, 4, "L-BFGS-B: ERROR: scripted"),
])
def test_unconverged_attempts_name_their_stop_in_the_package_words(monkeypatch, status, nit,
                                                                    message):
    """L-BFGS-B's status 1 is the iteration cap (nit reached max_iter) or
    the evaluation cap (3 max_iter); status 0 without the gradient test
    (under ftol = 0 the last step did not lower dF) and status 2 are a
    stall; any other status keeps scipy's text after the optimizer's name."""
    from scipy.optimize import OptimizeResult

    from maxent_tomo import maxent

    obs = ObservableSet(operators=[ladder_operators(FockSpace(8)).n], labels=[("nbar",)],
                        means=np.array([0.5]))
    monkeypatch.setattr(maxent, "minimize", lambda *args, **kwargs: OptimizeResult(
        x=np.array([1.0]), fun=1e-6, jac=np.array([1e-3]), nit=nit, status=status,
        message="ERROR: scripted"))
    _, report = fit(obs, max_iter=10, grad_tol=1e-9)
    assert not report.converged and report.message == message


def test_capped_fit_names_the_iteration_cap(acceptance_level):
    """README-like noisy data at max_iter = 5: the one L-BFGS run ends on
    the cap after 5 iterations, and the report says so in the package's
    words, not scipy's."""
    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=7), nbar_noisy=0.5))
    _, report = fit(obs, max_iter=5)
    assert not report.converged and report.restarts == 0
    assert report.iterations == 5
    assert report.message == "iteration cap: 5 iterations"


def test_stalled_noisy_fit_is_reported_as_a_stall(acceptance_level):
    """The eta 0.02, seed 6 record of demos/noisy_reconstruction.py: L-BFGS
    stalls after about 200 iterations, past the declined probe.  The fit
    reports the stall as it is, and its answer is close to the true state
    (fidelity 0.98588)."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    noisy = add_noise(ideal, NoiseSpec(eta=0.02, seed=6), nbar_noisy=0.6)
    state, report = fit(obs.with_record(noisy))
    assert report.restarts == 0
    assert report.converged or report.message == maxent.STALL_STOP
    psi = superposition(FockSpace(16), [1.0, 1.0])
    assert fidelity(psi.density(), state.rho) >= 0.98


# ---------------------------------------------------------------------------
# BLAS threads


def _small_fit_problem(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    obs = build_observation_level(trap, grid, (0.0, 0.9), 0.5, space16)
    return obs.with_record(simulate_ideal(superposition(space16, [1.0, 1.0]), obs))


def test_fit_holds_scipy_blas_at_one_thread_and_restores_it(monkeypatch, trap, space16):
    from maxent_tomo import maxent

    lib = maxent._scipy_openblas()
    if lib is None:
        pytest.skip("scipy does not use its bundled OpenBLAS here")
    get, put = lib
    obs = _small_fit_problem(trap, space16)
    real_minimize = maxent.minimize
    inside = []

    def counting(*args, **kwargs):
        inside.append(get())
        return real_minimize(*args, **kwargs)

    def failing(*args, **kwargs):
        inside.append(get())
        raise RuntimeError("optimizer failed")

    before = get()
    try:
        put(2)
        monkeypatch.setattr(maxent, "minimize", counting)
        fit(obs)
        assert get() == 2
        monkeypatch.setattr(maxent, "minimize", failing)
        with pytest.raises(RuntimeError, match="optimizer failed"):
            fit(obs)
        assert get() == 2
    finally:
        put(before)
    assert inside and set(inside) == {1}


def test_fit_without_a_bundled_openblas_gives_the_same_result(monkeypatch, trap, space16):
    from maxent_tomo import maxent

    obs = _small_fit_problem(trap, space16)
    s1, r1 = fit(obs)
    monkeypatch.setattr(maxent, "_SCIPY_BLAS", maxent._OneBlasThread(lambda: None))
    s2, r2 = fit(obs)
    assert r2.iterations == r1.iterations
    assert r2.delta_f == r1.delta_f
    assert np.array_equal(s2.rho.matrix, s1.rho.matrix)


FIRST_SCIPY_FIT = """
import sys
import numpy as np
from maxent_tomo import (FockSpace, TrapConfig, build_observation_level, default_bin_grid,
                         fit, maxent, simulate_ideal, superposition)
assert "scipy" not in sys.modules
trap = TrapConfig(omega_z=2 * np.pi * 80e3, dz0=22e-9, dv0=11e-3, cloud_rms=60e-6,
                  be_time=8.7e-3)
space = FockSpace(8)
obs = build_observation_level(trap, default_bin_grid(trap, nbar=0.5, half_count=5),
                              (0.0, 0.9), 0.5, space)
obs = obs.with_record(simulate_ideal(superposition(space, [1.0, 1.0]), obs))
real_minimize, inside = maxent.minimize, []

def counting(*args, **kwargs):
    lib = maxent._SCIPY_BLAS._lib
    inside.append(lib[0]() if lib else None)
    return real_minimize(*args, **kwargs)

maxent.minimize = counting
fit(obs)
assert maxent._SCIPY_BLAS._lib is not None, "the cap found no OpenBLAS"
assert inside and set(inside) == {1}, inside
"""


def test_first_fit_in_a_scipy_free_process_caps_blas():
    """A fit that makes the process's first scipy import still finds and
    caps scipy's OpenBLAS.  In the test process scipy is loaded already,
    so only a fresh interpreter shows this."""
    import os
    import subprocess
    import sys

    import scipy.optimize  # noqa: F401  (the lookup finds only a loaded library)

    import maxent_tomo
    from maxent_tomo import maxent

    if maxent._scipy_openblas() is None:
        pytest.skip("scipy does not use its bundled OpenBLAS here")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maxent_tomo.__file__))
    proc = subprocess.run([sys.executable, "-c", FIRST_SCIPY_FIT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_concurrent_fits_share_one_cap():
    """Threads entering and leaving the cap at random: every one sees one
    thread inside, and the count found first is the count left at the end."""
    import sys
    import threading
    import time

    from maxent_tomo import maxent

    blas = {"threads": 4}
    cap = maxent._OneBlasThread(
        lambda: (lambda: blas["threads"], lambda n: blas.update(threads=n)))
    seen = []

    def worker():
        for _ in range(200):
            with cap:
                time.sleep(0)  # hand the interpreter to another thread inside the cap
                seen.append(blas["threads"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert blas["threads"] == 4


FIT_DIM8 = """
import sys
import numpy as np
from conftest import TAUS, make_trap, rotations
from maxent_tomo import (FockSpace, NoiseSpec, add_noise, build_observation_level,
                         default_bin_grid, fit, simulate_ideal, superposition)
trap, space = make_trap(), FockSpace(8)
grid = default_bin_grid(trap, nbar=0.5, half_count=10)
obs = build_observation_level(trap, grid, rotations(trap, TAUS), 0.5, space)
rec = add_noise(simulate_ideal(superposition(space, [1.0, 1.0]), obs), NoiseSpec(0.05, 3))
state, report = fit(obs.with_record(rec))
assert report.converged
np.save(sys.argv[1], state.rho.matrix)
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def test_fitted_rho_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The same noisy dim-8 fit in two processes, one with single-threaded
    BLAS and one at the library defaults: the fitted states agree to 1e-6
    (max abs entry), far above rounding and far below any physical scale."""
    import os
    import subprocess
    import sys

    import maxent_tomo

    src = os.path.dirname(os.path.dirname(maxent_tomo.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join([src, tests, base.get("PYTHONPATH", "")])
    rhos = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"rho{len(rhos)}.npy"
        subprocess.run([sys.executable, "-c", FIT_DIM8, str(out)], env={**base, **extra},
                       check=True, timeout=300)
        rhos.append(np.load(out))
    assert np.max(np.abs(rhos[0] - rhos[1])) < 1e-6
