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
    delta_rho,
    deviation,
    entropy,
    even_cat,
    fidelity,
    fit,
    fock_state,
    number_operator,
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
        operators=[number_operator(space)],
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
        operators=[number_operator(space)],
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
        operators=[number_operator(space)],
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
        operators=[number_operator(space)],
        labels=[("nbar",)],
        means=np.array([1.0]),
    )
    with pytest.raises(ValueError, match=name):
        fit(obs, **kwargs)


def test_fit_stops_at_the_deviation_floor(monkeypatch):
    """With a gradient test that cannot pass and the probe declining (the
    number operator alone obeys no relation, so it would run and end the
    fit), fit's on_iterate stops L-BFGS on the dF floor (1e-14), and the
    fit reports that point as converged, long before the iteration cap."""
    from maxent_tomo import maxent

    space = FockSpace(32)
    obs = ObservableSet(
        operators=[number_operator(space)],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    real_minimize = maxent.minimize
    stops = []

    def spying(fun, x0, *, on_iterate, **kwargs):
        def spy(x, f):
            stop = on_iterate(x, f)
            if stop:
                stops.append(float(f))
            return stop

        return real_minimize(fun, x0, on_iterate=spy, **kwargs)

    monkeypatch.setattr(maxent, "minimize", spying)
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
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


def _dense_jacobian(lam, obs):
    """d<G_mu>/d lambda_nu = <G_mu><G_nu> - sum_ab conj(Gt_mu)_ab phi_ab
    (Gt_nu)_ab / Z over the dense (n_ops, N, N) stack, Gt = V+ G V: the
    full-space formula, without packing and without the span."""
    from maxent_tomo import maxent

    d, v = maxent._spectrum(lam, obs)
    e, q, z, _ = maxent._gibbs(d, v)
    gt = (v.conj().T @ obs.operators @ v).reshape(obs.n_ops, -1)
    unpacked = np.real(gt.conj() * maxent._phi_kernel(e, q).ravel() @ gt.T) / z
    means = obs.expectations(canonical_state(lam, obs).rho.matrix)
    return np.outer(means, means) - unpacked


@pytest.mark.parametrize("level", ["random", "acceptance"])
def test_mean_jacobian_matches_finite_differences_and_the_gradient(level, acceptance_level):
    """The Jacobian of the model means at a non-zero multiplier vector,
    expanded from the span's coordinates as J = C^T J_E C: it matches
    central differences (h = 1e-5) of Tr[rho G_mu], and 2 J^T W r is
    ``deviation``'s gradient to 1e-12 relative."""
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

    c, groups = obs.span()
    model, jac = maxent._mean_jacobian(*maxent._spectrum(lam, obs), obs, groups)
    model, jac = c.T @ model, c.T @ jac @ c  # G = C^T H, so <G> = C^T <H> and J = C^T J_E C
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
    """J_E = m m^T - F^T F from the packed Hermitian features of the span's
    operators equals its own transpose bit for bit, and C^T J_E C equals the
    unpacked <G_mu><G_nu> - sum_ab conj(Gt_mu)_ab phi_ab (Gt_nu)_ab / Z over
    the dense stack, Gt = V+ G V, to 1e-14 relative (measured 1.2e-15 and
    1.9e-17 before the span)."""
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
    c, groups = obs.span()
    _, jac = maxent._mean_jacobian(*maxent._spectrum(lam, obs), obs, groups)
    assert np.array_equal(jac, jac.T)
    reference = _dense_jacobian(lam, obs)
    jac = c.T @ jac @ c
    assert np.max(np.abs(jac - reference)) < 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("weighting", ["unit", "nbar", "random"])
def test_probe_step_in_the_span_moves_the_exponent_as_the_full_space_step(
        weighting, trap, space16):
    """The probe's step C^T y, with (J_E Q J_E + mu I) y = -C g, against the
    full-space step s = -(J W J + mu I)^-1 g, solved densely over all 205
    multipliers with J from the dense stack, at the first damping mu = 1e-6
    max diag(J W J) and at mu / 5^10, with unit weights, the number operator
    weighted 3 and random weights.  C s is the step's action on the
    exponent, sum s G = sum (C s)_a H_a; the full-space s also carries
    -g_null / mu, g_null the rounding of g outside range(C^T), which C
    removes and which moves the exponent only by the rounding of G = C^T H,
    so s itself is not compared.

    The two C s agree to 1e-10 relative at the first damping (measured
    1.5e-12 to 1.8e-11).  At mu / 5^10 the damped matrix's condition number
    kappa = (max eig + mu) / mu is 1e13, and the two solves' rounding may
    differ by kappa eps (measured 1.4e-6 to 1.1e-5, at most 0.08 kappa eps;
    2e-9 at that damping on the probe's own path), so there the bound is
    kappa eps.  The tight check at both dampings is the backward error:
    the reduced step solves the full-space system with a residual within
    1e-13 of |J W J + mu I| |s| (measured at most 5e-15).  diag(C^T N C) is
    diag(J W J), the first damping's scale."""
    from maxent_tomo import maxent

    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16,
                                  weight_nbar=3.0 if weighting == "nbar" else 1.0)
    rng = np.random.default_rng(17)
    if weighting == "random":
        obs = ObservableSet(operators=None, labels=obs.labels, means=obs.means,
                            weights=rng.uniform(0.5, 2.0, obs.n_ops), rotations=obs.rotations,
                            grid=obs.grid, groups=obs.groups)
    obs = obs.with_record(simulate_ideal(superposition(space16, [1.0, 1.0]), obs))
    for lam in (np.zeros(obs.n_ops), rng.uniform(-0.5, 0.5, obs.n_ops)):
        g = 0.5 * deviation(lam, obs)[1]  # J^T W r
        jac = _dense_jacobian(lam, obs)
        full = jac @ (obs.weights[:, None] * jac)  # J W J
        c, groups = obs.span()
        root = np.linalg.cholesky((c * obs.weights) @ c.T)  # Q = C W C^T
        normal = maxent._lm_normal(*maxent._spectrum(lam, obs), obs, groups, root)
        diag = np.sum(c * (normal @ c), axis=0)
        assert np.max(np.abs(diag - np.diag(full))) < 1e-12 * np.max(np.diag(full))
        mu, top = 1e-6 * np.max(np.diag(full)), np.linalg.eigvalsh(full)[-1]
        for damping, tol in ((mu, 1e-10), (mu / 5.0**10, None)):
            system = full + damping * np.eye(obs.n_ops)
            s_full = np.linalg.solve(system, -g)
            s = maxent._lm_step(normal, c, g, damping)
            tol = tol or (top + damping) / damping * np.finfo(float).eps
            assert np.max(np.abs(c @ s - c @ s_full)) < tol * np.max(np.abs(c @ s_full))
            residual = np.max(np.abs(system @ s + g))
            assert residual < 1e-13 * np.max(np.sum(np.abs(system), axis=1)) * np.max(np.abs(s))


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


@pytest.mark.parametrize("seed", [2, 0])
def test_noisy_fits_keep_their_bits_when_the_probe_declines(monkeypatch, acceptance_level, seed):
    """Acceptance-2 noise: seed 2 runs 516 L-BFGS iterations and seed 0
    stops at 115.  The relation bound puts both outside the probe's rule, so
    no probe runs, a probe called directly declines, and the multipliers and
    the report are those of a fit whose probe always declines, bit for bit."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=0.6))
    real_probe, calls = maxent._lm_probe, []

    def counting(*args):
        calls.append(args)
        return real_probe(*args)

    monkeypatch.setattr(maxent, "_lm_probe", counting)
    state, report = fit(obs)
    assert calls == [] and real_probe(obs, 1e-9, 20000, obs.span()) is None
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
    state_off, report_off = fit(obs)
    assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
    assert report.to_dict() == report_off.to_dict()
    assert report.converged and report.message.startswith("relative gradient")


def test_noisy_cat_fits_run_no_probe_and_keep_their_bits(monkeypatch, trap, space16):
    """Acceptance-3 noise seeds 0-9, six of which run past n_ops = 205
    L-BFGS iterations: the relation bound (9e-3 to 2e-2) puts every fit
    outside the probe's rule, so no probe runs.  A probe called directly
    declines on each, and each fit gives the multipliers and report of a
    twin whose probe always declines, bit for bit."""
    from maxent_tomo import maxent

    cat = even_cat(space16, math.sqrt(2.0))
    nbar = float(np.abs(cat.amplitudes) ** 2 @ np.arange(16))
    grid = default_bin_grid(trap, nbar=nbar, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), nbar, space16)
    ideal = simulate_ideal(cat, obs)
    real_probe = maxent._lm_probe
    for seed in range(10):
        noisy = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=seed), nbar_noisy=2.09))
        calls = []
        monkeypatch.setattr(maxent, "_lm_probe",
                            lambda *args: calls.append(args) or real_probe(*args))
        state, report = fit(noisy)
        assert calls == [] and real_probe(noisy, 1e-9, 20000, noisy.span()) is None
        monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
        state_off, report_off = fit(noisy)
        assert np.array_equal(state.lambdas.flat(), state_off.lambdas.flat())
        assert report.to_dict() == report_off.to_dict()
        assert report_off.restarts == 0


def test_nearly_noise_free_fit_declines_an_early_probe_and_says_why_it_stopped(
        monkeypatch, acceptance_level):
    """eta = 1e-3 on the acceptance-1 level (noise seed 0): the relation
    bound times REL_GRAD_TOL lies below grad_tol, so the probe runs before
    L-BFGS, meets the noise floor and declines.  The fit keeps the bits of a twin whose
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
        exact = obs.with_record(ideal)
        answer = maxent._lm_probe(exact, grad_tol, 20000, exact.span())
        assert answer is not None and answer[4].startswith("lm: ")
        assert answer[3] <= 30
    for (obs, ideal), nbar_noisy in ((four_pair, 0.6), (four_cat, 2.09)):
        for seed in range(10):
            noisy = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=seed),
                                              nbar_noisy=nbar_noisy))
            assert maxent._lm_probe(noisy, 1e-9, 20000, noisy.span()) is None


@pytest.fixture(scope="module")
def cat_level(trap, space16):
    """Acceptance 3's level, four rotations of 51 bins, with the exact bin
    means of the even cat alpha = sqrt(2)."""
    cat = even_cat(space16, math.sqrt(2.0))
    nbar = float(np.abs(cat.amplitudes) ** 2 @ np.arange(16))
    grid = default_bin_grid(trap, nbar=nbar, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), nbar, space16)
    return obs, simulate_ideal(cat, obs)


def _bound(obs):
    """The relation bound on the set's own span, as ``fit`` computes it."""
    from maxent_tomo import maxent

    return maxent._relation_bound(obs, obs.span()[0])


def test_relation_bound_certifies_exact_data_only(acceptance_level, cat_level, trap, space16):
    """The bound from the means' linear relations: at rounding level on
    exact data, above the deviation floor once noise of 1e-6 breaks the
    relations, and at rounding level whatever the means on levels with no
    relation (the number operator alone; 11 bins per rotation, fewer than
    the 31 dimensions one rotation spans at dimension 16), where it bounds
    nothing and the probe must run."""
    from maxent_tomo import maxent

    for obs, ideal in (acceptance_level, cat_level):
        assert _bound(obs.with_record(ideal)) < 1e-20
        noisy = add_noise(ideal, NoiseSpec(eta=1e-6, seed=0))
        assert _bound(obs.with_record(noisy)) > maxent.CONVERGED_DF
    number = ObservableSet(operators=[number_operator(space16)], labels=[("nbar",)],
                           means=np.array([0.5]))
    assert _bound(number) < 1e-20
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    small = build_observation_level(trap, grid, (0.0, 0.9), 0.5, space16)
    ideal = simulate_ideal(superposition(space16, [1.0, 1.0]), small)
    assert _bound(small.with_record(ideal)) < 1e-20
    noisy = add_noise(ideal, NoiseSpec(eta=0.1, seed=0))
    assert _bound(small.with_record(noisy)) < 1e-20


def test_exact_fit_on_a_level_with_no_relation_ends_in_the_first_probe(monkeypatch, trap,
                                                                        space16):
    """|0> + |1> on four rotations of 11 bins, fewer than one rotation spans:
    the means bound nothing, so the probe runs first and ends the fit at
    the floor after 37 steps, with L-BFGS never started (a fit that probed
    after 45 L-BFGS iterations took 82; one that never probed stopped on
    the gradient test after 190, delta rho 5e-5)."""
    from maxent_tomo import maxent

    pair = superposition(space16, [1.0, 1.0])
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16)
    obs = obs.with_record(simulate_ideal(pair, obs))
    monkeypatch.setattr(maxent, "minimize", None)  # L-BFGS would raise
    state, report = fit(obs)
    assert report.converged and report.message.startswith("lm: deviation floor")
    assert report.iterations <= 40
    assert delta_rho(pair.density(), state.rho) < 1e-7


def test_relation_bound_is_the_weighted_distance_to_the_consistent_means():
    """An array-like complex Hermitian set (A, B, A + B) with means that
    break the one relation by delta and weights (2, 0.5, 3): the bound is
    min(w) times the squared distance of the means to the range of the
    operators as real rows, here 0.5 delta^2 / 3, as a dense least-squares
    projection gives it."""
    from maxent_tomo import maxent

    rng = np.random.default_rng(3)
    a, b = _random_obs(rng, 5, 2, with_means=False).operators
    ops = np.array([a, b, a + b])
    means = np.array([0.3, -0.2, 0.1 + 1e-3])
    obs = ObservableSet(operators=ops, labels=[("op", i) for i in range(3)], means=means,
                        weights=np.array([2.0, 0.5, 3.0]))
    rows = ops.reshape(3, -1).view(np.float64)  # Re and Im interleaved
    fitted = rows @ np.linalg.lstsq(rows, means, rcond=None)[0]
    dense = 0.5 * np.sum((means - fitted) ** 2)
    bound = _bound(obs)
    assert bound == pytest.approx(dense, rel=1e-9)
    assert bound == pytest.approx(0.5 * 1e-6 / 3.0, rel=1e-9)


def _cat48_level(n_rotations):
    """The even cat alpha = 2.5 at dimension 48 with the benchmark's 10 um
    cloud: ``n_rotations`` rotations spread over pi, 101 bins each, where
    the Gram rule of ``span`` keeps 91 of the 2N - 1 = 95 directions a
    rotation's bins may span; and its exact record."""
    trap, space = make_trap(cloud_rms=10e-6), FockSpace(48)
    cat = even_cat(space, 2.5)
    nbar = float(np.abs(cat.amplitudes) ** 2 @ np.arange(48))
    grid = default_bin_grid(trap, nbar=nbar, half_count=50)
    thetas = [math.pi * j / n_rotations for j in range(n_rotations)]
    obs = build_observation_level(trap, grid, thetas, nbar, space)
    return obs, cat, simulate_ideal(cat, obs)


def test_relation_bound_projects_on_the_rows_of_the_span():
    """One rank rule decides which directions a rotation's bins measure: on
    two rotations at dimension 48, where the rules of an SVD and of the
    Gram matrix keep different ranks (95 and 91), the bound on noisy means
    is min(w) |g - C^T C g|^2 for the C of ``span``, to 1e-12 relative."""
    from maxent_tomo import maxent

    obs, _, ideal = _cat48_level(2)
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.05, seed=7)))
    c, groups = obs.span()
    g = obs.means
    projected = np.min(obs.weights) * np.sum((g - c.T @ (c @ g)) ** 2)
    assert projected > maxent.CONVERGED_DF
    assert _bound(obs) == pytest.approx(projected, rel=1e-12)
    assert len(groups[0][1]) < 2 * obs.dim - 1


def test_exact_fit_at_dimension_48_ends_in_the_probe():
    """Exact means of four rotations at dimension 48, where the span keeps
    fewer directions per rotation than 2N - 1: the bound still certifies
    them, and the probe ends the fit at the deviation floor within 30
    steps (24 measured), delta rho below 1e-10 (2e-14 measured)."""
    obs, cat, ideal = _cat48_level(4)
    state, report = fit(obs.with_record(ideal), grad_tol=1e-13)
    assert report.message == "lm: deviation floor: dF < 1e-14"
    assert report.iterations <= 30
    assert delta_rho(cat.density(), state.rho) < 1e-10


def test_exact_fits_skip_l_bfgs_and_keep_the_probe_answer(monkeypatch, acceptance_level,
                                                         cat_level):
    """Acceptance 1 and acceptance 3's ideal cat at grad_tol 1e-13, and the
    eight 1-ulp draws of acceptance 1's means: the bound certifies each, so
    the fit runs the probe first and never enters L-BFGS.  Multipliers, rho,
    dF, gradient, message and iterations are those of the probe called
    alone, bit for bit."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    cat_obs, cat_ideal = cat_level
    cases = [obs.with_record(ideal), cat_obs.with_record(cat_ideal)]
    rng = np.random.default_rng(0)
    for _ in range(8):
        up = rng.random(obs.n_ops) < 0.5
        cases.append(obs.with_means(np.nextafter(obs.with_record(ideal).means,
                                                 np.where(up, np.inf, -np.inf))))
    real_probe = maxent._lm_probe
    for case in cases:
        answers = []
        monkeypatch.setattr(maxent, "_lm_probe",
                            lambda *args: answers.append(real_probe(*args)) or answers[-1])
        monkeypatch.setattr(maxent, "minimize", None)  # L-BFGS would raise
        state, report = fit(case, grad_tol=1e-13)
        monkeypatch.undo()
        assert len(answers) == 1
        x, f, grad, steps, message = real_probe(case, 1e-13, 20000, case.span())
        assert report.iterations == steps <= 30
        assert np.array_equal(state.lambdas.flat(), x)
        assert np.array_equal(state.rho.matrix, canonical_state(x, case).rho.matrix)
        assert report.message.startswith("lm: ") and report.message == message
        assert report.delta_f == f and report.grad_inf_norm == np.max(np.abs(grad))


def test_nearly_exact_fits_end_in_the_first_probe(monkeypatch, acceptance_level):
    """Acceptance-1 data at eta 1e-6, noise seeds 0-2, at the default
    grad_tol: the relation bound (1.3e-12 to 1.5e-12) sits above the floor, but
    REL_GRAD_TOL times it lies below grad_tol, so the probe runs first and
    ends each fit on the gradient test within 30 steps (21-26; a fit that
    probes only after 60 L-BFGS iterations takes 81-86).  L-BFGS never
    starts, and the multipliers are the probe's alone."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    real_probe = maxent._lm_probe
    for seed in range(3):
        case = obs.with_record(add_noise(ideal, NoiseSpec(eta=1e-6, seed=seed)))
        monkeypatch.setattr(maxent, "minimize", None)  # L-BFGS would raise
        state, report = fit(case)
        monkeypatch.undo()
        assert report.converged and report.message == "lm: gradient: |grad dF|inf < 1e-09"
        assert report.iterations <= 30
        assert np.array_equal(state.lambdas.flat(), real_probe(case, 1e-9, 20000, case.span())[0])


def test_exact_fits_at_the_default_tolerance_reach_the_state(trap, space16, cat_level):
    """Exact data at the default grad_tol 1e-9 that L-BFGS-B's own gradient
    test used to stop before any probe trigger: |3> at three rotations
    (delta rho 8.7e-2 then) and acceptance 3's even cat at four (1.1e-3).
    Certified by the bound, both now end in the probe, at delta rho below
    1e-8."""
    three = fock_state(space16, 3)
    grid = default_bin_grid(trap, nbar=3.0, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap)[:3], 3.0, space16)
    cat_obs, cat_ideal = cat_level
    cat = even_cat(space16, math.sqrt(2.0))
    for level, truth in ((obs.with_record(simulate_ideal(three, obs)), three),
                         (cat_obs.with_record(cat_ideal), cat)):
        state, report = fit(level)
        assert report.converged and report.message.startswith("lm: ")
        assert delta_rho(truth.density(), state.rho) < 1e-8


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
    given and returns the scripted (x, f, jac) as the run's end, after one
    iteration.  The probe declines, so every fit reaches the minimizer."""
    from maxent_tomo import maxent

    seen = []

    def fake(fun, x0, **kwargs):
        seen.append(fun)
        return np.array(x), f, np.array(jac), 1

    monkeypatch.setattr(maxent, "minimize", fake)
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
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
    fun, = seen
    for x in (np.zeros(4), rng.standard_normal(4), np.ravel(state.lambdas)):
        f_obj, g_obj = fun(x)
        f_ref, g_ref = deviation(x, obs)
        assert f_obj == f_ref
        assert np.array_equal(g_obj, g_ref)


def test_unconverged_fit_reports_its_one_run(monkeypatch):
    """fit calls the minimizer once and reports that run as it ended: its
    multipliers, dF and gradient norm, with no restart.  A run that ends
    past none of fit's stops and short of the gradient test is a stall."""
    from maxent_tomo import maxent

    space = FockSpace(8)
    obs = ObservableSet(
        operators=[number_operator(space)],
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
    assert report.iterations == 1 and report.message == maxent.STALL_STOP
    assert np.array_equal(np.ravel(state.lambdas), [1.0])


def _stand_in_minimize(per_iterate, nit):
    """A minimizer that keeps ``minimize``'s contract without L-BFGS-B: it
    stays at x = [1], evaluates ``fun`` there once and then ``per_iterate``
    times for each of ``nit`` iterates, and ends after them or once
    ``on_iterate`` returns True."""
    def run(fun, x0, *, on_iterate, **options):
        x, it = np.array([1.0]), 0
        f, g = fun(x)
        while it < nit:
            for _ in range(per_iterate):
                f, g = fun(x)
            it += 1
            if on_iterate(x, f):
                break
        return x, f, g, it

    return run


@pytest.mark.parametrize("per_iterate, nit, message", [
    (1, 10, "iteration cap: 10 iterations"),
    (29, 2, "evaluation cap: 30 evaluations"),  # 30 at iterate 1 are not over it, 59 are
    (0, 4, "stalled line search: no lower dF along the search direction"),
    (2, 4, "stalled line search: no lower dF along the search direction"),
])
def test_unconverged_attempts_name_their_stop_in_the_package_words(monkeypatch, per_iterate, nit,
                                                                    message):
    """fit's own on_iterate decides the caps: the iteration cap at iterate
    max_iter and the evaluation cap once more than 3 max_iter evaluations
    were made; a run that ends past neither, short of the gradient test, is
    a stall.  Each stop is named in the package's words.  The probe
    declines, so the stand-in runs."""
    from maxent_tomo import maxent

    obs = ObservableSet(operators=[number_operator(FockSpace(8))], labels=[("nbar",)],
                        means=np.array([0.5]))
    monkeypatch.setattr(maxent, "minimize", _stand_in_minimize(per_iterate, nit))
    monkeypatch.setattr(maxent, "_lm_probe", lambda *args: None)
    _, report = fit(obs, max_iter=10, grad_tol=1e-9)
    assert not report.converged and report.message == message
    assert report.iterations == nit


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


def test_gradient_test_at_the_tie_converges_as_l_bfgs_b_stops(acceptance_level):
    """grad_tol equal to |grad dF(0)|inf on the exact acceptance-1 data:
    L-BFGS-B ends at lambda = 0 on its own test, |grad dF|inf <= grad_tol,
    and the fit reports that stop, converged, not a stall."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(ideal)
    grad_tol = float(np.max(np.abs(deviation(np.zeros(obs.n_ops), obs)[1])))
    assert 297.0 < grad_tol < 298.0
    state, report = fit(obs, grad_tol=grad_tol)
    assert report.converged and report.iterations == 0
    assert report.message == maxent.GRADIENT_STOP.format(grad_tol)
    assert report.grad_inf_norm == grad_tol
    assert not np.any(state.lambdas.flat())


def test_stop_names_the_first_test_passed_floor_relative_gradient():
    """The one stop rule, in its order: where dF keeps a noisy floor near
    1e-3, the relative bound is near the default grad_tol, and a point that
    passes both is named by the relative test."""
    from maxent_tomo import maxent

    assert maxent._stop(1e-15, np.array([1.0]), 1e-9) == maxent.FLOOR_STOP
    assert maxent._stop(1e-3, np.array([-5e-10]), 1e-9) == maxent.RELATIVE_STOP
    assert maxent._stop(1.0, np.array([1e-6]), 1e-9) == maxent.RELATIVE_STOP
    assert maxent._stop(1e-3, np.array([2e-9, -3e-9]), 3e-9) == maxent.GRADIENT_STOP.format(3e-9)
    assert maxent._stop(1e-3, np.array([2e-9, -3e-9]), 2e-9) is None


REFERENCE_FITS = [
    # (eta, noise seed, nbar_noisy, fit options, message); eta 0 is the exact record
    (0.0, None, None, {"grad_tol": 1e-13}, "lm: deviation floor: dF < 1e-14"),
    *((0.1, seed, 0.6, {}, "relative gradient: |grad dF|inf <= 1e-06 dF") for seed in range(10)),
    (0.02, 6, 0.6, {}, "stalled line search: no lower dF along the search direction"),
    (0.1, 7, 0.5, {"max_iter": 5}, "iteration cap: 5 iterations"),
    (0.02, 3, 0.6, {}, "relative gradient: |grad dF|inf <= 1e-06 dF"),
]


@pytest.mark.parametrize("eta, seed, nbar_noisy, options, message", REFERENCE_FITS)
def test_converged_exactly_when_the_message_names_a_convergence_test(
        acceptance_level, eta, seed, nbar_noisy, options, message):
    """Acceptance 1 exact, acceptance-2 noise seeds 0-9, the eta 0.02 stall,
    the iteration cap and the 4319-iteration eta 0.02 fit: each names its
    stop, and it is converged exactly when that name, less the probe's
    ``lm: ``, is one of the three convergence tests."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    if eta:
        ideal = add_noise(ideal, NoiseSpec(eta=eta, seed=seed), nbar_noisy=nbar_noisy)
    _, report = fit(obs.with_record(ideal), **options)
    assert report.message == message
    tests = (maxent.FLOOR_STOP, maxent.RELATIVE_STOP,
             maxent.GRADIENT_STOP.format(options.get("grad_tol", 1e-9)))
    assert report.converged == (report.message.removeprefix("lm: ") in tests)


def _through_scipy(statuses):
    """``minimize``'s contract met by scipy.optimize.minimize(method=
    "L-BFGS-B", jac=True) at ftol = 0, whose own caps never fire:
    on_iterate returning True makes the callback raise StopIteration,
    scipy's halt.  Each run appends scipy's status (0 its own end, 99 the
    halt) to ``statuses``."""
    import scipy.optimize

    def run(fun, x0, *, on_iterate, **options):
        def callback(intermediate_result):
            if on_iterate(intermediate_result.x, intermediate_result.fun):
                raise StopIteration

        res = scipy.optimize.minimize(
            fun, x0, jac=True, method="L-BFGS-B", callback=callback,
            options={**options, "ftol": 0.0, "maxiter": 2**31 - 1, "maxfun": 2**31 - 1})
        statuses.append(res.status)
        return res.x, res.fun, res.jac, res.nit

    return run


def _counting(minimizer, evaluations):
    """``minimizer`` with each call's number of evaluations appended to
    ``evaluations``."""
    def run(fun, x0, **kwargs):
        evaluations.append(0)

        def counted(x):
            evaluations[-1] += 1
            return fun(x)

        return minimizer(counted, x0, **kwargs)

    return run


def _assert_same_run(ours, theirs):
    assert np.array_equal(ours[0], theirs[0])
    assert ours[1] == theirs[1]
    assert np.array_equal(ours[2], theirs[2])
    assert ours[3] == theirs[3]


@pytest.mark.parametrize("eta, seed, max_iter, nit, status", [
    (0.1, 2, 20000, 516, 99),  # acceptance 2, noise seed 2: halted on the relative gradient
    (0.02, 6, 20000, 207, 0),  # the stall of demos/noisy_reconstruction.py
    (0.1, 7, 5, 5, 99),  # fit's iteration cap
])
def test_minimize_runs_as_scipy_minimize(monkeypatch, acceptance_level, eta, seed, max_iter,
                                       nit, status):
    """fit's L-BFGS-B run through the package's setulb loop and through
    scipy.optimize.minimize(method="L-BFGS-B", jac=True), each under a
    fresh fit's on_iterate: the same x, dF, gradient, iterations,
    evaluations and report, bit for bit."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=eta, seed=seed), nbar_noisy=0.6))
    runs, reports, evaluations, statuses = [], [], [], []
    for minimizer in (maxent.minimize, _through_scipy(statuses)):
        def recording(*args, minimizer=_counting(minimizer, evaluations), **kwargs):
            runs.append(minimizer(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(maxent, "minimize", recording)
        reports.append(fit(obs, max_iter=max_iter)[1].to_dict())
    _assert_same_run(*runs)
    assert evaluations[0] == evaluations[1] and reports[0] == reports[1]
    assert runs[0][3] == nit and statuses == [status]


def test_minimize_halts_on_a_callback_stop_iteration_as_scipy_does(acceptance_level):
    """on_iterate returning True at iteration 7 ends the package's run
    where a callback raising StopIteration ends scipy's, after the same
    iterates and evaluations."""
    from maxent_tomo import maxent

    obs, ideal = acceptance_level
    obs = obs.with_record(add_noise(ideal, NoiseSpec(eta=0.1, seed=2), nbar_noisy=0.6))
    runs, seen, evaluations, statuses = [], [], [], []
    for minimizer in (maxent.minimize, _through_scipy(statuses)):
        seen.append([])

        def on_iterate(x, f):
            seen[-1].append(f)
            return len(seen[-1]) == 7

        runs.append(_counting(minimizer, evaluations)(
            lambda x: deviation(x, obs), np.zeros(obs.n_ops), on_iterate=on_iterate,
            maxcor=30, gtol=1e-9, maxls=60))
    _assert_same_run(*runs)
    assert runs[0][3] == 7 and statuses == [99]
    assert seen[0] == seen[1] and evaluations[0] == evaluations[1]


def test_an_older_scipy_is_refused_naming_the_floor(monkeypatch):
    """scipy before 1.15 wraps the Fortran L-BFGS-B, whose setulb takes a
    character task, iprint and csave: the loader, handed such a module,
    refuses it with an ImportError naming the floor pyproject.toml
    declares, instead of a setulb call failing on its arguments."""
    import importlib.machinery
    import importlib.util
    import os
    import types

    import maxent_tomo
    from maxent_tomo import maxent

    def setulb():
        """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave,maxls,[n])"""

    stand_in = types.ModuleType("_lbfgsb")
    stand_in.setulb = setulb
    load = maxent._optimize_extension.__wrapped__  # past the cache of loaded modules
    assert load("_lbfgsb").setulb.__doc__.startswith(maxent.SETULB)
    monkeypatch.setattr(importlib.util, "module_from_spec", lambda spec: stand_in)
    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module",
                        lambda self, module: None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        load("_lbfgsb")
    root = os.path.dirname(os.path.dirname(os.path.dirname(maxent_tomo.__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        assert f'"{maxent.SCIPY_FLOOR}"' in fh.read()


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
import json, os, sys, threading, time
import numpy as np
from maxent_tomo import (FockSpace, TrapConfig, build_observation_level, default_bin_grid,
                         even_cat, fit, maxent, simulate_ideal, superposition)

def tasks():  # the threads of this process, where the system lists them
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0

n_threads, cat = int(sys.argv[1]), sys.argv[2] == "cat"
assert "scipy" not in sys.modules
environ, counts = dict(os.environ), [tasks()]
trap = TrapConfig(omega_z=2 * np.pi * 80e3, dz0=22e-9, dv0=11e-3, cloud_rms=60e-6,
                  be_time=8.7e-3)
space = FockSpace(8)
obs = build_observation_level(trap, default_bin_grid(trap, nbar=0.5, half_count=5),
                              (0.0, 0.9), 0.5, space)
state = even_cat(space, 0.7) if cat else superposition(space, [1.0, 1.0])
obs = obs.with_record(simulate_ideal(state, obs))
assert ("scipy.special" in sys.modules) == cat
counts.append(tasks())
real_minimize, inside, fitted = maxent.minimize, [], []

def counting(*args, **kwargs):
    inside.append(maxent._SCIPY_BLAS._locate()[0]())
    return real_minimize(*args, **kwargs)

maxent.minimize = counting
threads = [threading.Thread(target=lambda: fitted.append(fit(obs)))
           for _ in range(n_threads)]
for t in threads:
    t.start()
for t in threads:
    t.join()
# join returns as a thread ends its Python code, before the system drops its
# task; a BLAS worker never ends, so waiting still fails on one
deadline = time.monotonic() + 5.0
while tasks() > counts[0] and time.monotonic() < deadline:
    time.sleep(0.01)
counts.append(tasks())
lib = maxent._SCIPY_BLAS._locate()
assert lib is not None, "the cap found no OpenBLAS"
assert len(fitted) == n_threads, "a fit raised"
assert inside and set(inside) == {1}, inside
assert dict(os.environ) == environ, "the environment changed"
assert "scipy" in sys.modules and "scipy.optimize" not in sys.modules
print(json.dumps({"threads": lib[0](), "tasks": counts}))
"""

OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _first_fit(threads=1, state="superposition", **preset):
    """Run FIRST_SCIPY_FIT in a fresh interpreter, with none of the thread
    variables OpenBLAS reads set but ``preset``: scipy's OpenBLAS thread
    count after the fits and the process's thread counts before the
    simulation, after it and after the fits."""
    import os
    import subprocess
    import sys

    import maxent_tomo
    from maxent_tomo import maxent

    if maxent._scipy_openblas() is None:
        pytest.skip("scipy does not use its bundled OpenBLAS here")
    env = {k: v for k, v in os.environ.items() if k not in OPENBLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(maxent_tomo.__file__)))
    proc = subprocess.run([sys.executable, "-c", FIRST_SCIPY_FIT, str(threads), state],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_first_fit_in_a_scipy_free_process_caps_blas():
    """A fit that makes the process's first scipy import still finds and
    caps scipy's OpenBLAS, which it loads with L-BFGS-B while scipy.optimize
    stays unloaded.  The library starts at one thread: its count is 1 inside
    the fit and after it, the fit leaves no worker thread behind, and the
    environment is as it was.  In the test process scipy is loaded already,
    so only a fresh interpreter shows this."""
    seen = _first_fit()
    assert seen["threads"] == 1
    assert max(seen["tasks"]) <= seen["tasks"][0]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_set_in_the_environment_wins(var):
    """With 3 threads asked for, scipy's OpenBLAS keeps that count outside
    the fit (OpenBLAS caps it at the processors it may run on) and runs the
    fit at 1."""
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _first_fit(**{var: "3"})["threads"] == min(3, cpus)


def test_concurrent_first_fits_leave_the_environment_as_found():
    """Four threads making the process's first fits at once: each runs at
    one BLAS thread, and the thread variable set for the load is gone."""
    seen = _first_fit(threads=4)
    assert seen["threads"] == 1
    assert max(seen["tasks"]) <= seen["tasks"][0]


def test_a_cat_simulation_starts_no_scipy_worker():
    """even_cat's gammaln is the process's first load of scipy's OpenBLAS;
    it starts at one thread, so neither the simulation nor the fit after it
    adds a thread."""
    seen = _first_fit(state="cat")
    assert seen["threads"] == 1
    assert max(seen["tasks"]) <= seen["tasks"][0]


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
