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
    ObservableSet,
    build_observation_level,
    canonical_state,
    default_bin_grid,
    deviation,
    entropy,
    fit,
    hermitian_expm,
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
    a = np.tensordot(flat, obs.operators, axes=(0, 0))
    raw = hermitian_expm(a, sign=-1)
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
    state = canonical_state(np.zeros(obs.n_ops), obs)
    with pytest.raises(MissingMeans):
        deviation(state, obs)
    with pytest.raises(MissingMeans):
        fit(obs)


def test_deviation_vanishes_on_self_consistent_means():
    rng = np.random.default_rng(9)
    obs = _random_obs(rng, 5, 3, with_means=False)
    lam = rng.uniform(-1.0, 1.0, 3)
    state = canonical_state(lam, obs)
    model = np.real([np.trace(state.rho.matrix @ op) for op in obs.operators])
    matched = obs.with_means(model)
    f, grad = deviation(state, matched)
    assert f < 1e-25
    assert np.max(np.abs(grad)) < 1e-12


def test_deviation_weights_scale_terms():
    rng = np.random.default_rng(21)
    obs = _random_obs(rng, 4, 2)
    state = canonical_state(np.zeros(2), obs)
    base = deviation(state, obs)[0]
    doubled = ObservableSet(
        operators=obs.operators, labels=obs.labels, means=obs.means,
        weights=np.full(2, 2.0),
    )
    assert deviation(state, doubled)[0] == pytest.approx(2.0 * base, rel=1e-12)


def test_gradient_matches_finite_differences():
    """Central differences with h = 1e-5 on random small problems."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        n_ops = int(rng.integers(1, 5))
        obs = _random_obs(rng, dim, n_ops)
        lam = rng.uniform(-1.5, 1.5, n_ops)
        state = canonical_state(lam, obs)
        grad = deviation(state, obs)[1]
        h = 1e-5
        for i in range(n_ops):
            lp, lm = lam.copy(), lam.copy()
            lp[i] += h
            lm[i] -= h
            fd = (deviation(canonical_state(lp, obs), obs)[0]
                  - deviation(canonical_state(lm, obs), obs)[0]) / (2.0 * h)
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
    assert len(report.history) >= report.iterations


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


def test_fit_history_converges_monotonically(trap, space16):
    grid = default_bin_grid(trap, nbar=0.5, half_count=5)
    obs = build_observation_level(trap, grid, (0.0, 0.9), 0.5, space16)
    rec = simulate_ideal(superposition(space16, [1.0, 1.0]), obs)
    state, report = fit(obs.with_record(rec))
    hist = np.asarray(report.history)
    assert hist.size > 2
    # accepted L-BFGS iterates never increase the deviation (small slack
    # for the final noise floor)
    assert np.all(np.diff(hist) < 1e-12)
    assert hist[-1] < 1e-6


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
    assert "history" not in back


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


def _scripted_minimize(monkeypatch, attempts):
    """Replace the fit's minimizer: each call records the objective it was
    given and returns the next scripted (x, f, grad) as the attempt's end."""
    from scipy.optimize import OptimizeResult

    from maxent_tomo import maxent

    seen = []

    def fake(fun, x0, **kwargs):
        seen.append(fun)
        x, f, jac = attempts[len(seen) - 1]
        return OptimizeResult(x=np.array(x), fun=f, jac=np.array(jac), nit=1,
                              message=f"scripted attempt {len(seen) - 1}")

    monkeypatch.setattr(maxent, "minimize", fake)
    return seen


def test_fit_minimizes_the_deviation_it_reports(monkeypatch):
    """The objective handed to the minimizer and deviation of the canonical
    state are one evaluation: the (dF, gradient) pairs are equal bit for
    bit."""
    rng = np.random.default_rng(77)
    obs = _random_obs(rng, 7, 4)
    seen = _scripted_minimize(monkeypatch, [(np.zeros(4), 1.0, np.zeros(4))])
    fit(obs)
    for _ in range(5):
        lam = rng.uniform(-2.0, 2.0, 4)
        f, grad = seen[0](lam)
        reported_f, reported_grad = deviation(canonical_state(lam, obs), obs)
        assert reported_f == f
        assert np.array_equal(reported_grad, grad)


def test_converged_restart_wins_over_a_lower_unconverged_attempt(monkeypatch):
    """A stalled first attempt at the lower deviation must not mask the
    restart that met the gradient test."""
    space = FockSpace(8)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    _scripted_minimize(monkeypatch, [
        ([1.0], 1e-6, [1e-3]),  # lower deviation, gradient test failed
        ([1.1], 2e-6, [1e-12]),  # converged
    ])
    state, report = fit(obs, grad_tol=1e-9)
    assert report.converged
    assert report.delta_f == 2e-6
    assert report.grad_inf_norm == 1e-12
    assert report.restarts == 1
    assert np.array_equal(np.ravel(state.lambdas), [1.1])


def test_unconverged_report_describes_the_best_attempt_only(monkeypatch):
    """When every attempt fails, the message and the numbers come from the
    attempt with the lowest deviation, not from the last one."""
    space = FockSpace(8)
    obs = ObservableSet(
        operators=[ladder_operators(space).n],
        labels=[("nbar",)],
        means=np.array([0.5]),
    )
    _scripted_minimize(monkeypatch, [
        ([1.0], 1e-6, [1e-3]),  # lowest deviation
        ([1.1], 2e-6, [2e-3]),
        ([1.2], 3e-6, [3e-3]),
        ([1.3], 4e-6, [4e-3]),
    ])
    _, report = fit(obs, grad_tol=1e-9)
    assert not report.converged
    assert report.restarts == 3
    assert report.delta_f == 1e-6
    assert report.grad_inf_norm == 1e-3
    assert report.message == "scripted attempt 0"


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
