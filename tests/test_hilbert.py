"""Fock-space plumbing: operators, state factories, evolution, metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_hermite, gammaln

from maxent_tomo import (
    DensityOperator,
    FockSpace,
    TruncationError,
    delta_rho,
    entropy,
    even_cat,
    expectation,
    fidelity,
    fock_state,
    hermite_functions,
    number_operator,
    read_density_matrix,
    superposition,
    thermal_state,
    wigner_eval,
    write_density_matrix,
)

from conftest import harmonic_evolve, quadratures

LN3 = 1.0986122886681098
PI_QUARTER = 0.7511255444649425  # pi**-0.25


# ---------------------------------------------------------------------------
# spaces and wrappers


def test_fock_space_rejects_degenerate_dims():
    for bad in (0, 1, -3):
        with pytest.raises(ValueError):
            FockSpace(bad)
    assert FockSpace(2).dim == 2


@pytest.mark.parametrize("bad", [
    2.5, "16", True,
    2**53 + 1, 10**400,  # a Python int past the float range
    math.inf, math.nan,  # int() of either raises its own error
], ids=["fraction", "string", "bool", "2**53+1", "10**400", "inf", "nan"])
def test_fock_space_refuses_a_dim_outside_2_to_2_53_naming_it(bad):
    with pytest.raises(ValueError, match=r"dim must be an integer from 2 to 2\*\*53"):
        FockSpace(bad)


def test_fock_space_takes_every_dim_up_to_2_53_as_an_int():
    from maxent_tomo.hilbert import MAX_COUNT

    assert MAX_COUNT == 2**53 and FockSpace(MAX_COUNT).dim == 2**53
    assert type(FockSpace(16.0).dim) is int and type(FockSpace(np.int64(16)).dim) is int


def test_density_operator_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityOperator(good)
    with pytest.raises(ValueError):  # not hermitian
        DensityOperator(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):  # trace 2
        DensityOperator(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):  # negative eigenvalue
        DensityOperator(np.diag([1.5, -0.5]).astype(complex))


# ---------------------------------------------------------------------------
# oscillator algebra


def test_number_operator_matrix_elements():
    """Real float64, exactly diag(0..dim-1), and (z^2 + p^2 - 1)/2 on the
    block the truncation leaves alone."""
    dim = 6
    n = number_operator(FockSpace(dim))
    assert n.dtype == np.float64
    assert np.array_equal(n, np.diag(np.arange(dim, dtype=np.float64)))
    z, p = quadratures(dim)
    interior = ((z @ z + p @ p - np.eye(dim)) / 2.0)[: dim - 1, : dim - 1]
    assert np.max(np.abs(interior - n[: dim - 1, : dim - 1])) < 1e-14


def test_commutator_is_canonical_on_interior_block():
    dim = 9
    z, p = quadratures(dim)
    comm = z @ p - p @ z
    interior = comm[: dim - 1, : dim - 1]
    assert np.max(np.abs(interior - 1j * np.eye(dim - 1))) < 1e-13
    # the commutator is traceless, so the corner absorbs -(dim-1) i
    assert comm[dim - 1, dim - 1] == pytest.approx(1j * (1.0 - dim))


def test_vacuum_quadrature_variances():
    space = FockSpace(8)
    vac = fock_state(space, 0)
    z, p = quadratures(space.dim)
    assert expectation(vac, z @ z) == pytest.approx(0.5, abs=1e-14)
    assert expectation(vac, p @ p) == pytest.approx(0.5, abs=1e-14)
    assert expectation(vac, z) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# state factories


def test_fock_state_bounds():
    space = FockSpace(4)
    assert fock_state(space, 3).populations()[3] == 1.0
    with pytest.raises(TruncationError):
        fock_state(space, 4)


def test_superposition_normalizes_and_guards_truncation():
    space = FockSpace(16)
    psi = superposition(space, [1.0, 1.0])
    assert expectation(psi, number_operator(space)) == pytest.approx(0.5)

    # a tiny tail beyond the cutoff is dropped and renormalized
    long_coeffs = np.zeros(20)
    long_coeffs[0] = 1.0
    long_coeffs[19] = 1e-5
    psi2 = superposition(space, long_coeffs)
    assert abs(np.trace(psi2.matrix) - 1.0) < 1e-14

    # a fat tail is an error, not a silent projection
    long_coeffs[19] = 0.1
    with pytest.raises(TruncationError):
        superposition(space, long_coeffs)

    with pytest.raises(ValueError):
        superposition(space, [0.0, 0.0])


@pytest.mark.parametrize("coeffs, populations", [
    ([1e200, 1.0], [1.0, 0.0]),
    ([1e-200, 1e-200], [0.5, 0.5]),
], ids=["1e200-and-1", "1e-200-twice"])
def test_superposition_takes_finite_extreme_coefficients(coeffs, populations):
    """Squared unscaled, 1e200 overflowed and 1e-200 underflowed, and both
    were refused as a total weight of inf or 0."""
    psi = superposition(FockSpace(4), coeffs)
    assert np.allclose(psi.populations(), populations + [0.0, 0.0], rtol=0.0, atol=1e-15)


def test_even_cat_populations_and_energy():
    space = FockSpace(16)
    alpha = math.sqrt(2.0)
    cat = even_cat(space, alpha)
    pops = cat.populations()
    assert np.all(pops[1::2] == 0.0)
    # <n> = alpha^2 tanh(alpha^2) for the untruncated state
    nbar = expectation(cat, number_operator(space))
    assert nbar == pytest.approx(2.0 * math.tanh(2.0), abs=1e-6)
    with pytest.raises(TruncationError):
        even_cat(FockSpace(8), 2.5)


OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, *OPENBLAS_THREAD_VARS])
def test_concurrent_scipy_loads_see_one_thread_and_restore_the_environment(monkeypatch, preset):
    """Threads entering and leaving ``_one_thread_load`` at random: inside,
    OpenBLAS reads one thread, or the count set beforehand in any variable it
    reads; afterwards the environment is as it was."""
    import os
    import sys
    import threading
    import time

    from maxent_tomo.hilbert import _one_thread_load

    for var in OPENBLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if preset:
        monkeypatch.setenv(preset, "3")
    before = dict(os.environ)
    seen = []

    def worker():
        for _ in range(1000):
            with _one_thread_load():
                time.sleep(0)  # hand the interpreter to another thread inside
                seen.append(tuple(os.environ.get(v) for v in OPENBLAS_THREAD_VARS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = (("1", None, None) if preset is None
                else tuple("3" if v == preset else None for v in OPENBLAS_THREAD_VARS))
    assert len(seen) == 4 * 1000 and set(seen) == {expected}
    assert dict(os.environ) == before


def test_thermal_state_matches_geometric_law():
    space = FockSpace(64)
    rho = thermal_state(space, 0.5)
    pops = rho.populations()
    # p_n = (1/(nbar+1)) (nbar/(nbar+1))^n; nbar = 0.5 gives p_0 = 2/3
    assert pops[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pops[1] / pops[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    nbar = float(pops @ np.arange(64))
    assert nbar == pytest.approx(0.5, abs=1e-12)
    # entropy of a thermal state: (nbar+1)ln(nbar+1) - nbar ln nbar
    assert entropy(thermal_state(space, 1.0)) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-4
    )
    with pytest.raises(TruncationError):
        thermal_state(FockSpace(16), 5.0)
    assert entropy(thermal_state(space, 0.0)) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# evolution


def test_harmonic_evolve_preserves_populations():
    space = FockSpace(12)
    psi = superposition(space, [1.0, 0.4j, 0.0, -0.2])
    evolved = harmonic_evolve(psi, 0.7318)
    assert np.allclose(evolved.populations(), psi.populations(), atol=1e-15)
    # full period is the identity
    back = harmonic_evolve(psi, 2.0 * math.pi)
    assert np.max(np.abs(back.matrix - psi.matrix)) < 1e-12


def test_quarter_period_maps_position_onto_momentum_density():
    """After theta = pi/2 the position density equals the original momentum
    density, textbook rotation of the phase-space distribution."""
    space = FockSpace(16)
    psi = superposition(space, [1.0, 1.0])
    rotated = harmonic_evolve(psi, math.pi / 2.0)
    x = np.linspace(-5.0, 5.0, 401)
    pos_table = hermite_functions(space.dim - 1, x)
    dens_rotated = np.real(np.einsum("mn,mx,nx->x", rotated.matrix, pos_table, pos_table))
    # <p|n> = (-i)^n psi_n(p)
    mom_amp = (-1j) ** np.arange(space.dim)[:, None] * pos_table
    dens_momentum = np.real(np.einsum("mn,mx,nx->x", psi.matrix, mom_amp, mom_amp.conj()))
    assert np.max(np.abs(dens_rotated - dens_momentum)) < 1e-12


def test_density_evolution_consistent_with_pure():
    """Evolving rho is evolving the amplitudes: c_n picks up e^{-i n theta}."""
    space = FockSpace(10)
    coeffs = np.full(4, 0.5)
    theta = 1.234
    via_pure = superposition(space, coeffs * np.exp(-1j * theta * np.arange(4))).matrix
    via_density = harmonic_evolve(superposition(space, coeffs), theta).matrix
    assert np.max(np.abs(via_pure - via_density)) < 1e-14


# ---------------------------------------------------------------------------
# oscillator eigenfunctions


def test_hermite_functions_ground_state_peak():
    val = hermite_functions(0, np.array([0.0]))[0]
    assert val[0] == pytest.approx(PI_QUARTER, abs=1e-15)


def test_hermite_functions_orthonormal_under_gauss_hermite():
    # exact for polynomial degree <= 2*127 - 1, so n up to 63 is safe
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    table = hermite_functions(15, nodes)
    # psi_m psi_n e^{x^2} integrated with GH weights = delta_mn
    gram = np.einsum("mx,nx,x->mn", table, table, weights * np.exp(nodes**2))
    assert np.max(np.abs(gram - np.eye(16))) < 1e-8


@pytest.mark.parametrize("n", [3, 17, 40, 63, 94, 158])
def test_hermite_functions_match_scipy_recurrence(n):
    """The range the Wigner kernel reads: orders up to 2 dim - 2 (158 at
    dim 80) at |x| <= sqrt(2) span.  The norm 2^n n! overflows past n = 150,
    so it is taken in logs; the largest error here is 4.5e-14."""
    x = np.linspace(-25.0, 25.0, 141)
    ours = hermite_functions(n, x)[n]
    log_norm = -0.5 * (n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))
    ref = eval_hermite(n, x) * np.exp(log_norm - 0.5 * x**2)
    assert np.max(np.abs(ours - ref)) < 1e-12


@pytest.mark.parametrize("n_max, x", [
    (0, np.linspace(-3.0, 3.0, 7)), (1, 0.7), (15, np.linspace(-8.0, 8.0, 257)),
    (47, np.linspace(-12.0, 12.0, 64).reshape(8, 8)), (158, np.linspace(-25.0, 25.0, 141)),
], ids=["n0", "n1-scalar", "n15", "n47-2d", "n158"])
def test_hermite_functions_round_as_the_expression_form(n_max, x):
    """The in-place recurrence rounds each step as the expression
    (sqrt(2/(n+1)) x) psi_n - sqrt(n/(n+1)) psi_{n-1} does: the same IEEE
    products and difference in the same order, so the tables are equal."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.zeros((n_max + 1,) + x.shape)
    ref[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        ref[1] = math.sqrt(2.0) * x * ref[0]
    for n in range(1, n_max):
        ref[n + 1] = math.sqrt(2.0 / (n + 1)) * x * ref[n] - math.sqrt(n / (n + 1.0)) * ref[n - 1]
    table = hermite_functions(n_max, x)
    assert table.shape == ref.shape and table.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# metrics


@pytest.mark.parametrize("raw", [np.array, lambda m: m.tolist()], ids=["ndarray", "list"])
@pytest.mark.parametrize("read", [
    lambda x, state: entropy(x),
    lambda x, state: fidelity(x, state),
    lambda x, state: fidelity(state, x),
    lambda x, state: delta_rho(x, state),
    lambda x, state: delta_rho(state, x),
    lambda x, state: expectation(x, number_operator(FockSpace(state.dim))),
    lambda x, state: wigner_eval(x),
], ids=["entropy", "fidelity-a", "fidelity-b", "delta_rho-a", "delta_rho-b", "expectation",
        "wigner_eval"])
def test_every_state_reader_refuses_a_matrix_that_is_not_a_density_operator(read, raw):
    """Even the entries of a valid state are refused, by type, before any
    number is read off them."""
    state = fock_state(FockSpace(3), 1)
    x = raw(state.matrix)
    with pytest.raises(TypeError, match=f"state must be a DensityOperator, got {type(x).__name__}$"):
        read(x, state)


def test_entropy_landmarks():
    space = FockSpace(8)
    assert entropy(fock_state(space, 3)) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityOperator(np.eye(8, dtype=complex) / 8.0)
    assert entropy(mixed) == pytest.approx(math.log(8.0), abs=1e-12)


def test_entropy_of_a_pure_state_is_positive_zero():
    """The sum -p ln p over a pure spectrum is -0.0 or a rounding-level
    negative; the entropy is never reported below +0.0."""
    space = FockSpace(8)
    pure = [fock_state(space, 0), fock_state(space, 3),
            superposition(space, [1.0, 1.0]), superposition(space, [1.0, 0.4j, 0.0, -0.2])]
    for state in pure:
        assert math.copysign(1.0, entropy(state)) == 1.0
        assert entropy(state) < 1e-12


def test_entropy_ignores_rounding_level_eigenvalues(tmp_path):
    """A pure state's spectrum is 1 and 0 up to rounding (the top eigenvalue
    of (|0> + |1>)/sqrt(2) is 1 - 2.2e-16); those eigenvalues add nothing,
    so its entropy is exactly 0, also after a file round trip.  A small
    eigenvalue above dim * eps still counts."""
    for dim in (8, 16, 48):
        space = FockSpace(dim)
        for coeffs in ([1.0, 1.0], [1.0, 0.4j, 0.0, -0.2], [1.0, 1.0, 1.0]):
            assert entropy(superposition(space, coeffs)) == 0.0
    assert entropy(even_cat(FockSpace(48), 1.414)) == 0.0
    path = tmp_path / "state_true.json"
    write_density_matrix(superposition(FockSpace(16), [1.0, 1.0]), path)
    assert entropy(read_density_matrix(path)) == 0.0
    p = 1e-10
    mixed = DensityOperator(np.diag([1.0 - p, p, 0.0]).astype(complex))
    assert entropy(mixed) == pytest.approx(-(p * math.log(p) + (1 - p) * math.log1p(-p)),
                                           rel=1e-6)


def test_fidelity_landmarks():
    space = FockSpace(8)
    vac = fock_state(space, 0)
    one = fock_state(space, 1)
    assert fidelity(vac, vac) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(vac, one) == pytest.approx(0.0, abs=1e-12)
    big = FockSpace(32)
    th = thermal_state(big, 0.3)
    assert fidelity(th, th) == pytest.approx(1.0, abs=1e-9)
    # pure-vs-mixed reduces to <psi|rho|psi>
    assert fidelity(fock_state(big, 0), th) == pytest.approx(
        th.populations()[0], abs=1e-9
    )


def test_delta_rho_is_squared_frobenius_distance():
    space = FockSpace(4)
    a = fock_state(space, 0)
    b = fock_state(space, 1)
    assert delta_rho(a, b) == pytest.approx(2.0, abs=1e-14)


def test_thermal_maximizes_entropy_at_fixed_nbar():
    """Among random states with the same mean occupation the geometric
    mixture has the largest von Neumann entropy."""
    space = FockSpace(6)
    rng = np.random.default_rng(11)
    s_thermal = entropy(thermal_state(FockSpace(64), 0.5))
    n_op = number_operator(space)
    for _ in range(25):
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        nb = float(np.real(np.trace(rho @ n_op)))
        if nb > 0.5:  # mix toward vacuum until <n> = 0.5
            t = 0.5 / nb
            rho = t * rho + (1.0 - t) * np.diag([1.0] + [0.0] * 5)
        state = DensityOperator(rho)
        assert entropy(state) <= s_thermal + 1e-8


@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
def test_evolution_is_unitary_for_any_angle(dim, theta):
    amps = np.zeros(dim)
    amps[dim - 1] = 0.6
    amps[0] = 0.8
    psi = superposition(FockSpace(dim), amps)
    evolved = harmonic_evolve(psi, theta)
    assert abs(np.trace(evolved.matrix) - 1.0) < 1e-12
    assert abs(expectation(evolved, number_operator(FockSpace(dim)))
               - expectation(psi, number_operator(FockSpace(dim)))) < 1e-10
