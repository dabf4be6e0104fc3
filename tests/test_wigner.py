"""Wigner evaluation on grids, the normalization convention, marginals.

Convention: integral over the phase plane is 2 pi, vacuum peak value 2.
The oracle is the defining transform, W(q, p) = 2 int dzeta
<q+zeta|rho|q-zeta> e^{-2 i p zeta}, integrated by brute force.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from maxent_tomo import (
    FockSpace,
    even_cat,
    expectation,
    fock_state,
    hermite_functions,
    ideal_quadrature_distribution,
    ladder_operators,
    superposition,
    thermal_state,
    wigner_eval,
    wigner_marginal,
    write_wigner_csv,
    write_wigner_json,
)
from maxent_tomo.wigner import WignerGrid, _fock_kernel


def _wigner_direct(rho: np.ndarray, q: float, p: float) -> float:
    """Brute-force transform on a dense zeta grid."""
    zeta = np.linspace(-9.0, 9.0, 6001)
    dim = rho.shape[0]
    left = hermite_functions(dim - 1, q + zeta)   # psi_m(q+zeta)
    right = hermite_functions(dim - 1, q - zeta)  # psi_n(q-zeta)
    corr = np.einsum("mn,mz,nz->z", rho, left, right)
    integrand = corr * np.exp(-2.0j * p * zeta)
    val = 2.0 * np.trapezoid(integrand, zeta)
    assert abs(val.imag) < 1e-10
    return float(val.real)


def _pairwise_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The package's former kernel: the closed Laguerre form one (m, n) pair
    at a time, skipping zero entries.  For m >= n,
    K_mn = 2 (-1)^n sqrt(2^d n!/m!) (q - i p)^d L_n^d(2 r^2) e^{-r^2}, d = m - n,
    and K_nm is its conjugate; the diagonal contributes Re(rho_mm) only."""
    qq, pp = np.meshgrid(q, p, indexing="ij")
    r2 = qq * qq + pp * pp
    envelope = np.exp(-r2)
    lower = qq - 1j * pp
    dim = rho.shape[0]
    acc = np.zeros_like(qq, dtype=np.complex128)
    for m in range(dim):
        for n in range(m + 1):
            d = m - n
            if abs(rho[m, n]) == 0.0 and (d == 0 or abs(rho[n, m]) == 0.0):
                continue
            coeff = 2.0 * (-1.0) ** n * math.exp(
                0.5 * (d * math.log(2.0) + gammaln(n + 1) - gammaln(m + 1))
            )
            lag = eval_genlaguerre(n, d, 2.0 * r2)
            if d == 0:
                acc += (rho[m, n].real * coeff) * (envelope * lag)
            else:
                base = (coeff * envelope * lag) * lower ** d
                acc += rho[m, n] * base + rho[n, m] * np.conj(base)
    return acc


def _random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# landmarks


def test_vacuum_wigner_is_a_gaussian_of_peak_two():
    space = FockSpace(8)
    grid = wigner_eval(fock_state(space, 0), span=5.0, points=101)
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    assert np.max(np.abs(grid.values - 2.0 * np.exp(-qq**2 - pp**2))) < 1e-10
    assert grid.imag_residual < 1e-10
    assert grid.convention == "integral-2pi"


def test_plane_integral_is_two_pi():
    space = FockSpace(16)
    for state in (fock_state(space, 0), fock_state(space, 3),
                  superposition(space, [1.0, 1.0])):
        grid = wigner_eval(state, span=7.0, points=201)
        assert grid.integral() == pytest.approx(2.0 * math.pi, abs=1e-6)


@pytest.mark.filterwarnings("ignore:grid reaches")
def test_first_excited_state_is_negative_at_origin():
    space = FockSpace(8)
    grid = wigner_eval(fock_state(space, 1), span=4.0, points=81)
    mid = 40
    assert grid.values[mid, mid] == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:grid reaches")
def test_wigner_against_direct_transform():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    from maxent_tomo import DensityOperator

    state = DensityOperator(rho)
    grid = wigner_eval(state, span=2.2, points=5)
    for i, q in enumerate(grid.q_axis):
        for j, p in enumerate(grid.p_axis):
            assert grid.values[i, j] == pytest.approx(
                _wigner_direct(rho, q, p), abs=1e-8
            )


@pytest.mark.filterwarnings("ignore:grid reaches")
def test_wigner_is_linear_in_the_state():
    space = FockSpace(10)
    a = superposition(space, [1.0, 0.5j]).density()
    b = fock_state(space, 2).density()
    from maxent_tomo import DensityOperator

    mix = DensityOperator(0.3 * a.matrix + 0.7 * b.matrix)
    wa = wigner_eval(a, span=3.0, points=41).values
    wb = wigner_eval(b, span=3.0, points=41).values
    wmix = wigner_eval(mix, span=3.0, points=41).values
    assert np.max(np.abs(wmix - 0.3 * wa - 0.7 * wb)) < 1e-12


def test_wigner_centroids_reproduce_operator_means():
    """First moments of W match <z> and <p> whatever the sign conventions."""
    space = FockSpace(12)
    ops = ladder_operators(space)
    for coeffs in ([1.0, 1.0], [1.0, 1.0j], [1.0, -0.7 + 0.2j]):
        psi = superposition(space, coeffs)
        grid = wigner_eval(psi, span=6.0, points=257)
        dq, dp = grid.spacing()
        w = grid.values
        norm = w.sum() * dq * dp
        q_cent = (w.sum(axis=1) @ grid.q_axis) * dq * dp / norm
        p_cent = (w.sum(axis=0) @ grid.p_axis) * dq * dp / norm
        assert q_cent == pytest.approx(expectation(psi, ops.z), abs=1e-6)
        assert p_cent == pytest.approx(expectation(psi, ops.p), abs=1e-6)


def test_purity_from_squared_wigner():
    # Tr rho^2 = int W^2 / (2 pi) in this convention
    space = FockSpace(32)
    th = thermal_state(space, 0.5)
    grid = wigner_eval(th, span=6.0, points=257)
    dq, dp = grid.spacing()
    purity = (grid.values**2).sum() * dq * dp / (2.0 * math.pi)
    assert purity == pytest.approx(0.5, abs=1e-3)


def test_cat_state_shows_lobes_and_interference():
    space = FockSpace(16)
    cat = even_cat(space, math.sqrt(2.0))
    grid = wigner_eval(cat, span=6.0, points=241)
    mid = 120
    # even parity pins W(0,0) at +2
    assert grid.values[mid, mid] == pytest.approx(2.0, abs=1e-6)
    # coherent lobes at q = +-2 (z = sqrt(2) alpha)
    iq = np.argmin(np.abs(grid.q_axis - 2.0))
    assert grid.values[iq, mid] > 0.5
    assert grid.values[len(grid.q_axis) - 1 - iq, mid] > 0.5
    # interference fringes along p at q = 0 go strongly negative
    assert grid.values[mid].min() < -0.5


def test_grid_warning_when_state_outgrows_span():
    space = FockSpace(16)
    hot = fock_state(space, 9)
    with pytest.warns(UserWarning, match="extends"):
        wigner_eval(hot, span=3.0, points=31)


def _top_fock(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[-1, -1] = 1.0
    return rho


def _off_hermitian(dim: int, seed: int) -> np.ndarray:
    """A dense state plus a small complex perturbation, diagonal included,
    so the imaginary residual has something to measure."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _random_density(dim, seed) + 1e-6 * noise


@pytest.mark.parametrize("rho, span, points", [
    (_random_density(16, 16), 6.0, 41),
    (_random_density(48, 48), 9.0, 25),
    (_top_fock(48), 9.0, 25),
    (_off_hermitian(16, 5), 6.0, 41),
], ids=["dense-dim16", "dense-dim48", "top-fock-dim48", "off-hermitian-dim16"])
def test_diagonal_recurrence_matches_the_pairwise_closed_form(rho, span, points):
    axis = np.linspace(-span, span, points)
    got = _fock_kernel(rho, axis, axis)
    ref = _pairwise_kernel(rho, axis, axis)
    assert np.max(np.abs(got - ref)) < 1e-13
    # the imaginary residual wigner_eval reports
    assert np.max(np.abs(got.imag)) == pytest.approx(np.max(np.abs(ref.imag)), abs=1e-13)


@pytest.mark.parametrize("kwargs, name", [
    (dict(span=math.nan), "span"),
    (dict(span=math.inf), "span"),
    (dict(span=0.0), "span"),
    (dict(points=1), "points"),
], ids=["span-nan", "span-inf", "span-zero", "points-one"])
def test_wigner_eval_rejects_bad_grids_naming_the_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        wigner_eval(fock_state(FockSpace(4), 0), **kwargs)


# ---------------------------------------------------------------------------
# marginals


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, 2.5])
def test_marginals_match_quadrature_distributions(theta):
    space = FockSpace(12)
    for coeffs in ([1.0, 1.0], [1.0, 1.0j, 0.5]):
        psi = superposition(space, coeffs)
        grid = wigner_eval(psi, span=6.0, points=257)
        x, dens = wigner_marginal(grid, theta)
        ref = ideal_quadrature_distribution(psi, theta, x)
        assert np.max(np.abs(dens - ref)) < 1e-3
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-4)


def test_marginal_theta_domain():
    grid = wigner_eval(fock_state(FockSpace(4), 0), span=4.0, points=33)
    with pytest.raises(ValueError):
        wigner_marginal(grid, math.pi)
    with pytest.raises(ValueError):
        wigner_marginal(grid, -0.1)


# ---------------------------------------------------------------------------
# grid object and export


def test_wigner_grid_validation():
    ax = np.linspace(-1.0, 1.0, 5)
    vals = np.zeros((5, 5))
    WignerGrid(q_axis=ax, p_axis=ax, values=vals)
    with pytest.raises(ValueError):
        WignerGrid(q_axis=ax, p_axis=ax, values=np.zeros((5, 4)))
    with pytest.raises(ValueError):
        WignerGrid(q_axis=ax[::-1].copy(), p_axis=ax, values=vals)


@pytest.mark.filterwarnings("ignore:grid reaches")
def test_wigner_csv_round_trip(tmp_path):
    space = FockSpace(8)
    grid = wigner_eval(superposition(space, [1.0, 1.0]), span=3.0, points=21)
    path = tmp_path / "w.csv"
    write_wigner_csv(grid, path)
    assert b"\r" not in path.read_bytes()
    with open(path) as fh:
        meta = {}
        rows = []
        reader = None
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
                continue
            rows.append(line.strip())
    assert meta["convention"] == "integral-2pi"
    header, *data = [r.split(",") for r in rows if r]
    assert header == ["q", "p", "w"]
    assert len(data) == 21 * 21
    # repr round trip is bit exact
    k = 7 * 21 + 3
    assert float(data[k][0]) == grid.q_axis[7]
    assert float(data[k][1]) == grid.p_axis[3]
    assert float(data[k][2]) == grid.values[7, 3]


@pytest.mark.filterwarnings("ignore:grid reaches")
def test_wigner_json_round_trip(tmp_path):
    space = FockSpace(8)
    grid = wigner_eval(fock_state(space, 2), span=3.0, points=11)
    path = tmp_path / "w.json"
    write_wigner_json(grid, path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["convention"] == "integral-2pi"
    vals = np.asarray(payload["values"]).reshape(11, 11)
    assert np.array_equal(vals, grid.values)
    assert np.array_equal(np.asarray(payload["q_axis"]), grid.q_axis)
