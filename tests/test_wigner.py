"""Wigner evaluation on grids, the normalization convention, marginals.

Convention: integral over the phase plane is 2 pi, vacuum peak value 2.
The oracle is the defining transform, W(q, p) = 2 int dzeta
<q+zeta|rho|q-zeta> e^{-2 i p zeta}, integrated by brute force.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from maxent_tomo import (
    DensityOperator,
    FockSpace,
    NoiseSpec,
    add_noise,
    build_observation_level,
    default_bin_grid,
    even_cat,
    expectation,
    fit,
    fock_state,
    hermite_functions,
    simulate_ideal,
    superposition,
    thermal_state,
    wigner_eval,
    write_wigner_csv,
    write_wigner_json,
)
from maxent_tomo.wigner import WignerGrid, _fock_kernel, _rotation_rows, _rotation_table

from conftest import ideal_quadrature_distribution, quadratures, wigner_marginal


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
    a = superposition(space, [1.0, 0.5j])
    b = fock_state(space, 2)
    from maxent_tomo import DensityOperator

    mix = DensityOperator(0.3 * a.matrix + 0.7 * b.matrix)
    wa = wigner_eval(a, span=3.0, points=41).values
    wb = wigner_eval(b, span=3.0, points=41).values
    wmix = wigner_eval(mix, span=3.0, points=41).values
    assert np.max(np.abs(wmix - 0.3 * wa - 0.7 * wb)) < 1e-12


def test_wigner_centroids_reproduce_operator_means():
    """First moments of W match <z> and <p> whatever the sign conventions."""
    space = FockSpace(12)
    z, p = quadratures(space.dim)
    for coeffs in ([1.0, 1.0], [1.0, 1.0j], [1.0, -0.7 + 0.2j]):
        psi = superposition(space, coeffs)
        grid = wigner_eval(psi, span=6.0, points=257)
        dq, dp = grid.spacing()
        w = grid.values
        norm = w.sum() * dq * dp
        q_cent = (w.sum(axis=1) @ grid.q_axis) * dq * dp / norm
        p_cent = (w.sum(axis=0) @ grid.p_axis) * dq * dp / norm
        assert q_cent == pytest.approx(expectation(psi, z), abs=1e-6)
        assert p_cent == pytest.approx(expectation(psi, p), abs=1e-6)


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


def _square(span: float, points: int) -> tuple:
    axis = np.linspace(-span, span, points)
    return axis, axis


@pytest.mark.parametrize("rho, axes", [
    (_random_density(16, 16), _square(6.0, 41)),
    (_random_density(48, 48), _square(9.0, 25)),
    (_top_fock(48), _square(9.0, 25)),
    # orders up to 158: the rotation blocks and psi_k(sqrt(2) q) at their widest
    (_random_density(80, 80), _square(13.0, 25)),
    (_top_fock(80), _square(13.0, 25)),
    (_off_hermitian(16, 5), _square(6.0, 41)),
    # q != p: different lengths and spans; 402 distinct radii on 713 points
    (_off_hermitian(16, 6), (np.linspace(-5.0, 6.0, 23), np.linspace(-7.0, 4.5, 31))),
    # offset axes on which no radius repeats
    (_off_hermitian(16, 7), (np.linspace(-4.0, 5.3, 19) + 0.1, np.linspace(-3.7, 6.1, 27))),
    # half-integer axes: every radius repeats, at least under a sign flip
    (_off_hermitian(16, 8), (np.arange(-5.5, 6.0), np.arange(-3.5, 4.0))),
], ids=["dense-dim16", "dense-dim48", "top-fock-dim48", "dense-dim80", "top-fock-dim80",
        "off-hermitian-dim16",
        "uneven-spans", "no-repeated-radius", "every-radius-repeated"])
def test_diagonal_recurrence_matches_the_pairwise_closed_form(rho, axes):
    q, p = axes
    got = _fock_kernel(rho, q, p)
    ref = _pairwise_kernel(rho, q, p)
    assert np.max(np.abs(got - ref)) < 1e-13
    # the imaginary residual wigner_eval reports
    assert np.max(np.abs(got.imag)) == pytest.approx(np.max(np.abs(ref.imag)), abs=1e-13)


@pytest.mark.parametrize("rho", [
    _random_density(16, 16), _random_density(48, 48), _top_fock(48),
    _off_hermitian(16, 5), _off_hermitian(16, 6),
], ids=["dense-dim16", "dense-dim48", "top-fock-dim48", "off-hermitian-5", "off-hermitian-6"])
def test_a_square_grid_shares_one_table_bit_for_bit(rho):
    """p is q builds one Psi table; an equal copy of q builds two.  Real for
    an exactly Hermitian rho, complex otherwise, and the same bits either way."""
    axis = np.linspace(-9.0, 9.0, 65)
    shared, separate = _fock_kernel(rho, axis, axis), _fock_kernel(rho, axis, axis.copy())
    assert np.iscomplexobj(shared) == np.iscomplexobj(separate) == bool(np.any(rho != rho.conj().T))
    assert shared.dtype == separate.dtype and np.array_equal(shared, separate)


def test_rotation_blocks_are_orthonormal_through_order_158():
    """Risbo's symmetric recursion keeps every B^N orthogonal to rounding.
    Adding one quantum to one mode at a time, dividing by sqrt(m), drifts
    (B B^T is off by 2e-3 at order 94) and fails here."""
    for n, (lo, block) in zip(range(159), _rotation_rows(159)):
        assert lo == 0 and block.shape == (n + 1, n + 1)
        assert np.max(np.abs(block @ block.T - np.eye(n + 1))) < 1e-13


def test_far_grid_is_finite_and_zero_where_the_hermite_functions_underflow():
    """At span 30, psi_0(sqrt(2) q) = pi^(-1/4) e^(-q^2) underflows to 0 on
    the outer grid: W there is exactly 0, finite everywhere, and the plane
    integral is whole, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = wigner_eval(DensityOperator(_random_density(8, 30)), span=30.0)
    assert np.all(np.isfinite(grid.values))
    assert not np.any(grid.values[[0, 0, -1, -1], [0, -1, 0, -1]])
    assert grid.integral() == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_exactly_hermitian_state_has_no_imaginary_part():
    """The imaginary part is the transform of the anti-Hermitian part, which
    is exactly 0, not rounding, when rho_nm = conj(rho_mn) bit for bit."""
    raw = _random_density(16, 9)
    rho = 0.5 * (raw + raw.conj().T)
    assert np.array_equal(rho, rho.conj().T)
    axis = np.linspace(-6.0, 6.0, 257)
    assert not np.any(_fock_kernel(rho, axis, axis).imag)


def test_a_warm_rotation_table_gives_the_cold_grid_bit_for_bit():
    rho = DensityOperator(_random_density(16, 21))
    _rotation_table.cache_clear()
    cold = wigner_eval(rho, span=8.0, points=65)
    warm = wigner_eval(rho, span=8.0, points=65)
    assert _rotation_table.cache_info().hits == 1
    assert np.array_equal(warm.values, cold.values)
    assert warm.imag_residual == cold.imag_residual


def test_interleaved_dimensions_each_get_their_own_answer():
    """The table is kept for one dimension: 16, 48, 16 rebuilds it each time."""
    rhos = {dim: DensityOperator(_random_density(dim, dim)) for dim in (16, 48)}
    cold = {}
    for dim, rho in rhos.items():
        _rotation_table.cache_clear()
        cold[dim] = wigner_eval(rho, span=10.0, points=33).values
    for dim in (16, 48, 16):
        assert np.array_equal(wigner_eval(rhos[dim], span=10.0, points=33).values, cold[dim])


def test_the_cached_rotation_table_is_read_only():
    arrays = _rotation_table(8)
    assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_imag_residual_is_the_closed_form_imaginary_part(seed):
    """Off-Hermitian rho, too far off to be a DensityOperator: the kernel's
    largest imaginary part is that of the pairwise closed form.  A state
    within the Hermiticity tolerance has wigner_eval report its kernel's
    largest imaginary part; an exactly Hermitian one, exactly 0.0."""
    axis = np.linspace(-8.0, 8.0, 41)
    rho = _off_hermitian(16, seed)
    ref = np.max(np.abs(_pairwise_kernel(rho, axis, axis).imag))
    assert ref > 1e-8
    assert np.max(np.abs(_fock_kernel(rho, axis, axis).imag)) == pytest.approx(ref, abs=1e-13)
    hermitian = DensityOperator((rho + rho.conj().T) / 2 / np.trace(rho).real)
    assert wigner_eval(hermitian, span=8.0, points=41).imag_residual == 0.0
    near = DensityOperator(hermitian.matrix + 1e-6 * (rho - rho.conj().T) / 2)
    residual = np.max(np.abs(_fock_kernel(near.matrix, axis, axis).imag))
    assert wigner_eval(near, span=8.0, points=41).imag_residual == residual > 0.0


@pytest.mark.parametrize("kwargs, name", [
    (dict(span=math.nan), "span"),
    (dict(span=math.inf), "span"),
    (dict(span=0.0), "span"),
    # the axis (2 span) and the squared coordinates (2 span^2) overflow
    (dict(span=1e308), "span"),
    (dict(span=1e160), "span"),
    (dict(span=10**400), "span"),  # a Python int past the float range
    (dict(points=1), "points"),
    (dict(points=3.0), "points"),
    (dict(points=3.5), "points"),
    (dict(points=math.nan), "points"),
    (dict(points="257"), "points"),
    (dict(points=True), "points"),
], ids=["span-nan", "span-inf", "span-zero", "span-1e308", "span-1e160", "span-10**400",
        "points-one", "points-float", "points-fraction", "points-nan", "points-string",
        "points-bool"])
def test_wigner_eval_rejects_bad_grids_naming_the_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        wigner_eval(fock_state(FockSpace(4), 0), **kwargs)


def test_the_largest_span_with_a_finite_cell_runs_without_warnings():
    """6.7e153 is about the largest span with 4 span^2 finite: the axis, the
    squared coordinates and the plane integral stay finite, warning-free."""
    for points in (2, 3, 257):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = wigner_eval(fock_state(FockSpace(4), 0), span=6.7e153, points=points)
        assert math.isfinite(grid.integral())


def test_wigner_eval_takes_python_and_numpy_integer_points():
    for points in (2, np.int64(5), np.int32(5)):
        assert wigner_eval(fock_state(FockSpace(4), 0), points=points).values.shape == (points,) * 2


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


@pytest.fixture(scope="module")
def fitted_wigner(trap) -> WignerGrid:
    """The grid of a fitted noisy state: full-precision values."""
    space = FockSpace(8)
    grid = default_bin_grid(trap, nbar=0.5, half_count=8)
    obs = build_observation_level(trap, grid, (0.0, 0.7, 1.4), 0.5, space)
    record = add_noise(simulate_ideal(superposition(space, [1.0, 1.0]), obs), NoiseSpec(0.05, 3))
    state, _ = fit(obs.with_record(record))
    return wigner_eval(state.rho, span=5.0, points=41)


def test_wigner_csv_is_one_repr_line_per_point(tmp_path, fitted_wigner):
    """Byte for byte the per-point form ``f"{q!r},{p!r},{w!r}\\n"``."""
    wig = fitted_wigner
    path = tmp_path / "w.csv"
    write_wigner_csv(wig, path)
    lines = [f"# convention={wig.convention}\n",
             f"# imag_residual={wig.imag_residual!r}\n", "q,p,w\n"]
    for i, q in enumerate(wig.q_axis.tolist()):
        for j, p in enumerate(wig.p_axis.tolist()):
            lines.append(f"{q!r},{p!r},{float(wig.values[i, j])!r}\n")
    assert path.read_bytes() == "".join(lines).encode()


def test_wigner_json_is_what_json_dump_writes(tmp_path, fitted_wigner):
    """Byte for byte the file ``json.dump(payload, fh, indent=1)`` writes."""
    wig = fitted_wigner
    path = tmp_path / "w.json"
    write_wigner_json(wig, path)
    payload = {
        "convention": wig.convention,
        "imag_residual": wig.imag_residual,
        "q_axis": [float(v) for v in wig.q_axis],
        "p_axis": [float(v) for v in wig.p_axis],
        "values": [float(v) for v in wig.values.ravel()],
    }
    assert path.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()


def test_wigner_writers_share_one_repr_per_value(tmp_path):
    """Each W value is formatted once for both files: the JSON writer reads
    the reprs the CSV writer made, so a changed cached repr shows in both."""
    grid = WignerGrid(q_axis=[-1.0, 0.0, 1.0], p_axis=[-1.0, 1.0],
                      values=np.arange(6.0).reshape(3, 2) / 7.0)
    write_wigner_csv(grid, tmp_path / "w.csv")
    assert grid._value_reprs[2] == [repr(4.0 / 7.0), repr(5.0 / 7.0)]
    grid._value_reprs[2][1] = "0.5"
    write_wigner_csv(grid, tmp_path / "w.csv")
    write_wigner_json(grid, tmp_path / "w.json")
    assert (tmp_path / "w.csv").read_text().endswith("\n1.0,1.0,0.5\n")
    assert json.loads((tmp_path / "w.json").read_text())["values"] == [
        0.0, 1.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0, 4.0 / 7.0, 0.5]
