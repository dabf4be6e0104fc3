"""Independent checks for the benchmark, written with numpy and scipy only.

Nothing here imports the package under test.  Every number is derived from
the physics the package documents, by a different route from the package:

- bin probabilities integrate the quadrature density against the exact
  Gaussian-smeared bin window, Phi((b - u)/s) - Phi((a - u)/s), with a dense
  trapezoid rule on a uniform grid (the package uses Gauss-Hermite times
  Gauss-Legendre nodes and a Hermite recurrence; here the Hermite functions
  come from ``scipy.special.eval_hermite``);
- the deviation functional is evaluated through ``scipy.linalg.expm`` of the
  exponent built from those operators, and stationarity is tested with
  central finite differences along seeded random directions;
- noisy records are regenerated from the documented noise model
  ``clip(v + eta * xi * sqrt(v), 0)`` with ``xi`` from ``default_rng(seed)``;
- Wigner grids are tested against properties every Wigner function of a
  density operator has in the ``integral W = 2 pi`` convention.

Each ``check_*`` function raises ``CheckFailed`` with the offending numbers,
so a caller can count failures and print why.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, expm
from scipy.special import eval_hermite, gammaln, ndtr


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


@dataclass(frozen=True)
class Geometry:
    """Detector geometry in dimensionless velocity units.

    ``sigma`` is the cloud rms divided by the drop scale; ``edges`` are bin
    edges measured from the grid center, divided by the drop scale.
    """

    sigma: float
    edges: np.ndarray

    @classmethod
    def from_si(cls, *, dv0, be_time, cloud_rms, width, half_count):
        drop = math.sqrt(2.0) * dv0 * be_time
        k = np.arange(-half_count, half_count + 2) - 0.5
        return cls(sigma=cloud_rms / drop, edges=(width * k) / drop)

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2), n = 0..nmax."""
    n = np.arange(nmax + 1)
    log_norm = -0.5 * (n * math.log(2.0) + gammaln(n + 1) + 0.5 * math.log(math.pi))
    h = eval_hermite(n[:, None], x[None, :])
    return np.exp(log_norm)[:, None] * h * np.exp(-0.5 * x * x)[None, :]


def _quadrature_grid(geom: Geometry, dim: int):
    reach = max(abs(geom.edges[0]), abs(geom.edges[-1])) + 10.0 * geom.sigma + 1.0
    reach = max(reach, math.sqrt(2.0 * dim + 1.0) + 6.0)
    h = min(0.01, geom.sigma / 12.0)
    n = int(math.ceil(2.0 * reach / h)) + 1
    u = np.linspace(-reach, reach, n)
    w = np.full(n, u[1] - u[0])
    w[0] = w[-1] = 0.5 * (u[1] - u[0])
    return u, w


def bin_base_matrices(geom: Geometry, dim: int) -> np.ndarray:
    """R[k, m, n] = int du psi_m(u) psi_n(u) P(u + cloud in bin k)."""
    u, w = _quadrature_grid(geom, dim)
    psi = hermite_functions(dim - 1, u)
    cdf = ndtr((geom.edges[:, None] - u[None, :]) / geom.sigma)
    window = (cdf[1:] - cdf[:-1]) * w[None, :]
    # one bin at a time keeps the working set at a few megabytes
    return np.stack([(psi * wk) @ psi.T for wk in window])


def rotation_phases(dim: int, theta: float) -> np.ndarray:
    """e^{i (m - n) phi}, phi = theta + pi/2: the velocity of the state rotated
    by exp(-i theta n) is its quadrature at angle theta + pi/2."""
    ph = np.exp(1j * (theta + 0.5 * math.pi) * np.arange(dim))
    return ph[:, None] * ph.conj()[None, :]


def density(state) -> np.ndarray:
    """Density matrix of a state vector or matrix."""
    s = np.asarray(state, dtype=np.complex128)
    return np.outer(s, s.conj()) if s.ndim == 1 else s


def bin_probabilities(state, thetas, geom: Geometry) -> np.ndarray:
    """(rotations, bins) detector probabilities of the state."""
    rho = density(state)
    dim = rho.shape[0]
    base = bin_base_matrices(geom, dim)
    out = np.empty((len(thetas), geom.n_bins))
    for j, theta in enumerate(thetas):
        g = rotation_phases(dim, theta) * rho.T
        out[j] = np.real(np.einsum("mn,kmn->k", g, base))
    return out


def even_cat(dim: int, alpha: float) -> np.ndarray:
    """(|alpha> + |-alpha>)/N from Poisson amplitudes on the even levels."""
    n = np.arange(dim)
    logamp = n * math.log(alpha) - 0.5 * gammaln(n + 1)
    amp = np.where(n % 2 == 0, np.exp(logamp), 0.0)
    return (amp / np.linalg.norm(amp)).astype(np.complex128)


def superposition(dim: int, coeffs) -> np.ndarray:
    psi = np.zeros(dim, dtype=np.complex128)
    psi[: len(coeffs)] = coeffs
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# states


def entropy(rho) -> float:
    """-Tr rho ln rho with eigenvalues clipped to [0, 1]."""
    p = np.clip(np.linalg.eigvalsh(density(rho)), 0.0, 1.0)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def fidelity(a, b) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2; <psi|b|psi> for a vector."""
    a_arr = np.asarray(a, dtype=np.complex128)
    b_mat = density(b)
    if a_arr.ndim == 1:
        return float(np.real(a_arr.conj() @ b_mat @ a_arr))
    e, v = np.linalg.eigh(a_arr)
    root = (v * np.sqrt(np.clip(e, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ b_mat @ root)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def read_rho_json(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    dim = int(payload["dim"])
    real = np.asarray(payload["real"], dtype=np.float64)
    imag = np.asarray(payload["imag"], dtype=np.float64)
    if real.size != dim * dim or imag.size != dim * dim:
        raise CheckFailed(f"{path}: {real.size} entries for dim {dim}")
    return (real + 1j * imag).reshape(dim, dim)


def check_state(rho, truth, *, min_fidelity, max_entropy=None, label="fit"):
    """Fidelity against the true state and, optionally, an entropy ceiling."""
    rho = density(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(np.real(np.trace(rho)))
    if herm > 1e-10 or abs(trace - 1.0) > 1e-9:
        raise CheckFailed(f"{label}: not a density matrix (hermiticity {herm:.2e}, trace {trace!r})")
    fid = fidelity(truth, rho)
    if not fid >= min_fidelity:
        raise CheckFailed(f"{label}: fidelity {fid:.6f} below {min_fidelity}")
    ent = entropy(rho)
    if max_entropy is not None and not ent <= max_entropy:
        raise CheckFailed(f"{label}: entropy {ent:.3e} above {max_entropy}")
    return fid, ent


# ---------------------------------------------------------------------------
# records


def check_record(values, expected, *, tol, label="record"):
    """Program record against the oracle's values, entry by entry."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != expected.shape:
        raise CheckFailed(f"{label}: shape {values.shape}, expected {expected.shape}")
    dev = float(np.max(np.abs(values - expected)))
    if not dev <= tol:
        raise CheckFailed(f"{label}: deviates from the oracle by {dev:.3e} (tolerance {tol:.1e})")
    return dev


def noisy_values(ideal: np.ndarray, eta: float, seed: int) -> np.ndarray:
    """The documented noise model: one row-major standard-normal draw."""
    xi = np.random.default_rng(seed).standard_normal(ideal.shape)
    v = np.clip(ideal, 0.0, None)
    return np.clip(v + eta * xi * np.sqrt(v), 0.0, None)


def parse_record_csv(path):
    """(metadata, values) of a record file; each (rotation, bin) row must
    appear exactly once."""
    meta, rows = {}, []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln[1:].partition("=")
            meta[key.strip()] = value.strip()
    for ln in body[1:]:
        rows.append(ln.split(","))
    half = int(meta["grid_half_count"])
    n_rot = len(meta["rotations_rad"].split(","))
    values = np.full((n_rot, 2 * half + 1), np.nan)
    for r in rows:
        j, k = int(r[0]), int(r[2]) + half
        if not np.isnan(values[j, k]):
            raise CheckFailed(f"{path}: duplicate row ({r[0]}, {r[2]})")
        values[j, k] = float(r[4])
    missing = int(np.isnan(values).sum())
    if missing:
        raise CheckFailed(f"{path}: {missing} (rotation, bin) rows missing")
    return meta, values


# ---------------------------------------------------------------------------
# the deviation functional


class Deviation:
    """dF(lambda) = sum_nu w_nu (Tr[rho(lambda) G_nu] - g_nu)^2 with
    rho(lambda) = expm(-A) / Tr expm(-A), A = sum_nu lambda_nu G_nu.

    Operators: the oracle's bin operators in row-major (rotation, bin)
    order, then the number operator; all weights 1.
    """

    def __init__(self, geom: Geometry, thetas, dim: int, means: np.ndarray):
        self.base = bin_base_matrices(geom, dim)
        self.phases = [rotation_phases(dim, t) for t in thetas]
        self.number = np.diag(np.arange(dim, dtype=np.float64))
        self.means = np.asarray(means, dtype=np.float64)
        self.shape = (len(self.phases), self.base.shape[0])
        if self.means.size != self.shape[0] * self.shape[1] + 1:
            raise CheckFailed(f"{self.means.size} means for {self.shape} bins plus nbar")

    def rho(self, lam: np.ndarray) -> np.ndarray:
        bins = lam[:-1].reshape(self.shape)
        a = lam[-1] * self.number.astype(np.complex128)
        for j, ph in enumerate(self.phases):
            a += ph * np.tensordot(bins[j], self.base, axes=1)
        a = 0.5 * (a + a.conj().T)
        # shift by the lowest eigenvalue: multipliers of a near-pure fit run
        # into the thousands, and exp(-A) would underflow or overflow
        shift = float(eigvalsh(a, subset_by_index=[0, 0])[0])
        e = expm(-(a - shift * np.eye(a.shape[0])))
        return e / np.real(np.trace(e))

    def model(self, rho: np.ndarray) -> np.ndarray:
        out = np.empty(self.means.size)
        for j, ph in enumerate(self.phases):
            out[j * self.shape[1]:(j + 1) * self.shape[1]] = np.real(
                np.einsum("mn,kmn->k", ph * rho.T, self.base)
            )
        out[-1] = float(np.real(np.trace(rho @ self.number)))
        return out

    def __call__(self, lam: np.ndarray) -> float:
        r = self.model(self.rho(lam)) - self.means
        return float(r @ r)


def check_stationary(dev: Deviation, lam, *, seed, directions=4, step=1e-4, tol=1e-6):
    """Central differences of dF along seeded random unit directions.

    A minimizer of dF has zero directional derivative in every direction, so
    each difference quotient must lie within ``tol``.  Returns the largest.
    """
    lam = np.asarray(lam, dtype=np.float64)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(directions):
        d = rng.standard_normal(lam.size)
        d /= np.linalg.norm(d)
        slope = (dev(lam + step * d) - dev(lam - step * d)) / (2.0 * step)
        if not np.isfinite(slope):
            raise CheckFailed(f"dF not finite near the multipliers (slope {slope!r})")
        worst = max(worst, abs(slope))
    if not worst <= tol:
        raise CheckFailed(f"dF not stationary: directional derivative {worst:.3e} > {tol:.1e}")
    return worst


# ---------------------------------------------------------------------------
# Wigner grids


def check_wigner(q, p, values, rho, *, rel_tol=1e-3, label="wigner"):
    """Plane integral 2 pi, |W| <= 2, int W^2 / 2 pi = Tr rho^2, and the
    theta = 0 marginal equals the position density <q|rho|q>."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    w = np.asarray(values, dtype=np.float64)
    rho = density(rho)
    if w.shape != (q.size, p.size):
        raise CheckFailed(f"{label}: values {w.shape} on a {q.size} x {p.size} grid")
    dq, dp = q[1] - q[0], p[1] - p[0]
    if np.ptp(np.diff(q)) > 1e-9 * dq or np.ptp(np.diff(p)) > 1e-9 * dp:
        raise CheckFailed(f"{label}: axes are not uniform")
    two_pi = 2.0 * math.pi
    total = float(w.sum() * dq * dp)
    if abs(total / two_pi - 1.0) > rel_tol:
        raise CheckFailed(f"{label}: plane integral {total:.6f}, expected 2 pi")
    peak = float(np.max(np.abs(w)))
    if peak > 2.0 + 1e-9:
        raise CheckFailed(f"{label}: |W| reaches {peak:.6f} > 2")
    purity = float(np.real(np.trace(rho @ rho)))
    w2 = float((w * w).sum() * dq * dp / two_pi)
    if abs(w2 / purity - 1.0) > rel_tol:
        raise CheckFailed(f"{label}: int W^2 / 2 pi = {w2:.6f} but Tr rho^2 = {purity:.6f}")
    psi = hermite_functions(rho.shape[0] - 1, q)
    position = np.real(np.einsum("mn,mx,nx->x", rho, psi, psi))
    marginal = w.sum(axis=1) * dp / two_pi
    gap = float(np.max(np.abs(marginal - position)))
    if gap > rel_tol * float(np.max(position)):
        raise CheckFailed(f"{label}: theta=0 marginal off the position density by {gap:.3e}")
    return {"integral": total, "peak": peak, "purity": purity, "marginal_gap": gap}
