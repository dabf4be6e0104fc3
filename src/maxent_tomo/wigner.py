"""Wigner quasidistribution on a rectangular phase-space grid.

Convention: W(q, p) = integral dz <q - z/2| rho |q + z/2> e^{i p z}, which
integrates to 2 pi over the plane (vacuum peak W(0,0) = 2).  Marginals
along any direction are quadrature distributions after dividing by 2 pi.

The transform separates in the Hermite functions psi_k.  A 45-degree turn
of the two-mode oscillator, keeping N = m + n quanta, and the Fourier
transform of a Hermite function, integral dz psi_j(z/sqrt(2)) e^{i p z} =
sqrt(4 pi) i^j psi_j(sqrt(2) p), give

    psi_m(q - z/2) psi_n(q + z/2) = sum_k B^N[m, k] psi_k(sqrt(2) q) psi_{N-k}(z/sqrt(2)),
    W = Psi(sqrt(2) q)^T C Psi(sqrt(2) p), C_kj = sqrt(4 pi) i^j sum_{m+n=k+j} rho_mn B^{k+j}[m, k],

two matrix products over orders 0 .. 2 dim - 2.  Risbo's symmetric recursion
(J. Geodesy 70, 383 (1996)) builds the orthogonal blocks B^N from B^0 = 1,

    sqrt(2) N B^N[m, k] = sqrt(m k) B^{N-1}[m-1, k-1] - sqrt(m (N-k)) B^{N-1}[m-1, k]
                        + sqrt((N-m) k) B^{N-1}[m, k-1] + sqrt((N-m)(N-k)) B^{N-1}[m, k],

a convex mix of adding a quantum to either mode that stays orthonormal to
rounding (either step alone divides by sqrt(m) and drifts).  W is the
transform of (rho + rho^dagger)/2, so the diagonal gives Re rho_mm only; the
imaginary residual is that of the anti-Hermitian part off the diagonal,
exactly 0 for an exactly Hermitian rho, whose zero half is skipped.

The blocks depend on dim alone.  They are built once per dimension into one
table of (2 dim - 1)^2 dim doubles, kept for one dimension at a time (0.12 MiB
at dim 16, 3.3 MiB at 48, 15.4 MiB at 80, 122 MiB at 159), and one batched
product contracts them with every anti-diagonal of rho.  A command-line
``wigner`` evaluates once per process and so gains nothing from the table.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hilbert import _density_matrix, _readonly, hermite_functions

__all__ = [
    "WignerGrid",
    "wigner_eval",
    "write_wigner_csv",
    "write_wigner_json",
]

CONVENTION = "integral-2pi"


@dataclass(frozen=True)
class WignerGrid:
    """Axes plus row-major values: values[i, j] = W(q_axis[i], p_axis[j])."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    convention: str = CONVENTION
    imag_residual: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q_axis, dtype=np.float64)
        p = np.asarray(self.p_axis, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (q.size, p.size):
            raise ValueError("values shape must be (len(q_axis), len(p_axis))")
        if q.size < 2 or p.size < 2:
            raise ValueError("axes need at least two points")
        if not all(np.all(np.isfinite(a)) for a in (q, p, vals, self.imag_residual)):
            raise ValueError("axes, values and imag_residual must be finite")
        if np.any(np.diff(q) <= 0) or np.any(np.diff(p) <= 0):
            raise ValueError("axes must be strictly increasing")
        object.__setattr__(self, "q_axis", q)
        object.__setattr__(self, "p_axis", p)
        object.__setattr__(self, "values", vals)

    def spacing(self) -> tuple:
        return (
            float(self.q_axis[1] - self.q_axis[0]),
            float(self.p_axis[1] - self.p_axis[0]),
        )

    def integral(self) -> float:
        dq, dp = self.spacing()
        return float(self.values.sum() * dq * dp)

    @cached_property
    def _value_reprs(self) -> list:
        """repr of every value, one list per q row, made once for both writers."""
        return [list(map(repr, row)) for row in self.values.tolist()]


def _rotation_rows(dim: int):
    """Yield (lo, B^N[lo:hi]) for N = 0 .. 2 dim - 2: the rows max(0, N - dim + 1) <= m
    <= min(N, dim - 1) that meet a dim x dim rho; they need only that band of B^{N-1}."""
    size = 2 * dim - 1
    pad = np.zeros((dim + 1, size + 1))  # pad[m + 1, k + 1] = B^{N-1}[m, k], 0 off the block
    pad[1, 1] = 1.0
    roots = np.sqrt(np.arange(size + 0.0))
    yield 0, pad[1:2, 1:2].copy()
    for n in range(1, size):
        lo, hi = max(0, n - dim + 1), min(n, dim - 1) + 1
        up, down = roots[:n + 1], roots[n::-1]  # sqrt(k), sqrt(N - k); by row sqrt(m), sqrt(N - m)
        prev = pad[lo:hi + 1, :n + 2]
        left, right = prev[:, :-1] * up, prev[:, 1:] * down
        rows = (up[lo:hi, None] * (left[:-1] - right[:-1])
                + down[lo:hi, None] * (left[1:] + right[1:])) / (math.sqrt(2.0) * n)
        pad[lo + 1:hi + 1, 1:n + 2] = rows
        yield lo, rows


@lru_cache(maxsize=1)
def _rotation_table(dim: int) -> tuple:
    """Read-only B[N, k, m] = B^N[m, k] for N = 0 .. 2 dim - 2 and m < dim, 0 off each
    block; the (N, m) of the anti-diagonals rho[m, N - m]; the (N, k) with k <= N."""
    size = 2 * dim - 1
    table = np.zeros((size, size, dim))
    for n, (lo, rows) in enumerate(_rotation_rows(dim)):
        table[n, :n + 1, lo:lo + len(rows)] = rows.T
    inside = np.tri(size, dim, dtype=bool) & ~np.tri(size, dim, -dim, dtype=bool)
    return tuple(map(_readonly, (table, *np.nonzero(inside), *np.tril_indices(size))))


def _fock_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W + i (imaginary residual) on the meshgrid of q (rows) and p (columns): Psi^T C Psi of
    the Hermitian part and, unless exactly 0, the off-diagonal anti-Hermitian part, side by side."""
    dim = rho.shape[0]
    size = 2 * dim - 1
    table, diag_n, diag_m, pair_n, pair_k = _rotation_table(dim)
    anti = (rho - rho.conj().T) * (1.0 - np.eye(dim)) / 2
    parts = np.stack([(rho + rho.conj().T) / 2, anti][:1 + anti.any()])
    diagonals = np.zeros((size, dim, len(parts)), dtype=np.complex128)  # [N, m] = part[m, N - m]
    diagonals[diag_n, diag_m] = parts[:, diag_m, diag_n - diag_m].T
    coeff = np.zeros((len(parts), size, size), dtype=np.complex128)
    # each B^N times the real and imaginary columns of its anti-diagonals, all N in one product
    coeff[:, pair_k, pair_n - pair_k] = (
        table @ diagonals.view(np.float64)).view(np.complex128)[pair_n, pair_k].T
    coeff *= math.sqrt(4.0 * math.pi) * np.array([1, 1j, -1, -1j])[np.arange(size) % 4]
    psi = hermite_functions(size - 1, math.sqrt(2.0) * np.concatenate([q, p]))
    left = psi[:, :q.size].T @ np.concatenate([coeff[0].real, *coeff[1:].imag], axis=1)
    grid = np.concatenate(np.split(left, len(parts), axis=1)) @ psi[:, q.size:]
    return grid[:q.size] + 1j * grid[q.size:] if len(parts) == 2 else grid


def wigner_eval(state, *, span: float = 6.0, points: int = 257) -> WignerGrid:
    """Evaluate W on the square grid of ``points`` per axis over [-span, span].

    ``points`` is an integer of at least 2 (ValueError otherwise).  Warns
    when the grid looks too small for the state's energy: the bulk of a
    state with mean occupation nbar lives within radius sqrt(2 nbar) + 3.
    """
    if not (math.isfinite(span) and span > 0):
        raise ValueError(f"span must be finite and positive, got {span}")
    if isinstance(points, bool) or not (isinstance(points, (int, np.integer)) and points >= 2):
        raise ValueError(f"points must be an integer >= 2, got {points!r}")
    rho = _density_matrix(state)
    axis = np.linspace(-span, span, points)

    nbar = float(np.real(np.diag(rho) @ np.arange(rho.shape[0])))
    needed = math.sqrt(2.0 * max(nbar, 0.0)) + 3.0
    if span < needed:
        warnings.warn(
            f"grid reaches {span:.2f} but the state extends to ~{needed:.2f}; "
            "the plane integral will be visibly short",
            stacklevel=2,
        )
    acc = _fock_kernel(rho, axis, axis)
    return WignerGrid(q_axis=axis, p_axis=axis.copy(), values=acc.real,
                      imag_residual=float(np.max(np.abs(acc.imag))))


def write_wigner_csv(grid: WignerGrid, path) -> None:
    """Rows (q, p, w) in row-major grid order, '#' metadata up front."""
    with open(path, "w") as fh:
        fh.write(f"# convention={grid.convention}\n")
        fh.write(f"# imag_residual={grid.imag_residual!r}\n")
        fh.write("q,p,w\n")
        cells = [f",{p!r}," for p in grid.p_axis.tolist()]
        for q, row in zip(map(repr, grid.q_axis.tolist()), grid._value_reprs):
            fh.write("".join([f"{q}{cell}{w}\n" for cell, w in zip(cells, row)]))


def write_wigner_json(grid: WignerGrid, path) -> None:
    """The bytes ``json.dump`` writes with ``indent=1`` (plus a final
    newline), with each float array joined from its reprs in one pass
    instead of through json's pure-Python indenting encoder."""

    def array(reprs) -> str:
        return "[\n  " + ",\n  ".join(reprs) + "\n ]"

    with open(path, "w") as fh:
        fh.write(
            f'{{\n "convention": {json.dumps(grid.convention)},\n'
            f' "imag_residual": {json.dumps(grid.imag_residual)},\n'
            f' "q_axis": {array(map(repr, grid.q_axis.tolist()))},\n'
            f' "p_axis": {array(map(repr, grid.p_axis.tolist()))},\n'
            f' "values": {array(w for row in grid._value_reprs for w in row)}\n}}\n'
        )
