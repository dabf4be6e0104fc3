"""Wigner quasidistribution on a rectangular phase-space grid.

Convention: W(q, p) = integral dz <q - z/2| rho |q + z/2> e^{i p z}, which
integrates to 2 pi over the plane (vacuum peak W(0,0) = 2).  Marginals
along any direction are quadrature distributions after dividing by 2 pi.

The Fock-basis kernel sums one diagonal d = m - n at a time.  For m >= n

    K_mn = 2 e^{-r^2} (sqrt(2) (q - i p))^d / sqrt(d!) * l_n^d(2 r^2),
    l_n^d(x) = (-1)^n sqrt(d! n!/(n+d)!) L_n^d(x),   r^2 = q^2 + p^2,

and K_nm is its complex conjugate.  The rescaled Laguerre polynomials obey

    sqrt((n+1)(n+d+1)) l_{n+1} = (x - 2n - 1 - d) l_n - sqrt(n(n+d)) l_{n-1},

run upward from l_0 = 1, so no factorial is ever formed; the prefactor
passes from one diagonal to the next by one multiplication.  Summing by
diagonals follows QuTiP's Clenshaw method (Johansson, Nation and Nori,
Comput. Phys. Commun. 184, 1234 (2013)).  The l_n depend on the grid only
through x = 2 r^2, so they are computed once per distinct x.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import _density_matrix

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


def _fock_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum_{mn} rho_mn K_mn on the meshgrid of q (rows) and p (columns).

    The recurrence and the sums low, up of each diagonal run on the distinct
    values of x = 2 r^2 (q <-> p and sign flips repeat them); the grid reads
    them through the inverse index of ``np.unique``, once per diagonal."""
    qq, pp = np.meshgrid(q, p, indexing="ij")
    x = 2.0 * (qq * qq + pp * pp)
    xu, inv = np.unique(x, return_inverse=True)
    step = math.sqrt(2.0) * (qq - 1j * pp)
    prefactor = 2.0 * np.exp(-0.5 * x) + 0j
    dim = rho.shape[0]
    acc = np.zeros_like(prefactor)
    for d in range(dim):
        # low = sum_n rho[n+d, n] l_n and up = sum_n rho[n, n+d] l_n, per distinct x
        prev, cur = 0.0, np.ones_like(xu)
        low, up = rho[d, 0] * cur, rho[0, d] * cur
        for n in range(dim - d - 1):
            nxt = (xu - (2 * n + 1 + d)) * cur - math.sqrt(n * (n + d)) * prev
            prev, cur = cur, nxt / math.sqrt((n + 1) * (n + d + 1))
            low += rho[n + 1 + d, n + 1] * cur
            up += rho[n + 1, n + 1 + d] * cur
        if d == 0:  # the diagonal contributes Re(prefactor low) only
            acc += prefactor.real * low.real[inv]
        else:  # prefactor low + conj(prefactor) up, real when up = conj(low)
            acc += prefactor.real * (low + up)[inv] + prefactor.imag * (1j * (low - up))[inv]
        prefactor *= step / math.sqrt(d + 1)
    return acc


def wigner_eval(state, *, span: float = 6.0, points: int = 257) -> WignerGrid:
    """Evaluate W on the square grid of ``points`` per axis over [-span, span].

    Warns when the grid looks too small for the state's energy: the bulk of
    a state with mean occupation nbar lives within radius sqrt(2 nbar) + 3.
    """
    if not (math.isfinite(span) and span > 0):
        raise ValueError(f"span must be finite and positive, got {span}")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
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
    imag_res = float(np.max(np.abs(acc.imag))) if acc.size else 0.0
    return WignerGrid(q_axis=axis, p_axis=axis.copy(), values=acc.real, imag_residual=imag_res)


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
