"""Wigner quasidistribution on a rectangular phase-space grid.

Convention: W(q, p) = integral dz <q - z/2| rho |q + z/2> e^{i p z}, which
integrates to 2 pi over the plane (vacuum peak W(0,0) = 2).  Marginals
along any direction are quadrature distributions after dividing by 2 pi.

The Fock-basis kernel uses the closed Laguerre form; for m >= n

    K_mn = 2 (-1)^n sqrt(2^{m-n} n!/m!) (q - i p)^{m-n}
           L_n^{m-n}(2 (q^2+p^2)) e^{-(q^2+p^2)},

and K_nm is its complex conjugate.  Factorial ratios are formed in the log
domain so the kernel stays finite for any truncation that fits in floats.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.special import eval_genlaguerre, gammaln

from .hilbert import _density_matrix

__all__ = [
    "WignerGrid",
    "wigner_eval",
    "wigner_marginal",
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


def _fock_kernel(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum_{mn} rho_mn K_mn on the meshgrid of q (rows) and p (columns)."""
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


def wigner_eval(state, *, span: float = 6.0, points: int = 257) -> WignerGrid:
    """Evaluate W on the square grid of ``points`` per axis over [-span, span].

    Warns when the grid looks too small for the state's energy: the bulk of
    a state with mean occupation nbar lives within radius sqrt(2 nbar) + 3.
    """
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


def wigner_marginal(grid: WignerGrid, theta: float):
    """Integrate W along the direction orthogonal to the theta quadrature.

    Returns (x_axis, density) with the density normalized like a probability
    distribution (the 1/2pi of the convention divided out).  Off-axis values
    are obtained by bilinear interpolation with zero fill outside the grid,
    so the grid must generously cover the state.  theta in [0, pi).
    """
    if not 0.0 <= theta < math.pi:
        raise ValueError("theta must lie in [0, pi)")
    interp = RegularGridInterpolator(
        (grid.q_axis, grid.p_axis), grid.values,
        method="linear", bounds_error=False, fill_value=0.0,
    )
    x = grid.q_axis
    s = grid.p_axis
    ct, st = math.cos(theta), math.sin(theta)
    qq = x[:, None] * ct - s[None, :] * st
    pp = x[:, None] * st + s[None, :] * ct
    pts = np.stack([qq.ravel(), pp.ravel()], axis=-1)
    sheet = interp(pts).reshape(qq.shape)
    ds = float(s[1] - s[0])
    density = sheet.sum(axis=1) * ds / (2.0 * math.pi)
    return x.copy(), density


def write_wigner_csv(grid: WignerGrid, path) -> None:
    """Rows (q, p, w) in row-major grid order, '#' metadata up front."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# convention={grid.convention}\n")
        fh.write(f"# imag_residual={grid.imag_residual!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["q", "p", "w"])
        for i, qv in enumerate(grid.q_axis):
            for j, pv in enumerate(grid.p_axis):
                writer.writerow([repr(float(qv)), repr(float(pv)),
                                 repr(float(grid.values[i, j]))])


def write_wigner_json(grid: WignerGrid, path) -> None:
    payload = {
        "convention": grid.convention,
        "imag_residual": grid.imag_residual,
        "q_axis": [float(v) for v in grid.q_axis],
        "p_axis": [float(v) for v in grid.p_axis],
        "values": [float(v) for v in grid.values.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
