import math

import numpy as np
import pytest
from hypothesis import settings

from maxent_tomo import (
    DensityOperator,
    FockSpace,
    TrapConfig,
    WignerGrid,
    hermite_functions,
)

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

# 80 kHz trap, 22 nm / 11 mm/s vacuum widths, 60 um cloud, 8.7 ms flight:
# the standard configuration used across the test suite.
TRAP_KW = dict(
    omega_z=2 * np.pi * 80e3,
    dz0=22e-9,
    dv0=11e-3,
    cloud_rms=60e-6,
    be_time=8.7e-3,
)

# four in-trap hold times used by the standard runs (microsecond scale)
TAUS = (0.0, 1.6e-6, 3.2e-6, 4.8e-6)


def make_trap(**overrides) -> TrapConfig:
    kw = dict(TRAP_KW)
    kw.update(overrides)
    return TrapConfig(**kw)


def rotations(cfg: TrapConfig, taus=TAUS) -> tuple:
    return tuple(cfg.omega_z * t for t in taus)


@pytest.fixture(scope="session")
def trap() -> TrapConfig:
    return make_trap()


@pytest.fixture(scope="session")
def space16() -> FockSpace:
    return FockSpace(16)


# ---------------------------------------------------------------------------
# reference distributions: the oracles the measurement model and the Wigner
# export are checked against


def quadratures(dim: int):
    """Reference z = (a + a†)/√2 and p = -i(a - a†)/√2 on dim levels, with
    √1, ..., √(dim-1) on the first superdiagonal of a: a|n> = √n |n-1>."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(np.complex128)
    adag = a.conj().T
    return (a + adag) / math.sqrt(2.0), -1j * (a - adag) / math.sqrt(2.0)


def harmonic_evolve(state, theta: float):
    """Free evolution in the well by phase theta = omega_z * t.

    rho_mn picks up e^{-i (m - n) theta}, as Fock amplitudes pick up
    e^{-i n theta}; the zero-point global phase drops out.  Number
    populations are untouched.
    """
    ph = np.exp(-1j * theta * np.arange(state.dim))
    return DensityOperator(ph[:, None] * state.matrix * ph.conj()[None, :])


def ideal_quadrature_distribution(state, theta: float, x) -> np.ndarray:
    """Quadrature distribution w(x; theta) of the state rotated by theta.

    This is the position density of the theta-evolved state on the
    dimensionless axis, the zero-smearing, continuous limit of the
    ballistic-expansion profile at rotation theta - pi/2.
    """
    x = np.asarray(x, dtype=np.float64)
    evolved = harmonic_evolve(state, theta)
    psi = hermite_functions(evolved.dim - 1, x)
    return np.real(np.einsum("mn,mx,nx->x", evolved.matrix, psi, psi, optimize=True))


def wigner_marginal(grid: WignerGrid, theta: float):
    """Integrate W along the direction orthogonal to the theta quadrature.

    Returns (x_axis, density) with the density normalized like a probability
    distribution (the 1/2pi of the convention divided out).  Off-axis values
    are obtained by bilinear interpolation with zero fill outside the grid,
    so the grid must generously cover the state.  theta in [0, pi).
    """
    if not 0.0 <= theta < math.pi:
        raise ValueError("theta must lie in [0, pi)")
    from scipy.interpolate import RegularGridInterpolator

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
