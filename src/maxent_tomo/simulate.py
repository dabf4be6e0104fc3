"""End-to-end synthetic measurement generation.

Ideal records are exact expectation values of the ballistic-expansion bin
operators; detection noise follows the shot-noise-like model
value' = value + eta * xi * sqrt(value) with unit-variance Gaussian xi and
values clamped at zero.  A separately measured mean occupation accompanies
every record because the reconstruction needs it as an anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import LEAKAGE_TOL, DensityOperator, FockSpace, TruncationError, _pure, _state_matrix
from .measurement import BinGrid, ObservableSet, TrapConfig


class DimensionMismatch(ValueError):
    """State and observables live in different truncated spaces."""


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative-sqrt noise amplitude and RNG seed."""

    eta: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and non-negative")
        if not (self.seed >= 0 and self.seed % 1 == 0):  # any int: default_rng takes it
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class MeasurementRecord:
    """One synthetic or ingested data set: a (rotation, bin) value matrix
    plus the separately measured mean occupation."""

    rotations: tuple
    grid: BinGrid
    values: np.ndarray
    nbar: float
    provenance: dict = field(default_factory=lambda: {"kind": "ideal"})

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.rotations), self.grid.n_bins):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(self.rotations)} rotations x {self.grid.n_bins} bins"
            )
        bad = ~(np.isfinite(vals) & (vals >= 0))
        if bad.any():
            j, i = np.argwhere(bad)[0]
            raise ValueError(
                f"bin values must be finite and non-negative, got {float(vals[j, i])!r} "
                f"at (rotation {j}, bin {i - self.grid.half_count})"
            )
        if not np.isfinite(self.nbar) or self.nbar < 0:
            raise ValueError("nbar must be finite and non-negative")
        rotations = tuple(float(t) for t in self.rotations)
        if not all(math.isfinite(t) for t in rotations):
            raise ValueError(f"rotations must be finite, got {rotations}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "rotations", rotations)

    def flat_means(self) -> np.ndarray:
        """Bin values row-major then nbar, the observable-set ordering."""
        return np.concatenate([self.values.ravel(), [self.nbar]])


def simulate_ideal(state: DensityOperator, observables: ObservableSet) -> MeasurementRecord:
    """Noise-free record of a DensityOperator: exact means of every observable."""
    if observables.bin_shape is None:
        raise ValueError("observables carry no (rotation, bin) layout to record")
    rho = _state_matrix(state)
    if state.dim != observables.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs observables dim {observables.dim}"
        )
    vals = observables.expectations(rho)
    bins = np.clip(vals[:-1].reshape(observables.bin_shape), 0.0, None)
    return MeasurementRecord(
        rotations=observables.rotations,
        grid=observables.grid,
        values=bins,
        nbar=max(float(vals[-1]), 0.0),
        provenance={"kind": "ideal"},
    )


def add_noise(
    record: MeasurementRecord,
    spec: NoiseSpec,
    nbar_noisy: float | None = None,
) -> MeasurementRecord:
    """Apply value' = clamp(value + eta xi sqrt(value), 0) with a seeded RNG.

    xi is drawn once as a standard-normal array of the record's shape
    (row-major), so records of equal shape and seed perturb identically.
    The mean occupation is not resampled; pass ``nbar_noisy`` to emulate an
    imperfect independent calibration.
    """
    if record.provenance.get("kind") != "ideal":
        raise ValueError("refusing to add noise on top of a non-ideal record")
    rng = np.random.default_rng(spec.seed)
    xi = rng.standard_normal(record.values.shape)
    noisy = np.clip(record.values + spec.eta * xi * np.sqrt(record.values), 0.0, None)
    nbar = record.nbar if nbar_noisy is None else float(nbar_noisy)
    return MeasurementRecord(
        rotations=record.rotations,
        grid=record.grid,
        values=noisy,
        nbar=nbar,
        provenance={"kind": "noisy", "eta": spec.eta, "seed": spec.seed},
    )


# ---------------------------------------------------------------------------
# free-flight preparation


def prepare_free_expansion(cfg: TrapConfig, t1: float, space: FockSpace) -> DensityOperator:
    """Ground state after the trap is off for t1 seconds, the density operator
    of the pure state exp(-i kappa p^2)|0> with kappa = omega_z t1 / 2, a
    squeezed vacuum with sinh r = kappa and mean occupation kappa^2.  Its exact
    amplitudes are c_0 = (1 + i kappa)^(-1/2) and c_{n+2} = c_n xi
    sqrt((n+1)/(n+2)), xi = i kappa / (1 + i kappa), |xi| = tanh r, so the
    population above level dim-1 is 1 - sum |c_n|^2.  Past LEAKAGE_TOL that
    raises TruncationError; otherwise the head is renormalized into |psi><psi|.
    """
    if not (math.isfinite(t1) and t1 >= 0):
        raise ValueError(f"t1 must be finite and non-negative, got {t1!r}")
    kappa = 0.5 * cfg.omega_z * t1
    xi = 1j * kappa / (1.0 + 1j * kappa)
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[0] = 1.0 / np.sqrt(1.0 + 1j * kappa)
    for n in range(0, space.dim - 2, 2):
        amps[n + 2] = amps[n] * xi * math.sqrt((n + 1) / (n + 2))
    leak = 1.0 - float(np.vdot(amps, amps).real)
    if leak > LEAKAGE_TOL:
        raise TruncationError(
            f"free flight t1={t1:.3e} s (kappa={kappa:.3f}) leaks {leak:.3e} "
            f"above level {space.dim - 1}; raise the Fock dimension"
        )
    return _pure(amps)
