"""Measurement model for time-of-flight (ballistic-expansion) imaging.

The sequence: the motional state evolves in the harmonic well for a time
tau (phase-space rotation theta = omega_z tau), the trap is switched off,
and after a long flight time T an absorption image is taken along z.  A
particle starting at xi0 with velocity v lands near z = xi0 + v T, so each
image column is the velocity distribution of the rotated state convolved
with the initial cloud profile.  In dimensionless oscillator units the
velocity of the theta-rotated state is the (theta + pi/2) quadrature of
the state before rotation, which is where all phase factors below come
from.

Scales: one unit of dimensionless position is sqrt(2) dz0 meters, one unit
of dimensionless velocity is sqrt(2) dv0 m/s, with dz0 (dv0) the vacuum
position (velocity) rms.  After a flight time T one velocity unit maps to
``drop_scale`` = sqrt(2) dv0 T meters on the detector.
"""

from __future__ import annotations

import copy
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .hilbert import FockSpace, _readonly, hermite_functions, number_operator

__all__ = [
    "TrapConfig",
    "BinGrid",
    "ObservableSet",
    "QuadratureError",
    "DegenerateRotationError",
    "default_bin_grid",
    "build_observation_level",
]

# A bin basis B is accepted when Cholesky factors of B + SPECTRUM_TOL I and
# (1 + SPECTRUM_TOL) I - B exist: a Hermitian matrix has one if and only if it
# is positive definite, to a backward error of about N eps |B|, far below the
# tolerance.  Where either factor fails, eigvalsh decides and words the verdict.
SPECTRUM_TOL = 1e-10
SET_HERMITICITY_TOL = 1e-12
# Rotations this close modulo pi are refused: a half turn only mirrors the bins,
# and the operators of the two differ by about (N - 1) times the distance.
ROTATION_TOL = 1e-9


class QuadratureError(ValueError):
    """Integration rule too coarse to be meaningful."""


class DegenerateRotationError(ValueError):
    """Two requested rotations coincide modulo pi and carry no new information."""


@dataclass(frozen=True)
class TrapConfig:
    """Trap and imaging parameters, all in SI units.

    omega_z   angular trap frequency (rad/s)
    dz0       vacuum position rms (m)
    dv0       vacuum velocity rms (m/s)
    cloud_rms initial cloud size along z (m), one sigma
    be_time   ballistic-expansion (flight) time (s)

    dz0 and dv0 are independent inputs because they come from independent
    calibrations; they are checked for consistency with dv0 = omega_z dz0
    and a warning is emitted above 5 percent disagreement.
    """

    omega_z: float
    dz0: float
    dv0: float
    cloud_rms: float
    be_time: float

    def __post_init__(self):
        for name in ("omega_z", "dz0", "dv0", "cloud_rms", "be_time"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        mismatch = abs(self.dv0 - self.omega_z * self.dz0) / self.dv0
        if mismatch > 0.05:
            warnings.warn(
                f"dv0 and omega_z*dz0 disagree by {mismatch:.1%}; "
                "check the trap calibration",
                stacklevel=2,
            )

    @property
    def velocity_scale(self) -> float:
        """Meters per second per unit of dimensionless velocity."""
        return math.sqrt(2.0) * self.dv0

    @property
    def drop_scale(self) -> float:
        """Meters on the detector per unit of dimensionless velocity."""
        return self.velocity_scale * self.be_time


@dataclass(frozen=True)
class BinGrid:
    """Uniform detector binning, bins indexed -half_count..half_count.

    ``center`` is the detector coordinate of the cloud center in meters;
    any gravity-induced uniform displacement during the flight is absorbed
    into it.
    """

    center: float
    width: float
    half_count: int

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError("bin width must be positive and finite")
        if not np.isfinite(self.center):
            raise ValueError("grid center must be finite")
        hc = self.half_count
        if not (np.isfinite(hc) and hc >= 1 and int(hc) == hc):
            raise ValueError("half_count must be a positive integer")
        object.__setattr__(self, "half_count", int(self.half_count))

    @property
    def n_bins(self) -> int:
        return 2 * self.half_count + 1

    def indices(self) -> np.ndarray:
        return np.arange(-self.half_count, self.half_count + 1)

    def centers(self) -> np.ndarray:
        return self.center + self.width * self.indices()

    def edges(self) -> np.ndarray:
        return self.center + self.width * (np.arange(-self.half_count, self.half_count + 2) - 0.5)


def default_bin_grid(
    cfg: TrapConfig,
    nbar: float,
    half_count: int = 25,
    margin: float = 3.5,
) -> BinGrid:
    """Grid covering the velocity spread of a state with mean occupation nbar.

    Span is sqrt(2 nbar + 1) (the largest quadrature rms a state with that
    nbar can have) plus ``margin`` vacuum widths, mapped to meters.
    """
    span_u = math.sqrt(2.0 * max(nbar, 0.0) + 1.0) + margin
    width = 2.0 * span_u * cfg.drop_scale / (2 * half_count + 1)
    return BinGrid(center=0.0, width=width, half_count=half_count)


# ---------------------------------------------------------------------------
# observable construction


@lru_cache
def _gauss_rule(rule, n: int) -> tuple:
    """Nodes and weights of a Gauss rule, made once per node count, not per build."""
    return tuple(_readonly(a) for a in rule(n))


def _bin_base_matrices(
    cfg: TrapConfig,
    space: FockSpace,
    bin_centers: np.ndarray,
    bin_width: float,
    grid_center: float,
    gh_nodes: int,
    gl_nodes: int,
) -> np.ndarray:
    """Real symmetric matrices R_k with [R_k]_mn = int G(xi0) dxi0
    int_bin dz psi_m(u) psi_n(u) / drop_scale, u = (z - center - xi0)/drop_scale.

    Gauss-Hermite over the cloud coordinate, Gauss-Legendre inside each bin.
    The full measurement operator is R_k dressed with rotation phases.
    """
    for n, rule in ((gh_nodes, "Gauss-Hermite"), (gl_nodes, "Gauss-Legendre")):
        if n < 2:
            raise QuadratureError(f"need at least 2 {rule} nodes")
    t, v = _gauss_rule(hermgauss, gh_nodes)
    xi0 = math.sqrt(2.0) * cfg.cloud_rms * t  # cloud positions
    w_cloud = v / math.sqrt(math.pi)
    tl, wl = _gauss_rule(leggauss, gl_nodes)
    scale = cfg.drop_scale
    nmax = space.dim - 1

    # z samples inside each bin, then the dimensionless velocity u
    z = bin_centers[:, None] + 0.5 * bin_width * tl[None, :]
    u = (z[:, None, :] - grid_center - xi0[None, :, None]) / scale
    psi = hermite_functions(nmax, u.reshape(-1))
    psi = psi.reshape(space.dim, bin_centers.size, -1)
    wq = (w_cloud[:, None] * (0.5 * bin_width * wl)[None, :] / scale).reshape(-1)
    # per bin k, (psi_k * wq) psi_k^T: one batched product per 1 MiB of bins,
    # so the weighted copy fits in freed heap instead of faulting in fresh pages
    step = max(1, 2**20 // psi[:, 0].nbytes)
    chunks = (psi[:, lo:lo + step].transpose(1, 0, 2) for lo in range(0, bin_centers.size, step))
    return np.concatenate([np.matmul(pk * wq, pk.transpose(0, 2, 1)) for pk in chunks])


def _rotation_phases(dim: int, theta: float) -> np.ndarray:
    """v with conj(v_m) v_n = exp(i (m-n) (theta + pi/2)), the shifted quadrature."""
    return np.exp(-1j * (theta + 0.5 * math.pi) * np.arange(dim))


@dataclass
class ObservableSet:
    """Operators, target means and weights defining one reconstruction.

    ``groups`` holds the level: per group, J unit phase vectors v_j and K
    Hermitian bases B_k stand for the operators conj(v_j) v_j^T * B_k, i.e.
    D B_k D^dagger with D = diag(conj(v_j)), in row-major (j, k) order.
    :func:`build_observation_level` makes a bin group (phases per rotation,
    a real symmetric basis per bin), then a diagonal group for the number
    operator; an array-like ``operators``, passed instead of ``groups``, is
    one group with unit phases.  Built, ``operators`` is the read-only dense
    (n_ops, N, N) complex array; only ``expectations`` and ``combine``
    contract it.  ``means`` holds NaN for entries not yet measured; attach
    data with ``with_means`` or ``with_record``, which share the operators.
    """

    operators: np.ndarray | None
    labels: list
    means: np.ndarray | None = None
    weights: np.ndarray | None = None
    rotations: tuple | None = None
    grid: BinGrid | None = None
    groups: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.operators is not None and self.groups is not None:
            raise ValueError("pass operators or groups, not both: the groups would "
                             "replace the operators")
        if self.groups is None:
            ops = np.asarray(self.operators, dtype=np.complex128)
            if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
                raise ValueError("need at least one square operator, all of one dimension")
            if ops.flags.writeable:
                ops = _readonly(ops.copy())
            self.groups = ((np.ones((1, ops.shape[1])), ops),)
        else:  # conj(v) v^T * B for every (phase, basis) of every group
            sizes = [len(v) * len(b) for v, b in self.groups]
            dim = self.groups[0][1].shape[-1]
            ops = np.empty((sum(sizes), dim, dim), dtype=np.complex128)
            for (v, b), out in zip(self.groups, np.split(ops, np.cumsum(sizes)[:-1])):
                np.multiply((np.conj(v)[:, :, None] * v[:, None, :])[:, None], b[None],
                            out=out.reshape(len(v), len(b), dim, dim))
            ops = _readonly(ops)
        self.operators = ops
        if len(self.labels) != self.n_ops:
            raise ValueError("labels and operators must align")
        if self.means is not None:
            self.means = self._per_op("means", self.means)
        if self.weights is None:
            self.weights = np.ones(self.n_ops)
        else:
            self.weights = self._per_op("weights", self.weights, positive=True)
        self.validate()

    def _per_op(self, name: str, values, positive: bool = False) -> np.ndarray:
        v = np.array(values, dtype=np.float64)
        if v.shape != (self.n_ops,):
            raise ValueError(f"{name} needs one value per observable")
        if positive and not np.all((v > 0) & np.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")
        return v

    @property
    def n_ops(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def nbar_index(self) -> int | None:
        return next((i for i, lab in enumerate(self.labels) if lab[0] == "nbar"), None)

    @property
    def bin_shape(self) -> tuple | None:
        if self.rotations is None or self.grid is None:
            return None
        return (len(self.rotations), self.grid.n_bins)

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        """Tr[rho G_nu] for every operator, given rho as an (N, N) array."""
        ops = self.operators
        return np.real(ops.reshape(len(ops), -1) @ rho.T.reshape(-1))

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_nu c_nu G_nu as an (N, N) array, for real coefficients."""
        ops = self.operators
        return (coeffs @ ops.reshape(len(ops), -1)).reshape(ops.shape[1:])

    def span(self) -> tuple[np.ndarray, tuple]:
        """(C, groups): each group's K bases B as B ~ T E, E = T^T B, with T (K, L)
        the eigenvectors of the Gram matrix of B as real rows (Re, Im
        interleaved if complex) above K eps times its largest eigenvalue: the
        one rule for the directions a group measures.  One rotation's bins span
        at most 2N - 1, as psi_m psi_n is exp(-u^2) times a polynomial of
        degree m + n; the rule keeps 31 at N = 16 and 91 at N = 48, where C^T H
        rebuilds the operators to 8e-15 and 3.5e-11 relative.  The groups hold
        (phases, E), whose operators H give G = C^T H; C is block-diagonal with
        T^T per group and phase, C C^T = I."""
        blocks, groups = [], []
        for phases, bases in self.groups:
            flat = np.ascontiguousarray(bases).reshape(len(bases), -1).view(np.float64)
            ev, vec = np.linalg.eigh(flat @ flat.T)
            t = vec[:, ev > len(bases) * np.finfo(float).eps * ev[-1]]
            e = (t.T @ flat).view(bases.dtype)
            groups.append((phases, e.reshape(t.shape[1], *bases.shape[1:])))
            blocks += [t.T] * len(phases)
        c = np.zeros((sum(len(b) for b in blocks), self.n_ops))
        rows, cols = np.cumsum([(0, 0)] + [b.shape for b in blocks], axis=0).T
        for b, r, k in zip(blocks, rows, cols):
            c[r:r + b.shape[0], k:k + b.shape[1]] = b
        return c, tuple(groups)

    def packed_transformed(self, v: np.ndarray, kernel: np.ndarray, groups) -> np.ndarray:
        """Columns F_nu, an (N^2, n_ops) array, with F_mu . F_nu = sum_ab
        kernel_ab conj(Gt_mu)_ab (Gt_nu)_ab for Gt = V^dagger G V and a real
        symmetric, non-negative kernel: each Gt packed as its diagonal times
        sqrt(kernel), then the real and the imaginary parts of its strict
        upper triangle times sqrt(2 kernel).  Per group and phase, Gt =
        W_j^dagger B_k W_j with W_j = diag(v_j) V comes from two products,
        W_j^dagger [B_1 .. B_K], then that times W_j; no (n_ops, N, N) stack.
        ``groups`` are the set's own or the reduced ones of ``span``, whose
        J*L operators H then give the columns."""
        n = self.dim
        iu, ju = np.triu_indices(n, 1)
        off = 2.0 * kernel[iu, ju]
        scale = np.sqrt(np.concatenate([np.diagonal(kernel), off, off]))
        out, col = np.empty((n * n, sum(len(p) * len(b) for p, b in groups))), 0
        for phases, bases in groups:
            side = bases.transpose(1, 0, 2).reshape(n, -1).astype(np.complex128)
            for w in phases[:, :, None] * v:
                gt = ((w.conj().T @ side).reshape(-1, n) @ w).reshape(n, len(bases), n)
                upper, block = gt[iu, :, ju], out[:, col:col + len(bases)]
                block[:n] = np.diagonal(gt, axis1=0, axis2=2).real.T
                block[n:n + len(iu)], block[n + len(iu):] = upper.real, upper.imag
                col += len(bases)
        out *= scale[:, None]
        return out

    def with_means(self, means: np.ndarray) -> "ObservableSet":
        out = copy.copy(self)
        out.means = self._per_op("means", means)
        return out

    def with_record(self, record) -> "ObservableSet":
        """Attach a MeasurementRecord's bin values and nbar as target means."""
        shape = self.bin_shape
        if shape is None:
            raise ValueError("observable set carries no (rotation, bin) layout")
        if record.values.shape != shape:
            raise ValueError(
                f"record shape {record.values.shape} does not match observables {shape}"
            )
        return self.with_means(record.flat_means())

    def validate(self) -> None:
        """Unit phases, Hermitian bases and bin spectra within [0, 1], checked
        on each group's J phases and K bases, not on its J*K operators: D B
        D^dagger with D unitary has the hermiticity and the spectrum of B.
        The bases that carry a bin operator pass the spectrum check when the
        Cholesky factors of B + SPECTRUM_TOL I and (1 + SPECTRUM_TOL) I - B
        exist; only where one fails do all spectra come from eigvalsh, which
        alone rejects.  Errors name the first bad operator."""

        def per_op(values):  # per group: (J, 1) per-phase or (K,) per-basis values
            return np.concatenate([np.broadcast_to(x, (len(v), len(b))).ravel()
                                   for x, (v, b) in zip(values, self.groups)])

        modulus = [np.max(np.abs(np.abs(v) - 1.0), axis=1)[:, None] for v, _ in self.groups]
        hermiticity = [np.concatenate([  # blocks of bases keep the temporaries small
            np.max(np.abs(blk - blk.conj().transpose(0, 2, 1)), axis=(1, 2))
            for blk in np.split(b, range(64, len(b), 64))
        ]) for _, b in self.groups]
        for what, values in (("phase modulus", modulus), ("hermiticity", hermiticity)):
            dev = per_op(values)
            bad = np.flatnonzero(~(dev <= SET_HERMITICITY_TOL))
            if bad.size:
                i = bad[0]
                raise ValueError(f"operator {self.labels[i]} {what} off by {dev[i]:.3e}")
        is_bin = np.array([lab[0] == "bin" for lab in self.labels])
        if not is_bin.any():
            return
        edges = np.cumsum([len(v) * len(b) for v, b in self.groups])[:-1]
        eye = np.eye(self.dim)
        try:  # both factors exist: every carried spectrum lies inside the tolerance
            for m, (v, b) in zip(np.split(is_bin, edges), self.groups):
                carries = m.reshape(len(v), len(b)).any(axis=0)
                for start in range(0, len(b), 64):  # blocks, as above
                    blk = b[start:start + 64][carries[start:start + 64]]
                    np.linalg.cholesky(blk + SPECTRUM_TOL * eye)
                    np.linalg.cholesky((1.0 + SPECTRUM_TOL) * eye - blk)
            return
        except np.linalg.LinAlgError:
            pass  # eigvalsh alone decides and words a rejection
        ev = [np.linalg.eigvalsh(b) for _, b in self.groups]
        lo, hi = per_op([e[:, 0] for e in ev]), per_op([e[:, -1] for e in ev])
        bad = np.flatnonzero(is_bin & ~((lo >= -SPECTRUM_TOL) & (hi <= 1.0 + SPECTRUM_TOL)))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"bin operator {self.labels[i]} spectrum [{lo[i]:.3e}, "
                f"{hi[i]:.3e}] outside [0, 1]"
            )


def build_observation_level(
    cfg: TrapConfig,
    grid: BinGrid,
    rotations,
    nbar: float | None,
    space: FockSpace,
    *,
    weight_nbar: float = 1.0,
    gh_nodes: int = 32,
    gl_nodes: int = 8,
) -> ObservableSet:
    """All bin operators for every rotation plus the number operator.

    ``nbar`` is the separately measured mean occupation; it is stored as the
    target mean of the number-operator entry (pass None to leave it unset).
    Bin means stay NaN until filled from a simulation or from data.
    """
    rotations = tuple(float(t) for t in rotations)
    if not rotations:
        raise ValueError("need at least one rotation")
    if not all(map(math.isfinite, rotations)):
        raise ValueError(f"rotations must be finite, got {rotations}")
    for t in rotations:  # _rotation_phases multiplies the raw angle by up to dim - 1
        if not math.isfinite((abs(t) + 0.5 * math.pi) * (space.dim - 1)):
            raise ValueError(f"rotation {t} is too large: its phases overflow at dim {space.dim}")
    folded = [math.remainder(t, math.pi) for t in rotations]  # exact, and no overflow below
    for (ti, fi), (tj, fj) in itertools.combinations(zip(rotations, folded), 2):
        if abs(math.remainder(fi - fj, math.pi)) <= ROTATION_TOL:
            raise DegenerateRotationError(
                f"rotations {ti} and {tj} coincide modulo pi (within {ROTATION_TOL:g} rad): "
                "a half turn only mirrors the bins")
    if nbar is not None and not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and non-negative, got {nbar}")

    base = _bin_base_matrices(
        cfg, space, grid.centers().astype(np.float64), grid.width, grid.center,
        gh_nodes, gl_nodes,
    )
    phases = _readonly(np.stack([_rotation_phases(space.dim, t) for t in rotations]))
    labels = [("bin", j, int(k)) for j in range(len(rotations)) for k in grid.indices()]
    labels.append(("nbar",))

    means = np.full(len(labels), np.nan)
    if nbar is not None:
        means[-1] = float(nbar)
    weights = np.ones(len(labels))
    weights[-1] = float(weight_nbar)
    return ObservableSet(
        operators=None, labels=labels, means=means, weights=weights,
        rotations=rotations, grid=grid,
        groups=((phases, _readonly(base)),
                (np.ones((1, space.dim)), number_operator(space)[None])),
    )
