"""Truncated Fock-space algebra for a single harmonic-oscillator mode.

Everything here is parameter free: dimensionless oscillator units with
a|n> = √n |n-1>, z = (a + a†)/√2 and p = -i(a - a†)/√2, so the vacuum has
rms 1/√2 in both quadratures and [z, p] = i on the untruncated space (on
the truncated one only on the upper-left (N-1) x (N-1) block).  The one
operator built here is ``number_operator``, n = a†a = (z² + p² - 1)/2.
Conversion to and from laboratory units (meters, seconds) is the business
of :mod:`maxent_tomo.measurement`.

Every state is a ``DensityOperator``, which every function that reads a state
demands (TypeError otherwise); a pure one is |psi><psi| of normalized Fock
amplitudes.  The truncation dimension N is an explicit parameter
(``FockSpace``).  State factories refuse a state whose untruncated population
above level N-1 exceeds ``LEAKAGE_TOL``; raising N is always the right fix.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEAKAGE_TOL = 1e-6
MAX_COUNT = 2**53  # largest dim and bin half count: floats hold every integer up to it


class TruncationError(ValueError):
    """A requested state leaks too much probability above level N-1."""


_SCIPY_LOAD = threading.Lock()


@contextlib.contextmanager
def _one_thread_load():
    """Load scipy's compiled modules in this: scipy's OpenBLAS, linked by the
    first, reads its thread count only then, and at one it starts no pool."""
    with _SCIPY_LOAD:  # the environment is the process's: one load at a time
        unset = os.environ.keys().isdisjoint(  # a count the user set wins
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
        if unset:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            yield
        finally:
            if unset:
                del os.environ["OPENBLAS_NUM_THREADS"]


def _readonly(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockSpace:
    """Truncated oscillator Hilbert space spanned by |0>, ..., |dim-1>."""

    dim: int

    def __post_init__(self):
        d = self.dim  # compared, not converted: int() fails on inf and nan
        if not (isinstance(d, numbers.Real) and 2 <= d <= MAX_COUNT and d % 1 == 0):
            raise ValueError(f"dim must be an integer from 2 to 2**53, got {d!r}")
        object.__setattr__(self, "dim", int(d))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if not dev <= HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (max deviation {dev:.3e})")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if not lowest >= -PSD_TOL:
            raise ValueError(f"negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def _state_matrix(state) -> np.ndarray:
    if not isinstance(state, DensityOperator):
        raise TypeError(f"state must be a DensityOperator, got {type(state).__name__}")
    return state.matrix


def _pure(amp) -> DensityOperator:
    """|psi><psi| of the Fock amplitudes amp, normalized."""
    psi = amp / np.linalg.norm(amp)
    return DensityOperator(np.outer(psi, psi.conj()))


def number_operator(space: FockSpace) -> np.ndarray:
    """The real diagonal n = a†a = diag(0, 1, ..., dim-1)."""
    return _readonly(np.diag(np.arange(space.dim, dtype=np.float64)))


# ---------------------------------------------------------------------------
# state factories


def fock_state(space: FockSpace, k: int) -> DensityOperator:
    if not 0 <= k < space.dim:
        raise TruncationError(f"|{k}> does not fit in dim={space.dim}")
    amp = np.zeros(space.dim, dtype=np.complex128)
    amp[k] = 1.0
    return _pure(amp)


def superposition(space: FockSpace, coeffs) -> DensityOperator:
    """Pure state of the normalized superposition of raw Fock coefficients.

    Coefficients beyond the truncation are only dropped when they carry less
    than ``LEAKAGE_TOL`` of the total weight.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    # scaled by a power of two, which is exact, so that squaring a finite c
    # neither overflows nor underflows; nan and inf pass unscaled
    _, exp = np.frexp(np.max(np.abs(c.view(np.float64)), initial=0.0))
    c = np.ldexp(c.view(np.float64), -exp).view(np.complex128)
    total = float(np.sum(np.abs(c) ** 2))
    if not 0.0 < total < math.inf:  # nan fails too
        raise ValueError(f"coeffs must be finite and not all zero, got total weight {total}")
    if c.size > space.dim:
        leak = float(np.sum(np.abs(c[space.dim:]) ** 2)) / total
        if leak > LEAKAGE_TOL:
            raise TruncationError(
                f"truncation would drop {leak:.3e} of the population (tol {LEAKAGE_TOL})"
            )
        c = c[: space.dim]
    amp = np.zeros(space.dim, dtype=np.complex128)
    amp[: c.size] = c
    return _pure(amp)


def even_cat(space: FockSpace, alpha: float) -> DensityOperator:
    """Even coherent superposition |alpha> + |-alpha>, alpha real.

    Populated on even levels only, p_2k proportional to alpha^4k/(2k)!.
    Mean occupation of the untruncated state is alpha^2 tanh(alpha^2).
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    a2 = float(alpha) ** 2
    if a2 > 300.0:
        raise TruncationError("alpha^2 too large for a truncated Fock basis")
    even = np.arange(0, space.dim, 2)
    # untruncated even-level weights alpha^(2n)/n! sum to cosh(alpha^2)
    if a2 > 0.0:
        # not math.lgamma: it differs in the last bits, and fits to
        # simulated cats follow those bits
        with _one_thread_load():
            from scipy.special import gammaln

        log_w = even * math.log(a2) - gammaln(even + 1.0)
    else:
        log_w = np.where(even == 0, 0.0, -np.inf)
    head = float(np.exp(log_w).sum())
    leak = 1.0 - head / math.cosh(a2)
    if leak > LEAKAGE_TOL:
        raise TruncationError(
            f"even cat alpha={alpha} leaks {leak:.3e} above level {space.dim - 1}"
        )
    amp = np.zeros(space.dim, dtype=np.complex128)
    amp[even] = np.exp((log_w - log_w.max()) / 2.0)
    return _pure(amp)


def thermal_state(space: FockSpace, nbar: float) -> DensityOperator:
    """Geometric (thermal) mixture with untruncated mean occupation nbar."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and non-negative, got {nbar!r}")
    q = nbar / (1.0 + nbar)
    leak = q ** space.dim  # exact geometric tail
    if leak > LEAKAGE_TOL:
        raise TruncationError(
            f"thermal nbar={nbar} leaks {leak:.3e} above level {space.dim - 1}"
        )
    pops = q ** np.arange(space.dim)
    pops /= pops.sum()
    return DensityOperator(np.diag(pops).astype(np.complex128))


# ---------------------------------------------------------------------------
# oscillator eigenfunctions


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Table psi_0..psi_n_max of normalized Hermite functions at x.

    Upward recurrence psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1},
    within 1e-12 of scipy's eval_hermite for n <= 158 and |x| <= 25.  It runs
    in place in the table with one scratch row, rounding as the expression
    (sqrt(2/(n+1)) x) psi_n - sqrt(n/(n+1)) psi_{n-1} does.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((n_max + 1,) + x.shape, dtype=np.float64)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    row = np.empty_like(x)
    for n in range(1, n_max):
        new = out[n + 1, ...]  # a view even where x is a scalar
        np.multiply(math.sqrt(2.0 / (n + 1)), x, out=row)
        np.multiply(row, out[n], out=new)
        np.multiply(math.sqrt(n / (n + 1.0)), out[n - 1], out=row)
        np.subtract(new, row, out=new)
    return out


# ---------------------------------------------------------------------------
# figures of merit


def entropy(state: DensityOperator) -> float:
    """Von Neumann entropy -Tr rho ln rho, with 0 ln 0 = 0, clipped at +0.0
    (a pure state sums to -0.0, or below it by rounding).  Eigenvalues
    within dim * eps of 0 or 1 are rounding and add nothing, so a pure
    state gives exactly 0."""
    evals = np.linalg.eigvalsh(_state_matrix(state))
    tol = evals.size * np.finfo(np.float64).eps
    p = evals[(evals > tol) & (evals < 1.0 - tol)]
    s = float(-(p * np.log(p)).sum())
    return s if s > 0.0 else 0.0


def delta_rho(a: DensityOperator, b: DensityOperator) -> float:
    """Summed squared moduli of the element-wise density-matrix difference."""
    return float(np.sum(np.abs(_state_matrix(a) - _state_matrix(b)) ** 2))


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity of two density matrices; <psi|rho_b|psi> when rho_a
    is pure, psi its top eigenvector (eigenvalue within 1e-10 of 1)."""
    ma, mb = _state_matrix(a), _state_matrix(b)
    evals, vecs = np.linalg.eigh(ma)
    if evals[-1] >= 1.0 - 1e-10:
        psi = vecs[:, -1]
        return float(np.real(psi.conj() @ mb @ psi))
    sqrt_a = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(sqrt_a @ mb @ sqrt_a)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def expectation(state: DensityOperator, operator) -> float:
    """Real expectation value Tr rho O of a Hermitian operator."""
    return float(np.real(np.sum(_state_matrix(state).T * np.asarray(operator, dtype=complex))))
