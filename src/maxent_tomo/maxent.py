"""Maximum-entropy state reconstruction on a fixed observation level.

The reconstructed state is the canonical form
    rho(lambda) = exp(-sum_nu lambda_nu G_nu) / Z(lambda),
which is Hermitian, positive and unit trace for any real multipliers, so
positivity never needs to be imposed by hand.  The multipliers are fixed by
minimizing the deviation functional

    dF(lambda) = sum_nu w_nu (Tr[rho(lambda) G_nu] - g_nu)^2,

the weighted squared mismatch between the model means and the measured
means g_nu.  For data consistent with some density operator the minimum is
dF = 0 and rho is the maximum-entropy state reproducing the data; for
noisy data the minimum stays positive and rho is the closest canonical
state in the dF sense.

The gradient of dF needs the derivative of the matrix exponential, which
in the eigenbasis of A = sum lambda_nu G_nu is a Hadamard product with the
divided-difference kernel phi(x, y) = (e^x - e^y)/(x - y) (Daleckii-Krein).
Everything below works with a spectral shift so only decaying
exponentials are ever formed.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .hilbert import DensityOperator, _eigh, entropy
from .measurement import ObservableSet

__all__ = [
    "LagrangeVector",
    "CanonicalState",
    "FitReport",
    "MissingMeans",
    "canonical_state",
    "deviation",
    "fit",
]

CONVERGED_DF = 1e-14
# restarts from a jitter of the best point after a stalled L-BFGS run
MAX_RESTARTS = 3


class MissingMeans(ValueError):
    """The observable set has no (or incomplete) target means."""


@dataclass(frozen=True)
class LagrangeVector:
    """Multipliers in the standard layout: one per (rotation, bin) plus one
    for the number operator.  ``lambda_bins`` may be empty for sets without
    bin observables."""

    lambda_n: float
    lambda_bins: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.lambda_bins, dtype=np.float64)
        if bins.ndim != 2:
            raise ValueError("lambda_bins must be 2-D (rotations x bins)")
        if not (np.isfinite(self.lambda_n) and np.all(np.isfinite(bins))):
            raise ValueError("multipliers must be finite")
        object.__setattr__(self, "lambda_bins", bins)
        object.__setattr__(self, "lambda_n", float(self.lambda_n))

    @classmethod
    def from_flat(cls, flat: np.ndarray, bin_shape: tuple) -> "LagrangeVector":
        flat = np.asarray(flat, dtype=np.float64)
        return cls(float(flat[-1]), flat[:-1].reshape(bin_shape))

    def flat(self) -> np.ndarray:
        """Bin multipliers row-major, then lambda_n, matching the operator
        ordering of sets built by build_observation_level."""
        return np.concatenate([self.lambda_bins.ravel(), [self.lambda_n]])


def _flat_lambdas(lambdas, observables: ObservableSet) -> np.ndarray:
    if isinstance(lambdas, LagrangeVector):
        vec = lambdas.flat()
    else:
        vec = np.asarray(lambdas, dtype=np.float64).ravel()
    if vec.size != observables.n_ops:
        raise ValueError(
            f"{vec.size} multipliers for {observables.n_ops} observables"
        )
    return vec


@dataclass(frozen=True)
class CanonicalState:
    """exp(-A)/Z for A = sum lambda_nu G_nu, with its spectral data cached."""

    rho: DensityOperator
    log_partition: float
    lambdas: object
    _eigvals: np.ndarray = field(repr=False, compare=False, default=None)
    _eigvecs: np.ndarray = field(repr=False, compare=False, default=None)


def _spectrum(vec: np.ndarray, observables: ObservableSet):
    """Ascending eigenpairs of the exponent A = sum_nu vec_nu G_nu."""
    a = observables.combine(vec)
    return _eigh(0.5 * (a + a.conj().T))


def _gibbs(d: np.ndarray, v: np.ndarray):
    """Boltzmann factors q = exp(-e) of the shifted spectrum e = d - min(d),
    their sum z and rho = V diag(q/z) V+, not re-symmetrized."""
    e = d - d[0]  # eigh sorts ascending, d[0] is the minimum
    q = np.exp(-e)
    z = q.sum()
    return e, q, z, (v * (q / z)) @ v.conj().T


def _deviation_terms(d: np.ndarray, v: np.ndarray, observables: ObservableSet):
    """dF and its gradient at the spectrum (d, v) of A: the one evaluation
    the fit minimizes and ``deviation`` reports.

    The gradient is assembled from <G_mu> and Tr[G_mu V (phi o (V+ R V)) V+]/Z
    with R = sum_nu w_nu r_nu G_nu the weighted residual operator; the
    observable set makes all three contractions (model means, R and the
    gradient term)."""
    e, q, z, rho = _gibbs(d, v)
    model = observables.expectations(rho)
    r = model - observables.means
    wr = observables.weights * r
    f = float(np.dot(wr, r))
    rt = v.conj().T @ observables.combine(wr) @ v
    shat = v @ (rt * _phi_kernel(e, q)) @ v.conj().T
    term = observables.expectations(shat)
    return f, 2.0 * (np.dot(wr, model) * model - term / z)


def canonical_state(lambdas, observables: ObservableSet) -> CanonicalState:
    """Build the canonical state for the given multipliers.

    The exponent is diagonalized and shifted by its lowest eigenvalue before
    exponentiation, so arbitrarily large multipliers only underflow harmlessly.
    log_partition is ln Tr exp(-A) for the unshifted A.
    """
    d, v = _spectrum(_flat_lambdas(lambdas, observables), observables)
    rho = _gibbs(d, v)[3]
    return CanonicalState(
        rho=DensityOperator(0.5 * (rho + rho.conj().T)),
        log_partition=float(logsumexp(-d)),
        lambdas=lambdas,
        _eigvals=d,
        _eigvecs=v,
    )


def _require_means(observables: ObservableSet) -> np.ndarray:
    if observables.means is None or not np.all(np.isfinite(observables.means)):
        raise MissingMeans("observable set has unset target means")
    return observables.means


def deviation(state: CanonicalState, observables: ObservableSet) -> tuple[float, np.ndarray]:
    """Weighted squared mismatch between model and target means, and its
    gradient with respect to the multipliers, flat in the operator order of
    the set."""
    _require_means(observables)
    return _deviation_terms(state._eigvals, state._eigvecs, observables)


def _phi_kernel(e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Divided differences (q_a - q_b)/(e_b - e_a) for q = exp(-e), with the
    confluent limit q_a on the diagonal; expm1 form where gaps are small."""
    de = e[:, None] - e[None, :]
    small = np.abs(de) < 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = (q[:, None] - q[None, :]) / (-de)
        ratio = np.expm1(np.clip(de, -0.5, 0.5))
        np.divide(ratio, de, out=ratio, where=~np.eye(len(e), dtype=bool))
        narrow = q[:, None] * np.where(de == 0.0, 1.0, ratio)
    return np.where(small, narrow, wide)


# ---------------------------------------------------------------------------
# fitting


def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS that scipy has loaded,
    or None where scipy links some other BLAS (MKL, Accelerate, a system
    library) or the library lacks the two symbols."""
    import ctypes

    import scipy

    # the wheels bundle it in scipy.libs, next to the scipy package
    folder = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    try:
        names = sorted(os.listdir(folder))
    except OSError:
        return None
    for name in names:
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            # RTLD_NOLOAD: only the copy already in the process, never a new one
            lib = ctypes.CDLL(os.path.join(folder, name), mode=getattr(os, "RTLD_NOLOAD", 0))
            get = lib.scipy_openblas_get_num_threads
            put = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Context manager holding a BLAS at one thread while any fit is inside
    it, then restoring the count found on entry.

    scipy's L-BFGS-B makes many tiny BLAS calls; with more than one thread
    the pool's spinning workers starve the main thread and numpy's own BLAS
    (a separate library, left alone here).  The thread count is global to
    the process, so nested and concurrent entries share one cap: the first
    entry saves the count, the last exit restores it.  The library is
    looked up on the first entry; where ``locate`` finds none, entering
    does nothing."""

    def __init__(self, locate):
        self._locate = locate
        self._lock = threading.Lock()
        self._lib = None
        self._looked = False
        self._users = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if not self._looked:
                self._lib, self._looked = self._locate(), True
            if self._lib is not None and self._users == 0:
                get, put = self._lib
                self._saved = get()
                put(1)
            self._users += 1

    def __exit__(self, *exc):
        with self._lock:
            self._users -= 1
            if self._lib is not None and self._users == 0:
                self._lib[1](self._saved)


_SCIPY_BLAS = _OneBlasThread(_scipy_openblas)


@dataclass
class FitReport:
    """Outcome of one reconstruction: deviation at the optimum, entropy and
    mean occupation of the fitted state, iteration counts and residuals."""

    delta_f: float
    entropy: float
    nbar_fit: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    grad_inf_norm: float
    restarts: int
    message: str = ""
    history: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "delta_f": self.delta_f,
            "entropy": self.entropy,
            "nbar_fit": self.nbar_fit,
            "iterations": self.iterations,
            "converged": self.converged,
            "residuals": [float(x) for x in np.asarray(self.residuals)],
            "grad_inf_norm": self.grad_inf_norm,
            "restarts": self.restarts,
            "message": self.message,
        }


def fit(
    observables: ObservableSet,
    *,
    max_iter: int = 20000,
    grad_tol: float = 1e-9,
) -> tuple[CanonicalState, FitReport]:
    """Minimize the deviation functional over the multipliers.

    L-BFGS with the analytic gradient, starting from lambda = 0 (the
    maximally mixed state).  Convergence means either the sup-norm of the
    gradient fell below ``grad_tol`` or the deviation itself is below 1e-14.
    On stagnation the search restarts from a jitter of the best point
    (seed 0), at most ``MAX_RESTARTS`` times; a fit that still fails is
    returned with ``converged=False`` rather than raised, so callers can
    inspect the partial result.

    Each L-BFGS run holds the OpenBLAS that scipy bundles at one thread and
    then restores the count it found (a no-op for other BLAS builds).  That
    count is global to the process: fits running concurrently in several
    Python threads share one cap, which lasts until the last of them leaves
    the optimizer, and other scipy BLAS work in the process meanwhile runs
    on one thread too.  numpy's BLAS threads are not touched.
    """
    data = _require_means(observables)

    def fg(lam):
        return _deviation_terms(*_spectrum(lam, observables), observables)

    x0 = np.zeros(observables.n_ops)
    history: list = []

    def callback(intermediate_result):
        f = float(intermediate_result.fun)
        history.append(f)
        if f < CONVERGED_DF:
            # deviation at its floor; the gradient test cannot add anything
            raise StopIteration

    rng = np.random.default_rng(0)
    best = None
    total_iter = 0
    for attempt in range(MAX_RESTARTS + 1):
        with _SCIPY_BLAS:
            res = minimize(
                fg, x0, jac=True, method="L-BFGS-B", callback=callback,
                options={
                    "maxiter": max_iter, "maxfun": 3 * max_iter,
                    "ftol": 0.0, "gtol": grad_tol, "maxcor": 30, "maxls": 60,
                },
            )
        total_iter += int(res.nit)
        f_res = float(res.fun)
        ginf = float(np.max(np.abs(res.jac)))
        converged = ginf < grad_tol or f_res < CONVERGED_DF
        # a converged attempt is the answer even if an earlier, unconverged
        # one stalled at a lower deviation
        if converged or best is None or f_res < best[1]:
            best = (res.x.copy(), f_res, ginf, str(res.message))
        if converged:
            break
        if attempt < MAX_RESTARTS:
            x0 = best[0] + 0.05 * rng.standard_normal(best[0].size) * (1.0 + np.abs(best[0]))

    x_best, f_best, ginf_best, message = best
    if observables.bin_shape is not None:
        lam_out = LagrangeVector.from_flat(x_best, observables.bin_shape)
    else:
        lam_out = x_best
    state = canonical_state(lam_out, observables)
    model = observables.expectations(state.rho.matrix)
    nbar_idx = observables.nbar_index
    nbar_fit = float(model[nbar_idx]) if nbar_idx is not None else float("nan")
    report = FitReport(
        delta_f=f_best,
        entropy=entropy(state.rho),
        nbar_fit=nbar_fit,
        iterations=total_iter,
        converged=converged,
        residuals=model - data,
        grad_inf_norm=ginf_best,
        restarts=attempt,
        message=message,
        history=history,
    )
    return state, report
