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

import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

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
# relative-gradient stop |grad dF|inf <= REL_GRAD_TOL * dF (Dennis & Schnabel
# 1983, sec. 7.2); 1e-5 stopped a rounding-perturbed exact fit on a plateau
REL_GRAD_TOL = 1e-6
# the package's own stop messages; L-BFGS-B's status 1 is either cap, and 2, or
# 0 without the gradient test (under ftol = 0 no lower dF), is a stall
FLOOR_STOP = f"deviation floor: dF < {CONVERGED_DF:g}"
GRADIENT_STOP = "gradient: |grad dF|inf < {:g}"
RELATIVE_STOP = f"relative gradient: |grad dF|inf <= {REL_GRAD_TOL:g} dF"
ITERATION_STOP = "iteration cap: {} iterations"
EVALUATION_STOP = "evaluation cap: {} evaluations"
STALL_STOP = "stalled line search: no lower dF along the search direction"


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
    """exp(-A)/Z for A = sum lambda_nu G_nu."""

    rho: DensityOperator
    log_partition: float
    lambdas: object


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
    """dF and its gradient at the spectrum (d, v) of A.

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
    _, _, z, rho = _gibbs(d, v)
    return CanonicalState(
        rho=DensityOperator(0.5 * (rho + rho.conj().T)),
        log_partition=float(-d[0] + np.log(z)),
        lambdas=lambdas,
    )


def _require_means(observables: ObservableSet) -> np.ndarray:
    if observables.means is None or not np.all(np.isfinite(observables.means)):
        raise MissingMeans("observable set has unset target means")
    return observables.means


def deviation(lambdas, observables: ObservableSet) -> tuple[float, np.ndarray]:
    """Weighted squared mismatch between model and target means at the
    multipliers, and its gradient with respect to them, flat in the operator
    order of the set: the objective ``fit`` minimizes."""
    _require_means(observables)
    vec = _flat_lambdas(lambdas, observables)
    return _deviation_terms(*_spectrum(vec, observables), observables)


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


def _mean_jacobian(lambdas, observables: ObservableSet) -> tuple[np.ndarray, np.ndarray]:
    """Model means <G_mu> and their Jacobian d<G_mu>/d lambda_nu =
    <G_mu><G_nu> - sum_ab conj(Gt_mu)_ab phi_ab (Gt_nu)_ab / Z with Gt = V+ G V,
    minus the Kubo-Mori covariance; dF's gradient is 2 J^T W r.  J = m m^T -
    F^T F with F the Gt packed at the kernel phi/Z > 0, whose diagonal rows
    times sqrt(q/Z) are the means."""
    d, v = _spectrum(_flat_lambdas(lambdas, observables), observables)
    e, q, z, _ = _gibbs(d, v)
    packed = observables.packed_transformed(v, _phi_kernel(e, q) / z)
    model = np.sqrt(q / z) @ packed[:len(q)]
    return model, np.outer(model, model) - packed.T @ packed


def _lm_probe(observables: ObservableSet, grad_tol: float):
    """Levenberg-Marquardt from lambda = 0 (Madsen, Nielsen & Tingleff 2004,
    sec. 3.2), every trial point one iteration evaluated by ``deviation``:
    (x, dF, gradient, iterations, stop) once dF < CONVERGED_DF or |grad
    dF|inf < grad_tol; None, a decline, once the relative-gradient test
    passes, dF fell less than 10x in 10 iterations or mu overflows.  An
    accepted step divides the damping mu by 5, Marquardt's fixed decrease
    (SIAM J. Appl. Math. 11, 431, 1963); a rejected one multiplies it by
    nu = 2, 4, 8, ...  Exact data end in 21-24 steps, where Nielsen's
    gain-ratio rule took 53-80."""
    x = np.zeros(observables.n_ops)
    f, grad = deviation(x, observables)
    history, mu, nu, normal = [f], 0.0, 2.0, None  # mu is set from the first J W J
    while True:
        ginf = np.max(np.abs(grad))
        if f < CONVERGED_DF or ginf < grad_tol:
            stop = FLOOR_STOP if f < CONVERGED_DF else GRADIENT_STOP.format(grad_tol)
            return x, f, grad, len(history) - 1, "lm: " + stop
        if (ginf <= REL_GRAD_TOL * f or not math.isfinite(mu)
                or (len(history) > 10 and history[-11] < 10.0 * f)):
            return None
        if normal is None:
            scaled = _mean_jacobian(x, observables)[1] * np.sqrt(observables.weights)
            normal = scaled @ scaled.T  # J W J, J symmetric
            mu = mu or 1e-6 * np.max(np.diag(normal))
        g = 0.5 * grad  # J^T W r
        step = np.linalg.solve(normal + mu * np.eye(len(x)), -g)
        f_new, grad_new = deviation(x + step, observables)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # mu may overflow: a decline
            gain = (f - f_new) / (step @ (mu * step - g))
            if gain > 0:
                x, f, grad, normal = x + step, f_new, grad_new, None
                mu, nu = mu / 5.0, 2.0
            else:
                mu, nu = mu * nu, 2.0 * nu
        history.append(f)


# ---------------------------------------------------------------------------
# fitting


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call so that commands
    which never fit do not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS that scipy's optimizer
    uses, or None where scipy links some other BLAS (MKL, Accelerate, a
    system library) or the library lacks the two symbols.

    Imports scipy.optimize first, which loads that OpenBLAS: the lookup
    below only finds a copy already in the process."""
    import ctypes

    import scipy.optimize

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
    looked up once, on the first entry, and ``locate`` must load it before
    looking: a lookup that runs before scipy's optimizer is imported finds
    nothing, and the cap would then stay off for the life of the process.
    Where ``locate`` finds none, entering does nothing."""

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
    mean occupation of the fitted state, iteration counts and residuals.
    ``restarts`` is always 0, since ``fit`` runs L-BFGS once; the field and
    its ``report.json`` key stay because the benchmark (``perfbench``,
    ``BENCHMARK.json``) records it as ``maxent.restarts``."""

    delta_f: float
    entropy: float
    nbar_fit: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    grad_inf_norm: float
    restarts: int = 0
    message: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "residuals": [float(x) for x in np.asarray(self.residuals)]}


def fit(
    observables: ObservableSet,
    *,
    max_iter: int = 20000,
    grad_tol: float = 1e-9,
) -> tuple[CanonicalState, FitReport]:
    """Minimize the deviation functional over the multipliers.

    L-BFGS with the analytic gradient, starting from lambda = 0 (the
    maximally mixed state).  Convergence means one of three tests passed at
    an iterate: the sup-norm of the gradient fell below ``grad_tol``; the
    deviation itself fell below ``CONVERGED_DF`` (1e-14); or the sup-norm
    of the gradient fell to ``REL_GRAD_TOL`` (1e-6) times the deviation.
    Exact data drive the deviation to 0 and stop on one of the first two;
    noisy data leave it a positive floor, and the third stops the fit there
    instead of walking the flat valley around it.  Each fit gets at most one
    Levenberg-Marquardt probe, from lambda = 0, when L-BFGS reaches
    iteration max(n_ops, 30) or, earlier, an iteration from 60 on at which
    dF has fallen at least 10x over the last 30 (one L-BFGS memory).  Exact
    data fall that fast, and the probe ends their fits, whose multipliers
    L-BFGS chases to infinity for thousands of iterations, once it meets
    one of the first two tests (message ``lm: ...``; ``iterations`` counts
    both methods, 60 + 23 on acceptance 1).  It declines on the signs of noisy data (the third test
    passes, dF falls less than 10x in 10 iterations, or its damping
    overflows), and L-BFGS goes on with its memory intact, so noisy fits
    keep their bits rather than take the probe's minimum, which overfits
    the noise.  Nearly noise-free data can reach the early trigger and pay
    for a declined probe, 7-22 Jacobians or about 0.03-0.07 s at dimension
    16 with 205 observables.  The report's message names the stop in the
    package's words: the three tests, the probe (``lm: ...``), the
    iteration cap, the evaluation cap (3 ``max_iter``) and a stall
    (``STALL_STOP``: a step that did not lower dF, or a failed line
    search); any other end of L-BFGS-B keeps scipy's text after
    ``L-BFGS-B: ``.  ``max_iter`` caps the L-BFGS iterations; the probe's
    steps count on top.  L-BFGS runs once: a fit that ends on a cap or a
    stall is returned with ``converged=False`` rather than raised or
    rerun, so callers can inspect the partial result.  ``grad_tol`` must
    be finite and positive and ``max_iter`` an integer of at least 1
    (ValueError otherwise).

    scipy's optimizer and the OpenBLAS it bundles are loaded on the first
    fit in the process, and the thread cap looks the library up right after
    that.  Each L-BFGS run holds that OpenBLAS at one thread and then
    restores the count it found (a no-op for other BLAS builds).  That
    count is global to the process: fits running concurrently in several
    Python threads share one cap, which lasts until the last of them leaves
    the optimizer, and other scipy BLAS work in the process meanwhile runs
    on one thread too.  numpy's BLAS threads are not touched.
    """
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise ValueError(f"grad_tol must be finite and positive, got {grad_tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
            and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    data = _require_means(observables)

    grad = None  # gradient of the last evaluation
    stop = None  # the package's reason for ending the run early
    history = []  # dF at each iteration
    memory = 30  # the L-BFGS memory, maxcor
    probe_at = max(observables.n_ops, memory)
    max_fun = 3 * max_iter
    lm = None  # the probe's answer, once it accepts

    def objective(x):
        nonlocal grad
        f, grad = deviation(x, observables)
        return f, grad

    def callback(intermediate_result):
        # L-BFGS-B evaluates each accepted point last, so grad belongs to it
        nonlocal stop, probe_at, lm
        f = intermediate_result.fun
        history.append(f)
        it = len(history)
        if f < CONVERGED_DF:
            stop = FLOOR_STOP
        elif np.max(np.abs(grad)) <= REL_GRAD_TOL * f:
            stop = RELATIVE_STOP
        elif probe_at and (it == probe_at  # once per fit; a decline leaves L-BFGS as it was
                           or it >= 2 * memory and history[-memory - 1] >= 10.0 * f):
            probe_at, lm = None, _lm_probe(observables, grad_tol)
            stop = None if lm is None else lm[4]
        if stop is not None:
            raise StopIteration

    with _SCIPY_BLAS:
        res = minimize(
            objective, np.zeros(observables.n_ops), jac=True, method="L-BFGS-B",
            callback=callback,
            options={
                "maxiter": max_iter, "maxfun": max_fun,
                "ftol": 0.0, "gtol": grad_tol, "maxcor": memory, "maxls": 60,
            },
        )
    x, f_res, jac, lm_iter = (res.x, float(res.fun), res.jac, 0) if lm is None else lm[:4]
    ginf = float(np.max(np.abs(jac)))
    converged = ginf < grad_tol or f_res < CONVERGED_DF or stop is not None
    status = res.get("status")  # a stand-in minimizer may omit it
    if stop is not None:
        message = stop
    elif ginf < grad_tol:
        message = GRADIENT_STOP.format(grad_tol)
    elif status == 1:
        message = (ITERATION_STOP.format(max_iter) if res.nit >= max_iter
                   else EVALUATION_STOP.format(max_fun))
    elif status in (0, 2):
        message = STALL_STOP
    else:
        message = f"L-BFGS-B: {res.message}"

    if observables.bin_shape is not None:
        lam_out = LagrangeVector.from_flat(x, observables.bin_shape)
    else:
        lam_out = x
    state = canonical_state(lam_out, observables)
    model = observables.expectations(state.rho.matrix)
    nbar_idx = observables.nbar_index
    nbar_fit = float(model[nbar_idx]) if nbar_idx is not None else float("nan")
    report = FitReport(
        delta_f=f_res,
        entropy=entropy(state.rho),
        nbar_fit=nbar_fit,
        iterations=int(res.nit) + lm_iter,
        converged=converged,
        residuals=model - data,
        grad_inf_norm=ginf,
        message=message,
    )
    return state, report
