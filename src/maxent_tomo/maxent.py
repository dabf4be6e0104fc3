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

import functools
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .hilbert import DensityOperator, _one_thread_load, entropy
from .measurement import ObservableSet

CONVERGED_DF = 1e-14
# relative-gradient stop |grad dF|inf <= REL_GRAD_TOL * dF (Dennis & Schnabel
# 1983, sec. 7.2); 1e-5 stopped a rounding-perturbed exact fit on a plateau
REL_GRAD_TOL = 1e-6
# the package's own stop messages; a run that ends past none of the others found
# no lower dF (ftol = 0): a stall
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
    return np.linalg.eigh(0.5 * (a + a.conj().T))


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
        ratio = np.expm1(np.clip(de, -0.5, 0.5)) / de
        narrow = q[:, None] * np.where(de == 0.0, 1.0, ratio)
    return np.where(small, narrow, wide)


def _mean_jacobian(d: np.ndarray, v: np.ndarray, observables: ObservableSet, groups):
    """At the spectrum (d, v) of A, the means m = <H> of the operators of the
    reduced ``groups`` of ``observables.span()`` and their Jacobian in y = C
    lambda, J_E = m m^T - F^T F, minus the Kubo-Mori covariance: F packs
    Ht = V+ H V at phi/Z > 0, and its diagonal rows times sqrt(q/Z) are m.
    The set's means are C^T m, their Jacobian C^T J_E C, dF's gradient 2 J^T W r."""
    e, q, z, _ = _gibbs(d, v)
    packed = observables.packed_transformed(v, _phi_kernel(e, q) / z, groups)
    model = np.sqrt(q / z) @ packed[:len(q)]
    return model, np.outer(model, model) - packed.T @ packed


def _lm_normal(d: np.ndarray, v: np.ndarray, observables: ObservableSet, groups, root):
    """J_E Q J_E at the spectrum (d, v) of A, for Q = C W C^T = root root^T and
    (C, groups) = ``observables.span()``: J W J = C^T (J_E Q J_E) C."""
    scaled = _mean_jacobian(d, v, observables, groups)[1] @ root
    return scaled @ scaled.T


def _lm_step(normal: np.ndarray, c: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """-(C^T N C + mu I)^-1 g, g = J^T W r in range(C^T): C^T y, (N + mu I) y = -C g."""
    return c.T @ np.linalg.solve(normal + mu * np.eye(len(normal)), -(c @ g))


def _stop(f: float, grad: np.ndarray, grad_tol: float) -> str | None:
    """The name of the first convergence test that dF ``f`` and its gradient
    pass, in the order floor, relative gradient, gradient (L-BFGS-B's own
    ``<=``), or None: every converged verdict of ``fit`` comes from here."""
    ginf = np.max(np.abs(grad))
    if f < CONVERGED_DF:
        return FLOOR_STOP
    if ginf <= REL_GRAD_TOL * f:
        return RELATIVE_STOP
    return GRADIENT_STOP.format(grad_tol) if ginf <= grad_tol else None


def _relation_bound(observables: ObservableSet, c: np.ndarray) -> float:
    """A lower bound on dF over all multipliers, from the means alone: the
    model means C^T <H>, (C, groups) = ``observables.span()``, lie in the
    range of C^T, so dF >= min(w) |g - C^T C g|^2.  Exact data give it at
    rounding level (5e-30 to 2e-26 for four states at dimension 16), as do
    all data where C is square (no group has more bases than it spans, so
    the means obey no relation); noise breaks the relations.  A span that
    misses part of the range only overstates the bound, and the fit then
    takes the L-BFGS path."""
    g = observables.means
    return float(np.min(observables.weights)) * float(np.sum((g - c.T @ (c @ g)) ** 2))


def _lm_probe(observables: ObservableSet, grad_tol: float, max_steps: int, span: tuple):
    """Levenberg-Marquardt from lambda = 0 (Madsen, Nielsen & Tingleff 2004,
    sec. 3.2), every trial point one iteration evaluated by ``deviation``:
    (x, dF, gradient, iterations, stop) once ``_stop`` names the floor or
    the gradient test, ``lm: `` before the name unless lambda = 0 passed
    it; None, a decline, once it names the relative-gradient test, dF fell
    less than 10x in 10 iterations, mu overflows or ``max_steps`` trial
    points were tried.  It reads nothing but the set, so it gives the same
    answer wherever ``fit`` runs it.  An accepted step divides the damping
    mu by 5, Marquardt's fixed decrease (SIAM J. Appl. Math. 11, 431,
    1963); a rejected one multiplies it by nu = 2, 4, 8, ...  Exact data
    end in 21-24 steps, where Nielsen's gain-ratio rule took 53-80.  Steps
    are solved in the span of the bases (``_lm_step``: 125 unknowns, not
    205, at dimension 16), equal to the full-space ones in exact
    arithmetic; an accepted point's eigh is reused.  ``span`` is
    ``observables.span()``, which ``fit`` makes once for the bound and this."""
    c, groups = span
    root = np.linalg.cholesky((c * observables.weights) @ c.T)
    x = np.zeros(observables.n_ops)
    spectrum = _spectrum(x, observables)
    f, grad = _deviation_terms(*spectrum, observables)  # deviation(x), bit for bit
    history, mu, nu, normal = [f], 0.0, 2.0, None  # mu is set from the first J W J
    while True:
        stop, steps = _stop(f, grad, grad_tol), len(history) - 1
        if stop not in (None, RELATIVE_STOP):
            return x, f, grad, steps, "lm: " + stop if steps else stop
        if (stop or not math.isfinite(mu) or steps >= max_steps
                or (steps >= 10 and history[-11] < 10.0 * f)):
            return None
        if normal is None:
            normal = _lm_normal(*spectrum, observables, groups, root)
            mu = mu or 1e-6 * np.max(np.sum(c * (normal @ c), axis=0))  # diag(J W J)
        g = 0.5 * grad  # J^T W r
        step = _lm_step(normal, c, g, mu)
        trial = _spectrum(x + step, observables)
        f_new, grad_new = _deviation_terms(*trial, observables)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # mu may overflow: a decline
            gain = (f - f_new) / (step @ (mu * step - g))
            if gain > 0:
                x, f, grad, spectrum, normal = x + step, f_new, grad_new, trial, None
                mu, nu = mu / 5.0, 2.0
            else:
                mu, nu = mu * nu, 2.0 * nu
        history.append(f)


# ---------------------------------------------------------------------------
# fitting


SCIPY_FLOOR = "scipy>=1.15"  # its C port of L-BFGS-B has this calling sequence:
SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


@functools.cache
def _optimize_extension(name: str):
    """scipy.optimize's compiled module ``name``, loaded from its file alone:
    scipy/optimize/__init__.py (0.5 s of imports) never runs."""
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        f"scipy.optimize.{name}")
    if spec is None:
        raise ImportError(f"no compiled scipy.optimize.{name} in {folder}")
    with _one_thread_load():  # module_from_spec, not exec_module, opens the library
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    if name == "_lbfgsb" and not (module.setulb.__doc__ or "").startswith(SETULB):
        raise ImportError(f"maxent-tomo needs {SCIPY_FLOOR}, whose L-BFGS-B is {SETULB}")
    return module


def minimize(fun, x0, *, on_iterate, maxcor, gtol, maxls):
    """Unbounded L-BFGS-B on the compiled ``setulb`` in scipy's own
    reverse-communication loop, without importing scipy.optimize: the
    iterates of ``scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B")`` at ftol = 0, bit for bit.  ``fun(x)`` returns
    (f, gradient), evaluated once per distinct x; ``on_iterate(x, f)`` runs
    at each new iterate, and returning True stops the run there.  Returns
    (x, f, gradient, iterations), f and the gradient from the last
    evaluation."""
    setulb = _optimize_extension("_lbfgsb").setulb
    x = np.array(x0, dtype=np.float64).ravel()
    n, m = x.size, maxcor
    f, g, x_f = 0.0, np.zeros(n), None  # the last evaluation, and where
    free, nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd 0: no bound on any variable
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave = (np.zeros(k, np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    nit = 0
    while True:
        setulb(m, x, free, free, nbd, f, g, 0.0, gtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # f and g at x; an unchanged x reuses the last evaluation
            if x_f is None or not np.array_equal(x, x_f):
                x_f = x.copy()
                f, g = fun(x.copy())
                g = np.array(g, dtype=np.float64)
        elif task[0] == 1:  # a new iterate
            nit += 1
            if on_iterate(x, f):
                task[:] = 5, 505  # STOP, and one more call to end the run
        else:
            return x, f, g, nit


def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS that scipy's L-BFGS-B
    uses, or None where scipy links some other BLAS (MKL, Accelerate, a
    system library) or the library lacks the two symbols.

    Loads ``_lbfgsb`` first, which links that OpenBLAS: the lookup below
    only finds a copy already in the process."""
    import ctypes
    import glob

    import scipy

    _optimize_extension("_lbfgsb")
    # the wheels bundle it in scipy.libs, next to the scipy package
    folder = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(glob.escape(folder), "libscipy_openblas*"))):
        try:
            # RTLD_NOLOAD: only the copy already in the process, never a new one
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
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

    scipy's OpenBLAS, loaded by the package, starts at one thread
    (``_one_thread_load``) and this does nothing.  It guards a pool started
    before, by an import of scipy.linalg say, whose spinning workers starve
    L-BFGS-B's many tiny BLAS calls and numpy's own BLAS (a separate
    library, left alone here).  The count is global to the process, so
    nested and concurrent entries share one cap: the first entry saves the
    count, the last exit restores it.  ``locate`` must load the library
    before looking it up; where it finds none, entering does nothing."""

    def __init__(self, locate):
        self._locate = functools.cache(locate)  # looked up on the first entry only
        self._lock = threading.Lock()
        self._users = self._saved = 0

    def __enter__(self):
        with self._lock:
            lib = self._locate()
            if lib is not None and self._users == 0:
                get, put = lib
                self._saved = get()
                put(1)
            self._users += 1

    def __exit__(self, *exc):
        with self._lock:
            self._users -= 1
            if self._users == 0 and (lib := self._locate()) is not None:
                lib[1](self._saved)


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
    maximally mixed state).  One rule, ``_stop``, names every converged
    stop, at each iterate, in the probe and at the point the run returns:
    dF below ``CONVERGED_DF`` (1e-14), else the gradient's sup-norm at or
    below ``REL_GRAD_TOL`` (1e-6) times dF, else at or below ``grad_tol``
    (L-BFGS-B's own test).  Exact data drive dF to 0 and stop on the first
    or the last; noisy data leave it a positive floor, where the relative
    test stops the fit instead of walking the flat valley around it.  Each
    fit runs at most one Levenberg-Marquardt probe from lambda = 0, before
    L-BFGS, which ends exact fits, whose multipliers L-BFGS chases to
    infinity for thousands of iterations, once it meets the floor or the
    gradient test (message ``lm: ...``; ``iterations`` counts its steps, and
    L-BFGS never starts: 23 on acceptance 1).  It declines on the signs of
    noisy data (the relative test passes, dF falls less than 10x in 10
    iterations, or its damping overflows), where its minimum would overfit
    the noise, and a declined probe leaves L-BFGS as it was.  It runs, for
    at most ``max_iter`` steps, where the lower bound on dF that
    ``_relation_bound`` reads off the means lies below ``CONVERGED_DF``, or
    ``REL_GRAD_TOL`` times it below ``grad_tol``.  Elsewhere it could not
    accept: no point reaches the floor, and a gradient at or below
    ``grad_tol`` passes the relative test first.  Where the bins obey no
    linear relation the bound is 0 to rounding, so the probe runs.  It
    moves no bit of a fit it does not end, but data it declines pay for it:
    18 evaluations or about 0.02 s at dimension 16 with 205 observables, and
    15 evaluations or 0.45-1.2 s at dimension 48 with 409-809.  A run that
    ends where no test passes is named by the iteration cap (``max_iter``
    L-BFGS iterations; a declined probe's steps do not count), the
    evaluation cap (more than 3 ``max_iter`` evaluations) or a stall
    (``STALL_STOP``: a step that did not lower dF, or a failed line
    search), and returned with ``converged=False`` rather than raised or
    rerun (L-BFGS runs once), so callers can inspect the partial result.
    ``grad_tol`` must be finite and positive and ``max_iter`` an integer of
    at least 1 (ValueError otherwise).

    scipy's compiled L-BFGS-B, without scipy.optimize, and the OpenBLAS it
    links are loaded on the first fit in the process that runs L-BFGS.  Unless the process
    loaded that OpenBLAS before or set OPENBLAS_, GOTO_ or OMP_NUM_THREADS,
    it starts at one thread: its worker pool never exists, and scipy's BLAS
    stays at one thread after the fit.  Against a pool started elsewhere,
    each L-BFGS run holds that OpenBLAS at one thread and then restores the
    count it found (a no-op for other BLAS builds); concurrent fits share
    that cap, and other scipy BLAS work meanwhile runs on one thread too.
    numpy's BLAS threads are not touched.
    """
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise ValueError(f"grad_tol must be finite and positive, got {grad_tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
            and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    data = _require_means(observables)

    grad = None  # gradient of the last evaluation
    evals = iterations = 0

    def objective(x):
        nonlocal grad, evals
        evals += 1
        f, grad = deviation(x, observables)
        return f, grad

    def on_iterate(x, f):
        # L-BFGS-B evaluates each accepted point last, so grad belongs to it
        nonlocal iterations
        iterations += 1
        return bool(_stop(f, grad, grad_tol) or iterations >= max_iter or evals > 3 * max_iter)

    lm = None  # the probe's answer, if it runs and accepts
    span = observables.span()
    bound = _relation_bound(observables, span[0])
    if bound < CONVERGED_DF or REL_GRAD_TOL * bound < grad_tol:  # else the probe must decline
        lm = _lm_probe(observables, grad_tol, max_iter, span)
    if lm is None:
        with _SCIPY_BLAS:
            x, f_res, jac, nit = minimize(objective, np.zeros(observables.n_ops),
                                          on_iterate=on_iterate, maxcor=30, gtol=grad_tol,
                                          maxls=60)
    x, f_res, jac, nit, stop = lm or (x, float(f_res), jac, nit, _stop(f_res, jac, grad_tol))
    message = stop or (ITERATION_STOP.format(max_iter) if nit >= max_iter
                       else EVALUATION_STOP.format(3 * max_iter) if evals > 3 * max_iter
                       else STALL_STOP)
    ginf = float(np.max(np.abs(jac)))

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
        iterations=nit,
        converged=stop is not None,
        residuals=model - data,
        grad_inf_norm=ginf,
        message=message,
    )
    return state, report
