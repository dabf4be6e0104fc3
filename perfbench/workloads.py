"""The three workloads.

``exact-dim16`` and ``noisy-dim48`` call the library in this process: build
the observation level, simulate the record, fit, evaluate the Wigner
function.  ``cli-chain`` runs the README's command chain as child
processes, one after another.  A round is ``passes`` passes through the
workload, sized to take longer than the run length at default BLAS
threads, so every run makes the same number of passes; a faster program
makes more rounds.  Medians are taken over all passes of a run.

Every pass's outputs are checked against ``oracle``.  An operation that
raises, exits non-zero or reports a fit that did not converge counts as
failed; a wrong answer makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import oracle as orc
from tracing import Tracer, med

OMEGA_Z = 2.0 * math.pi * 80e3
TRAP = dict(omega_z=OMEGA_Z, dz0=22e-9, dv0=11e-3, be_time=8.7e-3)
TAUS_US = (0.0, 1.6, 3.2, 4.8)
CMD_TIMEOUT_S = 170


class OperationFailed(RuntimeError):
    """The program reported failure (non-zero exit, unconverged fit)."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    samples: dict = field(default_factory=dict)  # metric name -> values
    notes: list = field(default_factory=list)

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def wrong(self, msg):
        self.correct = False
        self.notes.append(f"CHECK FAILED: {msg}")


@dataclass(frozen=True)
class FitSpec:
    """An in-process workload: state, measurement geometry, fit options."""

    dim: int
    thetas: tuple
    half_count: int
    cloud_rms: float
    state: tuple  # ("superposition", coeffs) or ("even_cat", alpha)
    eta: float
    noise_seed: int
    grad_tol: float
    setups: int
    wigners: int
    passes: int
    min_fidelity: float
    max_entropy: float | None
    wigner_points: int

    @property
    def wigner_span(self) -> float:
        # reach of the highest Fock level kept, so the grid holds any state
        return math.sqrt(2.0 * self.dim - 1.0) + 3.0


@dataclass(frozen=True)
class ChainSpec:
    """The CLI chain: config values and check thresholds."""

    dim: int
    half_count: int
    eta: float
    noise_seed: int
    grad_tol: float
    pixels: int
    launches: int
    refits: int
    passes: int
    min_cut_fidelity: float
    wigner_points: int | None


FOUR_ROTATIONS = tuple(OMEGA_Z * t * 1e-6 for t in TAUS_US)

SPECS = {
    "exact-dim16": FitSpec(
        dim=16, thetas=FOUR_ROTATIONS, half_count=25, cloud_rms=60e-6,
        state=("superposition", (1.0, 1.0)), eta=0.0, noise_seed=0,
        grad_tol=1e-13, setups=16, wigners=10, passes=1, min_fidelity=0.999, max_entropy=1e-3,
        wigner_points=257,
    ),
    "noisy-dim48": FitSpec(
        dim=48, thetas=tuple(math.pi * j / 8 for j in range(8)), half_count=50,
        cloud_rms=10e-6, state=("even_cat", 2.5), eta=0.05, noise_seed=7,
        grad_tol=1e-9, setups=5, wigners=1, passes=2, min_fidelity=0.95, max_entropy=None,
        wigner_points=257,
    ),
    "cli-chain": ChainSpec(
        dim=16, half_count=25, eta=0.1, noise_seed=7, grad_tol=1e-9,
        pixels=241, launches=3, refits=1, passes=2, min_cut_fidelity=0.99, wigner_points=None,
    ),
}

SMOKE_SPECS = {
    "exact-dim16": FitSpec(
        dim=8, thetas=FOUR_ROTATIONS, half_count=10, cloud_rms=60e-6,
        state=("superposition", (1.0, 1.0)), eta=0.0, noise_seed=0,
        grad_tol=1e-11, setups=2, wigners=2, passes=1, min_fidelity=0.99, max_entropy=1e-2,
        wigner_points=65,
    ),
    "noisy-dim48": FitSpec(
        dim=8, thetas=FOUR_ROTATIONS, half_count=10, cloud_rms=60e-6,
        state=("superposition", (1.0, 1.0)), eta=0.1, noise_seed=7,
        grad_tol=1e-9, setups=2, wigners=1, passes=1, min_fidelity=0.8, max_entropy=None,
        wigner_points=65,
    ),
    "cli-chain": ChainSpec(
        dim=8, half_count=10, eta=0.1, noise_seed=7, grad_tol=1e-9,
        pixels=121, launches=1, refits=1, passes=1, min_cut_fidelity=0.95, wigner_points=65,
    ),
}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _true_state(spec_state, dim):
    kind, arg = spec_state
    if kind == "superposition":
        return orc.superposition(dim, arg)
    return orc.even_cat(dim, arg)


# ---------------------------------------------------------------------------
# in-process workloads


def run_fit_workload(spec: FitSpec, seconds: float, seed: int, tracer: Tracer) -> Outcome:
    import maxent_tomo as mt

    out = Outcome()
    trap = mt.TrapConfig(cloud_rms=spec.cloud_rms, **TRAP)
    space = mt.FockSpace(spec.dim)
    kind, arg = spec.state
    if kind == "superposition":
        state = mt.superposition(space, list(arg))
    else:
        state = mt.even_cat(space, arg)

    # benchmark set-up: the oracle's answers for these inputs
    psi = _true_state(spec.state, spec.dim)
    nbar = float(np.abs(psi) ** 2 @ np.arange(spec.dim))
    grid = mt.default_bin_grid(trap, nbar=nbar, half_count=spec.half_count)
    geom = orc.Geometry.from_si(
        dv0=TRAP["dv0"], be_time=TRAP["be_time"], cloud_rms=spec.cloud_rms,
        width=grid.width, half_count=grid.half_count,
    )
    expected = orc.bin_probabilities(psi, spec.thetas, geom)
    if spec.eta > 0:
        expected = orc.noisy_values(expected, spec.eta, spec.noise_seed)
        deviation = orc.Deviation(geom, spec.thetas, spec.dim,
                                  np.concatenate([expected.ravel(), [nbar]]))
    n_ops = spec.setups + 2 + spec.wigners + (1 if spec.eta > 0 else 0)

    # set-up is sampled before the chain, after the first Wigner evaluation
    # and after the last: its timing drifts within seconds, and one burst of
    # builds would report the drift of that moment
    late = spec.setups // 3

    def build():
        t0 = time.perf_counter()
        with tracer.span("measurement.build"):
            level = mt.build_observation_level(trap, grid, spec.thetas, nbar, space)
        out.add("setup_s", time.perf_counter() - t0)
        return level

    start = time.perf_counter()
    passes = 0
    while True:
        done = 0
        try:
            with tracer.span("pass"):
                for i in range(spec.setups - 2 * late):
                    chain_start = time.perf_counter()
                    obs = build()
                    done += 1
                with tracer.span("simulate.ideal"):
                    record = mt.simulate_ideal(state, obs)
                done += 1
                if spec.eta > 0:
                    with tracer.span("simulate.noise"):
                        record = mt.add_noise(record, mt.NoiseSpec(eta=spec.eta, seed=spec.noise_seed))
                    done += 1
                target = obs.with_record(record)
                t0 = time.perf_counter()
                with tracer.span("fit"):
                    fitted, report = mt.fit(target, grad_tol=spec.grad_tol)
                out.add("fit_s", time.perf_counter() - t0)
                if not report.converged:
                    raise OperationFailed(f"fit did not converge: {report.message}")
                done += 1
                for i in range(spec.wigners):
                    t0 = time.perf_counter()
                    with tracer.span("wigner.eval"):
                        wig = mt.wigner_eval(fitted.rho, span=spec.wigner_span,
                                             points=spec.wigner_points)
                    t1 = time.perf_counter()
                    out.add("wigner_s", t1 - t0)
                    if i == 0:
                        out.add("chain_s", t1 - chain_start)
                    done += 1
                    if i == 0:
                        for _ in range(late):
                            build()
                            done += 1
                for _ in range(late):
                    build()
                    done += 1
        except Exception:  # a failed operation is counted, not fatal
            out.notes.append(traceback.format_exc())
        out.attempted += n_ops
        out.failed += n_ops - done

        if done == n_ops:
            rho = fitted.rho.matrix
            try:
                orc.check_record(record.values, expected, tol=1e-9)
                fid, _ = orc.check_state(rho, psi, min_fidelity=spec.min_fidelity,
                                         max_entropy=spec.max_entropy)
                if spec.eta > 0:
                    lam = fitted.lambdas
                    lam = lam.flat() if hasattr(lam, "flat") else np.ravel(lam)
                    orc.check_stationary(deviation, lam, seed=seed)
                orc.check_wigner(wig.q_axis, wig.p_axis, wig.values, rho)
            except orc.CheckFailed as exc:
                out.wrong(str(exc))
            else:
                out.add("maxent.iterations", report.iterations)
                out.add("maxent.restarts", report.restarts)
                out.add("maxent.delta_f", report.delta_f)
                out.add("maxent.fidelity", fid)
                out.add("measurement.n_ops", obs.n_ops)
        passes += 1
        if passes % spec.passes == 0 and time.perf_counter() - start >= seconds:
            break

    out.samples["peak_rss_mb"] = [peak_rss_mb(resource.RUSAGE_SELF)]
    return out


# ---------------------------------------------------------------------------
# the CLI chain

CONFIG = """\
# trap and measurement
omega_z_hz = 80e3
dz0_m      = 22e-9
dv0_mps    = 11e-3
cloud_rms_m = 60e-6
be_time_s  = 8.7e-3
taus_us    = 0, 1.6, 3.2, 4.8

# reconstruction
dim  = {dim}
nbar = 0.5
bin_half_count = {half_count}
grad_tol = {grad_tol!r}

# simulation only
state = superposition:1,1
"""


def _write_cuts(spec: ChainSpec, workdir: str) -> list:
    """One absorption-image cut per hold time, computed by the oracle on a
    camera grid finer than the reconstruction grid, with the optical-density
    scale and background offset of demos/ingest_cuts.py.  They do not
    depend on the seed: whether the cut-path fit reports convergence flips
    with rounding-level changes of its input (see CHANGES.md)."""
    drop = math.sqrt(2.0) * TRAP["dv0"] * TRAP["be_time"]
    half = spec.pixels // 2
    width = 2.0 * 9.5 * drop / spec.pixels
    geom = orc.Geometry.from_si(dv0=TRAP["dv0"], be_time=TRAP["be_time"], cloud_rms=60e-6,
                                width=width, half_count=half)
    thetas = [OMEGA_Z * t * 1e-6 for t in TAUS_US]
    probs = orc.bin_probabilities(orc.superposition(spec.dim, (1.0, 1.0)), thetas, geom)
    positions = width * np.arange(-half, half + 1)
    paths = []
    for i, (tau, row) in enumerate(zip(TAUS_US, probs)):
        path = os.path.join(workdir, f"cut_{i}.csv")
        with open(path, "w") as fh:
            fh.write(f"# tau_us={tau!r}\n# pixel_width_m={width!r}\nz_m,od\n")
            for z, v in zip(positions, 37.0 * row + 0.002):
                fh.write(f"{float(z)!r},{float(v)!r}\n")
        paths.append(path)
    return paths


def _printed(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return float(value)
    raise orc.CheckFailed(f"'{key} = ...' missing from the output")


def _check_chain(spec: ChainSpec, rdir: str, report_stdout: str):
    psi = orc.superposition(spec.dim, (1.0, 1.0))
    meta, values = orc.parse_record_csv(os.path.join(rdir, "data", "record.csv"))
    thetas = [float(t) for t in meta["rotations_rad"].split(",")]
    expect_thetas = [OMEGA_Z * t * 1e-6 for t in TAUS_US]
    if not np.allclose(thetas, expect_thetas, rtol=1e-12, atol=1e-15):
        raise orc.CheckFailed(f"record rotations {thetas} differ from the config's")
    geom = orc.Geometry.from_si(
        dv0=TRAP["dv0"], be_time=TRAP["be_time"], cloud_rms=60e-6,
        width=float(meta["grid_width_m"]),
        half_count=int(meta["grid_half_count"]),
    )
    ideal = orc.bin_probabilities(psi, expect_thetas, geom)
    orc.check_record(values, orc.noisy_values(ideal, spec.eta, spec.noise_seed), tol=1e-9)

    truth = orc.read_rho_json(os.path.join(rdir, "data", "state_true.json"))
    if abs(orc.fidelity(psi, truth) - 1.0) > 1e-12:
        raise orc.CheckFailed("state_true.json is not (|0> + |1>)/sqrt(2)")
    rho = orc.read_rho_json(os.path.join(rdir, "data", "rho.json"))
    fid = orc.fidelity(truth, rho)
    printed = _printed(report_stdout, "fidelity")
    if abs(printed - fid) > 1e-7:
        raise orc.CheckFailed(f"report prints fidelity {printed!r}, the oracle gives {fid!r}")
    ent = orc.entropy(rho)
    printed_ent = _printed(report_stdout, "entropy")
    if abs(printed_ent - ent) > 1e-5 * max(1.0, ent):
        raise orc.CheckFailed(f"report prints entropy {printed_ent!r}, the oracle gives {ent!r}")
    orc.check_state(orc.read_rho_json(os.path.join(rdir, "cuts", "rho.json")), psi,
                    min_fidelity=spec.min_cut_fidelity, label="cut-path fit")

    with open(os.path.join(rdir, "data", "wigner.json")) as fh:
        wj = json.load(fh)
    q, p = np.asarray(wj["q_axis"]), np.asarray(wj["p_axis"])
    w = np.asarray(wj["values"]).reshape(q.size, p.size)
    orc.check_wigner(q, p, w, rho)
    csv_vals = np.loadtxt(os.path.join(rdir, "data", "wigner.csv"), delimiter=",",
                          comments="#", skiprows=3)
    if csv_vals.shape != (q.size * p.size, 3) or not np.array_equal(csv_vals[:, 2], w.ravel()):
        raise orc.CheckFailed("wigner.csv and wigner.json disagree")


def _replay(spec: ChainSpec, rdir: str, cfg_path: str, cut_paths: list, tracer: Tracer, out: Outcome):
    """Traced runs only: repeat in this process the library calls the chain's
    commands make, so their time splits by layer."""
    import maxent_tomo as mt
    from maxent_tomo import io as tio

    config = tio.read_config(cfg_path)
    space, trap, nbar = config.space(), config.trap_config(), config.nbar
    with tracer.span("io.read_record"):
        record = tio.read_record(os.path.join(rdir, "data", "record.csv"))
    with tracer.span("measurement.build"):
        obs = mt.build_observation_level(
            trap, record.grid, record.rotations, nbar, space,
            weight_nbar=config.weight_nbar, gh_nodes=config.gh_nodes, gl_nodes=config.gl_nodes,
        )
    with tracer.span("simulate.ideal"):
        ideal = mt.simulate_ideal(mt.superposition(space, [1.0, 1.0]), obs)
    with tracer.span("simulate.noise"):
        mt.add_noise(ideal, mt.NoiseSpec(eta=spec.eta, seed=spec.noise_seed))
    means = record.flat_means()
    means[-1] = nbar
    target = obs.with_means(means)
    with tracer.span("fit"):
        fitted, report = mt.fit(target, max_iter=config.max_iter, grad_tol=config.grad_tol)
    replay_dir = os.path.join(rdir, "replay")
    os.makedirs(replay_dir)
    with tracer.span("io.write_record"):
        tio.write_record(record, os.path.join(replay_dir, "record.csv"))
    with tracer.span("io.read_rho"):
        rho = tio.read_density_matrix(os.path.join(rdir, "data", "rho.json"))
    cuts = [tio.read_cut_file(p) for p in cut_paths]
    grid = config.grid(nbar_hint=nbar)
    with tracer.span("io.preprocess"):
        for cut in cuts:
            tio.preprocess(cut, grid, subtract_background=config.subtract_background,
                           recenter=config.recenter, fixed_center=0.0)
    kwargs = {} if spec.wigner_points is None else {"points": spec.wigner_points}
    with tracer.span("wigner.eval"):
        wig = mt.wigner_eval(rho, **kwargs)
    with tracer.span("wigner.write_csv"):
        mt.write_wigner_csv(wig, os.path.join(replay_dir, "wigner.csv"))
    with tracer.span("wigner.write_json"):
        mt.write_wigner_json(wig, os.path.join(replay_dir, "wigner.json"))
    out.add("maxent.iterations", report.iterations)
    out.add("maxent.restarts", report.restarts)
    out.add("maxent.delta_f", report.delta_f)
    out.add("maxent.fidelity", orc.fidelity(orc.superposition(spec.dim, (1.0, 1.0)), fitted.rho.matrix))
    out.add("measurement.n_ops", obs.n_ops)


def run_cli_chain(spec: ChainSpec, seconds: float, tracer: Tracer,
                  root: str, workdir: str) -> Outcome:
    out = Outcome()
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cfg_path = os.path.join(workdir, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(CONFIG.format(dim=spec.dim, half_count=spec.half_count, grad_tol=spec.grad_tol))
    cut_paths = _write_cuts(spec, workdir)
    wig_args = [] if spec.wigner_points is None else ["--points", str(spec.wigner_points)]
    chain = [
        ("cli.simulate", ["simulate", "--config", cfg_path, "--eta", repr(spec.eta),
                          "--seed", str(spec.noise_seed), "--out", "data"]),
        ("cli.reconstruct", ["reconstruct", "--config", cfg_path,
                             "--record", os.path.join("data", "record.csv"), "--out", "data"]),
        ("cli.reconstruct_cuts", ["reconstruct", "--config", cfg_path]
         + [arg for p in cut_paths for arg in ("--cut", p)]
         + ["--nbar", "0.5", "--fixed-center", "0", "--out", "cuts"]),
        ("cli.wigner", ["wigner", "--rho", os.path.join("data", "rho.json"), "--out", "data"] + wig_args),
        ("cli.report", ["report", "--rho", os.path.join("data", "rho.json"),
                        "--reference", os.path.join("data", "state_true.json")]),
    ]
    cli = [sys.executable, "-m", "maxent_tomo.cli"]

    def launch(name, args, cwd):
        t0 = time.perf_counter()
        with tracer.span(name):
            proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=CMD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise OperationFailed(f"{' '.join(args[3:5])} exited {proc.returncode}: {proc.stderr.strip()}")
        return dt, proc.stdout

    start = time.perf_counter()
    passes = 0
    while True:
        rdir = os.path.join(workdir, f"pass_{passes}")
        os.makedirs(rdir)
        passes += 1
        steps = spec.launches + len(chain) + spec.refits + (2 if tracer.enabled else 0)
        done = 0
        stdout = {}
        try:
            with tracer.span("pass"):
                for _ in range(spec.launches):
                    dt, _ = launch("cli.launch", cli + ["--help"], rdir)
                    out.add("setup_s", dt)
                    done += 1
                if tracer.enabled:
                    launch("cli.import", [sys.executable, "-c", "import maxent_tomo.cli"], rdir)
                    done += 1
                chain_start = time.perf_counter()
                for name, args in chain:
                    dt, stdout[name] = launch(name, cli + args, rdir)
                    if name == "cli.reconstruct":
                        out.add("fit_s", dt)
                    elif name == "cli.wigner":
                        out.add("wigner_s", dt)
                    done += 1
                out.add("chain_s", time.perf_counter() - chain_start)
                # more samples of the reconstruct step, outside the chain's time
                refit = chain[1][1][:-1] + ["refit"]
                for _ in range(spec.refits):
                    dt, _ = launch("cli.reconstruct", cli + refit, rdir)
                    out.add("fit_s", dt)
                    done += 1
                if tracer.enabled:
                    _replay(spec, rdir, cfg_path, cut_paths, tracer, out)
                    done += 1
        except (OperationFailed, subprocess.TimeoutExpired, OSError, ValueError):
            out.notes.append(traceback.format_exc())
        out.attempted += steps
        out.failed += steps - done
        if done == steps:
            try:
                _check_chain(spec, rdir, stdout["cli.report"])
            except (orc.CheckFailed, OSError, ValueError, KeyError) as exc:
                out.wrong(f"{type(exc).__name__}: {exc}")
        if passes % spec.passes == 0 and time.perf_counter() - start >= seconds:
            break

    out.samples["peak_rss_mb"] = [peak_rss_mb(resource.RUSAGE_CHILDREN)]
    return out


def chain_tour(spec: ChainSpec, package, root: str, workdir: str) -> tuple:
    """One traced pass of the CLI chain without the extra launches and
    refits, recorded by a tracer of its own.  A fit workload's traced run
    takes from it the layers it does not call itself: the CLI, file I/O,
    cut preprocessing, the Wigner writers, and noise on exact data."""
    tracer = Tracer(enabled=True)
    tracer.install_seams(package)
    tour_dir = os.path.join(workdir, "tour")
    os.makedirs(tour_dir)
    try:
        out = run_cli_chain(replace(spec, launches=0, refits=0, passes=1), 0.0,
                            tracer, root, tour_dir)
    finally:
        tracer.remove_seams()
    return layer_metrics(tracer, out), out


# ---------------------------------------------------------------------------
# per-layer metrics, read off the spans


def layer_metrics(tracer: Tracer, out: Outcome) -> dict:
    """Per-layer values; None marks a metric the run could not measure
    (layer not called by this workload, or its seam is gone)."""
    m = {}
    for name in ("measurement.build", "measurement.validate", "simulate.ideal",
                 "simulate.noise", "wigner.eval", "wigner.write_csv", "wigner.write_json",
                 "io.preprocess", "io.read_record", "io.write_record", "io.read_rho",
                 "cli.import", "cli.simulate", "cli.reconstruct", "cli.reconstruct_cuts",
                 "cli.wigner", "cli.report"):
        m[name + "_s"] = med(tracer.durations(name))
    fits = tracer.durations("fit")
    objective = tracer.per_span("fit", "maxent.objective")
    minimize = tracer.per_span("fit", "maxent.minimize")
    have_seam = "minimize" not in tracer.missing_seams and fits
    if have_seam:
        m["maxent.evals"] = med([n for _, n in objective])
        m["maxent.objective_s"] = med([t for t, _ in objective])
        m["maxent.eval_ms"] = med([1e3 * t / n for t, n in objective if n])
        m["maxent.optimizer_s"] = med([mn - ob for (mn, _), (ob, _) in zip(minimize, objective)])
        m["maxent.finish_s"] = med([f - mn for f, (mn, _) in zip(fits, minimize)])
    else:
        for key in ("evals", "objective_s", "eval_ms", "optimizer_s", "finish_s"):
            m["maxent." + key] = None
    for key in ("maxent.iterations", "maxent.restarts", "maxent.delta_f", "maxent.fidelity",
                "measurement.n_ops"):
        m[key] = med(out.samples.get(key, []))
    return m
