"""The benchmark's own tests.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

- every check in ``oracle`` accepts the program's right answer and rejects a
  deliberately wrong one: the maximally mixed state in place of the fit, a
  record with one image dropped, a Wigner grid scaled by 1.1;
- every workload runs to its end in the reduced-size smoke mode, with and
  without tracing, and prints the metrics ``BENCHMARK.json`` names;
- ``BENCHMARK.json`` has the fields and limits of its format;
- the benchmark fails, without printing a result, where the package source
  is missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle as orc  # noqa: E402
import workloads as wl  # noqa: E402


def _workdir(tag: str) -> str:
    path = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _rejects(check, *args, **kwargs) -> str:
    try:
        check(*args, **kwargs)
    except orc.CheckFailed as exc:
        return str(exc)
    raise AssertionError(f"{check.__name__} accepted a wrong answer")


def _small_problem(spec: wl.FitSpec):
    import maxent_tomo as mt

    trap = mt.TrapConfig(cloud_rms=spec.cloud_rms, **wl.TRAP)
    space = mt.FockSpace(spec.dim)
    psi = orc.superposition(spec.dim, spec.state[1])
    nbar = float(np.abs(psi) ** 2 @ np.arange(spec.dim))
    grid = mt.default_bin_grid(trap, nbar=nbar, half_count=spec.half_count)
    obs = mt.build_observation_level(trap, grid, spec.thetas, nbar, space)
    record = mt.simulate_ideal(mt.superposition(space, list(spec.state[1])), obs)
    if spec.eta > 0:
        record = mt.add_noise(record, mt.NoiseSpec(eta=spec.eta, seed=spec.noise_seed))
    fitted, _ = mt.fit(obs.with_record(record), grad_tol=spec.grad_tol)
    geom = orc.Geometry.from_si(dv0=wl.TRAP["dv0"], be_time=wl.TRAP["be_time"],
                                cloud_rms=spec.cloud_rms, width=grid.width,
                                half_count=grid.half_count)
    expected = orc.bin_probabilities(psi, spec.thetas, geom)
    if spec.eta > 0:
        expected = orc.noisy_values(expected, spec.eta, spec.noise_seed)
    return psi, nbar, geom, record, expected, fitted


def test_state_check_rejects_maximally_mixed():
    spec = wl.SMOKE_SPECS["exact-dim16"]
    psi, _, _, _, _, fitted = _small_problem(spec)
    orc.check_state(fitted.rho.matrix, psi, min_fidelity=spec.min_fidelity,
                    max_entropy=spec.max_entropy)
    mixed = np.eye(spec.dim) / spec.dim
    _rejects(orc.check_state, mixed, psi, min_fidelity=spec.min_fidelity,
             max_entropy=spec.max_entropy)


def test_stationarity_check_rejects_maximally_mixed():
    spec = wl.SMOKE_SPECS["noisy-dim48"]
    _, nbar, geom, _, expected, fitted = _small_problem(spec)
    dev = orc.Deviation(geom, spec.thetas, spec.dim, np.concatenate([expected.ravel(), [nbar]]))
    lam = fitted.lambdas.flat()
    orc.check_stationary(dev, lam, seed=3)
    _rejects(orc.check_stationary, dev, np.zeros_like(lam), seed=3)


def test_record_checks_reject_a_dropped_image():
    import maxent_tomo as mt

    spec = wl.SMOKE_SPECS["noisy-dim48"]
    _, _, _, record, expected, _ = _small_problem(spec)
    orc.check_record(record.values, expected, tol=1e-9)
    _rejects(orc.check_record, record.values[1:], expected, tol=1e-9)

    work = _workdir("selftest-record")
    try:
        path = os.path.join(work, "record.csv")
        mt.write_record(record, path)
        _, values = orc.parse_record_csv(path)
        orc.check_record(values, expected, tol=1e-9)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(ln for ln in lines if not ln.startswith("1,"))
        _rejects(orc.parse_record_csv, path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_wigner_check_rejects_scaled_grid():
    import maxent_tomo as mt

    spec = wl.SMOKE_SPECS["exact-dim16"]
    _, _, _, _, _, fitted = _small_problem(spec)
    rho = fitted.rho.matrix
    grid = mt.wigner_eval(fitted.rho, span=spec.wigner_span, points=spec.wigner_points)
    orc.check_wigner(grid.q_axis, grid.p_axis, grid.values, rho)
    _rejects(orc.check_wigner, grid.q_axis, grid.p_axis, 1.1 * grid.values, rho)


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_runs_print_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", trace, "--smoke")
            assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            names = set(result["metrics"])
            if trace == "0":
                assert names == e2e, (workload, names ^ e2e)
                assert all(m["value"] > 0 for m in result["metrics"].values())
            else:
                assert names == layers, (workload, names ^ layers)
            assert any(ln.startswith("env ") for ln in lines)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16 and all(
        re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p) for p in spec["paths"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    seen = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher") and m["name"] not in seen
            seen.add(m["name"])
            if group == "end_to_end":
                assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_package_source():
    bare = _workdir("selftest-bare")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "exact-dim16", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    for name, func in tests:
        try:
            func()
        except Exception as exc:  # report every test, then fail
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    except OSError:
        pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
