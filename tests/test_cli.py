"""The maxent-tomo command line, called in process: exit codes and outputs."""

import dataclasses
import json
import math

import numpy as np
import pytest

from maxent_tomo import (
    CutFile,
    FockSpace,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
    even_cat,
    fidelity,
    fock_state,
    preprocess,
    read_config,
    read_cut_file,
    read_density_matrix,
    read_record,
    simulate_ideal,
    superposition,
    write_cut_file,
    write_density_matrix,
    write_record,
)
from maxent_tomo.cli import main

CONFIG = """
omega_z_hz = 80e3
dz0_m = 22e-9
dv0_mps = 11e-3
cloud_rms_m = 60e-6
be_time_s = 8.7e-3
dim = 8
taus_us = 0, 1.6
bin_half_count = 8
eta = 0.1
seed = 7
state = superposition:1,1
"""


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A config file and the noisy record `simulate` wrote for it."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(root)]) == 0
    return cfg, root / "record.csv"


def test_chain_exits_zero_and_writes_every_output(simulated, tmp_path):
    cfg, record = simulated
    out = str(tmp_path)
    assert main(["reconstruct", "--config", str(cfg), "--record", str(record),
                 "--out", out]) == 0
    assert (tmp_path / "rho.json").exists()
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is True
    rho = str(tmp_path / "rho.json")
    assert main(["wigner", "--rho", rho, "--points", "33", "--out", out]) == 0
    assert len(json.loads((tmp_path / "wigner.json").read_text())["values"]) == 33 * 33
    assert main(["report", "--rho", rho, "--fit", str(tmp_path / "report.json")]) == 0


# the README's run.cfg
README_CONFIG = """
omega_z_hz = 80e3
dz0_m      = 22e-9
dv0_mps    = 11e-3
cloud_rms_m = 60e-6
be_time_s  = 8.7e-3
taus_us    = 0, 1.6, 3.2, 4.8
dim  = 16
nbar = 0.5
bin_half_count = 25
state = superposition:1,1
"""


def test_noisy_chain_at_a_tight_grad_tol_converges_and_says_why(tmp_path, capsys):
    """Noisy data leave delta_F a positive floor, where grad_tol = 1e-12 is
    not met: the README chain at that setting ran 43254 iterations and
    three restarts and exited 2.  The relative-gradient test ends it, and
    the printed reason is the one report.json keeps."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(README_CONFIG + "grad_tol = 1e-12\n")
    out = str(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--eta", "0.1", "--seed", "7",
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(cfg), "--record",
                 str(tmp_path / "record.csv"), "--out", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True and report["restarts"] == 0
    assert report["message"].startswith("relative gradient")
    assert f"stop = {report['message']}\n" in capsys.readouterr().out


@pytest.fixture(scope="module")
def cut_files(tmp_path_factory):
    """Four absorption-image cuts of (|0> + |1>)/sqrt(2) at the README's hold
    times, made as demos/ingest_cuts.py makes them: exact bin means on a
    fine camera grid, scaled, with a constant offset."""
    root = tmp_path_factory.mktemp("cuts")
    trap = TrapConfig(omega_z=2 * math.pi * 80e3, dz0=22e-9, dv0=11e-3,
                      cloud_rms=60e-6, be_time=8.7e-3)
    space = FockSpace(16)
    psi = superposition(space, [1.0, 1.0])
    taus_us = (0.0, 1.6, 3.2, 4.8)
    pixels = default_bin_grid(trap, nbar=0.5, half_count=120, margin=8.0)
    record = simulate_ideal(psi, build_observation_level(
        trap, pixels, [trap.omega_z * (t * 1e-6) for t in taus_us], 0.5, space))
    paths = []
    for i, tau in enumerate(taus_us):
        path = root / f"cut_{i}.csv"
        write_cut_file(CutFile(tau_us=tau, positions=pixels.centers(),
                               values=37.0 * record.values[i] + 0.002,
                               pixel_width=pixels.width), path)
        paths.append(str(path))
    return psi, paths


# the README's run.cfg without its nbar line
CUT_CONFIG = README_CONFIG.replace("nbar = 0.5\n", "")


def test_reconstruct_from_cuts_recovers_the_state(cut_files, tmp_path, capsys):
    psi, paths = cut_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CUT_CONFIG)
    capsys.readouterr()
    code = main(["reconstruct", "--config", str(cfg)]
                + [arg for p in paths for arg in ("--cut", p)]
                + ["--nbar", "0.5", "--fixed-center", "0", "--out", str(tmp_path)])
    assert code == 0
    assert "converged = True" in capsys.readouterr().out
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is True
    assert fidelity(psi, read_density_matrix(tmp_path / "rho.json")) >= 0.99


def test_reconstruct_from_cuts_without_nbar_exits_one(cut_files, tmp_path, capsys):
    """With no nbar in the config, the missing mean excitation number is
    what the command names, not the grid it sizes."""
    _, paths = cut_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CUT_CONFIG)
    code = main(["reconstruct", "--config", str(cfg)]
                + [arg for p in paths for arg in ("--cut", p)]
                + ["--fixed-center", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "mean excitation number is required" in capsys.readouterr().err
    assert not (tmp_path / "rho.json").exists()


def test_fixed_center_with_recentering_off_exits_one(cut_files, tmp_path, capsys):
    """recenter = false would drop --fixed-center silently; it is refused."""
    _, paths = cut_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CUT_CONFIG + "recenter = false\n")
    code = main(["reconstruct", "--config", str(cfg)]
                + [arg for p in paths for arg in ("--cut", p)]
                + ["--nbar", "0.5", "--fixed-center", "2e-5", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "fixed_center=2e-05" in err and "recenter" in err
    assert not (tmp_path / "rho.json").exists()


class _FitCalled(Exception):
    """Raised by a stand-in fit once it has seen the observation level."""


def test_no_background_subtraction_fits_the_unsubtracted_rows(cut_files, tmp_path,
                                                              monkeypatch):
    _, paths = cut_files
    cfg = tmp_path / "run.cfg"
    seen = []

    def stand_in(observables, **kwargs):
        seen.append(observables)
        raise _FitCalled

    monkeypatch.setattr("maxent_tomo.maxent.fit", stand_in)
    argv = (["reconstruct", "--config", str(cfg)]
            + [arg for p in paths for arg in ("--cut", p)]
            + ["--nbar", "0.5", "--fixed-center", "0", "--out", str(tmp_path)])
    for extra in ("subtract_background = false\n", ""):
        cfg.write_text(CUT_CONFIG + extra)
        with pytest.raises(_FitCalled):
            main(argv)
    plain, subtracted = (obs.means[:-1].reshape(obs.bin_shape) for obs in seen)
    rows = [preprocess(read_cut_file(p), seen[0].grid, subtract_background=False,
                       fixed_center=0.0) for p in paths]
    assert np.array_equal(plain, rows)
    assert not np.array_equal(subtracted, rows)


def test_reconstruct_without_record_or_cut_exits_one(simulated, tmp_path, capsys):
    cfg, _ = simulated
    assert main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "needs --record or at least one --cut" in capsys.readouterr().err
    assert not (tmp_path / "rho.json").exists()


def test_report_against_a_reference_of_another_dimension_exits_one(tmp_path, capsys):
    rho, ref = tmp_path / "rho.json", tmp_path / "ref.json"
    write_density_matrix(fock_state(FockSpace(4), 0).density(), rho)
    write_density_matrix(fock_state(FockSpace(6), 0).density(), ref)
    assert main(["report", "--rho", str(rho), "--reference", str(ref)]) == 1
    assert "dimensions differ" in capsys.readouterr().err


def test_report_of_a_fock_state_prints_zero_entropy(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    write_density_matrix(fock_state(FockSpace(4), 2).density(), rho)
    assert main(["report", "--rho", str(rho)]) == 0
    assert "entropy = 0\n" in capsys.readouterr().out


def test_unknown_state_kind_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("state = superposition:1,1", "state = squeezed:1"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "squeezed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--config", "run.cfg", "--nbar", "half"],
    ["wigner", "--rho", "x.json", "--points", "2.5"],
    ["bogus"],
    [],
    ["simulate", "--config", "run.cfg", "--wnbar", "1"],
    ["simulate", "--config", "run.cfg", "--nbar", "0.5"],
    ["reconstruct", "--config", "run.cfg", "--wnbar", "1"],
    ["reconstruct", "--config", "run.cfg", "--no-background-subtraction"],
], ids=["float-flag", "int-flag", "command", "no-command", "simulate-wnbar", "simulate-nbar",
        "reconstruct-wnbar", "reconstruct-no-background-subtraction"])
def test_usage_errors_exit_one_not_the_non_convergence_code(capsys, argv):
    """argparse exits 2 on a usage error, the code reserved for a fit that
    did not converge; main returns 1, bad input, and keeps the usage text."""
    assert main(argv) == 1
    assert "usage: maxent-tomo" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: maxent-tomo" in capsys.readouterr().out


def test_record_and_cut_together_exit_one(simulated, tmp_path, capsys):
    cfg, record = simulated
    code = main(["reconstruct", "--config", str(cfg), "--record", str(record),
                 "--cut", str(record), "--out", str(tmp_path)])
    assert code == 1
    assert "either --record or --cut" in capsys.readouterr().err


def test_iteration_cap_exits_two_and_keeps_the_partial_fit(simulated, tmp_path):
    cfg, record = simulated
    capped = tmp_path / "capped.cfg"
    capped.write_text(cfg.read_text() + "max_iter = 1\n")
    code = main(["reconstruct", "--config", str(capped), "--record", str(record),
                 "--out", str(tmp_path)])
    assert code == 2
    assert (tmp_path / "rho.json").exists()
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is False


@pytest.mark.parametrize("extra, key", [
    ("taus_us = 0, nan, 3.2, 4.8\n", "taus_us"),
    ("fixed_center_m = nan\n", "fixed_center_m"),
])
def test_non_finite_config_values_exit_one_naming_the_key(tmp_path, capsys, extra, key):
    cfg = tmp_path / "run.cfg"
    # in place of the key's own line: a config key may appear once
    kept = [ln for ln in CONFIG.splitlines(keepends=True) if not ln.startswith(f"{key} =")]
    cfg.write_text("".join(kept) + extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"config key '{key}' must be finite" in capsys.readouterr().err


def test_command_line_values_are_checked_like_config_values(simulated, tmp_path, capsys):
    cfg, record = simulated
    code = main(["reconstruct", "--config", str(cfg), "--record", str(record),
                 "--fixed-center", "nan", "--out", str(tmp_path)])
    assert code == 1
    assert "config key 'fixed_center_m' must be finite" in capsys.readouterr().err


def test_record_with_overflowing_rotation_exits_one_naming_it(simulated, tmp_path, capsys):
    cfg, record = simulated
    huge = tmp_path / "record.csv"
    write_record(dataclasses.replace(read_record(record), rotations=(1e308, -1e308)), huge)
    code = main(["reconstruct", "--config", str(cfg), "--record", str(huge),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "rotation 1e+308 is too large" in capsys.readouterr().err
    assert not (tmp_path / "rho.json").exists()


def test_simulate_without_nbar_sizes_the_grid_from_the_state(tmp_path):
    """With no nbar in the config, the grid is sized for the simulated
    state's exact mean occupation <n>, here an even cat's."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CUT_CONFIG.replace("superposition:1,1", "even_cat:1.414"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    amp = even_cat(FockSpace(16), 1.414).amplitudes
    nbar = float(np.real((amp.conj() * np.arange(16)) @ amp))
    grid = default_bin_grid(read_config(cfg).trap_config(), nbar, half_count=25)
    assert read_record(tmp_path / "record.csv").grid.width == grid.width


@pytest.mark.parametrize("payload", ['{"converged": true}', '{"delta_f": null}', '[]',
                                     '{"delta_f": true, "converged": true}'])
def test_report_without_delta_f_exits_one(simulated, tmp_path, capsys, payload):
    cfg, record = simulated
    fit_json = tmp_path / "report.json"
    fit_json.write_text(payload)
    rho = str(record.parent / "state_true.json")
    assert main(["report", "--rho", rho, "--fit", str(fit_json)]) == 1
    assert "'delta_f'" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ['{"delta_f": 0.5}', '{"delta_f": 0.5, "converged": "yes"}',
                                     '{"delta_f": 0.5, "converged": 1}'])
def test_report_without_boolean_converged_exits_one(simulated, tmp_path, capsys, payload):
    _, record = simulated
    fit_json = tmp_path / "report.json"
    fit_json.write_text(payload)
    rho = str(record.parent / "state_true.json")
    assert main(["report", "--rho", rho, "--fit", str(fit_json)]) == 1
    assert "'converged'" in capsys.readouterr().err


@pytest.mark.parametrize("payload, key", [
    ("[]", "JSON object"),
    ('{"dim": 2, "real": [1, 0, 0, 0]}', "'imag'"),
    ('{"dim": 2, "real": [1, 0, 0, 0], "imag": [0, 0, 0]}', "'imag'"),
], ids=["list", "no-imag", "short-imag"])
def test_malformed_density_matrix_exits_one_naming_the_key(tmp_path, capsys, payload, key):
    rho = tmp_path / "rho.json"
    rho.write_text(payload)
    assert main(["report", "--rho", str(rho)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(rho) in err and key in err


@pytest.mark.parametrize("option", ["--rho", "--fit"])
@pytest.mark.parametrize("payload", [b'{"dim": 1\n"real": [1]}', b"\xff\n"],
                         ids=["syntax", "not-utf8"])
def test_unparsable_json_exits_one_naming_the_file(simulated, tmp_path, capsys, option, payload):
    """json's own message, `Expecting ',' delimiter: line 2 column 1 (char
    10)`, or a UnicodeDecodeError, names no file."""
    _, record = simulated
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    rho = str(bad) if option == "--rho" else str(record.parent / "state_true.json")
    argv = ["report", "--rho", rho] + (["--fit", str(bad)] if option == "--fit" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("span", ["nan", "inf"])
def test_non_finite_wigner_span_exits_one_naming_it(simulated, tmp_path, capsys, span):
    _, record = simulated
    rho = str(record.parent / "state_true.json")
    assert main(["wigner", "--rho", rho, "--span", span, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "span" in err
    assert not (tmp_path / "wigner.json").exists()


STARTUP_PROBE = """
import contextlib, io, json, sys
watched = ("numpy", "scipy", "maxent_tomo.maxent", "maxent_tomo.wigner")
seen = []
for step in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if isinstance(step, str):  # an import statement
            exec(step)
            code = 0
        else:
            from maxent_tomo.cli import main
            code = main(step)
    seen.append([code] + [m for m in watched if m in sys.modules])
print(json.dumps(seen))
"""


def test_each_command_loads_only_what_it_runs(simulated, tmp_path):
    """Fresh interpreters: importing the package and the CLI, --help and a
    usage error load no numpy; wigner and report load neither the fit nor
    scipy; reconstruct does not load the Wigner kernel."""
    import os
    import subprocess
    import sys

    import maxent_tomo

    cfg, record = simulated
    rho = str(record.parent / "state_true.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maxent_tomo.__file__))
    fitted = [0, "numpy", "scipy", "maxent_tomo.maxent"]
    runs = [
        (["import maxent_tomo", "import maxent_tomo.cli", ["--help"],
          ["reconstruct", "--config", str(cfg), "--nbar", "half"]],
         [[0], [0], [0], [1]]),
        ([["wigner", "--rho", rho, "--points", "33", "--out", str(tmp_path)],
          ["report", "--rho", rho, "--reference", rho]],
         [[0, "numpy", "maxent_tomo.wigner"], [0, "numpy", "maxent_tomo.wigner"]]),
        ([["reconstruct", "--config", str(cfg), "--record", str(record),
           "--out", str(tmp_path)]], [fitted]),
    ]
    for steps, expected in runs:
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(steps)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected, steps


SCIPY_PROBE = """
import contextlib, io, json, sys
import maxent_tomo.cli
from maxent_tomo import FockSpace, fock_state, write_density_matrix
from maxent_tomo.cli import main
cfg, out, cut_cfg, cuts = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
rho = out + "/state_true.json"
steps = {"import": None, "--help": ["--help"],
         "simulate": ["simulate", "--config", cfg, "--out", out],
         "wigner": ["wigner", "--rho", rho, "--points", "33", "--out", out],
         "report": ["report", "--rho", rho, "--reference", rho],
         "reconstruct": ["reconstruct", "--config", cfg, "--record", out + "/record.csv",
                         "--out", out],
         "reconstruct --cut": ["reconstruct", "--config", cut_cfg]
                              + [arg for p in cuts for arg in ("--cut", p)]
                              + ["--nbar", "0.5", "--fixed-center", "0", "--out", out + "/cuts"]}
seen = {}
for name, argv in steps.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv) if argv else 0
        assert code == 0, (name, code)
    seen[name] = ["scipy" in sys.modules, "scipy.optimize" in sys.modules]
print(json.dumps(seen))
"""


def test_only_reconstruct_loads_scipy(cut_files, tmp_path):
    """In a fresh interpreter, importing the CLI and running --help,
    simulate (a superposition), wigner and report leave scipy unloaded; the
    fits in reconstruct, from a record and from cuts with background
    subtraction (a Gaussian profile fit per cut), load scipy but never
    scipy.optimize, whose imports cost about 0.5 s: they load its compiled
    L-BFGS-B and MINPACK alone."""
    import os
    import subprocess
    import sys

    import maxent_tomo

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    cut_cfg = tmp_path / "cuts.cfg"
    cut_cfg.write_text(CUT_CONFIG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maxent_tomo.__file__))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(cfg), str(tmp_path),
                           str(cut_cfg), *cut_files[1]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    free, fitted = [False, False], [True, False]
    assert json.loads(proc.stdout) == {
        "import": free, "--help": free, "simulate": free, "wigner": free, "report": free,
        "reconstruct": fitted, "reconstruct --cut": fitted,
    }
