"""The maxent-tomo command line, called in process: exit codes and outputs."""

import json

import pytest

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


def test_unknown_state_kind_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + "state = squeezed:1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "squeezed" in capsys.readouterr().err


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
    cfg.write_text(CONFIG + extra)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"config key '{key}' must be finite" in capsys.readouterr().err


def test_command_line_values_are_checked_like_config_values(simulated, tmp_path, capsys):
    cfg, record = simulated
    code = main(["reconstruct", "--config", str(cfg), "--record", str(record),
                 "--fixed-center", "nan", "--out", str(tmp_path)])
    assert code == 1
    assert "config key 'fixed_center_m' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ['{"converged": true}', '{"delta_f": null}', '[]'])
def test_report_without_delta_f_exits_one(simulated, tmp_path, capsys, payload):
    cfg, record = simulated
    fit_json = tmp_path / "report.json"
    fit_json.write_text(payload)
    rho = str(record.parent / "state_true.json")
    assert main(["report", "--rho", rho, "--fit", str(fit_json)]) == 1
    assert "'delta_f'" in capsys.readouterr().err


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


@pytest.mark.parametrize("span", ["nan", "inf"])
def test_non_finite_wigner_span_exits_one_naming_it(simulated, tmp_path, capsys, span):
    _, record = simulated
    rho = str(record.parent / "state_true.json")
    assert main(["wigner", "--rho", rho, "--span", span, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "span" in err
    assert not (tmp_path / "wigner.json").exists()
