"""File formats, cut preprocessing, run configuration, and the CLI."""

import dataclasses
import json
import math
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxent_tomo import (
    CutFile,
    DensityOperator,
    EmptyAfterClamp,
    FitDivergence,
    FockSpace,
    MeasurementRecord,
    NoiseSpec,
    add_noise,
    build_observation_level,
    default_bin_grid,
    even_cat,
    fidelity,
    fit,
    fock_state,
    gaussian_fit_center,
    parse_config_text,
    prepare_free_expansion,
    preprocess,
    read_config,
    read_cut_file,
    read_density_matrix,
    read_record,
    simulate_ideal,
    superposition,
    thermal_state,
    write_cut_file,
    write_density_matrix,
    write_record,
)
from maxent_tomo.cli import main
from maxent_tomo.io import RunConfig

from conftest import TAUS, make_trap, rotations


# ---------------------------------------------------------------------------
# cut files


def _gaussian_cut(tau_us=0.0, center=2e-5, sigma=1.2e-4, amp=0.8, background=0.0,
                  n_pix=201, span=8e-4):
    positions = np.linspace(-span / 2, span / 2, n_pix) + 1e-7
    pixel = positions[1] - positions[0]
    values = amp * np.exp(-0.5 * ((positions - center) / sigma) ** 2) + background
    return CutFile(tau_us=tau_us, positions=positions, values=values,
                   pixel_width=pixel)


def test_cut_file_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        CutFile(tau_us=0.0, positions=np.array([0.0, 0.0, 1.0]),
                values=np.zeros(3), pixel_width=1.0)
    with pytest.raises(ValueError, match="values must be finite"):
        CutFile(tau_us=0.0, positions=np.array([0.0, 1.0]),
                values=np.array([1.0, np.inf]), pixel_width=1.0)
    with pytest.raises(ValueError, match="pixel_width must be finite and positive"):
        CutFile(tau_us=0.0, positions=np.array([0.0, 1.0]),
                values=np.zeros(2), pixel_width=0.0)


def test_cut_file_positions_lie_one_pixel_apart():
    """A missing row would rebin its neighbours' signal over two pixels; it
    and a pixel width that is not the spacing are refused, the first bad
    row named.  Spacing off by rounding alone passes."""
    cut = _gaussian_cut()
    width = cut.pixel_width
    for positions, pixel_width, row in (
            (np.delete(cut.positions, 100), width, 100),
            (cut.positions, 1.01 * width, 1),
            (np.concatenate([cut.positions[:3], cut.positions[3:] + 1e-3 * width]), width, 3)):
        with pytest.raises(ValueError, match=rf"row {row} lies .* past row {row - 1}$"):
            CutFile(tau_us=0.0, positions=positions, values=np.ones(positions.size),
                    pixel_width=pixel_width)
    CutFile(tau_us=0.0, positions=cut.positions, values=cut.values,
            pixel_width=width * (1.0 + 1e-9))


def test_cut_file_round_trip(tmp_path):
    cut = _gaussian_cut(tau_us=1.6, background=0.07)
    path = tmp_path / "cut.csv"
    back = cut
    # tau is held in the file's unit, microseconds: no cycle changes a bit
    for _ in range(5):
        write_cut_file(back, path)
        back = read_cut_file(path)
        assert back.tau_us == 1.6
    assert back.pixel_width == cut.pixel_width
    assert np.array_equal(back.positions, cut.positions)
    assert np.array_equal(back.values, cut.values)


def test_cut_file_hold_times_survive_a_cycle_bit_for_bit(tmp_path):
    path = tmp_path / "cut.csv"
    for tau in np.linspace(0.0, 10.0, 1001):
        cut = CutFile(tau_us=tau, positions=np.array([0.0, 1e-6]),
                      values=np.ones(2), pixel_width=1e-6)
        write_cut_file(cut, path)
        back = read_cut_file(path)
        assert back.tau_us == cut.tau_us


def test_gaussian_fit_recovers_parameters():
    cut = _gaussian_cut(center=3.7e-5, sigma=9e-5, amp=1.3, background=0.21)
    prof = gaussian_fit_center(cut)
    assert prof.center == pytest.approx(3.7e-5, abs=1e-10)
    assert prof.sigma == pytest.approx(9e-5, rel=1e-6)
    assert prof.amplitude == pytest.approx(1.3, rel=1e-6)
    assert prof.background == pytest.approx(0.21, abs=1e-8)


def _demo_cuts():
    """The four cuts demos/ingest_cuts.py writes to demos/cuts_demo/: exact
    camera-pixel means of (|0> + |1>)/sqrt(2) at the README's hold times,
    scaled by 37 on a 0.002 offset."""
    trap, space, taus_us = make_trap(), FockSpace(16), (0.0, 1.6, 3.2, 4.8)
    pixels = default_bin_grid(trap, nbar=0.5, half_count=120, margin=8.0)
    thetas = [trap.omega_z * tau * 1e-6 for tau in taus_us]
    record = simulate_ideal(superposition(space, [1.0, 1.0]),
                            build_observation_level(trap, pixels, thetas, 0.5, space))
    return [CutFile(tau_us=tau, positions=pixels.centers(),
                    values=37.0 * record.values[i] + 0.002, pixel_width=pixels.width)
            for i, tau in enumerate(taus_us)]


def test_gaussian_fit_matches_curve_fit_bit_for_bit():
    """The profile fit calls MINPACK's lmdif directly, as curve_fit does:
    on the demo's four cuts and on noisy copies of them, its parameters
    are curve_fit's, bit for bit."""
    from scipy.optimize import curve_fit

    from maxent_tomo.io import _gauss_model

    rng = np.random.default_rng(20)
    cuts = _demo_cuts()
    cuts += [dataclasses.replace(c, values=c.values + rng.normal(0.0, 0.02 * c.values.max(),
                                                                 c.values.size))
             for c in cuts for _ in range(2)]
    for cut in cuts:
        prof = gaussian_fit_center(cut)
        z, od = cut.positions, cut.values
        b0 = float(od.min())
        s0 = max(float(np.count_nonzero(od - b0 > 0.5 * (od.max() - b0))) * cut.pixel_width
                 / 2.355, cut.pixel_width)
        popt, _ = curve_fit(_gauss_model, z, od,
                            p0=[od.max() - b0, z[np.argmax(od)], s0, b0], maxfev=20000)
        assert (prof.amplitude, prof.center, prof.sigma, prof.background) == (
            popt[0], popt[1], abs(popt[2]), popt[3])


def test_gaussian_fit_rejects_flat_and_short_cuts():
    flat = CutFile(tau_us=0.0, positions=4e-6 * np.arange(-25, 25),
                   values=np.full(50, 0.3), pixel_width=4e-6)
    with pytest.raises(FitDivergence, match="flat profile"):
        gaussian_fit_center(flat)
    with pytest.raises(ValueError, match="at least 5 points"):
        gaussian_fit_center(CutFile(tau_us=0.0, positions=0.25 * np.arange(4),
                                    values=np.ones(4), pixel_width=0.25))


def test_profile_fit_that_does_not_converge_raises_fit_divergence(monkeypatch):
    """lmdif's info 5 (20000 evaluations) and every other info outside 1-4
    raise FitDivergence, as curve_fit's RuntimeError did."""
    import types

    from maxent_tomo import maxent

    stand_in = types.SimpleNamespace(_lmdif=lambda fun, x0, *args: (x0, 5))
    monkeypatch.setattr(maxent, "_optimize_extension", lambda name: stand_in)
    with pytest.raises(FitDivergence, match="info 5"):
        gaussian_fit_center(_gaussian_cut())


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_recenters_and_normalizes(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    # an off-center Gaussian cloud must land symmetrically on the grid
    cut = _gaussian_cut(center=4.1e-5, sigma=9.6e-5, amp=1.0)
    row = preprocess(cut, grid)
    assert row.shape == (51,)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    centroid = row @ grid.centers()
    assert abs(centroid - grid.center) < 0.02 * grid.width


def test_preprocess_fixed_center_skips_the_fit_shift(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    cut = _gaussian_cut(center=0.0, sigma=9.6e-5, amp=1.0)
    row_fit = preprocess(cut, grid)
    row_fixed = preprocess(cut, grid, fixed_center=0.0)
    assert np.max(np.abs(row_fit - row_fixed)) < 1e-6
    # a deliberately wrong fixed center shifts the profile visibly
    row_off = preprocess(cut, grid, fixed_center=5.0 * grid.width)
    assert (row_off @ grid.centers()) < (row_fixed @ grid.centers()) - 4.0 * grid.width


def test_preprocess_is_idempotent_without_background(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    cut = _gaussian_cut(center=2.5e-5, sigma=1.1e-4, amp=0.7)
    first = preprocess(cut, grid, subtract_background=False)
    again = CutFile(tau_us=cut.tau_us, positions=grid.centers(), values=first,
                    pixel_width=grid.width)
    # with a pinned center the second pass is the identity rebin, exactly
    exact = preprocess(again, grid, subtract_background=False,
                       fixed_center=grid.center)
    assert np.max(np.abs(exact - first)) < 1e-15
    # letting the profile fit find the center again costs only the tiny
    # bias of fitting a binned Gaussian
    second = preprocess(again, grid, subtract_background=False)
    assert np.max(np.abs(second - first)) < 1e-5


def test_preprocess_subtracts_constant_background(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    clean = preprocess(_gaussian_cut(sigma=1.05e-4), grid,
                       subtract_background=False)
    dirty = preprocess(_gaussian_cut(sigma=1.05e-4, background=0.15), grid)
    assert np.max(np.abs(dirty - clean)) < 1e-4


def test_preprocess_raises_when_signal_misses_the_grid(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=10)
    far = _gaussian_cut(center=0.0)
    shifted = CutFile(tau_us=0.0, positions=far.positions + 1.0,
                      values=far.values, pixel_width=far.pixel_width)
    with pytest.raises(EmptyAfterClamp):
        preprocess(shifted, grid, recenter=False)
    # a center this far off collapses the shifted pixel edges: refused before
    # the rebin, whose 0/0 would warn and return NaN rows
    for center in (1e300, -1e300):
        with pytest.raises(EmptyAfterClamp, match="outside the grid"):
            preprocess(far, grid, fixed_center=center)
    for center in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"fixed_center must be finite"):
            preprocess(far, grid, fixed_center=center)


def test_preprocess_refuses_a_fixed_center_it_would_ignore(trap):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    cut = _gaussian_cut(center=0.0, sigma=9.6e-5, amp=1.0)
    with pytest.raises(ValueError, match=r"fixed_center=2e-05 .*recenter"):
        preprocess(cut, grid, recenter=False, fixed_center=2e-5)


# ---------------------------------------------------------------------------
# record and density-matrix files


def test_record_round_trip_is_bit_exact(trap, space16, tmp_path):
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    obs = build_observation_level(trap, grid, rotations(trap), 0.5, space16)
    rec = add_noise(simulate_ideal(superposition(space16, [1.0, 1.0]), obs),
                    NoiseSpec(eta=0.1, seed=5), nbar_noisy=0.6)
    path = tmp_path / "record.csv"
    write_record(rec, path)
    back = read_record(path)
    assert np.array_equal(back.values, rec.values)
    assert back.nbar == rec.nbar
    assert back.rotations == rec.rotations
    assert back.grid == rec.grid
    assert back.provenance == {"kind": "noisy", "eta": 0.1, "seed": 5}
    # writing the read-back record reproduces the file byte for byte
    path2 = tmp_path / "record2.csv"
    write_record(back, path2)
    assert path.read_text() == path2.read_text()


def _record_lines(trap, space16, tmp_path):
    grid = default_bin_grid(trap, nbar=0.5, half_count=3)
    obs = build_observation_level(trap, grid, (0.0, 0.7), 0.5, space16)
    path = tmp_path / "record.csv"
    write_record(simulate_ideal(superposition(space16, [1.0, 1.0]), obs), path)
    return path, path.read_text().splitlines(keepends=True)


def _edit_row(line, column, value):
    cells = line.rstrip("\n").split(",")
    cells[column] = value
    return ",".join(cells) + "\n"


def test_read_record_refuses_malformed_rows(trap, space16, tmp_path):
    path, lines = _record_lines(trap, space16, tmp_path)
    i = next(n for n, ln in enumerate(lines) if ln.startswith("rotation_index")) + 1

    def with_first_row(column, value):
        return lines[:i] + [_edit_row(lines[i], column, value)] + lines[i + 1:]

    cases = [
        ("misses", lines[:-5]),
        ("repeats", lines + [lines[i]]),
        ("outside", with_first_row(0, "2")),
        # -half_count - 1 would otherwise wrap into bin +half_count
        ("outside", with_first_row(2, "-4")),
        ("theta_rad", with_first_row(1, "1e-300")),
    ]
    for message, text in cases:
        path.write_text("".join(text))
        with pytest.raises(ValueError, match=message):
            read_record(path)


def test_read_record_counts_rows_before_it_allocates_the_grid(trap, space16, tmp_path):
    """A one-row record that claims a grid of 2 x (2 * 10**6 + 1) bins is
    refused for its missing rows, allocating little: the reader once built
    the claimed grid and an index of its missing rows first, a traced peak
    of 184 MB here, and 16 GB for the grid alone at a claim of 10**9."""
    path, lines = _record_lines(trap, space16, tmp_path)
    header = next(n for n, ln in enumerate(lines) if ln.startswith("rotation_index"))
    path.write_text("".join("# grid_half_count=1000000\n" if ln.startswith("# grid_half_count=")
                            else ln for ln in lines[:header + 2]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"record misses 4000001 rows, first "
                                             r"\(rotation 0, bin -1000000\)"):
            read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_read_record_names_a_nan_value(trap, space16, tmp_path):
    path, lines = _record_lines(trap, space16, tmp_path)
    i = next(n for n, ln in enumerate(lines) if ln.startswith("rotation_index")) + 5
    path.write_text("".join(lines[:i] + [_edit_row(lines[i], 4, "nan")] + lines[i + 1:]))
    row = lines[i].split(",")
    with pytest.raises(ValueError, match=rf"nan at \(rotation {row[0]}, bin {row[2]}\)"):
        read_record(path)


def test_read_record_keeps_repeated_free_text_comments(trap, space16, tmp_path):
    """'#' lines without '=' are comments, not keys: two bare '#' lines and
    two identical comments read back as the record without them."""
    path, lines = _record_lines(trap, space16, tmp_path)
    plain = read_record(path)
    path.write_text("".join(["#\n", "# made by hand\n"] + lines[:2] + ["#\n", "# made by hand\n"]
                            + lines[2:]))
    back = read_record(path)
    assert back.nbar == plain.nbar and back.rotations == plain.rotations
    assert back.provenance == plain.provenance
    assert np.array_equal(back.values, plain.values)


def _broken_files(trap, space16, tmp_path):
    """(option, path, message) for record and cut files cut short, stripped
    of a metadata line or of their header, with a wrong header, a repeated
    metadata key or a bad provenance value, and the message their readers
    must raise."""
    path, lines = _record_lines(trap, space16, tmp_path)
    cut_path = tmp_path / "cut.csv"
    write_cut_file(_gaussian_cut(), cut_path)
    cut_lines = cut_path.read_text().splitlines(keepends=True)
    record_header = next(n for n, ln in enumerate(lines) if ln.startswith("rotation_index"))
    cut_header = next(n for n, ln in enumerate(cut_lines) if ln.startswith("z_m"))
    nbar_line = next(n for n, ln in enumerate(lines) if ln.startswith("# nbar="))
    first_row = lines[record_header + 1].split(",")
    half_bin = repr(float(first_row[3]) + 0.5 * read_record(path).grid.width)

    def with_meta(line):
        return lines[:record_header] + [line] + lines[record_header:]

    def with_first_z(z):
        return (lines[:record_header + 1] + [_edit_row(lines[record_header + 1], 3, z)]
                + lines[record_header + 2:])

    files = {
        "truncated-record": ("--record", lines[:-1] + [lines[-1].rsplit(",", 2)[0]],
                             rf"line {len(lines)}: 3 columns, the format has 5"),
        # header and rows alike one column short: the format, not the header, counts
        "four-column-record": ("--record", lines[:record_header]
                               + [ln.rsplit(",", 1)[0] + "\n" for ln in lines[record_header:]],
                               rf"line {record_header + 1}: 4 columns, the format has 5"),
        "record-without-nbar": ("--record", [ln for ln in lines if not ln.startswith("# nbar=")],
                                "'nbar' is missing"),
        "one-column-cut-row": ("--cut", cut_lines[:5] + ["0.001\n"] + cut_lines[5:],
                               "line 6: 1 columns, the format has 2"),
        "one-column-cut": ("--cut", cut_lines[:cut_header]
                           + [ln.split(",")[0] + "\n" for ln in cut_lines[cut_header:]],
                           rf"line {cut_header + 1}: 1 columns, the format has 2"),
        "cut-without-tau": ("--cut", [ln for ln in cut_lines if not ln.startswith("# tau_us=")],
                            "'tau_us' is missing"),
        # without its header the first row would name the columns, one pixel or bin lost unseen
        "headerless-cut": ("--cut", cut_lines[:cut_header] + cut_lines[cut_header + 1:],
                           f"line {cut_header + 1}: header '{cut_lines[cut_header + 1].strip()}', "
                           "the format's is 'z_m,od'"),
        "swapped-cut-header": ("--cut", cut_lines[:cut_header] + ["od,z_m\n"]
                               + cut_lines[cut_header + 1:],
                               f"line {cut_header + 1}: header 'od,z_m', the format's is 'z_m,od'"),
        "headerless-record": ("--record", lines[:record_header] + lines[record_header + 1:],
                              f"line {record_header + 1}: header "
                              f"'{lines[record_header + 1].strip()}', the format's is "
                              "'rotation_index,theta_rad,bin_index,z_m,value'"),
        # a second value for a key would silently win
        "repeated-nbar": ("--record", lines[:record_header] + ["# nbar=7.0\n"]
                          + lines[record_header:],
                          f"line {record_header + 1}: key 'nbar' repeats line {nbar_line + 1}"),
        # a z_m off its bin's center, or not a number, would read as if right
        "nan-z": ("--record", with_first_z("nan"), "has z_m nan, the grid's bin -3 is centered"),
        "text-z": ("--record", with_first_z("banana"),
                   rf"line {record_header + 2}, column 'z_m': 'banana' is not a number"),
        "text-value": ("--record", lines[:record_header + 1]
                       + [_edit_row(lines[record_header + 1], 4, "0.1x")]
                       + lines[record_header + 2:],
                       rf"line {record_header + 2}, column 'value': '0.1x' is not a number"),
        "text-od": ("--cut", cut_lines[:cut_header + 3]
                    + [_edit_row(cut_lines[cut_header + 3], 1, "")] + cut_lines[cut_header + 4:],
                    rf"line {cut_header + 4}, column 'od': '' is not a number"),
        # cut inside the last value, as 0.002 to 0.0: every column is there and parses
        "cut-short-record": ("--record",
                             lines[:-1] + [lines[-1][:lines[-1].rindex(",") + 4]],
                             rf"line {len(lines)}: the file ends without a newline"),
        "cut-short-cut": ("--cut",
                          cut_lines[:-1] + [cut_lines[-1][:cut_lines[-1].rindex(",") + 4]],
                          rf"line {len(cut_lines)}: the file ends without a newline"),
        "half-bin-z": ("--record", with_first_z(half_bin),
                       f"has z_m {half_bin}, the grid's bin -3 is centered"),
        # the peak row lost: its signal would be rebinned over two pixels
        "cut-missing-row": ("--cut", cut_lines[:cut_header + 101] + cut_lines[cut_header + 102:],
                            "apart: row 100 lies"),
        # no code reads a cut's cloud center; --fixed-center sets one
        "cut-with-center": ("--cut", ["# center_m=0.0\n"] + cut_lines,
                            "'center_m' is not read: pass the cloud center as --fixed-center"),
        # provenance NoiseSpec would refuse; a record without its kind would read as
        # ideal, and add_noise would noise it a second time
        "nan-eta": ("--record", with_meta("# eta=nan\n"),
                    "metadata key 'eta' must be a finite non-negative number, got 'nan'"),
        "negative-eta": ("--record", with_meta("# eta=-3\n"),
                         "metadata key 'eta' must be a finite non-negative number, got '-3'"),
        "negative-seed": ("--record", with_meta("# seed=-7\n"),
                          "metadata key 'seed' must be a non-negative integer, got '-7'"),
        "unknown-kind": ("--record", ["# kind=banana\n"] + lines[1:],
                         "metadata key 'kind' must be ideal, noisy or cuts, got 'banana'"),
        "record-without-kind": ("--record", [ln for ln in lines if not ln.startswith("# kind=")],
                                "'kind' is missing"),
        # an int past the float range, refused before anything is allocated
        "huge-grid": ("--record", [f"# grid_half_count={10**400}\n"
                                   if ln.startswith("# grid_half_count=") else ln for ln in lines],
                      "half_count must be an integer from 1 to 2"),
    }
    out = []
    for name, (option, text, message) in files.items():
        broken = tmp_path / f"{name}.csv"
        broken.write_text("".join(text))
        out.append((option, broken, message))
    return out


def test_readers_reject_truncated_rows_and_missing_metadata(trap, space16, tmp_path):
    for option, path, message in _broken_files(trap, space16, tmp_path):
        reader = read_record if option == "--record" else read_cut_file
        with pytest.raises(ValueError, match=message):
            reader(path)


def test_cli_rejects_truncated_files_with_an_error_line(trap, space16, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nbar = 0.5\n")
    for option, path, message in _broken_files(trap, space16, tmp_path):
        code = main(["reconstruct", "--config", str(cfg), option, str(path),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message.split(": ")[-1] in err
        assert "Traceback" not in err


def test_density_matrix_round_trip(tmp_path):
    rho = thermal_state(FockSpace(12), 0.4)
    path = tmp_path / "rho.json"
    write_density_matrix(rho, path)
    back = read_density_matrix(path)
    assert np.array_equal(back.matrix, rho.matrix)

    psi = superposition(FockSpace(6), [1.0, 0.3j])
    write_density_matrix(psi, path)
    assert np.array_equal(read_density_matrix(path).matrix, psi.matrix)


# bytes that are not UTF-8, and not JSON, CSV or config text in any encoding
NOT_UTF8 = b"\xff\n"


@pytest.mark.parametrize("reader, payload", [
    (read_density_matrix, b'{"dim": 1\n"real": [1]}'),
    (read_density_matrix, NOT_UTF8),
    # inf once warned in the complex product before the matrix check refused it
    (read_density_matrix, b'{"dim": 1, "real": [1e999], "imag": [0]}'),
    (read_record, NOT_UTF8),
    (read_record, b"# nbar=half\n# grid_center_m=0\n# grid_width_m=1e-6\n"
                  b"# grid_half_count=1\n# rotations_rad=0\n"),
    (read_cut_file, NOT_UTF8),
    (read_cut_file, b"# tau_us=0\n# pixel_width_m=1e-6\nz_m,od\n0,abc\n"),
    (read_config, NOT_UTF8),
    (read_config, b"dim = 8\nnbar\n"),
    (read_config, b"dim = 2.5\n"),
], ids=["rho-syntax", "rho-bytes", "rho-inf", "record-bytes", "record-float", "cut-bytes",
        "cut-float", "config-bytes", "config-line", "config-value"])
def test_every_reader_error_names_the_file(tmp_path, reader, payload):
    """A JSON syntax error, non-UTF-8 bytes and a value that does not parse
    name no file of their own; the reader's ValueError does."""
    path = tmp_path / "bad.file"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as info:
        reader(path)
    assert type(info.value) is ValueError


# ---------------------------------------------------------------------------
# run configuration


def test_parse_config_text_and_defaults():
    raw = parse_config_text(
        """
        # a comment line
        omega_z_hz = 80e3
        dim = 8            # trailing comment
        taus_us = 0, 1.6, 3.2
        fixed_center_m = 0
        """
    )
    cfg = RunConfig.from_dict(raw)
    assert cfg.dim == 8
    assert cfg.taus_us == (0.0, 1.6, 3.2)
    assert cfg.fixed_center_m == 0.0
    assert cfg.omega_z == pytest.approx(2.0 * math.pi * 80e3)
    assert len(cfg.rotations(cfg.taus_us)) == 3
    assert cfg.rotations(cfg.taus_us)[1] == pytest.approx(cfg.omega_z * 1.6e-6)
    assert np.array_equal(cfg.build_state().matrix,
                          superposition(FockSpace(8), [1, 1]).matrix)

    with pytest.raises(ValueError):
        RunConfig.from_dict({"not_a_key": "1"})
    with pytest.raises(ValueError):
        parse_config_text("dim 8")
    with pytest.raises(ValueError):
        RunConfig.from_dict({"dim": "eight"})


def _normalized(amp):
    amp = np.asarray(amp, dtype=np.complex128)
    return amp / np.linalg.norm(amp)


def _padded(head, dim=40):
    return _normalized(np.concatenate([head, np.zeros(dim - len(head))]))


def _cat_amplitudes(alpha, dim=40):
    """alpha^n / sqrt(n!) on the even levels n, taken in logs."""
    from scipy.special import gammaln

    even = np.arange(0, dim, 2)
    log_w = even * math.log(alpha**2) - gammaln(even + 1.0)
    amp = np.zeros(dim, dtype=np.complex128)
    amp[even] = np.exp((log_w - log_w.max()) / 2.0)
    return _normalized(amp)


def _free_flight_amplitudes(t1, dim=40):
    """c_0 = (1 + i kappa)^(-1/2), c_{n+2} = c_n xi sqrt((n+1)/(n+2)),
    xi = i kappa / (1 + i kappa), kappa = omega_z t1 / 2."""
    kappa = 0.5 * make_trap().omega_z * t1
    xi = 1j * kappa / (1.0 + 1j * kappa)
    amp = np.zeros(dim, dtype=np.complex128)
    amp[0] = 1.0 / np.sqrt(1.0 + 1j * kappa)
    for n in range(0, dim - 2, 2):
        amp[n + 2] = amp[n] * xi * math.sqrt((n + 1) / (n + 2))
    return _normalized(amp)


# the README's state specs, the factory calls they stand for and the
# closed-form Fock amplitudes of the pure ones (None for the thermal mixture)
README_STATE_SPECS = {
    "fock:2": (lambda space: fock_state(space, 2), lambda: _padded([0, 0, 1])),
    "superposition:1,1": (lambda space: superposition(space, [1, 1]), lambda: _padded([1, 1])),
    "superposition:1,0.5j": (lambda space: superposition(space, [1, 0.5j]),
                             lambda: _padded([1, 0.5j])),
    "even_cat:1.414": (lambda space: even_cat(space, 1.414), lambda: _cat_amplitudes(1.414)),
    "thermal:0.5": (lambda space: thermal_state(space, 0.5), lambda: None),
    "free_expansion:4": (lambda space: prepare_free_expansion(make_trap(), 4 * 1e-6, space),
                         lambda: _free_flight_amplitudes(4 * 1e-6)),
}


@pytest.mark.parametrize("spec", README_STATE_SPECS)
def test_each_readme_state_spec_builds_its_factory_state(spec):
    """Every state is a DensityOperator, from the spec and from its factory;
    a pure one is |c><c| of its closed-form amplitudes c, bit for bit."""
    factory, closed_form = README_STATE_SPECS[spec]
    built = RunConfig.from_dict({"dim": "40", "state": spec}).build_state()
    expected = factory(FockSpace(40))
    assert isinstance(built, DensityOperator) and isinstance(expected, DensityOperator)
    assert built.matrix.tobytes() == expected.matrix.tobytes()
    c = closed_form()
    if c is not None:
        assert built.matrix.tobytes() == np.outer(c, c.conj()).tobytes()


def test_repeated_config_key_names_both_lines():
    text = "dim = 8\n# a comment\nnbar = 0.5\n\ndim = 12  # meant to replace it\n"
    with pytest.raises(ValueError, match=r"config line 5: key 'dim' repeats line 1"):
        parse_config_text(text)
    assert parse_config_text("dim = 8\nnbar = 0.5\n") == {"dim": "8", "nbar": "0.5"}


# one config line per RunConfig field: its text and the value it parses to
CONFIG_SAMPLES = {
    "omega_z_hz": ("81e3", 81e3),
    "dz0_m": ("2.5e-8", 2.5e-8),
    "dv0_mps": ("0.012", 0.012),
    "cloud_rms_m": ("5e-5", 5e-5),
    "be_time_s": ("0.009", 0.009),
    "dim": ("12", 12),
    "taus_us": ("0, 1.5, 3", (0.0, 1.5, 3.0)),
    "bin_half_count": ("9", 9),
    "nbar": ("0.25", 0.25),
    "eta": ("0.1", 0.1),
    "seed": ("42", 42),
    "state": ("fock:2", "fock:2"),
    "fixed_center_m": ("0", 0.0),
    "grad_tol": ("1e-10", 1e-10),
}


def test_every_config_field_parses_to_its_declared_type():
    """A field added without a sample here, or of a type the parser does
    not know, fails this test."""
    declared = {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(RunConfig)}
    assert sorted(CONFIG_SAMPLES) == sorted(declared)
    text = "\n".join(f"{key} = {line}" for key, (line, _) in CONFIG_SAMPLES.items())
    cfg = RunConfig.from_dict(parse_config_text(text))
    for key, (_, value) in CONFIG_SAMPLES.items():
        assert getattr(cfg, key) == value
        assert type(getattr(cfg, key)).__name__ == declared[key]
    # the None-able floats stay None when absent
    assert RunConfig.from_dict({}).nbar is None
    for bad, match in (({"grid_margin": "1"}, "^unknown config key 'grid_margin'$"),
                       ({"recenter": "false"}, "^unknown config key 'recenter'$"),
                       ({"dim": "2.5"}, "^config key 'dim': "),
                       ({"nbar": "half"}, "^config key 'nbar': "),
                       ({"taus_us": "0, , 3"}, "^config key 'taus_us': ")):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict(bad)


@pytest.mark.parametrize("key, text", [
    ("dim", "1"),
    ("nbar", "-1"),
    ("nbar", "nan"),
    ("eta", "-0.1"),
    ("seed", "-1"),
    ("bin_half_count", "0"),
    ("grad_tol", "0"),
    ("grad_tol", "nan"),
    # ints past the float range: math.isfinite raised OverflowError on them
    pytest.param("dim", str(10**400), id="dim-10**400"),
    pytest.param("bin_half_count", str(10**400), id="bin_half_count-10**400"),
])
def test_config_rejects_out_of_range_values(key, text):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        RunConfig.from_dict({key: text})


def test_config_takes_any_non_negative_integer_seed():
    """np.random.default_rng takes a seed past the float range."""
    assert RunConfig.from_dict({"seed": str(10**400)}).seed == 10**400


@pytest.mark.parametrize("key", [
    f.name for f in dataclasses.fields(RunConfig)
    if f.type.removesuffix(" | None") in ("float", "tuple")
])
def test_config_rejects_non_finite_values(key):
    text = "0, inf, 3.2" if key == "taus_us" else "nan"
    with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
        RunConfig.from_dict({key: text})


def test_config_grid_requires_a_size(tmp_path):
    """One grid rule: default_bin_grid at the config's nbar, else at the
    hint, with the config's half count."""
    cfg = RunConfig()
    with pytest.raises(ValueError, match="set nbar in the config"):
        cfg.grid()
    assert cfg.grid(nbar_hint=0.5) == default_bin_grid(cfg.trap_config(), 0.5, half_count=25)
    sized = RunConfig(nbar=2.0, bin_half_count=7)
    assert sized.grid(nbar_hint=0.5) == default_bin_grid(sized.trap_config(), 2.0, half_count=7)

    path = tmp_path / "run.cfg"
    path.write_text("dim = 12\nnbar = 0.25\n")
    loaded = read_config(path)
    assert loaded.dim == 12
    assert loaded.nbar == 0.25


# ---------------------------------------------------------------------------
# mutation fuzz of the four readers

# a number where a reader can tell it is none, or not finite
NOT_NUMBERS = ("nan", "inf", "-inf", "1e999", "", "banana", "0.5.5")
# a number cell: not part of a key such as dz0_m or of a longer number
NUMBER = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")
# mutations after which a reader returns what was written or refuses: text lost,
# repeated or reordered, or a number cell made unreadable or infinite
KEEPING = ("truncate", "drop", "repeat", "swap", "not-a-number")
# mutations that may write another valid file: a reader that refuses one must
# only refuse it with a ValueError naming the file
CHANGING = ("number", "character")
# the other numbers: small, so that no grid size read makes a reader allocate much
SMALL_NUMBERS = ("0", "1", "-1", "2", "0.5", "-0.0", "1e-300")


def _mutate(data, text):
    """(kind, mutated text, indices of the lines it touched)."""
    lines = text.splitlines(keepends=True)
    kind = data.draw(st.sampled_from(KEEPING + CHANGING), label="kind")

    def line_of(i):
        return text.count("\n", 0, i)

    if kind == "truncate":
        i = data.draw(st.integers(0, len(text) - 1), label="cut")
        return kind, text[:i], set(range(line_of(i), len(lines)))
    if kind in ("drop", "repeat", "swap"):
        i, j = (data.draw(st.integers(0, len(lines) - 1), label=name) for name in "ij")
        if kind == "drop":
            return kind, "".join(lines[:i] + lines[i + 1:]), {i}
        if kind == "repeat":
            return kind, "".join(lines[:i] + [lines[i]] + lines[i:]), {i}
        lines[i], lines[j] = lines[j], lines[i]
        return kind, "".join(lines), {i, j}
    if kind == "character":
        i = data.draw(st.integers(0, len(text) - 1), label="at")
        char = data.draw(st.sampled_from(string.printable), label="char")
        return kind, text[:i] + char + text[i + 1:], {line_of(i)}
    start, end = data.draw(st.sampled_from([m.span() for m in NUMBER.finditer(text)]),
                           label="cell")
    new = data.draw(st.sampled_from(NOT_NUMBERS if kind == "not-a-number" else SMALL_NUMBERS),
                    label="number")
    return kind, text[:start] + new + text[end:], {line_of(start)}


def _same_record(lines, written, read, kind, touched):
    """The fit's inputs bit for bit and the kind as written; the provenance
    lines eta and seed are optional, so a touched one may go or change."""
    optional = any(lines[i].startswith(("# eta=", "# seed=")) for i in touched)
    return (read.rotations == written.rotations and read.grid == written.grid
            and np.array_equal(read.values, written.values) and read.nbar == written.nbar
            and (optional or read.provenance == written.provenance))


def _same_cut(lines, written, read, kind, touched):
    """The cut bit for bit, or, for lost lines, a run of its rows: the format
    has no pixel count, so a cut without its first or last rows is a cut."""
    n = read.positions.size
    runs = range(written.positions.size - n + 1) if kind in ("truncate", "drop") else (0,)
    return (read.tau_us == written.tau_us and read.pixel_width == written.pixel_width
            and any(np.array_equal(read.positions, written.positions[a:a + n])
                    and np.array_equal(read.values, written.values[a:a + n]) for a in runs))


def _same_density(lines, written, read, kind, touched):
    """The matrix bit for bit; two swapped entries of a list of dim**2 numbers
    may be another valid state (say rho transposed), which no reader can tell."""
    return kind == "swap" or np.array_equal(read.matrix, written.matrix)


def _same_config(lines, written, read, kind, touched):
    """Every key as written; each key is optional, so one on a lost line may
    be at its default, and the one truncation cuts, or the state spec
    (text, parsed by build_state), may read anything."""
    default, free = RunConfig(), {}
    for i in touched:
        key = lines[i].partition("=")[0].strip()
        if kind == "truncate" and i == min(touched) or key == "state":
            free[key] = getattr(read, key)
        elif kind in ("truncate", "drop") and getattr(read, key) == getattr(default, key):
            free[key] = getattr(default, key)
    return read == dataclasses.replace(written, **free)


def _fuzz_source(name, tmp_path):
    """(reader, written file, written object, comparison) for one format."""
    path = tmp_path / f"written-{name}"
    if name == "record":
        trap = make_trap()
        space = FockSpace(4)
        obs = build_observation_level(trap, default_bin_grid(trap, nbar=0.5, half_count=3),
                                      (0.0, 0.7), 0.5, space)
        written = add_noise(simulate_ideal(superposition(space, [1.0, 0.4, 0.2j]), obs),
                            NoiseSpec(0.05, 3))
        write_record(written, path)
        return read_record, path, written, _same_record
    if name == "cut":
        written = _gaussian_cut(n_pix=41)
        write_cut_file(written, path)
        return read_cut_file, path, written, _same_cut
    if name == "density":
        written = superposition(FockSpace(3), [1.0, 0.5 - 0.3j, 0.2])
        write_density_matrix(written, path)
        return read_density_matrix, path, written, _same_density
    path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in CONFIG_SAMPLES.items()))
    written = RunConfig(**{key: value for key, (_, value) in CONFIG_SAMPLES.items()})
    return read_config, path, written, _same_config


@pytest.mark.parametrize("name", ["record", "cut", "density", "config"])
def test_readers_return_what_was_written_or_refuse_naming_the_file(name, tmp_path_factory):
    """The writers' output (a hand-written config for read_config) cut short,
    without a line, with a line twice, with two lines swapped, with a number
    replaced, or with one character replaced: each reader returns what was
    written or raises a ValueError that names the file, and no other error.
    Without the cut spacing check, a cut that lost an inside row reads."""
    tmp_path = tmp_path_factory.mktemp(name)
    reader, path, written, same = _fuzz_source(name, tmp_path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    mutated = tmp_path / "mutated"

    @settings(max_examples=300, derandomize=True)
    @given(st.data())
    def check(data):
        kind, changed, touched = _mutate(data, text)
        mutated.write_text(changed)
        try:
            read = reader(mutated)
        except ValueError as exc:
            assert str(exc).startswith(f"{mutated}: ")
            return
        assert kind in CHANGING or same(lines, written, read, kind, touched), (kind, changed)

    check()


# ---------------------------------------------------------------------------
# ingestion end to end: cuts -> preprocess -> fit

# pixel-level synthetic images shared by the two ingestion tests
N_PIX_HALF = 120


@pytest.fixture(scope="module")
def synthetic_cuts(trap, space16):
    """Per-rotation absorption cuts of the displaced superposition, sampled
    on a pixel grid finer and wider than the reconstruction grid."""
    psi = superposition(space16, [1.0, 1.0])
    grid = default_bin_grid(trap, nbar=0.5, half_count=25)
    pix_width = grid.width * 51 / (2 * N_PIX_HALF + 1) * 1.4
    pix_grid = default_bin_grid(trap, nbar=0.5, half_count=N_PIX_HALF, margin=8.0)
    thetas = rotations(trap)
    pix_obs = build_observation_level(trap, pix_grid, thetas, 0.5, space16)
    pix_rec = simulate_ideal(psi, pix_obs)
    cuts = [
        CutFile(tau_us=tau * 1e6, positions=pix_grid.centers(),
                values=pix_rec.values[j], pixel_width=pix_grid.width)
        for j, tau in enumerate(TAUS)
    ]
    obs = build_observation_level(trap, grid, thetas, 0.5, space16)
    return psi, grid, obs, cuts


def _fit_rows(obs, rows, nbar):
    means = np.concatenate([np.concatenate(rows), [nbar]])
    state, report = fit(obs.with_means(means))
    return state, report


def test_background_subtraction_improves_the_fit(trap, space16, synthetic_cuts):
    """A constant optical-density offset biases every bin; the fitted-profile
    subtraction must recover most of the lost accuracy."""
    psi, grid, obs, cuts = synthetic_cuts
    dirty = [
        CutFile(tau_us=c.tau_us, positions=c.positions,
                values=1.1 * c.values + 0.02 * c.values.max(),
                pixel_width=c.pixel_width)
        for c in cuts
    ]
    rows_sub = [preprocess(c, grid, fixed_center=0.0) for c in dirty]
    rows_raw = [
        preprocess(c, grid, subtract_background=False, fixed_center=0.0)
        for c in dirty
    ]
    state_sub, rep_sub = _fit_rows(obs, rows_sub, 0.5)
    state_raw, rep_raw = _fit_rows(obs, rows_raw, 0.5)
    assert rep_sub.delta_f < 1e-3
    assert rep_raw.delta_f > 3.0 * rep_sub.delta_f
    assert fidelity(psi, state_sub.rho) > 0.98


def test_fixed_center_preserves_marginal_displacements(trap, space16,
                                                       synthetic_cuts):
    """Recentering every image on its own fitted centroid erases the
    rotation-dependent first moments that encode coherence phases; an
    externally calibrated common center keeps them."""
    psi, grid, obs, cuts = synthetic_cuts
    rows_fixed = [
        preprocess(c, grid, subtract_background=False, fixed_center=0.0)
        for c in cuts
    ]
    rows_centered = [
        preprocess(c, grid, subtract_background=False) for c in cuts
    ]
    state_fixed, _ = _fit_rows(obs, rows_fixed, 0.5)
    state_centered, _ = _fit_rows(obs, rows_centered, 0.5)
    fid_fixed = fidelity(psi, state_fixed.rho)
    fid_centered = fidelity(psi, state_centered.rho)
    assert fid_fixed > 0.98
    assert fid_centered < fid_fixed - 0.1


# ---------------------------------------------------------------------------
# command line


CHAIN_CONFIG = """
omega_z_hz = 80e3
dz0_m = 22e-9
dv0_mps = 11e-3
cloud_rms_m = 60e-6
be_time_s = 8.7e-3
dim = 8
taus_us = 0, 1.6, 3.2
bin_half_count = 10
nbar = 0.5
grad_tol = 1e-12
"""


def test_cli_simulate_reconstruct_wigner_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CHAIN_CONFIG)
    out = str(tmp_path)

    assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
    assert (tmp_path / "record.csv").exists()
    assert (tmp_path / "state_true.json").exists()

    assert main(["reconstruct", "--config", str(cfg),
                 "--record", str(tmp_path / "record.csv"), "--out", out]) == 0
    assert (tmp_path / "rho.json").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is True
    assert report["delta_f"] < 1e-9

    assert main(["wigner", "--rho", str(tmp_path / "rho.json"), "--out", out,
                 "--span", "5.0", "--points", "41"]) == 0
    assert (tmp_path / "wigner.csv").exists()
    payload = json.loads((tmp_path / "wigner.json").read_text())
    assert len(payload["values"]) == 41 * 41

    capsys.readouterr()
    assert main(["report", "--rho", str(tmp_path / "rho.json"),
                 "--reference", str(tmp_path / "state_true.json"),
                 "--fit", str(tmp_path / "report.json")]) == 0
    text = capsys.readouterr().out
    fid = float([ln for ln in text.splitlines()
                 if ln.startswith("fidelity")][0].split("=")[1])
    assert fid > 0.999


def test_cli_reconstruct_from_cuts_needs_nbar(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 8\nbin_half_count = 10\ntaus_us = 0\n")
    cut = _gaussian_cut(tau_us=0.0, center=0.0, sigma=1.1e-4)
    cut_path = tmp_path / "cut0.csv"
    write_cut_file(cut, cut_path)
    code = main(["reconstruct", "--config", str(cfg), "--cut", str(cut_path),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "mean excitation" in err
    assert "--nbar" in err


@pytest.mark.parametrize("line", ["bin_width_m = 2e-5", "grid_margin = 3.5", "grid_center_m = 0",
                                  "noisy_nbar = 0.9", "weight_nbar = 3", "gh_nodes = 40",
                                  "gl_nodes = 6", "max_iter = 500", "subtract_background = false",
                                  "recenter = false"])
def test_cli_refuses_a_grid_size_or_center_in_the_config(tmp_path, capsys, line):
    """The grid is sized from nbar alone and centered on the cloud, a fit
    reads its nbar from reconstruct --nbar or the config's nbar, and the nbar
    weight, quadrature, iteration cap and cut preprocessing are every run's:
    a config that still sets a bin width, a margin, a grid center, noisy_nbar
    or one of the RunConfig constants exits 1."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim = 8\nnbar = 0.5\n{line}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"unknown config key '{line.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "record.csv").exists()


def test_cli_reconstruct_reports_non_convergence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CHAIN_CONFIG.replace("grad_tol = 1e-12", "grad_tol = 1e-30"))
    monkeypatch.setattr(RunConfig, "max_iter", 2)
    out = str(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
    code = main(["reconstruct", "--config", str(cfg),
                 "--record", str(tmp_path / "record.csv"), "--out", out])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False


def test_cli_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim = 8\nunknown_key = 3\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
