"""File formats, image-cut preprocessing and run configuration.

Formats:
  measurement record   CSV with '#' key=value metadata lines, then a header
                       and rows (rotation_index, theta_rad, bin_index, z_m,
                       value).  Floats are written with repr so a read back
                       is bit identical.
  density matrix       JSON {"dim": N, "real": [...], "imag": [...]} with
                       row-major flattened arrays.
  image cut            CSV rows (z_m, od) for a single rotation, one pixel
                       apart, metadata tau_us, pixel_width_m.
  run config           key = value lines, '#' comments; keys carry unit
                       suffixes (omega_z_hz, be_time_s, ...).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .hilbert import (MAX_COUNT, DensityOperator, FockSpace, even_cat, fock_state,
                      superposition, thermal_state)
from .measurement import (
    BinGrid,
    ObservableSet,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
)
from .simulate import MeasurementRecord, prepare_free_expansion


class FitDivergence(RuntimeError):
    """The Gaussian profile fit failed or ran away."""


class EmptyAfterClamp(ValueError):
    """Background subtraction and clamping removed all signal."""


# the largest offset, relative to the pixel or bin width, of a cut's pixel
# spacing and of a record row's z_m
_PITCH_TOL = 1e-6


def _names_its_file(read):
    """``read(path)``, each ValueError it raises re-raised naming the file:
    a JSON syntax error or non-UTF-8 bytes name none of their own."""
    @functools.wraps(read)
    def read_path(path):
        try:
            return read(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return read_path


@dataclass(frozen=True)
class CutFile:
    """A single absorption-image cut: one rotation's histogram along z.

    positions are pixel centers in meters, strictly increasing and one
    pixel_width apart; values are optical densities in arbitrary units.
    The hold time is kept in microseconds, the unit of the file, so a
    read-write cycle is bit-exact.
    """

    tau_us: float
    positions: np.ndarray
    values: np.ndarray
    pixel_width: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if pos.ndim != 1 or pos.shape != vals.shape:
            raise ValueError("positions and values must be equal-length vectors")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        step = np.diff(pos)
        if pos.size < 2 or np.any(step <= 0):
            raise ValueError("positions must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if not math.isfinite(self.tau_us):
            raise ValueError(f"tau_us must be finite, got {self.tau_us!r}")
        if not (math.isfinite(self.pixel_width) and self.pixel_width > 0):
            raise ValueError(f"pixel_width must be finite and positive, got {self.pixel_width!r}")
        bad = np.flatnonzero(~(np.abs(step - self.pixel_width) <= _PITCH_TOL * self.pixel_width))
        if bad.size:  # a missing row, or a pixel_width that is not the pitch
            i = bad[0]
            raise ValueError(f"positions must be one pixel_width {self.pixel_width!r} apart: "
                             f"row {i + 1} lies {float(step[i])!r} past row {i}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", vals)


@_names_its_file
def read_cut_file(path) -> CutFile:
    meta, rows = _read_csv_with_meta(path, ("tau_us", "pixel_width_m"),
                                     {"z_m": float, "od": float})
    if "center_m" in meta:
        raise ValueError("metadata key 'center_m' is not read: pass the cloud center "
                         "as --fixed-center (fixed_center_m in the config)")
    return CutFile(
        tau_us=float(meta["tau_us"]),
        positions=np.array([z for z, _ in rows]),
        values=np.array([od for _, od in rows]),
        pixel_width=float(meta["pixel_width_m"]),
    )


def write_cut_file(cut: CutFile, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# tau_us={float(cut.tau_us)!r}\n")
        fh.write(f"# pixel_width_m={float(cut.pixel_width)!r}\n")
        fh.write("z_m,od\n")
        for z, v in zip(cut.positions, cut.values):
            fh.write(f"{float(z)!r},{float(v)!r}\n")


# ---------------------------------------------------------------------------
# profile fitting and rebinning


@dataclass(frozen=True)
class GaussianFit:
    center: float
    sigma: float
    amplitude: float
    background: float


def _gauss_model(z, amp, center, sigma, background):
    return amp * np.exp(-0.5 * ((z - center) / sigma) ** 2) + background


def gaussian_fit_center(cut: CutFile) -> GaussianFit:
    """Least-squares Gaussian-plus-constant fit of a cut.

    Deterministic moment initialization: center at the maximum, width from
    the FWHM, background from the minimum value.  MINPACK's lmdif, called
    as curve_fit calls it; an info outside 1-4 raises FitDivergence.
    """
    z, od = cut.positions, cut.values
    if z.size < 5:
        raise ValueError("need at least 5 points to fit a profile")
    span = float(z[-1] - z[0])
    b0 = float(od.min())
    a0 = float(od.max() - b0)
    i_max = int(np.argmax(od))
    above = od - b0 > 0.5 * a0
    s0 = max(float(np.count_nonzero(above)) * cut.pixel_width / 2.355,
             cut.pixel_width)
    if a0 <= 0:
        raise FitDivergence("flat profile: no peak to fit")
    from .maxent import _optimize_extension

    # MINPACK's lmdif with curve_fit's defaults: ftol = xtol = 1.49012e-8,
    # gtol 0, epsfcn machine epsilon, factor 100, no diag
    popt, ier = _optimize_extension("_minpack")._lmdif(
        lambda p: _gauss_model(z, *p) - od, np.array([a0, float(z[i_max]), s0, b0]), (),
        0, 1.49012e-8, 1.49012e-8, 0.0, 20000, np.finfo(float).eps, 100, None)
    if ier not in (1, 2, 3, 4):
        raise FitDivergence(f"profile fit did not converge (lmdif info {ier})")
    amp, center, sigma, background = (float(v) for v in popt)
    sigma = abs(sigma)
    if not np.isfinite(center) or sigma > 10.0 * span or amp <= 0:
        raise FitDivergence(
            f"degenerate profile fit (center={center!r}, sigma={sigma!r})"
        )
    return GaussianFit(center=center, sigma=sigma, amplitude=amp, background=background)


def _overlap_rebin(src_edges: np.ndarray, src_vals: np.ndarray,
                   dst_edges: np.ndarray) -> np.ndarray:
    """Mass-conserving rebin: each source bin's content is split among the
    destination bins in proportion to geometric overlap."""
    out = np.zeros(dst_edges.size - 1)
    for lo, hi, v in zip(src_edges[:-1], src_edges[1:], src_vals):
        if v == 0.0:
            continue
        left = np.clip(dst_edges[:-1], lo, hi)
        right = np.clip(dst_edges[1:], lo, hi)
        out += v * np.clip(right - left, 0.0, None) / (hi - lo)
    return out


def preprocess(
    cut: CutFile,
    grid: BinGrid,
    *,
    subtract_background: bool = True,
    recenter: bool = True,
    fixed_center: float | None = None,
) -> np.ndarray:
    """Turn a raw cut into one row of bin means on the reconstruction grid.

    Steps: fit a Gaussian profile (if needed), subtract the fitted constant
    background, clamp negatives to zero, shift positions so the cloud center
    lands on grid.center, rebin by overlap, normalize to unit sum.  With the
    background already at zero the chain is idempotent apart from the clamp.
    A ``fixed_center`` with ``recenter`` off is refused, not ignored, and so
    is a non-finite one.
    """
    if not recenter and fixed_center is not None:
        raise ValueError(f"fixed_center={fixed_center!r} has no effect with recenter "
                         "off: turn recenter on or drop the fixed center")
    if fixed_center is not None and not math.isfinite(fixed_center):
        raise ValueError(f"fixed_center must be finite, got {fixed_center!r}")
    profile = None
    if subtract_background or (recenter and fixed_center is None):
        profile = gaussian_fit_center(cut)

    vals = cut.values.astype(np.float64)
    if subtract_background:
        vals = vals - profile.background
    vals = np.clip(vals, 0.0, None)
    if not np.any(vals > 0):
        raise EmptyAfterClamp("no signal left after background subtraction")

    if recenter:
        center = fixed_center if fixed_center is not None else profile.center
        shifted = cut.positions - center + grid.center
    else:
        shifted = cut.positions

    src_edges = np.concatenate([
        shifted - 0.5 * cut.pixel_width, [shifted[-1] + 0.5 * cut.pixel_width]
    ])
    dst_edges = grid.edges()
    # far off, the shifted pixel edges collapse and the rebin would divide 0/0
    if not (src_edges[0] < dst_edges[-1] and src_edges[-1] > dst_edges[0]):
        raise EmptyAfterClamp("signal fell entirely outside the grid")
    row = _overlap_rebin(src_edges, vals, dst_edges)
    total = row.sum()
    if total <= 0:
        raise EmptyAfterClamp("signal fell entirely outside the grid")
    return row / total


# ---------------------------------------------------------------------------
# record and matrix serialization


def _read_csv_with_meta(path, required, columns):
    """'#' key=value metadata and the rows after the header line, each cell
    parsed by its column's type in ``columns`` (name: int or float); the
    header must name the columns, every row must have as many, the last line
    must end in a newline, every ``required`` key must be present and no key
    may repeat; '#' lines without '=' are free text."""
    meta, rows, first_line, header, line = {}, [], {}, False, ""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                key, eq, value = (part.strip() for part in text[1:].partition("="))
                if eq and key in first_line:
                    raise ValueError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
                if eq:
                    meta[key], first_line[key] = value, lineno
                continue
            tokens = [tok.strip() for tok in text.split(",")]
            if len(tokens) != len(columns):
                raise ValueError(f"line {lineno}: {len(tokens)} columns, "
                                 f"the format has {len(columns)}")
            if not header:
                if tuple(tokens) != tuple(columns):
                    raise ValueError(f"line {lineno}: header {text!r}, the format's is "
                                     f"{','.join(columns)!r}")
                header = True
                continue
            row = []
            for (name, parse), cell in zip(columns.items(), tokens):
                try:
                    row.append(parse(cell))
                except ValueError:
                    kind = "an integer" if parse is int else "a number"
                    raise ValueError(f"line {lineno}, column {name!r}: {cell!r} is not "
                                     f"{kind}") from None
            rows.append(row)
    if not line.endswith("\n") and line.strip():  # 0.002 cut short reads as 0.0
        raise ValueError(f"line {lineno}: the file ends without a newline, as a file "
                         "cut short does")
    for key in required:
        if key not in meta:
            raise ValueError(f"metadata key {key!r} is missing")
    return meta, rows


def write_record(record: MeasurementRecord, path) -> None:
    grid = record.grid
    prov = record.provenance
    with open(path, "w") as fh:
        fh.write(f"# kind={prov.get('kind', 'ideal')}\n")
        if "eta" in prov:
            fh.write(f"# eta={float(prov['eta'])!r}\n")
        if "seed" in prov:
            fh.write(f"# seed={int(prov['seed'])}\n")
        fh.write(f"# nbar={float(record.nbar)!r}\n")
        fh.write(f"# grid_center_m={float(grid.center)!r}\n")
        fh.write(f"# grid_width_m={float(grid.width)!r}\n")
        fh.write(f"# grid_half_count={grid.half_count}\n")
        fh.write("# rotations_rad="
                 + ",".join(repr(float(t)) for t in record.rotations) + "\n")
        fh.write("rotation_index,theta_rad,bin_index,z_m,value\n")
        ks = grid.indices()
        zs = grid.centers()
        for j, theta in enumerate(record.rotations):
            for k, z, v in zip(ks, zs, record.values[j]):
                fh.write(f"{j},{float(theta)!r},{k},{float(z)!r},{float(v)!r}\n")


@_names_its_file
def read_record(path) -> MeasurementRecord:
    meta, rows = _read_csv_with_meta(
        path, ("kind", "nbar", "grid_center_m", "grid_width_m", "grid_half_count",
               "rotations_rad"),
        {"rotation_index": int, "theta_rad": float, "bin_index": int, "z_m": float,
         "value": float})
    grid = BinGrid(
        center=float(meta["grid_center_m"]),
        width=float(meta["grid_width_m"]),
        half_count=int(meta["grid_half_count"]),
    )
    rotations = tuple(float(t) for t in meta["rotations_rad"].split(","))
    hc = grid.half_count
    seen = {}  # (rotation, bin) -> value; the metadata's grid is allocated only once covered
    for j, theta, k, z, value in rows:
        if not (0 <= j < len(rotations) and abs(k) <= hc):
            raise ValueError(f"record row (rotation {j}, bin {k}) is outside "
                             f"{len(rotations)} rotations x bins +-{hc}")
        if (j, k) in seen:
            raise ValueError(f"record repeats the row (rotation {j}, bin {k})")
        if theta != rotations[j]:
            raise ValueError(f"record row (rotation {j}, bin {k}) has theta_rad "
                             f"{theta!r}, metadata says {rotations[j]!r}")
        center = grid.center + grid.width * k  # grid.centers()[k + hc], bit for bit
        if not abs(z - center) <= _PITCH_TOL * grid.width:
            raise ValueError(f"record row (rotation {j}, bin {k}) has z_m {z!r}, the "
                             f"grid's bin {k} is centered at {center!r}")
        seen[j, k] = value
    missing = len(rotations) * grid.n_bins - len(seen)
    if missing:
        j, k = next((j, k) for j in range(len(rotations)) for k in range(-hc, hc + 1)
                    if (j, k) not in seen)
        raise ValueError(f"record misses {missing} rows, first (rotation {j}, bin {k})")
    values = np.zeros((len(rotations), grid.n_bins))
    for (j, k), value in seen.items():
        values[j, k + hc] = value
    if meta["kind"] not in ("ideal", "noisy", "cuts"):  # the kinds the package writes
        raise ValueError(f"metadata key 'kind' must be ideal, noisy or cuts, "
                         f"got {meta['kind']!r}")
    provenance = {"kind": meta["kind"]}
    # as NoiseSpec would take them: a finite eta >= 0 and an integer seed >= 0
    for key, parse, rule in (("eta", float, "a finite non-negative number"),
                             ("seed", int, "a non-negative integer")):
        if key in meta:
            try:
                value = parse(meta[key])
            except ValueError:
                value = math.nan
            if not 0 <= value < math.inf:
                raise ValueError(f"metadata key {key!r} must be {rule}, got {meta[key]!r}")
            provenance[key] = value
    return MeasurementRecord(
        rotations=rotations,
        grid=grid,
        values=values,
        nbar=float(meta["nbar"]),
        provenance=provenance,
    )


def write_density_matrix(rho: DensityOperator, path) -> None:
    m = rho.matrix
    payload = {
        "dim": int(m.shape[0]),
        "real": [float(v) for v in m.real.ravel()],
        "imag": [float(v) for v in m.imag.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _is_finite_number(value) -> bool:
    """A JSON int or float that converts to a finite float (int and float compare exactly)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@_names_its_file
def read_density_matrix(path) -> DensityOperator:
    """Read the JSON object ``write_density_matrix`` writes: a positive
    integer ``dim`` and ``real``/``imag`` lists of dim**2 finite numbers."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("density matrix file must hold a JSON object")
    dim = payload.get("dim")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim > 0):
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    parts = []
    for key in ("real", "imag"):
        values = payload.get(key)
        if not (isinstance(values, list) and len(values) == dim * dim
                and all(map(_is_finite_number, values))):
            raise ValueError(f"'{key}' must be a list of dim**2 = {dim * dim} finite numbers")
        parts.append(np.asarray(values))
    return DensityOperator((parts[0] + 1j * parts[1]).reshape(dim, dim))


# ---------------------------------------------------------------------------
# run configuration


# config value parsers by declared field type; the one tuple is taus_us
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple": lambda text: tuple(float(t) for t in text.split(",")),
}


@dataclass
class RunConfig:
    """Everything one run sets, resolvable from a key=value file.

    Unit-suffixed keys: omega_z_hz is the trap frequency omega_z/2pi in Hz;
    lengths are meters, times seconds unless the suffix says otherwise
    (taus_us).  ``state`` uses kind:args strings, e.g.
    superposition:1,1  fock:2  even_cat:1.414  thermal:0.5  free_expansion:4
    (free-expansion argument in microseconds).

    The class constants after the keys are every run's, not keys: the nbar
    row's weight, the quadrature nodes per bin, the fit's iteration cap and
    the cut preprocessing (subtract each cut's fitted background, recenter
    it; a fixed center at the grid's 0 is recentering off).
    ``build_observation_level``, ``preprocess`` and ``fit`` take others.
    """

    omega_z_hz: float = 80e3
    dz0_m: float = 22e-9
    dv0_mps: float = 11e-3
    cloud_rms_m: float = 60e-6
    be_time_s: float = 8.7e-3
    dim: int = 16
    taus_us: tuple = (0.0, 1.6, 3.2, 4.8)
    bin_half_count: int = 25
    nbar: float | None = None
    eta: float = 0.0
    seed: int = 0
    state: str = "superposition:1,1"
    fixed_center_m: float | None = None
    grad_tol: float = 1e-9

    weight_nbar: ClassVar[float] = 1.0
    gh_nodes: ClassVar[int] = 32
    gl_nodes: ClassVar[int] = 8
    max_iter: ClassVar[int] = 20000
    subtract_background: ClassVar[bool] = True
    recenter: ClassVar[bool] = True

    def __post_init__(self):
        # by declared type: every float and int, and each entry of the tuple taus_us;
        # a Python int is finite, and may exceed the float range
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            numbers = value if kind == "tuple" else (value,) if kind in ("float", "int") else ()
            if not all(x is None or isinstance(x, int) or math.isfinite(x) for x in numbers):
                raise ValueError(f"config key {f.name!r} must be finite, got {value!r}")
        rules = [
            (key, getattr(self, key) is None or getattr(self, key) > 0, "positive")
            for key in ("omega_z_hz", "dz0_m", "dv0_mps", "cloud_rms_m", "be_time_s", "grad_tol")
        ] + [
            (key, getattr(self, key) is None or getattr(self, key) >= 0, "non-negative")
            for key in ("nbar", "eta", "seed")
        ] + [
            ("dim", 2 <= self.dim <= MAX_COUNT, "from 2 to 2**53"),
            ("bin_half_count", 1 <= self.bin_half_count <= MAX_COUNT, "from 1 to 2**53"),
        ]
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"config key {key!r} must be {rule}, got {getattr(self, key)!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Parse each value by its field's declared type (the annotation
        text, "float | None" read as "float")."""
        parsers = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(cls)}
        kwargs = {}
        for key, text in raw.items():
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = parsers[key](str(text))
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)

    # derived objects ------------------------------------------------------

    @property
    def omega_z(self) -> float:
        return 2.0 * math.pi * self.omega_z_hz

    def trap_config(self) -> TrapConfig:
        return TrapConfig(
            omega_z=self.omega_z,
            dz0=self.dz0_m,
            dv0=self.dv0_mps,
            cloud_rms=self.cloud_rms_m,
            be_time=self.be_time_s,
        )

    def space(self) -> FockSpace:
        return FockSpace(self.dim)

    def rotations(self, taus_us) -> tuple:
        """Hold times in microseconds as rotation angles omega_z * tau: the
        one conversion, for the config's taus_us and cut files alike."""
        return tuple(self.omega_z * tau * 1e-6 for tau in taus_us)

    def grid(self, nbar_hint: float | None = None) -> BinGrid:
        """The bin grid sized for the config's nbar, else for ``nbar_hint``."""
        nbar = self.nbar if self.nbar is not None else nbar_hint
        if nbar is None:
            raise ValueError("cannot size the bin grid: set nbar in the config")
        return default_bin_grid(self.trap_config(), nbar, half_count=self.bin_half_count)

    def observation_level(self, grid: BinGrid, rotations) -> ObservableSet:
        return build_observation_level(
            self.trap_config(), grid, rotations, None, self.space(),
            weight_nbar=self.weight_nbar, gh_nodes=self.gh_nodes, gl_nodes=self.gl_nodes,
        )

    def cut_record(self, cuts) -> MeasurementRecord:
        """One preprocessed row per cut on the config's grid, at the cuts'
        hold-time angles, with the config's nbar."""
        if self.nbar is None:
            raise ValueError(
                "a measured mean excitation number is required to reconstruct "
                "from image cuts: it anchors the fit and bounds the occupied "
                "levels; pass --nbar or set nbar in the config"
            )
        grid = self.grid()
        rows = [
            preprocess(c, grid, subtract_background=self.subtract_background,
                       recenter=self.recenter, fixed_center=self.fixed_center_m)
            for c in cuts
        ]
        return MeasurementRecord(
            rotations=self.rotations([c.tau_us for c in cuts]), grid=grid,
            values=rows, nbar=self.nbar, provenance={"kind": "cuts"},
        )

    def build_state(self):
        """The ``state`` spec, kind:args, as a state in ``space()``."""
        kind, _, arg = (part.strip() for part in self.state.partition(":"))
        space = self.space()
        if kind == "free_expansion":
            return prepare_free_expansion(self.trap_config(), float(arg) * 1e-6, space)
        if kind == "fock":
            return fock_state(space, int(arg))
        if kind == "superposition":
            return superposition(space, [complex(tok.strip()) for tok in arg.split(",")])
        if kind == "even_cat":
            return even_cat(space, float(arg))
        if kind == "thermal":
            return thermal_state(space, float(arg))
        raise ValueError(f"unknown state spec {self.state!r}")


def parse_config_text(text: str) -> dict:
    """key = value lines as a dict; a key may appear once."""
    raw, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        bare = line.split("#", 1)[0].strip()
        if not bare:
            continue
        if "=" not in bare:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in bare.partition("="))
        if key in first_line:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        raw[key] = value
    return raw


@_names_its_file
def read_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(parse_config_text(fh.read()))
