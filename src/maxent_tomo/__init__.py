"""Maximum-entropy reconstruction of harmonic motional states from
time-of-flight absorption data, with an end-to-end measurement simulator.

The namespace is lazy: a name is imported from its submodule on first
access, so a process pays only for the submodules it uses."""

import importlib

# each exported name, mapped to the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "hilbert": "DensityOperator FockSpace PureState TruncationError delta_rho "
               "entropy even_cat expectation fidelity fock_state hermite_functions "
               "number_operator superposition thermal_state",
    "io": "CutFile EmptyAfterClamp FitDivergence GaussianFit RunConfig gaussian_fit_center "
          "parse_config_text preprocess read_config read_cut_file read_density_matrix "
          "read_record write_cut_file write_density_matrix write_record",
    "maxent": "CanonicalState FitReport LagrangeVector MissingMeans canonical_state "
              "deviation fit",
    "measurement": "BinGrid DegenerateRotationError ObservableSet QuadratureError TrapConfig "
                   "build_observation_level default_bin_grid",
    "simulate": "DimensionMismatch MeasurementRecord NoiseSpec add_noise "
                "prepare_free_expansion simulate_ideal",
    "wigner": "WignerGrid wigner_eval write_wigner_csv write_wigner_json",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
