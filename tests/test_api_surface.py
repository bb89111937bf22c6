"""The public surface of ``rydphon``: its exported names, the options of its
exported functions and command-line subcommands, the stored fields of its
exported dataclasses, and the fixed numerical settings behind them.

A new exported name, defaulted parameter, dataclass field or command-line
flag fails here until it is added below on purpose; so does a changed
default or fixed setting.
"""

import argparse
import dataclasses
import inspect

import pytest

import rydphon
from rydphon import atom_phonon, bands, cli, equilibrium, local_phonons

EXPORTED = {
    "BandDiagnostics", "BandStructure", "BulkEquilibrium", "ChainSpec", "CoincidentAtomsError",
    "ConfigError", "Configuration", "CouplingGrid", "DynamicalInstabilityError",
    "ExtendedHHModel", "FiniteSpectrum", "ImaginaryFrequencyError", "LocalPhononModel",
    "MaxIterExceededError", "NonConvergedCutoffError", "NonFiniteMatrixError",
    "NonPositiveDiagonalError", "RydphonError", "SchemaMismatchError", "Topology",
    "ZeroFrequencyError", "aggregate_J", "assemble", "band_diagnostics", "band_structure",
    "base_offsets", "bogoliubov_frequencies", "coupled_bands", "coupling_grid",
    "coupling_matrices", "deserialize", "detect_edge_modes", "dipole_unit", "fd_gradient",
    "fd_hessian", "finite_spectrum", "gradient", "hessian", "load_chain_spec",
    "local_frequencies", "local_phonon_model", "magic_angle", "physical_coupling",
    "q_grid", "relax_bulk", "relax_finite", "rho0", "serialize", "spec_digest", "spec_from_dict",
    "spec_to_dict", "total_energy", "track_bands", "trap_centers",
}

# every defaulted parameter of an exported function, with its default
OPTIONS = {
    "assemble": {"q_points": 256, "relax": False},
    "band_structure": {"q_points": 256, "relax": False},
    "fd_gradient": {"step": 1e-5},
    "fd_hessian": {"step": 1e-4},
    "finite_spectrum": {"relax": False, "q_points": 256},
    "local_phonon_model": {"relax": False},
}

# the stored fields of every exported dataclass, in order, with their defaults
# (a default factory's value) or "required"
FIELDS = {
    "BandDiagnostics": {"crossings": "required", "concavity": "required",
                        "bandwidth": "required"},
    "BandStructure": {"q_grid": "required", "omega": "required", "xi": "required",
                      "spec": "required", "relaxed": "required", "blocks": None},
    "BulkEquilibrium": {"delta_a": "required", "delta_b": "required",
                        "residual_inf_norm": "required", "n_iterations": "required"},
    "ChainSpec": {"n_cells": "required", "d": "required", "delta": 1.0, "a": None,
                  "theta": rydphon.magic_angle(), "phi": 0.0, "topology": rydphon.Topology.TRIVIAL,
                  "nu": (1.0, 1.0, 1.0), "mass": 1.0, "v_dd": 1.0 / 3.0},
    "Configuration": {"positions": "required", "residual_inf_norm": None, "relaxed": False,
                      "n_iterations": 0, "energy_history": (), "hessian": None},
    "CouplingGrid": {"q_grid": "required", "m_complex": "required", "m_abs": "required",
                     "rho0_values": "required", "omega": "required", "spec": "required"},
    "ExtendedHHModel": {"spec": "required", "t": "required", "U": "required",
                        "g_cp": "required", "bands": "required", "couplings": "required",
                        "conventions": "required"},
    "FiniteSpectrum": {"frequencies": "required", "modes": "required", "report": "required",
                       "band_edges": "required", "spec": "required", "relaxed": "required"},
    "LocalPhononModel": {"omega_local": "required", "g": "required", "J": "required",
                         "spec": "required", "relaxed": "required"},
}

# the option strings of every subcommand, without -h and --help
CLI_FLAGS = {
    "bands": {"--q-points", "--relax", "--out"},
    "spectrum": {"--relax", "--out"},
    "local": {"--relax", "--out-g", "--out-j"},
    "coupling": {"--q-points", "--relax", "--out"},
    "sweep": {"--q-points", "--param", "--from", "--to", "--steps", "--out"},
    "export": {"--q-points", "--relax", "--t", "--U", "--gcp", "--out"},
    "check": set(),
}

# the settings each result is computed with, as the README lists them
FIXED = {
    (equilibrium, "_TOL"): 1e-10,
    (equilibrium, "_BULK_TOL"): 1e-8,
    (equilibrium, "_MAX_ITER"): 200,
    (equilibrium, "_CUTOFF_CELLS"): 32,
    (bands, "_MIN_RUN"): 3,
    (bands, "_CONCAVITY_WINDOW"): 0.5,
    (bands, "_CONCAVITY_NODES"): 64,
    (bands, "_CONCAVITY_FLAT_TOL"): 1e3,
    (bands, "_INTERIOR_MARGIN"): 1e-4,
    (bands, "_EXTERIOR_MARGIN"): 1e-4,
    (bands, "_END_DECAY_THRESHOLD"): 1.8,
    (local_phonons, "_EXCLUDE_OUTER_CELLS"): 1,
    (atom_phonon, "_COUPLED_FRACTION"): 0.05,
    (cli, "_SERIAL_BLAS_CELLS"): 16,
}


def _exported():
    return {name: value for name, value in vars(rydphon).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_exported_names():
    assert set(_exported()) == EXPORTED


def test_options_of_exported_functions():
    options = {}
    for name, value in _exported().items():
        if inspect.isfunction(value):
            defaults = {p.name: p.default for p in inspect.signature(value).parameters.values()
                        if p.default is not inspect.Parameter.empty}
            if defaults:
                options[name] = defaults
    assert options == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 9


def _default(field):
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return "required"


def test_fields_of_exported_dataclasses():
    fields = {name: [(field.name, _default(field)) for field in dataclasses.fields(value)]
              for name, value in _exported().items()
              if inspect.isclass(value) and dataclasses.is_dataclass(value)}
    assert fields == {name: list(pinned.items()) for name, pinned in FIELDS.items()}


def test_flags_of_cli_subcommands():
    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, sub in subcommands.items()}
    assert flags == CLI_FLAGS


@pytest.mark.parametrize("where, value", FIXED.items(),
                         ids=[name for _, name in FIXED])
def test_fixed_numerical_settings(where, value):
    module, name = where
    assert getattr(module, name) == value
