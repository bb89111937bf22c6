"""Assembly and serialization of the extended Hubbard-Holstein bundle.

The model file is a single JSON document: hopping and repulsion scalars,
the phonon bands, and the dimensionless coupling table, together with
full provenance (chain parameters, tool version, numerical conventions).
Every float is written with shortest round-trip precision so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from .atom_phonon import CouplingGrid, coupling_grid
from .bands import BandStructure, DEFAULT_Q_POINTS, band_structure
from .errors import ConfigError, SchemaMismatchError
from .geometry import ChainSpec, _read_json, spec_from_dict, spec_to_dict

SCHEMA_VERSION = 1

# numerical conventions fixed by the code; also written into every CSV header
CONVENTIONS = {
    "gauge": "largest-z-component-real-nonnegative",
    "pair_sum": "unordered-pairs-counted-once",
    "modulus": "abs-z-components-in-coupling",
}

_REQUIRED_CONVENTIONS = (*CONVENTIONS, "cutoff_cells")
# the numbers that deserialize reads and their shapes; "Nq" is the q count
_NUMERIC_SHAPES = {
    ("hubbard", "t"): (),
    ("hubbard", "U"): (),
    ("coupling_scale", "g_cp"): (),
    ("phonons", "q"): ("Nq",),
    ("phonons", "omega", "values"): (6, "Nq"),
    ("phonons", "xi_re", "values"): (6, 6, "Nq"),
    ("phonons", "xi_im", "values"): (6, 6, "Nq"),
    ("couplings", "m_re", "values"): (6, "Nq"),
    ("couplings", "m_im", "values"): (6, "Nq"),
    ("couplings", "rho0"): ("Nq",),
}
# every key that deserialize reads, as a path into the document
_REQUIRED_KEYS = (("provenance", "chain_spec"), *_NUMERIC_SHAPES)
_ABSENT = object()


def conventions_dict(cutoff_cells: int, relaxed: bool) -> dict:
    return {
        **CONVENTIONS,
        "cutoff_cells": cutoff_cells,
        "rho_z_source": "trap",  # coupling phases always use the trap-center offsets
        "geometry": "relaxed" if relaxed else "trap-centers",
        "q_grid": "uniform-open-left-endpoint-at-pi-over-a",
    }


def spec_digest(spec: ChainSpec) -> str:
    text = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExtendedHHModel:
    spec: ChainSpec
    t: float
    U: float
    g_cp: float
    bands: BandStructure
    couplings: CouplingGrid
    conventions: dict

    def __eq__(self, other):
        if not isinstance(other, ExtendedHHModel):
            return NotImplemented
        scalars = [(m.spec, m.t, m.U, m.g_cp, m.conventions) for m in (self, other)]
        arrays = [(m.bands.q_grid, m.bands.omega, m.bands.xi, m.couplings.m_complex,
                   m.couplings.rho0_values) for m in (self, other)]
        return scalars[0] == scalars[1] and all(map(np.array_equal, *arrays))


def assemble(
    spec: ChainSpec,
    t: float,
    U: float,
    g_cp: float,
    q_points: int = DEFAULT_Q_POINTS,
    relax: bool = False,
) -> ExtendedHHModel:
    """Run the full pipeline and bundle the results, all from one band structure."""
    if not np.isfinite(t) or not np.isfinite(U):
        raise ValueError("t and U must be finite")
    if not (np.isfinite(g_cp) and g_cp >= 0):
        raise ValueError("g_cp must be finite and nonnegative")
    bands = band_structure(spec, q_points=q_points, relax=relax)
    return ExtendedHHModel(
        spec=spec, t=float(t), U=float(U), g_cp=float(g_cp),
        bands=bands, couplings=coupling_grid(bands),
        conventions=conventions_dict(bands.cutoff_cells, bands.relaxed),
    )


def _clean(values: np.ndarray) -> list:
    # adding 0.0 turns negative zeros positive, keeping reserialization byte-stable
    return (np.asarray(values) + 0.0).tolist()


def _axis_table(values: np.ndarray, axes: list) -> dict:
    return {"axes": axes, "values": _clean(values)}


def model_document(model: ExtendedHHModel) -> dict:
    bands = model.bands
    grid = model.couplings
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "extended-hubbard-holstein-model",
        "provenance": {
            "tool": "rydphon",
            "version": _version,
            "chain_spec": spec_to_dict(model.spec),
            "spec_digest": spec_digest(model.spec),
            "conventions": dict(model.conventions),
        },
        "hubbard": {"t": model.t, "U": model.U},
        "coupling_scale": {"g_cp": model.g_cp, "units": "sqrt(hbar*g_cp^2/(2*mass))"},
        "phonons": {
            "q": _clean(bands.q_grid),
            "omega": _axis_table(bands.omega.T, ["band", "q"]),
            "xi_re": _axis_table(bands.xi.real.transpose(2, 1, 0), ["band", "component", "q"]),
            "xi_im": _axis_table(bands.xi.imag.transpose(2, 1, 0), ["band", "component", "q"]),
        },
        "couplings": {
            "m_re": _axis_table(grid.m_complex.real.T, ["band", "q"]),
            "m_im": _axis_table(grid.m_complex.imag.T, ["band", "q"]),
            "m_abs": _axis_table(grid.m_abs.T, ["band", "q"]),
            "rho0": _clean(grid.rho0_values),
        },
    }


@contextlib.contextmanager
def _open_output(path):
    """``path`` opened for writing text, or stdout when it is None.  An OSError
    while opening, writing or closing it becomes a ConfigError; a failed stdout
    is pointed at the null device, so the flush at interpreter exit cannot fail."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as fh:
            yield fh
            fh.flush()
    except OSError as exc:
        if path is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            path = "stdout"
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def serialize(model: ExtendedHHModel, path) -> None:
    """Write the model document to ``path``, streamed as the encoder produces it."""
    with _open_output(path) as fh:
        json.dump(model_document(model), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _at(doc: dict, path: tuple):
    """The value at a key path, or _ABSENT."""
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return _ABSENT
        doc = doc[key]
    return doc


def validate_document(doc: dict) -> dict:
    """Check every key that deserialize reads; return its numbers as arrays by path.

    t, U and g_cp must be finite numbers; the arrays must hold finite
    numbers and agree on the q count, 6 bands and 6 components.
    """
    if not isinstance(doc, dict):
        raise SchemaMismatchError("model document is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # rejects true and 1.0
        raise SchemaMismatchError(
            f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION})")
    absent = [".".join(path) for path in _REQUIRED_KEYS if _at(doc, path) is _ABSENT]
    if absent:
        raise SchemaMismatchError(f"model document lacks key(s): {', '.join(absent)}")
    conv = doc["provenance"].get("conventions", {})
    if not isinstance(conv, dict):
        raise SchemaMismatchError("provenance.conventions must be a JSON object")
    lacking = [k for k in _REQUIRED_CONVENTIONS if k not in conv]
    if lacking:
        raise SchemaMismatchError(
            f"provenance.conventions lacks required key(s): {', '.join(lacking)}")
    if type(conv["cutoff_cells"]) is not int or conv["cutoff_cells"] < 1:
        raise SchemaMismatchError("provenance.conventions.cutoff_cells must be a positive integer,"
                                  f" got {conv['cutoff_cells']!r}")
    arrays = {}
    for path, shape in _NUMERIC_SHAPES.items():
        name = ".".join(path)
        try:
            arr = np.array(_at(doc, path))
        except ValueError:  # ragged nesting
            arr = np.array(None)
        if arr.dtype.kind not in "if" or not np.isfinite(arr).all():
            raise SchemaMismatchError(f"{name} must hold finite numbers only")
        n_q = arrays.get(("phonons", "q"), arr).size  # q is read before every array
        expected = tuple(n_q if n == "Nq" else n for n in shape)
        if arr.shape != expected:
            raise SchemaMismatchError(f"{name} has shape {arr.shape}, expected {expected}"
                                      f" for the {n_q} entries of phonons.q")
        arrays[path] = arr
    return arrays


def deserialize(path) -> ExtendedHHModel:
    """Read a model file: ConfigError if unreadable, SchemaMismatchError if malformed."""
    doc = _read_json(path, "model file", invalid=SchemaMismatchError)
    arrays = validate_document(doc)
    prov = doc["provenance"]
    spec = spec_from_dict(prov["chain_spec"])
    conv = dict(prov["conventions"])
    q = arrays["phonons", "q"]
    omega = arrays["phonons", "omega", "values"].T
    xi = (
        arrays["phonons", "xi_re", "values"] + 1j * arrays["phonons", "xi_im", "values"]
    ).transpose(2, 1, 0)
    bands = BandStructure(
        q_grid=q, omega=omega, xi=xi, spec=spec,
        cutoff_cells=conv["cutoff_cells"], relaxed=conv.get("geometry") == "relaxed",
    )
    m = (arrays["couplings", "m_re", "values"] + 1j * arrays["couplings", "m_im", "values"]).T
    grid = CouplingGrid(q_grid=q, m_complex=m, m_abs=np.abs(m),
                        rho0_values=arrays["couplings", "rho0"], omega=omega, spec=spec)
    return ExtendedHHModel(
        spec=spec, t=float(arrays["hubbard", "t"]), U=float(arrays["hubbard", "U"]),
        g_cp=float(arrays["coupling_scale", "g_cp"]), bands=bands, couplings=grid,
        conventions=conv,
    )
