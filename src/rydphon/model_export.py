"""Assembly and serialization of the extended Hubbard-Holstein bundle.

The model file is a single JSON document: hopping and repulsion scalars,
the phonon bands, and the dimensionless coupling table, together with
full provenance (chain parameters, tool version, numerical conventions).
Every float is written with shortest round-trip precision so repeated
runs produce byte-identical files.

One formatter, ``_float_text``, spells every float of every output, the
model file's and the CSV tables': ``repr`` of each value, produced in bulk
by orjson and patched only where a row's values show that orjson spells
one of them differently.
``serialize`` writes the text that ``json.dump(..., sort_keys=True,
indent=1, allow_nan=False)`` would, one array row at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from .atom_phonon import CouplingGrid, coupling_grid
from .bands import BandStructure, DEFAULT_Q_POINTS, band_structure, q_grid
from .equilibrium import _CUTOFF_CELLS
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


def conventions_dict(relaxed: bool) -> dict:
    return {
        **CONVENTIONS,
        "cutoff_cells": _CUTOFF_CELLS,
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
        conventions=conventions_dict(bands.relaxed),
    )


_ONE_DIGIT_NEGATIVE_EXPONENT = re.compile(r"e-(?=\d(?!\d))")
_POSITIVE_EXPONENT = re.compile(r"e(?=\d)")


def _float_text(values, sep: str) -> str:
    """``sep.join(map(repr, values))`` over every value of ``values`` as a
    float, in C order, from one ``orjson.dumps``.

    orjson writes the same shortest round-trip digits as ``repr``, but spells
    exponents ``e-7`` and ``e16`` where ``repr`` writes ``e-07`` and
    ``e+16``.  Each is rewritten in the text with a fixed replacement string
    (the patterns match only the ``e-`` or ``e`` before the digits, so no
    template is expanded per match), and only when the values, not the
    text, say that it can occur: ``e-0`` when some |x| lies in
    [1e-10, 1e-5), as only those values print an exponent from -9 to -6;
    ``e+`` when some |x| >= 1e15, as orjson writes every smaller value
    positionally and an exponent only from 1e16 on.  Both bounds take in
    one decade more than they need.  orjson also writes 1e-5 <= |x| < 1e-4
    positionally and non-finite values as ``null``; those tokens, found
    between the commas, are replaced by their ``repr`` first (``_respelled``),
    and neither rewrite matches what they become.  The commas become ``sep``
    through one ``str.replace``; the text is never split into tokens.
    """
    import orjson  # imported here so that importing the CLI does not load it

    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    raw = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    magnitude = np.abs(flat)
    respell = np.flatnonzero(~np.isfinite(flat) | ((magnitude >= 1e-5) & (magnitude < 1e-4)))
    if respell.size:
        raw = _respelled(raw, flat, respell)
    text = raw.decode()[1:-1]
    if ((magnitude >= 1e-10) & (magnitude < 1e-5)).any():
        text = _ONE_DIGIT_NEGATIVE_EXPONENT.sub("e-0", text)
    if (magnitude >= 1e15).any():
        text = _POSITIVE_EXPONENT.sub("e+", text)
    return text.replace(",", sep)


def _respelled(raw: bytes, flat: np.ndarray, indices: np.ndarray) -> bytes:
    """orjson's ``[...]`` text of ``flat`` with the tokens at ``indices``
    (ascending) replaced by their ``repr``.  Token k lies between delimiter
    k and k + 1: the opening bracket, the commas, the closing bracket."""
    commas = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord(","))
    delimiters = np.concatenate(([0], commas, [len(raw) - 1])).tolist()
    pieces, done = [], 0
    for k in indices.tolist():
        pieces += [raw[done:delimiters[k] + 1], repr(float(flat[k])).encode()]
        done = delimiters[k + 1]
    pieces.append(raw[done:])
    return b"".join(pieces)


def _clean(values: np.ndarray) -> np.ndarray:
    # adding 0.0 turns negative zeros positive, keeping reserialization byte-stable
    return np.asarray(values, dtype=np.float64) + 0.0


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


def _create_beside(target: str):
    """A new text file in ``target``'s directory, created as ``open(target, "w")``
    would create ``target``, and its path."""
    head, name = os.path.split(target)
    for n in itertools.count():
        staged = os.path.join(head, f".{name}.{n}.tmp")
        try:
            return open(staged, "x", encoding="utf-8"), staged
        except FileExistsError:
            continue


def _is_stdout(st: os.stat_result) -> bool:
    """Whether ``st`` describes the file that stdout writes to."""
    try:
        out = os.fstat(sys.stdout.fileno())
    except OSError:  # a stdout with no file descriptor, such as io.StringIO
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def _output_mode(path):
    """How ``_open_output`` writes ``path``: ``(how, st, target)``.

    ``how`` is "stdout" for None or a path that names the file stdout
    writes to; "replace" for a new or regular file, which is replaced whole
    at ``target``, its ``os.path.realpath``; and "in place" for any other
    target (devices, FIFOs).  ``st`` is the ``os.stat`` of what ``path``
    names, or None when nothing is there.  An OSError of ``os.stat`` other
    than FileNotFoundError propagates."""
    if path is None:
        return "stdout", None, None
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and _is_stdout(st):
        return "stdout", st, None
    if st is None or stat.S_ISREG(st.st_mode):
        return "replace", st, os.path.realpath(path)
    return "in place", st, None


@contextlib.contextmanager
def _open_output(path):
    """``path`` opened for writing text, or stdout when it is None, as
    ``_output_mode`` decides.

    A path that names the file stdout writes to (``/dev/stdout``, or the
    file it is redirected to) is written through stdout, so the table and
    the lines printed after it land in order.  Any other regular file, new
    or existing, is written to a new file beside it (beside the file a
    symlink names), which replaces it once written and closed: a write that
    fails leaves the old file, or none, and no partial one.  Other targets
    (devices, FIFOs) are written in place.  An OSError while opening,
    writing, closing or replacing becomes a ConfigError; a failed stdout is
    pointed at the null device, so the flush at interpreter exit cannot
    fail."""
    staged = None
    how = None
    try:
        how, old, target = _output_mode(path)
        if how == "stdout":
            fh = contextlib.nullcontext(sys.stdout)
        elif how == "replace":
            fh, staged = _create_beside(target)
        else:
            fh = open(path, "w", encoding="utf-8")
        with fh as out:
            yield out
            out.flush()
        if staged is not None:
            if old is not None:  # the permission bits that writing it in place keeps
                os.chmod(staged, stat.S_IMODE(old.st_mode))
            os.replace(staged, target)
            staged = None
    except OSError as exc:
        if how == "stdout":
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None
    finally:
        if staged is not None:
            with contextlib.suppress(OSError):
                os.remove(staged)


def _write_json(fh, value, level: int = 0) -> None:
    """Write ``value`` as ``json.dump(value, fh, sort_keys=True, indent=1,
    allow_nan=False)`` would.  Each 1-D float array row is one
    ``_float_text`` with the comma and the indent of the next line as its
    separator, written between its brackets as it is.  A non-finite number
    raises ValueError."""
    indent = "\n" + " " * level
    pad = indent + " "
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
        if not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        fh.write("[" + pad + _float_text(value, "," + pad) + indent + "]")
        return
    if isinstance(value, dict):
        brackets, items = "{}", [(json.dumps(k) + ": ", value[k]) for k in sorted(value)]
    elif isinstance(value, (list, tuple, np.ndarray)):
        brackets, items = "[]", [("", v) for v in value]
    else:
        fh.write(json.dumps(value, allow_nan=False))
        return
    if not items:
        fh.write(brackets)
        return
    for i, (prefix, item) in enumerate(items):
        fh.write(("," if i else brackets[0]) + pad + prefix)
        _write_json(fh, item, level + 1)
    fh.write(indent + brackets[1])


def serialize(model: ExtendedHHModel, path) -> None:
    """Write the model document to ``path``, streamed one array row at a time."""
    with _open_output(path) as fh:
        _write_json(fh, model_document(model))
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

    conventions.cutoff_cells must be the integer 32 (``_CUTOFF_CELLS``), the
    cutoff at which band_diagnostics sums the bands' bulk again; t, U and g_cp
    must be finite numbers; the arrays must hold finite numbers and agree on
    the q count, 6 bands and 6 components.
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
    if type(conv["cutoff_cells"]) is not int or conv["cutoff_cells"] != _CUTOFF_CELLS:
        raise SchemaMismatchError(f"provenance.conventions.cutoff_cells must be {_CUTOFF_CELLS},"
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
    """Read a model file: ConfigError if unreadable, SchemaMismatchError if malformed
    or if ``phonons.q`` is not the q grid of its ``chain_spec`` (to 1e-12 pi/a)."""
    doc = _read_json(path, "model file", invalid=SchemaMismatchError)
    arrays = validate_document(doc)
    prov = doc["provenance"]
    spec = spec_from_dict(prov["chain_spec"])
    conv = dict(prov["conventions"])
    q = arrays["phonons", "q"]
    if q.size < 2 or np.abs(q - q_grid(spec, q.size)).max() > 1e-12 * np.pi / spec.a:
        raise SchemaMismatchError(
            f"phonons.q is not the {q.size}-point q grid of provenance.chain_spec")
    omega = arrays["phonons", "omega", "values"].T
    xi = (
        arrays["phonons", "xi_re", "values"] + 1j * arrays["phonons", "xi_im", "values"]
    ).transpose(2, 1, 0)
    bands = BandStructure(q_grid=q, omega=omega, xi=xi, spec=spec,
                          relaxed=conv.get("geometry") == "relaxed")
    m = (arrays["couplings", "m_re", "values"] + 1j * arrays["couplings", "m_im", "values"]).T
    grid = CouplingGrid(q_grid=q, m_complex=m, m_abs=np.abs(m),
                        rho0_values=arrays["couplings", "rho0"], omega=omega, spec=spec)
    return ExtendedHHModel(
        spec=spec, t=float(arrays["hubbard", "t"]), U=float(arrays["hubbard", "U"]),
        g_cp=float(arrays["coupling_scale", "g_cp"]), bands=bands, couplings=grid,
        conventions=conv,
    )
