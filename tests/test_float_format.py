"""The one float formatter and the model-file writer built on it.

``_float_tokens`` must spell every float exactly as ``repr`` does, and
``serialize`` must write the bytes that the earlier writer,
``json.dump(model_document(model), fh, sort_keys=True, indent=1,
allow_nan=False)`` plus a newline, wrote.  That writer is kept below as
the reference.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydphon.atom_phonon import CouplingGrid
from rydphon.bands import BandStructure, q_grid
from rydphon.model_export import (
    ExtendedHHModel,
    _float_tokens,
    _write_json,
    conventions_dict,
    model_document,
    serialize,
)

from conftest import child_env, paper_spec

TOKENS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# values that orjson spells differently from repr, and their neighbours
_BOUNDARIES = [
    bound * sign
    for b in (1e-5, 1e-4, 1e16)
    for bound in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))
    for sign in (1.0, -1.0)
]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                    np.finfo(float).tiny, 1e-7, 1.5e-300, 1e22, 1.2345e100,
                    np.inf, -np.inf, np.nan, *_BOUNDARIES])


def _reprs(values: np.ndarray) -> list:
    return list(map(repr, values.tolist()))


def test_special_values_are_spelled_as_repr():
    assert _float_tokens(SPECIAL) == _reprs(SPECIAL)
    assert _float_tokens(SPECIAL[::-2]) == _reprs(SPECIAL[::-2])   # a strided view
    assert _float_tokens(SPECIAL.reshape(-1, 2).T) == _reprs(SPECIAL.reshape(-1, 2).T.ravel())
    assert _float_tokens(np.array([])) == []


@pytest.mark.parametrize("exponent", range(1, 10))
def test_one_digit_negative_exponents_gain_one_zero(exponent):
    """orjson's e-7 becomes repr's e-07, as the last token (before its ']') and
    elsewhere; e-10, e-99, e-100 and e-324 beside it gain nothing."""
    short = [mantissa * 10.0**-exponent for mantissa in (1.0, -7.25, 9.999)]
    longer = [1e-10, -3.5e-10, 2.5e-99, 1e-100, -4.75e-123, 3e-300, 5e-324]
    for values in (short + longer, longer + short, [short[1]], [longer[2], short[0]]):
        values = np.array(values)
        assert _float_tokens(values) == _reprs(values)


@TOKENS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_tokens_of_raw_bit_patterns_are_repr(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _float_tokens(values) == _reprs(values)


@TOKENS
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_tokens_of_drawn_floats_are_repr(floats):
    values = np.array(floats, dtype=np.float64)
    assert _float_tokens(values) == _reprs(values)


def test_importing_the_cli_does_not_load_orjson():
    code = "import sys, rydphon.cli; print('orjson' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_json_writer_matches_json_dump_on_nested_containers():
    doc = {"b": [], "a": {}, "\u00e9": "\u00fc\n", "c": {
        "z": [1, "x", None, True, -0.0], "y": np.zeros((2, 0)), "x": np.array([]),
        "w": np.arange(6.0).reshape(2, 3) - 2.5, "v": [np.array([1e-5, -0.0]), {"k": 1e16}],
    }}
    fh = io.StringIO()
    _write_json(fh, doc)
    assert fh.getvalue() == json.dumps(doc, default=lambda a: a.tolist(), sort_keys=True,
                                       indent=1, allow_nan=False)


# every spelling the writer has to get right: tiny, [1e-5, 1e-4), >= 1e16, signed zero
_POOL = np.array([1e-17, -2.75e-17, 1.0000000000000001e-17, 1e-5, 3.3e-5, -9.999e-5,
                  np.nextafter(1e-4, 0.0), 1e16, -1.25e16, 3.5e21, 1e-300, -0.0, 0.0,
                  0.125, -0.7071067811865476, 1.0488088481701516, 2.0 / 3.0])


def _hand_built_model(n_q: int) -> ExtendedHHModel:
    """A model whose arrays are drawn from the spellings above, not computed."""
    rng = np.random.default_rng(n_q)
    spec = paper_spec()
    qs = q_grid(spec, n_q)

    def draw(*shape):
        return rng.choice(_POOL, size=shape)

    omega = draw(n_q, 6)
    m = draw(n_q, 6) + 1j * draw(n_q, 6)
    bands = BandStructure(q_grid=qs, omega=omega, xi=draw(n_q, 6, 6) + 1j * draw(n_q, 6, 6),
                          spec=spec, relaxed=False)
    grid = CouplingGrid(q_grid=qs, m_complex=m, m_abs=np.abs(m), rho0_values=draw(n_q),
                        omega=omega, spec=spec)
    return ExtendedHHModel(spec=spec, t=2.5e-5, U=1e16, g_cp=0.5, bands=bands, couplings=grid,
                           conventions=conventions_dict(False))


def _reference_text(model: ExtendedHHModel) -> str:
    """The earlier writer's text: json.dump of the document, its arrays as lists."""
    return json.dumps(model_document(model), default=lambda a: a.tolist(), sort_keys=True,
                      indent=1, allow_nan=False) + "\n"


@pytest.mark.parametrize("n_q", [2, 3, 16])
def test_serialize_writes_the_json_dump_bytes(tmp_path, n_q):
    model = _hand_built_model(n_q)
    path = tmp_path / "model.json"
    serialize(model, path)
    text = path.read_text()
    assert text == _reference_text(model)
    for spelling in ("e-17", "e-05", "e+16", "\n     0.0"):
        assert spelling in text
    assert not re.search(r"-0\.0[,\n]", text)   # model_document turns negative zeros positive


def test_serialize_rejects_a_nan_array(tmp_path):
    model = _hand_built_model(3)
    model.bands.omega[1, 4] = np.nan
    with pytest.raises(ValueError):
        _reference_text(model)
    with pytest.raises(ValueError):
        serialize(model, tmp_path / "model.json")
