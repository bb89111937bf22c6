"""The one float formatter and the model-file writer built on it.

``_float_text`` must spell every float exactly as ``repr`` does, joined by
its separator, and ``serialize`` must write the bytes that the earlier
writer, ``json.dump(model_document(model), fh, sort_keys=True, indent=1,
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

from rydphon import model_export
from rydphon.atom_phonon import CouplingGrid
from rydphon.bands import BandStructure, q_grid
from rydphon.model_export import (
    ExtendedHHModel,
    _float_text,
    _write_json,
    conventions_dict,
    model_document,
    serialize,
)

from conftest import child_env, paper_spec

TOKENS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
# the CSV separator, and the model file's at the indent of its deepest rows
SEPARATORS = [",", ",\n   "]

# the bounds of _float_text's tests and of orjson's spellings, and their neighbours
_BOUNDARIES = [
    bound * sign
    for b in (1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16)
    for bound in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))
    for sign in (1.0, -1.0)
]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                    np.finfo(float).tiny, 1e-7, 1.5e-300, 1e22, 1.2345e100,
                    np.inf, -np.inf, np.nan, *_BOUNDARIES])


def _joined_reprs(values: np.ndarray, sep: str = ",") -> str:
    return sep.join(map(repr, values.tolist()))


def test_special_values_are_spelled_as_repr():
    for sep in SEPARATORS:
        assert _float_text(SPECIAL, sep) == _joined_reprs(SPECIAL, sep)
        assert _float_text(SPECIAL[::-2], sep) == _joined_reprs(SPECIAL[::-2], sep)  # strided
        transposed = SPECIAL.reshape(-1, 2).T
        assert _float_text(transposed, sep) == _joined_reprs(transposed.ravel(), sep)
        assert _float_text(np.array([]), sep) == ""
        for value in _BOUNDARIES:   # each beside a plain value only, so it picks the path
            row = np.array([value, 0.5])
            assert _float_text(row, sep) == _joined_reprs(row, sep)


@pytest.mark.parametrize("exponent", range(1, 10))
def test_one_digit_negative_exponents_gain_one_zero(exponent):
    """orjson's e-7 becomes repr's e-07, as the last token and elsewhere;
    e-10, e-99, e-100 and e-324 beside it gain nothing."""
    short = [mantissa * 10.0**-exponent for mantissa in (1.0, -7.25, 9.999)]
    longer = [1e-10, -3.5e-10, 2.5e-99, 1e-100, -4.75e-123, 3e-300, 5e-324]
    for values in (short + longer, longer + short, [short[1]], [longer[2], short[0]]):
        values = np.array(values)
        assert _float_text(values, ",") == _joined_reprs(values)


class _CountingPattern:
    """A stand-in for a compiled pattern that counts its ``sub`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def sub(self, repl, text):
        self.calls += 1
        return self.pattern.sub(repl, text)


# one row per path of _float_text, with the rewrites it runs: (e-0, e+, respelled);
# the respelled values sit first, last and side by side
_PATH_ROWS = {
    "plain": ([0.0, -0.0, 0.125, -2.5, 1e-4, 3.75e14, -np.nextafter(1e15, 0.0), 5e-324,
               -9.9e-11, 1.5e-300], (0, 0, False)),
    "one-digit-negative-exponents": ([1e-10, -3.3e-6, 7e-9, 0.5, 2.5e-99], (1, 0, False)),
    "from-1e-5-to-1e-4": ([1e-5, -3.3e-5, 0.5, np.nextafter(1e-4, 0.0), 2e-5], (0, 0, True)),
    "from-1e16-only": ([1e16, -1.25e16, 3.5e21, np.finfo(float).max, 1e15, 0.5], (0, 1, False)),
    "non-finite": ([np.nan, np.inf, 0.5, -np.inf], (0, 1, True)),
    "everything": ([np.nan, 7e-9, 1e16, 3.3e-5, 0.5, 1e-300], (1, 1, True)),
}


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("case", _PATH_ROWS)
def test_each_path_spells_its_row_as_repr(monkeypatch, case, sep):
    values, (negative, positive, respelled) = _PATH_ROWS[case]
    values = np.array(values)
    patterns = [_CountingPattern(model_export._ONE_DIGIT_NEGATIVE_EXPONENT),
                _CountingPattern(model_export._POSITIVE_EXPONENT)]
    monkeypatch.setattr(model_export, "_ONE_DIGIT_NEGATIVE_EXPONENT", patterns[0])
    monkeypatch.setattr(model_export, "_POSITIVE_EXPONENT", patterns[1])
    reprs = []   # the values that take repr one by one
    real_repr = repr
    monkeypatch.setattr(model_export, "repr", lambda x: reprs.append(x) or real_repr(x),
                        raising=False)
    assert _float_text(values, sep) == _joined_reprs(values, sep)
    assert [p.calls for p in patterns] == [negative, positive]
    assert bool(reprs) == respelled


@TOKENS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.sampled_from(SEPARATORS))
def test_tokens_of_raw_bit_patterns_are_repr(bits, sep):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _float_text(values, sep) == _joined_reprs(values, sep)


@TOKENS
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64),
       st.sampled_from(SEPARATORS))
def test_tokens_of_drawn_floats_are_repr(floats, sep):
    values = np.array(floats, dtype=np.float64)
    assert _float_text(values, sep) == _joined_reprs(values, sep)


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


# every spelling the writer has to get right: plain values (tiny ones, with two-
# and three-digit exponents, and signed zeros) and, for each path of _float_text,
# the values that force it
_PLAIN = [1e-17, -2.75e-17, 1.0000000000000001e-17, 1e-300, -0.0, 0.0, 0.125,
          -0.7071067811865476, 1.0488088481701516, 2.0 / 3.0]
_FORCING = {
    "plain": [],
    "one-digit-negative-exponents": [3.3e-7, -1e-6, 9.5e-9],
    "from-1e-5-to-1e-4": [1e-5, 3.3e-5, -9.999e-5, np.nextafter(1e-4, 0.0)],
    "from-1e16": [1e16, -1.25e16, 3.5e21],
}
_FORCING["mixed"] = [v for values in _FORCING.values() for v in values]


def _hand_built_model(n_q: int) -> ExtendedHHModel:
    """A model whose arrays are drawn from the spellings above, not computed.

    Each array row written runs along q; its first value forces one path of
    ``_float_text``: omega plain, m_re one-digit negative exponents, m_im
    values >= 1e16, xi_re [1e-5, 1e-4), and xi_im and rho0 any of them."""
    rng = np.random.default_rng(n_q)
    spec = paper_spec()
    qs = q_grid(spec, n_q)

    def draw(path, *shape):
        values = rng.choice(_PLAIN + _FORCING[path], size=shape)
        if _FORCING[path]:
            values[0] = rng.choice(_FORCING[path], size=shape[1:])
        return values

    omega = draw("plain", n_q, 6)
    m = draw("one-digit-negative-exponents", n_q, 6) + 1j * draw("from-1e16", n_q, 6)
    xi = draw("from-1e-5-to-1e-4", n_q, 6, 6) + 1j * draw("mixed", n_q, 6, 6)
    bands = BandStructure(q_grid=qs, omega=omega, xi=xi, spec=spec, relaxed=False)
    grid = CouplingGrid(q_grid=qs, m_complex=m, m_abs=np.abs(m), rho0_values=draw("mixed", n_q),
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
    for spelling in ("e-17", "e-05", "e-07", "e-06", "e+16", "\n     0.0"):
        assert spelling in text
    assert not re.search(r"-0\.0[,\n]", text)   # model_document turns negative zeros positive


def test_serialize_rejects_a_nan_array(tmp_path):
    model = _hand_built_model(3)
    model.bands.omega[1, 4] = np.nan
    with pytest.raises(ValueError):
        _reference_text(model)
    with pytest.raises(ValueError):
        serialize(model, tmp_path / "model.json")
