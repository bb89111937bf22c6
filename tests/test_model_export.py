import json
import re

import numpy as np
import pytest

from rydphon import ConfigError, SchemaMismatchError, assemble, deserialize, serialize
from rydphon.atom_phonon import physical_coupling
from rydphon.model_export import (
    CONVENTIONS,
    SCHEMA_VERSION,
    _at,
    model_document,
    validate_document,
)

from conftest import paper_spec


def _dumps(doc) -> str:
    """JSON text of a (possibly edited) model document, whose float arrays become lists."""
    return json.dumps(doc, default=lambda a: a.tolist())


@pytest.fixture(scope="module")
def model():
    return assemble(paper_spec(), t=1.0, U=4.0, g_cp=0.5, q_points=64)


def test_round_trip_identity(model, tmp_path):
    path = tmp_path / "model.json"
    serialize(model, path)
    assert deserialize(path) == model


def test_serialization_is_byte_stable(model, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    serialize(model, p1)
    serialize(deserialize(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_assemble_is_deterministic(tmp_path):
    spec = paper_spec()
    m1 = assemble(spec, t=1.0, U=4.0, g_cp=0.5, q_points=64)
    m2 = assemble(spec, t=1.0, U=4.0, g_cp=0.5, q_points=64)
    assert m1 == m2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize(m1, p1)
    serialize(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_couplings_section_rejected(model, tmp_path):
    doc = model_document(model)
    del doc["couplings"]
    path = tmp_path / "broken.json"
    path.write_text(_dumps(doc))
    with pytest.raises(SchemaMismatchError, match="couplings"):
        deserialize(path)


def test_schema_version_mismatch_rejected(model, tmp_path):
    doc = model_document(model)
    doc["schema_version"] = SCHEMA_VERSION + 1
    path = tmp_path / "future.json"
    path.write_text(_dumps(doc))
    with pytest.raises(SchemaMismatchError, match="schema_version"):
        deserialize(path)


@pytest.mark.parametrize("key", ["gauge", "pair_sum", "modulus", "cutoff_cells"])
def test_missing_convention_rejected(model, key):
    doc = model_document(model)
    del doc["provenance"]["conventions"][key]
    with pytest.raises(SchemaMismatchError, match=key):
        validate_document(doc)


@pytest.mark.parametrize("path", [
    ("coupling_scale",),
    ("coupling_scale", "g_cp"),
    ("hubbard", "t"),
    ("hubbard", "U"),
    ("phonons", "q"),
    ("phonons", "omega"),
    ("phonons", "xi_re"),
    ("phonons", "xi_im"),
    ("couplings", "m_re"),
    ("couplings", "m_im"),
    ("couplings", "rho0"),
    ("provenance", "chain_spec"),
])
def test_missing_key_rejected(model, tmp_path, path):
    doc = model_document(model)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    file = tmp_path / "broken.json"
    file.write_text(_dumps(doc))
    with pytest.raises(SchemaMismatchError, match=path[-1]):
        deserialize(file)


def test_provenance_lists_all_conventions(model):
    conv = model_document(model)["provenance"]["conventions"]
    for key in ("gauge", "pair_sum", "modulus", "cutoff_cells"):
        assert key in conv


def test_relaxed_model_records_trap_rho_z(tmp_path):
    model = assemble(paper_spec(), t=1.0, U=4.0, g_cp=0.5, q_points=16, relax=True)
    assert model.conventions["geometry"] == "relaxed"
    assert model.conventions["rho_z_source"] == "trap"
    path = tmp_path / "model.json"
    serialize(model, path)
    conventions = json.loads(path.read_text())["provenance"]["conventions"]
    assert conventions["rho_z_source"] == "trap"


def test_serialize_maps_unopenable_path_to_config_error(model, tmp_path):
    with pytest.raises(ConfigError, match="cannot write"):
        serialize(model, tmp_path / "missing" / "model.json")


def test_zero_pseudopotential_gives_zero_physical_coupling():
    model = assemble(paper_spec(), t=1.0, U=4.0, g_cp=0.0, q_points=16)
    assert np.abs(physical_coupling(model.couplings, model.g_cp)).max() == 0.0
    # the dimensionless table itself is independent of g_cp
    assert np.abs(model.couplings.m_abs).max() > 0.0


def test_holstein_like_limit_without_dipoles():
    model = assemble(paper_spec(v_dd=0.0), t=1.0, U=2.0, g_cp=1.0, q_points=32)
    assert np.abs(model.bands.omega - 1.0).max() == 0.0
    # couplings carry only the form factor and geometric phases
    from rydphon import rho0
    q = model.bands.q_grid
    expected = np.abs(q * rho0(q, model.spec.d))
    assert np.allclose(model.couplings.m_abs[:, 2], expected, atol=1e-14)


def test_assemble_validates_inputs():
    with pytest.raises(ValueError):
        assemble(paper_spec(), t=np.inf, U=0.0, g_cp=1.0, q_points=8)
    with pytest.raises(ValueError):
        assemble(paper_spec(), t=0.0, U=0.0, g_cp=-1.0, q_points=8)


@pytest.mark.parametrize("g_cp", [np.nan, np.inf])
def test_assemble_rejects_non_finite_g_cp(g_cp):
    with pytest.raises(ValueError, match="g_cp"):
        assemble(paper_spec(), t=0.0, U=0.0, g_cp=g_cp, q_points=8)


def test_document_has_named_axes(model):
    doc = model_document(model)
    assert doc["phonons"]["omega"]["axes"] == ["band", "q"]
    assert doc["phonons"]["xi_re"]["axes"] == ["band", "component", "q"]
    assert doc["couplings"]["m_abs"]["axes"] == ["band", "q"]
    n_bands = len(doc["phonons"]["omega"]["values"])
    assert n_bands == 6


def test_floats_survive_json_exactly(model, tmp_path):
    path = tmp_path / "model.json"
    serialize(model, path)
    doc = json.loads(path.read_text())
    stored = np.array(doc["phonons"]["omega"]["values"]).T
    assert np.array_equal(stored, model.bands.omega)


def _write_edited(tmp_path, doc, path, value):
    _at(doc, path[:-1])[path[-1]] = value
    file = tmp_path / "edited.json"
    file.write_text(_dumps(doc))
    return file


@pytest.mark.parametrize("path,trim,named", [
    (("phonons", "q"), lambda v: v[:-3], r"phonons\.omega\.values has shape \(6, 64\)"),
    (("phonons", "omega", "values"), lambda v: v[:5], None),                 # 5 bands
    (("phonons", "xi_re", "values"), lambda v: [b[:5] for b in v], None),    # 5 components
    (("phonons", "xi_im", "values"), lambda v: [[c[:-1] for c in b] for b in v], None),
    (("couplings", "m_re", "values"), lambda v: [b[1:] for b in v], None),
    (("couplings", "m_im", "values"), lambda v: [*v, v[0]], None),
    (("couplings", "rho0",), lambda v: v[:-1], None),
])
def test_array_shape_mismatch_rejected(model, tmp_path, path, trim, named):
    doc = model_document(model)
    file = _write_edited(tmp_path, doc, path, trim(_at(doc, path)))
    with pytest.raises(SchemaMismatchError, match=named or ".".join(path) + " has shape"):
        deserialize(file)


@pytest.mark.parametrize("path,value", [
    (("phonons", "q"), ["0.1"] * 64),
    (("phonons", "omega", "values"), [[1.0, 2.0]] * 5 + [[1.0]]),   # ragged
    (("couplings", "m_re", "values"), [[float("nan")] * 64] * 6),
    (("couplings", "rho0"), None),
    (("hubbard", "t"), "one"),
    (("hubbard", "U"), float("nan")),
    (("hubbard", "U"), True),
    (("coupling_scale", "g_cp"), None),
    (("coupling_scale", "g_cp"), float("inf")),
])
def test_non_numeric_or_non_finite_value_rejected(model, tmp_path, path, value):
    file = _write_edited(tmp_path, model_document(model), path, value)
    with pytest.raises(SchemaMismatchError, match=".".join(path) + " must hold finite numbers"):
        deserialize(file)


_MALFORMED_HEADERS = {
    "version-true": (("schema_version",), True, "schema_version True unsupported"),
    "version-float": (("schema_version",), 1.0, "schema_version 1.0 unsupported"),
    "version-string": (("schema_version",), "1", "schema_version '1' unsupported"),
    "conventions-list": (("provenance", "conventions"), list(CONVENTIONS),
                         "provenance.conventions must be a JSON object"),
    "conventions-string": (("provenance", "conventions"), "abc",
                           "provenance.conventions must be a JSON object"),
    "cutoff-string": (("provenance", "conventions", "cutoff_cells"), "abc",
                      "cutoff_cells must be 32, got 'abc'"),
    "cutoff-zero": (("provenance", "conventions", "cutoff_cells"), 0,
                    "cutoff_cells must be 32, got 0"),
    "cutoff-float": (("provenance", "conventions", "cutoff_cells"), 32.0,
                     "cutoff_cells must be 32, got 32.0"),
    "cutoff-true": (("provenance", "conventions", "cutoff_cells"), True,
                    "cutoff_cells must be 32, got True"),
    "cutoff-other": (("provenance", "conventions", "cutoff_cells"), 8,
                     "cutoff_cells must be 32, got 8"),
}


@pytest.mark.parametrize("path,value,message", _MALFORMED_HEADERS.values(), ids=_MALFORMED_HEADERS)
def test_malformed_version_or_conventions_rejected(model, tmp_path, path, value, message):
    file = _write_edited(tmp_path, model_document(model), path, value)
    with pytest.raises(SchemaMismatchError, match=re.escape(message)):
        deserialize(file)


@pytest.mark.parametrize("content", [b"", b"{not json", b'{"schema_version": 1', b"\xff\xfe{}"],
                         ids=["empty", "not-json", "truncated", "not-utf8"])
def test_file_that_is_not_json_rejected(tmp_path, content):
    file = tmp_path / "model.json"
    file.write_bytes(content)
    with pytest.raises(SchemaMismatchError, match="is not valid JSON"):
        deserialize(file)


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_model_path_is_config_error(tmp_path, name):
    with pytest.raises(ConfigError, match="cannot read model file"):
        deserialize(tmp_path / name)


@pytest.mark.parametrize("edit", [{"d": 2.5, "a": 5.0}, {"a": 4.0 * (1 + 1e-9)}],
                         ids=["d-and-a", "a-by-1e-9"])
def test_q_grid_of_another_chain_rejected(tmp_path, edit):
    model = assemble(paper_spec(d=2.0), t=1.0, U=4.0, g_cp=0.5, q_points=16)
    path = tmp_path / "model.json"
    serialize(model, path)
    doc = json.loads(path.read_text())
    doc["provenance"]["chain_spec"].update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatchError, match=r"phonons\.q is not the 16-point q grid"):
        deserialize(path)


def test_q_grid_within_its_tolerance_loads(model, tmp_path):
    doc = json.loads(_dumps(model_document(model)))
    doc["phonons"]["q"] = [q + 1e-13 for q in doc["phonons"]["q"]]   # 1e-13 < 1e-12 pi/a
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert np.array_equal(deserialize(path).bands.q_grid, np.array(doc["phonons"]["q"]))
