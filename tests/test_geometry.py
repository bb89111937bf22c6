import json
import math

import numpy as np
import pytest

from rydphon import ChainSpec, ConfigError, Topology, dipole_unit, magic_angle, trap_centers
from rydphon.geometry import base_offsets, load_chain_spec, spec_from_dict, spec_to_dict
from rydphon.model_export import spec_digest

from conftest import paper_spec


def test_dipole_unit_pole():
    assert np.allclose(dipole_unit(0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-15)


def test_dipole_unit_out_of_plane():
    assert np.allclose(dipole_unit(np.pi / 2, np.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)


def test_dipole_unit_magic_angle():
    m = dipole_unit(math.acos(1.0 / math.sqrt(3.0)), 0.0)
    assert np.allclose(m, [math.sqrt(2.0 / 3.0), 0.0, 1.0 / math.sqrt(3.0)], atol=1e-15)


def test_dipole_unit_norm(rng):
    for _ in range(50):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        assert abs(np.linalg.norm(dipole_unit(theta, phi)) - 1.0) < 1e-14


def test_magic_angle_value():
    assert abs(magic_angle() - 0.9553166181245093) < 1e-12


def test_magic_angle_inverse():
    assert abs(math.cos(magic_angle()) - 1.0 / math.sqrt(3.0)) < 1e-15


def test_magic_angle_kills_inline_factor():
    assert abs(1.0 - 3.0 * math.cos(magic_angle()) ** 2) < 1e-14


def test_trap_centers_trivial():
    spec = ChainSpec(n_cells=2, d=2.0, delta=1.0)
    pos = trap_centers(spec).positions
    assert np.allclose(pos[0], [-0.5, 0.0, -1.0])
    assert np.allclose(pos[1], [+0.5, 0.0, +1.0])


def test_trap_centers_topological():
    spec = ChainSpec(n_cells=2, d=2.0, delta=1.0, topology=Topology.TOPOLOGICAL)
    pos = trap_centers(spec).positions
    assert np.allclose(pos[0], [-0.5, 0.0, +1.0])
    assert np.allclose(pos[1], [+0.5, 0.0, -1.0])


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_z_spacing_arithmetic_progression(topology):
    spec = paper_spec(d=1.7, topology=topology, n_cells=5)
    z = np.sort(trap_centers(spec).positions[:, 2])
    assert np.allclose(np.diff(z), spec.d, atol=1e-12)


def test_topologies_are_mirror_images():
    # the two cell groupings describe the same zig-zag chain up to x -> -x:
    # identical z ladder, opposite leg assignment (strong/weak bonds swap)
    triv = trap_centers(paper_spec(topology=Topology.TRIVIAL)).positions
    topo = trap_centers(paper_spec(topology=Topology.TOPOLOGICAL)).positions
    mirrored = topo * np.array([-1.0, 1.0, 1.0])
    triv_set = {tuple(p) for p in np.round(triv, 12)}
    topo_set = {tuple(p) for p in np.round(mirrored, 12)}
    assert triv_set == topo_set
    assert np.array_equal(np.sort(triv[:, 2]), np.sort(topo[:, 2]))


def test_trap_centers_interleave_bases():
    # atom 2 * cell + base: even rows are base A, odd rows base B, at z = cell * a + offset
    for topology in Topology:
        spec = paper_spec(d=1.7, topology=topology, n_cells=5)
        pos = trap_centers(spec).positions
        offsets = base_offsets(spec)
        for base in range(2):
            rows = pos[base::2]
            assert len(rows) == spec.n_cells
            assert np.array_equal(rows[:, :2], np.tile(offsets[base, :2], (spec.n_cells, 1)))
            assert np.array_equal(rows[:, 2], np.arange(spec.n_cells) * spec.a + offsets[base, 2])


def test_spec_defaults():
    spec = ChainSpec(n_cells=3, d=1.5)
    assert spec.a == 3.0
    assert spec.delta == 1.0
    assert abs(spec.theta - magic_angle()) < 1e-15
    assert spec.phi == 0.0
    assert spec.topology is Topology.TRIVIAL
    assert spec.nu == (1.0, 1.0, 1.0)
    assert spec.mass == 1.0
    assert abs(spec.v_dd - 1.0 / 3.0) < 1e-15


@pytest.mark.parametrize("bad", [
    {"n_cells": 0, "d": 2.0},
    {"n_cells": 2, "d": -1.0},
    {"n_cells": 2, "d": 2.0, "a": 0.0},
    {"n_cells": 2, "d": 2.0, "theta": 4.0},
    {"n_cells": 2, "d": 2.0, "nu": (1.0, 0.0, 1.0)},
    {"n_cells": 2, "d": 2.0, "mass": 0.0},
    {"n_cells": 2, "d": 2.0, "v_dd": -0.1},
    *({"n_cells": 2, "d": 2.0, field: value}
      for field in ("d", "delta", "a", "theta", "phi", "mass", "v_dd")
      for value in (math.nan, math.inf, -math.inf)),
    {"n_cells": 2, "d": 2.0, "nu": (1.0, math.inf, 1.0)},
    {"n_cells": 2, "d": 2.0, "nu": (math.nan, 1.0, 1.0)},
    *({"n_cells": n, "d": 2.0} for n in (2.5, 2.0, True, "3", None)),
    *({"n_cells": 2, "d": 2.0, field: value}
      for field in ("d", "delta", "a", "theta", "phi", "mass", "v_dd")
      for value in ("magic", "2.0", None, True, [1.0])
      if not (field == "a" and value is None)),  # a=None means a = 2 d
    {"n_cells": 2, "d": 2.0, "nu": "abc"},
    {"n_cells": 2, "d": 2.0, "nu": (1.0, "2", 1.0)},
    {"n_cells": 2, "d": 2.0, "nu": [[1.0, 2.0], [3.0]]},
    *({"n_cells": 2, "d": 2.0, "topology": value} for value in ("bogus", "", None, 1)),
])
def test_spec_validation(bad):
    with pytest.raises(ConfigError):
        ChainSpec(**bad)


def test_spec_topology_is_case_insensitive():
    spec = ChainSpec(n_cells=2, d=2.0, topology="TOPOLOGICAL")
    assert spec.topology is Topology.TOPOLOGICAL
    assert spec == spec_from_dict({"n_cells": 2, "d": 2.0, "topology": "Topological"})
    assert spec_digest(spec) == spec_digest(ChainSpec(n_cells=2, d=2.0, topology="topological"))


def test_spec_accepts_numpy_integer_n_cells():
    spec = ChainSpec(n_cells=np.int64(3), d=2.0)
    assert spec == ChainSpec(n_cells=3, d=2.0)
    assert json.dumps(spec_to_dict(spec)) == json.dumps(spec_to_dict(ChainSpec(n_cells=3, d=2.0)))


def test_spec_converts_numpy_scalars_to_plain_numbers():
    spec = ChainSpec(n_cells=3, d=np.float32(2.0), delta=np.float64(1.0), phi=np.int16(0),
                     nu=np.array([1.0, 1.0, 1.0], dtype=np.float32), mass=np.float32(1.0))
    assert type(spec.d) is float and type(spec.a) is float and type(spec.phi) is int
    assert all(type(x) is float for x in spec.nu)
    plain = ChainSpec(n_cells=3, d=2.0, delta=1.0, phi=0, mass=1.0)
    assert spec == plain
    assert spec_digest(spec) == spec_digest(plain)


def test_spec_keeps_python_numbers_as_given():
    # "delta": 1 in a JSON config must digest as 1, not 1.0
    spec = spec_from_dict({"n_cells": 3, "d": 2, "delta": 1})
    assert type(spec.delta) is int and type(spec.d) is int
    assert json.dumps(spec_to_dict(spec)["delta"]) == "1"


def test_spec_from_dict_magic_theta():
    spec = spec_from_dict({"n_cells": 4, "d": 2.0, "theta": "magic"})
    assert abs(spec.theta - magic_angle()) < 1e-15


def test_spec_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="not_a_key"):
        spec_from_dict({"n_cells": 4, "d": 2.0, "not_a_key": 1})


def test_spec_from_dict_requires_n_cells_and_d():
    with pytest.raises(ConfigError, match="n_cells"):
        spec_from_dict({"d": 2.0})
    with pytest.raises(ConfigError, match="d"):
        spec_from_dict({"n_cells": 4})


def test_spec_nu_scalar_broadcast():
    spec = ChainSpec(n_cells=2, d=2.0, nu=0.5)
    assert spec.nu == (0.5, 0.5, 0.5)


def test_load_chain_spec_round_trip(tmp_path):
    spec = paper_spec(d=1.8, topology=Topology.TOPOLOGICAL)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    assert load_chain_spec(path) == spec


def test_load_chain_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    with pytest.raises(ConfigError):
        load_chain_spec(path)
