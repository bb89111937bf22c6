"""Property tests over generated chains: spec round trips, model-file
idempotence and the q -> -q symmetry of the bands."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from rydphon import ChainSpec, Topology, assemble, band_structure, deserialize, serialize
from rydphon.geometry import spec_from_dict, spec_to_dict
from rydphon.model_export import spec_digest

# few, reproducible examples, and no example database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

topologies = st.sampled_from(list(Topology))
positive = st.floats(min_value=1e-3, max_value=10.0)
specs = st.builds(
    ChainSpec,
    n_cells=st.integers(min_value=1, max_value=50),
    d=positive,
    delta=st.floats(min_value=-5.0, max_value=5.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    topology=topologies,
    nu=st.tuples(positive, positive, positive),
    v_dd=st.floats(min_value=0.0, max_value=1.0),
)
# chains that are stable at their trap centers
stable_specs = st.builds(
    ChainSpec,
    n_cells=st.just(7),
    d=st.floats(min_value=2.0, max_value=3.0),
    topology=topologies,
    v_dd=st.floats(min_value=0.0, max_value=1.0 / 3.0),
)


@PROPERTY
@given(specs)
def test_spec_dict_round_trip_and_stable_digest(spec):
    data = spec_to_dict(spec)
    assert spec_from_dict(data) == spec
    assert spec_from_dict(json.loads(json.dumps(data))) == spec
    assert spec_digest(spec_from_dict(data)) == spec_digest(spec)


@PROPERTY
@given(stable_specs, st.integers(min_value=2, max_value=16),
       st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_serialize_deserialize_serialize_is_byte_idempotent(spec, q_points, t, U, g_cp):
    model = assemble(spec, t=t, U=U, g_cp=g_cp, q_points=q_points)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        serialize(model, first)
        serialize(deserialize(first), second)
        assert first.read_bytes() == second.read_bytes()


@PROPERTY
@given(stable_specs, st.integers(min_value=2, max_value=64))
def test_omega_even_on_mirrored_grid_points(spec, q_points):
    bands = band_structure(spec, q_points=q_points)
    qs = bands.q_grid
    # the grid is (-pi/a, pi/a]: q_k and q_{n-2-k} are mirror images
    mirror = len(qs) - 2 - np.arange(len(qs) - 1)
    assert np.allclose(qs[mirror], -qs[:-1], rtol=0.0, atol=1e-12)
    assert np.abs(bands.omega[mirror] - bands.omega[:-1]).max() <= 1e-12
