"""Property tests over generated chains: spec round trips, model-file
idempotence, the q -> -q symmetry of the bands, their agreement on the
q points two grids share, and the CLI exit codes."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from rydphon import ChainSpec, Topology, assemble, band_structure, deserialize, serialize
from rydphon.cli import main
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


@PROPERTY
@given(st.integers(min_value=2, max_value=300), st.floats(min_value=1.46, max_value=3.0),
       topologies)
def test_bands_agree_where_two_grids_share_a_q_point(q_points, d, topology):
    # below d = 1.4543 the trap-center lattice is unstable at q = pi/a
    spec = ChainSpec(n_cells=7, d=d, topology=topology)
    coarse = band_structure(spec, q_points=q_points)
    fine = band_structure(spec, q_points=2 * q_points)
    # point k of the n-point grid is point 2k + 1 of the 2n-point grid
    assert np.array_equal(fine.q_grid[1::2], coarse.q_grid)
    assert np.abs(fine.omega[1::2] - coarse.omega).max() <= 1e-12
    assert np.abs(np.abs(fine.xi[1::2]) - np.abs(coarse.xi)).max() <= 1e-12


_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _run_and_check(spec, runs):
    """Run each of ``runs`` on ``spec`` through ``main``: it computes or fails
    with exit 1, 2 or 3, never with a traceback, and a failure other than a
    failed check (which reports on stdout) writes one stderr line; a run
    that exits 0 writes no nan or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "chain.json")
        cfg.write_text(json.dumps(spec_to_dict(spec)))
        for command, *options in runs:
            paths = [Path(tmp, a) for a in options if a.endswith((".csv", ".json"))]
            argv = [command, str(cfg), *(str(Path(tmp, a)) if a.endswith((".csv", ".json")) else a
                                         for a in options)]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue(), argv
            if code == 0:
                for path in paths:
                    assert not _NON_FINITE.search(path.read_text()), (argv, path.name)
            elif code != 3:
                assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


@PROPERTY
@given(st.floats(min_value=-300.0, max_value=300.0), st.integers(min_value=2, max_value=6),
       topologies)
def test_cli_exit_code_is_documented_and_outputs_are_finite(log_d, n_cells, topology):
    """Any spacing from 1e-300 to 1e300 computes or fails as documented."""
    _run_and_check(ChainSpec(n_cells=n_cells, d=10.0**log_d, topology=topology),
                   (["local", "--out-g", "g.csv", "--out-j", "j.csv"],
                    ["bands", "--q-points", "8", "--out", "bands.csv"],
                    ["spectrum", "--out", "spectrum.csv"]))


# every subcommand, with and without --relax where it has the flag
_FUZZED_RUNS = (
    *(["bands", "--q-points", "8", "--out", "bands.csv", *relax] for relax in ([], ["--relax"])),
    *(["spectrum", "--out", "spectrum.csv", *relax] for relax in ([], ["--relax"])),
    *(["local", "--out-g", "g.csv", "--out-j", "j.csv", *relax] for relax in ([], ["--relax"])),
    *(["coupling", "--q-points", "8", "--out", "coupling.csv", *relax]
      for relax in ([], ["--relax"])),
    *(["export", "--t", "1", "--U", "4", "--gcp", "0.5", "--q-points", "8", "--out", "model.json",
       *relax] for relax in ([], ["--relax"])),
    ["sweep", "--param", "theta", "--from", "0", "--to", "1.5", "--steps", "3", "--q-points", "8",
     "--out", "sweep.csv"],
    ["check"],
)
small_chains = st.builds(
    ChainSpec,
    n_cells=st.integers(min_value=1, max_value=4),
    d=st.floats(min_value=0.3, max_value=30.0),
    delta=st.floats(min_value=-3.0, max_value=3.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    topology=topologies,
    nu=st.tuples(*[st.floats(min_value=0.2, max_value=5.0)] * 3),
    v_dd=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(small_chains)
def test_every_subcommand_on_small_chains_exits_as_documented(spec):
    """Each subcommand, relaxed or not, on a chain of 1-4 cells computes or
    fails as documented."""
    _run_and_check(spec, _FUZZED_RUNS)
