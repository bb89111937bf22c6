import os
from pathlib import Path

import numpy as np
import pytest

import rydphon
from rydphon import ChainSpec, Topology


def paper_spec(d=2.0, topology=Topology.TRIVIAL, n_cells=7, **kwargs):
    """Chain with the parameter set used throughout the figures:
    14 atoms, delta = 1, a = 2d, magic dipole angle, phi = 0."""
    return ChainSpec(n_cells=n_cells, d=d, topology=topology, **kwargs)


def child_env() -> dict:
    """The environment of a child process, with the ``rydphon`` package under
    test first on its import path."""
    src = str(Path(rydphon.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)
