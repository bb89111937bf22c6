import os
from pathlib import Path

import numpy as np
import pytest

import rydphon
from rydphon import ChainSpec, Topology, relax_bulk


def paper_spec(d=2.0, topology=Topology.TRIVIAL, n_cells=7, **kwargs):
    """Chain with the parameter set used throughout the figures:
    14 atoms, delta = 1, a = 2d, magic dipole angle, phi = 0."""
    return ChainSpec(n_cells=n_cells, d=d, topology=topology, **kwargs)


# the bulks that the bulk-sum kernels are compared on: (d, nu)
BULK_KERNEL_CASES = {"isotropic": (2.0, (1.0, 1.0, 1.0)), "anisotropic-nu": (2.5, (1.0, 1.3, 0.7))}


def bulk_kernel_inputs(case, topology, phi):
    """(spec, deltas name, deltas) triples for comparing a bulk sum bit for
    bit: no displacement, the relaxed bulk's and an off-equilibrium point,
    each with the dipoles on and with v_dd = 0 (signed zeros throughout)."""
    d, nu = BULK_KERNEL_CASES[case]
    spec = paper_spec(d=d, nu=nu, topology=topology, phi=phi)
    relaxed = relax_bulk(spec).deltas
    shaken = relaxed + 0.01 * np.random.default_rng(3).standard_normal((2, 3))
    deltas = {"zero": np.zeros((2, 3)), "relaxed": relaxed, "off-equilibrium": shaken}
    return [(s, name, dl) for s in (spec, spec.with_(v_dd=0.0)) for name, dl in deltas.items()]


def child_env() -> dict:
    """The environment of a child process, with the ``rydphon`` package under
    test first on its import path."""
    src = str(Path(rydphon.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)
