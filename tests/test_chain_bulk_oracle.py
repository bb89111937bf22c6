"""The finite chain and the bulk as each other's oracle.

Two independent paths compute the second derivatives of one lattice: the
finite chain's ``hessian`` sums the pair Hessians of every pair of its
atoms, and the bulk's ``bands._real_space_blocks`` sums them over the
partners of cell 0 out to +-``_CUTOFF_CELLS`` cells.  In the middle of a
long chain at the trap centers, the two must agree: the blocks between the
middle cell and its near neighbours bit for bit, and the self block up to
the pair Hessians of the cells that only the chain has (those more than
``_CUTOFF_CELLS`` away), which is exactly the bulk's truncation.

Relaxed, the two are ``relax_finite`` over all 3N coordinates and
``relax_bulk`` over the six of one cell.  The middle cell's displacement
must then equal the bulk's delta to within the bulk's own errors: its
truncation, which ``_cutoff_drift`` estimates, and its Newton residual.
"""

from itertools import product

import numpy as np
import pytest

from rydphon import Topology, hessian, magic_angle, relax_bulk, relax_finite, trap_centers
from rydphon.bands import _real_space_blocks
from rydphon.equilibrium import (
    _CUTOFF_CELLS,
    _bulk_energy_force_hessian,
    _bulk_partners,
    _cutoff_drift,
)
from rydphon.potential import _pair_hessians, _separations

from conftest import paper_spec

N_CELLS = 80
MIDDLE = 40     # cells 0 ... 79 lie -40 ... +39 cells away from it
NEAR = [n for n in range(-5, 6) if n != 0]


def _far_cells_pair_hessians(spec) -> np.ndarray:
    """(6, 6) self-block sum of the pair Hessians between the middle cell's
    atoms and every atom of the cells more than ``_CUTOFF_CELLS`` away."""
    positions = trap_centers(spec).positions.reshape(N_CELLS, 2, 3)
    far = [c for c in range(N_CELLS) if abs(c - MIDDLE) > _CUTOFF_CELLS]
    block = np.zeros((6, 6))
    if spec.v_dd == 0.0:
        return block
    for a in range(2):
        rvec = (positions[MIDDLE, a] - positions[far]).reshape(-1, 3)
        rnorm, s = _separations(rvec, spec.m_hat, str)
        block[3 * a:3 * a + 3, 3 * a:3 * a + 3] = _pair_hessians(
            rvec, rnorm, s, spec.m_hat, spec.v_dd).sum(axis=0)
    return block


@pytest.mark.parametrize("theta", [magic_angle(), 0.0, 0.5 * np.pi], ids=["magic", "0", "pi/2"])
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("topology", list(Topology))
def test_middle_of_an_80_cell_chain_is_the_bulk(topology, phi, theta):
    for nu, v_dd, d in product([(1.0, 1.0, 1.0), (1.0, 1.3, 0.7)], [1.0 / 3.0, 0.0], [2.0, 2.5]):
        spec = paper_spec(n_cells=N_CELLS, d=d, topology=topology, phi=phi, theta=theta, nu=nu,
                          v_dd=v_dd)
        chain = hessian(trap_centers(spec), spec).reshape(N_CELLS, 6, N_CELLS, 6)
        bulk = _real_space_blocks(spec, np.zeros((2, 3)))
        for n in NEAR:
            assert np.array_equal(chain[MIDDLE, :, MIDDLE + n], bulk[_CUTOFF_CELLS + n]), (spec, n)
        # the self blocks differ by the far cells' pairs (0.3-1.2e-9 relative
        # with the dipoles on), summed in another order: a few ulps remain
        self_bulk = bulk[_CUTOFF_CELLS]
        difference = chain[MIDDLE, :, MIDDLE] - self_bulk
        residual = np.abs(difference - _far_cells_pair_hessians(spec)).max()
        assert residual <= 4 * np.finfo(float).eps * np.abs(self_bulk).max(), spec


@pytest.mark.parametrize("topology", list(Topology))
def test_relaxed_middle_of_an_80_cell_chain_is_the_relaxed_bulk(topology):
    """At 12 spacings d in [1.9, 3] the middle cell moves by the bulk's delta
    to within twice the bulk's error estimate: the drift that doubling its
    cutoff would cause (``_cutoff_drift``) plus the Newton step its residual
    force still asks for.  The ratio measured at most 1.76; the errors are
    0.9-7.5e-9 against |delta| of 0.02-0.19."""
    for d in np.linspace(1.9, 3.0, 12):
        spec = paper_spec(n_cells=N_CELLS, d=float(d), topology=topology)
        moved = relax_finite(spec).positions - trap_centers(spec).positions
        deltas = relax_bulk(spec).deltas
        _, grad, hess = _bulk_energy_force_hessian(deltas, spec, _bulk_partners(_CUTOFF_CELLS))
        residual_step = np.abs(np.linalg.solve(hess, grad.reshape(-1))).max()
        bound = 2.0 * (_cutoff_drift(deltas, spec) + residual_step)
        assert np.abs(moved.reshape(N_CELLS, 2, 3)[MIDDLE] - deltas).max() <= bound, spec
