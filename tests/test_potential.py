import math

import numpy as np
import pytest

from rydphon import (
    ChainSpec,
    CoincidentAtomsError,
    Configuration,
    NonFiniteMatrixError,
    dipole_unit,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    magic_angle,
    pair_energy,
    relax_finite,
    total_energy,
    trap_centers,
)
from rydphon.potential import _PAIR_CHUNK, _energy_components, _pair_geometry, _pair_hessians

from conftest import paper_spec

Z_HAT = np.array([0.0, 0.0, 1.0])


def perturbed(spec, rng, scale=0.05):
    pos = trap_centers(spec).positions + scale * rng.standard_normal((spec.n_atoms, 3))
    return Configuration(pos, 0.0, False)


def test_pair_energy_head_to_tail():
    assert abs(pair_energy([0.0, 0.0, 1.0], Z_HAT, 1.0) + 2.0) < 1e-15


def test_pair_energy_perpendicular():
    assert abs(pair_energy([2.0, 0.0, 0.0], Z_HAT, 1.0) - 0.125) < 1e-15


def test_pair_energy_magic_angle_along_chain():
    m = dipole_unit(magic_angle(), 0.0)
    assert abs(pair_energy([0.0, 0.0, 1.0], m, 1.0)) < 1e-14


def test_pair_energy_rejects_zero_separation():
    with pytest.raises(CoincidentAtomsError):
        pair_energy([0.0, 0.0, 0.0], Z_HAT, 1.0)


def test_total_energy_zero_at_centers_without_dipoles():
    spec = paper_spec(v_dd=0.0)
    report = total_energy(trap_centers(spec), spec)
    assert report.total == 0.0


def test_trap_part_single_displaced_atom():
    spec = ChainSpec(n_cells=1, d=2.0, v_dd=0.0)
    pos = trap_centers(spec).positions.copy()
    pos[0] += [0.0, 0.0, 0.1]
    report = total_energy(Configuration(pos, 0.0, False), spec)
    assert abs(report.trap_part - 0.005) < 1e-15
    assert report.dipole_part == 0.0


def test_two_atom_dipole_part_is_single_pair_energy():
    spec = ChainSpec(n_cells=1, d=2.0, delta=1.0)
    config = trap_centers(spec)
    report = total_energy(config, spec)
    r = config.positions[0] - config.positions[1]
    assert abs(report.dipole_part - pair_energy(r, spec.m_hat, spec.v_dd)) < 1e-15


def test_energy_report_identity(rng):
    spec = paper_spec()
    report = total_energy(perturbed(spec, rng), spec)
    assert abs(report.total - (report.trap_part + report.dipole_part)) \
        <= 1e-12 * abs(report.total)


def test_total_energy_rejects_coincident_atoms():
    spec = ChainSpec(n_cells=1, d=2.0)
    pos = trap_centers(spec).positions.copy()
    pos[1] = pos[0]
    with pytest.raises(CoincidentAtomsError):
        total_energy(Configuration(pos, 0.0, False), spec)


def test_gradient_zero_at_trap_minimum():
    spec = paper_spec(v_dd=0.0)
    assert np.abs(gradient(trap_centers(spec), spec)).max() == 0.0


def test_gradient_matches_central_differences(rng):
    spec = paper_spec(n_cells=4)
    for _ in range(3):
        cfg = perturbed(spec, rng)
        err = np.abs(gradient(cfg, spec) - fd_gradient(cfg, spec, 1e-5)).max()
        assert err < 1e-6


def test_gradient_ordering_is_cell_base_cartesian():
    spec = ChainSpec(n_cells=2, d=2.0, v_dd=0.0, nu=(1.0, 2.0, 3.0))
    pos = trap_centers(spec).positions.copy()
    pos[1, 1] += 0.1  # atom k=1 (cell 0, base B), y direction
    g = gradient(Configuration(pos, 0.0, False), spec)
    expected = np.zeros(12)
    expected[3 * 1 + 1] = spec.mass * spec.nu[1] ** 2 * 0.1
    assert np.allclose(g, expected, atol=1e-15)


def test_dipole_forces_obey_newtons_third_law(rng):
    spec = paper_spec()
    cfg = perturbed(spec, rng)
    g = gradient(cfg, spec).reshape(-1, 3)
    trap = spec.mass * spec.nu_array**2 * (cfg.positions - trap_centers(spec).positions)
    dipole_forces = -(g - trap)
    assert np.abs(dipole_forces.sum(axis=0)).max() < 1e-13


def test_hessian_pure_traps_is_diagonal():
    spec = paper_spec(v_dd=0.0, nu=(1.0, 2.0, 0.5), mass=1.5)
    h = hessian(trap_centers(spec), spec)
    expected = np.diag(np.tile(spec.mass * spec.nu_array**2, spec.n_atoms))
    assert np.array_equal(h, expected)


def _hessian_by_add_at(config, spec):
    """The (N, N, 3, 3) np.add.at assembly that hessian() replaced."""
    positions = config.positions
    n = positions.shape[0]
    blocks = np.zeros((n, n, 3, 3))
    if spec.v_dd != 0.0 and n > 1:
        iu, ju, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
        hp = _pair_hessians(rvec, rnorm, s, spec.m_hat, spec.v_dd)
        np.add.at(blocks, (iu, iu), hp)
        np.add.at(blocks, (ju, ju), hp)
        np.add.at(blocks, (iu, ju), -hp)
        np.add.at(blocks, (ju, iu), -hp)
    hess = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    hess[np.diag_indices(3 * n)] += np.tile(spec.mass * spec.nu_array**2, n)
    return hess


_ASSEMBLY_CASES = {
    "one-cell": paper_spec(n_cells=1),
    "two-cells-topological": paper_spec(n_cells=2, topology="topological"),
    "no-dipoles": paper_spec(v_dd=0.0),
    "phi-0.3": paper_spec(phi=0.3),
    "anisotropic-nu": paper_spec(d=2.5, nu=(1.0, 1.3, 0.7)),
    "relaxed": paper_spec(topology="topological"),
    "more-pairs-than-a-chunk": paper_spec(n_cells=46, d=2.2),
}


@pytest.mark.parametrize("case", _ASSEMBLY_CASES)
def test_hessian_matches_add_at_assembly_bit_for_bit(case):
    """Compared as bytes, so a -0.0 where the reference has +0.0 fails too."""
    spec = _ASSEMBLY_CASES[case]
    cfg = relax_finite(spec) if case == "relaxed" else trap_centers(spec)
    if case == "more-pairs-than-a-chunk":
        assert spec.n_atoms * (spec.n_atoms - 1) // 2 > _PAIR_CHUNK
    assert hessian(cfg, spec).tobytes() == _hessian_by_add_at(cfg, spec).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hessian_rejects_non_finite_entries():
    """At d = 1e200, |r|**2 overflows and the pair formula gives inf * 0 = nan."""
    spec = paper_spec(n_cells=3, d=1e200)
    with pytest.raises(NonFiniteMatrixError, match="Hessian entry"):
        hessian(trap_centers(spec), spec)


def test_hessian_matches_central_differences(rng):
    spec = paper_spec(n_cells=4)
    cfg = perturbed(spec, rng)
    err = np.abs(hessian(cfg, spec) - fd_hessian(cfg, spec, 1e-4)).max()
    assert err < 1e-5


def test_hessian_exactly_symmetric(rng):
    spec = paper_spec(n_cells=5)
    h = hessian(perturbed(spec, rng), spec)
    assert np.abs(h - h.T).max() == 0.0


def test_fd_hessian_symmetric_within_tolerance(rng):
    spec = paper_spec(n_cells=3)
    h = fd_hessian(perturbed(spec, rng), spec, 1e-4)
    assert np.abs(h - h.T).max() <= 1e-5


def test_dipole_hessian_row_blocks_sum_to_zero(rng):
    spec = paper_spec(n_cells=4)
    cfg = perturbed(spec, rng)
    n = spec.n_atoms
    dip = hessian(cfg, spec) - hessian(cfg, spec.with_(v_dd=0.0))
    blocks = dip.reshape(n, 3, n, 3)
    assert np.abs(blocks.sum(axis=2)).max() < 1e-12


def test_fd_gradient_exact_for_quadratic_traps(rng):
    spec = paper_spec(v_dd=0.0, n_cells=3)
    cfg = perturbed(spec, rng, scale=0.2)
    err = np.abs(fd_gradient(cfg, spec, 1e-4) - gradient(cfg, spec)).max()
    assert err < 1e-11


def test_fd_gradient_second_order_convergence(rng):
    spec = ChainSpec(n_cells=3, d=2.0)
    cfg = perturbed(spec, rng)
    g = gradient(cfg, spec)
    coarse = np.abs(fd_gradient(cfg, spec, 2e-4) - g).max()
    fine = np.abs(fd_gradient(cfg, spec, 1e-4) - g).max()
    assert 3.0 < coarse / fine < 5.0


def test_fd_requires_positive_step(rng):
    spec = ChainSpec(n_cells=2, d=2.0)
    with pytest.raises(ValueError):
        fd_gradient(trap_centers(spec), spec, 0.0)


def test_directional_derivative_consistency(rng):
    spec = paper_spec(n_cells=4)
    cfg = perturbed(spec, rng)
    g = gradient(cfg, spec)
    for _ in range(5):
        v = rng.standard_normal(g.size)
        v /= np.linalg.norm(v)
        eps = 1e-6
        up = Configuration(cfg.positions + eps * v.reshape(-1, 3), 0.0, False)
        dn = Configuration(cfg.positions - eps * v.reshape(-1, 3), 0.0, False)
        numeric = (total_energy(up, spec).total - total_energy(dn, spec).total) / (2 * eps)
        assert abs(numeric - g @ v) < 1e-8


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


@pytest.mark.parametrize("axis,angle", [
    ([0.0, 0.0, 1.0], 0.7),
    ([0.3, -1.1, 0.4], 1.9),
])
def test_total_energy_rotation_invariance(rng, axis, angle):
    spec = paper_spec(n_cells=4)
    cfg = perturbed(spec, rng)
    centers = trap_centers(spec).positions
    nu = spec.nu_array
    base = sum(_energy_components(cfg.positions, centers, nu, spec.mass, spec.m_hat, spec.v_dd))
    rot = _rotation(axis, angle)
    rotated = sum(_energy_components(
        cfg.positions @ rot.T, centers @ rot.T, nu, spec.mass, rot @ spec.m_hat, spec.v_dd,
    ))
    assert abs(base - rotated) < 1e-12 * max(1.0, abs(base))
