import math

import numpy as np
import pytest

from rydphon import (
    ChainSpec,
    CoincidentAtomsError,
    Configuration,
    NonFiniteMatrixError,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    magic_angle,
    relax_finite,
    total_energy,
    trap_centers,
)
from rydphon.potential import (
    _PAIR_CHUNK,
    _energy,
    _pair_geometry,
    _pair_gradients,
    _pair_hessians,
)

from conftest import paper_spec


def perturbed(spec, rng, scale=0.05):
    pos = trap_centers(spec).positions + scale * rng.standard_normal((spec.n_atoms, 3))
    return Configuration(pos, 0.0, False)


def dipole_energy(positions, m_hat, spec):
    """_energy with the positions as their own trap centers: the pair part alone."""
    return _energy(positions, positions, spec, _pair_geometry(positions, m_hat))


def two_atom_dipole_energy(r, theta):
    """Dipolar energy (v_dd = 1) of two atoms separated by r, dipoles at polar angle theta."""
    spec = ChainSpec(n_cells=1, d=2.0, theta=theta, v_dd=1.0)
    return dipole_energy(np.array([r, [0.0, 0.0, 0.0]]), spec.m_hat, spec)


def test_pair_energy_head_to_tail():
    assert abs(two_atom_dipole_energy([0.0, 0.0, 1.0], 0.0) + 2.0) < 1e-15


def test_pair_energy_perpendicular():
    assert abs(two_atom_dipole_energy([2.0, 0.0, 0.0], 0.0) - 0.125) < 1e-15


def test_pair_energy_magic_angle_along_chain():
    assert abs(two_atom_dipole_energy([0.0, 0.0, 1.0], magic_angle())) < 1e-14


def test_pair_energy_rejects_zero_separation():
    with pytest.raises(CoincidentAtomsError):
        two_atom_dipole_energy([0.0, 0.0, 0.0], 0.0)


def test_total_energy_zero_at_centers_without_dipoles():
    spec = paper_spec(v_dd=0.0)
    assert total_energy(trap_centers(spec), spec) == 0.0


def test_trap_part_single_displaced_atom():
    spec = ChainSpec(n_cells=1, d=2.0, v_dd=0.0)
    pos = trap_centers(spec).positions.copy()
    pos[0] += [0.0, 0.0, 0.1]
    # v_dd = 0, so the energy is the trap part alone
    assert abs(total_energy(Configuration(pos, 0.0, False), spec) - 0.005) < 1e-15


def test_two_atom_dipole_part_is_single_pair_energy():
    spec = ChainSpec(n_cells=1, d=2.0, delta=1.0)
    config = trap_centers(spec)   # the trap part is exactly 0.0 at the trap centers
    r = config.positions[0] - config.positions[1]
    rnorm = float(np.linalg.norm(r))
    cos = float(np.dot(spec.m_hat, r)) / rnorm
    assert abs(total_energy(config, spec) - spec.v_dd * (1.0 - 3.0 * cos * cos) / rnorm**3) < 1e-15


def _trap_plus_dipole(config, spec):
    """The trap and dipolar parts, computed as total_energy computed them while it
    returned both, and summed."""
    positions = config.positions
    disp = positions - trap_centers(spec).positions
    trap = 0.5 * spec.mass * float(np.sum((spec.nu_array[None, :] * disp) ** 2))
    dip = 0.0
    if positions.shape[0] >= 2 and spec.v_dd != 0.0:
        iu, ju = np.triu_indices(positions.shape[0], k=1)
        rvec = positions[iu] - positions[ju]
        rnorm = np.linalg.norm(rvec, axis=1)
        s = rvec @ spec.m_hat
        dip = float(spec.v_dd * np.sum((rnorm**2 - 3.0 * s**2) / rnorm**5))
    return trap + dip


@pytest.mark.parametrize("case", ["trap-centers", "perturbed", "relaxed", "no-dipoles"])
def test_total_energy_is_trap_plus_dipole_bit_for_bit(rng, case):
    spec = paper_spec(v_dd=0.0) if case == "no-dipoles" else paper_spec()
    if case == "trap-centers":
        config = trap_centers(spec)
    elif case == "relaxed":
        config = relax_finite(spec)
    else:
        config = perturbed(spec, rng)
    assert total_energy(config, spec) == _trap_plus_dipole(config, spec)


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


def _pair_hessians_9(rvec, rnorm, s, m_hat, v_dd):
    """The 9-entry pair Hessian formula that _pair_hessians replaced."""
    inv5 = rnorm**-5
    inv7 = rnorm**-7
    u = 1.0 - 3.0 * (s / rnorm) ** 2
    eye = np.eye(3)
    mm = np.outer(m_hat, m_hat)
    mr = m_hat[None, :, None] * rvec[:, None, :] + rvec[:, :, None] * m_hat[None, None, :]
    rr = rvec[:, :, None] * rvec[:, None, :]
    return v_dd * (
        ((2.0 - 5.0 * u) * inv5)[:, None, None] * eye
        - (6.0 * inv5)[:, None, None] * mm
        + (30.0 * s * inv7)[:, None, None] * mr
        + ((35.0 * u - 20.0) * inv7)[:, None, None] * rr
    )


def _gradient_by_row_add_at(config, spec):
    """The gradient() that summed pair gradients with np.add.at on the (N, 3) target."""
    positions = config.positions
    grad = spec.mass * spec.nu_array[None, :] ** 2 * (positions - trap_centers(spec).positions)
    if spec.v_dd != 0.0 and positions.shape[0] > 1:
        iu, ju, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
        g = _pair_gradients(rvec, rnorm, s, spec.m_hat, spec.v_dd)
        np.add.at(grad, iu, g)
        np.add.at(grad, ju, -g)
    return grad.reshape(-1)


def _kernel_positions(phi):
    """Named position sets: trap centers have r_y = 0 exactly, and so does the
    relaxed chain at phi = 0 (not at 0.3); the random ones have no zeros; the
    last has more pairs than one _PAIR_CHUNK."""
    rng = np.random.default_rng(7)
    spec = paper_spec(topology="topological", phi=phi)
    centers = trap_centers(spec).positions
    many = trap_centers(paper_spec(n_cells=46, d=2.2)).positions
    return {
        "trap-centers": centers,
        "random": centers + 0.05 * rng.standard_normal(centers.shape),
        "relaxed": relax_finite(spec).positions,
        "more-pairs-than-a-chunk": many + 0.05 * rng.standard_normal(many.shape),
    }


@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("theta", [0.0, magic_angle(), math.pi / 2], ids=["0", "magic", "pi/2"])
def test_pair_kernels_match_their_earlier_forms_bit_for_bit(theta, phi):
    """_pair_hessians against the 9-entry formula and gradient() against the
    row-wise np.add.at, as bytes, so every signed zero counts; v_dd = 0 gives
    signed zeros throughout."""
    for where, positions in _kernel_positions(phi).items():
        n_cells = len(positions) // 2
        for v_dd in (1.0, 0.0):
            spec = paper_spec(n_cells=n_cells, theta=theta, phi=phi, v_dd=v_dd,
                              d=2.2 if n_cells == 46 else 2.0, topology="topological")
            _, _, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
            if where == "more-pairs-than-a-chunk":
                assert len(rnorm) > _PAIR_CHUNK
            new = _pair_hessians(rvec, rnorm, s, spec.m_hat, v_dd)
            old = _pair_hessians_9(rvec, rnorm, s, spec.m_hat, v_dd)
            assert new.tobytes() == old.tobytes(), (where, v_dd)
            cfg = Configuration(positions, 0.0, False)
            assert gradient(cfg, spec).tobytes() == _gradient_by_row_add_at(cfg, spec).tobytes(), \
                (where, v_dd)


def _hessian_by_add_at(config, spec):
    """The (N, N, 3, 3) np.add.at assembly of the 9-entry pair Hessians that
    hessian() replaced."""
    positions = config.positions
    n = positions.shape[0]
    blocks = np.zeros((n, n, 3, 3))
    if spec.v_dd != 0.0 and n > 1:
        iu, ju, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
        hp = _pair_hessians_9(rvec, rnorm, s, spec.m_hat, spec.v_dd)
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
        numeric = (total_energy(up, spec) - total_energy(dn, spec)) / (2 * eps)
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
    positions = perturbed(spec, rng).positions
    base = dipole_energy(positions, spec.m_hat, spec)
    rot = _rotation(axis, angle)
    rotated = dipole_energy(positions @ rot.T, rot @ spec.m_hat, spec)
    assert abs(base - rotated) < 1e-12 * max(1.0, abs(base))
