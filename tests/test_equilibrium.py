import sys
from pathlib import Path

import numpy as np
import pytest

from rydphon import (
    ChainSpec,
    CoincidentAtomsError,
    Configuration,
    MaxIterExceededError,
    NonConvergedCutoffError,
    NonFiniteMatrixError,
    Topology,
    band_structure,
    coupling_matrices,
    detect_edge_modes,
    finite_spectrum,
    gradient,
    hessian,
    local_frequencies,
    local_phonon_model,
    relax_bulk,
    relax_finite,
    total_energy,
    trap_centers,
)
from rydphon import equilibrium, potential
from rydphon.bands import _freqs_from_lambda
from rydphon.equilibrium import (
    _bulk_energy_force_hessian,
    _bulk_partners,
    _certified_positive_definite,
    _newton_direction,
    _solve_bulk,
)
from rydphon.geometry import base_offsets, load_chain_spec
from rydphon.potential import _pair_gradients, _pair_hessians

from conftest import BULK_KERNEL_CASES, bulk_kernel_inputs, paper_spec


def test_no_dipoles_relaxes_to_trap_centers():
    spec = paper_spec(v_dd=0.0)
    cfg = relax_finite(spec)
    assert cfg.n_iterations == 0
    assert np.array_equal(cfg.positions, trap_centers(spec).positions)
    assert cfg.relaxed and cfg.stable


def test_converged_residual_replay():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert np.abs(gradient(cfg, spec)).max() < 1e-10
    assert cfg.residual_inf_norm < 1e-10


def test_energy_decreases_monotonically():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert all(np.diff(cfg.energy_history) <= 0.0)


def test_relaxed_energy_below_trap_center_energy():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert total_energy(cfg, spec) <= total_energy(trap_centers(spec), spec)


@pytest.mark.parametrize("solver", ["finite", "bulk"])
def test_max_iter_exceeded_payload(solver, monkeypatch):
    spec = paper_spec()
    relax = relax_finite if solver == "finite" else relax_bulk
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 0)
    with pytest.raises(MaxIterExceededError, match=f"^{solver} relaxation") as info:
        relax(spec)
    assert info.value.residual > 0.0
    if solver == "finite":
        assert info.value.last_iterate.n_atoms == spec.n_atoms
    else:
        assert info.value.last_iterate.shape == (2, 3)


def test_unstable_equilibrium_is_flagged_not_raised():
    # soft y traps: the in-plane relaxation converges (y decouples at phi=0)
    # while the y sector of the Hessian goes negative
    spec = ChainSpec(n_cells=4, d=2.0, nu=(1.0, 0.1, 1.0))
    cfg = relax_finite(spec)
    assert cfg.residual_inf_norm < 1e-10
    assert cfg.stable is False
    assert cfg.min_hessian_eigenvalue < 0.0


@pytest.mark.parametrize("spec", [paper_spec(), ChainSpec(n_cells=4, d=2.0, nu=(1.0, 0.1, 1.0))],
                         ids=["stable", "soft-y"])
def test_stability_is_computed_from_the_carried_hessian(spec):
    cfg = relax_finite(spec)
    smallest = float(np.linalg.eigvalsh(hessian(cfg, spec)).min())
    assert cfg.min_hessian_eigenvalue == smallest
    assert cfg.stable is (smallest > 0.0)


def test_trap_centers_carry_no_stability():
    cfg = trap_centers(paper_spec())
    assert cfg.hessian is None
    assert cfg.stable is None and cfg.min_hessian_eigenvalue is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("relax", [relax_finite, relax_bulk])
def test_non_finite_gradient_is_not_convergence(relax):
    """At d = 1e200 the pair formula gives nan, whose residual is below no tol."""
    with pytest.raises(NonFiniteMatrixError):
        relax(ChainSpec(n_cells=4, d=1e200))


def test_relaxed_chain_keeps_mirror_inversion_symmetry():
    spec = paper_spec()
    cfg = relax_finite(spec)
    z_center = (spec.n_cells - 1) * spec.a / 2.0
    mapped = cfg.positions.copy()
    mapped[:, 0] *= -1.0
    mapped[:, 2] = 2.0 * z_center - mapped[:, 2]
    # (cell n, A) <-> (N_c-1-n, B)
    mapped = mapped.reshape(spec.n_cells, 2, 3)[::-1, ::-1, :].reshape(-1, 3)
    assert np.abs(mapped - cfg.positions).max() < 1e-8


def test_bulk_no_dipoles_gives_zero():
    eq = relax_bulk(paper_spec(v_dd=0.0))
    assert np.abs(eq.deltas).max() == 0.0


def test_bulk_mirror_symmetry():
    eq = relax_bulk(paper_spec())
    assert abs(eq.delta_a[0] + eq.delta_b[0]) < 1e-9
    assert abs(eq.delta_a[2] + eq.delta_b[2]) < 1e-9
    assert abs(eq.delta_a[1]) < 1e-12 and abs(eq.delta_b[1]) < 1e-12


def test_bulk_matches_interior_of_long_finite_chain():
    spec = ChainSpec(n_cells=32, d=2.0)
    cfg = relax_finite(spec)
    disp = cfg.positions - trap_centers(spec).positions
    deltas, _, _ = _solve_bulk(spec, 1e-12, 64)
    middle_atom = spec.n_atoms // 2  # cell 16, base A
    assert np.abs(disp[middle_atom] - deltas[0]).max() < 1e-6


def test_cutoff_convergence_is_fifth_power():
    # truncation error of the bulk solve decays like cutoff^-4 (pair second
    # derivatives fall off as 1/r^5); each doubling must gain well over 4x
    spec = paper_spec()
    deltas = {}
    for cutoff in (8, 16, 32):
        deltas[cutoff], _, _ = _solve_bulk(spec, 1e-12, cutoff)
    drift_8_16 = np.abs(deltas[16] - deltas[8]).max()
    drift_16_32 = np.abs(deltas[32] - deltas[16]).max()
    assert drift_8_16 < 1e-6
    assert drift_16_32 < drift_8_16 / 4.0


def _bulk_sums_with_masked_hessians(deltas, spec, cutoff_cells):
    """The _bulk_energy_force_hessian that read a per-base table of partner
    offsets and built pair Hessians for every row, then kept the
    cross-sublattice ones (its coincidence check left out)."""
    offs = base_offsets(spec)
    cells = np.arange(-cutoff_cells, cutoff_cells + 1)
    m_hat = spec.m_hat
    nu2 = spec.nu_array**2
    energy = 0.5 * spec.mass * float(np.sum(nu2 * deltas**2))
    grad = spec.mass * nu2 * deltas
    hess = np.zeros((6, 6))
    hess[np.diag_indices(6)] += np.tile(spec.mass * nu2, 2)
    for alpha in range(2):
        rel, beta_of = [], []
        for beta in range(2):
            n = cells[(cells != 0) | (beta != alpha)]
            rel.append(n[:, None] * spec.a * np.array([0.0, 0.0, 1.0]) + offs[beta] - offs[alpha])
            beta_of.append(np.full(len(n), beta))
        rel, beta_of = np.concatenate(rel), np.concatenate(beta_of)
        rvec = deltas[alpha] - (rel + deltas[beta_of])
        rnorm = np.linalg.norm(rvec, axis=1)
        s = rvec @ m_hat
        energy += 0.5 * spec.v_dd * float(np.sum((rnorm**2 - 3.0 * s**2) / rnorm**5))
        grad[alpha] += _pair_gradients(rvec, rnorm, s, m_hat, spec.v_dd).sum(axis=0)
        hps = _pair_hessians(rvec, rnorm, s, m_hat, spec.v_dd)
        other = 1 - alpha
        h_cross = hps[beta_of == other].sum(axis=0)
        a0, b0 = 3 * alpha, 3 * other
        hess[a0:a0 + 3, a0:a0 + 3] += h_cross
        hess[a0:a0 + 3, b0:b0 + 3] -= h_cross
    return energy, grad, hess


@pytest.mark.parametrize("case", BULK_KERNEL_CASES)
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_bulk_sums_match_the_masked_hessian_form_bit_for_bit(topology, phi, case):
    """Energy, gradient and Hessian as bytes, at both cutoffs relax_bulk solves at."""
    for cutoff in (equilibrium._CUTOFF_CELLS, 2 * equilibrium._CUTOFF_CELLS):
        partners = _bulk_partners(cutoff)
        for spec, where, deltas in bulk_kernel_inputs(case, topology, phi):
            new = _bulk_energy_force_hessian(deltas, spec, partners)
            old = _bulk_sums_with_masked_hessians(deltas, spec, cutoff)
            assert [np.float64(new[0]).tobytes(), new[1].tobytes(), new[2].tobytes()] == \
                [np.float64(old[0]).tobytes(), old[1].tobytes(), old[2].tobytes()], \
                (cutoff, spec.v_dd, where)


def test_relax_bulk_below_the_edge_names_the_missing_equilibrium():
    with pytest.raises(CoincidentAtomsError,
                       match="no symmetric bulk equilibrium found at d=1.6: ") as info:
        relax_bulk(paper_spec(d=1.6))
    assert "bulk bases A of cell 0 and B of cell 0 coincide" in str(info.value)
    assert "relaxed-existence edges" in str(info.value)
    assert isinstance(info.value.__cause__, CoincidentAtomsError)


def test_non_converged_cutoff_raised_for_tiny_tolerance(monkeypatch):
    # doubling 8 cells moves the displacements by 6.0e-7, above 10 * 1e-8
    monkeypatch.setattr(equilibrium, "_CUTOFF_CELLS", 8)
    with pytest.raises(NonConvergedCutoffError, match="from 8 cells moved .* by 6.0"):
        relax_bulk(paper_spec())


def test_cutoff_check_passes_at_defaults():
    eq = relax_bulk(paper_spec())
    assert eq.residual_inf_norm < 1e-8


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_bulk_topology_gives_mirrored_displacements(topology):
    eq = relax_bulk(paper_spec(topology=topology))
    # both topologies describe the same lattice; z displacement magnitude matches
    assert abs(abs(eq.delta_a[2]) - 0.12911751576565967) < 1e-6


def test_bulk_validates_arguments():
    for q_points in (1, 0, -1):
        with pytest.raises(ValueError, match="q_points must be >= 2"):
            band_structure(paper_spec(), q_points=q_points)


_REUSE_SPECS = {
    f"{topology.value}-d{d}-phi{phi}": paper_spec(n_cells=8, d=d, topology=topology, phi=phi)
    for d, topology in ((2.0, Topology.TOPOLOGICAL), (2.5, Topology.TRIVIAL))
    for phi in (0.0, 0.3)
}


@pytest.mark.parametrize("case", _REUSE_SPECS)
def test_relaxed_pipelines_match_a_rebuilt_hessian_bit_for_bit(case):
    """finite_spectrum and local_phonon_model take the relaxation's own
    Hessian; rebuilding it at the relaxed positions gives the same bytes."""
    spec = _REUSE_SPECS[case]
    harmonic = hessian(relax_finite(spec), spec)
    lam, vec = np.linalg.eigh(harmonic / spec.mass)
    freqs = _freqs_from_lambda(lam, "rebuilt")
    report = detect_edge_modes(vec, freqs, band_structure(spec, relax=True).envelopes())
    fs = finite_spectrum(spec, relax=True)
    assert fs.frequencies.tobytes() == freqs.tobytes()
    assert fs.modes.tobytes() == vec.tobytes()
    for name in ("ipr", "end_decay", "nearest_band", "edge_flags"):
        assert getattr(fs.report, name).tobytes() == getattr(report, name).tobytes(), name
    omega = local_frequencies(harmonic, spec.mass)
    g, h = coupling_matrices(harmonic, omega, spec.mass)
    model = local_phonon_model(spec, relax=True)
    assert model.omega_local.tobytes() == omega.tobytes()
    assert model.g.tobytes() == g.tobytes()
    assert model.h.tobytes() == h.tobytes()


_ORACLE_SPECS = {**_REUSE_SPECS, "no-dipoles": paper_spec(n_cells=8, v_dd=0.0)}


@pytest.mark.parametrize("case", _ORACLE_SPECS)
def test_relaxed_hessian_and_energy_match_the_public_functions_bit_for_bit(case):
    """relax_finite evaluates through the private kernels, with one pair
    geometry per point and one Hessian buffer per call; the public functions
    give the same bytes at the relaxed positions.  v_dd = 0 takes the path
    without pairs, which zeroes the buffer."""
    spec = _ORACLE_SPECS[case]
    relaxed = relax_finite(spec)
    at = Configuration(relaxed.positions)
    assert relaxed.hessian.tobytes() == hessian(at, spec).tobytes()
    assert relaxed.energy_history[-1].hex() == total_energy(at, spec).hex()
    # the kernel writes every entry, whatever the buffer held
    n3 = 3 * spec.n_atoms
    garbage = np.full((n3, n3), np.nan)
    filled = potential._hessian(spec, potential._pairs(at.positions, spec), garbage)
    assert filled is garbage and filled.tobytes() == relaxed.hessian.tobytes()
    assert relax_finite(spec).hessian is not relaxed.hessian


def _counting(calls, function):
    def counted(*args):
        calls.append(args)
        return function(*args)
    return counted


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_relaxed_pipelines_build_one_hessian_per_newton_point(monkeypatch, topology):
    """Counts the Hessian kernel, which relax_finite calls and hessian() wraps."""
    spec = paper_spec(n_cells=8, topology=topology)
    expected = relax_finite(spec).n_iterations + 1
    calls = []
    kernel = potential._hessian
    for name, module in list(sys.modules.items()):
        if (name == "rydphon" or name.startswith("rydphon.")) \
                and getattr(module, "_hessian", None) is kernel:
            monkeypatch.setattr(module, "_hessian", _counting(calls, kernel))
    finite_spectrum(spec, relax=True)
    assert len(calls) == expected
    calls.clear()
    local_phonon_model(spec, relax=True)
    assert len(calls) == expected


def test_relax_finite_builds_one_pair_geometry_per_evaluated_point(monkeypatch):
    """Energy, gradient and Hessian of a point share its pair geometry, the
    pair indices are made once per relaxation, and every Hessian goes into
    one buffer.  Below the relaxed-existence edge (d = 1.6) the line search
    also rejects trial points, which build a geometry but no Hessian."""
    points, geometries, index_sets, hessians = [], [], [], []
    descent = equilibrium._newton_descent

    def counted_descent(x, evaluate, *args):
        return descent(x, _counting(points, evaluate), *args)

    monkeypatch.setattr(equilibrium, "_newton_descent", counted_descent)
    monkeypatch.setattr(potential, "_pair_geometry", _counting(geometries, potential._pair_geometry))
    monkeypatch.setattr(np, "triu_indices", _counting(index_sets, np.triu_indices))
    monkeypatch.setattr(equilibrium, "_hessian", _counting(hessians, equilibrium._hessian))
    relaxed = relax_finite(paper_spec(n_cells=8, topology=Topology.TOPOLOGICAL))
    assert len(geometries) == len(points) == relaxed.n_iterations + 1
    assert len(index_sets) == 1
    assert len(hessians) == relaxed.n_iterations + 1
    assert all(args[2] is relaxed.hessian for args in hessians)
    for counts in (points, geometries, index_sets, hessians):
        counts.clear()
    with pytest.raises(CoincidentAtomsError):
        relax_finite(paper_spec(d=1.6))
    assert len(geometries) == len(points) > len(hessians) + 1
    assert len(index_sets) == 1
    assert len({id(args[2]) for args in hessians}) == 1


def test_relax_finite_below_the_edge_names_the_missing_equilibrium():
    with pytest.raises(CoincidentAtomsError,
                       match="no symmetric equilibrium found at d=1.6: ") as info:
        relax_finite(paper_spec(d=1.6))
    assert "relaxed-existence edges" in str(info.value)
    cause = info.value.__cause__
    assert isinstance(cause, CoincidentAtomsError) and "coincide" in str(cause)


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh ran on a relaxed pipeline")


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_relaxed_pipelines_relax_once_and_skip_eigvalsh(monkeypatch, topology):
    spec = paper_spec(n_cells=8, topology=topology)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return relax_finite(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "rydphon" or name.startswith("rydphon.")) \
                and getattr(module, "relax_finite", None) is relax_finite:
            monkeypatch.setattr(module, "relax_finite", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
    finite_spectrum(spec, relax=True)
    assert len(calls) == 1
    local_phonon_model(spec, relax=True)
    assert len(calls) == 2


def _cholesky_must_not_run(*args, **kwargs):
    raise AssertionError("np.linalg.cholesky ran on a certified Hessian")


def _counting_cholesky(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(matrix):
        calls.append(matrix)
        return cholesky(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_dominant_hessian_steps_without_cholesky(monkeypatch, rng):
    n = 30
    off = rng.uniform(-1.0, 1.0, (n, n))
    hess = (off + off.T) / 2.0
    np.fill_diagonal(hess, np.abs(hess).sum(axis=1) + 0.1)
    grad = rng.normal(size=n)
    expected = np.linalg.solve(hess, -grad)
    monkeypatch.setattr(np.linalg, "cholesky", _cholesky_must_not_run)
    assert _newton_direction(hess, grad).tobytes() == expected.tobytes()


def test_definite_but_not_dominant_hessian_takes_the_cholesky_test(monkeypatch):
    hess = np.full((3, 3), 0.9)
    np.fill_diagonal(hess, 1.0)  # eigenvalues 2.8, 0.1, 0.1; rows not dominant
    grad = np.array([1.0, -2.0, 0.5])
    expected = np.linalg.solve(hess, -grad)
    calls = _counting_cholesky(monkeypatch)
    assert _newton_direction(hess, grad).tobytes() == expected.tobytes()
    assert len(calls) == 1


def test_indefinite_hessian_takes_the_shifted_step(monkeypatch):
    hess = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 2.0]])
    grad = np.array([0.3, -1.0, 0.7])
    # the shifted step as _newton_direction computed it before the certificate
    shift = 1.1 * abs(float(np.linalg.eigvalsh(hess).min())) + 1e-8
    expected = np.linalg.solve(hess + shift * np.eye(3), -grad)
    calls = _counting_cholesky(monkeypatch)
    assert _newton_direction(hess, grad).tobytes() == expected.tobytes()
    assert len(calls) == 1


_VERDICTS = {
    "dominant": (np.array([[2.0, -0.5, 0.5], [-0.5, 2.0, 1.0], [0.5, 1.0, 2.0]]), True),
    "off-diagonals-0.9": (np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.9], [0.9, 0.9, 1.0]]), False),
    # positive definite, but dominant by 1e-15, inside the rounding margin
    "margin-below-rounding": (np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]), False),
    # rows of the full matrix are dominant; the lower triangle Cholesky reads is not
    "upper-triangle-ignored": (np.array([[2.0, 0.0], [3.0, 4.0]]), False),
    "lower-triangle-read": (np.array([[2.0, 5.0], [1.0, 2.0]]), True),
    "negative-diagonal": (np.array([[-2.0, 0.5], [0.5, -2.0]]), False),
    "zero": (np.zeros((2, 2)), False),
    "nan": (np.array([[2.0, np.nan], [np.nan, 2.0]]), False),
    "inf-off-diagonal": (np.array([[2.0, np.inf], [np.inf, 2.0]]), False),
}


@pytest.mark.parametrize("case", _VERDICTS)
def test_certificate_verdicts(case):
    hess, certified = _VERDICTS[case]
    assert _certified_positive_definite(hess) is certified
    if certified:
        np.linalg.cholesky(hess)


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# trivial_d15 lies below the relaxed chain's existence edge (d = 1.884485)
_CERTIFIED_CHAINS = {
    **{f"{name}-20cells": load_chain_spec(_CONFIGS / f"{name}.json").with_(n_cells=20)
       for name in ("default", "topological_d2", "trivial_d25")},
    # the two chains of the finite_relaxed benchmark workload at its default seed
    "trivial-250cells-d2.5": ChainSpec(n_cells=250, d=2.5),
    "topological-250cells-d2": ChainSpec(n_cells=250, d=2.0, topology=Topology.TOPOLOGICAL),
}


@pytest.mark.parametrize("case", _CERTIFIED_CHAINS)
def test_every_newton_step_of_a_relaxable_chain_is_certified(monkeypatch, case):
    verdicts = []

    def spied(hess):
        verdicts.append(_certified_positive_definite(hess))
        return verdicts[-1]

    monkeypatch.setattr(equilibrium, "_certified_positive_definite", spied)
    monkeypatch.setattr(np.linalg, "cholesky", _cholesky_must_not_run)
    cfg = relax_finite(_CERTIFIED_CHAINS[case])
    assert cfg.n_iterations > 0
    assert verdicts == [True] * cfg.n_iterations


@pytest.mark.parametrize("start, step", [(1.8845, 8e-5), (2.067, 2e-4)], ids=["near-edge", "d2.07"])
def test_relaxation_converges_over_a_fine_d_scan(start, step):
    # Without the rounding slack in the Armijo test, 11 and 49 of these 250
    # spacings stalled just above _TOL and raised MaxIterExceededError.
    spec = load_chain_spec(_CONFIGS / "default.json")
    iterations = [relax_finite(spec.with_(d=d, a=2.0 * d)).n_iterations
                  for d in map(float, start + step * np.arange(250))]
    assert max(iterations) <= 10
