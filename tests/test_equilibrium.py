import importlib
import sys

import numpy as np
import pytest

from rydphon import (
    ChainSpec,
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
from rydphon.bands import _freqs_from_lambda
from rydphon.equilibrium import _solve_bulk

from conftest import paper_spec


def test_no_dipoles_relaxes_to_trap_centers():
    spec = paper_spec(v_dd=0.0)
    cfg = relax_finite(spec)
    assert cfg.n_iterations == 0
    assert np.array_equal(cfg.positions, trap_centers(spec).positions)
    assert cfg.relaxed and cfg.stable


def test_converged_residual_replay():
    spec = paper_spec()
    cfg = relax_finite(spec, tol=1e-10)
    assert np.abs(gradient(cfg, spec)).max() < 1e-10
    assert cfg.residual_inf_norm < 1e-10


def test_energy_decreases_monotonically():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert all(np.diff(cfg.energy_history) <= 0.0)


def test_relaxed_energy_below_trap_center_energy():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert total_energy(cfg, spec).total <= total_energy(trap_centers(spec), spec).total


@pytest.mark.parametrize("solver", ["finite", "bulk"])
def test_max_iter_exceeded_payload(solver):
    spec = paper_spec()
    relax = relax_finite if solver == "finite" else relax_bulk
    with pytest.raises(MaxIterExceededError, match=f"^{solver} relaxation") as info:
        relax(spec, max_iter=0)
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
    cfg = relax_finite(spec, tol=1e-10)
    disp = cfg.positions - trap_centers(spec).positions
    deltas, _, _ = _solve_bulk(spec, 1e-12, 64, 200)
    middle_atom = spec.n_atoms // 2  # cell 16, base A
    assert np.abs(disp[middle_atom] - deltas[0]).max() < 1e-6


def test_cutoff_convergence_is_fifth_power():
    # truncation error of the bulk solve decays like cutoff^-4 (pair second
    # derivatives fall off as 1/r^5); each doubling must gain well over 4x
    spec = paper_spec()
    deltas = {}
    for cutoff in (8, 16, 32):
        deltas[cutoff], _, _ = _solve_bulk(spec, 1e-12, cutoff, 200)
    drift_8_16 = np.abs(deltas[16] - deltas[8]).max()
    drift_16_32 = np.abs(deltas[32] - deltas[16]).max()
    assert drift_8_16 < 1e-6
    assert drift_16_32 < drift_8_16 / 4.0


def test_non_converged_cutoff_raised_for_tiny_tolerance():
    with pytest.raises(NonConvergedCutoffError):
        relax_bulk(paper_spec(), tol=1e-12, cutoff_cells=8)


def test_cutoff_check_passes_at_defaults():
    eq = relax_bulk(paper_spec())
    assert eq.cutoff_cells == 32
    assert eq.residual_inf_norm < 1e-8


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_bulk_topology_gives_mirrored_displacements(topology):
    eq = relax_bulk(paper_spec(topology=topology))
    # both topologies describe the same lattice; z displacement magnitude matches
    assert abs(abs(eq.delta_a[2]) - 0.12911751576565967) < 1e-6


def test_bulk_validates_arguments():
    with pytest.raises(ValueError):
        relax_bulk(paper_spec(), tol=-1.0)
    for cutoff_cells in (0, -1):
        with pytest.raises(ValueError):
            relax_bulk(paper_spec(), cutoff_cells=cutoff_cells)
        with pytest.raises(ValueError):
            band_structure(paper_spec(), cutoff_cells=cutoff_cells)


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


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_relaxed_pipelines_build_one_hessian_per_newton_point(monkeypatch, topology):
    spec = paper_spec(n_cells=8, topology=topology)
    expected = relax_finite(spec).n_iterations + 1
    calls = []

    def counted(config, spec):
        calls.append(config)
        return hessian(config, spec)

    for name in ("equilibrium", "bands", "local_phonons"):
        monkeypatch.setattr(importlib.import_module(f"rydphon.{name}"), "hessian", counted)
    finite_spectrum(spec, relax=True)
    assert len(calls) == expected
    calls.clear()
    local_phonon_model(spec, relax=True)
    assert len(calls) == expected


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
