import numpy as np
import pytest

from rydphon import (
    ChainSpec,
    DynamicalInstabilityError,
    NonPositiveDiagonalError,
    Topology,
    aggregate_J,
    bogoliubov_frequencies,
    coupling_matrices,
    hessian,
    local_frequencies,
    local_phonon_model,
    relax_finite,
    trap_centers,
)
from rydphon import local_phonons

from conftest import paper_spec


def test_local_frequencies_trap_only():
    spec = paper_spec(v_dd=0.0, nu=(1.0, 2.0, 0.5))
    omega = local_frequencies(hessian(trap_centers(spec), spec), spec.mass)
    assert np.allclose(omega, np.tile(spec.nu_array, (spec.n_atoms, 1)), atol=1e-15)


def test_local_frequencies_reject_nonpositive_diagonal():
    with pytest.raises(NonPositiveDiagonalError):
        local_frequencies(-np.eye(6), 1.0)


def test_interior_sites_share_frequencies_edges_differ():
    spec = paper_spec(n_cells=16)
    model = local_phonon_model(spec)
    interior = model.omega_local[10:22]
    assert np.abs(interior - interior[0]).max() < 1e-4
    assert np.abs(model.omega_local[0] - interior[0]).max() > 1e-3


def test_local_frequency_squared_linear_in_dipole_strength():
    spec = paper_spec(n_cells=4)
    cfg = trap_centers(spec)
    nu2 = np.tile(spec.nu_array**2, (spec.n_atoms, 1))
    om1 = local_frequencies(hessian(cfg, spec), spec.mass) ** 2 - nu2
    om2 = local_frequencies(hessian(cfg, spec.with_(v_dd=2.0 * spec.v_dd)), spec.mass) ** 2 - nu2
    assert np.allclose(om2, 2.0 * om1, rtol=1e-12, atol=1e-15)


def test_couplings_vanish_without_dipoles():
    spec = paper_spec(v_dd=0.0)
    model = local_phonon_model(spec)
    assert np.abs(model.g).max() == 0.0
    diag = np.einsum("nini->ni", model.h)
    assert np.allclose(diag, 1.0, atol=1e-15)


def test_self_coupling_is_zero():
    model = local_phonon_model(paper_spec())
    assert np.abs(np.einsum("nini->ni", model.g)).max() == 0.0


def test_h_diagonal_is_local_frequency():
    model = local_phonon_model(paper_spec())
    assert np.array_equal(np.einsum("nini->ni", model.h), model.omega_local)


def test_g_symmetry_exact():
    model = local_phonon_model(paper_spec())
    swapped = np.transpose(model.g, (2, 3, 0, 1))
    assert np.abs(model.g - swapped).max() == 0.0


def test_edge_bond_strong_in_trivial_weak_in_topological():
    couplings = {}
    for topology in (Topology.TRIVIAL, Topology.TOPOLOGICAL):
        model = local_phonon_model(paper_spec(topology=topology))
        couplings[topology] = np.abs(model.g[0, :, 1, :]).sum()
    assert couplings[Topology.TRIVIAL] > 1.3 * couplings[Topology.TOPOLOGICAL]


def test_max_coupling_grows_as_chain_shrinks():
    values = []
    for d in (2.5, 2.2, 2.0, 1.8):
        values.append(np.abs(local_phonon_model(paper_spec(d=d)).g).max())
    assert all(np.diff(values) > 0.0)


def test_aggregate_j_zero_without_dipoles():
    model = local_phonon_model(paper_spec(v_dd=0.0))
    assert all(v == 0.0 for v in model.J.values())


def test_aggregate_j_odd_separation_classes_differ():
    model = local_phonon_model(paper_spec(n_cells=8))
    assert abs(model.J[(1, 0)] - model.J[(1, 1)]) > 1e-3
    # even separations couple the same leg; both classes agree by symmetry
    assert abs(model.J[(2, 0)] - model.J[(2, 1)]) < 1e-12


def test_aggregate_j_excludes_outer_cells(monkeypatch):
    model = local_phonon_model(paper_spec(n_cells=8))
    monkeypatch.setattr(local_phonons, "_EXCLUDE_OUTER_CELLS", 0)
    assert aggregate_J(model.g)[(1, 0)] != model.J[(1, 0)]


def test_j_decays_at_least_cubically():
    model = local_phonon_model(paper_spec(n_cells=32))
    assert abs(model.J[(8, 0)]) <= abs(model.J[(4, 0)]) / 8.0


def test_bogoliubov_diagonal_limit():
    h = np.diag([1.5, 0.5, 2.5])
    g = np.zeros((3, 3))
    assert np.allclose(bogoliubov_frequencies(h, g), [0.5, 1.5, 2.5], atol=1e-12)


@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
@pytest.mark.parametrize("n_cells", [4, 8])
def test_bogoliubov_matches_normal_modes(topology, n_cells):
    spec = paper_spec(n_cells=n_cells, topology=topology)
    model = local_phonon_model(spec)
    bogo = bogoliubov_frequencies(model.h, model.g)
    reference = np.sqrt(np.linalg.eigvalsh(hessian(trap_centers(spec), spec) / spec.mass))
    assert np.abs(bogo - reference).max() < 1e-8


def test_bogoliubov_scales_linearly_with_frequency_rescale():
    spec = paper_spec(n_cells=3)
    cfg = trap_centers(spec)
    harmonic = hessian(cfg, spec)
    scale = 2.0
    om1 = local_frequencies(harmonic, spec.mass)
    g1, h1 = coupling_matrices(harmonic, om1, spec.mass)
    om2 = local_frequencies(scale**2 * harmonic, spec.mass)
    g2, h2 = coupling_matrices(scale**2 * harmonic, om2, spec.mass)
    w1 = bogoliubov_frequencies(h1, g1)
    w2 = bogoliubov_frequencies(h2, g2)
    assert np.allclose(w2, scale * w1, rtol=1e-12)


def test_bogoliubov_rejects_unstable_form():
    h = np.diag([1.0, 1.0])
    g = np.array([[0.0, 2.0], [2.0, 0.0]])  # |g| > h: not positive definite
    with pytest.raises(DynamicalInstabilityError):
        bogoliubov_frequencies(h, g)


@pytest.mark.parametrize("exclude", [0, 1, 2])
def test_aggregate_j_matches_pairwise_loop(exclude, monkeypatch):
    g = local_phonon_model(paper_spec(n_cells=9, topology=Topology.TOPOLOGICAL)).g
    monkeypatch.setattr(local_phonons, "_EXCLUDE_OUTER_CELLS", exclude)
    sums = g.sum(axis=(1, 3))
    n_atoms = g.shape[0]
    lo, hi = exclude, n_atoms // 2 - exclude
    expected = {}
    for s in range(1, n_atoms):
        for cls in (0, 1):
            vals = [sums[n, n + s] for n in range(cls, n_atoms - s, 2)
                    if lo <= n // 2 < hi and lo <= (n + s) // 2 < hi]
            if vals:
                expected[(s, cls)] = float(np.mean(vals))
    assert aggregate_J(g) == expected


def _whole_table_g_h(harmonic, omega_local, mass):
    """g and h as coupling_matrices computed them over the whole table at once."""
    n_atoms = omega_local.shape[0]
    blocks = harmonic.reshape(n_atoms, 3, n_atoms, 3)
    denom = 2.0 * mass * np.sqrt(omega_local[:, :, None, None] * omega_local[None, None, :, :])
    g = blocks / denom
    n, i = np.indices((n_atoms, 3))
    g[n, i, n, i] = 0.0
    h = g.copy()
    h[n, i, n, i] = omega_local
    return g, h


# (n_cells, entries per slab, slabs): the default slab size holds a 7-cell chain
# in one slab and a 50-cell one in two (72 + 28 atoms); 504 entries are 4 atoms
# of a 7-cell chain, so 4 + 4 + 4 + 2
@pytest.mark.parametrize("n_cells, slab_entries, slabs", [
    (7, local_phonons._SLAB_ENTRIES, 1), (7, 504, 4), (50, local_phonons._SLAB_ENTRIES, 2),
])
@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("topology", list(Topology))
def test_coupling_matrices_in_slabs_keep_the_whole_table_bytes(monkeypatch, n_cells,
                                                               slab_entries, slabs, relax,
                                                               topology):
    spec = paper_spec(n_cells=n_cells, topology=topology)
    harmonic = relax_finite(spec).hessian if relax else hessian(trap_centers(spec), spec)
    omega = local_frequencies(harmonic, spec.mass)
    monkeypatch.setattr(local_phonons, "_SLAB_ENTRIES", slab_entries)
    divides = []
    divide = np.divide
    monkeypatch.setattr(np, "divide", lambda *a, **k: divides.append(1) or divide(*a, **k))
    g, h = coupling_matrices(harmonic, omega, spec.mass)
    monkeypatch.undo()
    assert len(divides) == slabs
    g_ref, h_ref = _whole_table_g_h(harmonic, omega, spec.mass)
    assert g.tobytes() == g_ref.tobytes()
    assert h.tobytes() == h_ref.tobytes()
