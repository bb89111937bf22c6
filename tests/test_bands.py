from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydphon import (
    ChainSpec,
    ConfigError,
    EdgeDetectionParams,
    ImaginaryFrequencyError,
    Topology,
    band_diagnostics,
    band_structure,
    detect_edge_modes,
    dynamical_matrix,
    finite_spectrum,
    hessian,
    load_chain_spec,
    q_grid,
    relax_bulk,
    relax_finite,
    track_bands,
)
from rydphon.bands import (
    DEFAULT_CUTOFF_CELLS,
    _best_permutations,
    _dynamical_matrices,
    _gauge_fix,
    _respan_degenerate,
    _suppress_touches,
)

from conftest import paper_spec


def test_q_grid_open_left_closed_right():
    spec = paper_spec()
    qs = q_grid(spec, 256)
    edge = np.pi / spec.a
    assert qs[-1] == pytest.approx(edge, abs=0)
    assert qs[0] > -edge
    assert np.allclose(np.diff(qs), qs[1] - qs[0])
    assert np.any(qs == 0.0)


def test_dynamical_matrix_flat_without_dipoles():
    spec = paper_spec(v_dd=0.0, nu=(1.0, 2.0, 3.0), mass=2.0)
    d0 = dynamical_matrix(0.0, spec)
    expected = np.diag(np.tile(spec.mass * spec.nu_array**2, 2)).astype(complex)
    assert np.allclose(d0, expected, atol=1e-15)


def test_dynamical_matrix_hermitian():
    spec = paper_spec()
    for q in q_grid(spec, 16):
        d = dynamical_matrix(q, spec)
        assert np.abs(d - d.conj().T).max() < 1e-12


def test_dynamical_matrix_conjugate_at_minus_q():
    spec = paper_spec(d=1.7)
    for q in (0.1, 0.4, np.pi / spec.a):
        assert np.allclose(dynamical_matrix(-q, spec), dynamical_matrix(q, spec).conj(),
                           atol=1e-14)


def test_dynamical_matrix_accepts_bulk_equilibrium():
    spec = paper_spec()
    eq = relax_bulk(spec)
    d_bare = dynamical_matrix(0.3, spec)
    d_rel = dynamical_matrix(0.3, spec, bulk_eq=eq)
    assert np.abs(d_bare - d_rel).max() > 1e-3


def test_hessian_positive_definite_at_relaxed_d2():
    spec = paper_spec()
    cfg = relax_finite(spec)
    assert np.linalg.eigvalsh(hessian(cfg, spec)).min() > 0.0


def test_flat_bands_without_dipoles():
    spec = paper_spec(v_dd=0.0)
    bands = band_structure(spec, q_points=32)
    assert np.abs(bands.omega - 1.0).max() == 0.0
    # fully degenerate: deterministic reference-basis eigenvectors
    assert np.abs(bands.xi - np.eye(6)[None]).max() == 0.0


def test_band_structure_is_deterministic():
    spec = paper_spec(d=1.9)
    b1 = band_structure(spec, q_points=64)
    b2 = band_structure(spec, q_points=64)
    assert np.array_equal(b1.omega, b2.omega)
    assert np.array_equal(b1.xi, b2.xi)


def test_eigenvector_orthonormality_and_gauge():
    spec = paper_spec()
    bands = band_structure(spec)
    def is_real_nonneg(c):
        return abs(c.imag) < 1e-12 and c.real > -1e-12

    for k in range(0, len(bands.q_grid), 7):
        gram = bands.xi[k].conj().T @ bands.xi[k]
        assert np.abs(gram - np.eye(6)).max() < 1e-10
        for j in range(6):
            vec = bands.xi[k, :, j]
            zmag = np.abs(vec[[2, 5]])
            if zmag.max() > 1e-12:
                # mirror symmetry often makes |xi_Az| = |xi_Bz| exactly, so
                # "the largest" may be either; the gauged one must be real >= 0
                candidates = [vec[c] for c, m in zip((2, 5), zmag)
                              if m >= zmag.max() - 1e-9]
            else:
                mags = np.abs(vec)
                candidates = [vec[c] for c in range(6) if mags[c] >= mags.max() - 1e-9]
            assert any(is_real_nonneg(c) for c in candidates)


def test_spectral_symmetry_in_q():
    spec = paper_spec()
    bands = band_structure(spec)
    qs = bands.q_grid
    for k in range(len(qs)):
        match = np.flatnonzero(np.isclose(qs, -qs[k], rtol=0.0, atol=1e-12))
        if match.size:
            assert np.abs(bands.omega[k] - bands.omega[match[0]]).max() < 1e-10


def test_sum_rule_against_trace():
    spec = paper_spec(d=2.2)
    bands = band_structure(spec, q_points=32)
    for k, q in enumerate(bands.q_grid):
        trace = np.trace(dynamical_matrix(q, spec)).real / spec.mass
        assert abs((bands.omega[k] ** 2).sum() - trace) < 1e-10 * abs(trace)


def test_imaginary_frequency_raised_for_squeezed_chain():
    with pytest.raises(ImaginaryFrequencyError):
        band_structure(paper_spec(d=1.3), q_points=64)


def test_band_structure_with_relaxed_geometry():
    spec = paper_spec()
    bare = band_structure(spec, q_points=64)
    relaxed = band_structure(spec, q_points=64, relax=True)
    assert relaxed.relaxed and not bare.relaxed
    assert np.abs(bare.omega - relaxed.omega).max() > 1e-3
    assert relaxed.omega.min() > 0.0


def test_crossings_d15():
    diag = band_diagnostics(band_structure(paper_spec(d=1.5)))
    assert (5, 6) in diag.crossing_pairs


def test_crossings_d25():
    diag = band_diagnostics(band_structure(paper_spec(d=2.5)))
    assert (5, 6) in diag.crossing_pairs
    assert (4, 6) in diag.crossing_pairs


def test_no_crossings_without_dipoles():
    diag = band_diagnostics(band_structure(paper_spec(v_dd=0.0), q_points=64))
    assert diag.crossings == ()
    assert np.abs(diag.bandwidth).max() == 0.0


def test_tracked_positions_are_permutations():
    bands = band_structure(paper_spec(d=2.5))
    pos = track_bands(bands)
    for k in range(0, len(bands.q_grid), 31):
        assert sorted(pos[k]) == list(range(6))


def test_band_one_flattens_then_widens():
    bw = {}
    for d in (1.5, 1.65, 1.85):
        bw[d] = band_diagnostics(band_structure(paper_spec(d=d))).bandwidth[0]
    assert bw[1.65] < bw[1.5]
    assert bw[1.85] > bw[1.65]


def test_concavity_flip_of_bands_one_and_six():
    signs = {1: [], 6: []}
    for d in (1.65, 1.85):
        diag = band_diagnostics(band_structure(paper_spec(d=d)))
        signs[1].append(diag.concavity[0])
        signs[6].append(diag.concavity[5])
    assert signs[1][0] != signs[1][1]
    assert signs[6][0] != signs[6][1]


@pytest.mark.parametrize("q_points", [2, 3, 5])
def test_concavity_fit_needs_three_points_in_window(q_points):
    # |q| <= pi/(2a) holds 1, 2 and 2 grid points; q_points = 4 is the smallest with 3
    bands = band_structure(paper_spec(), q_points=q_points)
    with pytest.raises(ConfigError, match="smallest q_points that gives 3 is 4"):
        band_diagnostics(bands)
    assert band_diagnostics(band_structure(paper_spec(), q_points=4)).concavity.shape == (6,)


def test_finite_spectrum_flat_without_dipoles():
    fs = finite_spectrum(paper_spec(v_dd=0.0), q_points=16)
    assert np.abs(fs.frequencies - 1.0).max() < 1e-12
    assert fs.n_edge_modes == 0


def test_finite_spectrum_modes_orthonormal():
    fs = finite_spectrum(paper_spec(topology=Topology.TOPOLOGICAL))
    gram = fs.modes.T @ fs.modes
    assert np.abs(gram - np.eye(len(fs.frequencies))).max() < 1e-10


def test_topological_chain_shows_three_edge_modes():
    fs = finite_spectrum(paper_spec(topology=Topology.TOPOLOGICAL))
    flagged = np.flatnonzero(fs.edge_flags)
    assert len(flagged) == 3
    nearest = sorted(fs.report.nearest_band[flagged].tolist())
    assert nearest == [2, 6, 6]
    # one mode in the interior gap above band 1, two detached above the top band
    assert sorted(fs.report.gap_index[flagged].tolist()) == [1, 6, 6]


def test_trivial_chain_shows_no_edge_modes():
    fs = finite_spectrum(paper_spec(topology=Topology.TRIVIAL))
    assert fs.n_edge_modes == 0


def test_edge_detection_robust_at_double_length():
    for topology, expected in ((Topology.TOPOLOGICAL, 3), (Topology.TRIVIAL, 0)):
        fs = finite_spectrum(paper_spec(topology=topology, n_cells=14))
        assert fs.n_edge_modes == expected


def test_detect_uniform_mode_not_flagged():
    n_atoms = 10
    mode = np.full((3 * n_atoms, 1), 1.0 / np.sqrt(3 * n_atoms))
    edges = np.array([[0.9, 1.1]] * 6)
    report = detect_edge_modes(mode, np.array([1.0]), edges)
    assert not report.edge_flags[0]
    assert abs(report.ipr[0] - 1.0 / n_atoms) < 1e-12


def test_detect_single_atom_mode_flagged():
    n_atoms = 10
    mode = np.zeros((3 * n_atoms, 1))
    mode[0, 0] = 1.0
    edges = np.array([[0.8, 0.9], [1.1, 1.2]] + [[1.3, 1.4]] * 4)
    report = detect_edge_modes(mode, np.array([1.0]), edges)  # in the interior gap
    assert report.edge_flags[0]
    assert abs(report.ipr[0] - 1.0) < 1e-12


def test_bulk_boundary_consistency_long_chain():
    spec = paper_spec(n_cells=64)
    fs = finite_spectrum(spec)
    envelopes = fs.band_edges
    bulk_like = fs.frequencies[~fs.edge_flags]
    for om in bulk_like:
        dist = min(
            0.0 if lo <= om <= hi else min(abs(om - lo), abs(om - hi))
            for lo, hi in envelopes
        )
        assert dist < 1e-2
    # every bulk frequency is approximated by some finite-chain mode
    bands = band_structure(spec, q_points=33)
    for k in range(len(bands.q_grid)):
        for j in range(6):
            assert np.abs(fs.frequencies - bands.omega[k, j]).min() < 1e-3


def test_edge_params_are_configurable():
    fs = finite_spectrum(
        paper_spec(topology=Topology.TOPOLOGICAL),
        params=EdgeDetectionParams(interior_margin=1e9, exterior_margin=1e9),
    )
    assert fs.n_edge_modes == 0


def _edge_report_by_loop(modes, frequencies, band_edges, params):
    """Per-mode loop reference for detect_edge_modes' classification."""
    decay = detect_edge_modes(modes, frequencies, band_edges, params).end_decay
    lo_all, hi_all = band_edges[:, 0].min(), band_edges[:, 1].max()
    n_modes = len(frequencies)
    flags = np.zeros(n_modes, dtype=bool)
    nearest = np.zeros(n_modes, dtype=int)
    gap_index = np.zeros(n_modes, dtype=int)
    for m, om in enumerate(frequencies):
        dist = np.array([0.0 if lo <= om <= hi else min(abs(om - lo), abs(om - hi))
                         for lo, hi in band_edges])
        nearest[m] = int(np.argmin(dist)) + 1
        gap_index[m] = int((band_edges[:, 1] < om).sum())
        out_by = dist.min()
        if out_by == 0.0:
            continue
        if lo_all < om < hi_all:
            flags[m] = out_by > params.interior_margin
        else:
            flags[m] = out_by > params.exterior_margin and decay[m] >= params.end_decay_threshold
    return flags, nearest, gap_index


@pytest.mark.parametrize("params", [
    EdgeDetectionParams(),
    EdgeDetectionParams(interior_margin=1e-3, exterior_margin=1e-5, end_decay_threshold=1.2),
    EdgeDetectionParams(interior_margin=0.0, exterior_margin=0.0, end_decay_threshold=3.0),
])
@pytest.mark.parametrize("n_cells,d,topology", [
    (7, 2.0, Topology.TOPOLOGICAL), (7, 1.6, Topology.TRIVIAL), (20, 2.0, Topology.TOPOLOGICAL),
])
def test_edge_detection_matches_per_mode_loop(params, n_cells, d, topology):
    spec = paper_spec(d=d, topology=topology, n_cells=n_cells)
    fs = finite_spectrum(spec, q_points=64)
    report = detect_edge_modes(fs.modes, fs.frequencies, fs.band_edges, params)
    flags, nearest, gap_index = _edge_report_by_loop(fs.modes, fs.frequencies,
                                                     fs.band_edges, params)
    assert np.array_equal(report.edge_flags, flags)
    assert np.array_equal(report.nearest_band, nearest)
    assert np.array_equal(report.gap_index, gap_index)


@pytest.mark.parametrize("d", [1.5, 1.7, 2.0, 2.5])
def test_crossing_events_match_pairwise_loop(d):
    bands = band_structure(paper_spec(d=d), q_points=128)
    pos = track_bands(bands)
    expected = []
    for k in range(1, len(bands.q_grid)):
        for a in range(6):
            for b in range(a + 1, 6):
                if (pos[k - 1, a] - pos[k - 1, b]) * (pos[k, a] - pos[k, b]) < 0:
                    expected.append((a + 1, b + 1, float(bands.q_grid[k])))
    assert band_diagnostics(bands).crossings == tuple(expected)


# ---------------------------------------------------------------------------
# per-q loop references for the batched kernels; results must match bit for bit

def _best_permutation_by_loop(overlaps):
    best, best_score = None, -np.inf
    for p in permutations(range(6)):
        score = overlaps[0, p[0]] + overlaps[1, p[1]] + overlaps[2, p[2]] \
            + overlaps[3, p[3]] + overlaps[4, p[4]] + overlaps[5, p[5]]
        if score > best_score:
            best_score, best = score, p
    return best


def _track_bands_by_loop(bands, min_run=3):
    n_q = len(bands.q_grid)
    pos = np.zeros((n_q, 6), dtype=int)
    pos[0] = np.arange(6)
    for k in range(1, n_q):
        overlaps = np.abs(bands.xi[k - 1].conj().T @ bands.xi[k])
        perm = _best_permutation_by_loop(overlaps)
        pos[k] = [perm[pos[k - 1, l]] for l in range(6)]
    pos = _suppress_touches(pos, min_run)
    k0 = int(np.argmin(np.abs(bands.q_grid)))
    return pos[:, np.argsort(pos[k0])]


def _suppress_touches_by_scan(pos, min_run):
    """Run-by-run scan of each pair's order sign, flipping as it goes."""
    pos = pos.copy()
    n_q = pos.shape[0]
    changed = True
    while changed:
        changed = False
        for a in range(6):
            for b in range(a + 1, 6):
                sign = np.sign(pos[:, a] - pos[:, b])
                k = 0
                while k < n_q:
                    k2 = k
                    while k2 + 1 < n_q and sign[k2 + 1] == sign[k]:
                        k2 += 1
                    if 0 < k and k2 < n_q - 1 and (k2 - k + 1) < min_run:
                        pos[k:k2 + 1, [a, b]] = pos[k:k2 + 1, [b, a]]
                        sign[k:k2 + 1] = -sign[k:k2 + 1]
                        changed = True
                    k = k2 + 1
    return pos


@st.composite
def position_walks(draw):
    """Slot of each band along a grid: each event swaps two bands' slots over a
    stretch of grid points, mostly a short one, else up to the end."""
    n_q = draw(st.integers(min_value=2, max_value=40))
    pos = np.tile(np.arange(6), (n_q, 1))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(st.integers(min_value=0, max_value=n_q - 1))
        length = draw(st.one_of(st.integers(min_value=1, max_value=5), st.just(n_q)))
        a, b = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2,
                             unique=True))
        rows = slice(start, start + length)
        pos[rows, [a, b]] = pos[rows, [b, a]]
    return pos


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pos=position_walks(), min_run=st.integers(min_value=1, max_value=6))
def test_suppress_touches_matches_run_scan_on_walks(pos, min_run):
    assert np.array_equal(_suppress_touches(pos, min_run), _suppress_touches_by_scan(pos, min_run))


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("q_points", [16, 64, 256])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_suppress_touches_matches_run_scan_on_configs(config, q_points):
    bands = band_structure(load_chain_spec(config), q_points=q_points)
    steps = _best_permutations(np.abs(bands.xi[:-1].conj().transpose(0, 2, 1) @ bands.xi[1:]))
    pos = np.empty((q_points, 6), dtype=int)   # track_bands' positions before suppression
    pos[0] = np.arange(6)
    for k, perm in enumerate(steps, start=1):
        pos[k] = perm[pos[k - 1]]
    for min_run in (2, 3, 5):
        assert np.array_equal(_suppress_touches(pos, min_run), _suppress_touches_by_scan(pos, min_run))


def _gauge_fix_column(vec):
    zmags = np.abs(vec[[2, 5]])
    if zmags.max() > 1e-12:
        idx = (2, 5)[int(np.argmax(zmags))]
    else:
        idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx]
    mag = abs(phase)
    if mag == 0.0:
        return vec
    return vec * (phase.conjugate() / mag)


def _resolve_by_loop(lam, vec):
    xi = np.empty_like(vec)
    for k in range(len(lam)):
        xi[k] = _respan_degenerate(lam[k], vec[k])
        for j in range(6):
            xi[k, :, j] = _gauge_fix_column(xi[k, :, j])
    return xi


@pytest.mark.parametrize("q_points", [32, 63])
@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
@pytest.mark.parametrize("d", [1.5, 1.7, 2.5])
def test_track_bands_matches_per_step_loop(d, topology, q_points):
    bands = band_structure(paper_spec(d=d, topology=topology), q_points=q_points)
    for min_run in (1, 3):
        assert np.array_equal(track_bands(bands, min_run), _track_bands_by_loop(bands, min_run))


def test_best_permutations_break_ties_in_itertools_order():
    rng = np.random.default_rng(7)
    # small integers make exact score ties common; all-equal rows tie everything
    stack = np.concatenate([rng.integers(0, 3, (40, 6, 6)).astype(float),
                            np.ones((1, 6, 6)), np.zeros((1, 6, 6))])
    stack[0, :2, :2] = 1.0  # swapping bands 1 and 2 scores the same
    expected = np.array([_best_permutation_by_loop(ov) for ov in stack])
    assert np.array_equal(_best_permutations(stack), expected)
    assert np.array_equal(_best_permutations(stack[-2:]), [range(6), range(6)])


@pytest.mark.parametrize("kwargs", [
    {"d": 2.0},
    {"d": 1.6, "topology": Topology.TOPOLOGICAL},
    {"d": 2.0, "v_dd": 0.0},
    {"d": 2.0, "v_dd": 0.0, "nu": (1.0, 1.0, 2.0)},
    {"d": 2.2, "theta": np.pi / 2, "phi": np.pi / 2},
])
@pytest.mark.parametrize("q_points", [32, 63])
def test_resolved_eigenvectors_match_per_column_loop(kwargs, q_points):
    spec = paper_spec(**kwargs)
    qs = q_grid(spec, q_points)
    dyn = _dynamical_matrices(qs, spec, np.zeros((2, 3)), DEFAULT_CUTOFF_CELLS)
    lam, vec = np.linalg.eigh(dyn)
    xi = band_structure(spec, q_points=q_points).xi
    assert xi.tobytes() == _resolve_by_loop(lam, vec).tobytes()


def test_resolved_eigenvector_cases_are_covered():
    # degenerate groups, and columns whose z components are all below 1e-12
    bands = band_structure(paper_spec(), q_points=32)
    assert (np.abs(bands.xi[:, [2, 5], :]).max(axis=1) <= 1e-12).any()
    flat = band_structure(paper_spec(v_dd=0.0, nu=(1.0, 1.0, 2.0)), q_points=32)
    assert (np.diff(flat.omega, axis=1) == 0.0).any()


def test_gauge_fix_matches_per_column_loop_on_synthetic_vectors():
    rng = np.random.default_rng(11)
    xi = rng.standard_normal((20, 6, 6)) + 1j * rng.standard_normal((20, 6, 6))
    xi[0, :, 0] = 0.0                    # zero column: left as it is
    xi[1, [2, 5], 1] = 1e-13             # z below threshold: largest component overall
    xi[2, 5, 2] = xi[2, 2, 2] * 1j       # |z_A| == |z_B|: the first one wins
    xi[3, :, 3] = -0.0
    expected = xi.copy()
    for k in range(len(xi)):
        for j in range(6):
            expected[k, :, j] = _gauge_fix_column(xi[k, :, j])
    assert _gauge_fix(xi).tobytes() == expected.tobytes()
