from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydphon import (
    ChainSpec,
    CoincidentAtomsError,
    ImaginaryFrequencyError,
    Topology,
    band_diagnostics,
    band_structure,
    detect_edge_modes,
    finite_spectrum,
    hessian,
    load_chain_spec,
    q_grid,
    relax_bulk,
    relax_finite,
    track_bands,
)
from rydphon import bands as bands_module
from rydphon.bands import (
    _best_permutations,
    _dynamical_matrices,
    _gauge_fix,
    _real_space_blocks,
    _respan_degenerate,
    _step_permutations,
    _suppress_touches,
)
from rydphon.equilibrium import _CUTOFF_CELLS
from rydphon.geometry import base_offsets
from rydphon.potential import _pair_hessians

from conftest import BULK_KERNEL_CASES, bulk_kernel_inputs, paper_spec


def test_q_grid_open_left_closed_right():
    spec = paper_spec()
    qs = q_grid(spec, 256)
    edge = np.pi / spec.a
    assert qs[-1] == pytest.approx(edge, abs=0)
    assert qs[0] > -edge
    assert np.allclose(np.diff(qs), qs[1] - qs[0])
    assert np.any(qs == 0.0)


def _bloch(qs, spec, deltas=np.zeros((2, 3))):
    """Bloch matrices at the quasimomenta qs; at the trap centers unless deltas are given."""
    return _dynamical_matrices(qs, spec, deltas)


def test_dynamical_matrix_flat_without_dipoles():
    spec = paper_spec(v_dd=0.0, nu=(1.0, 2.0, 3.0), mass=2.0)
    d0 = _bloch([0.0], spec)[0]
    expected = np.diag(np.tile(spec.mass * spec.nu_array**2, 2)).astype(complex)
    assert np.allclose(d0, expected, atol=1e-15)


def test_dynamical_matrix_hermitian():
    """Off the diagonal, exactly: the upper triangle is the lower one's conjugate."""
    spec = paper_spec()
    off = ~np.eye(6, dtype=bool)
    for d in _bloch(q_grid(spec, 16), spec):
        assert np.array_equal(d[off], d.conj().T[off])


def test_dynamical_matrix_conjugate_at_minus_q():
    spec = paper_spec(d=1.7)
    qs = np.array([0.1, 0.4, np.pi / spec.a])
    assert np.allclose(_bloch(-qs, spec), _bloch(qs, spec).conj(), atol=1e-14)


def test_dynamical_matrix_accepts_bulk_equilibrium():
    spec = paper_spec()
    eq = relax_bulk(spec)
    d_bare = _bloch([0.3], spec)[0]
    d_rel = _bloch([0.3], spec, eq.deltas)[0]
    assert np.abs(d_bare - d_rel).max() > 1e-3


def _real_space_blocks_by_base_pair(spec, deltas):
    """The _real_space_blocks that looped over base pairs (alpha, beta), each
    over every cell with a boolean mask, before the shared partner list (its
    coincidence check left out)."""
    offs = base_offsets(spec) + deltas
    cells = np.arange(-_CUTOFF_CELLS, _CUTOFF_CELLS + 1)
    zero_idx = _CUTOFF_CELLS
    blocks = np.zeros((len(cells), 6, 6))
    m_hat = spec.m_hat
    for a in range(2):
        blocks[zero_idx, 3 * a:3 * a + 3, 3 * a:3 * a + 3] += np.diag(
            spec.mass * spec.nu_array**2
        )
        for b in range(2):
            rel = cells[:, None] * spec.a * np.array([0.0, 0.0, 1.0])[None, :] \
                + (offs[b] - offs[a])[None, :]
            keep = ~((cells == 0) & (a == b))
            rvec = rel[keep]
            rnorm = np.linalg.norm(rvec, axis=1)
            s = rvec @ m_hat
            hp = _pair_hessians(rvec, rnorm, s, m_hat, spec.v_dd)
            blocks[keep, 3 * a:3 * a + 3, 3 * b:3 * b + 3] -= hp
            blocks[zero_idx, 3 * a:3 * a + 3, 3 * a:3 * a + 3] += hp.sum(axis=0)
    return cells, blocks


@pytest.mark.parametrize("case", BULK_KERNEL_CASES)
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_real_space_blocks_match_the_base_pair_loop_bit_for_bit(topology, phi, case):
    """Compared as bytes, so a -0.0 where the loop has +0.0 fails too."""
    for spec, where, deltas in bulk_kernel_inputs(case, topology, phi):
        cells, blocks = _real_space_blocks(spec, deltas)
        old_cells, old_blocks = _real_space_blocks_by_base_pair(spec, deltas)
        assert cells.tobytes() == old_cells.tobytes()
        assert blocks.tobytes() == old_blocks.tobytes(), (spec.v_dd, where)


def _dynamical_matrices_by_einsum(qs, spec, deltas):
    """The _dynamical_matrices that summed all 36 entries with one complex
    einsum over exp(1j * q n a) (its finiteness check left out)."""
    cells, blocks = _real_space_blocks(spec, deltas)
    phases = np.exp(1j * np.asarray(qs)[:, None] * cells[None, :] * spec.a)
    return np.einsum("qn,nij->qij", phases, blocks)


_KERNEL_CASES = {"magic": {}, "theta0": {"theta": 0.0}, "theta-pi/2": {"theta": np.pi / 2},
                 "vdd0": {"v_dd": 0.0}, "anisotropic-nu": {"nu": (1.0, 1.3, 0.7)}}


@pytest.mark.parametrize("case", _KERNEL_CASES)
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
def test_dynamical_matrices_match_the_einsum_bit_for_bit(topology, phi, case):
    """The lower triangle, and eigh's and eigvalsh's outputs, compared as
    bytes with the einsum form on q grids of 8, 17, 255, 256 and 4096
    points and a list of floats, at the trap centers and the relaxed bulk."""
    spec = paper_spec(d=2.5, topology=topology, phi=phi, **_KERNEL_CASES[case])
    edge = np.pi / spec.a
    grids = [*(q_grid(spec, n) for n in (8, 17, 255, 256, 4096)), [0.0, -0.3, 1.1, edge, -edge]]
    rows, cols = np.tril_indices(6)
    for deltas in (np.zeros((2, 3)), relax_bulk(spec).deltas):
        new = np.concatenate([_dynamical_matrices(qs, spec, deltas) for qs in grids])
        old = np.concatenate([_dynamical_matrices_by_einsum(qs, spec, deltas) for qs in grids])
        assert new[:, rows, cols].tobytes() == old[:, rows, cols].tobytes()
        for got, want in zip(np.linalg.eigh(new), np.linalg.eigh(old)):
            assert got.tobytes() == want.tobytes()
        assert np.linalg.eigvalsh(new).tobytes() == np.linalg.eigvalsh(old).tobytes()


def test_coincident_bulk_bases_are_named():
    """With a = d and no transverse offset, base B of cell -1 sits on base A
    of cell 0; the first coincident partner in the list is named."""
    spec = paper_spec(a=2.0, delta=0.0)
    with pytest.raises(CoincidentAtomsError,
                       match=r"^base A of cell 0 and base B of cell -1 coincide \(separation"):
        band_structure(spec, q_points=8)


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
        trace = np.trace(_bloch([q], spec)[0]).real / spec.mass
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
def test_concavity_needs_no_grid_points_in_window(q_points):
    # |q| <= pi/(2a) holds 1, 2 and 2 grid points: too few for a fit over the grid
    diag = band_diagnostics(band_structure(paper_spec(), q_points=q_points))
    assert diag.concavity.tolist() == [-1, -1, -1, 1, 1, 1]


@pytest.mark.parametrize("d", [1.48, 1.64, 1.66, 2.0])
def test_concavity_does_not_depend_on_the_q_grid(d):
    # at 1.48 the old fit over the grid had too few window points at q_points = 4,
    # and at 1.64 and 1.66 it disagreed with its continuum limit at 6 or 8 points
    signs = {n: band_diagnostics(band_structure(paper_spec(d=d), q_points=n)).concavity.tolist()
             for n in (2, 3, 4, 5, 6, 8, 64, 256, 1024)}
    assert len({tuple(v) for v in signs.values()}) == 1, signs


def _concavity_root(band, topology, lo=1.6, hi=1.7):
    """The spacing where band's concavity changes sign, bisected to 1e-6."""
    def sign(d):
        return band_diagnostics(band_structure(paper_spec(d=d, topology=topology),
                                               q_points=2)).concavity[band - 1]
    below = sign(lo)
    assert sign(hi) == -below
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sign(mid) == below else (lo, mid)
    return lo


@pytest.mark.parametrize("topology", list(Topology))
def test_band_one_concavity_root(topology):
    assert 1.66 < _concavity_root(1, topology) < 1.67


@pytest.mark.parametrize("topology", list(Topology))
def test_band_six_concavity_root(topology):
    assert 1.65 < _concavity_root(6, topology) < 1.66


@pytest.mark.parametrize("nu", [(1.0, 1.0, 1.0), (1.0, 1.3, 0.8)])
def test_bands_without_dipoles_are_flat(nu):
    diag = band_diagnostics(band_structure(paper_spec(v_dd=0.0, nu=nu), q_points=16))
    assert diag.concavity.tolist() == [0] * 6


def test_relaxed_concavity_is_that_of_a_fresh_relaxed_bulk(monkeypatch):
    # at this spec relaxing the bulk turns band 1 from convex to concave
    spec = paper_spec(d=2.3, delta=1.4)
    bands = band_structure(spec, q_points=8, relax=True)
    edge = 0.5 * np.pi / spec.a
    x, w = np.polynomial.legendre.leggauss(64)
    dyn = _dynamical_matrices(edge * x, spec, relax_bulk(spec).deltas)
    moment = (w * (1.5 * x**2 - 0.5)) @ np.sqrt(np.linalg.eigvalsh(dyn) / spec.mass)
    calls = []
    monkeypatch.setattr(bands_module, "relax_bulk",
                        lambda *args, **kwargs: calls.append(1) or relax_bulk(*args, **kwargs))
    relaxed = band_diagnostics(bands).concavity
    assert len(calls) == 1
    assert relaxed.tolist() == np.sign(moment).tolist()
    assert relaxed[0] == -1
    assert band_diagnostics(band_structure(spec, q_points=8)).concavity[0] == 1
    assert len(calls) == 1


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


def _edge_report_by_loop(modes, frequencies, band_edges, params):
    """Per-mode loop reference for detect_edge_modes' classification."""
    decay = detect_edge_modes(modes, frequencies, band_edges).end_decay
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
            flags[m] = out_by > params["_INTERIOR_MARGIN"]
        else:
            flags[m] = (out_by > params["_EXTERIOR_MARGIN"]
                        and decay[m] >= params["_END_DECAY_THRESHOLD"])
    return flags, nearest, gap_index


# the fixed thresholds, then two sets that reach classifier branches they do not
@pytest.mark.parametrize("params", [
    {"_INTERIOR_MARGIN": 1e-4, "_EXTERIOR_MARGIN": 1e-4, "_END_DECAY_THRESHOLD": 1.8},
    {"_INTERIOR_MARGIN": 1e-3, "_EXTERIOR_MARGIN": 1e-5, "_END_DECAY_THRESHOLD": 1.2},
    {"_INTERIOR_MARGIN": 0.0, "_EXTERIOR_MARGIN": 0.0, "_END_DECAY_THRESHOLD": 3.0},
])
@pytest.mark.parametrize("n_cells,d,topology", [
    (7, 2.0, Topology.TOPOLOGICAL), (7, 1.6, Topology.TRIVIAL), (20, 2.0, Topology.TOPOLOGICAL),
])
def test_edge_detection_matches_per_mode_loop(params, n_cells, d, topology, monkeypatch):
    spec = paper_spec(d=d, topology=topology, n_cells=n_cells)
    fs = finite_spectrum(spec, q_points=64)
    for name, value in params.items():
        monkeypatch.setattr(bands_module, name, value)
    report = detect_edge_modes(fs.modes, fs.frequencies, fs.band_edges)
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
def test_track_bands_matches_per_step_loop(d, topology, q_points, monkeypatch):
    bands = band_structure(paper_spec(d=d, topology=topology), q_points=q_points)
    for min_run in (1, 3):
        monkeypatch.setattr(bands_module, "_MIN_RUN", min_run)
        assert np.array_equal(track_bands(bands), _track_bands_by_loop(bands, min_run))


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
    dyn = _dynamical_matrices(qs, spec, np.zeros((2, 3)))
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


# ---------------------------------------------------------------------------
# certified tracking steps: the row maxima where they prove the search's answer

def _overlaps(bands):
    return np.abs(bands.xi[:-1].conj().transpose(0, 2, 1) @ bands.xi[1:])


def _searched_steps(monkeypatch):
    """Patch _best_permutations to record how many steps each call searches."""
    searched = []

    def counting(overlaps):
        searched.append(len(overlaps))
        return _best_permutations(overlaps)

    monkeypatch.setattr(bands_module, "_best_permutations", counting)
    return searched


TRACKING_CASES = {
    "d1.46": ({"d": 1.46}, False), "d1.5": ({"d": 1.5}, False), "d1.7": ({"d": 1.7}, False),
    "d2.5": ({"d": 2.5}, False), "vdd0": ({"v_dd": 0.0}, False), "phi0.3": ({"phi": 0.3}, False),
    "relaxed": ({"d": 2.5}, True),
}


@pytest.mark.parametrize("q_points", [32, 63, 256])
@pytest.mark.parametrize("topology", [Topology.TRIVIAL, Topology.TOPOLOGICAL])
@pytest.mark.parametrize("case", TRACKING_CASES)
def test_certified_tracking_equals_the_full_search(case, topology, q_points, monkeypatch):
    changes, relax = TRACKING_CASES[case]
    bands = band_structure(paper_spec(topology=topology, **changes), q_points=q_points,
                           relax=relax)
    overlaps = _overlaps(bands)
    assert np.array_equal(_step_permutations(overlaps), _best_permutations(overlaps))
    tracked = track_bands(bands)
    monkeypatch.setattr(bands_module, "_CERTIFY_MARGIN", np.inf)  # certify no step
    assert np.array_equal(tracked, track_bands(bands))


def _stack_with_margins(rng, margins, n_steps=40):
    """Overlap stack in [0, 0.6]: at each step the row maxima sit on a random
    permutation, each above its row's runner-up by a margin drawn from margins."""
    stack = rng.uniform(0.0, 0.5, (n_steps, 6, 6))
    for step in stack:
        perm = rng.permutation(6)
        for r, c in enumerate(perm):
            others = np.delete(step[r], c)
            step[r, c] = others.max() + rng.choice(margins)
    return stack


def _ulp_step():
    """Rows 0 and 1 prefer each other's slot by one ulp; the sum rounds that
    away, so the search returns the identity, first in itertools order."""
    step = np.full((6, 6), 0.01)
    np.fill_diagonal(step, 0.9)
    up = np.nextafter(0.3, 1.0)
    step[0, :2] = [0.3, up]
    step[1, :2] = [up, 0.3]
    return step


@pytest.mark.parametrize("kind", ["above", "below", "mixed", "collide", "tie", "ulp"])
def test_certified_steps_equal_the_search_near_the_margin(kind, monkeypatch):
    rng = np.random.default_rng(31)
    just_above, just_below = 1.01e-12, 0.99e-12  # around the certification margin
    if kind == "above":
        stack = _stack_with_margins(rng, [just_above])
    elif kind == "below":
        stack = _stack_with_margins(rng, [just_below])
    elif kind == "mixed":
        stack = _stack_with_margins(rng, [just_above, just_above, just_below, 0.1])
    elif kind == "collide":  # two rows have their maximum in the same slot
        stack = _stack_with_margins(rng, [just_above, 0.1])
        stack[::2, 1] = stack[::2, 0]
    elif kind == "tie":  # a row's maximum is attained twice
        stack = _stack_with_margins(rng, [just_above, 0.1])
        top = stack[::3, 2].argmax(axis=1)
        stack[::3, 2, (top + 1) % 6] = stack[::3, 2].max(axis=1)
    else:
        stack = np.concatenate([_stack_with_margins(rng, [0.1], 5), _ulp_step()[None]])
        assert not np.array_equal(_best_permutations(stack)[-1], stack[-1].argmax(axis=1))
    expected = np.array([_best_permutation_by_loop(step) for step in stack])
    searched = _searched_steps(monkeypatch)
    assert np.array_equal(_step_permutations(stack), expected)
    if kind == "above":
        assert searched == []
    else:
        assert sum(searched) > 0
