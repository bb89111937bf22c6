"""Phonon bands of the chain: Bloch dynamical matrices, finite spectra,
band tracking, edge-mode detection and band-shape diagnostics.

Bulk quantities are evaluated at the trap centers by default; pass
relax=True to use the relaxed geometry instead (only available where the
relaxed chain exists, roughly d > 1.9 at the default dipole strength).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .equilibrium import DEFAULT_CUTOFF_CELLS, BulkEquilibrium, relax_bulk, relax_finite
from .errors import CoincidentAtomsError, ConfigError, ImaginaryFrequencyError
from .geometry import ChainSpec, base_offsets, trap_centers
from .potential import MIN_SEPARATION, _pair_hessians, _require_finite, hessian

DEFAULT_Q_POINTS = 256
DEGENERACY_TOL = 1e-10
NEGATIVE_CLAMP = 1e-12
_CONCAVITY_WINDOW = 0.5  # band_diagnostics fits |q| <= _CONCAVITY_WINDOW * pi/a

_Z_COMPONENTS = (2, 5)  # (A, z) and (B, z) slots in the 6-component basis


def q_grid(spec: ChainSpec, q_points: int = DEFAULT_Q_POINTS) -> np.ndarray:
    """Uniform grid over (-pi/a, pi/a], endpoint included, -pi/a excluded."""
    if q_points < 2:
        raise ValueError("q_points must be >= 2")
    edge = np.pi / spec.a
    return np.linspace(-edge, edge, q_points + 1)[1:]


def _real_space_blocks(spec: ChainSpec, deltas: np.ndarray, cutoff_cells: int):
    """Second-derivative blocks between cell 0 and cells n in [-C, C].

    Returns (cells, blocks) with blocks[n_idx] the 6x6 real matrix
    d2V/du_{0,alpha,i} du_{n,beta,j}; the n=0 diagonal gets the trap term
    plus the self sum over every truncated partner.
    """
    offs = base_offsets(spec) + deltas
    cells = np.arange(-cutoff_cells, cutoff_cells + 1)
    n_cells = len(cells)
    zero_idx = cutoff_cells
    blocks = np.zeros((n_cells, 6, 6))
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
            if float(rnorm.min()) < MIN_SEPARATION:
                k = int(np.argmin(rnorm))
                raise CoincidentAtomsError(
                    f"base {'AB'[a]} of cell 0 and base {'AB'[b]} of cell {cells[keep][k]} "
                    f"coincide (separation {rnorm[k]:.3e})"
                )
            s = rvec @ m_hat
            hp = _pair_hessians(rvec, rnorm, s, m_hat, spec.v_dd)
            # cross blocks are -H(r); every partner adds +H to the self block
            blocks[keep, 3 * a:3 * a + 3, 3 * b:3 * b + 3] -= hp
            blocks[zero_idx, 3 * a:3 * a + 3, 3 * a:3 * a + 3] += hp.sum(axis=0)
    return cells, blocks


def _dynamical_matrices(qs, spec: ChainSpec, deltas, cutoff_cells: int) -> np.ndarray:
    if cutoff_cells < 1:
        raise ValueError("cutoff_cells must be >= 1")
    cells, blocks = _real_space_blocks(spec, deltas, cutoff_cells)
    phases = np.exp(1j * np.asarray(qs)[:, None] * cells[None, :] * spec.a)
    dyn = np.einsum("qn,nij->qij", phases, blocks)
    _require_finite(dyn, "Bloch matrix")
    return dyn


def dynamical_matrix(
    q: float,
    spec: ChainSpec,
    bulk_eq: BulkEquilibrium | None = None,
) -> np.ndarray:
    """Hermitian 6x6 Bloch matrix at quasimomentum q, summed over
    DEFAULT_CUTOFF_CELLS cells each way.

    bulk_eq=None evaluates at the trap centers; pass a relax_bulk result
    to use the translationally relaxed geometry.
    """
    deltas = bulk_eq.deltas if bulk_eq is not None else np.zeros((2, 3))
    return _dynamical_matrices([q], spec, deltas, DEFAULT_CUTOFF_CELLS)[0]


def _gauge_fix(xi: np.ndarray) -> np.ndarray:
    """Unit phase per column such that its largest-magnitude z component is
    real >= 0 (the largest component overall when no z component exceeds
    1e-12); xi is (Nq, 6, 6) with one eigenvector per column, fixed in place."""
    zmags = np.abs(xi[:, _Z_COMPONENTS, :])                 # (Nq, 2, 6)
    idx = np.where(zmags.max(axis=1) > 1e-12,
                   np.take(_Z_COMPONENTS, np.argmax(zmags, axis=1)),
                   np.argmax(np.abs(xi), axis=1))
    phase = np.take_along_axis(xi, idx[:, None, :], axis=1)  # (Nq, 1, 6)
    mag = np.hypot(phase.real, phase.imag)  # as scalar abs(); np.abs can differ in the last bit
    factor = np.divide(phase.conj(), mag, out=np.ones_like(phase), where=mag != 0.0)
    return np.multiply(xi, factor, out=xi, where=mag != 0.0)


def _respan_degenerate(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Re-span each degenerate group by projecting the fixed reference basis
    (Gram-Schmidt), so the columns do not depend on the eigensolver's choice."""
    out = vec.copy()
    n = len(lam)
    edges = [*(np.flatnonzero(~(np.diff(lam) <= DEGENERACY_TOL)) + 1), n]
    for start, stop in zip([0, *edges], edges):
        if stop - start > 1:
            sub = vec[:, start:stop]
            proj = sub @ (sub.conj().T @ np.eye(n, dtype=complex))
            cols = []
            for r in range(n):
                c = proj[:, r].copy()
                for prev in cols:
                    c -= (prev.conj() @ c) * prev
                norm = np.linalg.norm(c)
                if norm > 1e-8:
                    cols.append(c / norm)
                if len(cols) == stop - start:
                    break
            out[:, start:stop] = np.array(cols).T
    return out


@dataclass(frozen=True)
class BandStructure:
    """omega and polarization vectors on the quasimomentum grid.

    omega[k, j] is band j (ascending) at q_grid[k]; xi[k, :, j] is the
    matching 6-component polarization vector in the order
    (A,x),(A,y),(A,z),(B,x),(B,y),(B,z).
    """

    q_grid: np.ndarray
    omega: np.ndarray       # (Nq, 6)
    xi: np.ndarray          # (Nq, 6, 6) complex
    spec: ChainSpec
    cutoff_cells: int
    relaxed: bool

    @property
    def n_bands(self) -> int:
        return self.omega.shape[1]

    def envelopes(self) -> np.ndarray:
        """(6, 2) array of per-band [min, max] frequencies."""
        return np.stack([self.omega.min(axis=0), self.omega.max(axis=0)], axis=1)


def _freqs_from_lambda(lam: np.ndarray, context: str) -> np.ndarray:
    worst = float(lam.min())
    if worst < -NEGATIVE_CLAMP:
        raise ImaginaryFrequencyError(
            f"{context}: squared frequency {worst:.3e} < 0; lattice unstable"
        )
    return np.sqrt(np.clip(lam, 0.0, None))


def band_structure(
    spec: ChainSpec,
    q_points: int = DEFAULT_Q_POINTS,
    cutoff_cells: int = DEFAULT_CUTOFF_CELLS,
    relax: bool = False,
) -> BandStructure:
    """Diagonalize the Bloch matrix on the standard grid, with deterministic
    eigenvectors (degenerate groups re-spanned, then every column gauge-fixed).

    relax=True relaxes the bulk first.
    """
    deltas = relax_bulk(spec, cutoff_cells=cutoff_cells).deltas if relax else np.zeros((2, 3))
    qs = q_grid(spec, q_points)
    dyn = _dynamical_matrices(qs, spec, deltas, cutoff_cells)
    lam, vec = np.linalg.eigh(dyn)
    omega = _freqs_from_lambda(lam / spec.mass, "band_structure")
    for k in np.flatnonzero((np.diff(lam, axis=1) <= DEGENERACY_TOL).any(axis=1)):
        vec[k] = _respan_degenerate(lam[k], vec[k])
    return BandStructure(
        q_grid=qs, omega=omega, xi=_gauge_fix(vec), spec=spec,
        cutoff_cells=cutoff_cells, relaxed=relax,
    )


# ---------------------------------------------------------------------------
# finite chains and edge modes

@dataclass(frozen=True)
class EdgeDetectionParams:
    """Thresholds of the edge-mode classifier.

    A mode is edge-flagged when it lies outside every bulk band envelope
    and is either inside an interior gap (between two bands) or, when it
    sits beyond the outer spectrum edge, shows end-localized decay
    (weight of the outer two atom pairs over the next two).
    """

    interior_margin: float = 1e-4
    exterior_margin: float = 1e-4
    end_decay_threshold: float = 1.8


@dataclass(frozen=True)
class EdgeModeReport:
    edge_flags: np.ndarray      # (3N,) bool
    ipr: np.ndarray             # (3N,)
    end_decay: np.ndarray       # (3N,)
    nearest_band: np.ndarray    # (3N,) 1-based nearest bulk band
    gap_index: np.ndarray       # (3N,) bands fully below the mode (0..6)


@dataclass(frozen=True)
class FiniteSpectrum:
    frequencies: np.ndarray     # (3N,) ascending
    modes: np.ndarray           # (3N, 3N), column per mode
    report: EdgeModeReport
    band_edges: np.ndarray      # (6, 2) bulk envelopes used for detection
    spec: ChainSpec
    relaxed: bool

    @property
    def edge_flags(self) -> np.ndarray:
        return self.report.edge_flags

    @property
    def ipr(self) -> np.ndarray:
        return self.report.ipr

    @property
    def n_edge_modes(self) -> int:
        return int(self.report.edge_flags.sum())


def atom_weights(modes: np.ndarray, n_atoms: int) -> np.ndarray:
    """(N, n_modes) per-atom weight of each normalized mode."""
    return (modes.reshape(n_atoms, 3, -1) ** 2).sum(axis=1)


def _end_decay(weights: np.ndarray) -> np.ndarray:
    """Outer-pair over next-pair weight ratio; large for end-bound modes."""
    n = weights.shape[0]
    if n < 8:
        return np.ones(weights.shape[1])
    outer = weights[[0, 1, -2, -1]].sum(axis=0)
    inner = weights[[2, 3, -4, -3]].sum(axis=0)
    return outer / np.maximum(inner, 1e-300)


def detect_edge_modes(
    modes: np.ndarray,
    frequencies: np.ndarray,
    band_edges: np.ndarray,
    params: EdgeDetectionParams | None = None,
) -> EdgeModeReport:
    """Flag boundary-localized modes detached from the bulk bands.

    band_edges is the (6, 2) table of bulk envelopes.  The inverse
    participation ratio is reported for every mode but is not used as the
    flag criterion: at 14 atoms the detached states are too weakly
    localized for any IPR cut to separate them from bulk modes.
    """
    if params is None:
        params = EdgeDetectionParams()
    n_atoms = modes.shape[0] // 3
    weights = atom_weights(modes, n_atoms)
    ipr = (weights**2).sum(axis=0)
    decay = _end_decay(weights)
    om = frequencies[:, None]
    lo, hi = band_edges[:, 0], band_edges[:, 1]
    # (modes, bands) distance of each mode to each band envelope, 0 inside it
    dist = np.where((lo <= om) & (om <= hi), 0.0,
                    np.minimum(np.abs(om - lo), np.abs(om - hi)))
    nearest = np.argmin(dist, axis=1) + 1
    gap_index = (hi < om).sum(axis=1)
    out_by = dist.min(axis=1)
    interior = (lo.min() < frequencies) & (frequencies < hi.max())
    flags = (out_by != 0.0) & np.where(
        interior,
        out_by > params.interior_margin,
        (out_by > params.exterior_margin) & (decay >= params.end_decay_threshold),
    )
    return EdgeModeReport(
        edge_flags=flags, ipr=ipr, end_decay=decay,
        nearest_band=nearest, gap_index=gap_index,
    )


def finite_spectrum(
    spec: ChainSpec,
    relax: bool = False,
    q_points: int = DEFAULT_Q_POINTS,
    params: EdgeDetectionParams | None = None,
) -> FiniteSpectrum:
    """Normal modes of the finite chain with edge detection applied.

    relax=True diagonalizes the Hessian that ``relax_finite`` carries with
    the relaxed positions, so it is not built twice; the configuration's
    ``stable`` flag is never asked for, so its eigenvalues are not computed.
    """
    ham = relax_finite(spec).hessian if relax else hessian(trap_centers(spec), spec)
    ham /= spec.mass  # in place: the configuration that carried ham is gone
    lam, vec = np.linalg.eigh(ham)
    freqs = _freqs_from_lambda(lam, "finite_spectrum")
    bands = band_structure(spec, q_points=q_points, relax=relax)
    edges = bands.envelopes()
    report = detect_edge_modes(vec, freqs, edges, params)
    return FiniteSpectrum(
        frequencies=freqs, modes=vec, report=report,
        band_edges=edges, spec=spec, relaxed=relax,
    )


# ---------------------------------------------------------------------------
# band tracking and diagnostics

# every assignment of 6 tracked bands to sorted slots, in itertools order
_PERMUTATIONS = np.array(list(permutations(range(6))))


def _best_permutations(overlaps: np.ndarray) -> np.ndarray:
    """(Nsteps, 6) slot permutation of highest summed overlap for each
    (6, 6) overlap matrix in the stack; ties go to the first in _PERMUTATIONS."""
    best = np.empty(len(overlaps), dtype=int)
    for lo in range(0, len(overlaps), 64):  # blocks of 64 steps bound the score memory
        block = overlaps[lo:lo + 64]
        # score[k, p] = sum_r block[k, r, P[p, r]], added left to right as ties depend on it
        score = block[:, 0, _PERMUTATIONS[:, 0]]
        for r in range(1, 6):
            score += block[:, r, _PERMUTATIONS[:, r]]
        best[lo:lo + 64] = np.argmax(score, axis=1)
    return _PERMUTATIONS[best]


def _suppress_touches(pos: np.ndarray, min_run: int) -> np.ndarray:
    """Undo order flips that revert within min_run grid points.

    Degenerate touch points (e.g. the exact q=0 degeneracies) otherwise
    register as spurious double crossings.  Pair by pair, in triu order, each
    run of one order sign shorter than min_run that touches neither grid end
    is swapped back, until a pass over the pairs changes nothing.
    """
    pos = pos.copy()
    changed = True
    while changed:
        changed = False
        for a, b in zip(*np.triu_indices(6, k=1)):
            sign = pos[:, a] > pos[:, b]
            lengths = np.diff([0, *np.flatnonzero(sign[1:] != sign[:-1]) + 1, len(sign)])
            short = lengths < min_run
            short[[0, -1]] = False  # the runs at the grid ends stay
            flip = np.repeat(short, lengths)
            if flip.any():
                pos[flip, a], pos[flip, b] = pos[flip, b], pos[flip, a]
                changed = True
    return pos


def track_bands(bands: BandStructure, min_run: int = 3) -> np.ndarray:
    """Follow band identity through crossings by eigenvector overlap.

    Returns positions[k, l]: the sorted slot occupied at q_grid[k] by
    tracked band l, with labels anchored to the sorted order at the grid
    point closest to q = 0.

    Each step k -> k+1 takes the permutation of sorted slots that maximises
    the summed overlap |<xi_k|xi_{k+1}>|; it depends only on the overlaps of
    that step, not on the tracking state.  Ties go to the first maximum in
    itertools.permutations order.
    """
    steps = _best_permutations(np.abs(bands.xi[:-1].conj().transpose(0, 2, 1) @ bands.xi[1:]))
    pos = np.empty((len(bands.q_grid), 6), dtype=int)
    pos[0] = np.arange(6)
    for k, perm in enumerate(steps, start=1):
        pos[k] = perm[pos[k - 1]]
    pos = _suppress_touches(pos, min_run)
    # relabel so that label order matches the sorted order at q ~ 0
    k0 = int(np.argmin(np.abs(bands.q_grid)))
    order = np.argsort(pos[k0])
    return pos[:, order]


@dataclass(frozen=True)
class BandDiagnostics:
    crossings: tuple            # ((j, j', q), ...) with tracked 1-based labels
    concavity: np.ndarray       # (6,) sign of the central-window curvature
    bandwidth: np.ndarray       # (6,) per sorted band

    @property
    def crossing_pairs(self):
        return sorted({(a, b) for a, b, _ in self.crossings})


def band_diagnostics(bands: BandStructure) -> BandDiagnostics:
    """Crossings (tracked with track_bands' default min_run), q=0
    concavities and bandwidths.

    Concavity is the sign of the quadratic coefficient of a fit over the
    central window |q| <= pi/(2a); a plain 3-point stencil is too local to
    capture the band-shape change of nearly flat bands.  A grid with fewer
    than 3 points in the window raises ConfigError naming the smallest
    q_points that has 3.
    """
    qs = bands.q_grid
    omega = bands.omega
    pos = track_bands(bands)
    first, second = np.triu_indices(6, k=1)
    order = pos[:, first] - pos[:, second]          # (Nq, pair) sign table
    ks, pairs = np.nonzero(order[:-1] * order[1:] < 0)
    events = [(int(first[p]) + 1, int(second[p]) + 1, float(qs[k + 1]))
              for k, p in zip(ks, pairs)]
    window_edge = _CONCAVITY_WINDOW * np.pi / bands.spec.a
    window = np.abs(qs) <= window_edge
    if np.count_nonzero(window) < 3:
        n = 2
        while np.count_nonzero(np.abs(q_grid(bands.spec, n)) <= window_edge) < 3:
            n += 1
        raise ConfigError(f"q_points={len(qs)} leaves {np.count_nonzero(window)} grid point(s) in "
                          f"|q| <= {_CONCAVITY_WINDOW:g} pi/a, and the concavity fit needs 3; "
                          f"the smallest q_points that gives 3 is {n}")
    # q in units of the power of two nearest the window edge: the scaling is
    # exact, so the signs are those of a fit in q, which underflows when pi/a is tiny
    x = np.ldexp(qs[window], -np.frexp(window_edge)[1])
    coeff = np.array([np.polyfit(x, omega[window, j], 2)[0] for j in range(6)])
    return BandDiagnostics(
        crossings=tuple(events),
        concavity=np.sign(coeff),
        bandwidth=omega.max(axis=0) - omega.min(axis=0),
    )
