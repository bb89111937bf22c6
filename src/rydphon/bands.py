"""Phonon bands of the chain: Bloch dynamical matrices, finite spectra,
band tracking, edge-mode detection and band-shape diagnostics.

Bulk quantities are evaluated at the trap centers by default; pass
relax=True to use the relaxed geometry instead (only available where the
relaxed chain exists: at the default spec of configs/default.json, the
7- and 50-cell chains for d >= 1.884485 and 1.884487, and the relaxed bulk
above its fold near d = 1.8834879, though relax_bulk's cutoff-drift check
passes only from d = 1.883584 on and the relaxed bands are stable only
from d = 1.883739 on; see the README).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._blas import parked
from .equilibrium import _CUTOFF_CELLS, _bulk_partners, relax_bulk, relax_finite
from .errors import ImaginaryFrequencyError
from .geometry import ChainSpec, base_offsets, trap_centers
from .potential import _pair_hessians, _require_finite, _separations, hessian

DEFAULT_Q_POINTS = 256
DEGENERACY_TOL = 1e-10
NEGATIVE_CLAMP = 1e-12
_CONCAVITY_WINDOW = 0.5  # band_diagnostics takes concavity over |q| <= _CONCAVITY_WINDOW * pi/a,
_CONCAVITY_NODES = 64  # as the sign of a P2 moment by Gauss-Legendre at this many nodes,
_CONCAVITY_FLAT_TOL = 1e3  # and 0 where that moment is within _CONCAVITY_FLAT_TOL * eps * max omega
_MIN_RUN = 3  # track_bands undoes order flips that revert within this many grid points
_CERTIFY_MARGIN = 1e-12  # track_bands certifies a step whose overlap rows each win by more
# detect_edge_modes: how far outside every bulk envelope a mode must lie inside
# an interior gap, or beyond the outer spectrum edge, and the end decay it needs there
_INTERIOR_MARGIN = 1e-4
_EXTERIOR_MARGIN = 1e-4
_END_DECAY_THRESHOLD = 1.8

_Z_COMPONENTS = (2, 5)  # (A, z) and (B, z) slots in the 6-component basis
_LOWER = np.tril_indices(6)  # the Bloch matrix entries that eigh and eigvalsh read
# the nonnegative half of the nodes and their weights; omega is even in q
_NODES, _WEIGHTS = (half[_CONCAVITY_NODES // 2:]
                    for half in np.polynomial.legendre.leggauss(_CONCAVITY_NODES))


def q_grid(spec: ChainSpec, q_points: int) -> np.ndarray:
    """Uniform grid over (-pi/a, pi/a], endpoint included, -pi/a excluded."""
    if q_points < 2:
        raise ValueError("q_points must be >= 2")
    edge = np.pi / spec.a
    return np.linspace(-edge, edge, q_points + 1)[1:]


def _real_space_blocks(spec: ChainSpec, deltas: np.ndarray):
    """Second-derivative blocks between cell 0 and cells n in [-C, C],
    C = ``_CUTOFF_CELLS``.

    Returns (cells, blocks) with blocks[n_idx] the 6x6 real matrix
    d2V/du_{0,alpha,i} du_{n,beta,j}; the n=0 diagonal gets the trap term
    plus the sums of ``potential``'s pair Hessians over alpha's
    ``equilibrium._bulk_partners`` of base A, then of base B.
    """
    offs = base_offsets(spec) + deltas
    cells = np.arange(-_CUTOFF_CELLS, _CUTOFF_CELLS + 1)
    blocks = np.zeros((len(cells), 2, 3, 2, 3))
    for a, (n, b) in enumerate(_bulk_partners(_CUTOFF_CELLS)):
        rvec = n[:, None] * spec.a * np.array([0.0, 0.0, 1.0]) + (offs[b] - offs[a])
        rnorm, s = _separations(rvec, spec.m_hat, lambda k: (
            f"base {'AB'[a]} of cell 0 and base {'AB'[b[k]]} of cell {n[k]}"))
        hp = _pair_hessians(rvec, rnorm, s, spec.m_hat, spec.v_dd)
        # cross blocks are -H(r); every partner adds +H to the self block
        blocks[n + _CUTOFF_CELLS, a, :, b, :] -= hp
        self_block = blocks[_CUTOFF_CELLS, a, :, a, :]
        self_block += np.diag(spec.mass * spec.nu_array**2)
        for beta in range(2):
            self_block += hp[b == beta].sum(axis=0)
    return cells, blocks.reshape(len(cells), 6, 6)


def _dynamical_matrices(qs, spec: ChainSpec, deltas) -> np.ndarray:
    """(Nq, 6, 6) Bloch matrices D(q) = sum_n exp(i q n a) blocks[n].

    Only the lower triangle (``np.tril_indices(6)``) is summed, and only its
    entries that are non-zero in some cell; the others stay +0.  The phases
    are cos and sin of arg = q n a, computed for the cells n >= 0 only; the
    rows of cells -n are the mirrors cos(arg) and -sin(arg).  Real and
    imaginary parts are summed one term at a time, in cell order
    n = -C, ..., C, starting from +0.  The strict upper triangle is the exact
    conjugate of the strict lower one.

    These are the bytes that exp(1j * arg) and a complex sum over the cells
    in the same order give, on which the README's bit-for-bit promise rests:
    cos(arg) and sin(arg) are that exponential's parts; the arg of cell -n
    is exactly minus that of cell n, since negating a factor only flips the
    sign of a rounded product, and cos is even and sin odd bit for bit (the
    einsum test pins both, q = +-0 and +-pi/a included); a zero of either
    sign cannot change a sum that starts from +0; and ``eigh`` and
    ``eigvalsh`` read the lower triangle only.
    """
    cells, blocks = _real_space_blocks(spec, deltas)
    qs = np.asarray(qs, dtype=float)
    nq = len(qs)
    rows, cols = _LOWER
    terms = blocks[:, rows, cols]                      # (cells, 21)
    used = (terms != 0.0).any(axis=0)
    rows, cols, terms = rows[used], cols[used], terms[:, used]
    c = _CUTOFF_CELLS                                  # cells[c] is cell 0
    arg = cells[c:, None] * qs[None, :] * spec.a       # (C + 1, Nq): q n a for n >= 0
    phases = np.empty((len(cells), 2 * nq))            # (cells, cos | sin), row per cell
    np.cos(arg, out=phases[c:, :nq])
    np.sin(arg, out=phases[c:, nq:])
    phases[:c, :nq] = phases[:c:-1, :nq]               # cells -C..-1 mirror cells C..1
    np.negative(phases[:c:-1, nq:], out=phases[:c, nq:])
    sums = np.zeros((len(rows), 2 * nq))               # (entries, re | im)
    for term, phase in zip(terms, phases):
        sums += term[:, None] * phase
    dyn = np.zeros((nq, 6, 6), dtype=complex)
    dyn.real[:, rows, cols] = sums[:, :nq].T
    dyn.imag[:, rows, cols] = sums[:, nq:].T
    strict = rows != cols
    dyn.real[:, cols[strict], rows[strict]] = sums[strict, :nq].T
    dyn.imag[:, cols[strict], rows[strict]] = -sums[strict, nq:].T
    _require_finite(dyn, "Bloch matrix")
    return dyn


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


def _remainder(c: np.ndarray, cols: list) -> np.ndarray:
    """``c`` less its components along the orthonormal ``cols``, one at a time."""
    c = c.copy()
    for prev in cols:
        c -= (prev.conj() @ c) * prev
    return c


def _respan_degenerate(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Re-span each degenerate group by projecting the fixed reference basis
    (Gram-Schmidt), so the columns do not depend on the eigensolver's choice.

    A remainder of norm in (1e-8, 1e-2) is projected onto the group's span
    and orthogonalized again before it is normalized: dividing by a small
    norm magnifies the rounding that leaked out of the span, which left the
    columns of nearly degenerate chains (d ~ 100-160) off orthonormal by up
    to 3e-8.  Remainders outside that range take one pass, as before.
    """
    out = vec.copy()
    n = len(lam)
    edges = [*(np.flatnonzero(~(np.diff(lam) <= DEGENERACY_TOL)) + 1), n]
    for start, stop in zip([0, *edges], edges):
        if stop - start > 1:
            sub = vec[:, start:stop]
            proj = sub @ (sub.conj().T @ np.eye(n, dtype=complex))
            cols = []
            for r in range(n):
                c = _remainder(proj[:, r], cols)
                norm = np.linalg.norm(c)
                if 1e-8 < norm < 1e-2:
                    c = _remainder(sub @ (sub.conj().T @ c), cols)
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


def _bulk_deltas(spec: ChainSpec, relax: bool) -> np.ndarray:
    """(2, 3) offsets of the A and B atoms from their trap centers: the relaxed bulk's, or 0."""
    return relax_bulk(spec).deltas if relax else np.zeros((2, 3))


def band_structure(
    spec: ChainSpec,
    q_points: int = DEFAULT_Q_POINTS,
    relax: bool = False,
) -> BandStructure:
    """Diagonalize the Bloch matrix on the standard grid, with deterministic
    eigenvectors (degenerate groups re-spanned, then every column gauge-fixed).

    relax=True relaxes the bulk first.

    Stability is also checked at q = 0, where band 1 softens first, when the
    grid holds no exact 0.0 (every odd grid, and some even ones): D(0) is
    summed as one more column of the same kernel, whose columns are computed
    apart, and only its eigenvalues are taken.  So the grid's parity cannot
    decide whether the lattice is stable.
    """
    qs = q_grid(spec, q_points)
    nq = len(qs)
    at_zero = [] if (qs == 0.0).any() else [0.0]
    dyn = _dynamical_matrices(np.concatenate([qs, at_zero]), spec, _bulk_deltas(spec, relax))
    lam, vec = np.linalg.eigh(dyn[:nq])
    omega = _freqs_from_lambda(lam / spec.mass, "band_structure")
    if at_zero:
        _freqs_from_lambda(np.linalg.eigvalsh(dyn[nq:]) / spec.mass, "band_structure (q = 0)")
    for k in np.flatnonzero((np.diff(lam, axis=1) <= DEGENERACY_TOL).any(axis=1)):
        vec[k] = _respan_degenerate(lam[k], vec[k])
    return BandStructure(q_grid=qs, omega=omega, xi=_gauge_fix(vec), spec=spec, relaxed=relax)


# ---------------------------------------------------------------------------
# finite chains and edge modes

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
) -> EdgeModeReport:
    """Flag boundary-localized modes detached from the bulk bands.

    band_edges is the (6, 2) table of bulk envelopes.  A mode is flagged
    when it lies outside every envelope and either sits in an interior gap
    (between the lowest band's bottom and the highest band's top) by more
    than 1e-4 (``_INTERIOR_MARGIN``), or sits beyond the outer spectrum edge
    by more than 1e-4 (``_EXTERIOR_MARGIN``) with an end decay -- weight of
    the outer two atom pairs over the next two -- of at least 1.8
    (``_END_DECAY_THRESHOLD``).  The inverse participation ratio is reported
    for every mode but is not used as the flag criterion: at 14 atoms the
    detached states are too weakly localized for any IPR cut to separate
    them from bulk modes.

    nearest_band is the 1-based band whose envelope is closest, at distance
    0 inside it; distances are compared exactly, and a tie (a mode inside
    two overlapping envelopes, or equally far from two) goes to the lower
    band.
    """
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
        out_by > _INTERIOR_MARGIN,
        (out_by > _EXTERIOR_MARGIN) & (decay >= _END_DECAY_THRESHOLD),
    )
    return EdgeModeReport(
        edge_flags=flags, ipr=ipr, end_decay=decay,
        nearest_band=nearest, gap_index=gap_index,
    )


def finite_spectrum(
    spec: ChainSpec,
    relax: bool = False,
    q_points: int = DEFAULT_Q_POINTS,
) -> FiniteSpectrum:
    """Normal modes of the finite chain with edge detection applied.

    relax=True diagonalizes the Hessian that ``relax_finite`` carries with
    the relaxed positions, so it is not built twice; the configuration's
    ``stable`` flag is never asked for, so its eigenvalues are not computed.
    On the command line, the idle BLAS workers of the 3N x 3N ``eigh`` are
    joined after it (``_blas.parked``).
    """
    ham = relax_finite(spec).hessian if relax else hessian(trap_centers(spec), spec)
    ham /= spec.mass  # in place: the configuration that carried ham is gone
    with parked():  # the band structure and edge detection after it are single-threaded
        lam, vec = np.linalg.eigh(ham)
    freqs = _freqs_from_lambda(lam, "finite_spectrum")
    bands = band_structure(spec, q_points=q_points, relax=relax)
    edges = bands.envelopes()
    report = detect_edge_modes(vec, freqs, edges)
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


def _step_permutations(overlaps: np.ndarray) -> np.ndarray:
    """The ``_best_permutations`` of the (Nsteps, 6, 6) overlap stack, searched
    only at the steps that the row maxima do not certify.

    A step is certified when the argmax c of each overlap row is a permutation
    and every row maximum beats its runner-up by more than 1e-12
    (``_CERTIFY_MARGIN``).  No permutation scores more than the sum of the row
    maxima, which c attains, and any other one leaves c in at least two rows,
    so its exact score is lower by more than 2e-12, far above the rounding
    (< 1e-14) of a 6-term sum of overlaps <= 1: c is the search's unique
    maximum.  The margin is the step's tracking confidence.
    """
    top = np.sort(overlaps, axis=2)
    steps = overlaps.argmax(axis=2)
    certified = ((top[:, :, 5] - top[:, :, 4] > _CERTIFY_MARGIN).all(axis=1)
                 & (np.sort(steps, axis=1) == np.arange(6)).all(axis=1))
    if not certified.all():
        steps[~certified] = _best_permutations(overlaps[~certified])
    return steps


def _suppress_touches(pos: np.ndarray, min_run: int) -> np.ndarray:
    """Undo order flips that revert within min_run grid points.

    Degenerate touch points (e.g. the exact q=0 degeneracies) otherwise
    register as spurious double crossings.  Pair by pair, in triu order, each
    run of one order sign shorter than min_run that touches neither grid end
    is swapped back, until a pass over the pairs changes nothing.  A short
    interior run lies between two sign changes of one pair less than min_run
    apart; where no pair has one, the first pass would change nothing.
    """
    pos = pos.copy()
    first, second = np.triu_indices(6, k=1)
    sign = pos[:, first] > pos[:, second]
    pair, at = np.nonzero((sign[1:] != sign[:-1]).T)  # each pair's sign changes, in order
    changed = bool(np.any((np.diff(at) < min_run) & (np.diff(pair) == 0)))
    while changed:
        changed = False
        for a, b in zip(first, second):
            sign = pos[:, a] > pos[:, b]
            lengths = np.diff([0, *np.flatnonzero(sign[1:] != sign[:-1]) + 1, len(sign)])
            short = lengths < min_run
            short[[0, -1]] = False  # the runs at the grid ends stay
            flip = np.repeat(short, lengths)
            if flip.any():
                pos[flip, a], pos[flip, b] = pos[flip, b], pos[flip, a]
                changed = True
    return pos


def track_bands(bands: BandStructure) -> np.ndarray:
    """Follow band identity through crossings by eigenvector overlap.

    Returns positions[k, l]: the sorted slot occupied at q_grid[k] by
    tracked band l, with labels anchored to the sorted order at the grid
    point closest to q = 0.

    Each step k -> k+1 takes the permutation of sorted slots that maximises
    the summed overlap |<xi_k|xi_{k+1}>|; it depends only on the overlaps of
    that step, not on the tracking state.  Ties go to the first maximum in
    itertools.permutations order.  Where every row maximum of the overlaps
    beats its runner-up by more than 1e-12 and the maxima form a permutation,
    that permutation is the maximum, and the search over all 720 runs only at
    the other steps (``_step_permutations``).  Order flips that revert within
    3 grid points (``_MIN_RUN``) are then undone, as degenerate touches.
    """
    steps = _step_permutations(np.abs(bands.xi[:-1].conj().transpose(0, 2, 1) @ bands.xi[1:]))
    # positions hold between the steps that move a band, so only those are composed
    pos = np.tile(np.arange(6), (len(bands.q_grid), 1))
    for k in np.flatnonzero((steps != np.arange(6)).any(axis=1)) + 1:
        pos[k:] = steps[k - 1][pos[k - 1]]
    pos = _suppress_touches(pos, _MIN_RUN)
    # relabel so that label order matches the sorted order at q ~ 0
    k0 = int(np.argmin(np.abs(bands.q_grid)))
    order = np.argsort(pos[k0])
    return pos[:, order]


@dataclass(frozen=True)
class BandDiagnostics:
    crossings: tuple            # ((j, j', q), ...) with tracked 1-based labels
    concavity: np.ndarray       # (6,) sign of the P2 moment over |q| <= pi/(2a); 0 if flat
    bandwidth: np.ndarray       # (6,) per sorted band

    @property
    def crossing_pairs(self):
        return sorted({(a, b) for a, b, _ in self.crossings})


def band_diagnostics(bands: BandStructure) -> BandDiagnostics:
    """Crossings (of the bands that track_bands follows), central-window
    concavities and bandwidths.

    Concavity is the sign of int omega_j(q) P2(q/W) dq over |q| <= W = pi/(2a),
    that of the q^2 coefficient of the least-squares quadratic there (a 3-point
    stencil is too local for nearly flat bands).  Gauss-Legendre at 64 fixed
    nodes takes it from the bands' own bulk, whatever their q grid; within
    1e3 * eps * max omega of 0 it is rounding noise, and the band gets 0.
    """
    pos = track_bands(bands)
    first, second = np.triu_indices(6, k=1)
    order = pos[:, first] - pos[:, second]          # (Nq, pair) sign table
    ks, pairs = np.nonzero(order[:-1] * order[1:] < 0)
    events = [(int(first[p]) + 1, int(second[p]) + 1, float(bands.q_grid[k + 1]))
              for k, p in zip(ks, pairs)]
    spec = bands.spec
    dyn = _dynamical_matrices(_NODES * (_CONCAVITY_WINDOW * np.pi / spec.a), spec,
                              _bulk_deltas(spec, bands.relaxed))
    at_nodes = _freqs_from_lambda(np.linalg.eigvalsh(dyn) / spec.mass, "band_diagnostics")
    moment = (_WEIGHTS * (1.5 * _NODES**2 - 0.5)) @ at_nodes   # P2(x) = (3x^2 - 1) / 2
    flat = np.abs(moment) <= _CONCAVITY_FLAT_TOL * np.finfo(float).eps * at_nodes.max()
    return BandDiagnostics(
        crossings=tuple(events),
        concavity=np.where(flat, 0.0, np.sign(moment)),
        bandwidth=bands.omega.max(axis=0) - bands.omega.min(axis=0),
    )
