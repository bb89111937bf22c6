"""Local-oscillator form of the quadratic phonon Hamiltonian.

The harmonic matrix is recast as per-site oscillators with frequencies
Omega_{n,i} coupled by the matrix g (anomalous + normal off-diagonal),
with J(|n-m|) summing the nine directional couplings of each atom pair.
The normal part h = diag(Omega) + g holds nothing beyond Omega and g, so
the model stores those two and builds h where it is read.  A paraunitary
(Bogoliubov) diagonalization of (h, g) provides the module's correctness
oracle: it must reproduce the normal-mode spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DynamicalInstabilityError, NonPositiveDiagonalError
from .geometry import ChainSpec
from .equilibrium import _finite_hessian

_IMAG_TOL = 1e-8
_EXCLUDE_OUTER_CELLS = 1  # aggregate_J skips pairs that touch this many cells at either end
_SLAB_ENTRIES = 1 << 16   # entries of g per slab that coupling_matrices fills at once


def local_frequencies(harmonic: np.ndarray, mass: float) -> np.ndarray:
    """(N, 3) on-site frequencies Omega_{n,i} from the matrix diagonal."""
    diag = np.diagonal(harmonic).reshape(-1, 3)
    if np.any(diag <= 0.0):
        bad = np.argwhere(diag <= 0.0)[0]
        raise NonPositiveDiagonalError(
            f"diagonal entry for atom {bad[0]}, direction {bad[1]} is not positive"
        )
    return np.sqrt(diag / mass)


def coupling_matrices(harmonic: np.ndarray, omega_local: np.ndarray, mass: float):
    """g as an (N, 3, N, 3) table (h = diag(Omega) + g is
    ``LocalPhononModel.h``).

    g_{nm}^{ij} = (1 - delta_nm delta_ij) D_{nm}^{ij} / (2 M sqrt(Om_ni Om_mj)).

    g is filled in slabs of atoms n of about ``_SLAB_ENTRIES`` entries (a
    chain of up to 85 atoms is one slab), so the denominator's temporaries
    stay slab-sized rather than (N, 3, N, 3).  Each entry is the same
    product, square root and quotient as over the whole table at once, so
    the bytes do not depend on the slab size.
    """
    n_atoms = omega_local.shape[0]
    blocks = harmonic.reshape(n_atoms, 3, n_atoms, 3)
    g = np.empty_like(blocks)
    step = max(1, _SLAB_ENTRIES // (9 * n_atoms))
    for k0 in range(0, n_atoms, step):
        k1 = k0 + step
        np.divide(blocks[k0:k1],
                  2.0 * mass * np.sqrt(omega_local[k0:k1, :, None, None] * omega_local),
                  out=g[k0:k1])
    n, i = np.indices((n_atoms, 3))
    g[n, i, n, i] = 0.0
    return g


def aggregate_J(g: np.ndarray) -> dict:
    """Average Sum_ij g_nm^ij over interior pairs of equal separation.

    Keys are (separation, bond_class) with bond_class the parity of the
    first flat atom index: for odd separations class 0 starts on the A
    leg (the intra-cell bond family) and class 1 on the B leg.  Pairs
    touching the outermost cell at either end (``_EXCLUDE_OUTER_CELLS``)
    are excluded to suppress edge effects.
    """
    n_atoms = g.shape[0]
    n_cells = n_atoms // 2
    sums = g.sum(axis=(1, 3))  # (N, N) of Sum_ij g^ij
    lo = _EXCLUDE_OUTER_CELLS
    hi = n_cells - _EXCLUDE_OUTER_CELLS
    cell = np.arange(n_atoms) // 2
    inside = (lo <= cell) & (cell < hi)
    table: dict = {}
    for s in range(1, n_atoms):
        # pairs (n, n + s) with both atoms in interior cells
        interior = inside[:n_atoms - s] & inside[s:]
        for cls in (0, 1):
            vals = np.diagonal(sums, s)[cls::2][interior[cls::2]]
            if vals.size:
                table[(s, cls)] = float(np.mean(vals))
    return table


@dataclass(frozen=True)
class LocalPhononModel:
    omega_local: np.ndarray   # (N, 3)
    g: np.ndarray             # (N, 3, N, 3)
    J: dict                   # (separation, bond_class) -> mean coupling
    spec: ChainSpec
    relaxed: bool

    @property
    def h(self) -> np.ndarray:
        """(N, 3, N, 3) h = diag(Omega) + g, a new array on each read: a copy
        of g with the diagonal set, so its zeros keep g's signs."""
        n, i = np.indices(self.omega_local.shape)
        h = self.g.copy()
        h[n, i, n, i] = self.omega_local
        return h


def local_phonon_model(spec: ChainSpec, relax: bool = False) -> LocalPhononModel:
    """Full pipeline: harmonic matrix -> local frequencies, g, J.

    relax=True takes the Hessian that ``relax_finite`` carries with the
    relaxed positions.
    """
    harmonic = _finite_hessian(spec, relax)
    omega = local_frequencies(harmonic, spec.mass)
    g = coupling_matrices(harmonic, omega, spec.mass)
    return LocalPhononModel(omega_local=omega, g=g, J=aggregate_J(g), spec=spec, relaxed=relax)


def bogoliubov_frequencies(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Eigenfrequencies of H = (1/2) Sum [h (b*b + b b*) + g (bb + b*b*)].

    Solves the paraunitary eigenproblem of [[h, g], [-g, -h]] and returns
    the 3N nonnegative eigenvalues sorted ascending.  Eigenvalues with an
    imaginary part above _IMAG_TOL times the spectrum's scale signal an
    unstable quadratic form and raise DynamicalInstabilityError.
    """
    h2 = h.reshape(h.shape[0] * h.shape[1], -1) if h.ndim == 4 else np.asarray(h)
    g2 = g.reshape(g.shape[0] * g.shape[1], -1) if g.ndim == 4 else np.asarray(g)
    k = h2.shape[0]
    block = np.block([[h2, g2], [-g2, -h2]])
    eigvals = np.linalg.eigvals(block)
    scale = max(1.0, float(np.abs(eigvals).max()))
    if float(np.abs(eigvals.imag).max()) > _IMAG_TOL * scale:
        raise DynamicalInstabilityError(
            f"paraunitary eigenvalues are not real "
            f"(max imaginary part {np.abs(eigvals.imag).max():.3e})"
        )
    real = np.sort(eigvals.real)
    return real[k:]
