"""Local-oscillator form of the quadratic phonon Hamiltonian.

The harmonic matrix is recast as per-site oscillators with frequencies
Omega_{n,i} coupled by the matrices g (anomalous + normal off-diagonal)
and h, with J(|n-m|) summing the nine directional couplings of each atom
pair.  A paraunitary (Bogoliubov) diagonalization of (h, g) provides the
module's correctness oracle: it must reproduce the normal-mode spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DynamicalInstabilityError, NonPositiveDiagonalError
from .geometry import ChainSpec, trap_centers
from .equilibrium import relax_finite
from .potential import hessian

_IMAG_TOL = 1e-8


def local_frequencies(harmonic: np.ndarray, mass: float) -> np.ndarray:
    """(N, 3) on-site frequencies Omega_{n,i} from the matrix diagonal."""
    n3 = harmonic.shape[0]
    n_atoms = n3 // 3
    diag = np.diagonal(harmonic).reshape(n_atoms, 3)
    if np.any(diag <= 0.0):
        bad = np.argwhere(diag <= 0.0)[0]
        raise NonPositiveDiagonalError(
            f"diagonal entry for atom {bad[0]}, direction {bad[1]} is not positive"
        )
    return np.sqrt(diag / mass)


def coupling_matrices(harmonic: np.ndarray, omega_local: np.ndarray, mass: float):
    """g and h as (N, 3, N, 3) tables.

    g_{nm}^{ij} = (1 - delta_nm delta_ij) D_{nm}^{ij} / (2 M sqrt(Om_ni Om_mj)),
    h = diag(Omega) + g.
    """
    n_atoms = omega_local.shape[0]
    blocks = harmonic.reshape(n_atoms, 3, n_atoms, 3)
    denom = 2.0 * mass * np.sqrt(
        omega_local[:, :, None, None] * omega_local[None, None, :, :]
    )
    g = blocks / denom
    n, i = np.indices((n_atoms, 3))
    g[n, i, n, i] = 0.0
    h = g.copy()
    h[n, i, n, i] = omega_local
    return g, h


def aggregate_J(g: np.ndarray, exclude_outer_cells: int = 1) -> dict:
    """Average Sum_ij g_nm^ij over interior pairs of equal separation.

    Keys are (separation, bond_class) with bond_class the parity of the
    first flat atom index: for odd separations class 0 starts on the A
    leg (the intra-cell bond family) and class 1 on the B leg.  Pairs
    touching the outermost cells are excluded to suppress edge effects.
    """
    n_atoms = g.shape[0]
    n_cells = n_atoms // 2
    sums = g.sum(axis=(1, 3))  # (N, N) of Sum_ij g^ij
    lo = exclude_outer_cells
    hi = n_cells - exclude_outer_cells
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
    h: np.ndarray             # (N, 3, N, 3)
    J: dict                   # (separation, bond_class) -> mean coupling
    spec: ChainSpec
    relaxed: bool


def local_phonon_model(spec: ChainSpec, relax: bool = False) -> LocalPhononModel:
    """Full pipeline: harmonic matrix -> local frequencies, g, h, J.

    relax=True takes the Hessian that ``relax_finite`` carries with the
    relaxed positions.
    """
    harmonic = relax_finite(spec).hessian if relax else hessian(trap_centers(spec), spec)
    omega = local_frequencies(harmonic, spec.mass)
    g, h = coupling_matrices(harmonic, omega, spec.mass)
    return LocalPhononModel(
        omega_local=omega, g=g, h=h, J=aggregate_J(g), spec=spec, relaxed=relax,
    )


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
