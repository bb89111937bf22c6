"""Atom-phonon vertex: Wannier form factor and the dimensionless coupling.

The per-band coupling at quasimomentum q is

    M(q, j) = q * rho0(q) / sqrt(omega_j(q)) * Sum_alpha |xi_{alpha,z}| e^{-i q rho_alpha^z}

in units of sqrt(hbar g_cp^2 / 2M); the modulus on the z components makes
the value independent of eigenvector sign conventions.  Only motion along
the chain couples: bands with no z polarization drop out.

It is built from one band structure: its q grid, omega, xi and spec.  The
phases always use the trap-center rho_alpha^z, also for relaxed bands
(`coupling --relax`, `export --relax`): the relaxed bulk shifts rho^z by
0.13 at d = 2, and letting the phases follow it would change those outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# band_structure is not called here, but stays bound: perfbench/test_perfbench.py
# asserts that the span recorder rebinds it in this namespace too
from .bands import _Z_COMPONENTS, BandStructure, band_structure
from .errors import ZeroFrequencyError
from .geometry import ChainSpec, base_offsets

_POLE = 2.0 * np.pi
_POLE_WINDOW = 1e-3


def rho0(q, d: float):
    """Closed-form Wannier density form factor; rho0(0) = 1, rho0(2 pi / d) = 1/2.

    Both removable singularities are evaluated through series-stable sinc
    branches.  Accepts scalars or arrays; even in q.
    """
    x = np.abs(np.asarray(q, dtype=float) * d)
    near_pole = np.abs(x - _POLE) < _POLE_WINDOW
    safe = np.where(near_pole, 0.0, x)
    generic = 4.0 * np.pi**2 * np.sinc(safe / _POLE) / (4.0 * np.pi**2 - safe**2)
    polar = 4.0 * np.pi**2 * np.sinc((x - _POLE) / _POLE) / np.maximum(x * (_POLE + x), 1e-300)
    out = np.where(near_pole, polar, generic)
    if np.ndim(q) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CouplingGrid:
    q_grid: np.ndarray
    m_complex: np.ndarray     # (Nq, 6)
    m_abs: np.ndarray         # (Nq, 6)
    rho0_values: np.ndarray   # (Nq,)
    omega: np.ndarray         # (Nq, 6)
    spec: ChainSpec


def coupling_grid(bands: BandStructure) -> CouplingGrid:
    """Coupling table of all six bands of ``bands`` on its q grid, phased with
    the trap-center rho_alpha^z; q_grid, omega and spec are the bands' own."""
    qs, omega, spec = bands.q_grid, bands.omega, bands.spec
    bad = np.flatnonzero((omega <= 0.0).any(axis=1))
    if bad.size:
        raise ZeroFrequencyError(f"zero phonon frequency at q = {qs[bad[0]]:g}")
    phases = np.exp((-1j * qs)[:, None] * base_offsets(spec)[:, 2])  # (Nq, 2)
    z_abs = np.abs(bands.xi[:, _Z_COMPONENTS, :])        # (Nq, 2, 6): |xi_z| per base, band
    structure = (phases[:, None, :] @ z_abs)[:, 0, :]    # (Nq, 6)
    form = rho0(qs, spec.d)
    m = (qs * form)[:, None] / np.sqrt(omega) * structure
    return CouplingGrid(q_grid=qs, m_complex=m, m_abs=np.abs(m), rho0_values=form,
                        omega=omega, spec=spec)


def coupled_band_count(grid: CouplingGrid, threshold: float = 0.05):
    """Number of bands carrying a non-negligible share of the peak coupling.

    Evaluated at the momentum of the global coupling maximum: a band
    counts when its coupling power |M|^2 there is at least ``threshold``
    of the strongest band's.  Away from that momentum, narrow band
    crossings smear the strong couplings over several sorted bands and
    would inflate the count.
    """
    k_star, _ = np.unravel_index(int(np.argmax(grid.m_abs)), grid.m_abs.shape)
    row = grid.m_abs[k_star]
    peak = row.max()
    if peak == 0.0:
        return 0, float(grid.q_grid[k_star]), np.zeros(6)
    fractions = (row / peak) ** 2
    count = int((fractions >= threshold).sum())
    return count, float(grid.q_grid[k_star]), fractions


def coupled_bands(grid: CouplingGrid, threshold: float = 0.05) -> list:
    """1-based sorted-band labels counted by coupled_band_count."""
    _, q_star, fractions = coupled_band_count(grid, threshold)
    return [j + 1 for j in range(6) if fractions[j] >= threshold]


def physical_coupling(grid: CouplingGrid, g_cp: float) -> np.ndarray:
    """Apply the pseudopotential magnitude: M_phys = g_cp sqrt(hbar/2M) * M, hbar = 1."""
    return g_cp * np.sqrt(1.0 / (2.0 * grid.spec.mass)) * grid.m_complex
