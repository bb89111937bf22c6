"""Potential energy of the trapped dipolar chain, with analytic derivatives.

The energy is a sum of per-atom harmonic tweezer terms and anisotropic
dipole-dipole pair terms v_dd * [1 - 3 (m.r_hat)^2] / r^3.  Pairs are
summed once each (unordered); any double-count convention is absorbed
into v_dd.  Analytic gradient and Hessian are the primary path; the
finite-difference versions exist as independent test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAtomsError, NonFiniteMatrixError
from .geometry import ChainSpec, Configuration, trap_centers

MIN_SEPARATION = 1e-9
_PAIR_CHUNK = 4096  # pairs per step of hessian's pair loops, so temporaries stay small


@dataclass(frozen=True)
class EnergyReport:
    total: float
    trap_part: float
    dipole_part: float


def pair_energy(r, m_hat, v_dd: float) -> float:
    """Dipole-dipole energy of one pair separated by r, dipoles along m_hat."""
    r = np.asarray(r, dtype=float)
    rnorm = float(np.linalg.norm(r))
    if rnorm < MIN_SEPARATION:
        raise CoincidentAtomsError(f"zero separation between dipoles (|r| = {rnorm:g})")
    cos = float(np.dot(m_hat, r)) / rnorm
    return v_dd * (1.0 - 3.0 * cos * cos) / rnorm**3


def _pair_geometry(positions: np.ndarray, m_hat: np.ndarray):
    """Separation vectors, norms and m-projections for all unordered pairs."""
    n = positions.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    rvec = positions[iu] - positions[ju]
    rnorm = np.linalg.norm(rvec, axis=1)
    close = rnorm < MIN_SEPARATION
    if np.any(close):
        k = int(np.argmax(close))
        raise CoincidentAtomsError(
            f"atoms {iu[k]} and {ju[k]} coincide (separation {rnorm[k]:.3e})"
        )
    s = rvec @ m_hat
    return iu, ju, rvec, rnorm, s


def _dipole_energy(positions: np.ndarray, m_hat: np.ndarray, v_dd: float) -> float:
    if positions.shape[0] < 2 or v_dd == 0.0:
        return 0.0
    _, _, _, rnorm, s = _pair_geometry(positions, m_hat)
    return float(v_dd * np.sum((rnorm**2 - 3.0 * s**2) / rnorm**5))


def _pair_gradients(rvec, rnorm, s, m_hat, v_dd):
    """d(pair energy)/d(r) for each pair; force on the first atom is -gradient."""
    inv5 = rnorm**-5
    inv7 = rnorm**-7
    quad = rnorm**2 - 3.0 * s**2
    return v_dd * (
        (2.0 * rvec - 6.0 * s[:, None] * m_hat) * inv5[:, None]
        - 5.0 * quad[:, None] * rvec * inv7[:, None]
    )


def _pair_hessians(rvec, rnorm, s, m_hat, v_dd):
    """(P, 3, 3) second derivatives of each pair energy with respect to r."""
    inv5 = rnorm**-5
    inv7 = rnorm**-7
    u = 1.0 - 3.0 * (s / rnorm) ** 2
    eye = np.eye(3)
    mm = np.outer(m_hat, m_hat)
    mr = m_hat[None, :, None] * rvec[:, None, :] + rvec[:, :, None] * m_hat[None, None, :]
    rr = rvec[:, :, None] * rvec[:, None, :]
    return v_dd * (
        ((2.0 - 5.0 * u) * inv5)[:, None, None] * eye
        - (6.0 * inv5)[:, None, None] * mm
        + (30.0 * s * inv7)[:, None, None] * mr
        + ((35.0 * u - 20.0) * inv7)[:, None, None] * rr
    )


def _energy_components(positions, centers, nu, mass, m_hat, v_dd):
    """(trap, dipole) energy parts for explicit positions and trap centers."""
    disp = positions - centers
    trap = 0.5 * mass * float(np.sum((nu[None, :] * disp) ** 2))
    return trap, _dipole_energy(positions, m_hat, v_dd)


def total_energy(config: Configuration, spec: ChainSpec) -> EnergyReport:
    """Trap plus dipolar energy of a configuration of the given chain."""
    if config.n_atoms != spec.n_atoms:
        raise ValueError(
            f"configuration has {config.n_atoms} atoms, spec expects {spec.n_atoms}"
        )
    centers = trap_centers(spec).positions
    trap, dip = _energy_components(
        config.positions, centers, spec.nu_array, spec.mass, spec.m_hat, spec.v_dd
    )
    return EnergyReport(total=trap + dip, trap_part=trap, dipole_part=dip)


def gradient(config: Configuration, spec: ChainSpec) -> np.ndarray:
    """Analytic dV/dR, flattened in (cell, base, x/y/z) order."""
    positions = config.positions
    centers = trap_centers(spec).positions
    nu2 = spec.nu_array**2
    grad = spec.mass * nu2[None, :] * (positions - centers)
    if spec.v_dd != 0.0 and positions.shape[0] > 1:
        iu, ju, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
        g = _pair_gradients(rvec, rnorm, s, spec.m_hat, spec.v_dd)
        np.add.at(grad, iu, g)
        np.add.at(grad, ju, -g)
    return grad.reshape(-1)


def hessian(config: Configuration, spec: ChainSpec) -> np.ndarray:
    """Analytic d2V/dR2 as a symmetric (3N, 3N) matrix.

    Written in place through its (N, 3, N, 3) view: each off-diagonal block
    once, as 0 - H_pair (which keeps +0.0 entries +0.0), and each diagonal
    block as np.add.at sums over the pairs' first atoms, then their second
    ones.  Raises NonFiniteMatrixError if an entry is not finite (extreme
    spacings overflow the pair formula).
    """
    positions = config.positions
    n = positions.shape[0]
    hess = np.zeros((3 * n, 3 * n))
    if spec.v_dd != 0.0 and n > 1:
        iu, ju, rvec, rnorm, s = _pair_geometry(positions, spec.m_hat)
        hp = np.empty((len(iu), 3, 3))
        for lo in range(0, len(iu), _PAIR_CHUNK):
            pairs = slice(lo, lo + _PAIR_CHUNK)
            hp[pairs] = _pair_hessians(rvec[pairs], rnorm[pairs], s[pairs],
                                       spec.m_hat, spec.v_dd)
        blocks = hess.reshape(n, 3, n, 3)
        # triu_indices lists the pairs (i, j > i) row by row
        start = 0
        for i in range(n - 1):
            row = hp[start:start + n - 1 - i]
            np.subtract(0.0, row.transpose(1, 0, 2), out=blocks[i, :, i + 1:, :])
            np.subtract(0.0, row, out=blocks[i + 1:, :, i, :])
            start += n - 1 - i
        # a flat (N * 9) target takes np.add.at's fast one-dimensional path;
        # chunks of pairs, in order, keep its index arrays small
        self_blocks = np.zeros(9 * n)
        for atoms in (iu, ju):
            for lo in range(0, len(iu), _PAIR_CHUNK):
                pairs = slice(lo, lo + _PAIR_CHUNK)
                np.add.at(self_blocks, (9 * atoms[pairs, None] + np.arange(9)).ravel(),
                          hp[pairs].ravel())
        diag = np.arange(n)
        blocks[diag, :, diag, :] = self_blocks.reshape(n, 3, 3)
    trap_diag = np.tile(spec.mass * spec.nu_array**2, n)
    hess[np.diag_indices(3 * n)] += trap_diag
    _require_finite(hess, "Hessian")
    return hess


def _require_finite(matrix: np.ndarray, what: str) -> None:
    """Raise NonFiniteMatrixError naming the first non-finite entry of matrix."""
    bad = ~np.isfinite(matrix)
    if bad.any():
        where = tuple(int(k) for k in np.argwhere(bad)[0])
        raise NonFiniteMatrixError(
            f"{what} entry {where} is {matrix[where]}; the spacings overflow the "
            f"dipole-dipole formula"
        )


def fd_gradient(config: Configuration, spec: ChainSpec, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the total energy (test oracle)."""
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = config.positions.reshape(-1)

    def energy(c: int, shift: float) -> float:
        x = x0.copy()
        x[c] += shift
        return total_energy(Configuration(x.reshape(-1, 3)), spec).total

    out = np.empty_like(x0)
    for c in range(x0.size):
        out[c] = (energy(c, step) - energy(c, -step)) / (2.0 * step)
    return out


def fd_hessian(config: Configuration, spec: ChainSpec, step: float = 1e-4) -> np.ndarray:
    """Central differences of the analytic gradient (test oracle)."""
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = config.positions.reshape(-1)
    n3 = x0.size
    out = np.empty((n3, n3))
    for c in range(n3):
        x = x0.copy()
        x[c] += step
        gp = gradient(Configuration(x.reshape(-1, 3)), spec)
        x[c] -= 2.0 * step
        gm = gradient(Configuration(x.reshape(-1, 3)), spec)
        out[:, c] = (gp - gm) / (2.0 * step)
    return out
