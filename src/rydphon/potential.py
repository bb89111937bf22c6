"""Potential energy of the trapped dipolar chain, with analytic derivatives.

The energy is a sum of per-atom harmonic tweezer terms and anisotropic
dipole-dipole pair terms v_dd * [1 - 3 (m.r_hat)^2] / r^3.  Pairs are
summed once each (unordered); any double-count convention is absorbed
into v_dd.  Analytic gradient and Hessian are the primary path; the
finite-difference versions exist as independent test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentAtomsError, NonFiniteMatrixError
from .geometry import ChainSpec, Configuration, trap_centers

MIN_SEPARATION = 1e-9
_PAIR_CHUNK = 4096  # pairs per step of hessian's pair loops, so temporaries stay small


def _separations(rvec: np.ndarray, m_hat: np.ndarray, name):
    """(rnorm, s): norms and m-projections of the (P, 3) separations rvec.  The
    first pair closer than MIN_SEPARATION raises CoincidentAtomsError, named by
    name(k); every dipolar pair sum, finite or bulk, reads its pairs here."""
    rnorm = np.linalg.norm(rvec, axis=1)
    close = rnorm < MIN_SEPARATION
    if np.any(close):
        k = int(np.argmax(close))
        raise CoincidentAtomsError(f"{name(k)} coincide (separation {rnorm[k]:.3e})")
    return rnorm, rvec @ m_hat


def _pair_energies(rnorm, s):
    """Each pair's dipolar energy over v_dd, (r^2 - 3 s^2) / r^5."""
    return (rnorm**2 - 3.0 * s**2) / rnorm**5


def _pair_geometry(positions: np.ndarray, m_hat: np.ndarray, pairs=None):
    """Separation vectors, norms and m-projections of the pairs (iu, ju), by default all."""
    iu, ju = np.triu_indices(positions.shape[0], k=1) if pairs is None else pairs
    rvec = positions[iu] - positions[ju]
    rnorm, s = _separations(rvec, m_hat, lambda k: f"atoms {iu[k]} and {ju[k]}")
    return iu, ju, rvec, rnorm, s


def _pairs(positions: np.ndarray, spec: ChainSpec, pairs=None):
    """The _pair_geometry that _energy, _gradient and _hessian read, or None without pairs."""
    if spec.v_dd == 0.0 or positions.shape[0] < 2:
        return None
    return _pair_geometry(positions, spec.m_hat, pairs)


def _pair_gradients(rvec, rnorm, s, m_hat, v_dd):
    """d(pair energy)/d(r) for each pair; force on the first atom is -gradient."""
    inv5 = rnorm**-5
    inv7 = rnorm**-7
    quad = rnorm**2 - 3.0 * s**2
    return v_dd * (
        (2.0 * rvec - 6.0 * s[:, None] * m_hat) * inv5[:, None]
        - 5.0 * quad[:, None] * rvec * inv7[:, None]
    )


# the upper triangle (a <= b) of a 3x3 block, row by row
_UPPER = np.triu_indices(3)


def _pair_hessians(rvec, rnorm, s, m_hat, v_dd):
    """(P, 3, 3) second derivatives of each pair energy with respect to r.

    Entry (a, b) is v_dd * [(2 - 5u)/r^5 delta_ab - 6/r^5 m_a m_b
    + 30 s/r^7 (m_a r_b + r_a m_b) + (35u - 20)/r^7 r_a r_b], u = 1 - 3 s^2/r^2.
    Every product and sum in it is the same with a and b swapped, so the
    block is exactly symmetric: the 6 entries with a <= b are computed and
    mirrored.
    """
    inv5 = rnorm**-5
    inv7 = rnorm**-7
    u = 1.0 - 3.0 * (s / rnorm) ** 2
    a, b = _UPPER
    upper = v_dd * (
        ((2.0 - 5.0 * u) * inv5)[:, None] * np.eye(3)[a, b]
        - (6.0 * inv5)[:, None] * (m_hat[a] * m_hat[b])
        + (30.0 * s * inv7)[:, None] * (m_hat[a] * rvec[:, b] + rvec[:, a] * m_hat[b])
        + ((35.0 * u - 20.0) * inv7)[:, None] * (rvec[:, a] * rvec[:, b])
    )
    out = np.empty((len(rnorm), 3, 3))
    out[:, a, b] = upper
    out[:, b, a] = upper
    return out


def total_energy(config: Configuration, spec: ChainSpec) -> float:
    """Trap plus dipolar energy of a configuration of the given chain."""
    if config.n_atoms != spec.n_atoms:
        raise ValueError(
            f"configuration has {config.n_atoms} atoms, spec expects {spec.n_atoms}"
        )
    positions = config.positions
    return _energy(positions, trap_centers(spec).positions, spec, _pairs(positions, spec))


def gradient(config: Configuration, spec: ChainSpec) -> np.ndarray:
    """Analytic dV/dR, flattened in (cell, base, x/y/z) order."""
    positions = config.positions
    return _gradient(positions, trap_centers(spec).positions, spec, _pairs(positions, spec))


def hessian(config: Configuration, spec: ChainSpec) -> np.ndarray:
    """Analytic d2V/dR2 as a symmetric (3N, 3N) matrix (see ``_hessian``)."""
    hess = np.zeros((config.positions.size,) * 2)  # before the pair arrays: lower peak RSS
    return _hessian(spec, _pairs(config.positions, spec), hess)


def _energy(positions, centers, spec: ChainSpec, geometry) -> float:
    trap = 0.5 * spec.mass * float(np.sum((spec.nu_array[None, :] * (positions - centers)) ** 2))
    if geometry is None:
        return trap
    _, _, _, rnorm, s = geometry
    return trap + float(spec.v_dd * np.sum(_pair_energies(rnorm, s)))


def _gradient(positions, centers, spec: ChainSpec, geometry) -> np.ndarray:
    grad = (spec.mass * spec.nu_array[None, :]**2 * (positions - centers)).reshape(-1)
    if geometry is not None:
        iu, ju, rvec, rnorm, s = geometry
        g = _pair_gradients(rvec, rnorm, s, spec.m_hat, spec.v_dd)
        # a flat (3N,) target takes np.add.at's fast one-dimensional path
        for atoms, part in ((iu, g), (ju, -g)):
            np.add.at(grad, (3 * atoms[:, None] + np.arange(3)).ravel(), part.ravel())
    return grad


def _hessian(spec: ChainSpec, geometry, hess: np.ndarray) -> np.ndarray:
    """hessian from the ``_pairs`` geometry, written into hess and returned.

    Every entry is written in place through the (N, 3, N, 3) view, so hess is
    zeroed only without pairs: each off-diagonal block once, as 0 - H_pair
    (which keeps +0.0 entries +0.0), and each diagonal block as np.add.at sums
    over the pairs' first atoms, then their second ones.  Raises
    NonFiniteMatrixError on a non-finite entry (extreme spacings overflow).
    """
    n = hess.shape[0] // 3
    if geometry is None:
        hess.fill(0.0)
    else:
        iu, ju, rvec, rnorm, s = geometry
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
    hess[np.diag_indices(3 * n)] += np.tile(spec.mass * spec.nu_array**2, n)
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
        return total_energy(Configuration(x.reshape(-1, 3)), spec)

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
