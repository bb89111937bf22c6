"""Stationary points of the chain potential.

The finite chain is relaxed in all 3N coordinates, the infinite (bulk)
chain under the ansatz that every cell shares the per-base displacements
(delta_A, delta_B).  Both run one descent, ``_newton_descent``: capped
Newton steps from the analytic gradient and Hessian, each accepted once
an Armijo backtracking search has lowered the energy.  ``relax_finite``
returns the Hessian at the solution with the relaxed positions; the
relaxed finite spectrum and local-phonon model use it as their harmonic
matrix, so each relaxed chain's Hessian is built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAtomsError, MaxIterExceededError, NonConvergedCutoffError
from .geometry import ChainSpec, Configuration, base_offsets, trap_centers
from .potential import (
    MIN_SEPARATION,
    _pair_gradients,
    _pair_hessians,
    _require_finite,
    gradient,
    hessian,
    total_energy,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_BULK_TOL = 1e-8
DEFAULT_CUTOFF_CELLS = 32


def relax_finite(
    spec: ChainSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Configuration:
    """Relax a finite chain from the trap centers until ||dV/dR||_inf < tol.

    The returned configuration carries the Hessian at the solution; its
    ``stable`` flag and ``min_hessian_eigenvalue`` are computed from it on
    first use.
    """

    def evaluate(x):
        config = Configuration(x.reshape(-1, 3))
        return (total_energy(config, spec).total,
                lambda: (gradient(config, spec), hessian(config, spec)))

    x, residual, hess, n_iter, history = _newton_descent(
        trap_centers(spec).positions.reshape(-1).copy(), evaluate, _step_cap(spec),
        tol, max_iter, "finite", lambda x, residual: Configuration(x.reshape(-1, 3), residual),
    )
    return Configuration(x.reshape(-1, 3), residual, relaxed=True, n_iterations=n_iter,
                         energy_history=tuple(history), hessian=hess)


def _newton_descent(x, evaluate, cap, tol, max_iter, what, iterate):
    """Capped Newton descent with Armijo backtracking on the flat vector x.

    evaluate(x) returns (energy, derivatives); derivatives() gives the
    (gradient, Hessian) at x and is called only at accepted points, where
    a non-finite gradient raises NonFiniteMatrixError.  Returns
    (x, residual, Hessian at x, iterations, energy history) once
    ||gradient||_inf < tol; a failure's last_iterate is iterate(x, residual).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    energy, derivatives = evaluate(x)
    grad, hess = derivatives()
    _require_finite(grad, f"{what} gradient")
    history = [energy]
    residual = float(np.abs(grad).max())
    n_iter = 0
    while residual >= tol:
        if n_iter >= max_iter:
            raise MaxIterExceededError(
                f"{what} relaxation did not reach tol={tol:g} in {max_iter} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
                last_iterate=iterate(x, residual),
            )
        step = _newton_direction(hess, grad)
        biggest = float(np.abs(step).max())
        if biggest > cap:
            step = step * (cap / biggest)
        slope = float(grad @ step)
        alpha = 1.0
        while alpha > 1e-14:
            trial = x + alpha * step
            e_new, derivatives = evaluate(trial)
            if e_new <= energy + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise MaxIterExceededError(
                f"{what} line search failed to decrease the energy",
                residual=residual,
                last_iterate=iterate(x, residual),
            )
        x, energy = trial, e_new
        history.append(energy)
        grad, hess = derivatives()
        _require_finite(grad, f"{what} gradient")
        residual = float(np.abs(grad).max())
        n_iter += 1
    return x, residual, hess, n_iter, history


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step, shifted toward steepest descent if the Hessian is indefinite."""
    try:
        np.linalg.cholesky(hess)
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(hess).min())
        shift = 1.1 * abs(min_eig) + 1e-8
        return np.linalg.solve(hess + shift * np.eye(hess.shape[0]), -grad)


def _step_cap(spec: ChainSpec) -> float:
    """Per-iteration displacement cap keeping iterates in the local basin.

    The dipolar energy is unbounded below at contact, so the physical
    equilibrium is only a local minimum; uncapped Newton steps can tunnel
    straight into the collapse basin.
    """
    scale = spec.d if spec.delta <= 0 else min(spec.d, spec.delta)
    return 0.2 * scale


@dataclass(frozen=True)
class BulkEquilibrium:
    """Per-base displacements of the translationally invariant chain."""

    delta_a: np.ndarray  # (3,)
    delta_b: np.ndarray  # (3,)
    residual_inf_norm: float
    cutoff_cells: int
    n_iterations: int

    @property
    def deltas(self) -> np.ndarray:
        return np.vstack([self.delta_a, self.delta_b])


def _bulk_partner_table(spec: ChainSpec, cutoff_cells: int):
    """Partner offsets seen by each reference base atom, before displacements.

    Returns one pair (rel, beta_of) per base alpha: row r of rel is the
    partner's position minus the cell-0 base-alpha one at zero displacement,
    and beta_of[r] the partner's base, whose delta moves it; same-sublattice
    partners do not move relative to the reference atom.
    """
    offs = base_offsets(spec)
    cells = np.arange(-cutoff_cells, cutoff_cells + 1)
    tables = []
    for alpha in range(2):
        rel, beta_of = [], []
        for beta in range(2):
            n = cells[(cells != 0) | (beta != alpha)]
            rel.append(n[:, None] * spec.a * np.array([0.0, 0.0, 1.0]) + offs[beta] - offs[alpha])
            beta_of.append(np.full(len(n), beta))
        tables.append((np.concatenate(rel), np.concatenate(beta_of)))
    return tables


def _bulk_energy_force_hessian(deltas: np.ndarray, spec: ChainSpec, tables):
    """Per-cell energy, its gradient (minus the force) and 6x6 Hessian.

    The per-cell Hessian coincides with the q=0 dynamical matrix, so the
    descent below converges precisely when the uniform phonon modes are
    stable.
    """
    m_hat = spec.m_hat
    nu2 = spec.nu_array**2
    energy = 0.5 * spec.mass * float(np.sum(nu2 * deltas**2))
    grad = spec.mass * nu2 * deltas
    hess = np.zeros((6, 6))
    hess[np.diag_indices(6)] += np.tile(spec.mass * nu2, 2)
    for alpha in range(2):
        rel, beta_of = tables[alpha]
        rvec = deltas[alpha] - (rel + deltas[beta_of])
        # rvec = R_{0,alpha} - R_{n,beta}; same-sublattice rows keep rvec = -rel
        rnorm = np.linalg.norm(rvec, axis=1)
        if float(rnorm.min()) < MIN_SEPARATION:
            raise CoincidentAtomsError(
                "bulk displacements drove two sublattices onto each other"
            )
        s = rvec @ m_hat
        energy += 0.5 * spec.v_dd * float(np.sum((rnorm**2 - 3.0 * s**2) / rnorm**5))
        grad[alpha] += _pair_gradients(rvec, rnorm, s, m_hat, spec.v_dd).sum(axis=0)
        hps = _pair_hessians(rvec, rnorm, s, m_hat, spec.v_dd)
        other = 1 - alpha
        h_cross = hps[beta_of == other].sum(axis=0)
        a0, b0 = 3 * alpha, 3 * other
        hess[a0:a0 + 3, a0:a0 + 3] += h_cross
        hess[a0:a0 + 3, b0:b0 + 3] -= h_cross
    return energy, grad, hess


def _solve_bulk(spec: ChainSpec, tol: float, cutoff_cells: int, max_iter: int):
    """Newton descent of the per-cell energy over (delta_A, delta_B)."""
    tables = _bulk_partner_table(spec, cutoff_cells)

    def evaluate(x):
        energy, grad, hess = _bulk_energy_force_hessian(x.reshape(2, 3), spec, tables)
        return energy, lambda: (grad.reshape(-1), hess)

    x, residual, _, n_iter, _ = _newton_descent(
        np.zeros(6), evaluate, _step_cap(spec), tol, max_iter, "bulk",
        lambda x, residual: x.reshape(2, 3),
    )
    return x.reshape(2, 3), residual, n_iter


def relax_bulk(
    spec: ChainSpec,
    tol: float = DEFAULT_BULK_TOL,
    cutoff_cells: int = DEFAULT_CUTOFF_CELLS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BulkEquilibrium:
    """Displacements (delta_A, delta_B) of the infinite chain under the
    ansatz that every cell moves identically.

    Neighbor sums run over |n| <= cutoff_cells.  The solve is repeated at
    twice the cutoff and NonConvergedCutoffError is raised if the answer
    moves by more than 10*tol.
    """
    if cutoff_cells < 1:
        raise ValueError("cutoff_cells must be >= 1")
    deltas, residual, n_iter = _solve_bulk(spec, tol, cutoff_cells, max_iter)
    deltas2, _, _ = _solve_bulk(spec, tol, 2 * cutoff_cells, max_iter)
    drift = float(np.abs(deltas2 - deltas).max())
    if drift > 10.0 * tol:
        raise NonConvergedCutoffError(
            f"doubling cutoff_cells from {cutoff_cells} moved the bulk displacements "
            f"by {drift:.3e} (> 10*tol = {10 * tol:.3e}); increase cutoff_cells or tol"
        )
    return BulkEquilibrium(
        delta_a=deltas[0].copy(),
        delta_b=deltas[1].copy(),
        residual_inf_norm=residual,
        cutoff_cells=cutoff_cells,
        n_iterations=n_iter,
    )
