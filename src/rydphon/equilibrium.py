"""Stationary points of the chain potential.

The finite chain is relaxed in all 3N coordinates, the infinite (bulk)
chain under the ansatz that every cell shares the per-base displacements
(delta_A, delta_B).  Both run one descent, ``_newton_descent``: capped
Newton steps from the analytic gradient and Hessian, each accepted once
an Armijo backtracking search has lowered the energy, up to 8 ulps of it.
``relax_finite`` builds one pair geometry per point for the energy, gradient
and Hessian kernels of ``potential``, fills one Hessian buffer, and returns
it with the positions as the relaxed pipelines' harmonic matrix (built once).
The bulk's sums, like the bands' Bloch blocks, run over one partner list
(``_bulk_partners``) and read ``potential``'s pair kernels.

Each Newton step solves H p = -g with ``np.linalg.solve``, once H is known
to be positive definite.  The proof is tried cheapest first: a Gershgorin
certificate (``_certified_positive_definite``: positive diagonal, strictly
dominant rows, by a margin above rounding), which costs O(n^2) and holds at
every Newton iterate of the relaxable chains; then a Cholesky factorization,
used only as a test; and when that fails, H is shifted by 1.1 |lambda_min|
+ 1e-8 toward steepest descent.  The first two give the same step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAtomsError, MaxIterExceededError, NonConvergedCutoffError
from .geometry import ChainSpec, Configuration, base_offsets, trap_centers
from .potential import (
    _energy,
    _gradient,
    _hessian,
    _pair_energies,
    _pair_gradients,
    _pair_hessians,
    _pairs,
    _require_finite,
    _separations,
)

_TOL = 1e-10       # relax_finite stops once ||dV/dR||_inf < _TOL
_BULK_TOL = 1e-8   # relax_bulk's residual tolerance; its cutoff check allows 10 * _BULK_TOL
_MAX_ITER = 200    # Newton iterations either relaxation may take
_CUTOFF_CELLS = 32  # every bulk lattice sum runs over cells |n| <= _CUTOFF_CELLS


def relax_finite(spec: ChainSpec) -> Configuration:
    """Relax a finite chain from the trap centers until ||dV/dR||_inf < 1e-10
    (``_TOL``), in at most 200 Newton iterations (``_MAX_ITER``); more raise
    MaxIterExceededError.  Below the relaxed-existence edge the descent drives
    two atoms together: CoincidentAtomsError then says no equilibrium was found.

    The returned configuration carries the Hessian at the solution; its
    ``stable`` flag and ``min_hessian_eigenvalue`` are computed on first use.
    """
    centers = trap_centers(spec).positions
    pairs = np.triu_indices(spec.n_atoms, 1)
    hess = np.empty((centers.size, centers.size))  # every accepted point's Hessian

    def evaluate(x):
        positions = x.reshape(-1, 3)
        geometry = _pairs(positions, spec, pairs)
        return (_energy(positions, centers, spec, geometry),
                lambda: (_gradient(positions, centers, spec, geometry),
                         _hessian(spec, geometry, hess)))

    try:
        x, residual, hess, n_iter, history = _newton_descent(
            centers.reshape(-1).copy(), evaluate, _step_cap(spec), _TOL, "finite",
            lambda x, residual: Configuration(x.reshape(-1, 3), residual))
    except CoincidentAtomsError as exc:
        raise _no_equilibrium("", spec, exc) from exc
    return Configuration(x.reshape(-1, 3), residual, relaxed=True, n_iterations=n_iter,
                         energy_history=tuple(history), hessian=hess)


def _no_equilibrium(what: str, spec: ChainSpec, exc: CoincidentAtomsError):
    """The error a relaxation raises, from exc, when its descent drives two atoms together."""
    return CoincidentAtomsError(f"no symmetric {what}equilibrium found at d={spec.d:g}: "
                                f"{exc}; see the README's relaxed-existence edges")


def _newton_descent(x, evaluate, cap, tol, what, iterate):
    """Capped Newton descent with Armijo backtracking on the flat vector x.

    evaluate(x) returns (energy, derivatives); derivatives() gives the
    (gradient, Hessian) at x and is called only at accepted points, where
    a non-finite gradient raises NonFiniteMatrixError.  Returns (x, residual,
    Hessian at x, iterations, energy history) once ||gradient||_inf < tol, in at
    most _MAX_ITER iterations; a failure's last_iterate is iterate(x, residual).

    A trial point is accepted when e_new <= energy + 1e-4 alpha slope
    + 8 eps |energy|.  Near convergence the Armijo decrease lies far below
    the rounding of the energy itself; without the slack of a few ulps of
    |energy|, rounding decided whether a full Newton step passed, and chains
    that do relax stalled just above tol (the same slack as the "approximate
    Wolfe" test of Hager and Zhang, SIAM J. Optim. 16, 170 (2005)).
    """
    energy, derivatives = evaluate(x)
    history = [energy]
    n_iter = 0
    while True:
        grad, hess = derivatives()
        _require_finite(grad, f"{what} gradient")
        residual = float(np.abs(grad).max())
        if residual < tol:
            return x, residual, hess, n_iter, history
        if n_iter >= _MAX_ITER:
            raise MaxIterExceededError(
                f"{what} relaxation did not reach tol={tol:g} in {_MAX_ITER} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
                last_iterate=iterate(x, residual),
            )
        step = _newton_direction(hess, grad)
        biggest = float(np.abs(step).max())
        if biggest > cap:
            step = step * (cap / biggest)
        slope = float(grad @ step)
        slack = 8.0 * np.finfo(float).eps * abs(energy)
        alpha = 1.0
        while alpha > 1e-14:
            trial = x + alpha * step
            e_new, derivatives = evaluate(trial)
            if e_new <= energy + 1e-4 * alpha * slope + slack:
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
        n_iter += 1


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step, shifted toward steepest descent if the Hessian is indefinite.

    The step is ``np.linalg.solve(hess, -grad)`` when hess is positive
    definite: proved first by ``_certified_positive_definite``, and only when
    that certificate fails by ``np.linalg.cholesky``, whose factor is not
    used.  A certified matrix is one whose Cholesky factorization succeeds,
    so both proofs give the same step.  Otherwise (including a NaN entry)
    hess is shifted by 1.1 |lambda_min| + 1e-8 before the solve.
    """
    try:
        if not _certified_positive_definite(hess):
            np.linalg.cholesky(hess)
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(hess).min())
        shift = 1.1 * abs(min_eig) + 1e-8
        return np.linalg.solve(hess + shift * np.eye(hess.shape[0]), -grad)


def _certified_positive_definite(hess: np.ndarray) -> bool:
    """True when a Gershgorin test proves that np.linalg.cholesky(hess) succeeds.

    Cholesky reads only the lower triangle, so the test is made on the
    symmetric matrix S it defines: every row of S must have a diagonal entry
    above the sum r_i of its off-diagonal magnitudes by more than
    tol = 2 (n+1)^2 eps max_i(|s_ii| + r_i).  A symmetric matrix with a positive
    diagonal and strictly dominant rows is positive definite.  The margin
    covers the rounding of the row sums (at most n eps r_i), and beyond it
    lambda_min(D^-1/2 S D^-1/2) >= min_i(s_ii - r_i) / max_i s_ii exceeds
    Demmel's n(n+1) eps bound under which floating-point Cholesky runs to
    completion (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10).  A NaN or infinite entry fails the comparison.  Costs O(n^2),
    against O(n^3) for the factorization.
    """
    n = hess.shape[0]
    lower = np.tril(hess, -1)
    np.abs(lower, out=lower)
    radius = lower.sum(axis=1) + lower.sum(axis=0)
    diag = hess.diagonal()
    tol = 2.0 * (n + 1) ** 2 * np.finfo(float).eps * float((np.abs(diag) + radius).max())
    return bool(np.all(diag - radius > tol))


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
    n_iterations: int

    @property
    def deltas(self) -> np.ndarray:
        return np.vstack([self.delta_a, self.delta_b])


def _bulk_partners(cutoff_cells: int):
    """Per base alpha, the cells n and bases beta of its partners in the bulk
    sums: every atom of cells |n| <= cutoff_cells but alpha of cell 0, by beta,
    then n."""
    n = np.tile(np.arange(-cutoff_cells, cutoff_cells + 1), 2)
    beta = np.repeat([0, 1], 2 * cutoff_cells + 1)
    keeps = ((n != 0) | (beta != alpha) for alpha in range(2))
    return [(n[keep], beta[keep]) for keep in keeps]


def _bulk_energy_force_hessian(deltas: np.ndarray, spec: ChainSpec, partners):
    """Per-cell energy, its gradient (minus the force) and 6x6 Hessian, summed
    over the ``_bulk_partners`` with ``potential``'s pair kernels; only the
    cross-sublattice rows, which the Hessian reads, get pair Hessians.

    The per-cell Hessian coincides with the q=0 dynamical matrix, so the
    descent below converges precisely when the uniform phonon modes are
    stable.
    """
    m_hat = spec.m_hat
    nu2 = spec.nu_array**2
    offs = base_offsets(spec)
    energy = 0.5 * spec.mass * float(np.sum(nu2 * deltas**2))
    grad = spec.mass * nu2 * deltas
    hess = np.zeros((6, 6))
    hess[np.diag_indices(6)] += np.tile(spec.mass * nu2, 2)
    for alpha, (n, beta) in enumerate(partners):
        # rvec = R_{0,alpha} - R_{n,beta}; same-sublattice rows keep rvec = -rel
        rel = n[:, None] * spec.a * np.array([0.0, 0.0, 1.0]) + offs[beta] - offs[alpha]
        rvec = deltas[alpha] - (rel + deltas[beta])
        rnorm, s = _separations(rvec, m_hat, lambda k: (
            f"bulk bases {'AB'[alpha]} of cell 0 and {'AB'[beta[k]]} of cell {n[k]}"))
        energy += 0.5 * spec.v_dd * float(np.sum(_pair_energies(rnorm, s)))
        grad[alpha] += _pair_gradients(rvec, rnorm, s, m_hat, spec.v_dd).sum(axis=0)
        cross = beta != alpha
        h_cross = _pair_hessians(rvec[cross], rnorm[cross], s[cross], m_hat,
                                 spec.v_dd).sum(axis=0)
        a0, b0 = 3 * alpha, 3 * (1 - alpha)
        hess[a0:a0 + 3, a0:a0 + 3] += h_cross
        hess[a0:a0 + 3, b0:b0 + 3] -= h_cross
    return energy, grad, hess


def _solve_bulk(spec: ChainSpec, tol: float, cutoff_cells: int):
    """Newton descent of the per-cell energy over (delta_A, delta_B)."""
    partners = _bulk_partners(cutoff_cells)

    def evaluate(x):
        energy, grad, hess = _bulk_energy_force_hessian(x.reshape(2, 3), spec, partners)
        return energy, lambda: (grad.reshape(-1), hess)

    x, residual, _, n_iter, _ = _newton_descent(
        np.zeros(6), evaluate, _step_cap(spec), tol, "bulk",
        lambda x, residual: x.reshape(2, 3),
    )
    return x.reshape(2, 3), residual, n_iter


def _cutoff_drift(deltas: np.ndarray, spec: ChainSpec) -> float:
    """max |H_64^-1 (g_64 - g_32)(deltas)|: how far doubling the cutoff would
    move the displacements deltas solved at _CUTOFF_CELLS, to first order.
    g_64 - g_32 is the force of the tail that the doubled sum adds; the
    solve's own residual is left out, since near the fold H_64^-1 amplifies
    it past the bound.  A non-finite g_64 raises NonFiniteMatrixError."""
    _, g32, _ = _bulk_energy_force_hessian(deltas, spec, _bulk_partners(_CUTOFF_CELLS))
    _, g64, h64 = _bulk_energy_force_hessian(deltas, spec, _bulk_partners(2 * _CUTOFF_CELLS))
    _require_finite(g64.reshape(-1), "bulk gradient")
    return float(np.abs(np.linalg.solve(h64, (g64 - g32).reshape(-1))).max())


def relax_bulk(spec: ChainSpec) -> BulkEquilibrium:
    """Displacements (delta_A, delta_B) of the infinite chain under the
    ansatz that every cell moves identically.

    Neighbor sums run over the fixed cutoff |n| <= 32 (``_CUTOFF_CELLS``),
    as every bulk lattice sum does.  The Newton descent stops once the
    residual is below 1e-8 (``_BULK_TOL``), in at most 200 iterations
    (``_MAX_ITER``).  The solution's first-order response to the tail that
    64 cells add estimates how far doubling the cutoff would move it
    (``_cutoff_drift``), and NonConvergedCutoffError is raised if that is
    more than 10 * 1e-8.
    Below the relaxed-existence edge CoincidentAtomsError says no equilibrium
    was found.
    """
    try:
        deltas, residual, n_iter = _solve_bulk(spec, _BULK_TOL, _CUTOFF_CELLS)
    except CoincidentAtomsError as exc:
        raise _no_equilibrium("bulk ", spec, exc) from exc
    drift = _cutoff_drift(deltas, spec)
    if drift > 10.0 * _BULK_TOL:
        raise NonConvergedCutoffError(
            f"doubling the lattice-sum cutoff from {_CUTOFF_CELLS} cells moved the bulk "
            f"displacements by {drift:.3e} (> 10*tol = {10 * _BULK_TOL:.3e})"
        )
    return BulkEquilibrium(
        delta_a=deltas[0].copy(),
        delta_b=deltas[1].copy(),
        residual_inf_norm=residual,
        n_iterations=n_iter,
    )
