"""Relax finite chains and the translationally invariant bulk.

The dipolar forces push atoms away from the tweezer centers.  Both
solvers run the same descent: capped Newton steps, each accepted only
once a backtracking line search has lowered the energy.  The finite
solver moves all 3N coordinates; the bulk solver moves the six per-cell
displacement coordinates (delta_A, delta_B).  With a = 2d on the default
chain, the symmetric equilibrium exists only for d >= 1.883584 (bulk) and
d >= 1.884485 (7-cell chain); below that the chain collapses, which is why
the band pipeline defaults to bare trap centers.
"""

import numpy as np

from rydphon import ChainSpec, MaxIterExceededError, relax_bulk, relax_finite, total_energy, trap_centers
from rydphon.errors import CoincidentAtomsError

spec = ChainSpec(n_cells=7, d=2.0)

cfg = relax_finite(spec)
print(f"finite chain: {cfg.n_iterations} Newton steps, residual {cfg.residual_inf_norm:.2e}")
print(f"stable: {cfg.stable} (smallest Hessian eigenvalue {cfg.min_hessian_eigenvalue:+.4f})")
print("energy trap-centers -> relaxed:",
      total_energy(trap_centers(spec), spec), "->", total_energy(cfg, spec))

disp = cfg.positions - trap_centers(spec).positions
print("largest displacement:", np.abs(disp).max())

eq = relax_bulk(spec)
print("\nbulk displacements: delta_A =", eq.delta_a, " delta_B =", eq.delta_b)
print("mirror symmetry: delta_B = (-dx, dy, -dz) of delta_A")

print("\npushing to small d:")
for d in (1.95, 1.9, 1.85):
    try:
        eq = relax_bulk(spec.with_(d=d, a=2 * d))
        print(f"  d={d}: delta_A_z = {eq.delta_a[2]:+.4f}")
    except (MaxIterExceededError, CoincidentAtomsError) as exc:
        print(f"  d={d}: no symmetric equilibrium ({type(exc).__name__})")

soft = ChainSpec(n_cells=4, d=2.0, nu=(1.0, 0.1, 1.0))
cfg = relax_finite(soft)
print(f"\nsoft y traps (nu_y=0.1): converged but stable={cfg.stable} "
      f"(min eigenvalue {cfg.min_hessian_eigenvalue:+.4f}) - an unstable equilibrium flag")
