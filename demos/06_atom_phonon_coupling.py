"""Momentum-resolved atom-phonon coupling and the two-band crossover.

Only motion along the chain couples to the atoms, weighted by 1/sqrt(omega)
and shaped by the Wannier form factor rho0 and the two-sublattice phase
structure.  At d = 2.5 the longitudinal weight is carried by two bands;
shrinking d spreads it over more bands.
"""

import numpy as np

from rydphon import (
    ChainSpec,
    band_structure,
    coupled_bands,
    coupling_grid,
    rho0,
)

print("Wannier form factor rho0(q d):")
for x in (0.0, np.pi / 2, np.pi, 2 * np.pi):
    print(f"  q d = {x:.3f}: rho0 = {rho0(x / 2.0, 2.0):.6f}")

for d in (2.5, 2.0, 1.5):
    spec = ChainSpec(n_cells=7, d=d)
    grid = coupling_grid(band_structure(spec))
    labels, q_star, fractions = coupled_bands(grid)
    print(f"\nd = {d}: per-band max |M| = {np.round(grid.m_abs.max(axis=0), 4)}")
    print(f"  power fractions at the peak momentum (q* = {q_star:+.3f}): "
          f"{np.round(fractions, 4)}")
    print(f"  coupled bands (5% of peak power): {labels} -> "
          f"{'two-band' if len(labels) == 2 else 'multi-band'} regime")

grid = coupling_grid(band_structure(ChainSpec(n_cells=7, d=2.0)))
k0 = int(np.argmin(np.abs(grid.q_grid)))
print("\n|M| vanishes identically at q = 0:", grid.m_abs[k0].max())
