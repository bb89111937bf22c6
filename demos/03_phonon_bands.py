"""Bulk phonon bands: dispersion, crossings, concavity and flattening.

Six bands disperse around the trap frequency.  Sweeping the spacing d
changes the band shapes: bands cross (the transverse y band threads
through the in-plane ones), the lowest and highest bands flip concavity
between d = 1.65 and 1.85, and the lowest band is flattest near d = 1.7.
"""

import numpy as np

from rydphon import ChainSpec, band_diagnostics, band_structure

for d in (1.5, 2.0, 2.5):
    spec = ChainSpec(n_cells=7, d=d)
    bands = band_structure(spec)
    diag = band_diagnostics(bands)
    print(f"d = {d}:")
    for j in range(6):
        lo, hi = bands.omega[:, j].min(), bands.omega[:, j].max()
        print(f"  band {j+1}: [{lo:.4f}, {hi:.4f}]  width {diag.bandwidth[j]:.4f}")
    print("  tracked crossing pairs:", diag.crossing_pairs)

print("\nconcavity of bands 1 and 6 vs d (sign of the P2 moment over |q| <= pi/(2a)):")
print("   d    band1 band6   width(band1)")
for d in np.arange(1.5, 1.91, 0.05):
    diag = band_diagnostics(band_structure(ChainSpec(n_cells=7, d=round(float(d), 2))))
    print(f"  {d:4.2f}   {int(diag.concavity[0]):+d}    {int(diag.concavity[5]):+d}     {diag.bandwidth[0]:.4f}")
print("both bands flip sign once between 1.65 and 1.70; the band-1 width")
print("shrinks toward the flip and grows again beyond it (flat band at the transition)")
