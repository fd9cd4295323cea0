"""Eigenvalue-enclosure disks and a Birman-Schwinger norm scan.

Builds the two enclosure disks for a massive Dirac operator with a small
inverse-square potential, then scans ||K_z|| over a rectangle in the
complex plane and checks the norm stays below 1 away from the real axis.
"""

import numpy as np

from spectralcert import GridSpec, PotentialSpec, bs_scan, enclosure_disks
from spectralcert.enclosure import c2_constant, n1_norm

# tune the coupling so the enclosure condition holds with margin 0.5
base = n1_norm(PotentialSpec.preset("inverse-square", 3, 4, c=1.0)).rigorous_upper()
c = 0.5 / (2.0 * c2_constant(3) * base)
V = PotentialSpec.preset("inverse-square", 3, 4, c=c)

cert = enclosure_disks(V, m=1.0, j=1)
d = cert.disks
print(f"coupling c = {c:.4e}, verdict = {cert.verdict}")
print(f"disks: centres +-{d.x0_plus:.6f}, radius {d.r0:.6f}")
print(f"tangency invariant x0^2 - r0^2 = {d.x0_plus ** 2 - d.r0 ** 2:.12f} "
      f"(should be m^2 = 1)\n")

grid = GridSpec(n=3, L=8.0, M=8, N=4)
print(f"scanning ||K_z|| on a 12x9 lattice over [-2,2]x[-1,1] "
      f"(grid dimension {grid.size})...")
scan = bs_scan("dirac", 1.0, V, grid, (-2.0, 2.0, -1.0, 1.0), (12, 9), seed=0)
print(f"max norm estimate: {np.nanmax(scan.values):.3e}")
box = scan.region_bounding_box()
print(f"region with ||K_z|| >= 1: {'empty' if box is None else box}")
print("-> eigenvalues can only live where the norm reaches 1, so the "
      "point spectrum off the real axis is empty at this coupling.")
