"""Stability certificates for small complex potentials.

Walks through the quantitative certificate: compute the weighted norm of a
potential, compare against the closed-form constant, and print the verdict
for a range of coupling strengths straddling the threshold.
"""

import numpy as np

from spectralcert import PotentialSpec, WeightSpec, certify
from spectralcert.enclosure import c1_constant, c2_constant, c3_constant

rho = WeightSpec("rho2", eps=0.5, delta=0.5)

# the closed-form constants for dimension 3, mass 1, with the analytic
# weight-norm bounds (2, 1)
C1 = c1_constant(3, 1.0, 2.0, 1.0)
print(f"C1 = {C1:.6g}   C2 = {c2_constant(3):.6g}   C3 = {c3_constant(3, 2.0, 1.0):.6g}")
print(f"certifiable coupling threshold ~ 1/C1 = {1.0 / C1:.3e}\n")

print(f"{'coupling':>12} {'norm upper':>12} {'C1 * norm':>12}  verdict")
for c in np.geomspace(1e-7, 1e-4, 7):
    V = PotentialSpec.preset("inverse-square", 3, 4, c=c)
    cert = certify("2.3", V, m=1.0, rho=rho)
    print(f"{c:12.3e} {cert.norm_upper:12.4e} "
          f"{cert.constant * cert.norm_upper:12.4e}  {cert.verdict}")

print("\nThe same potential with a complex coupling (non-self-adjoint "
      "perturbation) certifies identically: only |V| enters the norms.")
V = PotentialSpec.preset("inverse-square", 3, 4, c=3e-6 * (1 + 1j) / np.sqrt(2))
cert = certify("2.3", V, m=1.0, rho=rho)
print(f"c = 3e-6 * e^(i pi/4): verdict = {cert.verdict}, "
      f"C1 * norm = {cert.constant * cert.norm_upper:.4e}")
