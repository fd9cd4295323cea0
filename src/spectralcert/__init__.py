"""Numerical toolkit for spectral stability of perturbed Dirac and Klein-Gordon operators.

The library turns explicit resolvent-estimate constants into executable
spectral certificates (stability declarations and eigenvalue-enclosure
disks) and cross-validates them at desk scale by discretizing the free
operators as Fourier multipliers on a periodic box, assembling the
perturbed operator, and scanning the Birman-Schwinger operator norm over
the complex plane.
"""

from .clifford import CliffordRep, build_clifford, anticommutator_defect, dirac_symbol
from .potential import PotentialSpec, polar_factors
from .profiles import Profile
from .weights import WeightSpec, NormResult, dyadic_norm, morrey_norms
from .enclosure import Certificate, DiskPair, potential_norm, certify, enclosure_disks
from .gridops import (GridSpec, FieldOnGrid, apply_free_operator, apply_free_resolvent,
                      assemble_perturbed, dense_spectrum, eigenvalues)
from .birman_schwinger import BSScan, NormEstimate, bs_apply, bs_norm, bs_scan, bs_dense
from .bench import BenchReport, run_bench

__version__ = "0.1.0"
