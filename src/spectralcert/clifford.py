"""Anticommuting Hermitian matrices for the Dirac operator in dimension n.

The construction is the standard iterated Pauli tensor product: for
k = ceil(n/2) it yields 2k+1 pairwise anticommuting Hermitian unitaries of
size 2^k, from which the mass matrix (slot 0) and the n kinetic matrices
are taken.  Each n is built once; every caller shares the read-only matrices.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Matrices alpha_0..alpha_n with alpha_j alpha_k + alpha_k alpha_j = 2 delta_jk I.

    alphas[0] is the mass matrix (diagonal, tensor power of pauli-z);
    alphas[1..n] multiply the momentum components.
    """

    n: int
    N: int
    alphas: tuple  # n+1 arrays of shape (N, N)
    spare: np.ndarray = None  # odd n: one more matrix anticommuting with all alphas


def _tensor_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@lru_cache(maxsize=None, typed=True)
def build_clifford(n) -> CliffordRep:
    """Construct the n+1 anticommuting matrices of size N = 2^ceil(n/2).

    For slot i in 1..k the pair (2i-1, 2i) carries pauli-x / pauli-y in
    tensor slot i with pauli-z tails; the mass matrix is the pure pauli-z
    tensor power, so it is diagonal in every dimension.  The result is
    cached per n (``typed`` keeps ``True`` from hitting the entry for 1),
    and its arrays are read-only.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"spatial dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"spatial dimension must be >= 1, got {n}")
    n = int(n)
    k = ceil(n / 2)
    N = 2 ** k
    eye = np.eye(2, dtype=complex)

    kinetic = []
    for i in range(k):
        head = [eye] * i
        tail = [_PAULI_Z] * (k - i - 1)
        kinetic.append(_tensor_chain(head + [_PAULI_X] + tail))
        kinetic.append(_tensor_chain(head + [_PAULI_Y] + tail))
    mass = _tensor_chain([_PAULI_Z] * k)

    for a in [mass] + kinetic:
        a.setflags(write=False)
    return CliffordRep(n=n, N=N, alphas=(mass,) + tuple(kinetic[:n]),
                       spare=kinetic[n] if n % 2 else None)


def anticommutator_defect(rep: CliffordRep) -> float:
    """Largest entrywise violation of the anticommutation relations.

    Returns max over j, k of |a_j a_k + a_k a_j - 2 delta_jk I|_max.
    Zero (to rounding) for a valid representation.
    """
    eye = np.eye(rep.N)
    worst = 0.0
    for j, aj in enumerate(rep.alphas):
        for k, ak in enumerate(rep.alphas):
            anti = aj @ ak + ak @ aj - 2.0 * (j == k) * eye
            worst = max(worst, float(np.max(np.abs(anti))))
    return worst


def dirac_symbol(rep: CliffordRep, xi, m=0.0):
    """Symbol matrix sum_k alpha_k xi_k + m alpha_0 at one or many frequencies.

    xi has shape (n,) or (..., n); the result has shape (..., N, N).
    Its square is (|xi|^2 + m^2) I.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != rep.n:
        raise ValueError(f"frequency has {xi.shape[-1]} components, expected {rep.n}")
    kin = np.stack(rep.alphas[1:], axis=0)  # (n, N, N)
    sym = np.einsum("...k,kab->...ab", xi, kin)
    sym = sym + m * rep.alphas[0]
    return sym
