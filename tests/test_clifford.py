import numpy as np
import pytest

from spectralcert.clifford import CliffordRep, build_clifford, anticommutator_defect, dirac_symbol


@pytest.mark.parametrize("n,N", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8)])
def test_sizes_and_relations(n, N):
    rep = build_clifford(n)
    assert rep.N == N
    assert len(rep.alphas) == n + 1
    assert anticommutator_defect(rep) <= 1e-12


def test_matrices_hermitian_unitary():
    rep = build_clifford(4)
    for a in rep.alphas:
        assert np.allclose(a, a.conj().T)
        assert np.allclose(a @ a, np.eye(rep.N))


def test_n5_exhaustive_pairs():
    # oracle: direct matrix multiplication over all 15 distinct pairs
    rep = build_clifford(5)
    pairs = 0
    for j in range(6):
        for k in range(j + 1, 6):
            anti = rep.alphas[j] @ rep.alphas[k] + rep.alphas[k] @ rep.alphas[j]
            assert np.abs(anti).max() <= 1e-12
            pairs += 1
    assert pairs == 15
    for a in rep.alphas:
        assert np.abs(a @ a - np.eye(8)).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spare_generator_for_odd_n(n):
    rep = build_clifford(n)
    if n % 2 == 0:
        assert rep.spare is None  # every matrix of the construction is in use
        return
    e, eye = rep.spare, np.eye(rep.N)
    assert np.array_equal(e, e.conj().T)
    assert np.abs(e @ e - eye).max() <= 1e-12
    for a in rep.alphas:
        assert np.abs(a @ e + e @ a).max() <= 1e-12
    with pytest.raises(ValueError):
        e[0, 0] = 2.0  # shared, so read-only


def test_defect_of_broken_rep():
    rep = build_clifford(3)
    broken = CliffordRep(n=3, N=4, alphas=(rep.alphas[0], np.eye(4, dtype=complex),
                                           rep.alphas[2], rep.alphas[3]))
    # alpha0*I + I*alpha0 = 2 alpha0, entrywise max 2
    assert anticommutator_defect(broken) == pytest.approx(2.0)


def test_deterministic_construction():
    a = build_clifford(5)
    b = build_clifford(5)
    for x, y in zip(a.alphas, b.alphas):
        assert np.array_equal(x, y)


def test_built_once_and_read_only():
    rep = build_clifford(3)
    assert build_clifford(3) is rep
    for a in rep.alphas:
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    with pytest.raises(TypeError):
        build_clifford(True)  # not served from the entry for n = 1


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_clifford(0)
    with pytest.raises(TypeError):
        build_clifford(2.5)


def test_symbol_identity_random():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4):
        rep = build_clifford(n)
        for _ in range(25):
            xi = rng.normal(size=n) * 5.0
            m = abs(rng.normal()) * 3.0
            M = dirac_symbol(rep, xi, m)
            target = (xi @ xi + m ** 2) * np.eye(rep.N)
            assert np.abs(M @ M - target).max() <= 1e-10


def test_symbol_batch_shape():
    rep = build_clifford(3)
    xi = np.random.default_rng(0).normal(size=(7, 3))
    M = dirac_symbol(rep, xi, 0.5)
    assert M.shape == (7, 4, 4)
    one = dirac_symbol(rep, xi[2], 0.5)
    assert np.allclose(M[2], one)
