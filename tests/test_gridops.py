import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from spectralcert import gridops
from spectralcert.clifford import build_clifford, dirac_symbol
from spectralcert.gridops import (GridSpec, apply_free_operator, apply_free_resolvent,
                                  apply_gradient, assemble_perturbed, dense_spectrum,
                                  eigenvalues, free_operator, free_spectrum, potential_on_grid,
                                  spinor_size)
from spectralcert.potential import PotentialSpec


def _rand_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(grid.M ** grid.n, grid.N)) \
        + 1j * rng.normal(size=(grid.M ** grid.n, grid.N))
    return grid.field(v)


def _plane_wave(grid, k, spinor=None):
    """exp(i xi_k . x) times a constant spinor; an exact eigenvector of the
    discrete Fourier multiplier operators."""
    xi = np.array([grid.axis_freqs[ki] for ki in k])
    phase = np.exp(1j * grid.points @ xi)
    if spinor is None:
        spinor = np.ones(grid.N) / np.sqrt(grid.N)
    return grid.field(phase[:, None] * spinor[None, :]), xi


def test_grid_geometry():
    g = GridSpec(n=2, L=2.0, M=4, N=1)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.axis_points, [-1.5, -0.5, 0.5, 1.5])
    assert g.points.shape == (16, 2)
    assert g.radii.min() > 0.0  # no sample at the origin
    assert g.size == 16
    with pytest.raises(ValueError):
        GridSpec(n=2, L=2.0, M=3, N=1)


def test_plane_waves_are_eigenvectors_schrodinger():
    g = GridSpec(n=2, L=3.0, M=8, N=1)
    for k in [(0, 0), (1, 2), (5, 7), (4, 0)]:
        f, xi = _plane_wave(g, k)
        out = apply_free_operator("schrodinger", 0.0, f)
        lam = xi @ xi
        assert np.abs(out.values - lam * f.values).max() < 1e-10 * max(lam, 1.0)


def test_plane_waves_dirac_eigenvalues():
    g = GridSpec(n=3, L=2.0, M=4, N=4)
    rep = build_clifford(3)
    m = 0.7
    k = (1, 3, 2)
    f, xi = _plane_wave(g, k)
    out = apply_free_operator("dirac", m, f)
    # applying the operator to a plane wave acts by the symbol on the spinor
    sym = dirac_symbol(rep, xi, m)
    expect = sym @ (np.ones(4) / 2.0)
    phase = np.exp(1j * g.points @ xi)
    assert np.abs(out.values - phase[:, None] * expect[None, :]).max() < 1e-10


def test_free_spectrum_dirac_symmetric():
    g = GridSpec(n=3, L=2.0, M=4, N=4)
    vals = free_spectrum(g, "dirac", m=1.3)
    assert len(vals) == g.size
    assert np.allclose(np.sort(vals), np.sort(-vals))  # symmetric branches
    assert np.min(np.abs(vals)) == pytest.approx(1.3)  # gap edge at +-m
    expect = np.repeat(np.sqrt(1.3 ** 2 + np.sort(g.freq_sq.ravel())), 2)
    assert np.allclose(np.sort(vals[vals > 0]), expect, atol=1e-12)
    # klein-gordon spectrum is the positive branch
    kg = free_spectrum(GridSpec(n=3, L=2.0, M=4, N=1), "klein_gordon", m=1.3)
    assert np.allclose(np.sort(kg), np.sort(np.sqrt(1.3 ** 2 + g.freq_sq.ravel())))


@pytest.mark.parametrize("kind,m,z", [
    ("schrodinger", 0.0, 0.3 + 0.7j),
    ("klein_gordon", 1.0, 0.5 + 0.2j),
    ("dirac", 1.0, 0.4 + 0.3j),
])
def test_resolvent_inverts_operator(kind, m, z):
    g = GridSpec(n=3, L=2.0, M=4, N=4 if kind == "dirac" else 1)
    f = _rand_field(g, 1)
    u = apply_free_resolvent(kind, m, z, f)
    back = apply_free_operator(kind, m, u)
    resid = back.values - z * u.values - f.values
    assert np.abs(resid).max() < 1e-10


def test_resolvent_adjoint_identity():
    # <h, R(z) f> = <R(z conj) h, f> for random fields: H_0 is self-adjoint, so R(z)* = R(z conj)
    g = GridSpec(n=3, L=2.0, M=4, N=4)
    z = 0.3 + 0.4j
    f, h = _rand_field(g, 2), _rand_field(g, 3)
    Rf = apply_free_resolvent("dirac", 1.0, z, f)
    Rsh = apply_free_resolvent("dirac", 1.0, z.conjugate(), h)
    lhs = np.vdot(h.values, Rf.values)
    rhs = np.vdot(Rsh.values, f.values)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_resolvent_rejects_symbol_hit():
    g = GridSpec(n=3, L=2.0, M=4, N=1)
    z = float(g.freq_sq.ravel()[5])  # exactly on the discrete symbol
    with pytest.raises(ValueError):
        apply_free_resolvent("schrodinger", 0.0, z, _rand_field(g))


KIND_CASES = [("schrodinger", 0.0, 1), ("klein_gordon", 0.8, 1), ("dirac", 1.0, 4)]


@pytest.mark.parametrize("kind,m,N", KIND_CASES)
def test_resolvent_block_rejects_a_nan_gap(kind, m, N):
    # a NaN z, or a NaN mass where the symbol reads it, makes every |denominator| NaN: that is no
    # distance from the symbol set, so it is refused like a hit, not returned as a NaN multiplier
    g = GridSpec(n=3, L=3.0, M=4, N=N)
    with pytest.raises(ValueError, match="discrete symbol set"):
        free_operator(kind, m, g).resolvent_block(complex("nan"))
    if kind != "schrodinger":  # the Schrodinger symbol has no mass
        with pytest.raises(ValueError, match="discrete symbol set"):
            free_operator(kind, float("nan"), g).resolvent_block(0.3 + 0.2j)


@pytest.mark.parametrize("kind,m,N", KIND_CASES)
def test_resolvent_block_at_conjugate_is_its_adjoint(kind, m, N):
    # per frequency, the multiplier at z conj is the conjugate transpose of the one at z, exactly
    op = free_operator(kind, m, GridSpec(n=3, L=2.0, M=4, N=N))
    for z in (0.3 + 0.4j, -1.7 - 0.05j, 2.5 + 3.0j):
        block, adjoint = op.resolvent_block(z), op.resolvent_block(z.conjugate())
        assert np.array_equal(adjoint, np.conj(block if N == 1 else np.swapaxes(block, -1, -2)))


@pytest.mark.parametrize("kind,m,N", KIND_CASES)
def test_free_operator_shared_per_key(kind, m, N):
    op = free_operator(kind, m, GridSpec(n=3, L=2.0, M=4, N=N))
    assert free_operator(kind, m, GridSpec(n=3, L=2.0, M=4, N=N)) is op
    assert free_operator(kind, m, GridSpec(n=3, L=2.5, M=4, N=N)) is not op
    assert free_operator(kind, m + 0.5, GridSpec(n=3, L=2.0, M=4, N=N)) is not op
    with pytest.raises(ValueError):
        op.symbol[0, 0, 0] = 1.0  # shared, so read-only


@pytest.mark.parametrize("kind,m,N", KIND_CASES)
def test_free_operator_gap_brute_force(kind, m, N):
    g = GridSpec(n=3, L=2.0, M=4, N=N)
    op = free_operator(kind, m, g)
    for z in (0.3 + 0.7j, complex(2.4, 0.01), complex(-1.1, -0.2)):
        want = np.inf
        for xi in itertools.product(g.axis_freqs, repeat=3):
            r2 = sum(x * x for x in xi)
            denom = {"schrodinger": r2 - z, "klein_gordon": np.sqrt(m * m + r2) - z,
                     "dirac": r2 + m * m - z * z}[kind]
            want = min(want, abs(denom))
        assert op.gap(z) == pytest.approx(want, rel=1e-12, abs=1e-14)
    # a lattice point of the symbol set itself has gap 0 and no resolvent
    hit = float(np.sqrt(op.symbol.ravel()[5])) if kind == "dirac" else float(op.symbol.ravel()[5])
    assert op.gap(hit) < 1e-12
    with pytest.raises(ValueError):
        op.resolvent_block(hit)


def test_free_operator_builds_clifford_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return build_clifford(n)

    monkeypatch.setattr(gridops, "build_clifford", counting)
    gridops.free_operator.cache_clear()
    g = GridSpec(n=3, L=2.0, M=4, N=4)
    f = _rand_field(g, 6)
    for k in range(20):
        z = 0.3 + 0.1j * (k + 1)
        f = apply_free_resolvent("dirac", 1.0, z.conjugate() if k % 2 else z, f)
    assert len(calls) <= 1


def test_gradient_plane_wave():
    # component d N + a is d/dx_d of spinor component a (axis-major, spinor fastest)
    for N in (1, 2):
        g = GridSpec(n=2, L=3.0, M=8, N=N)
        f, xi = _plane_wave(g, (2, 5), spinor=np.arange(1.0, N + 1))
        grad = apply_gradient(f)
        assert grad.shape == (g.M ** 2, 2 * N)
        for d in range(2):
            for a in range(N):
                assert np.abs(grad[:, d * N + a] - 1j * xi[d] * f.values[:, a]).max() < 1e-10


def test_assemble_matches_matrix_free():
    g = GridSpec(n=2, L=2.0, M=4, N=1)
    V = PotentialSpec.preset("inverse-square", 2, 1, c=0.5 + 0.25j)
    H = assemble_perturbed("schrodinger", 0.0, V, g)
    f = _rand_field(g, 4)
    direct = apply_free_operator("schrodinger", 0.0, f).values.ravel() \
        + potential_on_grid(V, g)[:, 0, 0] * f.values.ravel()
    assert np.abs(H @ f.values.ravel() - direct).max() < 1e-10


def test_assemble_dirac_block_structure():
    g = GridSpec(n=3, L=2.0, M=2, N=4)
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=0.3)
    H = assemble_perturbed("dirac", 1.0, V, g)
    f = _rand_field(g, 5)
    free = apply_free_operator("dirac", 1.0, f).values
    Vp = potential_on_grid(V, g)
    direct = free + np.einsum("pab,pb->pa", Vp, f.values)
    assert np.abs((H @ f.values.ravel()).reshape(-1, 4) - direct).max() < 1e-10


def test_assemble_size_limit():
    g = GridSpec(n=3, L=2.0, M=16, N=4)
    with pytest.raises(ValueError):
        assemble_perturbed("dirac", 1.0, None, g)


def test_eigenvalues_against_moment_oracle():
    # oracle: trace of H^k equals the sum of eigenvalue k-th powers
    rng = np.random.default_rng(8)
    H = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    vals = eigenvalues(H)
    assert len(vals) == 50
    assert np.all(np.diff(vals.real) >= -1e-12)  # sorted by real part
    P = np.eye(50, dtype=complex)
    for k in range(1, 5):
        P = P @ H
        assert np.trace(P) == pytest.approx(np.sum(vals ** k), rel=1e-8, abs=1e-6)


def test_free_eigenvalues_match_symbol():
    g = GridSpec(n=2, L=2.0, M=4, N=1)
    H = assemble_perturbed("schrodinger", 0.0, None, g)
    vals = eigenvalues(H)
    assert np.abs(np.sort(vals.real) - np.sort(g.freq_sq.ravel())).max() < 1e-10
    assert np.abs(vals.imag).max() < 1e-10


def test_field_validation():
    g = GridSpec(n=2, L=1.0, M=4, N=1)
    with pytest.raises(ValueError):
        g.field(np.ones(7))
    bad = np.ones((16, 1))
    bad[3] = np.nan
    with pytest.raises(ValueError):
        g.field(bad)


def test_axis_points_exactly_antisymmetric():
    # (M, L) = (6, 4.0) is an eig grid of the benchmark that the unmirrored formula missed
    for M, L in itertools.product(range(2, 66, 2), (0.5, 1.0, 3.0, 4.0, 6.0, 7.3, 8.0)):
        x = GridSpec(n=1, L=L, M=M).axis_points
        assert np.array_equal(x[::-1], -x), (M, L)
        assert np.allclose(x, -L + (np.arange(M) + 0.5) * (2.0 * L / M), rtol=0.0, atol=4e-16 * L)


# every preset with a sample inside its support on the grids below; scalar kinds take no matrix-mix
_SCALAR_PRESETS = [("inverse-square", {}), ("bump", {"R": 3.0}), ("dyadic-decay", {"sigma": 2.0})]
_DIRAC_PRESETS = _SCALAR_PRESETS + [("matrix-mix", {})]


def _dense(generator, grid):
    """The symmetry (site map, spinor part S) as a dense matrix: (g f)(x) = S f(x_g)."""
    sites, S = generator
    return np.kron(np.eye(grid.M ** grid.n)[sites], S)


def _axis_flip(grid, axis):
    """The site map of the reflection i -> M-1-i of one lattice axis."""
    return np.flip(np.arange(grid.M ** grid.n).reshape((grid.M,) * grid.n), axis).ravel()


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon", "dirac"])
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("M", [4, 6])
@pytest.mark.parametrize("L", [3.0, 6.0])
def test_H0_commutes_with_declared_generators(kind, m, M, L):
    # reflections negate frequencies, which the scalar symbols do not see; a permutation of
    # the axes negates none, so the unpartnered Nyquist term of Dirac is no obstacle to it
    g = GridSpec(n=3, L=L, M=M, N=4 if kind == "dirac" else 1)
    H = assemble_perturbed(kind, m, None, g)
    reflections, permutations = free_operator(kind, m, g).generators
    assert (len(reflections), len(permutations)) == ((0 if kind == "dirac" else 3), 2)
    for generator in reflections + permutations:
        G = _dense(generator, g)
        assert np.abs(G @ H @ G.conj().T - H).max() <= 1e-14 * np.abs(H).max()


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon"])
@pytest.mark.parametrize("preset,extra", _SCALAR_PRESETS)
def test_scalar_H_commutes_with_every_axis_reflection(kind, preset, extra):
    # the scalar kinds declare the reflection of each axis; a radial V keeps every one
    g = GridSpec(n=3, L=4.0, M=6)
    V = PotentialSpec.preset(preset, 3, 1, c=0.8 - 0.6j, **extra)
    H = assemble_perturbed(kind, 0.5, V, g)
    generators = free_operator(kind, 0.5, g).generators[0]
    assert len(generators) == g.n
    for axis, (sites, S) in enumerate(generators):
        assert np.array_equal(sites, _axis_flip(g, axis)) and np.array_equal(S, [[1.0]])
        G = _dense((sites, S), g)
        assert np.abs(G @ H - H @ G).max() <= 1e-14 * np.abs(H).max()


@pytest.mark.parametrize("preset,extra", _DIRAC_PRESETS)
def test_dirac_H_commutes_with_no_axis_reflection(preset, extra):
    # the odd term alpha_k xi_k changes sign under a reflection of the lattice alone, and at the
    # Nyquist frequency it has no partner: R_k (x) alpha_k alpha_e misses H by pi/4
    g = GridSpec(n=3, L=4.0, M=4, N=4)
    V = PotentialSpec.preset(preset, 3, 4, c=0.8 - 0.6j, **extra)
    H = assemble_perturbed("dirac", 1.0, V, g)
    rep = build_clifford(3)
    flips = [_axis_flip(g, axis) for axis in range(3)]
    reflections, permutations = free_operator("dirac", 1.0, g).generators
    assert reflections == ()
    for sites, _ in permutations:
        assert not any(np.array_equal(sites, f) for f in flips)
    for axis, sites in enumerate(flips):
        G = _dense((sites, rep.alphas[axis + 1] @ rep.spare), g)
        assert np.abs(G @ H - H @ G).max() == pytest.approx(np.pi / 4, rel=1e-12)


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon", "dirac"])
def test_kernel_assembly_matches_matrix_free(kind):
    N = 4 if kind == "dirac" else 1
    g = GridSpec(n=3, L=4.0, M=6, N=N)
    V = PotentialSpec.preset("inverse-square", 3, N, c=0.5 + 0.25j)
    H = assemble_perturbed(kind, 0.7, V, g)
    f = _rand_field(g, 9)
    direct = apply_free_operator(kind, 0.7, f).values \
        + np.einsum("pab,pb->pa", potential_on_grid(V, g), f.values)
    assert np.abs((H @ f.values.ravel()).reshape(-1, N) - direct).max() < 1e-10


def _reference_dense(op, block):
    """The dense matrix of a multiplier by a sites x sites table of kernel offsets, then a
    transposed copy: the gather that FreeOperator.windows replaced."""
    g = op.grid
    if op.matrix is None:
        block = block[..., None, None]
    axes = tuple(range(g.n))
    kernel = np.fft.ifftn(block, axes=axes)
    step = (np.arange(g.M)[:, None] - np.arange(g.M)) % g.M
    offsets = 0  # C-order index of the per-axis differences, sites i x sites j
    for ax in axes:
        shape = [1] * (2 * g.n)
        shape[ax] = shape[g.n + ax] = g.M
        offsets = offsets * g.M + step.reshape(shape)
    blocks = kernel.reshape(g.M ** g.n, g.N, g.N)[offsets.reshape(g.M ** g.n, -1)]
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(g.size, g.size)


_ROW_GRIDS = [(1, 8), (2, 4), (3, 4)]  # (n, M)


def _row_potentials(n, M, N):
    """None, a preset and a file of random complex samples (no symmetry, V(x) not Hermitian)."""
    rng = np.random.default_rng(n * N)
    samples = rng.normal(size=(M ** n, N, N)) + 1j * rng.normal(size=(M ** n, N, N))
    return [None, PotentialSpec.preset("inverse-square", n, N, c=0.9 - 0.4j),
            PotentialSpec.from_samples(n, N, 3.0, M, samples)]


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon", "dirac"])
@pytest.mark.parametrize("n,M", _ROW_GRIDS)
def test_assemble_rows_are_rows_of_the_whole_matrix(kind, n, M):
    N = spinor_size(kind, n)
    g = GridSpec(n=n, L=3.0, M=M, N=N)
    op = free_operator(kind, 0.7, g)
    H0 = _reference_dense(op, op.forward_block())
    for V in _row_potentials(n, M, N):
        H = assemble_perturbed(kind, 0.7, V, g)
        ref = H0.copy()  # V's samples on the diagonal blocks, as the assembly added them before
        if V is not None:
            sites = np.arange(M ** n)
            ref.reshape(len(sites), N, len(sites), N)[sites, :, sites, :] += potential_on_grid(V, g)
        assert np.array_equal(H, ref)
        rng = np.random.default_rng(1)
        for J in ([], rng.permutation(g.size)[: g.size // 3], [g.size - 1], [5, 2, 5]):
            rows = assemble_perturbed(kind, 0.7, V, g, rows=J)
            assert rows.shape == (len(J), g.size)
            assert np.array_equal(rows, H[J])


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon", "dirac"])
@pytest.mark.parametrize("n,M", _ROW_GRIDS + [(3, 6)])
def test_dense_multiplier_matches_reference_gather(kind, n, M):
    g = GridSpec(n=n, L=3.0, M=M, N=spinor_size(kind, n))
    op = free_operator(kind, 0.7, g)
    for block in (op.forward_block(), op.resolvent_block(0.3 + 0.2j)):
        assert np.array_equal(op.gather(op.windows(block)), _reference_dense(op, block))


def _count_eigensolves(monkeypatch):
    calls = []

    def counting(H):
        calls.append(len(H))
        return eigenvalues(H)

    monkeypatch.setattr(gridops, "eigenvalues", counting)
    return calls


def _multiset_distance(a, b):
    assert a.shape == b.shape  # an assignment between unequal sizes would leave values out
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


# B_3 blocks of a scalar H_V with a radial V: per orbit of sign patterns (+++; the three with one
# minus, at -++; the three with two, at +--; ---), S_3's omega (counted twice), trivial and sign
# blocks, or <T>'s + and - blocks (counted three times); M = 4 has no sign block
_B3_SIZES = {4: [2, 4, 6, 2, 6, 2, 2, 4], 6: [8, 10, 1, 18, 9, 18, 9, 8, 10, 1],
             8: [20, 20, 4, 40, 24, 40, 24, 20, 20, 4]}
_B3_COUNTS = {4: [2, 1, 3, 3, 3, 3, 2, 1], 6: [2, 1, 1, 3, 3, 3, 3, 2, 1, 1],
              8: [2, 1, 1, 3, 3, 3, 3, 2, 1, 1]}


def test_b3_block_counts_fill_the_space():
    for M, sizes in _B3_SIZES.items():
        assert sum(s * c for s, c in zip(sizes, _B3_COUNTS[M])) == M ** 3


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon"])
@pytest.mark.parametrize("M,L,preset,extra", [
    (4, 3.0, "inverse-square", {}), (4, 3.0, "dyadic-decay", {"sigma": 2.5}),
    (6, 4.0, "bump", {"R": 3.0}), (6, 6.0, "inverse-square", {}),
    (8, 6.0, "dyadic-decay", {"sigma": 1.5}), (4, 3.0, "bump", {"R": 3.0}),
    (6, 4.0, "dyadic-decay", {"sigma": 2.0}), (8, 4.0, "inverse-square", {}),
    (8, 6.0, "bump", {"R": 5.0})])
def test_dense_spectrum_matches_one_block(monkeypatch, kind, M, L, preset, extra):
    # a radial V keeps the three reflections, the axis swap and the cycle: B_3's blocks
    g = GridSpec(n=3, L=L, M=M)
    V = PotentialSpec.preset(preset, 3, 1, c=1.5 + 1.1j, **extra)
    H = assemble_perturbed(kind, 0.5, V, g)
    whole = eigenvalues(H)
    calls = _count_eigensolves(monkeypatch)
    split, _ = dense_spectrum(kind, 0.5, V, g)
    assert calls == _B3_SIZES[M]
    assert np.array_equal(split, split[np.lexsort((split.imag, split.real))])
    assert _multiset_distance(split, whole) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    assert np.abs(whole.imag).max() > 1e-3  # a genuinely non-Hermitian case


def test_asymmetric_file_takes_one_block(monkeypatch):
    g = GridSpec(n=3, L=3.0, M=4)
    rng = np.random.default_rng(3)
    V = PotentialSpec.from_samples(3, 1, 3.0, 4, rng.normal(size=(64, 1, 1)) + 0.5j)
    H = assemble_perturbed("schrodinger", 0.0, V, g)
    calls = _count_eigensolves(monkeypatch)
    assert np.array_equal(dense_spectrum("schrodinger", 0.0, V, g)[0], eigenvalues(H))
    assert calls == [g.size]


def _even_in_axes_0_and_1(g):
    """A file of inverse-square samples times 1 + x_2/4: even in axes 0 and 1, not in axis 2."""
    samples = potential_on_grid(PotentialSpec.preset("inverse-square", 3, 1, c=1.5 + 1.1j), g)
    samples *= 1 + g.points[:, 2, None, None] / 4
    return PotentialSpec.from_samples(3, 1, g.L, g.M, samples)


@pytest.mark.parametrize("kind,n,M,potential,blocks", [
    ("schrodinger", 1, 16, lambda g: PotentialSpec.preset("bump", 1, 1, c=1.5 + 1.1j, R=2.0), 2),
    ("klein_gordon", 2, 8, lambda g: PotentialSpec.preset("inverse-square", 2, 1, c=1.5 + 1.1j), 4),
    ("schrodinger", 3, 4, _even_in_axes_0_and_1, 4),
    # M = 2: all 2^n sites form one orbit, and every block is one of 2^n of size 1
    ("schrodinger", 6, 2, lambda g: PotentialSpec.preset("inverse-square", 6, 1, c=1.5 + 1.1j), 64),
    ("klein_gordon", 7, 2, lambda g: PotentialSpec.preset("bump", 7, 1, c=1.5 + 1.1j, R=9.0), 128)])
def test_scalar_spectrum_splits_by_the_reflections_V_keeps(monkeypatch, kind, n, M, potential,
                                                            blocks):
    g = GridSpec(n=n, L=3.0, M=M)
    V = potential(g)
    H = assemble_perturbed(kind, 0.5, V, g)
    whole = eigenvalues(H)
    calls = _count_eigensolves(monkeypatch)
    split, sizes = dense_spectrum(kind, 0.5, V, g)
    assert calls == sizes == [g.size // blocks] * blocks
    assert _multiset_distance(split, whole) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    assert np.abs(whole.imag).max() > 1e-3  # a genuinely non-Hermitian case


def _cube_file(g, twist):
    """A file of inverse-square samples times 1 + twist(|x_0|, |x_1|, |x_2|) / 10: even in every
    axis, and symmetric under the permutations of the axes that ``twist`` is."""
    samples = potential_on_grid(PotentialSpec.preset("inverse-square", 3, 1, c=1.5 + 1.1j), g)
    samples *= 1 + twist(*np.abs(g.points).T)[:, None, None] / 10
    return PotentialSpec.from_samples(3, 1, g.L, g.M, samples)


_SWAP_ALONE = {4: [6, 2, 8, 6, 2, 6, 2, 8, 6, 2], 6: [18, 9, 27, 18, 9, 18, 9, 27, 18, 9]}


@pytest.mark.parametrize("M,twist,sizes,counts", [
    # no permutation: the eight parity blocks
    *[pytest.param(M, lambda a, b, c: a + 2 * b + 3 * c, [M ** 3 // 8] * 8, [1] * 8,
                   id=f"reflections-{M}") for M in (4, 6)],
    # the cycle without the swap is dropped: the eight parity blocks (at M = 4 two of |x_0|, |x_1|,
    # |x_2| are always equal, and this twist vanishes)
    pytest.param(6, lambda a, b, c: (a - b) * (b - c) * (c - a), [27] * 8, [1] * 8,
                 id="cycle-alone-6"),
    # the swap of axes 1, 2 without the cycle: the patterns it fixes split by its sign, the two
    # pairs it swaps (++-, +-+ and -+-, --+) are one block each, counted twice
    *[pytest.param(M, lambda a, b, c: b * c - 2 * a, _SWAP_ALONE[M], [1, 1, 2, 1, 1, 1, 1, 2, 1, 1],
                   id=f"swap-alone-{M}") for M in (4, 6)]])
def test_scalar_file_splits_by_the_permutations_it_keeps(monkeypatch, M, twist, sizes, counts):
    g = GridSpec(n=3, L=3.0, M=M)
    V = _cube_file(g, twist)
    H = assemble_perturbed("schrodinger", 0.5, V, g)
    whole = eigenvalues(H)
    calls = _count_eigensolves(monkeypatch)
    split, block_sizes = dense_spectrum("schrodinger", 0.5, V, g)
    assert calls == block_sizes == sizes
    samples = potential_on_grid(V, g)
    key = [tuple((p.tobytes(), S.tobytes()) for p, S in gens
                 if np.abs(samples - samples[p]).max() <= 1e-12 * np.abs(samples).max())
           for gens in free_operator("schrodinger", 0.5, g).generators]
    assert [c for c, _ in gridops._symmetry_bases(g.M ** 3, 1, *key)] == counts
    assert _multiset_distance(split, whole) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    assert np.abs(whole.imag).max() > 1e-3  # a genuinely non-Hermitian case


def _same_bases(new, old):
    """Whether two lists of blocks (count, parts) of _symmetry_bases are equal, entry by entry."""
    return [c for c, _ in new] == [c for c, _ in old] and all(
        len(parts) == len(ref) and all(np.array_equal(a, b) for part, ref_part in zip(parts, ref)
                                       for a, b in zip(part, ref_part))
        for (_, parts), (_, ref) in zip(new, old))


def test_permutations_that_move_a_reflection_out_of_the_kept_ones_are_dropped():
    # the swap of axes 1 and 2 maps the reflection of axis 1 onto that of axis 2: with only the
    # first kept, the swap is dropped and the two signs of that reflection are the blocks
    g = GridSpec(n=3, L=3.0, M=4)
    (r0, r1, r2), (T, C) = free_operator("schrodinger", 0.0, g).generators

    def key(*gens):
        return tuple((p.tobytes(), S.tobytes()) for p, S in gens)

    blocks = gridops._symmetry_bases(64, 1, key(r1), key(T))
    assert [(c, sum(len(rows) * len(J) for rows, _, J, _ in parts)) for c, parts in blocks] \
        == [(1, 32), (1, 32)]
    assert _same_bases(blocks, gridops._symmetry_bases(64, 1, key(r1), ()))
    # beside the reflection of axis 0, which it fixes, the swap is kept: 3 + 1 per sign of r0
    assert [(c, sum(len(rows) * len(J) for rows, _, J, _ in parts))
            for c, parts in gridops._symmetry_bases(64, 1, key(r0), key(T))] \
        == [(1, 20), (1, 12), (1, 20), (1, 12)]


def _axis_swap(grid):
    """T = P_12 (x) W as a dense matrix: P_12 swaps lattice axes 1 and 2, and
    W = i(alpha_2 - alpha_3) alpha_e / sqrt(2) swaps alpha_2 and alpha_3."""
    rep = build_clifford(3)
    W = 1j * (rep.alphas[2] - rep.alphas[3]) @ rep.spare / np.sqrt(2)
    sites = np.arange(grid.M ** 3).reshape((grid.M,) * 3)
    return np.kron(np.eye(grid.M ** 3)[sites.swapaxes(1, 2).ravel()], W)


def _cycle_spinor():
    """R = -(I + alpha_1 alpha_2 + alpha_2 alpha_3 + alpha_3 alpha_1) / 2 of n = 3."""
    a = build_clifford(3).alphas
    return -(np.eye(4) + a[1] @ a[2] + a[2] @ a[3] + a[3] @ a[1]) / 2


def _axis_cycle(grid):
    """C = P_cyc (x) R as a dense matrix: (C f)(i, j, k) = R f(k, i, j)."""
    sites = np.arange(grid.M ** 3).reshape((grid.M,) * 3)
    return np.kron(np.eye(grid.M ** 3)[sites.transpose(1, 2, 0).ravel()], _cycle_spinor())


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("M", [4, 6])
@pytest.mark.parametrize("L", [3.0, 6.0])
def test_dirac_H0_commutes_with_axis_swap(m, M, L):
    # a swap negates no frequency, so the unpartnered Nyquist term is no obstacle
    g = GridSpec(n=3, L=L, M=M, N=4)
    H = assemble_perturbed("dirac", m, None, g)
    T = _axis_swap(g)
    assert np.abs(T @ H @ T.conj().T - H).max() <= 1e-14 * np.abs(H).max()


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("M", [4, 6])
@pytest.mark.parametrize("L", [3.0, 6.0])
def test_dirac_H0_commutes_with_axis_cycle(m, M, L):
    # a cycle of the axes negates no frequency either
    g = GridSpec(n=3, L=L, M=M, N=4)
    H = assemble_perturbed("dirac", m, None, g)
    C = _axis_cycle(g)
    assert np.abs(C @ H - H @ C).max() <= 1e-14 * np.abs(H).max()


def test_axis_spinors_generate_s3():
    a = build_clifford(3).alphas
    W, R = gridops._permutation_spinors(build_clifford(3))
    assert np.array_equal(R, _cycle_spinor())
    assert np.abs(np.linalg.matrix_power(R, 3) - np.eye(4)).max() <= 1e-15  # C^3 = I
    assert np.abs(W @ R @ W - R.conj().T).max() <= 1e-15                    # T C T = C^-1
    for k in range(4):  # R* alpha_k R = alpha_(k+1) cycles alpha_1 -> alpha_2 -> alpha_3
        assert np.abs(R.conj().T @ a[k] @ R - a[(k % 3) + 1 if k else 0]).max() <= 1e-15
    g = GridSpec(n=3, L=3.0, M=4, N=4)
    T, C = _axis_swap(g), _axis_cycle(g)
    assert np.abs(C @ C @ C - np.eye(g.size)).max() <= 1e-14
    assert np.abs(T @ C @ T - C.conj().T).max() <= 1e-14
    swap, cycle = free_operator("dirac", 1.0, g).generators[1]  # what dense_spectrum tests V against
    assert np.array_equal(_dense(swap, g), T) and np.array_equal(_dense(cycle, g), C)


def _kept_key(kind, grid, kept):
    """The (reflections, permutations) key of _symmetry_bases for the generators numbered ``kept``:
    Dirac's permutations T, C, or the scalar kinds' reflections."""
    group = free_operator(kind, 0.0, grid).generators[kind == "dirac"]
    key = tuple((group[i][0].tobytes(), group[i][1].tobytes()) for i in kept)
    return ((), key) if kind == "dirac" else (key, ())


@pytest.mark.parametrize("kind,n,M,kept", [  # a Dirac id names M and whether C is kept
    pytest.param("dirac", 3, 4, (0, 1), id="4-True"),
    pytest.param("dirac", 3, 4, (0,), id="4-False"),
    pytest.param("dirac", 3, 6, (0, 1), id="6-True"),
    pytest.param("schrodinger", 1, 6, (0,), id="reflections-n1"),
    pytest.param("klein_gordon", 2, 4, (0, 1), id="reflections-n2"),
    pytest.param("schrodinger", 3, 4, (0, 1, 2), id="reflections-n3"),
    pytest.param("schrodinger", 3, 4, (0, 1), id="reflections-axes-0-1")])
def test_symmetry_bases_span_the_eigenspaces(kind, n, M, kept):
    # each block's basis is orthonormal and lies in its eigenspace of every kept symmetry (a sign
    # of each involution, times C's mean, or C's omega); together with T times the omega block
    # (C's omega^2 eigenspace) the blocks fill the space.  The symmetries' matrices are built
    # here, not read from gridops.
    g = GridSpec(n=n, L=3.0, M=M, N=4 if kind == "dirac" else 1)
    key = _kept_key(kind, g, kept)
    if kind == "dirac":
        flips, C = [_axis_swap(g)], (_axis_cycle(g) if 1 in kept else None)
    else:
        flips, C = [_dense((_axis_flip(g, a), np.ones((1, 1))), g) for a in kept], None
    Qs = []
    for count, parts in gridops._symmetry_bases(g.M ** g.n, g.N, *key):
        for _, B, J, inv in parts:  # the rows J where each orbit's basis is invertible
            assert np.abs(inv @ B[J] - np.eye(len(J))).max() <= 1e-14
        cols = [np.zeros((g.size, len(rows) * B.shape[1]), complex) for rows, B, _, _ in parts]
        for Q, (rows, B, _, _) in zip(cols, parts):
            for o, r in enumerate(rows):
                Q[r, o * B.shape[1]:(o + 1) * B.shape[1]] = B
        Qs.append((np.hstack(cols), count))
    blocks, spans = iter(Qs), []
    if C is not None:
        Qw, two = next(blocks)
        assert two == 2 and np.abs(C @ Qw - np.exp(2j * np.pi / 3) * Qw).max() <= 1e-14
        spans += [Qw, flips[0] @ Qw]
    for signs in itertools.product((1, -1), repeat=len(flips)):
        Q, one = next(blocks)
        assert one == 1 and all(np.abs(G @ Q - s * Q).max() <= 1e-14 for s, G in zip(signs, flips))
        assert C is None or np.abs(C @ Q - Q).max() <= 1e-14
        spans.append(Q)
    assert next(blocks, None) is None
    Q = np.hstack(spans)
    assert Q.shape == (g.size, g.size)
    assert np.abs(Q.conj().T @ Q - np.eye(g.size)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["schrodinger", "klein_gordon"])
def test_b3_bases_span_the_little_group_eigenspaces(kind):
    # each block's basis is orthonormal, has its sign pattern under the reflections, and lies in
    # its eigenspace of its little group (S_3: C's omega, the trivial and the sign blocks; <T>: the
    # two signs of T).  Its images under the cosets (I, T for omega; I, C, C^2 for a pattern that
    # C moves) fill the space.  The symmetries' matrices are built here, not read from gridops.
    g = GridSpec(n=3, L=3.0, M=6)
    F = [_dense((_axis_flip(g, a), np.ones((1, 1))), g) for a in range(3)]
    sites = np.arange(g.size).reshape(6, 6, 6)
    T = np.eye(g.size)[sites.transpose(0, 2, 1).ravel()]
    C = np.eye(g.size)[sites.transpose(1, 2, 0).ravel()]
    omega = np.exp(2j * np.pi / 3)
    labels = [("+++", "omega"), ("+++", 1), ("+++", -1), ("-++", 1), ("-++", -1), ("+--", 1),
              ("+--", -1), ("---", "omega"), ("---", 1), ("---", -1)]
    key = tuple(tuple((p.tobytes(), S.tobytes()) for p, S in gens)
                for gens in free_operator(kind, 0.5, g).generators)
    blocks = gridops._symmetry_bases(g.size, 1, *key)
    assert [c for c, _ in blocks] == _B3_COUNTS[6]
    spans = []
    for (count, parts), (pattern, sigma) in zip(blocks, labels, strict=True):
        cols = [np.zeros((g.size, len(rows) * B.shape[1]), complex) for rows, B, _, _ in parts]
        for Q, (rows, B, _, _) in zip(cols, parts):
            for o, r in enumerate(rows):
                Q[r, o * B.shape[1]:(o + 1) * B.shape[1]] = B
        Q = np.hstack(cols)
        assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() <= 1e-14
        for G, sign in zip(F, pattern):
            assert np.abs(G @ Q - (1 if sign == "+" else -1) * Q).max() <= 1e-14
        if sigma == "omega":
            assert np.abs(C @ Q - omega * Q).max() <= 1e-14
            images = [Q, T @ Q]
        else:
            assert np.abs(T @ Q - sigma * Q).max() <= 1e-14
            fixed = pattern in ("+++", "---")
            assert not fixed or np.abs(C @ Q - Q).max() <= 1e-14
            images = [Q] if fixed else [Q, C @ Q, C @ C @ Q]
        assert len(images) == count
        spans += images
    Q = np.hstack(spans)
    assert Q.shape == (g.size, g.size)
    assert np.abs(Q.conj().T @ Q - np.eye(g.size)).max() <= 1e-13


@pytest.mark.parametrize("kind,n,M,kept", [("dirac", 3, 4, ()), ("dirac", 3, 4, (1,)),
                                            ("schrodinger", 2, 4, ())])
def test_symmetry_bases_without_an_involution_are_the_trivial_group(kind, n, M, kept):
    # no generator kept, or the cycle alone: one block, counted once, whose basis is the identity
    # on every site
    g = GridSpec(n=n, L=3.0, M=M, N=4 if kind == "dirac" else 1)
    (count, ((rows, B, J, inv),)), = gridops._symmetry_bases(g.M ** g.n, g.N,
                                                             *_kept_key(kind, g, kept))
    assert count == 1
    assert np.array_equal(rows, np.arange(g.size).reshape(-1, g.N))
    assert np.array_equal(B, np.eye(g.N)) and np.array_equal(inv, np.eye(g.N))
    assert np.array_equal(J, np.arange(g.N))


def _reference_symmetry_bases(n_sites, N, reflections, permutations):
    """The blocks of gridops._symmetry_bases built naively: each element's weight chi(r)/|R|
    w_sigma(h) from loops over the elements, each orbit's projector a sum of |G| Kronecker
    products, Gram-Schmidt over every one of its columns.  With no permutation kept (or with no
    reflection and the permutations S_3 or <T>) this is the construction the blocks were first
    built by."""
    refl, perms = ([(np.frombuffer(p, np.intp), np.frombuffer(S, complex).reshape(N, N))
                    for p, S in key] for key in (reflections, permutations))
    orders = [gridops._order(p) for p, _ in perms]

    def moved(p, i):
        """The index of the kept reflection p r_i p^-1, or None."""
        conj = p[refl[i][0][np.argsort(p)]]
        return next((j for j, (q, _) in enumerate(refl) if np.array_equal(conj, q)), None)

    if 2 not in orders or any(moved(p, i) is None for p, _ in perms for i in range(len(refl))):
        perms, orders = [], []
    gens, gen_orders = refl + perms, [2] * len(refl) + orders
    if not gens:
        gens, gen_orders = [(np.arange(n_sites), np.eye(N, dtype=complex))], [1]
    powers = list(itertools.product(*map(range, gen_orders)))
    elements = []
    for exps in powers:
        sites = np.arange(n_sites)
        for (p, _), e in zip(gens, exps):
            for _ in range(e):
                sites = p[sites]
        elements.append((sites, functools.reduce(np.matmul, [np.linalg.matrix_power(S, e)
                                                             for (_, S), e in zip(gens, exps)])))

    def image(p, chi):
        out = list(chi)
        for i, s in enumerate(chi):
            out[moved(p, i)] = s
        return tuple(out)

    def exponent(e, k):  # of T (k = 2) or C (k = 3) in element e, 0 if not kept
        return e[len(refl) + orders.index(k)] if k in orders else 0

    swap = [p for (p, _), k in zip(perms, orders) if k == 2]
    cycle = [p for (p, _), k in zip(perms, orders) if k == 3]
    images = np.stack([src for src, _ in elements])
    actions = {}
    for r in np.unique(images.min(axis=0)):
        orbit = np.unique(images[:, r])
        act = np.searchsorted(orbit, images[:, orbit])
        actions.setdefault(act.tobytes(), (act, []))[1].append(orbit)
    patterns = list(itertools.product((1, -1), repeat=len(refl)))
    blocks, seen = [], set()
    for chi in patterns:
        if chi in seen:
            continue
        orbit = {chi}
        for _ in range(6):
            orbit |= {image(p, x) for p, _ in perms for x in orbit}
        seen |= orbit
        rep = next((x for x in patterns if x in orbit and swap and image(swap[0], x) == x), chi)
        keeps_swap = bool(swap) and image(swap[0], rep) == rep
        if keeps_swap and cycle and image(cycle[0], rep) == rep:
            sigmas = [(lambda t, c: (t == 0) * np.exp(-2j * np.pi * c / 3) / 3, 2),
                      (lambda t, c: 1 / 6, 1), (lambda t, c: (-1) ** t / 6, 1)]
        elif keeps_swap:
            sigmas = [(lambda t, c: (c == 0) / 2, 1), (lambda t, c: (c == 0) * (-1) ** t / 2, 1)]
        else:
            sigmas = [(lambda t, c: float(t == c == 0), 1)]
        for w_sigma, dim in sigmas:
            weights = [math.prod(s ** x for s, x in zip(rep, e)) / len(patterns)
                       * w_sigma(exponent(e, 2), exponent(e, 3)) for e in powers]
            parts = []
            for act, orbits in actions.values():
                P = sum(w * np.kron(np.eye(act.shape[1])[a], S)
                        for w, a, (_, S) in zip(weights, act, elements))
                n, BT, J = len(P), np.zeros((2 * len(P), 0), complex), []
                for j, w in enumerate(np.vstack([P, np.eye(n)]).T):
                    for _ in range(2):
                        w = w - BT @ (BT[:n].conj().T @ w[:n])
                    if np.linalg.norm(w[:n]) > 1e-6:
                        BT, J = np.c_[BT, w / np.linalg.norm(w[:n])], J + [j]
                if len(J):
                    rows = (np.array(orbits)[..., None] * N + np.arange(N)).reshape(len(orbits), -1)
                    parts.append((rows, BT[:n], np.array(J, dtype=int), BT[n:][J].conj().T))
            if parts:
                blocks.append((len(orbit) * dim, parts))
    return blocks


@pytest.mark.parametrize("kind,n,M,preset", [  # the benchmark's eig grids, and n = 5 at M = 2
    ("schrodinger", 3, 4, "inverse-square"), ("klein_gordon", 3, 6, "bump"),
    ("schrodinger", 3, 8, "dyadic-decay"), ("dirac", 3, 4, "inverse-square"),
    ("dirac", 3, 6, "bump"), ("dirac", 3, 4, "matrix-mix"), ("dirac", 3, 6, "matrix-mix"),
    ("schrodinger", 5, 2, "inverse-square")])
def test_symmetry_bases_match_the_kronecker_construction(kind, n, M, preset):
    # the projector scattered by one np.add.at per block, its weights from one array expression
    # and Gram-Schmidt stopped at its rank change no entry
    g = GridSpec(n=n, L=3.0, M=M, N=spinor_size(kind, n))
    samples = potential_on_grid(PotentialSpec.preset(preset, n, g.N, c=1.0 + 0.5j), g)
    key = [tuple((p.tobytes(), S.tobytes()) for p, S in gens
                 if np.abs(samples - S @ samples[p] @ S.conj().T).max() <= 1e-12)
           for gens in free_operator(kind, 0.5, g).generators]
    # scalar n = 3: the three reflections, the swap and the cycle (B_3)
    assert [len(k) for k in key] == ([0, 1] if preset == "matrix-mix" else [0, 2]
                                     if kind == "dirac" else [n, 2 if n == 3 else 0])
    new = gridops._symmetry_bases(g.M ** n, g.N, *key)
    assert _same_bases(new, _reference_symmetry_bases(g.M ** n, g.N, *key))


def test_range_basis_stops_at_the_projectors_rank():
    # tr P = 2: the columns after the second one kept are not read, though here (P is no
    # projector) they would add e_3 and e_2 to the span
    P = np.zeros((4, 4), complex)
    P[0, 0] = P[1, 1] = P[3, 2] = P[2, 3] = 1.0
    B, J, inv = gridops._range_basis(P)
    assert np.array_equal(J, [0, 1]) and B.shape == (4, 2)
    assert np.array_equal(B, np.eye(4)[:, :2]) and np.array_equal(inv, np.eye(2))


_S3_SIZES = {4: [88, 40, 40], 6: [292, 140, 140]}


@pytest.mark.parametrize("M,preset,extra", [(4, p, e) for p, e in _DIRAC_PRESETS]
                         + [(6, "matrix-mix", {}), (6, "dyadic-decay", {"sigma": 2.0})])
def test_dirac_spectrum_splits_by_axis_swap(monkeypatch, M, preset, extra):
    # the scalar presets also have the cycle symmetry, so they split further into S_3 blocks
    g = GridSpec(n=3, L=4.0, M=M, N=4)
    V = PotentialSpec.preset(preset, 3, 4, c=1.5 + 1.1j, **extra)
    H = assemble_perturbed("dirac", 1.0, V, g)
    whole = eigenvalues(H)
    calls = _count_eigensolves(monkeypatch)
    split, sizes = dense_spectrum("dirac", 1.0, V, g)
    assert calls == sizes == ([g.size // 2] * 2 if preset == "matrix-mix" else _S3_SIZES[M])
    assert np.array_equal(split, split[np.lexsort((split.imag, split.real))])
    assert _multiset_distance(split, whole) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    assert np.abs(whole.imag).max() > 1e-3  # a genuinely non-Hermitian case


def test_asymmetric_dirac_file_takes_one_block(monkeypatch):
    g = GridSpec(n=3, L=3.0, M=4, N=4)
    rng = np.random.default_rng(4)
    V = PotentialSpec.from_samples(3, 4, 3.0, 4, rng.normal(size=(64, 4, 4)) + 0.5j)
    H = assemble_perturbed("dirac", 1.0, V, g)
    calls = _count_eigensolves(monkeypatch)
    assert np.array_equal(dense_spectrum("dirac", 1.0, V, g)[0], eigenvalues(H))
    assert calls == [g.size]


def test_dirac_file_with_the_cycle_alone_takes_one_block(monkeypatch):
    # (x1 - x2)(x2 - x3)(x3 - x1) keeps its value under the cycle of the axes and changes sign
    # under their swap; C's omega block counts twice only beside T, so no block is split off
    g = GridSpec(n=3, L=3.0, M=4, N=4)
    x = g.points
    alternating = (x[:, 0] - x[:, 1]) * (x[:, 1] - x[:, 2]) * (x[:, 2] - x[:, 0])
    samples = (0.9 + 0.6j) * (1 + 0.1 * alternating)[:, None, None] * np.eye(4) \
        / (1.0 + g.radii[:, None, None])
    V = PotentialSpec.from_samples(3, 4, 3.0, 4, samples)
    H = assemble_perturbed("dirac", 1.0, V, g)
    calls = _count_eigensolves(monkeypatch)
    assert np.array_equal(dense_spectrum("dirac", 1.0, V, g)[0], eigenvalues(H))
    assert calls == [g.size]


@pytest.mark.parametrize("name,sizes", [("matrix-mix", [128, 128]),
                                        ("inverse-square", _S3_SIZES[4])])
def test_dirac_file_of_preset_samples_splits(monkeypatch, name, sizes):
    g = GridSpec(n=3, L=3.0, M=4, N=4)
    preset = PotentialSpec.preset(name, 3, 4, c=0.7 - 0.4j)
    V = PotentialSpec.from_samples(3, 4, 3.0, 4, potential_on_grid(preset, g))
    calls = _count_eigensolves(monkeypatch)
    vals, _ = dense_spectrum("dirac", 1.0, V, g)
    assert calls == sizes
    assert np.array_equal(vals, dense_spectrum("dirac", 1.0, preset, g)[0])


def test_dirac_hedgehog_file_takes_s3_blocks(monkeypatch):
    # V = c (alpha . x) / (1 + |x|)^3 is not a multiple of I, yet S_3-symmetric: R* alpha_k R =
    # alpha_(k+1) turns with the cycle of the axes, and W alpha_2 W = alpha_3 with their swap
    g = GridSpec(n=3, L=3.0, M=4, N=4)
    a = build_clifford(3).alphas
    x = g.points
    samples = (0.9 + 0.6j) * np.einsum("pk,kab->pab", x, np.stack(a[1:])) \
        / (1.0 + g.radii[:, None, None]) ** 3
    V = PotentialSpec.from_samples(3, 4, 3.0, 4, samples)
    H = assemble_perturbed("dirac", 1.0, V, g)
    whole = eigenvalues(H)
    calls = _count_eigensolves(monkeypatch)
    vals, _ = dense_spectrum("dirac", 1.0, V, g)
    assert calls == _S3_SIZES[4]
    assert _multiset_distance(vals, whole) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    assert np.abs(whole.imag).max() > 1e-3


def _peak_of(fn):
    """tracemalloc's peak of fn(), after one untraced call has filled the caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dirac_dense_spectrum_memory():
    # each block is formed from rows of H_V just before its eigensolve and dropped after it: the
    # peak is one block, LAPACK's copy of it and its vectors, far below one D x D matrix of H_V;
    # S_3 blocks [292, 140, 140]: 0.40 * 16 D^2
    g = GridSpec(n=3, L=3.0, M=6, N=4)
    V = PotentialSpec.preset("bump", 3, 4, c=1.0, R=1.3)
    assert _peak_of(lambda: dense_spectrum("dirac", 1.0, V, g)) <= 0.45 * 16 * g.size ** 2


def test_dirac_halves_dense_spectrum_memory():
    # matrix-mix keeps the swap alone: two halves [432, 432], 0.83 * 16 D^2
    g = GridSpec(n=3, L=3.0, M=6, N=4)
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=1.0)
    assert _peak_of(lambda: dense_spectrum("dirac", 1.0, V, g)) <= 0.9 * 16 * g.size ** 2


def test_scalar_dense_spectrum_memory():
    # B_3 blocks of at most 40 = D/12.8, each from its rows of H_V about 2^16 entries at a time:
    # 0.156 * 16 D^2 (eight parity blocks of D/8 peaked at 0.40)
    g = GridSpec(n=3, L=3.0, M=8)
    V = PotentialSpec.preset("inverse-square", 3, 1, c=1.0)
    assert _peak_of(lambda: dense_spectrum("schrodinger", 0.5, V, g)) <= 0.17 * 16 * g.size ** 2


def test_whole_assembly_memory():
    # H_V's rows are gathered into H with one index, with no transposed copy: 1.02 * 16 D^2
    g = GridSpec(n=3, L=3.0, M=6, N=4)
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=1.0)
    assert _peak_of(lambda: assemble_perturbed("dirac", 1.0, V, g)) <= 1.05 * 16 * g.size ** 2


def test_gather_memory():
    # the gathered rows are the only large array: no chunk of them is copied twice
    g = GridSpec(n=3, L=3.0, M=8, N=4)
    op = free_operator("dirac", 1.0, g)
    block = op.resolvent_block(0.3 + 0.2j)
    windows = op.windows(block)
    assert _peak_of(lambda: op.gather(windows)) <= 1.005 * 16 * g.size ** 2
    assert np.array_equal(op.gather(windows), _reference_dense(op, block))


@pytest.mark.parametrize("kind,N", [("schrodinger", 1), ("klein_gordon", 1), ("dirac", 4)])
def test_zero_potential_gives_free_spectrum_without_eigensolve(monkeypatch, kind, N):
    def no_lapack(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig called for V = 0")

    monkeypatch.setattr(scipy.linalg, "eig", no_lapack)
    g = GridSpec(n=3, L=3.0, M=4, N=N)
    free = free_spectrum(g, kind, 0.5)
    for V in (None, PotentialSpec.preset("inverse-square", 3, N, c=0.0)):
        assert np.array_equal(dense_spectrum(kind, 0.5, V, g)[0], free)


@pytest.mark.parametrize("kind,N", [("schrodinger", 1), ("dirac", 4)])
def test_potential_zero_at_every_sample_is_solved(monkeypatch, kind, N):
    # the bump's support holds no sample: H_V = H_0 on the grid, but the job does the work
    # of a nonzero coupling, so its cost does not hinge on where the support falls
    g = GridSpec(n=3, L=3.0, M=4, N=N)
    V = PotentialSpec.preset("bump", 3, N, c=2.0, R=0.5)
    assert not potential_on_grid(V, g).any()
    calls = _count_eigensolves(monkeypatch)
    vals, _ = dense_spectrum(kind, 0.5, V, g)
    assert calls and len(vals) == g.size  # a Dirac block of S_3 counts twice
    free = free_spectrum(g, kind, 0.5)
    assert np.abs(vals - free).max() <= 1e-10 * max(1.0, np.abs(free).max())


def test_eigenvalues_residual_check_pairs_each_value_with_its_vector(monkeypatch):
    # the values are sorted, the vectors are read in LAPACK's order through the same permutation
    H = np.diag([3.0, 1.0, 2.0]) + 0j
    assert np.array_equal(eigenvalues(H), [1.0, 2.0, 3.0])
    real_eig = scipy.linalg.eig
    monkeypatch.setattr(scipy.linalg, "eig", lambda A: (real_eig(A)[0], np.eye(3)[:, [1, 0, 2]]))
    with pytest.raises(RuntimeError, match="residual"):
        eigenvalues(H)
    # only the vector of 1.0 is right: the error names the first failing pair in sorted order
    monkeypatch.setattr(scipy.linalg, "eig", lambda A: (real_eig(A)[0], np.eye(3)[:, [2, 1, 0]]))
    with pytest.raises(RuntimeError, match=r"eigenpair 1 residual 1\.000e\+00"):
        eigenvalues(H)
