import numpy as np
import pytest

from spectralcert.enclosure import J_RANGE, potential_norm
from spectralcert.potential import (PotentialSpec, polar_factors, opnorm_in_box,
                                    save_potential_text, load_potential_text,
                                    save_potential_binary, load_potential_binary)
from spectralcert.weights import dyadic_norm


def _random_samples(rng, n, N, M):
    return rng.normal(size=(M ** n, N, N)) + 1j * rng.normal(size=(M ** n, N, N))


def test_inverse_square_values():
    V = PotentialSpec.preset("inverse-square", 3, 1, c=2.0)
    x = np.array([3.0, 0.0, 0.0])
    assert V.evaluate(x)[0, 0] == pytest.approx(2.0 / 16.0)
    assert V.radial_opnorm(3.0) == pytest.approx(2.0 / 16.0)


def test_complex_coupling_alias():
    V = PotentialSpec.preset("complex-inverse-square", 3, 1, c=1 + 2j)
    assert V.kind == "inverse-square"
    assert V.radial_opnorm(0.0) == pytest.approx(abs(1 + 2j))


def test_bump_support_and_smoothness():
    V = PotentialSpec.preset("bump", 3, 1, c=3.0, R=2.0)
    assert V.radial_opnorm(2.0) == 0.0
    assert V.radial_opnorm(5.0) == 0.0
    assert V.radial_opnorm(0.0) == pytest.approx(3.0)
    # value just inside the support edge is tiny (smooth cutoff)
    assert V.radial_opnorm(1.999) < 1e-100


def test_dyadic_decay_profile():
    V = PotentialSpec.preset("dyadic-decay", 3, 1, c=1.0, sigma=2.0)
    r = np.e  # |log r| = 1
    assert V.radial_opnorm(r) == pytest.approx(1.0 / (r * 4.0))


def test_matrix_mix_opnorm_oracle():
    # oracle: explicit singular values of the evaluated matrix
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=0.7)
    x = np.array([1.0, -2.0, 0.5])
    mat = V.evaluate(x)
    top = np.linalg.svd(mat, compute_uv=False)[0]
    r = np.linalg.norm(x)
    assert V.radial_opnorm(r) == pytest.approx(top, rel=1e-12)
    # non-Hermitian by construction
    assert np.abs(mat - mat.conj().T).max() > 0.1


def test_matrix_mix_rejects_scalar():
    with pytest.raises(ValueError):
        PotentialSpec.preset("matrix-mix", 3, 1)


def test_unknown_preset():
    with pytest.raises(ValueError):
        PotentialSpec.preset("nonsense", 3, 1)


def test_batch_evaluate_shape():
    V = PotentialSpec.preset("inverse-square", 3, 2, c=1.0)
    pts = np.random.default_rng(1).normal(size=(11, 3))
    out = V.evaluate(pts)
    assert out.shape == (11, 2, 2)
    assert np.allclose(out[4], V.evaluate(pts[4]))
    # a batch of one point stays a batch, for presets and files alike
    F = PotentialSpec.from_samples(3, 2, 4.0, 2, np.ones((8, 2, 2)))
    for W in (V, F):
        assert W.evaluate(pts[4:5]).shape == (1, 2, 2)
        assert W.evaluate(pts[4]).shape == (2, 2)


def test_polar_factorization_random_matrices():
    rng = np.random.default_rng(5)
    V = PotentialSpec.from_samples(2, 3, 1.0, 4, _random_samples(rng, 2, 3, 4))
    pts = rng.uniform(-0.9, 0.9, size=(16, 2))
    mats = V.evaluate(pts)
    A, B = polar_factors(mats)
    # B* A = V
    recon = np.einsum("pba,pbc->pac", B.conj(), A)
    assert np.abs(recon - mats).max() < 1e-10
    # |A| = |B| = |V|^(1/2) pointwise
    sa = np.linalg.svd(A, compute_uv=False)[:, 0]
    sb = np.linalg.svd(B, compute_uv=False)[:, 0]
    sv = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert np.abs(sa - np.sqrt(sv)).max() < 1e-10
    assert np.abs(sb - np.sqrt(sv)).max() < 1e-10


def test_polar_factorization_presets():
    V = PotentialSpec.preset("matrix-mix", 3, 4, c=1 - 0.5j)
    x = np.array([0.3, 0.4, 1.2])
    A, B = polar_factors(V.evaluate(x))
    assert np.abs(B.conj().T @ A - V.evaluate(x)).max() < 1e-12


def test_singular_value_oracle_eigh():
    # independent oracle: largest singular value via eigvalsh of V^H V
    rng = np.random.default_rng(9)
    V = PotentialSpec.from_samples(1, 4, 1.0, 20, _random_samples(rng, 1, 4, 20))
    for mat, ours in zip(V.values, V.opnorm_table):
        oracle = float(np.sqrt(np.linalg.eigvalsh(mat.conj().T @ mat)[-1]))
        assert ours == pytest.approx(oracle, rel=1e-10)
    with pytest.raises(ValueError):
        PotentialSpec.preset("bump", 3, 1).opnorm_table


def test_grid_sampled_lookup_and_bounds():
    rng = np.random.default_rng(3)
    M, L = 4, 2.0
    V = PotentialSpec.from_samples(2, 1, L, M, _random_samples(rng, 2, 1, M))
    h = 2 * L / M
    # point exactly at a lattice site maps to its own sample
    x0 = np.array([-L + 1.5 * h, -L + 2.5 * h])
    flat = 1 * M + 2
    assert V.evaluate(x0)[0, 0] == V.values[flat, 0, 0]
    with pytest.raises(ValueError):
        V.evaluate(np.array([3.0, 0.0]))
    with pytest.raises(ValueError):
        V.radial_opnorm(1.0)


def _svd_in_box(V, x):
    """Reference for a file's |V|: one SVD of the looked-up sample per point, 0 outside the box."""
    inside = np.all(np.abs(x) <= V.grid_L, axis=-1)
    return np.array([np.linalg.svd(V.evaluate(p), compute_uv=False)[0] if ok else 0.0
                     for p, ok in zip(x, inside)])


def test_opnorm_in_box_is_zero_outside_the_box():
    # inside the box and on its faces, |V| is the SVD of the sample looked up at each point
    rng = np.random.default_rng(4)
    M, L = 4, 2.0
    inner = rng.uniform(-L, L, size=(40, 3))
    faces = rng.uniform(-L, L, size=(12, 3))
    faces[np.arange(12), np.arange(12) % 3] = np.where(np.arange(12) < 6, L, -L)
    outer = np.array([[2.5, 0.0, 0.0], [0.0, -0.4, -2.0 - 1e-12], [1e6, 1e6, 1e6]])
    x = np.concatenate([inner, faces, [[L, L, -L], [-L, -L, -L]], outer])
    for N in (1, 4):
        V = PotentialSpec.from_samples(3, N, L, M, _random_samples(rng, 3, N, M))
        got = opnorm_in_box(V, x)
        assert np.array_equal(got, _svd_in_box(V, x))
        assert np.count_nonzero(got) == len(x) - len(outer)
        assert np.array_equal(opnorm_in_box(V, outer), np.zeros(len(outer)))
        # the lookup itself stays strict
        with pytest.raises(ValueError):
            V.evaluate(x)
        zero = PotentialSpec.from_samples(3, N, L, M, np.zeros((M ** 3, N, N)))
        assert np.array_equal(opnorm_in_box(zero, x), np.zeros(len(x)))


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("w, p, q", [(None, np.inf, np.inf), (lambda r: r, 1, 2)])
def test_file_norm_reads_the_svd_of_each_site(N, w, p, q):
    rng = np.random.default_rng(5)
    V = PotentialSpec.from_samples(3, N, 2.0, 4, _random_samples(rng, 3, N, 4))

    def reference(pts):
        inside = np.all(np.abs(pts) <= V.grid_L, axis=-1)
        mag = np.zeros(len(pts))
        mag[inside] = np.linalg.svd(V.evaluate(pts[inside]), compute_uv=False)[:, 0]
        return mag if w is None else w(np.linalg.norm(pts, axis=-1)) * mag

    got = potential_norm(V, w, p, q)
    want = dyadic_norm(reference, p, q, 3, j_range=J_RANGE)
    assert got.value == want.value > 0.0
    assert got.tail_bound is None
    zero = PotentialSpec.from_samples(3, N, 2.0, 4, np.zeros((4 ** 3, N, N)))
    assert potential_norm(zero, w, p, q).value == 0.0


def test_content_hash_sensitivity():
    a = PotentialSpec.preset("inverse-square", 3, 1, c=1.0)
    b = PotentialSpec.preset("inverse-square", 3, 1, c=1.0 + 1e-12)
    c = PotentialSpec.preset("inverse-square", 3, 1, c=1.0)
    assert a.content_hash() == c.content_hash()
    assert a.content_hash() != b.content_hash()


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_potential_file_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(11)
    V = PotentialSpec.from_samples(2, 2, 1.5, 4, _random_samples(rng, 2, 2, 4))
    path = tmp_path / f"pot.{fmt}"
    if fmt == "text":
        save_potential_text(V, path)
        W = load_potential_text(path)
        # rows may come in any order: each carries its site's indices
        head, *rows = path.read_text().splitlines()
        rng.shuffle(rows)
        path.write_text("\n".join([head, *rows]) + "\n")
        assert np.array_equal(load_potential_text(path).values, W.values)
    else:
        save_potential_binary(V, path)
        W = load_potential_binary(path)
    assert (W.n, W.N, W.grid_M, W.grid_L) == (2, 2, 4, 1.5)
    tol = 0.0 if fmt == "binary" else 1e-15
    assert np.abs(W.values - V.values).max() <= tol


@pytest.mark.parametrize("n, N, L, M, values", [
    (0, 1, 1.0, 2, np.ones((1, 1, 1))),
    (2, 0, 1.0, 2, np.ones((4, 0, 0))),
    (2, 1, 1.0, 0, np.ones((0, 1, 1))),
    (2, 1, float("nan"), 2, np.ones((4, 1, 1))),
    (2, 1, float("inf"), 2, np.ones((4, 1, 1))),
    (2, 1, 0.0, 2, np.ones((4, 1, 1))),
    (64, 1, 1.0, 2, np.ones((1, 1, 1))),  # 2^64 sites: rejected without building M^n
    (2, 1, 1.0, 2, np.ones((3, 1, 1))),
    (2, 1, 1.0, 2, np.full((4, 1, 1), np.inf)),
    (2, 1, 1.0, 2, np.full((4, 1, 1), complex(0.0, np.nan))),
])
def test_from_samples_validation(n, N, L, M, values):
    with pytest.raises(ValueError):
        PotentialSpec.from_samples(n, N, L, M, values)


def test_binary_magic_check(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        load_potential_binary(p)


def test_preset_serialization_rejected(tmp_path):
    V = PotentialSpec.preset("bump", 3, 1)
    with pytest.raises(ValueError):
        save_potential_text(V, tmp_path / "x.txt")
