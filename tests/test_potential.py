import numpy as np
import pytest

from spectralcert import weights
from spectralcert.enclosure import potential_norm
from spectralcert.potential import (PotentialSpec, polar_factors,
                                    save_potential_text, load_potential_text,
                                    save_potential_binary, load_potential_binary)
from spectralcert.profiles import RADIUS, Profile


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


@pytest.mark.parametrize("kind, N, kw", [("inverse-square", 1, {}), ("matrix-mix", 4, {}),
                                         ("bump", 1, {"R": 1.3}), ("dyadic-decay", 2, {"sigma": 1.5})])
def test_preset_profile_is_the_opnorm_of_each_sample(kind, N, kw):
    V = PotentialSpec.preset(kind, 3, N, c=0.6 - 0.8j, **kw)
    r = np.geomspace(2.0 ** -30, 2.0 ** 30, 601)
    x = r[:, None] * np.array([0.48, -0.6, 0.64])  # a unit direction
    top = np.linalg.svd(V.evaluate(x), compute_uv=False)[:, 0]
    assert np.allclose(V.profile(r)[0], top, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        PotentialSpec.from_samples(1, 1, 1.0, 2, np.ones((2, 1, 1))).profile


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


# -- file norms, read from the cells ------------------------------------

def _ref_sup(w, lo, hi):
    # the sup engine on this one closed interval
    return weights._sup_bounds(w, w.breaks, np.array([lo]), np.array([hi]))[0][0]


def _ref_file_norm(V, w, p, q):
    """A file's dyadic norm over annuli -40..40, one cell and one annulus at a time:
    |V| is the top singular value of the sample looked up at the cell's site."""
    from scipy.special import gamma
    L, M = V.grid_L, V.grid_M
    h = 2.0 * L / M
    area = 2.0 * np.pi ** 1.5 / gamma(1.5)
    terms = np.zeros(81)
    for site in range(M ** 3):
        idx = np.unravel_index(site, (M,) * 3)
        near = far = 0.0
        orthants = 1
        for i in idx:
            a, b = -L + i * h, -L + (i + 1) * h
            near += 0.0 if a <= 0.0 <= b else min(a * a, b * b)
            far += max(a * a, b * b)
            orthants *= (a < 0.0) + (b > 0.0)
        point = -L + (np.array(idx) + 0.5) * h
        mag = np.linalg.svd(V.evaluate(point), compute_uv=False)[0]
        for k, j in enumerate(range(-40, 41)):
            lo, hi = 2.0 ** (j - 1), 2.0 ** j
            if mag == 0.0 or not (near < hi * hi and far >= lo * lo):
                continue
            sup = 1.0 if w is None else _ref_sup(w, max(np.sqrt(near), lo), min(np.sqrt(far), hi))
            if np.isinf(q):
                terms[k] = max(terms[k], mag * sup)
            else:
                annulus = area / 3 * (8.0 ** j * 0.875)
                terms[k] += (mag * sup) ** 2 * min(h ** 3, annulus * orthants / 8)
    if not np.isinf(q):
        terms = np.sqrt(terms)
    return weights._aggregate(terms, p)


def _bumpy_weight():
    # interior maxima, the log factor's break at r = 1 and a bump's at r = 3.3
    return Profile.of(1.0, ("r", None, 1.5), ("1+r^k", 1.0, -1.0), ("log", None, 0.5),
                      ("bump", 3.3, 1.0))


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("w, p, q", [(None, np.inf, np.inf), (lambda: RADIUS, 1, 2),
                                     (_bumpy_weight, 1, np.inf), (_bumpy_weight, np.inf, 2)])
def test_file_norm_reads_the_svd_of_each_site(N, w, p, q):
    w = w and w()  # each weight a Profile, built by the parameter's factory
    rng = np.random.default_rng(5)
    V = PotentialSpec.from_samples(3, N, 2.0, 4, _random_samples(rng, 3, N, 4))
    got = potential_norm(V, w, p, q)
    assert got.value == _ref_file_norm(V, w, p, q) > 0.0
    assert got.tail_bound is None and not got.diverged
    zero = PotentialSpec.from_samples(3, N, 2.0, 4, np.zeros((4 ** 3, N, N)))
    assert potential_norm(zero, w, p, q).value == 0.0


def test_every_single_cell_file_reads_its_value():
    # n = 3, M = 8, L = 4: one cell holds 1 and every other 0; the sup is 1 wherever it is
    for site in range(8 ** 3):
        values = np.zeros((8 ** 3, 1, 1))
        values[site] = 1.0
        assert potential_norm(PotentialSpec.from_samples(3, 1, 4.0, 8, values)).value == 1.0


def test_odd_lattice_centre_cell_has_volume_in_every_orthant():
    # M = 3, L = 1.5: the centre cell [-1/2, 1/2]^3 holds |V| = 2 and straddles the origin.
    # Annuli j <= -1 lie inside it, so their L^2 norms are exact, 2 sqrt(vol A_j); annulus 0
    # meets it in volume 1 - pi/6 and is bounded by the cell's volume 1; annulus 1 begins at
    # |x| = 1, beyond the corner at sqrt(3)/2.
    values = np.zeros((27, 1, 1))
    values[13] = 2.0
    V = PotentialSpec.from_samples(3, 1, 1.5, 3, values)
    inner = 4.0 * np.pi / 3.0 * (2.0 ** -3 - 2.0 ** -123)  # vol A_j summed over j = -40 ... -1
    res = potential_norm(V, p=2, q=2)
    assert res.value == pytest.approx(2.0 * np.sqrt(inner + 1.0), rel=1e-12)
    assert potential_norm(V, p=np.inf, q=2).value == pytest.approx(2.0, rel=1e-12)
    assert potential_norm(V, p=np.inf, q=np.inf).value == 2.0


def test_closed_cell_meets_an_annulus_at_a_single_radius():
    # n = 1, M = 2, L = 1: the cell [0, 1] holds 2 and meets annulus 1 = [1, 2) only at
    # |x| = 1, where the weight r reaches 1, as it does at the closed end of annulus 0
    V = PotentialSpec.from_samples(1, 1, 1.0, 2, np.array([0.0, 2.0]).reshape(2, 1, 1))
    assert potential_norm(V, RADIUS, p=np.inf, q=np.inf).value == 2.0


def _bench_like_file(mag):
    # n = 3, M = 4, L = 2^41: the 8 cells at the origin hold |V| = mag and contain every
    # annulus j <= 40; the other cells, beyond 2^41, hold larger random values
    rng = np.random.default_rng(2)
    values = 3.0 * mag * (rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4)))
    values[1:3, 1:3, 1:3] = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 2, 2)))
    return PotentialSpec.from_samples(3, 1, 2.0 ** 41, 4, values.reshape(64, 1, 1))


@pytest.mark.parametrize("p", [1, 2])
def test_file_l2_norm_is_the_finite_cell_sum(p):
    # the terms grow toward the box's outer annuli, and beyond it they are 0: only the
    # inner end of the range is checked for divergence
    mag = 0.7
    js = np.arange(-40, 41)
    terms = mag * np.sqrt(4.0 * np.pi / 3.0 * 0.875 * 8.0 ** js)
    res = potential_norm(_bench_like_file(mag), p=p, q=2)
    assert not res.diverged and res.tail_bound is None
    assert res.value == pytest.approx(np.sum(terms ** p) ** (1.0 / p), rel=1e-12)
    # without a weight, the sups near the origin do not decay: the ell^1 sum diverges at 0
    assert potential_norm(_bench_like_file(mag), p=p, q=np.inf).diverged


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
