from fractions import Fraction
import math

import numpy as np
import pytest

from spectralcert.enclosure import (c1_constant, c2_constant, c3_constant,
                                    kato_yajima_constant, rho_norms,
                                    n1_norm, n2_norm, certify, disk_pair,
                                    enclosure_disks, DiskPair, Certificate, DEFAULT_RHO,
                                    _decide, product_up)
from spectralcert.potential import PotentialSpec
from spectralcert.weights import NormResult, WeightSpec


def test_c2_closed_form():
    # oracle: evaluate the closed form independently
    for n in (3, 4, 5, 10):
        expect = 576 * n * max(np.sqrt(n), (64 * n + 324) ** 0.25)
        assert c2_constant(n) == pytest.approx(expect, rel=1e-15)
    assert c2_constant(3) == pytest.approx(8235.80705387, rel=1e-10)


def test_kato_yajima():
    assert kato_yajima_constant(3) == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-15)
    assert kato_yajima_constant(4) == pytest.approx(np.sqrt(np.pi / 4.0), rel=1e-15)
    with pytest.raises(ValueError):
        kato_yajima_constant(2)


def test_c1_massless_is_twice_c2():
    assert c1_constant(3, 0.0, 2.0) == pytest.approx(2 * c2_constant(3) * 4.0, rel=1e-15)


def test_c1_massive_closed_form():
    n, m, rl2, rhalf = 3, 1.0, 2.0, 1.0
    quarter = (64 * n + 324) ** 0.25
    expect = (576 * n * (np.sqrt(n) + 3 * quarter) * rl2 ** 2
              + 3 * np.sqrt(np.pi / 2) * rhalf ** 2)
    assert c1_constant(n, m, rl2, rhalf) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        c1_constant(3, 1.0, 2.0)  # missing half-power norm


def test_c3_closed_form():
    n = 3
    expect = 576 * n * (64 * n + 324) ** 0.25 * 4.0 + np.sqrt(np.pi / 2)
    assert c3_constant(3, 2.0, 1.0) == pytest.approx(expect, rel=1e-15)


def test_rho2_analytic_bounds():
    # rho2(1/2,1/2) = (r^-1/2 + r^1/2)^-1 obeys |rho|_{ell2 Linf} <= 2 and
    # | |x|^1/2 rho |_inf <= 1 (exact analytic facts)
    rho = WeightSpec("rho2", eps=0.5, delta=0.5)
    l2, half = rho_norms(rho)
    assert l2.rigorous_upper() <= 2.0
    assert half.rigorous_upper() <= 1.0 + 1e-12
    # sharp: |x|^1/2 rho = r/(1+r) -> 1, so the sup is essentially 1
    assert half.value == pytest.approx(1.0, rel=1e-6)
    assert l2.value == pytest.approx(1.3010, rel=1e-3)


def test_n1_norm_inverse_square():
    # oracle: sup over annulus j of r|c|/(1+r)^2; summed per-annulus maxima
    c = 0.5
    V = PotentialSpec.preset("inverse-square", 3, 4, c=c)
    res = n1_norm(V)
    prof = lambda r: r * c / (1 + r) ** 2
    terms = []
    for j in range(-40, 41):
        r = np.geomspace(2.0 ** (j - 1), 2.0 ** j * (1 - 1e-12), 4001)
        terms.append(prof(r).max())
    assert res.value == pytest.approx(sum(terms), rel=1e-6)
    assert res.value == pytest.approx(c * 1.6927, rel=1e-3)


def test_n1_scales_linearly():
    a = n1_norm(PotentialSpec.preset("inverse-square", 3, 1, c=1.0))
    b = n1_norm(PotentialSpec.preset("inverse-square", 3, 1, c=2.5))
    assert b.value == pytest.approx(2.5 * a.value, rel=1e-10)


def test_n2_weight_cancellation():
    # |x| rho2^-2 V = 1 exactly for rho2(1/2,1/2) and the inverse-square preset:
    # r (r^-1/2 + r^1/2)^2 / (1+r)^2 = 1
    V = PotentialSpec.preset("inverse-square", 3, 1, c=1.0)
    rho = WeightSpec("rho2", eps=0.5, delta=0.5)
    core, l2 = n2_norm(V, rho)
    assert core.value == pytest.approx(1.0, rel=1e-12)
    assert core.tail_bound == pytest.approx(1.0, rel=1e-12)
    assert l2.value == pytest.approx(1.3010, rel=1e-3)


def test_certify_quantitative_stable():
    V = PotentialSpec.preset("inverse-square", 3, 4, c=5e-6)
    cert = certify("2.3", V, m=1.0, rho=WeightSpec("rho2", eps=0.5, delta=0.5))
    assert cert.verdict == "stable"
    assert cert.constant * cert.norm_upper < 1.0
    assert cert.threshold == pytest.approx(1.0 / cert.constant)


def test_certify_quantitative_inconclusive_when_large():
    V = PotentialSpec.preset("inverse-square", 3, 4, c=1.0)
    cert = certify("2.3", V, m=1.0)
    assert cert.verdict == "inconclusive"
    assert cert.constant * cert.norm_upper >= 1.0


def test_certify_massless_dyadic():
    thr = 1.0 / (2.0 * c2_constant(3))
    small = PotentialSpec.preset("inverse-square", 3, 4, c=0.9 * thr / 1.6928)
    cert = certify("2.4", small, m=0.0)
    assert cert.verdict == "stable"
    with pytest.raises(ValueError):
        certify("2.4", small, m=1.0)


# N_1 of c |x|^-1 (1+|log|x||)^-sigma is infinite at sigma = 1 (a harmonic series);
# at sigma = 2, c = 1.486e-5 the sum over |j| <= 1e5 alone gives 2 C2 N_1 = 1.0033.
# The dyadic tail stops 200 annuli past the sampled range and the divergence check
# only sees terms that do not decay, so both read stable (2 C2 N_1 = 0.785, 0.9991).
@pytest.mark.xfail(strict=True, reason="dyadic tail truncated; slow decay is not detected")
@pytest.mark.parametrize("sigma,c", [(1.0, 3e-6), (2.0, 1.486e-5)])
def test_certify_massless_dyadic_decay_not_stable(sigma, c):
    V = PotentialSpec.preset("dyadic-decay", 3, 4, c=c, sigma=sigma)
    assert certify("2.4", V, m=0.0).verdict != "stable"


def test_certify_qualitative_always_inconclusive():
    V = PotentialSpec.preset("bump", 3, 4, c=1e-12, R=1.0)
    for thm, m in (("2.1", 0.0), ("2.2-massive", 1.0), ("2.2-massless", 0.0)):
        cert = certify(thm, V, m=m)
        assert cert.verdict == "inconclusive"
        assert cert.norm is not None
    with pytest.raises(ValueError):
        certify("2.2-massless", V, m=1.0)
    with pytest.raises(ValueError):
        certify("2.5-j1", V, m=1.0)


def test_disk_pair_geometry():
    d = disk_pair(1.0, 1.0 / (10.0 * c2_constant(3)), 1, n=3)
    v = (10.0 - 1.0) ** 2
    assert d.V_j == pytest.approx(v)
    assert d.x0_plus == pytest.approx((v ** 2 + 1) / (v ** 2 - 1))
    assert d.x0_minus == pytest.approx(-d.x0_plus)
    assert d.r0 == pytest.approx(2 * v / (v ** 2 - 1))
    # tangency invariant: the disks touch the gap (-m, m) boundary
    assert d.x0_plus ** 2 - d.r0 ** 2 == pytest.approx(d.m ** 2, abs=1e-12)
    assert d.contains(d.x0_plus + d.r0)
    assert d.contains(-d.x0_plus - 0.5 * d.r0)
    assert not d.contains(0.0)
    assert not d.contains(d.x0_plus + 1.01 * d.r0)


def test_disk_pair_rejects_large_potential():
    with pytest.raises(ValueError):
        disk_pair(1.0, 1.0, 1, n=3)


def test_disks_shrink_to_points():
    # N_j -> 0: disks collapse onto +-m
    for Nj in (1e-8, 1e-10, 1e-12):
        d = disk_pair(2.0, Nj, 1, n=3)
        assert abs(d.x0_plus - 2.0) < 1e-5
        assert d.r0 < 1e-3
    d1 = disk_pair(2.0, 1e-8, 1, n=3)
    d2 = disk_pair(2.0, 1e-12, 1, n=3)
    assert d2.r0 < d1.r0


def test_enclosure_disks_certificate():
    C2 = c2_constant(3)
    c = 0.5 / (2.0 * C2 * 1.6928)  # 2 C2 N_1 close to 0.5
    V = PotentialSpec.preset("inverse-square", 3, 4, c=c)
    cert = enclosure_disks(V, m=1.0, j=1)
    assert cert.verdict == "enclosure"
    assert isinstance(cert.disks, DiskPair)
    assert 2.0 * C2 * cert.params["N_j"] < 1.0
    assert cert.disks.x0_plus ** 2 - cert.disks.r0 ** 2 == pytest.approx(1.0, abs=1e-9)

    big = PotentialSpec.preset("inverse-square", 3, 4, c=1.0)
    assert enclosure_disks(big, m=1.0, j=1).verdict == "inconclusive"
    with pytest.raises(ValueError):
        enclosure_disks(V, m=0.0, j=1)
    with pytest.raises(ValueError):
        enclosure_disks(V, m=1.0, j=3)


def test_enclosure_j2_contains_j1_region():
    # same potential, both norms small: each certificate confines the spectrum;
    # verify the j=2 disks are geometrically consistent (tangency + symmetry)
    c = 1e-6
    V = PotentialSpec.preset("inverse-square", 3, 4, c=c)
    c1 = enclosure_disks(V, m=1.0, j=1)
    c2 = enclosure_disks(V, m=1.0, j=2)
    assert c1.verdict == c2.verdict == "enclosure"
    for cert in (c1, c2):
        d = cert.disks
        assert d.x0_plus ** 2 - d.r0 ** 2 == pytest.approx(1.0, abs=1e-9)
    # a larger N_j gives larger disks
    lo = min(c1.params["N_j"], c2.params["N_j"])
    hi = max(c1.params["N_j"], c2.params["N_j"])
    d_lo = disk_pair(1.0, lo, 1, n=3)
    d_hi = disk_pair(1.0, hi, 1, n=3)
    assert d_hi.r0 >= d_lo.r0
    # and the small disk pair is contained in the large one
    assert abs(d_lo.x0_plus - d_hi.x0_plus) + d_lo.r0 <= d_hi.r0 + 1e-12


def _certificate(theorem, V):
    if theorem.startswith("2.5-j"):
        return enclosure_disks(V, m=1.0, j=int(theorem[-1]))
    return certify(theorem, V, m=1.0 if theorem == "2.3" else 0.0)


@pytest.mark.parametrize("theorem, good", [("2.3", "stable"), ("2.4", "stable"),
                                           ("2.5-j1", "enclosure"), ("2.5-j2", "enclosure")])
def test_one_verdict_rule(theorem, good):
    # a file sampled on [-4, 4)^3 is 0 beyond its box, so its norm has no tail bound
    small_box = PotentialSpec.from_samples(3, 4, 4.0, 4, np.full((4 ** 3, 4, 4), 1e-3))
    cases = ((small_box, "inconclusive", "norm divergent or tail unknown; cannot certify"),
             (PotentialSpec.preset("inverse-square", 3, 4, c=1.0), "inconclusive",
              "smallness condition not met; no claim either way"),
             (PotentialSpec.preset("inverse-square", 3, 4, c=1e-9), good, ""))
    for V, verdict, reason in cases:
        cert = _certificate(theorem, V)
        assert (cert.verdict, cert.reason) == (verdict, reason)
        assert cert.norm is not None and cert.threshold == 1.0 / cert.constant
        assert (cert.norm_upper is None) == (V is small_box)
        assert (cert.disks is not None) == (verdict == "enclosure")


def _neighbours(x, k=8):
    """x and the k floats on each side of it."""
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_verdict_compares_the_product_rounded_up():
    C = 2.0 * c2_constant(3)
    below = math.nextafter(1.0, 0.0)
    u = next(x for x in _neighbours(1.0 / C) if C * x == below)
    assert C * u < 1.0  # the product rounded to nearest reads just below 1 ...
    assert product_up(C, u) == 1.0  # ... and rounded up it does not
    res = NormResult(value=u, p=1.0, j_min=-40, j_max=40, tail_bound=0.0)
    cert = Certificate(theorem="2.4", verdict="inconclusive")
    assert not _decide(cert, res, u, C, "stable")
    assert cert.reason == "smallness condition not met; no claim either way"
    smaller = next(x for x in _neighbours(u) if product_up(C, x) < 1.0)
    assert _decide(Certificate(theorem="2.4", verdict="inconclusive"), res, smaller, C, "stable")


def test_product_up_is_never_below_the_exact_product():
    rng = np.random.default_rng(0)
    for _ in range(500):
        xs = [float(x) for x in np.exp(rng.uniform(-30.0, 30.0, size=int(rng.integers(2, 4))))]
        exact = math.prod(Fraction(x) for x in xs)
        up = product_up(*xs)
        assert Fraction(up) >= exact
        assert up <= math.prod(xs) * (1.0 + 1e-15)
    assert product_up(2.0, math.inf) == math.inf


def test_enclosure_j2_rounds_its_product_up():
    V = PotentialSpec.preset("inverse-square", 3, 1, c=1e-7)
    cert = enclosure_disks(V, m=1.0, j=2)
    core, l2 = n2_norm(V, DEFAULT_RHO)
    lu, cu = l2.rigorous_upper(), core.rigorous_upper()
    assert cert.params["N_j"] == product_up(lu, lu, cu)
    assert Fraction(cert.params["N_j"]) >= Fraction(lu) ** 2 * Fraction(cu)


def test_certificates_report_the_tail_share():
    V = PotentialSpec.preset("dyadic-decay", 3, 1, c=1e-6, sigma=2.0)
    cert = certify("2.4", V)
    assert 0.0 < cert.tail_share == cert.tail_bound / cert.norm_upper < 1.0
    qual = certify("2.1", V, m=1.0)
    assert qual.tail_share == qual.tail_bound / qual.norm_upper
    # N_2's upper bound carries |rho|^2: the share is of the hypothesis norm's own bound
    two = enclosure_disks(V, m=1.0, j=2)
    core, _ = n2_norm(V, DEFAULT_RHO)
    assert two.tail_share == core.tail_bound / core.rigorous_upper()
    small_box = PotentialSpec.from_samples(3, 1, 4.0, 4, np.full((4 ** 3, 1, 1), 1e-3))
    assert certify("2.4", small_box).tail_share is None  # tail unknown
    assert certify("2.4", PotentialSpec.preset("bump", 3, 1, c=0.0)).tail_share is None
