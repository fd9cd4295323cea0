import numpy as np
import pytest

from spectralcert.potential import PotentialSpec
from spectralcert.profiles import RADIUS, Profile
from spectralcert.weights import WeightSpec


def test_like_factors_merge_and_cancel():
    # w_sigma |V| for dyadic-decay at equal sigma, and |x| rho2(1/2,1/2)^-2 |V| for
    # inverse-square, are constants: their factors cancel exactly
    dd = PotentialSpec.preset("dyadic-decay", 3, 1, c=0.3, sigma=1.5)
    assert dd.profile * WeightSpec("w_sigma", sigma=1.5).profile == Profile(0.3, ())
    inv = PotentialSpec.preset("inverse-square", 3, 1, c=0.5)
    rho = WeightSpec("rho2", eps=0.5, delta=0.5)
    assert inv.profile * RADIUS * rho.profile ** -2 == Profile(0.5, ())
    tau2 = WeightSpec("tau", eps=0.25).profile ** 2
    assert tau2.factors == (("r", None, 0.5), ("1+r^k", 0.75, 2.0))


def test_breaks_are_the_log_and_bump_radii():
    prof = Profile.of(1.0, ("bump", 2.5, 1.0), ("log", None, -1.0), ("1+r^k", 3.0, 1.0),
                      ("bump", 0.5, 2.0))
    assert prof.breaks == (0.5, 1.0, 2.5)
    assert RADIUS.breaks == ()


def test_invalid_profiles():
    with pytest.raises(ValueError):
        Profile.of(-1.0)
    with pytest.raises(ValueError):
        Profile.of(1.0, ("exp", None, 1.0))
    with pytest.raises(ValueError):
        Profile.of(1.0, ("bump", 1.0, 1.0)) ** -1


_FACTORS = [("r", None, -1.3), ("1+r^k", 0.7, -2.5), ("1+r^k", -1.0, 1.5), ("log", None, 1.7),
            ("log", None, -0.6), ("bump", 2.0, 1.0), ("bump", 0.8, 2.5)]


@pytest.mark.parametrize("factor", _FACTORS, ids=str)
def test_log_derivatives_are_monotone_and_match_the_values(factor):
    prof = Profile.of(1.0, factor)
    breaks = prof.breaks
    t = np.linspace(-6.0, 6.0, 4001)
    r = np.exp(t)
    keep = np.all([np.abs(r / b - 1.0) > 1e-3 for b in breaks], axis=0) if breaks else t == t
    value, slopes = prof(r)
    assert slopes.shape == (2, 1, r.size)
    off = keep & (value > 1e-280)
    h = 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 beyond a bump
        numeric = (np.log(prof(np.exp(t + h))[0]) - np.log(prof(np.exp(t - h))[0])) / (2 * h)
    assert np.allclose(slopes[0, 0, off], numeric[off], rtol=1e-5, atol=1e-6)
    assert np.array_equal(slopes[0, 0, keep], slopes[1, 0, keep])
    # monotone between the breaks
    for piece in np.split(np.arange(r.size), np.searchsorted(r, breaks)):
        d = np.diff(slopes[0, 0, piece[keep[piece]]])
        assert np.all(d >= -1e-12) or np.all(d <= 1e-12)


def test_one_sided_limits_at_the_breaks():
    value, slopes = Profile.of(1.0, ("log", None, 2.0))(np.array([1.0]))
    assert value[0] == 1.0 and slopes[:, 0, 0].tolist() == [-2.0, 2.0]
    value, slopes = Profile.of(3.0, ("bump", 1.5, 1.0))(np.array([1.5, 2.0]))
    assert value.tolist() == [0.0, 0.0]
    assert slopes[:, 0, 0].tolist() == [-np.inf, 0.0] and slopes[:, 0, 1].tolist() == [0.0, 0.0]
