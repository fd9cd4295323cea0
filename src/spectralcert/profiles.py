"""Radial profiles with declared factors: what the dyadic sup engine needs to bound a sup.

A profile is c * prod_k f_k(r)^e_k, c >= 0, over four factor kinds.  Each kind declares
its value, its log-derivative in t = ln r, monotone between breakpoints, and those
breakpoints; at a breakpoint a profile gives both one-sided limits of the derivative.

  kind, param   f(r)                            d ln f^e / dt         breakpoint
  "r", None     r                               e                     -
  "1+r^k", k    1 + r^k                         e k / (1 + r^-k)      -
  "log", None   1 + |ln r|                      e sign(t) / (1 + |t|) r = 1
  "bump", R     exp(1 - 1/(1-s)), s = (r/R)^2,  -2 e s / (1-s)^2,     r = R
                for r < R; 0 beyond             0 beyond

A bump takes a positive power only.  Like factors (same kind and parameter) merge when
profiles multiply, so a product that cancels exactly, such as r^-1 (1+|ln r|)^-2 times
r (1+|ln r|)^2, is a constant: a bound built from per-factor derivatives cannot see
cancellation between factors it keeps apart.
"""

from dataclasses import dataclass

import numpy as np

KINDS = ("r", "1+r^k", "log", "bump")


@dataclass(frozen=True)
class Profile:
    """c * prod f^e over ``factors``, each (kind, param, power), like factors merged."""

    const: float = 1.0
    factors: tuple = ()

    @classmethod
    def of(cls, const, *factors):
        """The profile ``const`` * prod f^e of (kind, param, power) ``factors``, like
        factors merged and zero powers dropped."""
        if not const >= 0.0:
            raise ValueError(f"a profile's constant must be >= 0, got {const}")
        merged = {}
        for kind, param, power in factors:
            if kind not in KINDS:
                raise ValueError(f"unknown factor kind {kind!r}")
            merged[kind, param] = merged.get((kind, param), 0.0) + power
        kept = tuple((kind, param, e) for (kind, param), e in merged.items() if e != 0.0)
        if any(kind == "bump" and e < 0.0 for kind, _, e in kept):
            raise ValueError("a bump factor takes a positive power only")
        return cls(float(const), kept)

    def __mul__(self, other):
        return Profile.of(self.const * other.const, *self.factors, *other.factors)

    def __pow__(self, k):
        return Profile.of(self.const ** k,
                          *((kind, param, e * k) for kind, param, e in self.factors))

    @property
    def breaks(self):
        """The radii where a factor's log-derivative jumps, in increasing order."""
        return tuple(sorted({1.0 if kind == "log" else param
                             for kind, param, _ in self.factors if kind in ("log", "bump")}))

    def __call__(self, r):
        """Values at radii ``r`` > 0 and the per-factor log-derivatives, shape (2, F, *r.shape):
        index 0 the limit from below, 1 the limit from above (equal off the breakpoints).

        Where r^k > 1 a factor 1 + r^k is taken as r^k (1 + r^-k), its power r^k merged into
        one power of r, so that a factor that overflows never meets one that underflows:
        the value is inf or 0 only where the profile is, or beyond a bump."""
        r = np.asarray(r, dtype=float)
        power = np.zeros(r.shape)
        value = np.full(r.shape, self.const)
        outside = np.zeros(r.shape, dtype=bool)
        slopes = np.empty((2, len(self.factors)) + r.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.log(r)
            for k, (kind, param, e) in enumerate(self.factors):
                if kind == "r":
                    power += e
                    slopes[:, k] = e
                elif kind == "1+r^k":
                    kt = param * t
                    power += np.where(kt > 0.0, e * param, 0.0)
                    value *= (1.0 + np.exp(-np.abs(kt))) ** e
                    slopes[:, k] = e * param / (1.0 + np.exp(-kt))
                elif kind == "log":
                    value *= (1.0 + np.abs(t)) ** e
                    rise, fall = e / (1.0 + t), -e / (1.0 - t)
                    slopes[0, k] = np.where(t > 0.0, rise, fall)
                    slopes[1, k] = np.where(t >= 0.0, rise, fall)
                else:
                    s = (r / param) ** 2
                    outside |= r >= param
                    value *= np.exp(e * (1.0 - 1.0 / (1.0 - s)))
                    inside = -2.0 * e * s / (1.0 - s) ** 2
                    slopes[0, k] = np.where(r <= param, inside, 0.0)
                    slopes[1, k] = np.where(r < param, inside, 0.0)
            value = np.where(outside, 0.0, value * r ** power)
        return value, slopes


RADIUS = Profile.of(1.0, ("r", None, 1.0))  # r, the weight of N_1
