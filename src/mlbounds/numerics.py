"""Scalar kernels shared by every bound: the Gaussian tail, the angle cap
and the two-half-plane ("triplet") probability.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1 with unit symbol energy,
the channel adds N(0, sigma^2) per dimension, and p_b = Q(1/sigma) is the
crossover probability of the binary symmetric channel induced by
hard-decision demodulation.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .errors import ValidationError

__all__ = [
    "SnrConvention",
    "ChannelPoint",
    "TripletGeometry",
    "q_function",
    "angle_upper_bound",
    "triplet_probability",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x), Z ~ N(0, 1).

    Realized as 0.5*erfc(x/sqrt(2)), which keeps full relative accuracy deep
    into the tail; erfc underflows to exact 0 near x ~ 38, and that
    underflow-to-zero result is the intended value at such operating points.
    Accepts scalars or arrays.
    """
    return 0.5 * special.erfc(x / _SQRT2)


def angle_upper_bound(d1: int, d2: int, n: int) -> float:
    """Largest separation angle between the decision half-planes of two
    weight-d1 and weight-d2 competitors in a length-n code:
    min(pi/2, arccos(sqrt(d1/n)) + arccos(sqrt(d2/n))).
    """
    n = operator.index(n)
    d1 = operator.index(d1)
    d2 = operator.index(d2)
    if n < 1 or not (1 <= d1 <= n) or not (1 <= d2 <= n):
        raise ValidationError(f"need 1 <= d1, d2 <= n, got d1={d1}, d2={d2}, n={n}")
    total = math.acos(math.sqrt(d1 / n)) + math.acos(math.sqrt(d2 / n))
    return min(_HALF_PI, total)


class SnrConvention(enum.Enum):
    """How a user-facing channel grid value maps to the noise scale sigma."""

    EBN0_DB = "ebn0"  # sigma^2 = 1 / (2 R 10^(x/10)), R = k/n
    ESN0_DB = "esn0"  # sigma^2 = 1 / (2 10^(x/10))
    SIGMA = "sigma"  # x is sigma itself


@dataclass(frozen=True)
class ChannelPoint:
    """BPSK-AWGN operating point.

    sigma is the per-dimension noise standard deviation for unit-energy
    antipodal symbols and p_b = Q(1/sigma) the induced hard-decision
    crossover probability.  snr_db keeps the user-facing grid value and
    snr_convention records how it was mapped to sigma.
    """

    sigma: float
    p_b: float
    snr_db: float
    snr_convention: SnrConvention

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma!r}")
        expected = float(q_function(1.0 / self.sigma))
        if not math.isclose(self.p_b, expected, rel_tol=1e-9, abs_tol=0.0):
            raise ValidationError(
                f"p_b={self.p_b!r} inconsistent with Q(1/sigma)={expected!r}"
            )

    @classmethod
    def from_sigma(cls, sigma: float) -> "ChannelPoint":
        sigma = float(sigma)
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
        return cls(sigma, float(q_function(1.0 / sigma)), sigma, SnrConvention.SIGMA)

    @classmethod
    def from_snr_db(
        cls,
        snr_db: float,
        convention: SnrConvention = SnrConvention.EBN0_DB,
        rate: float | None = None,
    ) -> "ChannelPoint":
        snr_db = float(snr_db)
        if convention is SnrConvention.SIGMA:
            point = cls.from_sigma(snr_db)
            return point
        snr_lin = 10.0 ** (snr_db / 10.0)
        if convention is SnrConvention.EBN0_DB:
            if rate is None or not 0.0 < rate <= 1.0:
                raise ValidationError(f"Eb/N0 mapping needs a code rate in (0, 1], got {rate!r}")
            var = 1.0 / (2.0 * rate * snr_lin)
        elif convention is SnrConvention.ESN0_DB:
            var = 1.0 / (2.0 * snr_lin)
        else:  # pragma: no cover - enum is exhaustive
            raise ValidationError(f"unknown convention {convention!r}")
        sigma = math.sqrt(var)
        return cls(sigma, float(q_function(1.0 / sigma)), snr_db, convention)


@dataclass(frozen=True)
class TripletGeometry:
    """Two competitors at equal distance sqrt(d) from the transmitted point,
    decision half-plane normals separated by theta, ambient length n.
    """

    d: int
    n: int
    theta: float

    def __post_init__(self):
        d = operator.index(self.d)
        n = operator.index(self.n)
        if not 1 <= d <= n:
            raise ValidationError(f"need 1 <= d <= n, got d={d}, n={n}")
        if not (0.0 < self.theta <= _HALF_PI):
            raise ValidationError(f"theta must lie in (0, pi/2], got {self.theta!r}")


# 20-point panels make the half/whole comparison a practical error estimate
# for analytic integrands while staying cheap per subdivision.
_GL_NODES, _GL_WEIGHTS = leggauss(20)


def _gl_panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def _adaptive_gauss_legendre(f, a: float, b: float, atol: float, rtol: float,
                             max_depth: int = 48) -> float:
    """Adaptive bisection with Gauss-Legendre panels.

    A panel is accepted when splitting it in two changes the estimate by
    less than max(atol, rtol*|refined|); the refined value is returned.
    """

    def recurse(lo: float, hi: float, whole: float, atol: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        refined = left + right
        if depth <= 0 or abs(refined - whole) <= max(atol, rtol * abs(refined)):
            return refined
        half_tol = 0.5 * atol
        return recurse(lo, mid, left, half_tol, depth - 1) + recurse(
            mid, hi, right, half_tol, depth - 1
        )

    return recurse(a, b, _gl_panel(f, a, b), atol, max_depth)


def triplet_probability(geom: TripletGeometry, sigma: float) -> float:
    """Probability that N(0, sigma^2 I_2) noise lands in the union of two
    half-planes at signed distance sqrt(d), normals theta apart.

    Decomposes as the first half-plane plus the part of the second one not
    already covered:

        Q(sqrt(d)/sigma)
        + int_{sqrt(d)}^{inf} phi_sigma(x) Phi_sigma((sqrt(d) - x cos t)/sin t) dx

    The outer integral is truncated at sqrt(d) + 10*sigma (the remainder is
    below exp(-50) of the leading term) and evaluated with adaptive
    Gauss-Legendre panels to 1e-12 absolute and relative tolerance; the
    inner integral is the closed-form normal CDF.  The result is
    non-decreasing in theta, equals 2Q - Q^2 at theta = pi/2, and is always
    bracketed by [Q, 2Q].
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
    sd = math.sqrt(geom.d)
    q1 = float(q_function(sd / sigma))
    cos_t = math.cos(geom.theta)
    sin_t = math.sin(geom.theta)
    inv_sigma = 1.0 / sigma
    pdf_norm = inv_sigma / math.sqrt(2.0 * math.pi)

    def integrand(x):
        upper = (sd - x * cos_t) / sin_t
        pdf = pdf_norm * np.exp(-0.5 * (x * inv_sigma) ** 2)
        cdf = 0.5 * special.erfc(-upper * inv_sigma / _SQRT2)
        return pdf * cdf

    overlap = _adaptive_gauss_legendre(
        integrand, sd, sd + 10.0 * sigma, atol=1e-12, rtol=1e-12
    )
    return q1 + overlap
