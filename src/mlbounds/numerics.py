"""Kernels shared by every bound: the Gaussian tail, the angle cap and the
two-half-plane ("triplet") probability.  Each is a closed form in Q and
Owen's T function and accepts numpy arrays, so a bound evaluates all its
weights in one call.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1 with unit symbol energy,
the channel adds N(0, sigma^2) per dimension, and p_b = Q(1/sigma) is the
crossover probability of the binary symmetric channel induced by
hard-decision demodulation.

scipy is imported inside the functions that call it, here and in bounds and
spectrum, so the spectrum and simulate commands never load it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SnrConvention",
    "ChannelPoint",
    "noise_sigma",
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
    from scipy import special

    return 0.5 * special.erfc(x / _SQRT2)


def angle_upper_bound(d1, d2, n: int):
    """Largest separation angle between the decision half-planes of two
    weight-d1 and weight-d2 competitors in a length-n code:
    min(pi/2, arccos(sqrt(d1/n)) + arccos(sqrt(d2/n))).

    d1 and d2 are integers or integer arrays, broadcast together.
    """
    n = operator.index(n)
    d1, d2 = np.asarray(d1), np.asarray(d2)
    if n < 1 or not all(d.dtype.kind in "iu" and np.all((d >= 1) & (d <= n)) for d in (d1, d2)):
        raise ValidationError(f"need 1 <= d1, d2 <= n, got d1={d1}, d2={d2}, n={n}")
    total = np.arccos(np.sqrt(d1 / n)) + np.arccos(np.sqrt(d2 / n))
    return np.minimum(_HALF_PI, total)


class SnrConvention(enum.Enum):
    """How a user-facing channel grid value maps to the noise scale sigma."""

    EBN0_DB = "ebn0"  # sigma^2 = 1 / (2 R 10^(x/10)), R = k/n
    ESN0_DB = "esn0"  # sigma^2 = 1 / (2 10^(x/10))
    SIGMA = "sigma"  # x is sigma itself


def noise_sigma(
    value: float,
    convention: SnrConvention = SnrConvention.EBN0_DB,
    rate: float | None = None,
) -> float:
    """Per-dimension noise sigma of one grid value under `convention`; the
    Eb/N0 mapping needs the code rate.  ChannelPoint adds p_b = Q(1/sigma)
    to it, while simulate needs sigma alone and so never loads scipy.
    Values whose 10^(x/10) leaves the float range, or that map to a sigma
    of 0 or inf, are refused.
    """
    value = float(value)
    if convention is SnrConvention.SIGMA:
        if not (value > 0.0 and math.isfinite(value)):
            raise ValidationError(f"sigma must be positive and finite, got {value!r}")
        return value
    if convention is SnrConvention.EBN0_DB and (rate is None or not 0.0 < rate <= 1.0):
        raise ValidationError(f"Eb/N0 mapping needs a code rate in (0, 1], got {rate!r}")
    scale = 2.0 * rate if convention is SnrConvention.EBN0_DB else 2.0
    try:
        sigma = math.sqrt(1.0 / (scale * 10.0 ** (value / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10^(x/10) overflows or underflows to 0
        sigma = math.nan
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValidationError(
            f"{convention.value} = {value!r} dB is out of range: "
            "it maps to no positive finite noise sigma"
        )
    return sigma


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
        return cls.from_snr_db(sigma, SnrConvention.SIGMA)

    @classmethod
    def from_snr_db(
        cls,
        snr_db: float,
        convention: SnrConvention = SnrConvention.EBN0_DB,
        rate: float | None = None,
    ) -> "ChannelPoint":
        sigma = noise_sigma(snr_db, convention, rate)
        return cls(sigma, float(q_function(1.0 / sigma)), float(snr_db), convention)


def triplet_probability(d, theta, sigma: float):
    """Probability that N(0, sigma^2 I_2) noise lands in the union of two
    half-planes at distance sqrt(d) from the origin, normals theta apart.

    d (integers >= 1) and theta (in (0, pi/2]) are scalars or arrays,
    broadcast together.  With h = sqrt(d)/sigma the mass is

        Q(h) + 2 T(h, tan(theta/2)),

    where T is Owen's T function (D. B. Owen, Ann. Math. Statist. 1956): the
    first half-plane plus the part of the second one outside it.  At
    theta = pi/2, T(h, 1) = Q(h)(1 - Q(h))/2 and the mass is 2Q - Q^2.  The
    value is non-decreasing in theta and bracketed by [Q, 2Q].  Against a
    60-digit mpmath quadrature it is within 1e-13 relative wherever it
    exceeds 1e-30, except for 3.36 < h < 3.4, where scipy's owens_t changes
    method and the error reaches 2.1e-13; within 1e-10 down to 1e-250.
    """
    from scipy import special

    d = np.asarray(d)
    theta = np.asarray(theta, dtype=np.float64)
    if d.dtype.kind not in "iu" or np.any(d < 1):
        raise ValidationError(f"need integer weights d >= 1, got {d!r}")
    if not np.all((theta > 0.0) & (theta <= _HALF_PI)):
        raise ValidationError(f"theta must lie in (0, pi/2], got {theta!r}")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValidationError(f"sigma must be positive and finite, got {sigma!r}")
    h = np.sqrt(d.astype(np.float64)) / sigma
    return q_function(h) + 2.0 * special.owens_t(h, np.tan(0.5 * theta))
