"""Kernels shared by every bound: the Gaussian tail, the log-factorials
behind the binomial masses, the angle cap and the two-half-plane
("triplet") probability.  Each is a closed form in Q and Owen's T function
and accepts numpy arrays, so a bound evaluates all its weights in one call.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1 with unit symbol energy,
the channel adds N(0, sigma^2) per dimension, and p_b = Q(1/sigma) is the
crossover probability of the binary symmetric channel induced by
hard-decision demodulation.

Q takes erfc from the C library through math; tests/test_numerics.py holds
it to 1e-15 relative of a 40-digit mpmath erfc.  Only the log-factorials
remain a port, of the Cephes lgam (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989), that gives the bits of scipy.special.gammaln:
the same polynomials in the same operation order, with log from the C
library through math; the tests check it bit for bit against scipy.  Only
triplet_probability imports scipy, for owens_t, so only the tight
theta-policy loads it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "SnrConvention",
    "ChannelPoint",
    "noise_sigma",
    "q_function",
    "log_factorials",
    "angle_upper_bound",
    "triplet_probability",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x), Z ~ N(0, 1).

    Realized as 0.5*erfc(x/sqrt(2)), with erfc from the C library through
    math.erfc, which keeps full relative accuracy deep into the tail (within
    1e-15 of a 40-digit mpmath erfc wherever Q is a normal float); erfc
    underflows to exact 0 near x ~ 38, and that underflow-to-zero result is
    the intended value at such operating points.  Accepts scalars or arrays:
    a scalar or 0-d array gives a numpy float64, an n-d array keeps its shape.
    """
    t = np.asarray(x, dtype=np.float64) / _SQRT2
    out = np.fromiter(map(math.erfc, t.ravel().tolist()), np.float64, t.size)
    return 0.5 * out.reshape(t.shape)[()]


def _polevl(x, coefs):
    """Horner's rule, one multiply and one add per step (no fused
    multiply-add) as Cephes polevl; x is a float or an array."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


# Cephes lgam on x = k + 1: exact products below 13, Stirling's series above
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_SERIES = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                0.0833333333333333333333)  # for x >= 1000; c*p - b is c*p + (-b) exactly
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_SMALL_LOG_FACTORIALS = [math.log(float(math.factorial(k))) for k in range(12)]


def log_factorials(n: int) -> np.ndarray:
    """log k! for k in [0, n], bit for bit scipy.special.gammaln(k + 1):
    a port of Cephes lgam on integer arguments.  log comes from math (the C
    library's, which scipy's compiled code calls; numpy's vectorized log
    differs in the last bit)."""
    n = operator.index(n)
    if n < 0:
        raise ValidationError(f"need n >= 0, got n={n}")
    x = np.arange(13.0, n + 2.0)  # x = k + 1 for k >= 12
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), np.float64) - x + _LS2PI
    p = 1.0 / (x * x)
    for at, coefs in ((x < 1000.0, _LGAM_A), ((x >= 1000.0) & (x <= 1e8), _LGAM_SERIES)):
        q[at] += _polevl(p[at], coefs) / x[at]
    return np.concatenate([_SMALL_LOG_FACTORIALS[: n + 1], q])


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
    to it, while simulate needs sigma alone.
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
    antipodal symbols and p_b = Q(1/sigma), derived from it, the induced
    hard-decision crossover probability.  snr_db keeps the user-facing grid
    value and snr_convention records how it was mapped to sigma.
    """

    sigma: float
    p_b: float = field(init=False)
    snr_db: float
    snr_convention: SnrConvention

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma!r}")
        object.__setattr__(self, "p_b", float(q_function(1.0 / self.sigma)))

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
        return cls(sigma, float(snr_db), convention)


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
