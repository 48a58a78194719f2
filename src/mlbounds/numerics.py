"""Kernels shared by every bound: the Gaussian tail, the log-factorials
behind the binomial masses, the angle cap and the two-half-plane
("triplet") probability.  Each is a closed form in Q and Owen's T function
and accepts numpy arrays, so a bound evaluates all its weights in one call.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1 with unit symbol energy,
the channel adds N(0, sigma^2) per dimension, and p_b = Q(1/sigma) is the
crossover probability of the binary symmetric channel induced by
hard-decision demodulation.

Q and the log-factorials are ports of the Cephes erfc and lgam (S. L.
Moshier, Methods and Programs for Mathematical Functions, 1989) that give
the bits of scipy.special.erfc and gammaln: the same polynomials in the
same operation order, with exp and log from the C library through math.
tests/test_numerics.py checks them bit for bit against scipy on dense
grids, at every branch edge and on hypothesis-drawn floats.  Only
triplet_probability imports scipy, for owens_t, so only the tight
theta-policy loads it.
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
    "log_factorials",
    "angle_upper_bound",
    "triplet_probability",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi


# Cephes erf/erfc as scipy 1.17 evaluates it.  Coefficients run from the
# highest power down; the implied leading 1 of Cephes p1evl is written out,
# since 1.0*x + c is x + c exactly.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x, coefs):
    """Horner's rule, one multiply and one add per step (no fused
    multiply-add) as Cephes polevl; x is a float or an array."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


# The three branches' numerators and denominators as (9, 3) columns, padded
# with leading zeros: Horner's rule keeps 0*x + 0 = 0 until the first real
# coefficient, so the padding moves no bit and one pass serves all branches.
_ERFC_NUM, _ERFC_DEN = (
    np.array([(0.0,) * (9 - len(c)) + c for c in coefs]).T
    for coefs in ((_ERF_T, _ERFC_P, _ERFC_R), (_ERF_U, _ERFC_Q, _ERFC_S))
)


def _erfc_scalar(a: float) -> float:
    x = abs(a)
    if x < 1.0:  # 1 - erf(a)
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    if not -a * a >= -_MAXLOG:  # exp underflows; NaN stays NaN
        return a if a != a else (2.0 if a < 0.0 else 0.0)
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    y = math.exp(-a * a) * _polevl(x, p) / _polevl(x, q)
    return 2.0 - y if a < 0.0 else y


def _erfc(a: np.ndarray) -> np.ndarray:
    """_erfc_scalar over a float64 array: the elements of every branch in
    one pass of numpy operations, in the scalar's operation order, with
    exp from math as in log_factorials."""
    x = np.abs(a)
    with np.errstate(over="ignore"):  # a*a of a huge a is inf: underflow
        z = -a * a
    out = np.where(a < 0.0, 2.0, 0.0)  # the underflow value
    out[np.isnan(a)] = np.nan
    live = (x < 1.0) | (z >= -_MAXLOG)
    a, x, z = a[live], x[live], z[live]
    branch = np.digitize(x, (1.0, 8.0))  # 0: |a| < 1, 1: |a| < 8, 2: above
    small = branch == 0
    var = np.where(small, -z, x)
    factor = a.copy()
    factor[~small] = np.fromiter(map(math.exp, z[~small].tolist()), np.float64)
    y = factor * _polevl(var, _ERFC_NUM[:, branch]) / _polevl(var, _ERFC_DEN[:, branch])
    out[live] = np.where(small, 1.0 - y, np.where(a < 0.0, 2.0 - y, y))
    return out


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x), Z ~ N(0, 1).

    Realized as 0.5*erfc(x/sqrt(2)), which keeps full relative accuracy deep
    into the tail; erfc underflows to exact 0 near x ~ 38, and that
    underflow-to-zero result is the intended value at such operating points.
    erfc is the Cephes port above, bit-identical to scipy.special.erfc
    (tests/test_numerics.py compares the two on a dense grid, around every
    branch edge and on hypothesis-drawn floats).  Accepts scalars or arrays;
    a scalar gives a numpy float64.
    """
    t = x / _SQRT2
    if isinstance(t, float):  # Python float or numpy float64
        return np.float64(0.5 * _erfc_scalar(float(t)))
    return 0.5 * _erfc(np.asarray(t, dtype=np.float64))


# Cephes lgam on x = k + 1: exact products below 13, Stirling's series above
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_SERIES = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                0.0833333333333333333333)  # for x >= 1000; c*p - b is c*p + (-b) exactly
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_SMALL_LOG_FACTORIALS = [math.log(float(math.factorial(k))) for k in range(12)]


def log_factorials(n: int) -> np.ndarray:
    """log k! for k in [0, n], bit for bit scipy.special.gammaln(k + 1):
    a port of Cephes lgam on integer arguments.  Like exp in erfc, log comes
    from math (the C library's, which scipy's compiled code calls; numpy's
    vectorized log and exp differ in the last bit)."""
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
