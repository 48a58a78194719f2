"""Upper bounds on ML decoding error probability over BPSK-AWGN.

Every combined bound here has the same shape: pick a radius d*, bound the
error probability jointly with the hard-decision word staying within radius
d* of the transmitted word, and add the binomial mass B(p_b, n, d*+1, n) of
leaving that region.  The radius is scanned exhaustively and the smallest
objective wins, so d* = n recovers the plain union bound and d* = 0 leaves
only the region-exit mass, which is always below 1.

Cost per channel point: everything that does not depend on the radius (the
Q values, the per-weight coefficient products and, under the tight
theta-policy, the Owen's-T factors of all weights above n/2 in one array
call) is computed once; the scan then only gathers binomial masses and sums.
Each variant builds only the binomial mass it reads: union builds no table,
truncated-union and gfbt read only the length-n+2 region-exit tail, and the
refined variants also stream the prefix masses B(p_b, N, 0, d*-1) one
column per radius, in ascending d*, so memory stays O(n).

Numerical layout notes: per-weight terms are assembled in ascending weight
order into equally sliced arrays for every variant and summed by one
contiguous np.sum before the tail is added, binomial prefix masses are
clamped to <= 1, and each refinement multiplies a baseline term by factors
<= 1, so the documented dominance chains (word <= truncated union <= union,
bit <= word) hold exactly in floating point, not just in exact arithmetic.
"""

from __future__ import annotations

import bisect
import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Protocol

import numpy as np
from scipy import special

from .errors import MlboundsError, ProviderLookupError, ValidationError
from .numerics import ChannelPoint, angle_upper_bound, q_function, triplet_probability
from .spectrum import InputOutputSpectrum, SpectrumKind, WeightSpectrum, _content_lines

__all__ = [
    "BoundVariant",
    "ThetaPolicy",
    "BoundResult",
    "BaseBoundProvider",
    "UnionBoundProvider",
    "FileBoundProvider",
    "union_bound",
    "truncated_union_bound",
    "gfbt_combine",
    "pairwise_error_bound",
    "triplet_error_bound",
    "word_error_bound",
    "bit_error_bound",
]


class BoundVariant(enum.Enum):
    """Bound family; the string values double as CLI names."""

    UNION = "union"
    TRUNCATED_UNION = "truncated-union"
    PAIRWISE_IMPROVED = "pairwise"
    TRIPLET_IMPROVED = "triplet"
    UNIFIED_WORD = "word"
    UNIFIED_BIT = "bit"
    GFBT_COMBINED = "gfbt"


class ThetaPolicy(enum.Enum):
    """Half-plane separation angle used in triplet-based terms.

    CLOSED_FORM takes theta = pi/2, where the two-half-plane probability is
    exactly 2Q - Q^2.  TIGHT substitutes the angle cap 2*arccos(sqrt(d/n))
    whenever that is below pi/2 (only possible for d > n/2), where the
    probability is Q + 2 T(sqrt(d)/sigma, tan(theta/2)) with T Owen's T
    function; it is never larger, and equals 2Q - Q^2 again at pi/2.
    """

    CLOSED_FORM = "closed-form"
    TIGHT = "tight"


@dataclass(frozen=True)
class BoundResult:
    """One bound evaluation at one channel point.

    value is the raw minimized objective and may exceed 1; clamped is
    min(value, 1) for plotting.  per_d_terms holds the per-weight
    contributions at the winning d*, tail_term the region-exit mass
    B(p_b, n, d*+1, n), and base_term an opaque provider total (gfbt replay
    only).  value = sum(per_d_terms) + base_term + tail_term within 1e-12.
    """

    value: float
    d_star_opt: int
    per_d_terms: dict[int, float]
    tail_term: float
    variant: BoundVariant
    base_term: float = 0.0

    @property
    def clamped(self) -> float:
        return min(self.value, 1.0)


class BaseBoundProvider(Protocol):
    """Any upper bound on ML error probability of the subcode with spectrum
    restricted to d <= 2d*, evaluated at a channel point.

    Must return a finite value in [0, inf) and 0 for an empty sub-spectrum.
    """

    def __call__(self, sub_spectrum: WeightSpectrum, ch: ChannelPoint) -> float: ...


class _BinomialTable:
    """Binomial(N, p) masses at fixed p for lengths N in [0, n].

    suffix[m] = B(p, n, m, n) comes from row N = n alone.  Prefix masses
    B(p, N, 0, m) stream one column m at a time: the radius scan asks for
    them in ascending m, so one running vector over N holds the latest
    column and memory stays O(n).  Pmfs are formed in log space so deep
    tails keep relative accuracy; prefixes come from forward sums and
    suffixes from backward sums, never from 1-x subtractions.  Everything
    is clamped to <= 1 so a product term * mass can never exceed the
    unrefined term in floating point.
    """

    def __init__(self, p: float, n: int):
        if not 0.0 <= p < 1.0:
            raise ValidationError(f"table needs p in [0, 1), got {p!r}")
        self.p = p
        self.n = n
        self._lf = lf = special.gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)  # log N!
        self._sums = np.zeros(n + 1)  # B(p, N, 0, column) at row N
        self._column = -1
        suffix = np.zeros(n + 2)
        if p == 0.0:
            # deep-SNR degenerate case: zero hard errors almost surely
            suffix[0] = 1.0
        else:
            m = np.arange(n + 1, dtype=np.float64)
            logpmf = lf[n] - lf - lf[::-1] + m * math.log(p) + (n - m) * math.log1p(-p)
            suffix[: n + 1] = np.cumsum(np.exp(logpmf)[::-1])[::-1]
        self.suffix = np.minimum(1.0, suffix)

    def mass_upto(self, rows: np.ndarray, m: int) -> np.ndarray:
        """B(p, N, 0, m) for an array of lengths N >= 0, m never below the
        previous request.

        Column j adds the pmf at j to rows N >= j only; row N is constant
        from column N on, so m >= N needs no clipping.
        """
        if m < 0:
            return np.zeros(len(rows))
        if m < self._column:
            raise ValidationError(f"prefix column {m} requested after column {self._column}")
        if self.p == 0.0:
            return np.ones(len(rows))
        n, lf = self.n, self._lf
        log_p, log_q = math.log(self.p), math.log1p(-self.p)
        for j in range(self._column + 1, m + 1):
            gap = np.arange(n + 1 - j, dtype=np.float64)  # N - j for N in [j, n]
            self._sums[j:] += np.exp(((lf[j:] - lf[j]) - lf[: n + 1 - j]) + j * log_p + gap * log_q)
        self._column = m
        return np.minimum(1.0, self._sums[rows])

    def region_exit(self, d_star: int) -> float:
        """B(p, n, d*+1, n): hard-decision weight leaves the radius-d* ball."""
        return float(self.suffix[min(d_star + 1, self.n + 1)])


def _probe_range(
    spectrum: WeightSpectrum, d_star: int | None, d_star_max: int | None
) -> range:
    """Radii to scan: all of [0, n] when the spectrum is complete, else only
    radii whose 2d* coverage the truncation actually provides."""
    n = spectrum.n
    known = spectrum.max_known_weight
    hi = n if known >= n else known // 2
    if d_star_max is not None:
        d_star_max = operator.index(d_star_max)
        if not 0 <= d_star_max:
            raise ValidationError(f"d_star_max must be >= 0, got {d_star_max}")
        hi = min(hi, d_star_max)
    if d_star is not None:
        d_star = operator.index(d_star)
        if not 0 <= d_star <= hi:
            raise ValidationError(
                f"d_star={d_star} outside the feasible range [0, {hi}] "
                f"(spectrum known through weight {known})"
            )
        return range(d_star, d_star + 1)
    return range(0, hi + 1)


class _PointArrays:
    """Radius-independent per-weight arrays at one channel point, in
    ascending weight order, shared by every variant."""

    def __init__(self, spectrum: WeightSpectrum, ch: ChannelPoint):
        self.n = spectrum.n
        self.p_b = ch.p_b
        self.ds = np.array(spectrum.weights(), dtype=np.int64)  # A_d > 0
        self.a = np.array([spectrum.counts[int(d)] for d in self.ds], dtype=np.float64)
        self.q = np.atleast_1d(q_function(np.sqrt(self.ds.astype(np.float64)) / ch.sigma))
        self.aq = self.a * self.q  # plain union term per weight
        # prefix rows n-d and n-2d; lengths <= 0 are degenerate at zero
        # successes, which is exactly row 0
        self.single_rows = np.clip(self.n - self.ds, 0, None)
        self.paired_rows = np.clip(self.n - 2 * self.ds, 0, None)

    @cached_property
    def table(self) -> _BinomialTable:
        return _BinomialTable(self.p_b, self.n)

    def single(self, cut: int, radius: int) -> np.ndarray:
        """B(p_b, n-d, 0, radius-1) for the first cut weights."""
        return self.table.mass_upto(self.single_rows[:cut], radius - 1)

    def paired(self, cut: int, radius: int) -> np.ndarray:
        """B(p_b, n-2d, 0, radius-1) for the first cut weights."""
        return self.table.mass_upto(self.paired_rows[:cut], radius - 1)


def _triplet_factors(
    arrays: _PointArrays, ch: ChannelPoint, theta_policy: ThetaPolicy
) -> np.ndarray:
    """Half the two-half-plane probability per weight: Q - Q^2/2 at the
    closed-form angle, or (Q + 2 T(h, tan(theta/2)))/2 at the capped angle
    theta for the weights where the tight policy improves on pi/2, all of
    them in one triplet_probability call."""
    q = arrays.q
    factors = q - 0.5 * q * q
    if theta_policy is ThetaPolicy.TIGHT:
        # theta == 0 only at d == n where at most one codeword exists and the
        # factor is multiplied by zero anyway; keep the closed form there.
        theta = angle_upper_bound(arrays.ds, arrays.ds, arrays.n)
        capped = (theta > 0.0) & (theta < 0.5 * math.pi)
        factors[capped] = 0.5 * triplet_probability(arrays.ds[capped], theta[capped], ch.sigma)
    return factors


def _minimize(
    objective: Callable[[int], tuple[float, Any]], probe: range
) -> tuple[float, int, Any]:
    """Scan radii and keep the smallest objective, ties to the smallest d*,
    together with the detail the objective returned for it."""
    best: tuple[float, int, Any] | None = None
    for d_star in probe:
        value, detail = objective(d_star)
        if not math.isfinite(value):
            raise ValidationError(f"objective at d_star={d_star} is {value!r}")
        if best is None or value < best[0]:
            best = (value, d_star, detail)
    assert best is not None  # probe ranges are never empty
    return best


def _combined_bound(
    arrays: _PointArrays,
    probe: range,
    terms: Callable[[int, int], np.ndarray],
    variant: BoundVariant,
) -> BoundResult:
    """The radius scan shared by every term-wise variant.

    terms(cut, radius) gives the per-weight terms of the first cut weights,
    the ones with d <= 2*radius.  The objective is their one contiguous
    np.sum plus the region-exit tail; the winning radius's terms become
    per_d_terms.  Radii ascend, as the streamed prefix masses require.
    """
    cuts = np.searchsorted(
        arrays.ds, 2 * np.arange(probe.start, probe.stop), side="right"
    ).tolist()
    table = arrays.table

    def objective(radius: int) -> tuple[float, np.ndarray]:
        radius_terms = terms(cuts[radius - probe.start], radius)
        return float(np.sum(radius_terms)) + table.region_exit(radius), radius_terms

    value, d_star, best = _minimize(objective, probe)
    per_d = dict(zip(arrays.ds[: len(best)].tolist(), best.tolist()))
    return BoundResult(value, d_star, per_d, table.region_exit(d_star), variant)


# --- whole-curve bounds ----------------------------------------------------


def union_bound(spectrum: WeightSpectrum, ch: ChannelPoint) -> BoundResult:
    """Plain union bound sum_d A_d Q(sqrt(d)/sigma) over the full spectrum."""
    if spectrum.kind is SpectrumKind.TRUNCATED:
        raise ValidationError("union bound needs the full spectrum, not a truncated one")
    arrays = _PointArrays(spectrum, ch)
    value = float(np.sum(arrays.aq))
    per_d = dict(zip(arrays.ds.tolist(), arrays.aq.tolist()))
    return BoundResult(value, spectrum.n, per_d, 0.0, BoundVariant.UNION)


def truncated_union_bound(
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """min over d* of sum_{d <= 2d*} A_d Q(sqrt(d)/sigma) + B(p_b, n, d*+1, n).

    Any error event with the hard word inside the radius-d* ball already has
    a competitor within weight 2d*, so the union needs only those terms; the
    tail pays for leaving the ball.  d* = n recovers the union bound exactly,
    and the d* = 0 objective 1 - (1 - p_b)^n keeps the minimum below 1 even
    where the union bound diverges.
    """
    probe = _probe_range(spectrum, d_star, d_star_max)
    arrays = _PointArrays(spectrum, ch)

    def terms(cut: int, radius: int) -> np.ndarray:
        return arrays.aq[:cut]

    return _combined_bound(arrays, probe, terms, BoundVariant.TRUNCATED_UNION)


def pairwise_error_bound(
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """Combined bound with each union term refined by the conditional
    binomial factor B(p_b, n-d, 0, d*-1)."""
    probe = _probe_range(spectrum, d_star, d_star_max)
    arrays = _PointArrays(spectrum, ch)

    def terms(cut: int, radius: int) -> np.ndarray:
        return arrays.aq[:cut] * arrays.single(cut, radius)

    return _combined_bound(arrays, probe, terms, BoundVariant.PAIRWISE_IMPROVED)


def triplet_error_bound(
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """Combined bound with weight classes paired off two at a time (exact
    integer spectra only; parity of each A_d decides the leftover term)."""
    for d in spectrum.weights():
        if abs(spectrum.counts[d] - round(spectrum.counts[d])) > 1e-6:
            raise ValidationError(
                f"pairing needs integer multiplicities, got A_{d}={spectrum.counts[d]!r}"
            )
    probe = _probe_range(spectrum, d_star, d_star_max)
    arrays = _PointArrays(spectrum, ch)
    counts = np.round(arrays.a)
    odd = counts % 2 == 1
    tf = _triplet_factors(arrays, ch, theta_policy)
    odd_coef = (counts - 1.0) * tf
    even_coef = counts * tf

    def terms(cut: int, radius: int) -> np.ndarray:
        paired = arrays.paired(cut, radius)
        single = arrays.single(cut, radius)
        return np.where(
            odd[:cut],
            odd_coef[:cut] * paired + arrays.q[:cut] * single,
            even_coef[:cut] * paired,
        )

    return _combined_bound(arrays, probe, terms, BoundVariant.TRIPLET_IMPROVED)


def word_error_bound(
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """Combined word-error bound built from the unified per-weight term
    min{A_d Q B(n-d), (A_d - 1)(Q - Q^2/2) B(n-2d) + Q}; works for any real
    multiplicities, ensemble averages included."""
    probe = _probe_range(spectrum, d_star, d_star_max)
    arrays = _PointArrays(spectrum, ch)
    paired_coef = (arrays.a - 1.0) * _triplet_factors(arrays, ch, theta_policy)

    def terms(cut: int, radius: int) -> np.ndarray:
        return np.minimum(
            arrays.aq[:cut] * arrays.single(cut, radius),
            paired_coef[:cut] * arrays.paired(cut, radius) + arrays.q[:cut],
        )

    return _combined_bound(arrays, probe, terms, BoundVariant.UNIFIED_WORD)


def bit_error_bound(
    iowe: InputOutputSpectrum,
    ch: ChannelPoint,
    *,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """Combined bit-error bound from the input-output spectrum.

    Refuses ensemble-average input: the bit terms need max{i : A_{i,d} > 0}
    per weight, and an ensemble average has positive mass at every i, which
    would silently degrade i^/k to 1.
    """
    if iowe.kind is SpectrumKind.ENSEMBLE_AVERAGE:
        raise ValidationError(
            "bit bound needs a per-code IOWE; ensemble averages have no usable i^ profile"
        )
    k = iowe.k
    marginal = iowe.weight_spectrum()
    # A'_d and i^ of every weight in one pass over the IOWE in (i, d) order:
    # each A'_d sums in ascending i, and the last i with a positive count is
    # the largest
    a_prime = [0.0] * (iowe.n + 1)
    i_hat = [0] * (iowe.n + 1)
    for i, d in sorted(iowe.counts):
        count = iowe.counts[i, d]
        a_prime[d] += (i / k) * count
        if count > 0.0:
            i_hat[d] = i
    probe = _probe_range(marginal, d_star, d_star_max)
    arrays = _PointArrays(marginal, ch)
    single_coef = np.array(a_prime)[arrays.ds] * arrays.q
    i_hat_frac = np.array(i_hat)[arrays.ds] / k
    paired_coef = (arrays.a - 1.0) * _triplet_factors(arrays, ch, theta_policy)

    def terms(cut: int, radius: int) -> np.ndarray:
        return np.minimum(
            single_coef[:cut] * arrays.single(cut, radius),
            i_hat_frac[:cut] * (paired_coef[:cut] * arrays.paired(cut, radius) + arrays.q[:cut]),
        )

    return _combined_bound(arrays, probe, terms, BoundVariant.UNIFIED_BIT)


# --- generic combination with an external base bound ------------------------


class UnionBoundProvider:
    """T_u of the restricted spectrum: sum of A_d Q(sqrt(d)/sigma)."""

    def __call__(self, sub_spectrum: WeightSpectrum, ch: ChannelPoint) -> float:
        ds = sub_spectrum.weights()
        if not ds:
            return 0.0
        a = np.array([sub_spectrum.counts[d] for d in ds])
        q = np.atleast_1d(q_function(np.sqrt(np.array(ds, dtype=np.float64)) / ch.sigma))
        return float(np.sum(a * q))


class FileBoundProvider:
    """Replay of a precomputed base-bound table.

    File format: '#' comments plus one 'snr_db d_star value' record per
    line.  Lookup keys on the channel point's snr_db (matched to 1e-9) and
    the radius recovered from the sub-spectrum's truncation 2d*.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict[int, list[tuple[float, float]]] = {}
        for lineno, line in _content_lines(self.path):
            parts = line.split()
            if len(parts) != 3:
                raise ProviderLookupError(
                    f"{self.path}:{lineno}: expected 'snr_db d_star value'"
                )
            try:
                snr = float(parts[0])
                d_star = int(parts[1])
                value = float(parts[2])
            except ValueError as exc:
                raise ProviderLookupError(f"{self.path}:{lineno}: {exc}") from None
            if d_star < 0 or not math.isfinite(value) or value < 0.0:
                raise ProviderLookupError(
                    f"{self.path}:{lineno}: need d_star >= 0 and a finite value >= 0"
                )
            self._entries.setdefault(d_star, []).append((snr, value))

    def __call__(self, sub_spectrum: WeightSpectrum, ch: ChannelPoint) -> float:
        truncation = sub_spectrum.truncation
        if truncation is None or truncation % 2:
            raise ProviderLookupError(
                "file provider needs sub-spectra carrying an even truncation 2d*"
            )
        d_star = truncation // 2
        for snr, value in self._entries.get(d_star, ()):
            if abs(snr - ch.snr_db) <= 1e-9:
                return value
        raise ProviderLookupError(
            f"{self.path}: no entry for snr_db={ch.snr_db!r}, d_star={d_star}"
        )


def gfbt_combine(
    provider: BaseBoundProvider,
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """min over d* of provider(spectrum restricted to 2d*) + B(p_b, n, d*+1, n).

    Any bound on the subcode spanned by weights <= 2d* is a valid base term,
    so this combines external bounds with the region tail; with
    UnionBoundProvider it reproduces truncated_union_bound exactly.  An
    empty sub-spectrum short-circuits to base 0 (a subcode with only the
    transmitted word cannot produce an error inside the region).
    """
    probe = _probe_range(spectrum, d_star, d_star_max)
    table = _BinomialTable(ch.p_b, spectrum.n)
    # each radius keeps a prefix of the weight-sorted entries; the subcode is
    # empty while that prefix holds no weight d >= 1 with A_d > 0
    entries = sorted(spectrum.counts.items())
    weights = [d for d, _ in entries]
    first = next((i for i, (d, c) in enumerate(entries) if d >= 1 and c > 0.0), len(entries))

    def base(radius: int) -> float:
        cut = bisect.bisect_right(weights, 2 * radius)
        if cut <= first:
            return 0.0
        sub = WeightSpectrum(
            spectrum.n, spectrum.k, dict(entries[:cut]), SpectrumKind.TRUNCATED, 2 * radius
        )
        try:
            value = float(provider(sub, ch))
        except MlboundsError as exc:
            raise type(exc)(f"base bound failed at d_star={radius}: {exc}") from exc
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(
                f"provider returned {value!r} at d_star={radius}, need finite >= 0"
            )
        return value

    def objective(radius: int) -> tuple[float, float]:
        value = base(radius)
        return value + table.region_exit(radius), value

    value, best, base_term = _minimize(objective, probe)
    return BoundResult(
        value, best, {}, table.region_exit(best), BoundVariant.GFBT_COMBINED, base_term
    )
