"""Upper bounds on ML decoding error probability over BPSK-AWGN.

Every combined bound here has the same shape: pick a radius d*, bound the
error probability jointly with the hard-decision word staying within radius
d* of the transmitted word, and add the binomial mass B(p_b, n, d*+1, n) of
leaving that region.  The radius is scanned exhaustively and the smallest
objective wins, so d* = n recovers the plain union bound and d* = 0 leaves
only the region-exit mass, which is always below 1.

Cost per channel point: _PointArrays, the one per-point state of every
variant, holds what does not depend on the radius: the radii to scan, the Q
values, the per-weight coefficient products and, built on first use, the
binomial table and the triplet factors (under the tight theta-policy, Owen's
T of all weights above n/2 in one array call).  The scan then forms the
binomial masses and terms of a block of _BLOCK_CELLS / (n+1) ascending radii
per numpy pass, so memory stays O(n); once the prefix masses freeze past
every mode, one term row serves all later radii, summed once per distinct
cut.  Each variant builds only the binomial mass it reads: union builds no
table, truncated-union (one row throughout) and gfbt read only the length-n+2
region-exit tail, and the refined variants also stream B(p_b, N, 0, d*-1).

word and bit share one term kernel, the unified per-weight term
min{c_d B(n-d), s_d ((A_d - 1)(Q - Q^2/2) B(n-2d) + Q)}: word takes
c_d = A_d Q and s_d = 1, bit the bit-weighted count c_d = a'_d Q and the
largest message-bit fraction s_d = i^/k of its weight.

Numerical layout notes: per-weight terms are assembled in ascending weight
order for every variant.  Each radius's terms are summed by one
np.add.reduce over its own contiguous row slice before the tail is added
(numpy's pairwise sum depends on length and contiguity, so padded rows or
an axis reduction would move the last bits).  Binomial prefix masses are
clamped to <= 1, and each refinement multiplies a baseline term by factors
<= 1, so the documented dominance chains (word <= truncated union <= union,
bit <= word) hold exactly in floating point, not just in exact arithmetic.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MlboundsError, ProviderLookupError, ValidationError
from .numerics import (
    ChannelPoint,
    angle_upper_bound,
    log_factorials,
    q_function,
    triplet_probability,
)
from .spectrum import InputOutputSpectrum, SpectrumKind, WeightSpectrum, _content_lines
from .spectrum import _guard_cells, _near_int, _refuse_first

__all__ = [
    "BoundVariant",
    "ThetaPolicy",
    "BoundResult",
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
    function; it is never larger, and equals 2Q - Q^2 again at pi/2.  T is
    a fixed 64-node Gauss-Legendre rule on numpy alone (triplet_probability),
    within 1e-13 relative of its 60-digit value.
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


# Cells (radii x lengths) per block of the radius scan: 96 KB a block array.
# 2**14 ran a [500,250] word curve a few percent faster, but its peak RSS
# rose 0.57 MB over a scan of one radius at a time, against 0.4 MB here.
_BLOCK_CELLS = 3 * 2**12

# A binomial table of length n, a radius scan included, peaks near 11 float64
# arrays of n + 1 cells (tracemalloc, n = 1e5 and 1e6).  Where 12 would pass
# the count-array guard, the table is refused before any is allocated.
_TABLE_ARRAYS = 12

# A block freezes the table only if its first column lies this far past
# (n+1)p, the largest mode of any row; 1 keeps every later pmf falling.
_FREEZE_PAST_MODE = 1.0


class _BinomialTable:
    """Binomial(N, p) masses at fixed p for lengths N in [0, n].

    suffix[m] = B(p, n, m, n) comes from row N = n alone.  Prefix masses
    B(p, N, 0, m) stream in ascending blocks of columns m: one running
    vector over N holds the latest column between blocks, and a block is
    at most _BLOCK_CELLS values, so memory stays O(n).  Pmfs are formed in
    log space so deep tails keep relative accuracy; prefixes come from
    forward sums and suffixes from backward sums, never from 1-x
    subtractions.  Everything is clamped to <= 1 so a product term * mass
    can never exceed the unrefined term in floating point.  Past the largest
    mode (n+1)p pmfs fall in m, so once a block there ends on a column that
    changed no running sum, no later column can: the table is then frozen.
    """

    def __init__(self, p: float, n: int):
        if not 0.0 <= p < 1.0:
            raise ValidationError(f"table needs p in [0, 1), got {p!r}")
        _guard_cells(_TABLE_ARRAYS * (n + 1), f"a binomial table of length {n:,} works through")
        self.p = p
        self.n = n
        self.step = max(1, _BLOCK_CELLS // (n + 1))  # radii (prefix columns) per block
        self._lf = lf = log_factorials(n)  # log N!
        # lf[N-j] and (N-j) log(1-p) at [n+1-j, N]: windows over N-j from
        # -(n+1); lf[N-j] = inf for N < j puts the log-pmf there at -inf
        self._lf_gap = sliding_window_view(np.concatenate([np.full(n + 1, math.inf), lf]), n + 1)
        self._log_q_gap = sliding_window_view(np.arange(-(n + 1), n + 1) * math.log1p(-p), n + 1)
        self._sums = np.zeros(n + 1)  # B(p, N, 0, column) at row N
        self._column = -1
        self.frozen = p == 0.0  # every later column is the running vector
        suffix = np.zeros(n + 2)
        if p == 0.0:
            # deep-SNR degenerate case: zero hard errors almost surely
            suffix[0] = 1.0
            self._sums[:] = 1.0  # every column m >= 0
        else:
            m = np.arange(n + 1, dtype=np.float64)
            logpmf = lf[n] - lf - lf[::-1] + m * math.log(p) + (n - m) * math.log1p(-p)
            suffix[: n + 1] = np.cumsum(np.exp(logpmf)[::-1])[::-1]
        self.suffix = np.minimum(1.0, suffix)

    def prefix_columns(self, m0: int, m1: int) -> np.ndarray:
        """B(p, N, 0, m) for m in [m0, m1), one row each, and N in [0, n].
        m0 is never below the last column streamed; the columns before it
        stream first, in blocks, so a deep first request gets a scan's bits."""
        if m0 < self._column:
            raise ValidationError(f"prefix column {m0} requested after column {self._column}")
        while not self.frozen and self._column + 1 < m0:
            self._advance(min(m0, self._column + 1 + self.step))
        if self.frozen:  # column -1 is empty even at p == 0
            self._column = m1 - 1
            return np.where(np.arange(m0, m1)[:, None] >= 0, np.minimum(self._sums, 1.0), 0.0)
        first = self._column
        columns = self._advance(m1)[m0 - first :]
        return np.minimum(columns, 1.0, out=columns)

    def _advance(self, stop: int) -> np.ndarray:
        """The unclamped running vector at each column from the current one
        to stop-1.  The log-pmf keeps the per-column operation order; its
        exp is skipped at or below -746, where it is exactly +0.0 (and slow).
        Each row adds the one before (np.cumsum on axis 0: same bits, but 18x
        slower at n = 8192), so every N sums its columns in ascending j."""
        n, low = self.n, self._column + 1
        gap = np.s_[n + 1 - low : n + 1 - stop : -1, low:]  # N-j for N >= low
        logpmf = self._lf[low:] - self._lf[low:stop, None]
        logpmf -= self._lf_gap[gap]
        logpmf += (np.arange(low, stop) * math.log(self.p))[:, None]
        logpmf += self._log_q_gap[gap]
        sums = np.zeros((stop - low + 1, n + 1))
        sums[:, :low] = self._sums[:low]
        sums[0, low:] = self._sums[low:]
        np.exp(logpmf, out=sums[1:, low:], where=logpmf > -746.0)
        block = sums[:, low:]
        for prev, row in zip(block, block[1:]):
            np.add(prev, row, out=row)
        if low > (n + 1) * self.p + _FREEZE_PAST_MODE and stop > low:
            self.frozen = bool(np.array_equal(sums[-1], sums[-2]))
        self._sums = sums[-1].copy()
        self._column = stop - 1
        return sums


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
    """The per-point state of every bound variant (module docstring)."""

    def __init__(
        self, spectrum: WeightSpectrum, ch: ChannelPoint, d_star: int | None = None,
        d_star_max: int | None = None, theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
    ):
        self.probe = _probe_range(spectrum, d_star, d_star_max)
        self.n = spectrum.n
        self.ch = ch
        self.theta_policy = theta_policy
        self.ds = spectrum.weights()  # A_d > 0
        self.a = spectrum.counts[self.ds]
        with np.errstate(over="ignore"):  # sqrt(d)/sigma is inf at a subnormal sigma; Q(inf) = 0
            self.q = np.atleast_1d(q_function(np.sqrt(self.ds.astype(np.float64)) / ch.sigma))
        self.aq = self.a * self.q  # plain union term per weight
        # prefix rows n-d and n-2d; lengths <= 0 are degenerate at zero
        # successes, which is exactly row 0
        self.single_rows = np.clip(self.n - self.ds, 0, None)
        self.paired_rows = np.clip(self.n - 2 * self.ds, 0, None)

    @cached_property
    def table(self) -> _BinomialTable:
        return _BinomialTable(self.ch.p_b, self.n)

    @cached_property
    def triplet_factors(self) -> np.ndarray:
        """Half the two-half-plane probability per weight: Q - Q^2/2 at the
        closed-form angle, or (Q + 2 T(h, tan(theta/2)))/2 at the capped angle
        theta for the weights where the tight policy improves on pi/2, all of
        them in one triplet_probability call."""
        factors = self.q - 0.5 * self.q * self.q
        if self.theta_policy is ThetaPolicy.TIGHT:
            # theta == 0 only at d == n where at most one codeword exists and the
            # factor is multiplied by zero anyway; keep the closed form there.
            theta = angle_upper_bound(self.ds, self.ds, self.n)
            capped = (theta > 0.0) & (theta < 0.5 * math.pi)
            ds, theta = self.ds[capped], theta[capped]
            factors[capped] = 0.5 * triplet_probability(ds, theta, self.ch.sigma)
        return factors

    def arms(self, cut: int, radii: range, *coefs: np.ndarray) -> list[np.ndarray]:
        """coefs[0] B(p_b, n-d, 0, r-1) and, given a second coefficient,
        coefs[1] B(p_b, n-2d, 0, r-1) for the first cut weights, one row per
        radius r; scaled in place, so a block holds two radii x cut arrays."""
        columns = self.table.prefix_columns(radii.start - 1, radii.stop - 1)
        arms = []
        for rows, coef in zip((self.single_rows, self.paired_rows), coefs):
            arm = columns[:, rows[:cut]]
            arm *= coef[:cut]
            arms.append(arm)
        return arms


def _minimize(values: np.ndarray, probe: range) -> int:
    """Index of the smallest objective over the scanned radii, ties to the
    smallest d*.  An objective that overflows to inf loses; NaN, or inf at
    every radius, is refused."""
    nan = np.isnan(values)
    if nan.any():
        raise ValidationError(f"objective at d_star={probe[int(np.argmax(nan))]} is nan")
    best = int(np.argmin(values))
    if values[best] == math.inf:
        raise ValidationError(f"objective at d_star={probe[best]} is inf")
    return best


def _combined_bound(
    arrays: _PointArrays,
    terms: Callable[[int, range], np.ndarray],
    variant: BoundVariant,
    fixed: bool = False,
) -> BoundResult:
    """The radius scan over arrays.probe shared by every term-wise variant.

    terms(cut, radii) gives one row per radius of a block of ascending
    radii, holding the terms of the first cut weights.  A radius's objective
    sums the first cuts of its row, the weights d <= 2*radius, plus the
    region-exit tail; the winning radius's terms become per_d_terms.  From
    the table's freeze on, or throughout if fixed, rows do not depend on the
    radius, so the rest of the scan reads one row.
    """
    probe = arrays.probe
    tails = arrays.table.suffix[probe.start + 1 : probe.stop + 1]  # d* <= n
    cuts = np.searchsorted(arrays.ds, 2 * np.arange(probe.start, probe.stop), side="right")
    values = np.empty(len(probe))
    best: tuple[float, np.ndarray] = (math.inf, arrays.aq[:0])  # the row _minimize picks
    lo = 0
    with np.errstate(over="ignore"):
        while lo < len(probe):
            # once frozen, every later row is the last radius's row: build it
            # once and sum it once per distinct cut
            frozen = fixed or arrays.table.frozen
            hi = len(probe) if frozen else min(lo + arrays.table.step, len(probe))
            block_cuts = cuts[lo:hi].tolist()
            if frozen:
                row = terms(block_cuts[-1], probe[-1:])[0]
                per_cut = {cut: np.add.reduce(row[:cut]) for cut in set(block_cuts)}
                sums = [per_cut[cut] for cut in block_cuts]
                block = np.broadcast_to(row, (hi - lo, row.size))
            else:
                block = terms(block_cuts[-1], probe[lo:hi])
                sums = [np.add.reduce(row[:cut]) for row, cut in zip(block, block_cuts)]
            values[lo:hi] = tails[lo:hi] + sums
            i = int(np.argmin(values[lo:hi]))
            if values[lo + i] < best[0]:
                best = (values[lo + i], block[i, : block_cuts[i]].copy())
            del block  # free it before the next block is built
            lo = hi
    i = _minimize(values, probe)
    per_d = dict(zip(arrays.ds[: len(best[1])].tolist(), best[1].tolist()))
    return BoundResult(float(values[i]), probe[i], per_d, float(tails[i]), variant)


# --- whole-curve bounds ----------------------------------------------------


def union_bound(spectrum: WeightSpectrum, ch: ChannelPoint) -> BoundResult:
    """Plain union bound sum_d A_d Q(sqrt(d)/sigma) over the full spectrum."""
    if spectrum.kind is SpectrumKind.TRUNCATED:
        raise ValidationError("union bound needs the full spectrum, not a truncated one")
    arrays = _PointArrays(spectrum, ch)
    with np.errstate(over="ignore"):
        value = float(np.sum(arrays.aq))
    if value == math.inf:
        raise ValidationError(f"union bound overflows float64 at sigma={ch.sigma!r}")
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
    arrays = _PointArrays(spectrum, ch, d_star, d_star_max)

    def terms(cut: int, radii: range) -> np.ndarray:
        return np.broadcast_to(arrays.aq[:cut], (len(radii), cut))

    return _combined_bound(arrays, terms, BoundVariant.TRUNCATED_UNION, fixed=True)


def pairwise_error_bound(
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """Combined bound with each union term refined by the conditional
    binomial factor B(p_b, n-d, 0, d*-1)."""
    arrays = _PointArrays(spectrum, ch, d_star, d_star_max)

    def terms(cut: int, radii: range) -> np.ndarray:
        return arrays.arms(cut, radii, arrays.aq)[0]

    return _combined_bound(arrays, terms, BoundVariant.PAIRWISE_IMPROVED)


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
    fractional = ~_near_int(spectrum.counts)
    fractional[0] = False  # A_0 is no competitor
    _refuse_first(spectrum.counts, fractional, "must be an integer to pair codewords")
    arrays = _PointArrays(spectrum, ch, d_star, d_star_max, theta_policy)
    counts = np.round(arrays.a)
    odd = counts % 2 == 1
    # (A-1) tf B(n-2d) + Q B(n-d) for odd A, A tf B(n-2d) + 0 for even A
    paired_coef = np.where(odd, counts - 1.0, counts) * arrays.triplet_factors
    single_coef = np.where(odd, arrays.q, 0.0)

    def terms(cut: int, radii: range) -> np.ndarray:
        single, paired = arrays.arms(cut, radii, single_coef, paired_coef)
        return np.add(paired, single, out=paired)

    return _combined_bound(arrays, terms, BoundVariant.TRIPLET_IMPROVED)


def _unified_bound(
    arrays: _PointArrays, single_coef: np.ndarray, scale: np.ndarray, variant: BoundVariant
) -> BoundResult:
    """The radius scan of the unified term with c = single_coef and s = scale
    (module docstring); a product by s = 1.0 is exact."""
    paired_coef = (arrays.a - 1.0) * arrays.triplet_factors

    def terms(cut: int, radii: range) -> np.ndarray:
        single, paired = arrays.arms(cut, radii, single_coef, paired_coef)
        paired += arrays.q[:cut]
        paired *= scale[:cut]
        return np.minimum(single, paired, out=single)

    return _combined_bound(arrays, terms, variant)


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
    arrays = _PointArrays(spectrum, ch, d_star, d_star_max, theta_policy)
    one = np.ones_like(arrays.q)
    return _unified_bound(arrays, arrays.aq, one, BoundVariant.UNIFIED_WORD)


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
    if k == 0:
        raise ValidationError("bit bound needs k >= 1 message bits, got k=0")
    arrays = _PointArrays(iowe.weight_spectrum(), ch, d_star, d_star_max, theta_policy)
    columns = iowe.counts[:, arrays.ds]
    # A'_d sums (i/k) A_{i,d} in ascending i (accumulate, unlike a pairwise
    # sum, adds row by row), and i^ is the last i with A_{i,d} > 0
    a_prime = np.add.accumulate((np.arange(k + 1) / k)[:, None] * columns, axis=0)[-1]
    i_hat_frac = (k - np.argmax(columns[::-1] > 0.0, axis=0)) / k
    return _unified_bound(arrays, a_prime * arrays.q, i_hat_frac, BoundVariant.UNIFIED_BIT)


# --- generic combination with an external base bound ------------------------


class FileBoundProvider:
    """Replay of a precomputed base-bound table.

    File format: '#' comments plus one 'snr_db d_star value' record per
    line.  Lookup keys on the channel point's snr_db (matched to 1e-9) and
    the radius d*; a record whose d* and snr_db (to 1e-9) repeat an earlier
    one is refused, so the answer cannot depend on line order.
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
            if self._lookup(snr, d_star) is not None:
                raise ProviderLookupError(
                    f"{self.path}:{lineno}: duplicate record for snr_db={snr!r}, d_star={d_star}"
                )
            self._entries.setdefault(d_star, []).append((snr, value))

    def _lookup(self, snr_db: float, d_star: int) -> float | None:
        for snr, value in self._entries.get(d_star, ()):
            if abs(snr - snr_db) <= 1e-9:
                return value
        return None

    def __call__(self, d_star: int, ch: ChannelPoint) -> float:
        value = self._lookup(ch.snr_db, d_star)
        if value is None:
            raise ProviderLookupError(
                f"{self.path}: no entry for snr_db={ch.snr_db!r}, d_star={d_star}"
            )
        return value


def gfbt_combine(
    provider: Callable[[int, ChannelPoint], float],
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    *,
    d_star: int | None = None,
    d_star_max: int | None = None,
) -> BoundResult:
    """min over d* of provider(d*, ch) + B(p_b, n, d*+1, n).

    provider(d*, ch) is any upper bound on the ML error probability at ch of
    the subcode spanned by the codewords of weight <= 2d*, so this combines
    external bounds with the region tail.  It must return a value in
    [0, inf]; a radius whose value is inf loses the scan.  It is asked only
    for radii whose subcode holds a nonzero codeword: below half the
    lightest positive weight the base is 0, since a subcode with only the
    transmitted word cannot produce an error inside the region.
    """
    arrays = _PointArrays(spectrum, ch, d_star, d_star_max)
    probe = arrays.probe
    tails = arrays.table.suffix[probe.start + 1 : probe.stop + 1]
    lightest = min(arrays.ds, default=math.inf)
    bases = np.zeros(len(probe))
    with np.errstate(over="ignore"):
        for i, radius in enumerate(probe):
            if 2 * radius < lightest:
                continue
            try:
                bases[i] = base = float(provider(radius, ch))
            except MlboundsError as exc:
                raise type(exc)(f"base bound failed at d_star={radius}: {exc}") from exc
            if not base >= 0.0:  # NaN fails too; inf lets the radius lose
                raise ValidationError(
                    f"provider returned {base!r} at d_star={radius}, need finite >= 0 or inf"
                )
    i = _minimize(bases + tails, probe)
    return BoundResult(
        float(bases[i] + tails[i]), probe[i], {}, float(tails[i]), BoundVariant.GFBT_COMBINED,
        float(bases[i]),
    )
