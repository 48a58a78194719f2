"""Independent oracles for tests: the log-space binomial tail, the
binomial prefix columns streamed one column at a time, the two-half-plane
probability by quadrature, scalar per-weight bound terms, the union base
bound for gfbt tables, the radius scan over them, the Gray-code codebook
sweep, the per-message encoder, the simulator layout's message order and
full-codebook ML counters.

The five codes of data/codes are read from their generator files, the one
copy of each that the commands, goldens and benchmarks read too; the
repetition code, the 0/1 matrix form of a generator and the text of a
generator file are built here.

Spectra are built here from sparse {d: A_d} or {(i, d): A_{i,d}} mappings,
cut to a radius, or sliced at one codeword weight, so tests can state counts
sparsely while the library keeps one dense array form.

The library evaluates every bound as one vectorized radius scan over blocks
of radii and walks the codebook in numpy chunks.  These are the plain forms
of the same quantities, one weight, one radius, one column or one message at
a time, kept here so tests can compare the two without the library
exporting a second API.
"""

from __future__ import annotations

import functools
import math
import operator
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from scipy import special

from mlbounds.bounds import ThetaPolicy, truncated_union_bound
from mlbounds.errors import ValidationError
from mlbounds.numerics import ChannelPoint, angle_upper_bound, q_function
from mlbounds.spectrum import (
    InputOutputSpectrum,
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    load_generator,
)

CODES = Path(__file__).resolve().parent.parent / "data" / "codes"


@functools.cache
def named_code(name: str) -> LinearCode:
    """The code of data/codes/<name>.gen, read once per session."""
    return load_generator(CODES / f"{name}.gen")


def repetition_code(n: int) -> LinearCode:
    """The [n, 1, n] repetition code."""
    n = operator.index(n)
    return LinearCode(n, 1, ((1 << n) - 1,))


def code_from_matrix(matrix) -> LinearCode:
    """The code whose generator is the 0/1 array matrix (k x n)."""
    arr = np.asarray(matrix)
    k, n = arr.shape
    rows = tuple(int(sum(1 << t for t in range(n) if arr[j, t])) for j in range(k))
    return LinearCode(n, k, rows)


def code_matrix(code: LinearCode) -> np.ndarray:
    """The k x n uint8 generator matrix of code."""
    return np.array([[(row >> t) & 1 for t in range(code.n)] for row in code.rows], np.uint8)


def format_generator(code: LinearCode) -> str:
    """code in the generator file format that load_generator reads."""
    rows = ("".join("1" if (row >> t) & 1 else "0" for t in range(code.n)) for row in code.rows)
    return "\n".join([f"{code.n} {code.k}", *rows]) + "\n"


def spectrum_from(
    n: int,
    k: int,
    counts: Mapping,
    kind: SpectrumKind,
    truncation: int | None = None,
) -> WeightSpectrum | InputOutputSpectrum:
    """A spectrum from a sparse mapping: {d: A_d} gives a WeightSpectrum and
    {(i, d): A_{i,d}} an InputOutputSpectrum (an empty mapping, a
    WeightSpectrum).  Counts it omits are zero."""
    known = n if truncation is None else min(n, truncation)
    iowe = any(isinstance(key, tuple) for key in counts)
    table = np.zeros((k + 1, known + 1) if iowe else known + 1)
    for key, count in counts.items():
        table[key] = count
    cls = InputOutputSpectrum if iowe else WeightSpectrum
    return cls(n, k, table, kind, truncation)


def restrict(spectrum: WeightSpectrum, max_weight: int) -> WeightSpectrum:
    """Sub-spectrum keeping only weights d <= max_weight, marked truncated.

    The truncation records the requested cut as given, even when it exceeds
    n; max_known_weight caps it at n.
    """
    max_weight = operator.index(max_weight)
    if max_weight < 0:
        raise ValidationError(f"truncation radius must be >= 0, got {max_weight}")
    return WeightSpectrum(
        spectrum.n, spectrum.k, spectrum.counts[: max_weight + 1], SpectrumKind.TRUNCATED,
        max_weight,
    )


def iowe_slice(iowe: InputOutputSpectrum, d: int) -> dict[int, float]:
    """Input-weight profile {i: A_{i,d}} of one codeword weight, nonzero
    counts only."""
    return {i: c for i, c in enumerate(iowe.counts[:, d].tolist()) if c}


def binomial_tail(p: float, n_total: int, n_low: int, n_high: int) -> float:
    """Sum of Binomial(n_total, p) probabilities over m in [n_low, n_high].

    The range is clamped to [0, n_total]; an empty clamped range gives 0.
    For n_total <= 0 the distribution is degenerate at m = 0, so the value is
    1 exactly when n_low <= 0 <= n_high and 0 otherwise.  Terms are formed in
    log space (log-gamma coefficients, log-sum-exp) so the sum keeps relative
    accuracy when every term underflows a direct product.
    """
    n_total = operator.index(n_total)
    n_low = operator.index(n_low)
    n_high = operator.index(n_high)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"crossover probability must be in [0, 1], got {p!r}")
    if n_total <= 0:
        return 1.0 if n_low <= 0 <= n_high else 0.0
    lo = max(0, n_low)
    hi = min(n_total, n_high)
    if lo > hi:
        return 0.0
    if p == 0.0:
        return 1.0 if lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if hi == n_total else 0.0
    m = np.arange(lo, hi + 1, dtype=np.float64)
    log_terms = (
        special.gammaln(n_total + 1.0)
        - special.gammaln(m + 1.0)
        - special.gammaln(n_total - m + 1.0)
        + m * math.log(p)
        + (n_total - m) * math.log1p(-p)
    )
    return min(1.0, float(np.exp(special.logsumexp(log_terms))))


def streamed_prefix(p: float, n: int, stop: int) -> np.ndarray:
    """B(p, N, 0, m) for m in [-1, stop), one row each, and N in [0, n],
    clamped to <= 1.

    One running vector over N adds column j's pmf, formed in log space as
    ((log N! - log j!) - log (N-j)!) + j log p + (N-j) log(1-p), to rows
    N >= j, one column at a time.  The library's blocked prefix table must
    match it bit for bit, not just within a tolerance.
    """
    lf = special.gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    sums = np.zeros(n + 1)
    columns = [sums.copy()]
    for j in range(stop):
        if p == 0.0:
            sums[:] = 1.0
        else:
            gap = np.arange(n + 1 - j, dtype=np.float64)  # N - j for N in [j, n]
            sums[j:] += np.exp(
                ((lf[j:] - lf[j]) - lf[: n + 1 - j]) + j * math.log(p) + gap * math.log1p(-p)
            )
        columns.append(sums.copy())
    return np.minimum(1.0, np.array(columns))


def _check_term_args(a_d: float, d: int, d_star: int, n: int) -> tuple[int, int, int]:
    d = operator.index(d)
    d_star = operator.index(d_star)
    n = operator.index(n)
    if not 1 <= d <= n:
        raise ValidationError(f"need 1 <= d <= n, got d={d}, n={n}")
    if not 0 <= d_star <= n:
        raise ValidationError(f"need 0 <= d_star <= n, got {d_star}")
    if not (math.isfinite(a_d) and a_d >= 0.0):
        raise ValidationError(f"multiplicity must be finite and >= 0, got {a_d!r}")
    return d, d_star, n


def pairwise_term(a_d: float, d: int, d_star: int, n: int, ch: ChannelPoint) -> float:
    """A_d Q(sqrt(d)/sigma) B(p_b, n-d, 0, d*-1).

    The binomial factor is the probability that the n-d positions agreeing
    with the transmitted word carry few enough hard errors to keep the
    received hard word within radius d* given a weight-d overtake, which is
    what sharpens the plain union term A_d Q.
    """
    d, d_star, n = _check_term_args(a_d, d, d_star, n)
    q = float(q_function(math.sqrt(d) / ch.sigma))
    return a_d * q * binomial_tail(ch.p_b, n - d, 0, d_star - 1)


# 20-point panels make the half/whole comparison a practical error estimate
# for analytic integrands while staying cheap per subdivision.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


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


def triplet_probability_quadrature(d: int, theta: float, sigma: float) -> float:
    """Two-half-plane probability from its defining integral: the first
    half-plane plus the part of the second one not already covered,

        Q(sqrt(d)/sigma)
        + int_{sqrt(d)}^{inf} phi_sigma(x) Phi_sigma((sqrt(d) - x cos t)/sin t) dx.

    The outer integral is truncated at sqrt(d) + 10*sigma and evaluated with
    adaptive Gauss-Legendre panels to 1e-12 absolute and relative tolerance,
    so it is accurate where the value is well above 1e-12 and only to about
    that absolute error in deep tails; the inner one is the normal CDF.
    """
    sd = math.sqrt(d)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    inv_sigma = 1.0 / sigma
    pdf_norm = inv_sigma / math.sqrt(2.0 * math.pi)

    def integrand(x):
        upper = (sd - x * cos_t) / sin_t
        pdf = pdf_norm * np.exp(-0.5 * (x * inv_sigma) ** 2)
        return pdf * 0.5 * special.erfc(-upper * inv_sigma / math.sqrt(2.0))

    overlap = _adaptive_gauss_legendre(integrand, sd, sd + 10.0 * sigma, atol=1e-12, rtol=1e-12)
    return float(q_function(sd / sigma)) + overlap


def _triplet_factor_scalar(d: int, n: int, ch: ChannelPoint, theta_policy: ThetaPolicy) -> float:
    q = float(q_function(math.sqrt(d) / ch.sigma))
    if theta_policy is ThetaPolicy.TIGHT:
        theta = float(angle_upper_bound(d, d, n))
        if 0.0 < theta < 0.5 * math.pi:
            return 0.5 * triplet_probability_quadrature(d, theta, ch.sigma)
    return q - 0.5 * q * q


def triplet_term(
    a_d: int,
    d: int,
    d_star: int,
    n: int,
    ch: ChannelPoint,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
) -> float:
    """Joint bound on {some weight-d codeword wins, hard word in the region}
    with weight-d competitors paired off two at a time.

    Even A_d: A_d (Q - Q^2/2) B(p_b, n-2d, 0, d*-1).  Odd A_d pairs off all
    but one and keeps a pairwise term for the leftover:
    (A_d - 1)(Q - Q^2/2) B(p_b, n-2d, 0, d*-1) + Q B(p_b, n-d, 0, d*-1).
    Needs an integer multiplicity; parity decides the split.
    """
    d, d_star, n = _check_term_args(a_d, d, d_star, n)
    if abs(a_d - round(a_d)) > 1e-6:
        raise ValidationError(f"pairing needs an integer multiplicity, got {a_d!r}")
    count = round(a_d)
    tf = _triplet_factor_scalar(d, n, ch, theta_policy)
    paired = binomial_tail(ch.p_b, n - 2 * d, 0, d_star - 1)
    if count % 2 == 0:
        return count * tf * paired
    q = float(q_function(math.sqrt(d) / ch.sigma))
    single = binomial_tail(ch.p_b, n - d, 0, d_star - 1)
    return (count - 1) * tf * paired + q * single


def h_term(
    a_d: float,
    d: int,
    d_star: int,
    n: int,
    ch: ChannelPoint,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
) -> float:
    """Unified per-weight term, valid for any real multiplicity A_d >= 0:

        min{ A_d Q B(p_b, n-d, 0, d*-1),
             (A_d - 1)(Q - Q^2/2) B(p_b, n-2d, 0, d*-1) + Q }.

    The second branch deliberately leaves the trailing Q without a binomial
    factor: that keeps it a valid bound for every real A_d (in particular
    ensemble averages below 1, where A_d - 1 goes negative), at the price of
    being slightly looser than the integer-parity split.
    """
    d, d_star, n = _check_term_args(a_d, d, d_star, n)
    q = float(q_function(math.sqrt(d) / ch.sigma))
    tf = _triplet_factor_scalar(d, n, ch, theta_policy)
    branch1 = a_d * q * binomial_tail(ch.p_b, n - d, 0, d_star - 1)
    branch2 = (a_d - 1.0) * tf * binomial_tail(ch.p_b, n - 2 * d, 0, d_star - 1) + q
    return min(branch1, branch2)


def h_prime_term(
    iowe_slice: Mapping[int, float],
    d: int,
    d_star: int,
    n: int,
    k: int,
    ch: ChannelPoint,
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM,
) -> float:
    """Bit-error counterpart of the unified term for one codeword weight.

    With A_d = sum_i A_{i,d}, A'_d = sum_i (i/k) A_{i,d} and
    i^ = max{i : A_{i,d} > 0}:

        min{ A'_d Q B(p_b, n-d, 0, d*-1),
             (i^/k) [ (A_d - 1)(Q - Q^2/2) B(p_b, n-2d, 0, d*-1) + Q ] }.

    An all-zero slice contributes 0.
    """
    d, d_star, n = _check_term_args(0.0, d, d_star, n)
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    a_d = 0.0
    a_prime = 0.0
    i_hat = 0
    for i in sorted(iowe_slice):
        count = iowe_slice[i]
        if not (math.isfinite(count) and count >= 0.0):
            raise ValidationError(f"slice count A_({i},{d})={count!r} must be >= 0")
        a_d += count
        a_prime += (i / k) * count
        if count > 0.0:
            i_hat = max(i_hat, operator.index(i))
    if a_d == 0.0:
        return 0.0
    q = float(q_function(math.sqrt(d) / ch.sigma))
    tf = _triplet_factor_scalar(d, n, ch, theta_policy)
    branch1 = a_prime * q * binomial_tail(ch.p_b, n - d, 0, d_star - 1)
    branch2 = (i_hat / k) * (
        (a_d - 1.0) * tf * binomial_tail(ch.p_b, n - 2 * d, 0, d_star - 1) + q
    )
    return min(branch1, branch2)


def union_base(spectrum: WeightSpectrum, ch: ChannelPoint, d_star: int) -> float:
    """Union mass sum_{d <= 2d*} A_d Q(sqrt(d)/sigma): the truncated union
    bound forced to d* without its region tail, summed as the library sums
    it, so a gfbt base table of these values replays that bound bit for bit."""
    terms = truncated_union_bound(spectrum, ch, d_star=d_star).per_d_terms
    return float(np.sum(list(terms.values())))


def optimize_dstar(
    term_evaluator: Callable[[WeightSpectrum, ChannelPoint, int], float],
    spectrum: WeightSpectrum,
    ch: ChannelPoint,
    probe_range,
) -> tuple[float, int]:
    """Exhaustive scan of term_evaluator(spectrum, ch, d_star) over
    probe_range; returns (best value, smallest optimal d_star)."""
    best: tuple[float, int] | None = None
    for d_star in probe_range:
        d_star = operator.index(d_star)
        if not 0 <= d_star <= spectrum.n:
            raise ValidationError(f"d_star={d_star} outside [0, {spectrum.n}]")
        value = float(term_evaluator(spectrum, ch, d_star))
        if best is None or value < best[0]:
            best = (value, d_star)
    if best is None:
        raise ValidationError("empty probe range")
    return best


def encode(code: LinearCode, message: int) -> int:
    """Codeword bitmask for a message given as a k-bit mask: the XOR of the
    generator rows its bits select."""
    message = operator.index(message)
    if message < 0 or message >> code.k:
        raise ValidationError(f"message must be a {code.k}-bit mask")
    cw = 0
    for j, row in enumerate(code.rows):
        if message >> j & 1:
            cw ^= row
    return cw


def _as_words(mask: int, words: int) -> np.ndarray:
    """A bitmask as `words` uint64 words, bit t in word t // 64."""
    return np.array([mask >> 64 * w & (2**64 - 1) for w in range(words)], dtype=np.uint64)


def layout_order(code: LinearCode, bounds: tuple[int, ...]) -> np.ndarray:
    """Every message sorted stably by its codeword's weight, then by the
    codeword's weights in parts 1, 2, ... of bounds (part i holds positions
    bounds[i] to bounds[i + 1] - 1): the simulator layout's msgs, from one
    global sort of a codebook built row by row."""
    words = (code.n + 63) // 64
    msgs = np.arange(1 << code.k)
    codewords = np.zeros((msgs.size, words), dtype=np.uint64)
    for j, row in enumerate(code.rows):
        codewords[msgs >> j & 1 == 1] ^= _as_words(row, words)

    def weight(lo: int, hi: int) -> np.ndarray:
        masked = codewords & _as_words((1 << hi) - (1 << lo), words)
        return np.bitwise_count(masked).sum(axis=1, dtype=np.int64)

    key = weight(0, code.n)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        key = key * (code.n + 1) + weight(lo, hi)
    return np.argsort(key, kind="stable")


def gray_iowe(code: LinearCode) -> InputOutputSpectrum:
    """Exact IOWE by a message sweep in Gray-code order.

    Consecutive Gray codes differ in one bit, so each step XORs a single
    generator row into the running codeword; 2^k Python steps in all.
    """
    table = [[0] * (code.n + 1) for _ in range(code.k + 1)]
    table[0][0] = 1
    rows = code.rows
    msg = 0
    cw = 0
    for t in range(1, 1 << code.k):
        j = (t & -t).bit_length() - 1
        msg ^= 1 << j
        cw ^= rows[j]
        table[msg.bit_count()][cw.bit_count()] += 1
    return InputOutputSpectrum(code.n, code.k, table, SpectrumKind.EXACT)


def ml_counters(code: LinearCode, y: np.ndarray, d_star: int) -> dict:
    """simulate() counters for the received rows y, by scoring every codeword
    of encode() against every row: no weight classes, pruning or
    tiles.  The winner is the smallest message among the minimal scores."""
    size = (code.n + 7) // 8
    packed = b"".join(encode(code, msg).to_bytes(size, "little") for msg in range(1 << code.k))
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, size)
    bits = np.unpackbits(rows, axis=1, count=code.n, bitorder="little").astype(np.float64)
    weights = bits.sum(axis=1).astype(int)
    out = {"word_errors": 0, "bit_errors": 0, "region_exits": 0, "ties": 0, "joint": {}}
    for lo in range(0, len(y), 16):
        for row, scores in zip(y[lo : lo + 16], y[lo : lo + 16] @ bits.T):
            winners = np.flatnonzero(scores == scores.min())
            out["ties"] += winners.size >= 2
            if scores[winners[0]] < 0.0:
                out["word_errors"] += 1
                out["bit_errors"] += int(winners[0]).bit_count()
            if np.count_nonzero(row <= 0.0) > d_star:
                out["region_exits"] += 1
                continue
            for d in np.unique(weights[scores < 0.0]).tolist():
                out["joint"][d] = out["joint"].get(d, 0) + 1
    return out
