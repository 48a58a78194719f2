"""Each refined bound at a fixed radius against the same formula in mpmath.

The oracle sums the per-weight terms of the pairwise, triplet, word and bit
bounds (closed-form theta) at one radius r in 30-digit arithmetic, with
every binomial mass a regularized incomplete beta function:

    B(p, N, 0, m) = I_{1-p}(N - m, m + 1),   B(p, N, m, N) = I_p(m, N - m + 1).

The paired arm of the word and bit terms, (A_d - 1)(Q - Q^2/2) B2 + Q with
B2 = B(p_b, n-2d, 0, r-1), is summed as the equal

    Q B(p_b, n-2d, r, n-2d) + (Q^2/2) B2 + A_d (Q - Q^2/2) B2,

whose terms are all >= 0: with A_d < 1 the plain form cancels to nothing
at 30 digits just as it does in float64.  The library must never fall
below the oracle by more than rounding; it may not exceed it by more than
rounding either.
"""

from __future__ import annotations

import math
from functools import cache

import mpmath
import numpy as np
import pytest
from oracles import named_code

from mlbounds import (
    ChannelPoint,
    InputOutputSpectrum,
    SnrConvention,
    SpectrumKind,
    bit_error_bound,
    ensemble_average,
    enumerate_spectrum,
    pairwise_error_bound,
    triplet_error_bound,
    word_error_bound,
)

_DPS = 30
# the library's value, relative to the oracle's, is held inside [1 - _BELOW, 1 + _ABOVE]
_BELOW = 1e-12
_ABOVE = 1e-10

_BOUNDS = {
    "pairwise": pairwise_error_bound,
    "triplet": triplet_error_bound,
    "word": word_error_bound,
    "bit": bit_error_bound,
}


def _q(x: mpmath.mpf) -> mpmath.mpf:
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


@cache
def _cdf(p: mpmath.mpf, big_n: int, m: int) -> mpmath.mpf:
    """B(p, N, 0, m) = P(Binomial(N, p) <= m)."""
    if m < 0:
        return mpmath.mpf(0)
    if m >= big_n:
        return mpmath.mpf(1)
    # I_{1-p}(N-m, m+1) = 1 - I_p(m+1, N-m); at x = p the series converges
    # several times faster, and the difference keeps 30 digits relative
    # once it is above 1/2
    upper = _sf(p, big_n, m + 1)
    if upper < 0.5:
        return 1 - upper
    return mpmath.betainc(big_n - m, m + 1, 0, 1 - p, regularized=True)


@cache
def _sf(p: mpmath.mpf, big_n: int, m: int) -> mpmath.mpf:
    """B(p, N, m, N) = P(Binomial(N, p) >= m)."""
    if m <= 0:
        return mpmath.mpf(1)
    if m > big_n:
        return mpmath.mpf(0)
    return mpmath.betainc(m, big_n - m + 1, 0, p, regularized=True)


def bound_mp(variant: str, spectrum, sigma: float, r: int) -> mpmath.mpf:
    """The variant's objective at radius r: the terms of the weights
    d <= 2r plus the region-exit mass B(p_b, n, r+1, n)."""
    iowe = spectrum if isinstance(spectrum, InputOutputSpectrum) else None
    counts = (iowe.weight_spectrum() if iowe else spectrum).counts
    n = spectrum.n
    with mpmath.workdps(_DPS):
        s = mpmath.mpf(sigma)
        p = _q(1 / s)
        total = _sf(p, n, r + 1)
        for d in range(1, min(n, 2 * r) + 1):
            if counts[d] <= 0.0:
                continue
            a = mpmath.mpf(float(counts[d]))
            q = _q(mpmath.sqrt(d) / s)
            tf = q - q * q / 2
            b1 = _cdf(p, n - d, r - 1)
            b2 = _cdf(p, max(n - 2 * d, 0), r - 1)
            if variant in ("word", "bit"):
                paired = q * _sf(p, max(n - 2 * d, 0), r) + q * q / 2 * b2 + a * tf * b2
            if variant == "pairwise":
                term = a * q * b1
            elif variant == "triplet":
                count = int(counts[d])
                term = (count - 1) * tf * b2 + q * b1 if count % 2 else count * tf * b2
            elif variant == "word":
                term = min(a * q * b1, paired)
            else:
                column = iowe.counts[:, d].tolist()
                a_prime = mpmath.fsum(mpmath.mpf(i) / iowe.k * c for i, c in enumerate(column))
                i_hat = max(i for i, c in enumerate(column) if c > 0.0)
                term = min(a_prime * q * b1, mpmath.mpf(i_hat) / iowe.k * paired)
            total += term
        return total


def _shortfalls(variant: str, spectrum, ch: ChannelPoint, radii) -> list[str]:
    """Radii where the library's value leaves the oracle's rounding band."""
    out = []
    for r in radii:
        got = _BOUNDS[variant](spectrum, ch, d_star=r).value
        want = bound_mp(variant, spectrum, ch.sigma, r)
        with mpmath.workdps(_DPS):
            ratio = mpmath.mpf(got) / want
            if not 1 - _BELOW <= ratio <= 1 + _ABOVE:
                out.append(f"d_star={r}: library {got!r}, oracle {mpmath.nstr(want, 17)}")
    return out


def _point(snr_db: float, rate: float) -> ChannelPoint:
    return ChannelPoint.from_snr_db(snr_db, SnrConvention.EBN0_DB, rate=rate)


_SNRS = (0.0, 2.5, 5.0, 7.5, 10.0)


@pytest.mark.parametrize("snr_db", _SNRS)
@pytest.mark.parametrize("variant", list(_BOUNDS))
@pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7"])
def test_exact_code_at_every_radius(name, variant, snr_db):
    code = named_code(name)
    iowe = enumerate_spectrum(code)
    spectrum = iowe if variant == "bit" else iowe.weight_spectrum()
    ch = _point(snr_db, code.rate)
    assert _shortfalls(variant, spectrum, ch, range(code.n + 1)) == []


@pytest.mark.parametrize("snr_db", _SNRS)
@pytest.mark.parametrize("n,k", [(100, 50), (500, 250)])
def test_ensemble_pairwise_at_winning_and_two_other_radii(n, k, snr_db):
    spectrum = ensemble_average(n, k)
    ch = _point(snr_db, k / n)
    win = pairwise_error_bound(spectrum, ch).d_star_opt
    assert _shortfalls("pairwise", spectrum, ch, (win, win // 2, win + 1)) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: on ensembles the paired arm of the word term cancels "
    "where A_d < 1, and the minimum takes it",
)
# [500,250] at 5 dB (d* = 144) falls 6.6e-10 below the oracle, at 10 dB (d* = 52) to 0.997x
@pytest.mark.parametrize(
    "n,k,snr_db", [(500, 250, 5.0), (500, 250, 7.5), (500, 250, 10.0), (1000, 500, 9.5)]
)
def test_ensemble_word_at_winning_radius(n, k, snr_db):
    spectrum = ensemble_average(n, k)
    ch = _point(snr_db, k / n)
    win = word_error_bound(spectrum, ch).d_star_opt
    assert _shortfalls("word", spectrum, ch, (win,)) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the bit term has the word term's paired arm, scaled by "
    "i/k, and a truncated IOWE with counts below 1 reaches it",
)
def test_fractional_iowe_bit_at_winning_radius():
    # the [500,250] ensemble's average IOWE, A_{i,d} = C(250, i) C(500, d) / 2^500,
    # as a truncated file may hold it; at 7.5 dB (d* = 86) bit is 0.40x the oracle
    rows = np.array([math.comb(250, i) for i in range(251)], dtype=np.float64)
    columns = np.array([math.comb(500, d) / 2**500 for d in range(501)])
    counts = np.outer(rows, columns)
    counts[0, :] = counts[:, 0] = 0.0
    counts[0, 0] = 1.0
    iowe = InputOutputSpectrum(500, 250, counts, SpectrumKind.TRUNCATED, 500)
    ch = _point(7.5, 0.5)
    win = bit_error_bound(iowe, ch).d_star_opt
    assert _shortfalls("bit", iowe, ch, (win,)) == []
