"""Property tests: the exact floating-point dominance chains over random
spectra and channel points, the radius scan's bits with and without its
binomial freeze, the byte round trip of canonical spectrum files, the
codebook engine over random codes, and the simulator's independence of its
worker count.

Every comparison is a plain float comparison with no tolerance.  The chains
hold by construction: every variant sums equally sliced term arrays in the
same order, and each refinement multiplies a term by factors <= 1.
"""

import math
import random
import tempfile
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import gray_iowe

from mlbounds import bounds
from mlbounds import (
    ChannelPoint,
    InputOutputSpectrum,
    SnrConvention,
    SpectrumKind,
    WeightSpectrum,
    LinearCode,
    SimConfig,
    ValidationError,
    bit_error_bound,
    ensemble_average,
    enumerate_spectrum,
    format_spectrum,
    load_spectrum,
    macwilliams_transform,
    pairwise_error_bound,
    simulate,
    triplet_error_bound,
    truncated_union_bound,
    union_bound,
    word_error_bound,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

sigmas = st.floats(min_value=0.15, max_value=3.0)
integer_counts = st.integers(min_value=0, max_value=10**6).map(float)
real_counts = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-30, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e28),
)


@st.composite
def spectra(draw, counts, truncated=False):
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=1, max_value=n))
    values = draw(st.lists(counts, min_size=n, max_size=n))
    if truncated:
        cut = draw(st.integers(min_value=0, max_value=n))
        return WeightSpectrum(n, k, [0.0, *values[:cut]], SpectrumKind.TRUNCATED, cut)
    # the ensemble kind accepts any finite multiplicities with A_0 = 1
    return WeightSpectrum(n, k, [1.0, *values], SpectrumKind.ENSEMBLE_AVERAGE)


@st.composite
def iowes(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=min(n, 12)))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(1, k), st.integers(1, n)), real_counts, max_size=60
        )
    )
    table = np.zeros((k + 1, n + 1))
    for cell, count in entries.items():
        table[cell] = count
    return InputOutputSpectrum(n, k, table, SpectrumKind.TRUNCATED, n)


def _chain(spectrum, sigma):
    point = ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA)
    word = word_error_bound(spectrum, point).value
    truncated = truncated_union_bound(spectrum, point).value
    assert word <= truncated
    assert pairwise_error_bound(spectrum, point).value <= truncated
    return point, truncated


@PROPERTY
@given(spectra(integer_counts), sigmas)
def test_chain_on_integer_spectra(spectrum, sigma):
    point, truncated = _chain(spectrum, sigma)
    assert truncated <= union_bound(spectrum, point).value


@PROPERTY
@given(spectra(real_counts), sigmas)
def test_chain_on_real_spectra(spectrum, sigma):
    point, truncated = _chain(spectrum, sigma)
    assert truncated <= union_bound(spectrum, point).value


@PROPERTY
@given(st.one_of(spectra(integer_counts, True), spectra(real_counts, True)), sigmas)
def test_chain_on_truncated_spectra(spectrum, sigma):
    _chain(spectrum, sigma)


@PROPERTY
@given(iowes(), sigmas)
def test_bit_below_word_on_iowes(iowe, sigma):
    point = ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA)
    bit = bit_error_bound(iowe, point).value
    assert bit <= word_error_bound(iowe.weight_spectrum(), point).value


@st.composite
def scans(draw):
    """A long code, ensemble or integer, a crossover probability in [0, 0.5)
    and the radius keywords of one scan."""
    n = draw(st.integers(min_value=1, max_value=600))
    if draw(st.booleans()):
        source = ensemble_average(n, draw(st.integers(min_value=1, max_value=n)))
    else:
        k = draw(st.integers(min_value=1, max_value=min(n, 12)))
        entries = draw(
            st.dictionaries(
                st.tuples(st.integers(1, k), st.integers(1, n)), integer_counts, max_size=40
            )
        )
        table = np.zeros((k + 1, n + 1))
        for cell, count in entries.items():
            table[cell] = count
        source = InputOutputSpectrum(n, k, table, SpectrumKind.TRUNCATED, n)
    # log-uniform from 1e-12 to near 1/2, drawn from a seed because a float
    # strategy piles up at its ends; and 0, where Q(1/sigma) underflows
    seeds = st.integers(min_value=0, max_value=2**32 - 1)
    uniform = seeds.map(lambda seed: 10.0 ** -random.Random(seed).uniform(0.302, 12.0))
    p = draw(st.one_of(uniform, st.sampled_from([0.0, 1e-12])))
    sigma = 0.02 if p == 0.0 else -1.0 / NormalDist().inv_cdf(p)
    key = draw(st.sampled_from([None, "d_star", "d_star_max"]))
    radius = {} if key is None else {key: draw(st.integers(min_value=0, max_value=n))}
    return source, ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA), radius


@PROPERTY
@given(scans())
def test_freeze_keeps_every_bit(scan):
    source, point, radius = scan
    if isinstance(source, InputOutputSpectrum):
        spectrum = source.weight_spectrum()
        calls = [(bit_error_bound, source), (triplet_error_bound, spectrum)]
    else:
        spectrum, calls = source, []
    calls += [(b, spectrum) for b in (truncated_union_bound, pairwise_error_bound, word_error_bound)]
    got = [repr(bound(arg, point, **radius)) for bound, arg in calls]
    # the reference scans every radius on its own row: no table freezes and
    # the truncated union takes no shortcut
    scan_rows = bounds._combined_bound
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bounds, "_FREEZE_PAST_MODE", math.inf)
        m.setattr(bounds, "_combined_bound", lambda *args, fixed=False: scan_rows(*args))
        want = [repr(bound(arg, point, **radius)) for bound, arg in calls]
    assert got == want


file_counts = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
)


@st.composite
def canonical_files(draw):
    """The text of a spectrum file in canonical form: ascending records,
    counts printed by repr, nonzero counts only in an exact spectrum and in
    every IOWE, every known weight in an ensemble or truncated weight
    spectrum."""
    tag = draw(st.sampled_from(["weight", "iowe"]))
    kind = draw(st.sampled_from(SpectrumKind))
    k = draw(st.integers(0, 6))
    n = draw(st.integers(max(k, 1), 24))
    header = f"{tag} n={n} k={k} kind={kind.value}"
    truncation = None
    if kind is SpectrumKind.TRUNCATED:
        truncation = draw(st.integers(0, n + 3))
        header += f" dmax={truncation}"
    known = n if truncation is None else min(n, truncation)
    if tag == "weight":
        cells = [(d,) for d in range(known + 1)]
    else:
        cells = [(i, d) for i in range(k + 1) for d in range(known + 1)]
    if kind is SpectrumKind.EXACT:
        # A_0 = 1 and 2^k - 1 codewords spread over the other cells
        spread = draw(st.lists(st.sampled_from(cells[1:]), min_size=2**k - 1, max_size=2**k - 1))
        values = [float(cell == cells[0] or spread.count(cell)) for cell in cells]
    else:
        values = draw(st.lists(file_counts, min_size=len(cells), max_size=len(cells)))
        if kind is SpectrumKind.ENSEMBLE_AVERAGE:
            values[0] = 1.0  # A_0, or A_{0,0} in an IOWE
    dense = tag == "weight" and kind is not SpectrumKind.EXACT
    records = [
        f"{' '.join(map(str, cell))} {value!r}"
        for cell, value in zip(cells, values)
        if dense or value != 0.0
    ]
    return "\n".join([header, *records]) + "\n"


@PROPERTY
@given(canonical_files())
def test_canonical_file_round_trips_byte_for_byte(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "canonical.spec"
        path.write_text(text, encoding="utf-8")
        assert format_spectrum(load_spectrum(path)) == text


@st.composite
def codes(draw, ks, ns):
    """A random full-rank [n, k] generator."""
    k = draw(ks)
    n = draw(ns.filter(lambda n: n >= k))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    try:
        return LinearCode(n, k, tuple(rows))
    except ValidationError:
        assume(False)


@PROPERTY
@given(codes(st.integers(1, 17), st.one_of(st.integers(1, 40), st.integers(60, 140))))
def test_engine_matches_gray_oracle(code):
    # k spans the 2^14 chunk width; n spans one to three 64-bit words
    assert enumerate_spectrum(code) == gray_iowe(code)


@PROPERTY
@given(codes(st.integers(1, 16), st.integers(2, 26)))
def test_enumeration_matches_macwilliams_of_dual(code):
    assume(code.k < code.n and code.n - code.k <= 16)
    dual = enumerate_spectrum(code.dual()).weight_spectrum()
    assert enumerate_spectrum(code).weight_spectrum() == macwilliams_transform(dual)


@settings(PROPERTY, max_examples=25)
@given(
    codes(st.integers(1, 6), st.integers(1, 20)),
    st.floats(min_value=0.3, max_value=2.0),
    st.integers(1, 40 * 1024),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_simulation_does_not_depend_on_workers(code, sigma, trials, seed, data):
    # up to 40 noise blocks: 1, 2 and 3 workers cut them into different
    # superblocks, one worker into full 16-block ones plus a remainder
    d_star = data.draw(st.integers(0, code.n))
    cfg = SimConfig(code=code, sigma=sigma, d_star=d_star, trials=trials, seed=seed)
    report = simulate(cfg).to_dict()
    assert simulate(cfg, workers=2).to_dict() == report
    assert simulate(cfg, workers=3).to_dict() == report
