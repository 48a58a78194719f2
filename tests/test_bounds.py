"""Bound assembly tests.

The scalar kernels (q_function and the oracle binomial_tail) are checked in
test_numerics; here every whole-curve bound is checked against manual
composition of those kernels at forced radii, and the ordering claims
(word <= truncated union <= union, bit <= word, results below 1) are
asserted as plain float comparisons with no tolerance.
"""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mlbounds import bounds
from mlbounds import (
    BoundVariant,
    ChannelPoint,
    FileBoundProvider,
    InputOutputSpectrum,
    ProviderLookupError,
    ResourceLimitError,
    SnrConvention,
    SpectrumKind,
    ThetaPolicy,
    ValidationError,
    WeightSpectrum,
    bit_error_bound,
    ensemble_average,
    enumerate_spectrum,
    gfbt_combine,
    pairwise_error_bound,
    q_function,
    triplet_error_bound,
    truncated_union_bound,
    union_bound,
    word_error_bound,
)
from oracles import (
    binomial_tail,
    h_prime_term,
    h_term,
    iowe_slice,
    named_code,
    optimize_dstar,
    pairwise_term,
    repetition_code,
    restrict,
    spectrum_from,
    streamed_prefix,
    triplet_term,
    union_base,
)
from test_simulator import fresh_peak_ratio


def ch(sigma):
    return ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA)


HAMMING = WeightSpectrum(7, 4, [1.0, 0.0, 0.0, 7.0, 7.0, 0.0, 0.0, 1.0], SpectrumKind.EXACT)
HAMMING_IOWE = enumerate_spectrum(named_code("hamming_7_4"))
BCH15 = enumerate_spectrum(named_code("bch_15_7")).weight_spectrum()


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def union_provider(spec):
    """gfbt base bound: the union mass of spec's weights <= 2d*."""
    return lambda d_star, point: union_base(spec, point, d_star)


def test_package_reexports_every_public_name():
    # mlbounds.cli is used by module name; the other
    # submodules' public names all live in the package namespace
    import mlbounds

    for module in (mlbounds.numerics, mlbounds.spectrum, mlbounds.simulator, bounds):
        missing = [
            name for name in module.__all__
            if getattr(mlbounds, name, None) is not getattr(module, name)
        ]
        assert missing == [], module.__name__


def test_package_loads_the_simulator_on_first_use():
    # dir() lists the simulator's names before the module loads, and the
    # first lookup of one of them loads it
    script = """
import sys
import mlbounds

before = dir(mlbounds)
assert "mlbounds.simulator" not in sys.modules
assert mlbounds.SimConfig is mlbounds.simulator.SimConfig
assert dir(mlbounds) == before
assert {"simulator", *mlbounds.simulator.__all__} <= set(before)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bounds.__file__)))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# --- scalar terms against manual composition --------------------------------


class TestPairwiseTerm:
    def test_zero_radius_empty_band(self):
        assert pairwise_term(7.0, 3, 0, 7, ch(1.0)) == 0.0

    def test_full_radius_recovers_union_term(self):
        point = ch(0.9)
        got = pairwise_term(7.0, 3, 7, 7, point)
        want = 7.0 * float(q_function(math.sqrt(3) / 0.9))
        assert rel_close(got, want)

    def test_degenerate_band_at_d_equal_n(self):
        # B(p, 0, 0, d*-1) = 1 for d* >= 1, so the factor drops out
        point = ch(1.1)
        got = pairwise_term(1.0, 7, 3, 7, point)
        assert got == float(q_function(math.sqrt(7) / 1.1))

    def test_manual_composition(self):
        point = ch(0.8)
        got = pairwise_term(30.0, 6, 4, 15, point)
        want = 30.0 * float(q_function(math.sqrt(6) / 0.8)) * binomial_tail(
            point.p_b, 9, 0, 3
        )
        assert rel_close(got, want)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            pairwise_term(1.0, 0, 2, 7, ch(1.0))
        with pytest.raises(ValidationError):
            pairwise_term(1.0, 3, 8, 7, ch(1.0))
        with pytest.raises(ValidationError):
            pairwise_term(-1.0, 3, 2, 7, ch(1.0))


class TestTripletTerm:
    def test_even_count_closed_form(self):
        point = ch(1.0)
        q = float(q_function(math.sqrt(3)))
        got = triplet_term(2, 3, 2, 10, point)
        want = (2.0 * q - q * q) * binomial_tail(point.p_b, 4, 0, 1)
        assert rel_close(got, want, 1e-13)

    def test_single_codeword_collapses_to_pairwise(self):
        point = ch(0.9)
        assert triplet_term(1, 4, 3, 12, point) == pairwise_term(1.0, 4, 3, 12, point)

    def test_odd_count_manual(self):
        point = ch(1.0)
        q = float(q_function(math.sqrt(2)))
        got = triplet_term(3, 2, 2, 10, point)
        want = 2.0 * (q - 0.5 * q * q) * binomial_tail(point.p_b, 6, 0, 1) + (
            q * binomial_tail(point.p_b, 8, 0, 1)
        )
        assert rel_close(got, want, 1e-13)

    def test_zero_count(self):
        assert triplet_term(0, 3, 2, 10, ch(1.0)) == 0.0

    def test_rejects_fractional_count(self):
        with pytest.raises(ValidationError):
            triplet_term(2.5, 3, 2, 10, ch(1.0))


class TestHTerm:
    def test_zero_multiplicity(self):
        assert h_term(0.0, 3, 2, 7, ch(1.0)) == 0.0

    def test_unit_multiplicity_is_pairwise(self):
        point = ch(1.2)
        assert h_term(1.0, 3, 2, 7, point) == pairwise_term(1.0, 3, 2, 7, point)

    def test_min_of_both_branches(self):
        point = ch(1.0)
        for a_d in (0.3, 1.0, 5.0, 1e6):
            for d, d_star in [(3, 1), (3, 2), (4, 1), (7, 3)]:
                q = float(q_function(math.sqrt(d)))
                b1 = a_d * q * binomial_tail(point.p_b, 7 - d, 0, d_star - 1)
                b2 = (a_d - 1.0) * (q - 0.5 * q * q) * binomial_tail(
                    point.p_b, 7 - 2 * d, 0, d_star - 1
                ) + q
                assert rel_close(h_term(a_d, d, d_star, 7, point), min(b1, b2), 1e-13)

    def test_second_branch_final_q_has_no_binomial_factor(self):
        # a wide radius with a huge multiplicity makes the pairing branch
        # win; its trailing Q must not pick up a B(p, n-d, 0, d*-1) factor
        point = ch(1.0)
        a_d, d, d_star, n = 1e9, 2, 5, 12
        q = float(q_function(math.sqrt(d)))
        paired = (a_d - 1.0) * (q - 0.5 * q * q) * binomial_tail(
            point.p_b, n - 2 * d, 0, d_star - 1
        )
        single_mass = binomial_tail(point.p_b, n - d, 0, d_star - 1)
        got = h_term(a_d, d, d_star, n, point)
        assert got < a_d * q * single_mass  # the pairing branch is active
        assert got > paired + q * single_mass  # per-code form would be smaller
        assert rel_close(got, paired + q, 1e-13)

    def test_nonnegative_for_fractional_ensembles(self):
        rng = np.random.default_rng(7)
        point = ch(1.5)
        for _ in range(200):
            a_d = float(rng.uniform(0.0, 2.0))
            d = int(rng.integers(1, 11))
            d_star = int(rng.integers(0, 11))
            assert h_term(a_d, d, d_star, 10, point) >= 0.0


class TestHPrimeTerm:
    def test_all_zero_slice(self):
        assert h_prime_term({}, 3, 2, 7, 4, ch(1.0)) == 0.0
        assert h_prime_term({1: 0.0, 2: 0.0}, 3, 2, 7, 4, ch(1.0)) == 0.0

    def test_single_entry_manual(self):
        point = ch(1.0)
        got = h_prime_term({2: 3.0}, 3, 2, 7, 4, point)
        q = float(q_function(math.sqrt(3)))
        b1 = (2 / 4) * 3.0 * q * binomial_tail(point.p_b, 4, 0, 1)
        b2 = (2 / 4) * (
            (3.0 - 1.0) * (q - 0.5 * q * q) * binomial_tail(point.p_b, 1, 0, 1) + q
        )
        assert rel_close(got, min(b1, b2), 1e-13)

    def test_never_exceeds_word_term(self):
        rng = np.random.default_rng(11)
        point = ch(1.0)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            profile = {
                int(i): float(rng.uniform(0.0, 5.0)) for i in rng.integers(0, k + 1, 3)
            }
            a_d = sum(profile.values())
            d = int(rng.integers(1, 11))
            d_star = int(rng.integers(0, 11))
            hp = h_prime_term(profile, d, d_star, 10, k, point)
            hw = h_term(a_d, d, d_star, 10, point)
            assert hp <= hw

    def test_hamming_d3_slice(self):
        point = ch(1.0)
        profile = iowe_slice(HAMMING_IOWE, 3)
        got = h_prime_term(profile, 3, 2, 7, 4, point)
        assert 0.0 < got < h_term(7.0, 3, 2, 7, point) + 1e-18

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            h_prime_term({1: -2.0}, 3, 2, 7, 4, ch(1.0))


# --- whole-curve bounds ------------------------------------------------------


class TestUnionBound:
    def test_hamming_closed_form(self):
        res = union_bound(HAMMING, ch(1.0))
        want = (
            7.0 * float(q_function(math.sqrt(3)))
            + 7.0 * float(q_function(2.0))
            + float(q_function(math.sqrt(7)))
        )
        assert rel_close(res.value, want)
        assert res.variant is BoundVariant.UNION
        assert set(res.per_d_terms) == {3, 4, 7}

    def test_single_competitor(self):
        spec = spectrum_from(9, 1, {0: 1.0, 5: 1.0}, SpectrumKind.EXACT)
        res = union_bound(spec, ch(0.8))
        assert rel_close(res.value, float(q_function(math.sqrt(5) / 0.8)))

    def test_error_free_code(self):
        spec = spectrum_from(6, 0, {0: 1.0}, SpectrumKind.EXACT)
        assert union_bound(spec, ch(1.0)).value == 0.0

    def test_rejects_truncated(self):
        with pytest.raises(ValidationError):
            union_bound(restrict(HAMMING, 4), ch(1.0))

    def test_refuses_overflowing_sum(self):
        # every A_d of the [2054, 1027] average is finite, their union sum
        # at -30 dB is not; RuntimeWarnings are errors under pytest
        ens = ensemble_average(2054, 1027)
        assert ens.kind is SpectrumKind.ENSEMBLE_AVERAGE
        point = ChannelPoint.from_snr_db(-30.0, rate=0.5)
        with pytest.raises(ValidationError, match="overflows float64"):
            union_bound(ens, point)
        # the region-split variants drop the overflowing radii and d* = 0 wins
        for bound in (truncated_union_bound, pairwise_error_bound, word_error_bound):
            res = bound(ens, point)
            assert res.d_star_opt == 0 and res.value < 1.0
        with pytest.raises(ValidationError, match="d_star=523 is inf"):
            truncated_union_bound(ens, point, d_star=523)


class TestTruncatedUnionBound:
    def test_forced_full_radius_equals_union_exactly(self):
        for sigma in (0.5, 0.8, 1.0, 1.5, 2.0):
            forced = truncated_union_bound(HAMMING, ch(sigma), d_star=7)
            assert forced.value == union_bound(HAMMING, ch(sigma)).value
            assert forced.tail_term == 0.0

    def test_forced_zero_radius_is_tail_only(self):
        point = ch(1.0)
        res = truncated_union_bound(HAMMING, point, d_star=0)
        assert res.per_d_terms == {}
        assert rel_close(res.value, binomial_tail(point.p_b, 7, 1, 7))
        assert res.value < 1.0

    def test_empty_subspectrum_below_dmin(self):
        # hamming d_min = 3: radius 1 covers only weights <= 2
        point = ch(0.9)
        res = truncated_union_bound(HAMMING, point, d_star=1)
        assert res.per_d_terms == {}
        assert rel_close(res.value, binomial_tail(point.p_b, 7, 2, 7))

    def test_objective_composition_bch15(self):
        point = ch(0.9)
        for d_star in (0, 1, 2, 3, 5, 15):
            res = truncated_union_bound(BCH15, point, d_star=d_star)
            want = sum(
                BCH15.counts[d] * float(q_function(math.sqrt(d) / 0.9))
                for d in BCH15.weights()
                if d <= 2 * d_star
            ) + binomial_tail(point.p_b, 15, d_star + 1, 15)
            assert rel_close(res.value, want)

    def test_below_one_where_union_diverges(self):
        ens = ensemble_average(100, 50)
        point = ChannelPoint.from_snr_db(0.0, rate=0.5)
        assert union_bound(ens, point).value > 1.0
        res = truncated_union_bound(ens, point)
        assert res.value < 1.0

    def test_high_snr_radius_drifts_to_n(self):
        res = truncated_union_bound(HAMMING, ch(0.3))
        assert res.d_star_opt == 7
        assert res.value == union_bound(HAMMING, ch(0.3)).value


class TestOrderingChains:
    SIGMAS = [2.0, 1.4, 1.0, 0.8, 0.6, 0.45, 0.3]

    @pytest.mark.parametrize("spec", [HAMMING, BCH15], ids=["hamming74", "bch15_7"])
    def test_word_trunc_union_exact_chain(self, spec):
        for sigma in self.SIGMAS:
            point = ch(sigma)
            w = word_error_bound(spec, point).value
            t = truncated_union_bound(spec, point).value
            u = union_bound(spec, point).value
            assert w <= t <= u
            assert w < 1.0 and t < 1.0

    def test_chain_on_ensembles(self):
        for n, k in [(100, 95), (100, 50)]:
            ens = ensemble_average(n, k)
            for snr in np.arange(0.0, 10.5, 0.5):
                point = ChannelPoint.from_snr_db(float(snr), rate=k / n)
                w = word_error_bound(ens, point).value
                t = truncated_union_bound(ens, point).value
                u = union_bound(ens, point).value
                assert w <= t <= u
                assert w < 1.0 and t < 1.0

    def test_pairwise_refines_truncated_union(self):
        for sigma in self.SIGMAS:
            point = ch(sigma)
            p = pairwise_error_bound(BCH15, point).value
            t = truncated_union_bound(BCH15, point).value
            assert p <= t

    def test_triplet_close_to_or_below_pairwise_objective(self):
        # parity pairing is not claimed to always win, but the combined
        # minimum must stay below the truncated union up to rounding
        for sigma in self.SIGMAS:
            point = ch(sigma)
            t3 = triplet_error_bound(BCH15, point).value
            tu = truncated_union_bound(BCH15, point).value
            assert t3 <= tu * (1.0 + 1e-12)

    def test_bit_below_word_exact(self):
        for iowe in (HAMMING_IOWE, enumerate_spectrum(named_code("bch_15_7"))):
            marginal = iowe.weight_spectrum()
            for sigma in self.SIGMAS:
                point = ch(sigma)
                b = bit_error_bound(iowe, point).value
                w = word_error_bound(marginal, point).value
                assert b <= w

    def test_monotone_in_snr(self):
        grid = [ChannelPoint.from_snr_db(x, rate=4 / 7) for x in np.arange(0.0, 10.5, 1.0)]
        for fn in (union_bound, word_error_bound):
            values = [fn(HAMMING, point).value for point in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestCompositionAtForcedRadii:
    POINTS = [ch(0.7), ch(1.0), ch(1.4)]

    def test_pairwise_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (0, 1, 2, 4, 7):
                res = pairwise_error_bound(HAMMING, point, d_star=d_star)
                want = sum(
                    pairwise_term(HAMMING.counts[d], d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_triplet_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (1, 2, 3, 7):
                res = triplet_error_bound(HAMMING, point, d_star=d_star)
                want = sum(
                    triplet_term(int(HAMMING.counts[d]), d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_word_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (0, 2, 3, 7):
                res = word_error_bound(HAMMING, point, d_star=d_star)
                want = sum(
                    h_term(HAMMING.counts[d], d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_bit_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (1, 2, 3, 7):
                res = bit_error_bound(HAMMING_IOWE, point, d_star=d_star)
                want = sum(
                    h_prime_term(iowe_slice(HAMMING_IOWE, d), d, d_star, 7, 4, point)
                    for d in HAMMING_IOWE.weight_spectrum().weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_tight_matches_quadrature_oracle(self):
        # the library's Owen's-T factors against the scalar oracle terms,
        # whose tight factor integrates the defining integral instead
        tight = ThetaPolicy.TIGHT
        for spec in (HAMMING, BCH15):
            n = spec.n
            for point in self.POINTS:
                for d_star in (2, 3, n // 2, n):
                    triplet = triplet_error_bound(spec, point, theta_policy=tight, d_star=d_star)
                    word = word_error_bound(spec, point, theta_policy=tight, d_star=d_star)
                    tail = binomial_tail(point.p_b, n, d_star + 1, n)
                    kept = [d for d in spec.weights() if d <= 2 * d_star]
                    want_triplet = tail + sum(
                        triplet_term(int(spec.counts[d]), d, d_star, n, point, tight)
                        for d in kept
                    )
                    want_word = tail + sum(
                        h_term(spec.counts[d], d, d_star, n, point, tight) for d in kept
                    )
                    assert rel_close(triplet.value, want_triplet, 1e-11)
                    assert rel_close(word.value, want_word, 1e-11)

    def test_word_matches_scalar_terms_on_ensemble(self):
        ens = ensemble_average(20, 10)
        point = ch(1.0)
        for d_star in (1, 3, 10, 20):
            res = word_error_bound(ens, point, d_star=d_star)
            want = sum(
                h_term(ens.counts[d], d, d_star, 20, point)
                for d in ens.weights()
                if d <= 2 * d_star
            ) + binomial_tail(point.p_b, 20, d_star + 1, 20)
            assert rel_close(res.value, want)


class TestMinimize:
    def test_infinite_objective_loses(self):
        # the first of two equal minima wins: the smallest d*
        values = np.array([math.inf, 0.5, math.inf, 0.25, 0.25])
        assert bounds._minimize(values, range(5)) == 3

    def test_nan_or_all_infinite_is_refused(self):
        with pytest.raises(ValidationError, match="d_star=1 is nan"):
            bounds._minimize(np.array([1.0, math.nan, 0.5]), range(3))
        with pytest.raises(ValidationError, match="d_star=2 is inf"):
            bounds._minimize(np.full(3, math.inf), range(2, 5))


class TestVariantEdges:
    def test_bit_refuses_zero_message_bits(self):
        iowe = spectrum_from(7, 0, {(0, 0): 1.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError, match="k >= 1"):
            bit_error_bound(iowe, ch(1.0))

    def test_triplet_rejects_fractional_spectrum(self):
        with pytest.raises(ValidationError):
            triplet_error_bound(ensemble_average(20, 10), ch(1.0))

    def test_bit_rejects_ensemble_iowe(self):
        iowe = spectrum_from(7, 4, {(1, 3): 1.75, (0, 0): 1.0}, SpectrumKind.ENSEMBLE_AVERAGE)
        with pytest.raises(ValidationError):
            bit_error_bound(iowe, ch(1.0))

    def test_bit_equals_word_for_single_bit_repetition(self):
        iowe = enumerate_spectrum(repetition_code(5))
        marginal = iowe.weight_spectrum()
        for sigma in (0.6, 1.0, 1.7):
            point = ch(sigma)
            assert bit_error_bound(iowe, point).value == word_error_bound(
                marginal, point
            ).value

    @pytest.mark.parametrize("policy", list(ThetaPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize("source", ["hamming_7_4", "bch_15_7", "bch_31_21", "ensemble_500_250"])
    def test_bit_is_word_when_every_codeword_carries_all_k_bits(self, source, policy):
        # A_{0,0} = 1 and A_{k,d} = A_d give a'_d = A_d and i^/k = 1, so the
        # bit kernel must reproduce word on the marginal bit for bit
        if source.startswith("ensemble"):
            spec, kind, truncation = ensemble_average(500, 250), SpectrumKind.TRUNCATED, 500
        else:
            spec = enumerate_spectrum(named_code(source)).weight_spectrum()
            kind, truncation = SpectrumKind.EXACT, None
        table = np.zeros((spec.k + 1, spec.counts.size))
        table[0, 0] = 1.0
        table[spec.k, 1:] = spec.counts[1:]
        iowe = InputOutputSpectrum(spec.n, spec.k, table, kind, truncation)
        marginal = iowe.weight_spectrum()
        np.testing.assert_array_equal(marginal.counts, spec.counts)
        for snr in np.arange(41) * 0.25:
            point = ChannelPoint.from_snr_db(snr, rate=spec.k / spec.n)
            bit = bit_error_bound(iowe, point, theta_policy=policy)
            word = word_error_bound(marginal, point, theta_policy=policy)
            assert (bit.value, bit.d_star_opt, bit.tail_term, bit.per_d_terms) == (
                word.value, word.d_star_opt, word.tail_term, word.per_d_terms
            ), snr

    @pytest.mark.parametrize("policy", ["tight", None, 1], ids=repr)
    @pytest.mark.parametrize(
        "bound,source",
        [(triplet_error_bound, HAMMING), (word_error_bound, HAMMING),
         (bit_error_bound, HAMMING_IOWE)],
        ids=["triplet", "word", "bit"],
    )
    def test_theta_policy_that_is_no_member_is_refused(self, bound, source, policy):
        # the string "tight" was read as closed-form; the refusal names the members
        with pytest.raises(ValidationError, match=r"is not one of \[<ThetaPolicy.CLOSED_FORM"):
            bound(source, ch(1.0), theta_policy=policy)

    def test_bit_point_holds_no_iowe_sized_array(self):
        # a dense [2000, 1000] IOWE is 16 MB; its gathered columns, their
        # (i/k)-scaled copy and their running sums peaked at 48 MB in one point,
        # while one row at a time stays under 1 MB
        n, k = 2000, 1000
        counts = np.ones((k + 1, n + 1))
        counts[0, 1:] = 0.0
        iowe = InputOutputSpectrum(n, k, counts, SpectrumKind.TRUNCATED, n)
        point = ChannelPoint.from_snr_db(2.0, rate=0.5)
        tracemalloc.start()
        try:
            bit_error_bound(iowe, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_word_degenerate_spectrum_is_zero_at_full_radius(self):
        spec = spectrum_from(6, 0, {0: 1.0}, SpectrumKind.EXACT)
        res = word_error_bound(spec, ch(1.0))
        assert res.value == 0.0
        assert res.d_star_opt == 6

    def test_deep_snr_underflow_is_zero_not_error(self):
        point = ch(0.02)  # p_b underflows to exactly 0
        assert point.p_b == 0.0
        res = word_error_bound(HAMMING, point)
        assert res.value == 0.0
        assert res.d_star_opt == 0  # tie-break picks the smallest radius

    def test_tight_theta_never_looser(self):
        for sigma in (0.7, 1.0, 1.5):
            point = ch(sigma)
            loose = word_error_bound(HAMMING, point).value
            tight = word_error_bound(
                HAMMING, point, theta_policy=ThetaPolicy.TIGHT
            ).value
            assert tight <= loose
        # weights above n/2 exist, so at least one point must strictly improve
        point = ch(1.5)
        assert triplet_error_bound(
            HAMMING, point, theta_policy=ThetaPolicy.TIGHT, d_star=3
        ).value < triplet_error_bound(HAMMING, point, d_star=3).value


class TestRadiusScanWork:
    """Radius-independent work happens once per channel point, and each
    variant builds only the binomial mass it reads."""

    ENS = ensemble_average(100, 50)
    POINT = ChannelPoint.from_snr_db(2.0, rate=0.5)

    def test_tight_point_does_no_per_weight_python_work(self, monkeypatch):
        # one vectorized triplet_probability call per point covers every
        # weight with a capped angle below pi/2
        calls = []
        real = bounds.triplet_probability

        def counting(d, theta, sigma):
            calls.append(np.asarray(d).tolist())
            return real(d, theta, sigma)

        monkeypatch.setattr(bounds, "triplet_probability", counting)
        # only 50 < d < 100 have a capped angle below pi/2
        heavy = [d for d in self.ENS.weights() if 50 < d < 100]
        assert len(heavy) == 49
        integer = WeightSpectrum(100, 50, np.ceil(self.ENS.counts), SpectrumKind.TRUNCATED, 100)
        for fn, spec in ((word_error_bound, self.ENS), (triplet_error_bound, integer)):
            calls.clear()
            fn(spec, self.POINT, theta_policy=ThetaPolicy.TIGHT)
            assert calls == [heavy]
        calls.clear()
        bit_error_bound(
            enumerate_spectrum(named_code("bch_15_7")), ch(1.0), theta_policy=ThetaPolicy.TIGHT
        )
        assert calls == [[8, 9, 10]]  # bch_15_7 weights above 15/2, below 15

    def test_union_builds_no_table_and_truncated_union_no_prefix(self, monkeypatch):
        built = []
        init = bounds._BinomialTable.__init__

        def counting_init(table, p, n):
            built.append(n)
            init(table, p, n)

        def refuse(table, m0, m1):
            raise AssertionError("prefix mass read")

        monkeypatch.setattr(bounds._BinomialTable, "__init__", counting_init)
        monkeypatch.setattr(bounds._BinomialTable, "prefix_columns", refuse)
        union_bound(self.ENS, self.POINT)
        assert built == []
        truncated_union_bound(self.ENS, self.POINT)
        gfbt_combine(lambda d_star, point: 0.0, self.ENS, self.POINT)
        assert built == [100, 100]
        with pytest.raises(AssertionError, match="prefix mass read"):
            word_error_bound(self.ENS, self.POINT)

    def test_only_triplet_terms_build_the_triplet_factors(self, monkeypatch):
        # the per-point state builds its triplet factors on first read, and
        # only the triplet, word and bit variants read them, once a point
        built = []
        factors = bounds._PointArrays.triplet_factors.func

        def counting(arrays):
            built.append(arrays.theta_policy)
            return factors(arrays)

        spy = functools.cached_property(counting)
        spy.__set_name__(bounds._PointArrays, "triplet_factors")
        monkeypatch.setattr(bounds._PointArrays, "triplet_factors", spy)
        union_bound(self.ENS, self.POINT)
        truncated_union_bound(self.ENS, self.POINT)
        pairwise_error_bound(self.ENS, self.POINT)
        gfbt_combine(lambda d_star, point: 0.0, self.ENS, self.POINT)
        assert built == []
        word_error_bound(self.ENS, self.POINT, theta_policy=ThetaPolicy.TIGHT)
        assert built == [ThetaPolicy.TIGHT]

    def test_only_q_readers_build_q(self, monkeypatch):
        # the per-point state builds Q and A_d Q on first read: gfbt reads
        # only the radii, the table and the weights, so it builds neither,
        # and every other variant builds Q once a point
        built = []
        q = bounds._PointArrays.q.func

        def counting(arrays):
            built.append(arrays.n)
            return q(arrays)

        spy = functools.cached_property(counting)
        spy.__set_name__(bounds._PointArrays, "q")
        monkeypatch.setattr(bounds._PointArrays, "q", spy)
        gfbt_combine(lambda d_star, point: 0.0, self.ENS, self.POINT)
        assert built == []
        for bound in (union_bound, truncated_union_bound, pairwise_error_bound,
                      word_error_bound):
            built.clear()
            bound(self.ENS, self.POINT)
            assert built == [100], bound.__name__

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_long_code_point_memory_is_linear_in_n(self):
        # a [4096, 2048] word point streams its prefix columns; a 2-D table
        # of the prefix masses alone would be 134 MB
        rise_mb = fresh_peak_ratio(
            "word_error_bound(spec, ChannelPoint.from_snr_db(2.0, rate=0.5))",
            "2**20",
            "from mlbounds import ChannelPoint, ensemble_average, word_error_bound\n"
            "spec = ensemble_average(4096, 2048)",
        )
        assert rise_mb < 50.0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_prefix_block_is_sized_in_cells_not_radii(self):
        # an [8192, 4096] word point gets one radius per block and rose by
        # 1.3 MB on an x86_64 VM; 24 radii per block, as the cap gives at
        # n = 500, rose by 4.2 MB there, so 3 MB fails a block sized in radii
        rise_mb = fresh_peak_ratio(
            "word_error_bound(spec, ChannelPoint.from_snr_db(2.0, rate=0.5))",
            "2**20",
            "from mlbounds import ChannelPoint, ensemble_average, word_error_bound\n"
            "spec = ensemble_average(8192, 4096)",
        )
        assert rise_mb < 3.0


class TestBinomialStream:
    """The blocked prefix columns of _BinomialTable against the scalar
    log-space oracle and, bit for bit, against the same sums streamed one
    column at a time."""

    @staticmethod
    def scan(table, first, stop):
        """Columns [first, stop) in ascending blocks, as the radius scan
        asks for them."""
        step = table.step
        return np.concatenate(
            [table.prefix_columns(m, min(m + step, stop)) for m in range(first, stop, step)]
        )

    @pytest.mark.parametrize("n", [1, 7, 31, 100, 500])
    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.1, 0.45])
    def test_columns_match_oracle(self, n, p):
        columns = self.scan(bounds._BinomialTable(p, n), 0, n + 1)
        every = np.arange(n + 1)
        for m, column in enumerate(columns):
            # row m is where the column reaches 1; the sparse rows keep the
            # oracle's scalar calls affordable at n = 500
            rows = every if n <= 31 else sorted({0, 1, n // 3, n // 2, n - 1, n, m, min(m + 1, n)})
            for row in rows:
                want = binomial_tail(p, int(row), 0, m)
                if want >= 1e-290:
                    assert abs(column[row] - want) <= 1e-11 * want, (n, p, m, row)

    @pytest.mark.parametrize("radii", [1, 3, None])
    @pytest.mark.parametrize("n", [1, 7, 31, 100, 500])
    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.1, 0.45])
    def test_blocks_equal_the_column_stream(self, monkeypatch, radii, n, p):
        # None keeps the library's own block size
        if radii is not None:
            monkeypatch.setattr(bounds, "_BLOCK_CELLS", radii * (n + 1))
            assert bounds._BinomialTable(p, n).step == radii
        want = streamed_prefix(p, n, n + 1)  # columns -1 .. n
        # from column -1 (radius 0), from column 0, and from deep in the
        # table (a fixed d*), which streams every earlier column first
        for first in (-1, 0, n // 2 + 1):
            got = self.scan(bounds._BinomialTable(p, n), first, n + 1)
            assert np.array_equal(got, want[first + 1 :]), (first, radii)

    @pytest.mark.parametrize("p", [0.1, 0.45])
    def test_freeze_fires_on_the_first_unchanged_column_past_the_mode(self, p):
        # every column matches the oracle, before the freeze and after it
        n = 500
        table = bounds._BinomialTable(p, n)
        want = streamed_prefix(p, n, n + 1)  # want[m + 1] is column m
        starts = range(-1, n + 1, table.step)  # block starts, as a scan asks
        frozen = []
        for m in starts:
            got = table.prefix_columns(m, min(m + table.step, n + 1))
            assert np.array_equal(got, want[m + 1 : m + 1 + len(got)]), m
            frozen.append(table.frozen)
        # the oracle's first block past every mode whose last column left
        # every running sum as the column before it had them
        last = [min(m + table.step - 1, n) for m in starts]
        unchanged = [
            max(m, 0) > (n + 1) * p + 1 and np.array_equal(want[c + 1], want[c])
            for m, c in zip(starts, last)
        ]
        assert frozen.index(True) == unchanged.index(True) < len(starts) - 1
        assert all(frozen[frozen.index(True) :])

    def test_word_point_streams_fewer_blocks(self, monkeypatch):
        # without the freeze a [500,250] point streams all 21 blocks of 24
        advance = bounds._BinomialTable._advance
        blocks = []

        def counting(table, stop):
            blocks.append(stop)
            return advance(table, stop)

        monkeypatch.setattr(bounds._BinomialTable, "_advance", counting)
        word_error_bound(ensemble_average(500, 250), ChannelPoint.from_snr_db(5.0, rate=0.5))
        assert 0 < len(blocks) < math.ceil(501 / 24)

    def test_columns_only_ascend(self):
        table = bounds._BinomialTable(0.1, 20)
        table.prefix_columns(3, 6)
        table.prefix_columns(5, 6)  # the same column again is fine
        with pytest.raises(ValidationError, match="column 4 requested after column 5"):
            table.prefix_columns(4, 6)

    def test_guard_predicts_the_table_peak(self):
        n = 2**16
        tracemalloc.start()
        try:
            table = bounds._BinomialTable(0.1, n)
            for m in range(-1, 3):  # blocks of one column, dropped as a scan drops them
                table.prefix_columns(m, m + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * bounds._TABLE_ARRAYS * (n + 1)

    def test_guard_refuses_long_table_before_allocating(self, monkeypatch):
        # 12 arrays of 5,592,405 cells fit the 2^26-cell guard; one more cell
        # each passes it
        class Admitted(Exception):
            pass

        def admitted(n):
            raise Admitted

        monkeypatch.setattr(bounds, "log_factorials", admitted)
        with pytest.raises(Admitted):
            bounds._BinomialTable(0.1, 5_592_404)
        with pytest.raises(ResourceLimitError, match=r"67,108,872 cells"):
            bounds._BinomialTable(0.1, 5_592_405)


class TestBoundResultShape:
    def test_decomposition_invariant(self):
        point = ch(0.9)
        results = [
            union_bound(BCH15, point),
            truncated_union_bound(BCH15, point),
            pairwise_error_bound(BCH15, point),
            triplet_error_bound(BCH15, point),
            word_error_bound(BCH15, point),
            bit_error_bound(HAMMING_IOWE, point),
            gfbt_combine(union_provider(BCH15), BCH15, point),
        ]
        for res in results:
            total = sum(res.per_d_terms.values()) + res.base_term + res.tail_term
            assert rel_close(res.value, total)
            assert res.clamped == min(res.value, 1.0)
            assert all(d <= 2 * res.d_star_opt for d in res.per_d_terms)

    def test_raw_value_above_one_retained(self):
        res = union_bound(ensemble_average(100, 50), ChannelPoint.from_snr_db(0.0, rate=0.5))
        assert res.value > 1.0
        assert res.clamped == 1.0


class TestProbeSemantics:
    TRUNC = spectrum_from(
        63, 39, {10: 1.2e4, 14: 3.4e7, 20: 5.6e11}, SpectrumKind.TRUNCATED, 20
    )

    def test_truncation_clamps_probe(self):
        point = ch(1.0)
        for fn in (truncated_union_bound, pairwise_error_bound, word_error_bound):
            res = fn(self.TRUNC, point)
            assert res.d_star_opt <= 10
            assert math.isfinite(res.value)

    def test_forced_radius_beyond_coverage_rejected(self):
        with pytest.raises(ValidationError):
            word_error_bound(self.TRUNC, ch(1.0), d_star=11)

    def test_radius_cap(self):
        res = truncated_union_bound(HAMMING, ch(1.5), d_star_max=2)
        assert res.d_star_opt <= 2
        with pytest.raises(ValidationError):
            truncated_union_bound(HAMMING, ch(1.5), d_star_max=-1)

    def test_truncation_covering_n_probes_fully(self):
        spec = restrict(HAMMING, 7)
        res = truncated_union_bound(spec, ch(0.3))
        assert res.d_star_opt == 7


class TestGfbtCombine:
    def test_union_provider_equals_truncated_union(self):
        for spec in (HAMMING, BCH15, ensemble_average(100, 95)):
            for sigma in (0.5, 0.9, 1.3, 2.0):
                point = ch(sigma)
                via_provider = gfbt_combine(union_provider(spec), spec, point)
                direct = truncated_union_bound(spec, point)
                assert via_provider.value == direct.value
                assert via_provider.d_star_opt == direct.d_star_opt

    def test_empty_subcode_skips_provider(self):
        def exploding(d_star, point):
            raise AssertionError("provider must not be asked for an empty subcode")

        res = gfbt_combine(exploding, HAMMING, ch(1.0), d_star=1)
        point = ch(1.0)
        assert rel_close(res.value, binomial_tail(point.p_b, 7, 2, 7))
        assert res.base_term == 0.0

    def test_provider_error_carries_radius(self):
        def failing(d_star, point):
            raise ProviderLookupError("table has no such entry")

        with pytest.raises(ProviderLookupError, match="d_star=2"):
            gfbt_combine(failing, HAMMING, ch(1.0), d_star=2)

    def test_infinite_base_loses_its_radius(self):
        # the union sum of the [2054, 1027] average overflows at every large
        # radius at -30 dB; those radii lose, as in truncated_union_bound
        ens = ensemble_average(2054, 1027)
        point = ChannelPoint.from_snr_db(-30.0, rate=0.5)
        ds = np.array(ens.weights())
        aq = np.array([ens.counts[d] for d in ds]) * q_function(np.sqrt(ds) / point.sigma)
        via_provider = gfbt_combine(
            lambda d_star, point: float(np.sum(aq[ds <= 2 * d_star])), ens, point
        )
        direct = truncated_union_bound(ens, point)
        assert via_provider.value == direct.value == 0.9999999999997208
        assert via_provider.d_star_opt == direct.d_star_opt == 0

    def test_provider_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="d_star=3"):
            gfbt_combine(lambda d_star, point: -0.5, HAMMING, ch(1.0), d_star=3)
        with pytest.raises(ValidationError, match="finite"):
            gfbt_combine(lambda d_star, point: float("nan"), HAMMING, ch(1.0), d_star=3)

    def test_provider_called_once_per_nonempty_radius(self):
        calls = []
        spec = ensemble_average(100, 50)
        point = ChannelPoint.from_snr_db(2.0, SnrConvention.EBN0_DB, rate=0.5)

        def counting(d_star, asked):
            assert asked is point
            calls.append(d_star)
            return union_base(spec, asked, d_star)

        res = gfbt_combine(counting, spec, point)
        # radius 0 leaves an empty subcode; radii 1..100 each call once
        assert calls == list(range(1, 101))
        assert res.base_term == union_base(spec, point, res.d_star_opt)

    def test_provider_asked_only_for_nonempty_subcodes(self):
        # a radius is asked for exactly when some weight d <= 2d* has A_d > 0
        zeros = spectrum_from(
            12, 4, {0: 1.0, 2: 0.0, 5: 3.0, 3: 0.0, 9: 12.0}, SpectrumKind.TRUNCATED, 10
        )
        ensemble = ensemble_average(40, 20)
        for spec in (HAMMING, zeros, ensemble, restrict(ensemble, 15)):
            asked = []

            def recording(d_star, point):
                asked.append(d_star)
                return union_base(spec, point, d_star)

            gfbt_combine(recording, spec, ch(1.0))
            probe = bounds._probe_range(spec, None, None)
            assert asked == [r for r in probe if restrict(spec, 2 * r).weights().size]

    def test_base_term_recorded(self):
        point = ch(1.0)
        res = gfbt_combine(union_provider(HAMMING), HAMMING, point, d_star=3)
        want = sum(
            HAMMING.counts[d] * float(q_function(math.sqrt(d)))
            for d in HAMMING.weights()
            if d <= 6
        )
        assert rel_close(res.base_term, want)
        assert res.variant is BoundVariant.GFBT_COMBINED


class TestFileProvider:
    def write_table(self, tmp_path, spec, sigmas, radii):
        lines = ["# base bound table", "# snr_db d_star value"]
        for sigma in sigmas:
            point = ch(sigma)
            for d_star in radii:
                lines.append(f"{point.snr_db!r} {d_star} {union_base(spec, point, d_star)!r}")
        path = tmp_path / "base_bounds.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_replay_matches_union_provider(self, tmp_path):
        sigmas = (0.8, 1.0, 1.25)
        path = self.write_table(tmp_path, HAMMING, sigmas, range(0, 8))
        provider = FileBoundProvider(path)
        for sigma in sigmas:
            point = ch(sigma)
            replay = gfbt_combine(provider, HAMMING, point)
            direct = truncated_union_bound(HAMMING, point)
            assert replay.value == direct.value

    def test_missing_entry_names_radius(self, tmp_path):
        path = self.write_table(tmp_path, HAMMING, (1.0,), range(0, 4))
        provider = FileBoundProvider(path)
        with pytest.raises(ProviderLookupError, match="d_star=4"):
            gfbt_combine(provider, HAMMING, ch(1.0))
        # capping the probe at the table's coverage succeeds
        res = gfbt_combine(provider, HAMMING, ch(1.0), d_star_max=3)
        assert math.isfinite(res.value)

    def test_unknown_snr_rejected(self, tmp_path):
        path = self.write_table(tmp_path, HAMMING, (1.0,), range(0, 8))
        with pytest.raises(ProviderLookupError, match="no entry"):
            gfbt_combine(FileBoundProvider(path), HAMMING, ch(0.77))

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2\n", encoding="utf-8")
        with pytest.raises(ProviderLookupError, match="bad.txt:1"):
            FileBoundProvider(path)
        path.write_text("1.0 -2 0.5\n", encoding="utf-8")
        with pytest.raises(ProviderLookupError, match="d_star >= 0"):
            FileBoundProvider(path)
        path.write_text("# snr_db d_star value\n0.0 1 0.25\n1.0 two 0.5\n", encoding="utf-8")
        with pytest.raises(ProviderLookupError, match="bad.txt:3: invalid literal for int"):
            FileBoundProvider(path)

    def test_duplicate_record_rejected(self, tmp_path):
        # either order of two records for one (snr_db, d*) used to be read,
        # each giving its own bound; both orders are now refused
        path = tmp_path / "dup.txt"
        for text in ("0.0 2 0.5\n0.0 2 0.7\n", "# table\n0.0 2 0.7\n5e-10 2 0.5\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ProviderLookupError, match=r"dup.txt:\d: duplicate record"):
                FileBoundProvider(path)
        # another radius or a farther snr_db is a distinct record
        path.write_text("0.0 2 0.5\n0.0 3 0.7\n1e-8 2 0.6\n", encoding="utf-8")
        provider = FileBoundProvider(path)
        point = ChannelPoint.from_snr_db(0.0, rate=4 / 7)
        assert (provider(2, point), provider(3, point)) == (0.5, 0.7)


class TestOptimizeDstar:
    def test_constant_evaluator_tie_breaks_low(self):
        value, d_star = optimize_dstar(
            lambda spec, point, r: 0.25, HAMMING, ch(1.0), range(2, 6)
        )
        assert value == 0.25
        assert d_star == 2

    def test_empty_probe_rejected(self):
        with pytest.raises(ValidationError):
            optimize_dstar(lambda spec, point, r: 1.0, HAMMING, ch(1.0), range(0))

    def test_out_of_range_probe_rejected(self):
        with pytest.raises(ValidationError):
            optimize_dstar(lambda spec, point, r: 1.0, HAMMING, ch(1.0), [8])

    def test_matches_truncated_union_objective(self):
        point = ch(0.9)

        def objective(spec, chp, d_star):
            base = union_base(spec, chp, d_star)
            return base + binomial_tail(chp.p_b, spec.n, d_star + 1, spec.n)

        value, _ = optimize_dstar(objective, HAMMING, point, range(0, 8))
        assert rel_close(value, truncated_union_bound(HAMMING, point).value)

    def test_high_snr_scan_reaches_n(self):
        point = ch(0.3)

        def objective(spec, chp, d_star):
            base = union_base(spec, chp, d_star)
            return base + binomial_tail(chp.p_b, spec.n, d_star + 1, spec.n)

        _, d_star = optimize_dstar(objective, HAMMING, point, range(0, 8))
        assert d_star == 7
