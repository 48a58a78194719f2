"""Bound assembly tests.

The scalar kernels (q_function and the oracle binomial_tail) are checked in
test_numerics; here every whole-curve bound is checked against manual
composition of those kernels at forced radii, and the ordering claims
(word <= truncated union <= union, bit <= word, results below 1) are
asserted as plain float comparisons with no tolerance.
"""

import math
import os

import numpy as np
import pytest

from mlbounds import bounds
from mlbounds import (
    BoundVariant,
    ChannelPoint,
    FileBoundProvider,
    InputOutputSpectrum,
    ProviderLookupError,
    SnrConvention,
    SpectrumKind,
    ThetaPolicy,
    UnionBoundProvider,
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
from mlbounds.codes import bch_15_7, hamming_7_4, repetition_code
from oracles import (
    binomial_tail,
    h_prime_term,
    h_term,
    optimize_dstar,
    pairwise_term,
    triplet_term,
)
from test_simulator import fresh_peak_ratio


def ch(sigma):
    return ChannelPoint.from_sigma(sigma)


HAMMING = WeightSpectrum(7, 4, {0: 1.0, 3: 7.0, 4: 7.0, 7: 1.0}, SpectrumKind.EXACT)
HAMMING_IOWE = enumerate_spectrum(hamming_7_4())
BCH15 = enumerate_spectrum(bch_15_7()).weight_spectrum()


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


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
        profile = HAMMING_IOWE.slice(3)
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
        spec = WeightSpectrum(9, 1, {0: 1.0, 5: 1.0}, SpectrumKind.EXACT)
        res = union_bound(spec, ch(0.8))
        assert rel_close(res.value, float(q_function(math.sqrt(5) / 0.8)))

    def test_error_free_code(self):
        spec = WeightSpectrum(6, 0, {0: 1.0}, SpectrumKind.EXACT)
        assert union_bound(spec, ch(1.0)).value == 0.0

    def test_rejects_truncated(self):
        with pytest.raises(ValidationError):
            union_bound(HAMMING.restrict(4), ch(1.0))


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
                BCH15.count(d) * float(q_function(math.sqrt(d) / 0.9))
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
        for iowe in (HAMMING_IOWE, enumerate_spectrum(bch_15_7())):
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
                    pairwise_term(HAMMING.count(d), d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_triplet_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (1, 2, 3, 7):
                res = triplet_error_bound(HAMMING, point, d_star=d_star)
                want = sum(
                    triplet_term(int(HAMMING.count(d)), d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_word_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (0, 2, 3, 7):
                res = word_error_bound(HAMMING, point, d_star=d_star)
                want = sum(
                    h_term(HAMMING.count(d), d, d_star, 7, point)
                    for d in HAMMING.weights()
                    if d <= 2 * d_star
                ) + binomial_tail(point.p_b, 7, d_star + 1, 7)
                assert rel_close(res.value, want)

    def test_bit_matches_scalar_terms(self):
        for point in self.POINTS:
            for d_star in (1, 2, 3, 7):
                res = bit_error_bound(HAMMING_IOWE, point, d_star=d_star)
                want = sum(
                    h_prime_term(HAMMING_IOWE.slice(d), d, d_star, 7, 4, point)
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
                        triplet_term(int(spec.count(d)), d, d_star, n, point, tight)
                        for d in kept
                    )
                    want_word = tail + sum(
                        h_term(spec.count(d), d, d_star, n, point, tight) for d in kept
                    )
                    assert rel_close(triplet.value, want_triplet, 1e-11)
                    assert rel_close(word.value, want_word, 1e-11)

    def test_word_matches_scalar_terms_on_ensemble(self):
        ens = ensemble_average(20, 10)
        point = ch(1.0)
        for d_star in (1, 3, 10, 20):
            res = word_error_bound(ens, point, d_star=d_star)
            want = sum(
                h_term(ens.count(d), d, d_star, 20, point)
                for d in ens.weights()
                if d <= 2 * d_star
            ) + binomial_tail(point.p_b, 20, d_star + 1, 20)
            assert rel_close(res.value, want)


class TestVariantEdges:
    def test_triplet_rejects_fractional_spectrum(self):
        with pytest.raises(ValidationError):
            triplet_error_bound(ensemble_average(20, 10), ch(1.0))

    def test_bit_rejects_ensemble_iowe(self):
        iowe = InputOutputSpectrum(
            7, 4, {(1, 3): 1.75, (0, 0): 1.0}, SpectrumKind.ENSEMBLE_AVERAGE
        )
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

    def test_word_degenerate_spectrum_is_zero_at_full_radius(self):
        spec = WeightSpectrum(6, 0, {0: 1.0}, SpectrumKind.EXACT)
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
        # weight with a capped angle below pi/2, and bit reads no IOWE slices
        calls = []
        real = bounds.triplet_probability

        def counting(d, theta, sigma):
            calls.append(np.asarray(d).tolist())
            return real(d, theta, sigma)

        def refuse(iowe, d):
            raise AssertionError("per-weight IOWE slice")

        monkeypatch.setattr(bounds, "triplet_probability", counting)
        monkeypatch.setattr(InputOutputSpectrum, "slice", refuse)
        # only 50 < d < 100 have a capped angle below pi/2
        heavy = [d for d in self.ENS.weights() if 50 < d < 100]
        assert len(heavy) == 49
        integer = WeightSpectrum(
            100, 50, {d: float(math.ceil(c)) for d, c in self.ENS.counts.items()},
            SpectrumKind.TRUNCATED, 100,
        )
        for fn, spec in ((word_error_bound, self.ENS), (triplet_error_bound, integer)):
            calls.clear()
            fn(spec, self.POINT, theta_policy=ThetaPolicy.TIGHT)
            assert calls == [heavy]
        calls.clear()
        bit_error_bound(
            enumerate_spectrum(bch_15_7()), ch(1.0), theta_policy=ThetaPolicy.TIGHT
        )
        assert calls == [[8, 9, 10]]  # bch_15_7 weights above 15/2, below 15

    def test_union_builds_no_table_and_truncated_union_no_prefix(self, monkeypatch):
        built = []
        init = bounds._BinomialTable.__init__

        def counting_init(table, p, n):
            built.append(n)
            init(table, p, n)

        def refuse(table, rows, m):
            raise AssertionError("prefix mass read")

        monkeypatch.setattr(bounds._BinomialTable, "__init__", counting_init)
        monkeypatch.setattr(bounds._BinomialTable, "mass_upto", refuse)
        union_bound(self.ENS, self.POINT)
        assert built == []
        truncated_union_bound(self.ENS, self.POINT)
        gfbt_combine(UnionBoundProvider(), self.ENS, self.POINT)
        assert built == [100, 100]
        with pytest.raises(AssertionError, match="prefix mass read"):
            word_error_bound(self.ENS, self.POINT)

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


class TestBinomialStream:
    """The streamed prefix columns of _BinomialTable against the scalar
    log-space oracle, column by column in the order the radius scan asks."""

    @pytest.mark.parametrize("n", [1, 7, 31, 100, 500])
    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.1, 0.45])
    def test_columns_match_oracle(self, n, p):
        table = bounds._BinomialTable(p, n)
        every = np.arange(n + 1)
        columns = [table.mass_upto(every, m) for m in range(n + 1)]
        for m, column in enumerate(columns):
            # row m is where the column reaches 1; the sparse rows keep the
            # oracle's scalar calls affordable at n = 500
            rows = every if n <= 31 else sorted({0, 1, n // 3, n // 2, n - 1, n, m, min(m + 1, n)})
            for row in rows:
                want = binomial_tail(p, int(row), 0, m)
                if want >= 1e-290:
                    assert abs(column[row] - want) <= 1e-11 * want, (n, p, m, row)
        # a first request deep into the table (a fixed d*) streams every
        # column before it and lands on the same bits
        fresh = bounds._BinomialTable(p, n)
        assert np.array_equal(fresh.mass_upto(every, n // 2), columns[n // 2])

    def test_columns_only_ascend(self):
        table = bounds._BinomialTable(0.1, 20)
        rows = np.arange(21)
        table.mass_upto(rows, 5)
        table.mass_upto(rows, 5)  # the same column again is fine
        with pytest.raises(ValidationError, match="column 4 requested after column 5"):
            table.mass_upto(rows, 4)


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
            gfbt_combine(UnionBoundProvider(), BCH15, point),
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
    TRUNC = WeightSpectrum(
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
        spec = HAMMING.restrict(7)
        res = truncated_union_bound(spec, ch(0.3))
        assert res.d_star_opt == 7


class TestGfbtCombine:
    def test_union_provider_equals_truncated_union(self):
        for spec in (HAMMING, BCH15, ensemble_average(100, 95)):
            for sigma in (0.5, 0.9, 1.3, 2.0):
                point = ch(sigma)
                via_provider = gfbt_combine(UnionBoundProvider(), spec, point)
                direct = truncated_union_bound(spec, point)
                assert via_provider.value == direct.value
                assert via_provider.d_star_opt == direct.d_star_opt

    def test_empty_subspectrum_skips_provider(self):
        def exploding(sub, point):
            raise AssertionError("provider must not see an empty sub-spectrum")

        res = gfbt_combine(exploding, HAMMING, ch(1.0), d_star=1)
        point = ch(1.0)
        assert rel_close(res.value, binomial_tail(point.p_b, 7, 2, 7))
        assert res.base_term == 0.0

    def test_provider_error_carries_radius(self):
        def failing(sub, point):
            raise ProviderLookupError("table has no such entry")

        with pytest.raises(ProviderLookupError, match="d_star=2"):
            gfbt_combine(failing, HAMMING, ch(1.0), d_star=2)

    def test_provider_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="d_star=3"):
            gfbt_combine(lambda sub, point: -0.5, HAMMING, ch(1.0), d_star=3)
        with pytest.raises(ValidationError, match="finite"):
            gfbt_combine(lambda sub, point: float("nan"), HAMMING, ch(1.0), d_star=3)

    def test_provider_called_once_per_nonempty_radius(self):
        calls = []

        def counting(sub, point):
            calls.append(sub.truncation)
            return UnionBoundProvider()(sub, point)

        spec = ensemble_average(100, 50)
        point = ChannelPoint.from_snr_db(2.0, SnrConvention.EBN0_DB, rate=0.5)
        res = gfbt_combine(counting, spec, point)
        # radius 0 leaves an empty sub-spectrum; radii 1..100 each call once
        assert sorted(calls) == [2 * r for r in range(1, 101)]
        assert res.base_term == UnionBoundProvider()(spec.restrict(2 * res.d_star_opt), point)

    def test_provider_sees_restricted_spectra(self):
        # every radius hands the provider exactly spectrum.restrict(2d*), and
        # skips it exactly when that sub-spectrum has no positive weight
        zeros = WeightSpectrum(
            12, 4, {0: 1.0, 2: 0.0, 5: 3.0, 3: 0.0, 9: 12.0}, SpectrumKind.TRUNCATED, 10
        )
        ensemble = ensemble_average(40, 20)
        for spec in (HAMMING, zeros, ensemble, ensemble.restrict(15)):
            seen = {}

            def recording(sub, point):
                seen[sub.truncation // 2] = sub
                return UnionBoundProvider()(sub, point)

            gfbt_combine(recording, spec, ch(1.0))
            for radius in bounds._probe_range(spec, None, None):
                want = spec.restrict(2 * radius)
                assert seen.get(radius) == (want if want.weights() else None)

    def test_base_term_recorded(self):
        point = ch(1.0)
        res = gfbt_combine(UnionBoundProvider(), HAMMING, point, d_star=3)
        want = sum(
            HAMMING.count(d) * float(q_function(math.sqrt(d)))
            for d in HAMMING.weights()
            if d <= 6
        )
        assert rel_close(res.base_term, want)
        assert res.variant is BoundVariant.GFBT_COMBINED


class TestFileProvider:
    def write_table(self, tmp_path, spec, sigmas, radii):
        provider = UnionBoundProvider()
        lines = ["# base bound table", "# snr_db d_star value"]
        for sigma in sigmas:
            point = ch(sigma)
            for d_star in radii:
                sub = spec.restrict(2 * d_star)
                if not sub.weights():
                    continue
                lines.append(f"{point.snr_db!r} {d_star} {provider(sub, point)!r}")
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

    def test_needs_truncated_subspectrum(self, tmp_path):
        path = self.write_table(tmp_path, HAMMING, (1.0,), range(0, 8))
        with pytest.raises(ProviderLookupError, match="truncation"):
            FileBoundProvider(path)(HAMMING, ch(1.0))


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
            sub = spec.restrict(2 * d_star)
            base = UnionBoundProvider()(sub, chp)
            return base + binomial_tail(chp.p_b, spec.n, d_star + 1, spec.n)

        value, _ = optimize_dstar(objective, HAMMING, point, range(0, 8))
        assert rel_close(value, truncated_union_bound(HAMMING, point).value)

    def test_high_snr_scan_reaches_n(self):
        point = ch(0.3)

        def objective(spec, chp, d_star):
            sub = spec.restrict(2 * d_star)
            base = UnionBoundProvider()(sub, chp)
            return base + binomial_tail(chp.p_b, spec.n, d_star + 1, spec.n)

        _, d_star = optimize_dstar(objective, HAMMING, point, range(0, 8))
        assert d_star == 7
