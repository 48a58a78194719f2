"""Spectrum construction, transforms, and the text file formats.

The enumeration oracle multiplies every message by the generator matrix mod
2 with numpy, sharing nothing with the chunked codebook engine under test.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mlbounds.codes import (
    bch_15_7,
    bch_31_21,
    bch_31_26,
    hamming_7_4,
    repetition_code,
    toy_code_10_5,
)
from mlbounds.errors import FileFormatError, ResourceLimitError, ValidationError
from mlbounds.spectrum import (
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    enumerate_spectrum,
    ensemble_average,
    load_generator,
    load_spectrum,
    macwilliams_transform,
    store_generator,
    store_spectrum,
)


def brute_force_iowe(code: LinearCode) -> dict:
    """All 2^k codewords by dense mod-2 matrix multiplication."""
    gen = code.matrix()
    k = code.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    cws = msgs @ gen & 1
    counts: dict = {}
    for i, d in zip(msgs.sum(axis=1), cws.sum(axis=1)):
        counts[(int(i), int(d))] = counts.get((int(i), int(d)), 0) + 1
    return counts


def random_full_rank_code(rng, n: int, k: int) -> LinearCode:
    while True:
        arr = rng.integers(0, 2, size=(k, n))
        try:
            return LinearCode.from_matrix(arr)
        except ValidationError:
            continue


class TestLinearCode:
    def test_encode_matches_rows(self):
        code = hamming_7_4()
        assert code.encode(0) == 0
        for j in range(code.k):
            assert code.encode(1 << j) == code.rows[j]
        # systematic: message bits appear verbatim in the low positions
        for m in range(16):
            assert code.encode(m) & 0b1111 == m

    def test_rank_validation(self):
        with pytest.raises(ValidationError):
            LinearCode(4, 2, (0b0011, 0b0011))
        with pytest.raises(ValidationError):
            LinearCode(4, 2, (0b0011,))
        with pytest.raises(ValidationError):
            LinearCode(4, 2, (0b0011, 0b10000))

    def test_dual_is_orthogonal_complement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 14))
            k = int(rng.integers(1, n))
            code = random_full_rank_code(rng, n, k)
            dual = code.dual()
            assert (dual.n, dual.k) == (n, n - k)
            for g in code.rows:
                for h in dual.rows:
                    assert (g & h).bit_count() % 2 == 0

    def test_matrix_round_trip(self):
        code = toy_code_10_5()
        assert LinearCode.from_matrix(code.matrix()) == code


class TestEnumerateSpectrum:
    def test_hamming_weight_marginal(self):
        iowe = enumerate_spectrum(hamming_7_4())
        marg = iowe.weight_spectrum()
        assert [marg.count(d) for d in range(8)] == [1, 0, 0, 7, 7, 0, 0, 1]
        assert marg.kind is SpectrumKind.EXACT

    def test_fixture_spectra(self):
        marg = enumerate_spectrum(toy_code_10_5()).weight_spectrum()
        assert [marg.count(d) for d in range(11)] == [1, 0, 0, 0, 16, 0, 12, 0, 3, 0, 0]
        bch = enumerate_spectrum(bch_15_7()).weight_spectrum()
        assert [bch.count(d) for d in range(16)] == [
            1, 0, 0, 0, 0, 18, 30, 15, 15, 30, 18, 0, 0, 0, 0, 1,
        ]

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            n = int(rng.integers(3, 14))
            k = int(rng.integers(1, min(n, 8) + 1))
            code = random_full_rank_code(rng, n, k)
            got = enumerate_spectrum(code)
            want = brute_force_iowe(code)
            assert {key: int(v) for key, v in got.counts.items()} == want

    def test_repetition(self):
        iowe = enumerate_spectrum(repetition_code(9))
        assert iowe.counts == {(0, 0): 1.0, (1, 9): 1.0}

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_spectrum(hamming_7_4(), max_k=3)


class TestMacwilliams:
    def test_simplex_to_hamming(self):
        # the [7, 3] simplex (dual of Hamming) has spectrum 1 + 7 z^4
        dual = hamming_7_4().dual()
        dual_spec = enumerate_spectrum(dual).weight_spectrum()
        assert [dual_spec.count(d) for d in range(8)] == [1, 0, 0, 0, 7, 0, 0, 0]
        primal = macwilliams_transform(dual_spec)
        assert [primal.count(d) for d in range(8)] == [1, 0, 0, 7, 7, 0, 0, 1]
        assert (primal.n, primal.k) == (7, 4)

    def test_agrees_with_enumeration_on_random_codes(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(4, 15))
            k = int(rng.integers(1, n))
            code = random_full_rank_code(rng, n, k)
            direct = enumerate_spectrum(code).weight_spectrum()
            via_dual = macwilliams_transform(
                enumerate_spectrum(code.dual()).weight_spectrum()
            )
            assert direct == via_dual

    def test_bch_31_26_via_dual(self):
        # the [31, 26] Hamming-type BCH code: A_3 = C(31, 2)/3 = 155
        spec = macwilliams_transform(
            enumerate_spectrum(bch_31_26().dual()).weight_spectrum()
        )
        assert spec.count(1) == 0 and spec.count(2) == 0
        assert spec.count(3) == 155.0
        assert math.isclose(sum(spec.counts.values()), 2.0**26, rel_tol=1e-12)

    def test_involution(self):
        spec = enumerate_spectrum(bch_15_7()).weight_spectrum()
        dual_spec = macwilliams_transform(spec)  # spectrum of the dual code
        assert macwilliams_transform(dual_spec) == spec

    @pytest.mark.parametrize("m", range(3, 10))
    def test_simplex_to_hamming_closed_form(self, m):
        # the [n, m] simplex code has A_{2^(m-1)} = n; its dual, the [n, n-m]
        # Hamming code, has the weight enumerator
        # ((1+x)^n + n (1+x)^((n-1)/2) (1-x)^((n+1)/2)) / (n+1)
        n = (1 << m) - 1
        simplex = WeightSpectrum(n, m, {0: 1.0, 1 << (m - 1): float(n)}, SpectrumKind.EXACT)
        half = (n - 1) // 2
        want = []
        for j in range(n + 1):
            cross = sum(
                math.comb(half, s) * math.comb(half + 1, j - s) * (-1) ** (j - s)
                for s in range(max(0, j - half - 1), min(half, j) + 1)
            )
            total = math.comb(n, j) + n * cross
            assert total % (n + 1) == 0
            want.append(total // (n + 1))
        hamming = macwilliams_transform(simplex)
        assert (hamming.n, hamming.k) == (n, n - m)
        assert hamming.counts == {j: float(a) for j, a in enumerate(want) if a}

    def test_rejects_inconsistent_dual(self):
        bad = WeightSpectrum(5, 2, {0: 1.0, 1: 3.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):
            macwilliams_transform(bad)

    def test_rejects_non_exact(self):
        with pytest.raises(ValidationError):
            macwilliams_transform(ensemble_average(8, 3))


class TestEnsembleAverage:
    def test_matches_exact_rational_formula(self):
        spec = ensemble_average(100, 95)
        for d in (1, 2, 50, 99, 100):
            want = Fraction(math.comb(100, d)) * (2**95 - 1) / (2**100 - 1)
            assert math.isclose(spec.count(d), float(want), rel_tol=1e-12)
        assert spec.count(0) == 1.0
        assert spec.kind is SpectrumKind.ENSEMBLE_AVERAGE

    def test_nonzero_mass_totals(self):
        for n, k in ((100, 95), (100, 50), (31, 21)):
            spec = ensemble_average(n, k)
            total = sum(c for d, c in spec.counts.items() if d >= 1)
            assert math.isclose(total, 2.0**k - 1.0, rel_tol=1e-9)

    def test_full_rank_limit_is_binomial(self):
        spec = ensemble_average(12, 12)
        for d in range(1, 13):
            assert math.isclose(spec.count(d), math.comb(12, d), rel_tol=1e-12)

    def test_long_ensemble_just_below_overflow_stays_complete(self):
        # the largest average, at d = 1000, is within a factor 10 of float64's limit
        spec = ensemble_average(2000, 1000)
        assert spec.kind is SpectrumKind.ENSEMBLE_AVERAGE and spec.truncation is None
        assert sorted(spec.counts) == list(range(2001))
        for d in (1, 500, 1000, 1999, 2000):
            want = Fraction(math.comb(2000, d)) * (2**1000 - 1) / (2**2000 - 1)
            assert math.isclose(spec.count(d), float(want), rel_tol=1e-10)

    def test_overflowing_ensemble_truncates_at_last_finite_weight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ensemble_average(4096, 2048)
        assert spec.kind is SpectrumKind.TRUNCATED and spec.truncation == 881
        assert sorted(spec.counts) == list(range(882))
        exact = {
            d: Fraction(math.comb(4096, d)) * (2**2048 - 1) / (2**4096 - 1) for d in (881, 882)
        }
        assert exact[882] > sys.float_info.max > exact[881]
        assert math.isclose(spec.count(881), float(exact[881]), rel_tol=1e-10)


class TestSpectrumTypes:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightSpectrum(7, 4, {0: 1.0, 3: -1.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):
            WeightSpectrum(7, 4, {0: 2.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):
            WeightSpectrum(7, 4, {0: 1.0, 8: 1.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):  # sum must be 2^k
            WeightSpectrum(7, 4, {0: 1.0, 3: 7.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):  # truncated needs a radius
            WeightSpectrum(7, 4, {0: 1.0}, SpectrumKind.TRUNCATED)
        with pytest.raises(ValidationError):  # radius only on truncated
            WeightSpectrum(7, 4, {0: 1.0}, SpectrumKind.EXACT, truncation=3)

    def test_restrict(self):
        spec = enumerate_spectrum(hamming_7_4()).weight_spectrum()
        sub = spec.restrict(4)
        assert sub.kind is SpectrumKind.TRUNCATED
        assert sub.truncation == 4
        assert sub.weights() == [3, 4]
        assert sub.max_known_weight == 4
        wide = spec.restrict(20)  # beyond n: keeps the requested cut
        assert wide.truncation == 20
        assert wide.max_known_weight == 7

    def test_weights_and_dmin(self):
        spec = enumerate_spectrum(toy_code_10_5()).weight_spectrum()
        assert spec.weights() == [4, 6, 8]

    def test_iowe_marginal_and_slice(self):
        iowe = enumerate_spectrum(hamming_7_4())
        assert iowe.slice(7) == {4: 1.0}
        assert sum(iowe.slice(3).values()) == 7.0
        assert iowe.weight_spectrum().count(3) == 7.0


class TestFiles:
    def test_weight_round_trip(self, tmp_path):
        spec = enumerate_spectrum(toy_code_10_5()).weight_spectrum()
        path = tmp_path / "toy.spec"
        store_spectrum(spec, path)
        assert load_spectrum(path) == spec

    def test_iowe_round_trip(self, tmp_path):
        iowe = enumerate_spectrum(bch_15_7())
        path = tmp_path / "bch.iowe"
        store_spectrum(iowe, path)
        assert load_spectrum(path) == iowe

    def test_ensemble_and_truncated_round_trip(self, tmp_path):
        ens = ensemble_average(100, 95)
        path = tmp_path / "ens.spec"
        store_spectrum(ens, path)
        assert load_spectrum(path) == ens
        trunc = ens.restrict(20)
        store_spectrum(trunc, path)
        assert load_spectrum(path) == trunc

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("# header comment\n\nweight n=7 k=4 kind=exact\n0 1\n# mid\n3 7\n4 7\n7 1\n")
        spec = load_spectrum(path)
        assert spec.count(3) == 7.0

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("", "empty"),
            ("weight n=7 kind=exact\n", "header"),
            ("weight n=7 k=4 kind=approximate\n", "header"),
            ("weight n=7 k=4 kind=truncated\n", "dmax"),
            ("weight n=7 k=4 kind=exact extra=1\n", "unknown header fields"),
            ("weight n=7 k=4 kind=exact\n0 1\n3\n", ":3:"),
            ("weight n=7 k=4 kind=exact\n0 1\n3 x\n", ":3:"),
            ("weight n=7 k=4 kind=exact\n0 1\n3 7\n3 7\n", "duplicate"),
            ("weight n=7 k=4 kind=exact\n0 1\n3 -7\n", ">= 0"),
            ("iowe n=7 k=4 kind=exact\n0 0 1\n1 3 7\n9 3 1\n", "outside"),
        ],
    )
    def test_rejects_malformed_spectrum(self, tmp_path, body, fragment):
        path = tmp_path / "bad.spec"
        path.write_text(body)
        with pytest.raises(FileFormatError) as err:
            load_spectrum(path)
        assert fragment in str(err.value)

    def test_line_numbers_in_diagnostics(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("# one\nweight n=7 k=4 kind=exact\n0 1\nnot a record\n")
        with pytest.raises(FileFormatError) as err:
            load_spectrum(path)
        assert f"{path}:4:" in str(err.value)

    def test_generator_round_trip(self, tmp_path):
        code = bch_31_21()
        path = tmp_path / "bch.gen"
        store_generator(code, path)
        assert load_generator(path) == code

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("", "empty"),
            ("7\n", "'n k'"),
            ("7 4\n1010101\n", "expected 4 rows"),
            ("7 4\n101\n", "must be 7 characters"),
            ("7 4\n1010121\n1100110\n0000111\n1111111\n", "0/1"),
            ("4 2\n0011\n0011\n", "rank"),
        ],
    )
    def test_rejects_malformed_generator(self, tmp_path, body, fragment):
        path = tmp_path / "bad.gen"
        path.write_text(body)
        with pytest.raises(FileFormatError) as err:
            load_generator(path)
        assert fragment in str(err.value)
