"""Spectrum construction, transforms, and the text file formats.

The enumeration oracle multiplies every message by the generator matrix mod
2 with numpy, sharing nothing with the chunked codebook engine under test.
"""

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    CODES,
    code_from_matrix,
    code_matrix,
    encode,
    format_generator,
    gray_iowe,
    iowe_slice,
    named_code,
    repetition_code,
    restrict,
    spectrum_from,
)

from mlbounds.errors import FileFormatError, ResourceLimitError, ValidationError
from mlbounds import spectrum
from mlbounds.spectrum import (
    InputOutputSpectrum,
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    enumerate_spectrum,
    ensemble_average,
    format_spectrum,
    load_generator,
    load_spectrum,
    macwilliams_transform,
)


def brute_force_iowe(code: LinearCode) -> np.ndarray:
    """All 2^k codewords by dense mod-2 matrix multiplication."""
    gen = code_matrix(code)
    k = code.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    cws = msgs @ gen & 1
    counts = np.zeros((k + 1, code.n + 1), dtype=np.int64)
    for i, d in zip(msgs.sum(axis=1), cws.sum(axis=1)):
        counts[i, d] += 1
    return counts


def random_full_rank_code(rng, n: int, k: int) -> LinearCode:
    while True:
        arr = rng.integers(0, 2, size=(k, n))
        try:
            return code_from_matrix(arr)
        except ValidationError:
            continue


class TestLinearCode:
    def test_encode_matches_rows(self):
        code = named_code("hamming_7_4")
        assert encode(code, 0) == 0
        for j in range(code.k):
            assert encode(code, 1 << j) == code.rows[j]
        # systematic: message bits appear verbatim in the low positions
        for m in range(16):
            assert encode(code, m) & 0b1111 == m

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


CODE_FILES = ["bch_15_7", "bch_31_21", "bch_31_26", "hamming_7_4", "toy_10_5"]


class TestGeneratorFiles:
    """Facts about each file in data/codes that the file itself does not
    supply: a systematic encoder, closure under cyclic shift for the three
    BCH codes, and a known weight distribution.  The primal spectra of
    hamming_7_4, toy_10_5 and bch_15_7 are pinned in TestEnumerateSpectrum;
    for the length-31 codes the dual distributions below come from
    MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 15.
    Together they fail on every single parity-bit flip in every file."""

    def test_every_generator_file_is_checked(self):
        assert sorted(p.stem for p in CODES.glob("*.gen")) == CODE_FILES

    @pytest.mark.parametrize("name", CODE_FILES)
    def test_rows_are_systematic(self, name):
        code = named_code(name)
        message_bits = (1 << code.k) - 1
        assert [row & message_bits for row in code.rows] == [1 << j for j in range(code.k)]

    @pytest.mark.parametrize("name", ["bch_15_7", "bch_31_21", "bch_31_26"])
    def test_bch_codes_are_cyclic(self, name):
        code = named_code(name)
        word = (1 << code.n) - 1
        for row in code.rows:
            shifted = (row << 1 | row >> (code.n - 1)) & word
            # a systematic code holds a word iff its message bits encode to it
            assert encode(code, shifted & ((1 << code.k) - 1)) == shifted

    @pytest.mark.parametrize(
        "name,dual_counts",
        [("bch_31_21", {0: 1, 12: 310, 16: 527, 20: 186}), ("bch_31_26", {0: 1, 16: 31})],
    )
    def test_dual_weight_distribution(self, name, dual_counts):
        dual = enumerate_spectrum(named_code(name).dual()).weight_spectrum()
        assert {d: c for d, c in enumerate(dual.counts.tolist()) if c} == dual_counts


class TestEnumerateSpectrum:
    def test_hamming_weight_marginal(self):
        iowe = enumerate_spectrum(named_code("hamming_7_4"))
        marg = iowe.weight_spectrum()
        assert marg.counts.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
        assert marg.kind is SpectrumKind.EXACT

    def test_fixture_spectra(self):
        marg = enumerate_spectrum(named_code("toy_10_5")).weight_spectrum()
        assert marg.counts.tolist() == [1, 0, 0, 0, 16, 0, 12, 0, 3, 0, 0]
        bch = enumerate_spectrum(named_code("bch_15_7")).weight_spectrum()
        assert bch.counts.tolist() == [
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
            assert np.array_equal(got.counts, want)

    def test_weights_past_16_bits_stay_exact(self):
        # a 16-bit sweep would read the weights 69,997 and 70,000 as 4,461
        # and 4,464, their values modulo 2^16
        n = 70_000
        iowe = enumerate_spectrum(LinearCode(n, 2, ((1 << n) - 1, 0b111)))
        assert np.argwhere(iowe.counts).tolist() == [[0, 0], [1, 3], [1, n], [2, n - 3]]
        marg = iowe.weight_spectrum()
        assert {d: c for d, c in enumerate(marg.counts.tolist()) if c} == {
            0: 1, 3: 1, 69_997: 1, 70_000: 1
        }

    def test_repetition(self):
        iowe = enumerate_spectrum(repetition_code(9))
        assert np.argwhere(iowe.counts).tolist() == [[0, 0], [1, 9]]
        assert iowe.counts[0, 0] == iowe.counts[1, 9] == 1.0

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_spectrum(named_code("hamming_7_4"), max_k=3)

    def test_negative_guard_is_invalid_input(self):
        with pytest.raises(ValidationError, match="max_k must be >= 0"):
            enumerate_spectrum(named_code("hamming_7_4"), max_k=-1)

    def test_high_table_chunks_match_gray_sweep(self):
        # k = 15 walks two chunks, the second XORed with the row of bit 14
        code = random_full_rank_code(np.random.default_rng(15), 33, 15)
        assert np.array_equal(enumerate_spectrum(code).counts, gray_iowe(code).counts)


def codeword_ints(rows: np.ndarray) -> list[int]:
    """Codeword bitmasks of rows of little-endian uint64 words."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows.astype("<u8")]


class TestCodebookTables:
    @pytest.mark.parametrize("n,k", [(40, 14), (70, 15)])
    def test_every_message_matches_encode(self, n, k):
        code = random_full_rank_code(np.random.default_rng(n), n, k)
        low, high = spectrum._codebook(code)
        messages = np.arange(1 << k, dtype=np.uint32)
        want = [encode(code, m) for m in range(1 << k)]
        t, m = np.divmod(messages, len(low))
        assert codeword_ints(low[m] ^ high[t]) == want
        # chunk t of the codebook in message order is low ^ high[t]
        assert codeword_ints(np.concatenate([low ^ row for row in high])) == want

    def test_three_word_codewords_match_encode(self):
        code = random_full_rank_code(np.random.default_rng(130), 130, 20)
        low, high = spectrum._codebook(code)
        assert low.shape == (1 << 14, 3) and high.shape == (1 << 6, 3)
        rng = np.random.default_rng(20)
        edges = [0, 1, (1 << 14) - 1, 1 << 14, (1 << 20) - 1]
        messages = np.concatenate([edges, rng.integers(0, 1 << 20, 2000)]).astype(np.uint32)
        t, m = np.divmod(messages, len(low))
        got = codeword_ints(low[m] ^ high[t])
        assert got == [encode(code, int(x)) for x in messages]


class TestMacwilliams:
    def test_simplex_to_hamming(self):
        # the [7, 3] simplex (dual of Hamming) has spectrum 1 + 7 z^4
        dual = named_code("hamming_7_4").dual()
        dual_spec = enumerate_spectrum(dual).weight_spectrum()
        assert dual_spec.counts.tolist() == [1, 0, 0, 0, 7, 0, 0, 0]
        primal = macwilliams_transform(dual_spec)
        assert primal.counts.tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
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
            enumerate_spectrum(named_code("bch_31_26").dual()).weight_spectrum()
        )
        assert spec.counts[1] == 0 and spec.counts[2] == 0
        assert spec.counts[3] == 155.0
        assert math.isclose(sum(spec.counts.tolist()), 2.0**26, rel_tol=1e-12)

    def test_involution(self):
        spec = enumerate_spectrum(named_code("bch_15_7")).weight_spectrum()
        dual_spec = macwilliams_transform(spec)  # spectrum of the dual code
        assert macwilliams_transform(dual_spec) == spec

    @pytest.mark.parametrize("m", range(3, 10))
    def test_simplex_to_hamming_closed_form(self, m):
        # the [n, m] simplex code has A_{2^(m-1)} = n; its dual, the [n, n-m]
        # Hamming code, has the weight enumerator
        # ((1+x)^n + n (1+x)^((n-1)/2) (1-x)^((n+1)/2)) / (n+1)
        n = (1 << m) - 1
        simplex = spectrum_from(n, m, {0: 1.0, 1 << (m - 1): float(n)}, SpectrumKind.EXACT)
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
        assert hamming.counts.tolist() == [float(a) for a in want]

    def test_rejects_inconsistent_dual(self):
        bad = spectrum_from(5, 2, {0: 1.0, 1: 3.0}, SpectrumKind.EXACT)
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
            assert math.isclose(spec.counts[d], float(want), rel_tol=1e-12)
        assert spec.counts[0] == 1.0
        assert spec.kind is SpectrumKind.ENSEMBLE_AVERAGE

    def test_nonzero_mass_totals(self):
        for n, k in ((100, 95), (100, 50), (31, 21)):
            spec = ensemble_average(n, k)
            total = sum(spec.counts[1:].tolist())
            assert math.isclose(total, 2.0**k - 1.0, rel_tol=1e-9)

    def test_full_rank_limit_is_binomial(self):
        spec = ensemble_average(12, 12)
        for d in range(1, 13):
            assert math.isclose(spec.counts[d], math.comb(12, d), rel_tol=1e-12)

    def test_long_ensemble_just_below_overflow_stays_complete(self):
        # the largest average, at d = 1000, is within a factor 10 of float64's limit
        spec = ensemble_average(2000, 1000)
        assert spec.kind is SpectrumKind.ENSEMBLE_AVERAGE and spec.truncation is None
        assert spec.counts.shape == (2001,)
        for d in (1, 500, 1000, 1999, 2000):
            want = Fraction(math.comb(2000, d)) * (2**1000 - 1) / (2**2000 - 1)
            assert math.isclose(spec.counts[d], float(want), rel_tol=1e-10)

    def test_overflowing_ensemble_truncates_at_last_finite_weight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ensemble_average(4096, 2048)
        assert spec.kind is SpectrumKind.TRUNCATED and spec.truncation == 881
        assert spec.counts.shape == (882,)
        exact = {
            d: Fraction(math.comb(4096, d)) * (2**2048 - 1) / (2**4096 - 1) for d in (881, 882)
        }
        assert exact[882] > sys.float_info.max > exact[881]
        assert math.isclose(spec.counts[881], float(exact[881]), rel_tol=1e-10)


    def test_guard_refuses_long_ensemble_before_allocating(self, monkeypatch):
        # 6 arrays of 11,184,811 cells pass the 2^26-cell guard; 11,184,810 fit
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"67,108,866 cells"):
                ensemble_average(11_184_810, 5_592_405)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

        class Admitted(Exception):
            pass

        def admitted(n):
            raise Admitted

        monkeypatch.setattr(spectrum, "log_factorials", admitted)
        with pytest.raises(Admitted):
            ensemble_average(11_184_809, 5_592_404)


class TestSpectrumTypes:
    def test_validation(self):
        with pytest.raises(ValidationError):
            spectrum_from(7, 4, {0: 1.0, 3: -1.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):
            spectrum_from(7, 4, {0: 2.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):  # a count for weight 8 > n
            WeightSpectrum(7, 4, [1.0, 0, 0, 0, 0, 0, 0, 0, 1.0], SpectrumKind.EXACT)
        with pytest.raises(ValidationError):  # sum must be 2^k
            spectrum_from(7, 4, {0: 1.0, 3: 7.0}, SpectrumKind.EXACT)
        with pytest.raises(ValidationError):  # truncated needs a radius
            spectrum_from(7, 4, {0: 1.0}, SpectrumKind.TRUNCATED)
        with pytest.raises(ValidationError):  # radius only on truncated
            spectrum_from(7, 4, {0: 1.0}, SpectrumKind.EXACT, truncation=3)
        with pytest.raises(ValidationError):  # an ensemble IOWE needs A_{0,0} = 1
            spectrum_from(7, 4, {(0, 0): 0.5, (1, 3): 1.75}, SpectrumKind.ENSEMBLE_AVERAGE)

    def test_restrict(self):
        spec = enumerate_spectrum(named_code("hamming_7_4")).weight_spectrum()
        sub = restrict(spec, 4)
        assert sub.kind is SpectrumKind.TRUNCATED
        assert sub.truncation == 4
        assert sub.weights().tolist() == [3, 4]
        assert sub.max_known_weight == 4
        wide = restrict(spec, 20)  # beyond n: keeps the requested cut
        assert wide.truncation == 20
        assert wide.max_known_weight == 7

    def test_weights_and_dmin(self):
        spec = enumerate_spectrum(named_code("toy_10_5")).weight_spectrum()
        assert spec.weights().tolist() == [4, 6, 8]

    def test_counts_are_a_read_only_copy(self):
        table = np.array([1.0, 0.0, 0.0, 7.0, 7.0, 0.0, 0.0, 1.0])
        spec = WeightSpectrum(7, 4, table, SpectrumKind.EXACT)
        table[3] = 5.0
        assert spec.counts[3] == 7.0
        with pytest.raises(ValueError, match="read-only"):
            spec.counts[3] = 5.0

    def test_marginal_sums_in_ascending_message_weight(self):
        """The marginal A_d = sum_i A_{i,d} must add the rows in ascending i,
        bit for bit: at 13 rows a pairwise sum regroups them, and the bounds
        of a truncated IOWE would move in their last bits.  Only weights
        0..6 are known, and one IOWE knows only weight 0, whose single
        column a numpy reduction sums pairwise.  The A'_d = sum_i (i/k)
        A_{i,d} of the bit bound is held to the same order by the
        bch_15_7.bit goldens, which a pairwise A'_d fails."""
        rng = np.random.default_rng(16)
        for dmax in (0, 6):
            table = rng.random((13, dmax + 1)) * 10.0 ** rng.integers(-8, 9, (13, dmax + 1))
            for counts in (table, np.asfortranarray(table)):
                iowe = InputOutputSpectrum(20, 12, counts, SpectrumKind.TRUNCATED, dmax)
                want = [0.0] * (dmax + 1)
                for row in table.tolist():
                    want = [a + c for a, c in zip(want, row)]
                assert iowe.weight_spectrum().counts.tolist() == want

    def test_iowe_marginal_and_slice(self):
        iowe = enumerate_spectrum(named_code("hamming_7_4"))
        assert iowe_slice(iowe, 7) == {4: 1.0}
        assert sum(iowe_slice(iowe, 3).values()) == 7.0
        assert iowe.weight_spectrum().counts[3] == 7.0


class TestFiles:
    def test_weight_round_trip(self, tmp_path):
        spec = enumerate_spectrum(named_code("toy_10_5")).weight_spectrum()
        path = tmp_path / "toy.spec"
        path.write_text(format_spectrum(spec))
        assert load_spectrum(path) == spec

    def test_iowe_round_trip(self, tmp_path):
        iowe = enumerate_spectrum(named_code("bch_15_7"))
        path = tmp_path / "bch.iowe"
        path.write_text(format_spectrum(iowe))
        assert load_spectrum(path) == iowe

    def test_ensemble_and_truncated_round_trip(self, tmp_path):
        ens = ensemble_average(100, 95)
        path = tmp_path / "ens.spec"
        path.write_text(format_spectrum(ens))
        assert load_spectrum(path) == ens
        trunc = restrict(ens, 20)
        path.write_text(format_spectrum(trunc))
        assert load_spectrum(path) == trunc

    def test_non_canonical_records_are_normalized(self, tmp_path):
        # records in any order load; explicit zeros of an exact spectrum or
        # an IOWE are dropped on output, and a truncated weight spectrum
        # lists every known weight
        path = tmp_path / "s.spec"
        cases = [
            (
                "weight n=7 k=4 kind=exact\n7 1\n3 7.0\n0 1\n5 0.0\n4 7\n",
                "weight n=7 k=4 kind=exact\n0 1.0\n3 7.0\n4 7.0\n7 1.0\n",
            ),
            (
                "iowe n=3 k=1 kind=exact\n1 3 1\n0 2 0\n0 0 1\n",
                "iowe n=3 k=1 kind=exact\n0 0 1.0\n1 3 1.0\n",
            ),
            (
                "weight n=9 k=2 kind=truncated dmax=4\n3 2.5\n1 0.5\n",
                "weight n=9 k=2 kind=truncated dmax=4\n0 0.0\n1 0.5\n2 0.0\n3 2.5\n4 0.0\n",
            ),
        ]
        for body, canonical in cases:
            path.write_text(body)
            assert format_spectrum(load_spectrum(path)) == canonical

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("# header comment\n\nweight n=7 k=4 kind=exact\n0 1\n# mid\n3 7\n4 7\n7 1\n")
        spec = load_spectrum(path)
        assert spec.counts[3] == 7.0

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

    def test_guard_refuses_oversized_count_array(self, tmp_path):
        # three records, but the header asks for a 50,001 x 100,001 array:
        # refused from the header, before anything is allocated
        path = tmp_path / "huge.iowe"
        path.write_text("iowe n=100000 k=50000 kind=exact\n0 0 1\n1 3 1\n2 5 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimitError, match=r"5,000,150,001 cells \(40,001,200,008 bytes\)"
            ):
                load_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ResourceLimitError, match="cells"):
            InputOutputSpectrum(100000, 50000, np.zeros((1, 1)), SpectrumKind.EXACT)
        with pytest.raises(ResourceLimitError, match="cells"):
            WeightSpectrum(2**26, 1, [1.0], SpectrumKind.ENSEMBLE_AVERAGE)
        # the IOWE of a [8192, 4096] code, 268 MB, is within the guard
        assert spectrum._count_shape(8192, 4096, SpectrumKind.EXACT, None, True) == (4097, 8193)

    def test_line_numbers_in_diagnostics(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("# one\nweight n=7 k=4 kind=exact\n0 1\nnot a record\n")
        with pytest.raises(FileFormatError) as err:
            load_spectrum(path)
        assert f"{path}:4:" in str(err.value)

    def test_generator_round_trip(self, tmp_path):
        code = named_code("bch_31_21")
        path = tmp_path / "bch.gen"
        path.write_text(format_generator(code))
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
