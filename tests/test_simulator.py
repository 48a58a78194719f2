"""Simulator tests.

The batch engine prunes weight classes, then, where the codebook fills
them densely, their part-weight subclasses, and scans them in tiles; the
oracle (oracles.ml_counters) scores the whole codebook of oracles.encode
against every trial, and the two must agree counter by counter on the same
noise.
"""

import contextlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    binomial_tail,
    encode,
    layout_order,
    ml_counters,
    named_code,
    repetition_code,
)

from mlbounds import (
    ChannelPoint,
    LinearCode,
    ResourceLimitError,
    SimConfig,
    ValidationError,
    q_function,
    simulate,
    wilson_interval,
)
from mlbounds import simulator
from mlbounds.simulator import (
    BLOCK,
    _ClassLayout,
    _blas_threads_at_most,
    _layout,
    _noise,
    _openblas_threads,
    _part_bounds,
)
from mlbounds.spectrum import _CHUNK_BITS, enumerate_spectrum

# a [72, 5] code whose nonzero codewords all have bits in both 64-bit words
CODE_72_5 = LinearCode(
    72, 5, tuple((1 << j) | (0b1011 << (62 + j)) | (0xF0F0F << (20 + 3 * j)) for j in range(5))
)


def sparse_code(n: int, k: int, seed: int) -> LinearCode:
    """A systematic [n, k] code whose rows add 2 to 5 random positions, so
    that codeword weights stay small at any n."""
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(k):
        extra = rng.choice(np.arange(k, n), size=rng.integers(2, 6), replace=False)
        rows.append((1 << j) | sum(1 << int(t) for t in extra))
    return LinearCode(n, k, tuple(rows))


@st.composite
def small_codes(draw):
    """Random [n, k] codes, n <= 20 and k <= 7, in systematic form with
    their positions permuted."""
    n = draw(st.integers(3, 20))
    k = draw(st.integers(1, min(n, 7)))
    perm = draw(st.permutations(range(n)))
    rows = []
    for j in range(k):
        word = (1 << j) | (draw(st.integers(0, 2 ** (n - k) - 1)) << k)
        rows.append(sum(1 << perm[t] for t in range(n) if word >> t & 1))
    return LinearCode(n, k, tuple(rows))


@contextlib.contextmanager
def split_small_codes():
    """Split every code whose key fits in 16 bits into 3 parts, however few
    codewords it has, so that small codes reach the part-weight pruning;
    the layout cache is cleared on the way in and out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_CODEWORDS_PER_KEY", 0)
        _layout.cache_clear()
        try:
            yield
        finally:
            _layout.cache_clear()


@pytest.fixture
def split_layout():
    with split_small_codes():
        yield


def assert_counters(report, want):
    assert report.word_errors == want["word_errors"]
    assert report.bit_errors == want["bit_errors"]
    assert report.region_exits == want["region_exits"]
    assert report.ties == want["ties"]
    assert report.joint_errors_by_weight == want["joint"]


def fresh_peak_ratio(action: str, count: str, imports: str) -> float:
    """Peak RSS rise of `action` in a fresh interpreter, over the byte
    `count`; `code` there is the [31, 18] subcode of bch_31_21.  VmHWM,
    unlike ru_maxrss, does not inherit the parent's peak across fork and
    exec; BLAS runs one thread so its per-thread workspace does not depend
    on the core count.  numpy.random loads before the baseline, as the
    action's other modules do: its 6 MB are an import, not the action's work."""
    rows = named_code("bch_31_21").rows[:18]
    script = f"""
import numpy.random
{imports}
from mlbounds.spectrum import LinearCode

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

code = LinearCode(31, 18, {rows!r})
before = peak_kib()
{action}
print((peak_kib() - before) * 1024 / ({count}))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(simulate.__code__.co_filename)))
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=src, **threads)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


class TestWilson:
    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert 0.9 < lo < 1.0 and hi == 1.0

    def test_hand_value(self):
        # p_hat=0.5, n=100, z=1.96: center 0.5, half-width 0.0958 (textbook)
        lo, hi = wilson_interval(50, 100)
        assert abs((hi + lo) / 2 - 0.5) < 1e-12
        assert abs((hi - lo) / 2 - 0.09578) < 5e-4

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            wilson_interval(5, 0)
        with pytest.raises(ValidationError):
            wilson_interval(7, 5)

    def test_bit_interval_covers_the_pooled_rate_over_seeds(self):
        # bit errors come in bursts, one word error flipping several bits, so
        # an interval over trials * k independent bits is too narrow: over
        # 60 seeds of bch_15_7 at 1 dB it misses the pooled BER 17 times;
        # the interval over per-trial bit fractions misses it in none
        code = named_code("bch_15_7")
        sigma = ChannelPoint.from_snr_db(1.0, rate=code.k / code.n).sigma
        reports = [
            simulate(SimConfig(code=code, sigma=sigma, d_star=code.n, trials=4096, seed=seed))
            for seed in range(60)
        ]
        pooled = sum(r.bit_errors for r in reports) / (60 * 4096 * code.k)
        per_bit = [wilson_interval(r.bit_errors, r.trials * r.k) for r in reports]
        assert sum(not lo <= pooled <= hi for lo, hi in per_bit) == 17
        assert all(lo <= pooled <= hi for lo, hi in (r.bit_error_ci for r in reports))
        assert all(r.bit_error_ci == wilson_interval(r.bit_errors / 7, 4096) for r in reports)


class TestSimulateEngine:
    def test_matches_trialwise_reference(self):
        code = named_code("hamming_7_4")
        cfg = SimConfig(code=code, sigma=1.0, d_star=2, trials=700, seed=424242)
        y = _noise(cfg, [(0, cfg.trials)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and want["joint"]
        assert_counters(simulate(cfg), want)

    def test_noise_fills_each_block_as_its_own_draw(self):
        # a full block and a partial one, filled in place, hold the draws of
        # their own Philox keys times sigma plus 1
        cfg = SimConfig(code=named_code("toy_10_5"), sigma=0.7, d_star=3, trials=10, seed=31)
        want = [
            1.0 + 0.7 * np.random.Generator(np.random.Philox(key=np.array([31, b], np.uint64)))
            .standard_normal((size, 10))
            for b, size in ((4, BLOCK), (9, 37))
        ]
        np.testing.assert_array_equal(_noise(cfg, [(4, BLOCK), (9, 37)]), np.concatenate(want))

    def test_bit_reproducible_and_worker_invariant(self):
        cfg = SimConfig(code=named_code("toy_10_5"), sigma=0.9, d_star=3, trials=2500, seed=7)
        a = simulate(cfg)
        b = simulate(cfg)
        c = simulate(cfg, workers=3)
        assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_trial_accounting_and_report_shape(self):
        cfg = SimConfig(code=named_code("hamming_7_4"), sigma=1.2, d_star=3, trials=1500, seed=11)
        report = simulate(cfg)
        assert report.trials == 1500
        assert 0 <= report.word_errors <= report.trials
        lo, hi = report.word_error_ci
        assert lo <= report.word_error_rate <= hi
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["word_errors"] == report.word_errors
        assert "joint_errors_by_weight" in payload
        assert "word errors" in report.to_text()

    def test_noiseless_limit(self):
        cfg = SimConfig(code=named_code("hamming_7_4"), sigma=0.05, d_star=3, trials=400, seed=3)
        report = simulate(cfg)
        assert report.word_errors == 0
        assert report.ties == 0

    def test_region_exit_matches_binomial_tail(self):
        sigma, d_star, trials = 0.8, 1, 40000
        cfg = SimConfig(
            code=named_code("hamming_7_4"), sigma=sigma, d_star=d_star, trials=trials, seed=2718
        )
        report = simulate(cfg)
        p_b = float(q_function(1.0 / sigma))
        expected = binomial_tail(p_b, 7, d_star + 1, 7)
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(report.region_exit_rate - expected) <= 3.0 * se

    def test_joint_counts_dominate_word_errors_in_region(self):
        # every in-region word error trips at least one per-weight event,
        # and the union over weights may double-count
        cfg = SimConfig(code=named_code("toy_10_5"), sigma=1.1, d_star=4, trials=4000, seed=55)
        report = simulate(cfg)
        total_joint = sum(report.joint_errors_by_weight.values())
        assert total_joint >= report.word_errors - report.region_exits
        assert total_joint > 0

    def test_config_refuses_long_codes_and_bad_work_limit(self):
        # the layout keeps its sort key as uint16; a config alone builds no layout
        with pytest.raises(ValidationError, match="n <= 65,535"):
            SimConfig(code=repetition_code(70_000), sigma=300.0, d_star=70_000, trials=200, seed=1)
        SimConfig(code=repetition_code(65_535), sigma=300.0, d_star=65_535, trials=200, seed=1)
        for limit in (0, -5):
            with pytest.raises(ValidationError, match="work_limit must be >= 1"):
                SimConfig(
                    code=named_code("hamming_7_4"), sigma=1.0, d_star=3, trials=10, seed=1,
                    work_limit=limit,
                )

    def test_guards_refuse_k_30_and_excess_work(self):
        # the codebook of a k = 30 code alone counts 2^30 * 6 bytes, ~6.4 GB
        code = LinearCode(30, 30, tuple(1 << j for j in range(30)))
        with pytest.raises(ResourceLimitError, match="GB"):
            simulate(SimConfig(code=code, sigma=1.0, d_star=3, trials=10, seed=1))
        code = named_code("toy_10_5")
        with pytest.raises(ResourceLimitError):
            simulate(SimConfig(code=code, sigma=1.0, d_star=3, trials=10**9, seed=1, work_limit=10**6))

    @pytest.mark.parametrize(
        "n,k,trials,workers,admitted",
        [(28, 28, 1000, 311, True), (28, 28, 1000, 312, False), (29, 29, 1000, 45, True),
         (29, 29, 1000, 46, False), (10_000, 29, 60, 1, True), (10_000, 29, 61, 1, False),
         (10_000, 29, 60, 2, False)],
    )
    def test_footprint_guard_limits_k_29(self, monkeypatch, n, k, trials, workers, admitted):
        # the layout build counts 2^k * 6 bytes and the tables: ~1.61 GB for
        # k = 28 at n = 28, ~3.22 GB for k = 29 at n = 29 and ~3.28 GB at
        # n = 10,000.  Within the 3.5 GB limit that leaves 311 workers of
        # about 6.1 MB of scan buffers (with part sums) at k = 28, 45 at
        # k = 29, or at n = 10,000 (one part, tiles of 2^11 codewords
        # expanded to 164 MB of floats) one worker of up to 60 trials
        class Built(Exception):
            pass

        def unbuilt(code):
            raise Built

        monkeypatch.setattr(simulator, "_layout", unbuilt)
        code = LinearCode(n, k, tuple(1 << j for j in range(k)))
        cfg = SimConfig(code=code, sigma=1.0, d_star=3, trials=trials, seed=1, work_limit=10**15)
        with pytest.raises(Built) if admitted else pytest.raises(ResourceLimitError, match="GB"):
            simulate(cfg, workers=workers)

    def test_config_validation(self):
        code = named_code("hamming_7_4")
        # sigma^2 underflows to 0 or overflows: the report's Eb/N0 would not be finite
        for sigma in (1e-200, 1e200):
            with pytest.raises(ValidationError, match="no finite Eb/N0"):
                SimConfig(code=code, sigma=sigma, d_star=2, trials=10, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(code=code, sigma=-1.0, d_star=2, trials=10, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(code=code, sigma=1.0, d_star=9, trials=10, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(code=code, sigma=1.0, d_star=2, trials=0, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(code=code, sigma=1.0, d_star=2, trials=10, seed=2**64)
        with pytest.raises(ValidationError):
            simulate(SimConfig(code=code, sigma=1.0, d_star=2, trials=10, seed=1), workers=0)

    def test_config_takes_real_numbers_and_integers(self):
        # numpy scalars are stored as Python numbers: a float32 sigma keeps
        # its value, an int64 one becomes a float
        code = named_code("hamming_7_4")
        cfg = SimConfig(
            code=code, sigma=np.float32(0.8), d_star=np.int64(2), trials=np.int32(10),
            seed=np.uint64(2**64 - 1), work_limit=np.int64(10**6),
        )
        assert cfg.sigma == float(np.float32(0.8)) and type(cfg.sigma) is float
        assert (cfg.d_star, cfg.trials, cfg.seed) == (2, 10, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.d_star, cfg.trials, cfg.seed, cfg.work_limit))
        cfg = SimConfig(code=code, sigma=np.int64(1), d_star=2, trials=10, seed=1)
        assert cfg.sigma == 1.0 and type(cfg.sigma) is float
        report = simulate(cfg)
        assert report == simulate(SimConfig(code=code, sigma=1.0, d_star=2, trials=10, seed=1))

    @pytest.mark.parametrize(
        "field,value,message",
        [("sigma", True, "sigma must be a real number"),
         ("sigma", np.True_, "sigma must be a real number"),
         ("sigma", "0.8", "sigma must be a real number"),
         ("sigma", 1j, "sigma must be a real number"),
         ("sigma", 10**400, "sigma must be finite"),
         ("trials", 10.0, "trials must be an integer"),
         ("trials", True, "trials must be an integer"),
         ("d_star", np.float64(2), "d_star must be an integer"),
         ("seed", np.True_, "seed must be an integer"),
         ("work_limit", "1000", "work_limit must be an integer")],
        ids=["sigma_bool", "sigma_np_bool", "sigma_str", "sigma_complex", "sigma_huge_int",
             "trials_float", "trials_bool", "d_star_np_float", "seed_np_bool", "work_limit_str"],
    )
    def test_config_refuses_bools_and_non_numbers(self, field, value, message):
        kwargs = dict(code=named_code("hamming_7_4"), sigma=1.0, d_star=2, trials=10, seed=1)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=message):
            SimConfig(**kwargs)

    def test_long_code_matches_naive_oracle(self):
        # as one part, and split into three, whose third, positions 48 to 71,
        # crosses the 64-bit word boundary
        code = CODE_72_5
        cfg = SimConfig(code=code, sigma=2.6, d_star=28, trials=300, seed=99)
        y = _noise(cfg, [(0, cfg.trials)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and want["joint"]
        assert _layout(code).bounds == (0, 72)
        assert_counters(simulate(cfg), want)
        with split_small_codes():
            assert _layout(code).bounds == (0, 24, 48, 72)
            assert_counters(simulate(cfg), want)

    def test_class_tiles_match_full_codebook_oracle(self, monkeypatch):
        # at low SNR the scan reaches the big middle classes of [31, 18],
        # split into three parts; with 256-codeword tiles their largest
        # subclasses span many tiles
        monkeypatch.setattr(simulator, "_TILE", 256)
        code = LinearCode(31, 18, named_code("bch_31_21").rows[:18])
        assert _layout(code).bounds == (0, 10, 20, 31)
        sizes = np.concatenate([np.diff(offsets) for _, _, offsets in _layout(code).classes])
        assert sizes.max() > 8 * simulator._TILE
        cfg = SimConfig(code=code, sigma=1.0, d_star=9, trials=300, seed=17)
        y = _noise(cfg, [(0, cfg.trials)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and len(want["joint"]) > 3
        assert_counters(simulate(cfg), want)

    @pytest.mark.parametrize("split", [False, True], ids=["natural", "split"])
    @pytest.mark.parametrize(
        "code",
        [CODE_72_5, named_code("hamming_7_4"), named_code("bch_15_7"), sparse_code(100, 6, 3),
         sparse_code(400, 6, 4)],
        ids=["72_5", "7_4", "15_7", "100_6", "400_6"],
    )
    def test_layout_orders_messages_by_weight_and_part_weights(self, code, split):
        # every message sits in the subclass of its codeword's weight and
        # part weights; within a subclass messages ascend
        with split_small_codes() if split else contextlib.nullcontext():
            layout = _layout(code)
        bounds = layout.bounds
        assert len(bounds) - 1 == (3 if split and code.n <= 81 else 1)
        seen = []
        for d, weights, offsets in layout.classes:
            for s in range(weights.shape[1]):
                msgs = layout.msgs[offsets[s] : offsets[s + 1]].tolist()
                assert msgs == sorted(msgs) and msgs
                for msg in msgs:
                    word = encode(code, msg)
                    parts = [(word >> lo & ((1 << (hi - lo)) - 1)).bit_count()
                             for lo, hi in zip(bounds, bounds[1:])]
                    assert word.bit_count() == d and parts == weights[:, s].tolist()
                seen += msgs
        assert sorted(seen) == list(range(1, 1 << code.k))

    @pytest.mark.parametrize(
        "name,parts",
        [("hamming_7_4", 1), ("toy_10_5", 1), ("bch_15_7", 1), ("bch_31_21", 3),
         ("bch_31_26", 3)],
    )
    def test_subclass_sizes_sum_to_the_enumerated_spectrum(self, name, parts):
        # the layout's keys and enumeration's weights come from one sweep:
        # per weight d, the layout's subclass sizes add up to A_d.  Built
        # uncached, so bch_31_26's 400 MB layout goes when the test ends
        code = named_code(name)
        layout = _ClassLayout(code)
        assert len(layout.bounds) - 1 == parts
        sizes = np.zeros(code.n + 1)
        sizes[0] = 1  # the zero codeword, which no class lists
        for d, _, offsets in layout.classes:
            sizes[d] = np.diff(offsets).sum()
        assert sizes.tolist() == enumerate_spectrum(code).weight_spectrum().counts.tolist()

    @pytest.mark.parametrize("split", [False, True], ids=["natural", "split"])
    @pytest.mark.parametrize(
        "code,parts",
        [(LinearCode(31, 18, named_code("bch_31_21").rows[:18]), (3, 3)),
         (sparse_code(72, 16, 6), (1, 3)), (sparse_code(100, 16, 7), (1, 1))],
        ids=["31_18", "72_16", "100_16"],
    )
    def test_layout_order_matches_one_stable_sort(self, code, parts, split):
        # 2^16 and more codewords fill several 2^14-codeword chunks, which
        # the counting sort places chunk by chunk; the codewords of [72, 16]
        # and [100, 16] span two 64-bit words
        assert code.k > _CHUNK_BITS
        with split_small_codes() if split else contextlib.nullcontext():
            layout = _layout(code)
        assert len(layout.bounds) - 1 == parts[split]
        assert layout.msgs.dtype == np.uint32
        np.testing.assert_array_equal(layout.msgs, layout_order(code, layout.bounds))

    @pytest.mark.parametrize(
        "n,k,parts",
        [(31, 21, 3), (31, 18, 3), (31, 17, 1), (24, 17, 3), (24, 16, 1), (81, 22, 3),
         (81, 21, 1), (82, 27, 1), (7, 4, 1), (65_535, 1, 1)],
    )
    def test_part_count_follows_n_and_k(self, n, k, parts):
        # 3 parts where (n+1) B^2 fits in 16 bits and 2^k fills it 48 times
        bounds, base = _part_bounds(n, k)
        assert len(bounds) - 1 == parts and bounds[0] == 0 and bounds[-1] == n
        assert base == (-(-n // 3) + 1 if parts == 3 else n + 1)
        assert max(hi - lo for lo, hi in zip(bounds, bounds[1:])) == -(-n // parts)

    @pytest.mark.parametrize(
        "code,split,parts,sigma",
        [(sparse_code(40, 7, 1), True, 3, 0.9), (sparse_code(100, 7, 2), True, 1, 0.9),
         (sparse_code(40, 7, 1), False, 1, 0.9), (sparse_code(400, 7, 5), False, 1, 0.9)],
        ids=["P3", "P1_long", "P1_sparse", "P1"],
    )
    def test_each_part_count_matches_oracle(self, monkeypatch, code, split, parts, sigma):
        # P = 3 only where the key fits (n <= 81), and by default only
        # where the codebook is dense; a split forced on a small code must
        # still match the oracle
        context = split_small_codes() if split else contextlib.nullcontext()
        monkeypatch.setattr(simulator, "_TILE", 5)
        monkeypatch.setattr(simulator, "_SCAN_CELLS", 50)
        cfg = SimConfig(code=code, sigma=sigma, d_star=code.n // 4, trials=400, seed=23)
        y = _noise(cfg, [(0, cfg.trials)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["joint"]
        with context:
            assert len(_layout(code).bounds) - 1 == parts
            assert_counters(simulate(cfg), want)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(code=small_codes(), sigma=st.floats(0.6, 1.6), seed=st.integers(0, 2**32 - 1))
    def test_split_pruning_matches_oracle(self, code, sigma, seed):
        # three parts forced on every code; tiny tiles and test chunks split
        # every subclass and every class test
        cfg = SimConfig(code=code, sigma=sigma, d_star=code.n // 2, trials=200, seed=seed)
        y = _noise(cfg, [(0, cfg.trials)])
        with split_small_codes(), pytest.MonkeyPatch.context() as mp:
            assert len(_layout(code).bounds) == 4
            mp.setattr(simulator, "_TILE", 3)
            mp.setattr(simulator, "_SCAN_CELLS", 40)
            report = simulate(cfg)
        assert_counters(report, ml_counters(code, y, cfg.d_star))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exact_ties_merge_across_tiles(self, monkeypatch, workers):
        # integer-valued received vectors make exact score ties common;
        # three-codeword tiles, 20-row score blocks and one-block superblocks
        # put the tied codewords in different tiles and classes
        def integer_noise(cfg, blocks):
            return np.concatenate([
                np.random.default_rng([cfg.seed, b]).integers(-2, 4, size=(size, cfg.code.n))
                for b, size in blocks
            ]).astype(np.float64)

        monkeypatch.setattr(simulator, "_noise", integer_noise)
        monkeypatch.setattr(simulator, "_TILE", 3)
        monkeypatch.setattr(simulator, "_SCAN_CELLS", 60)
        monkeypatch.setattr(simulator, "_SUPERBLOCK", 1)
        code = named_code("bch_15_7")
        cfg = SimConfig(code=code, sigma=1.0, d_star=7, trials=BLOCK + 500, seed=5)
        y = integer_noise(cfg, [(0, BLOCK), (1, 500)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["ties"] > 100 and want["word_errors"] > 100 and want["joint"]
        assert_counters(simulate(cfg, workers=workers), want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exact_ties_merge_across_subclasses(self, monkeypatch, split_layout, workers):
        # the same ties with bch_15_7 split into three parts: tied codewords
        # also sit in different subclasses of one class
        assert len(_layout(named_code("bch_15_7")).bounds) == 4
        self.test_exact_ties_merge_across_tiles(monkeypatch, workers)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_layout_rss_matches_guard_estimate(self):
        # the [31, 18] layout build: 6.5 MiB by the guard's count
        ratio = fresh_peak_ratio(
            "_layout(code)",
            "_layout_bytes(code)",
            "from mlbounds.simulator import _layout, _layout_bytes",
        )
        assert 0.9 <= ratio <= 1.15

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_low_snr_run_rss_within_guard(self):
        # at sigma = 1.2 with d* = n nearly every class is scanned for every
        # trial: the layout build and the scan together stay within the count
        ratio = fresh_peak_ratio(
            "simulate(SimConfig(code=code, sigma=1.2, d_star=31, trials=2048, seed=1))",
            "_layout_bytes(code) + _scan_bytes(code, 2048)",
            "from mlbounds.simulator import SimConfig, _layout_bytes, _scan_bytes, simulate",
        )
        assert 0.5 <= ratio <= 1.0

    def test_seed_changes_counters(self):
        base = dict(code=named_code("hamming_7_4"), sigma=1.0, d_star=2, trials=3000)
        a = simulate(SimConfig(seed=1, **base))
        b = simulate(SimConfig(seed=2, **base))
        assert a.word_errors != b.word_errors or a.bit_errors != b.bit_errors


@pytest.mark.skipif(_openblas_threads() is None, reason="needs numpy's bundled OpenBLAS")
class TestBlasThreads:
    def test_workers_share_the_cores_and_restore_the_count(self, monkeypatch):
        get, put = _openblas_threads()
        old = get()
        seen = []
        run = simulator._run_superblock

        def recording(*args):
            seen.append(get())
            return run(*args)

        monkeypatch.setattr(simulator, "_run_superblock", recording)
        monkeypatch.setattr(simulator, "_usable_cores", lambda: 8)
        put(8)
        try:
            cfg = SimConfig(code=named_code("hamming_7_4"), sigma=1.0, d_star=2, trials=10, seed=1)
            simulate(cfg, workers=2)
            assert seen == [4] and get() == 8
            put(3)  # a lower count is never raised
            simulate(cfg, workers=2)
            assert seen == [4, 3] and get() == 3
        finally:
            put(old)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs an affinity mask")
    def test_share_counts_the_allowed_cores_not_the_host(self, monkeypatch):
        # 2 cores allowed on a 64-core host: 2 workers run one thread each
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1})
        assert simulator._usable_cores() == 2
        get, put = _openblas_threads()
        old = get()
        seen = []
        run = simulator._run_superblock

        def recording(*args):
            seen.append(get())
            return run(*args)

        monkeypatch.setattr(simulator, "_run_superblock", recording)
        put(2)
        try:
            cfg = SimConfig(code=named_code("hamming_7_4"), sigma=1.0, d_star=2, trials=10, seed=1)
            simulate(cfg, workers=2)
            assert seen == [1] and get() == 2
        finally:
            put(old)

    def test_overlapping_runs_restore_the_first_count(self):
        # A lowers 8 to 4, B lowers 4 to 2, A ends while B runs: the count
        # stays at B's 2 until B ends, then returns to 8
        get, put = _openblas_threads()
        old = get()
        put(8)
        try:
            a, b = _blas_threads_at_most(4), _blas_threads_at_most(2)
            a.__enter__()
            assert get() == 4
            b.__enter__()
            assert get() == 2
            a.__exit__(None, None, None)
            assert get() == 2
            b.__exit__(None, None, None)
            assert get() == 8
        finally:
            put(old)
