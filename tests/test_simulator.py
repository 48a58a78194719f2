"""Simulator tests.

The batch engine prunes weight classes and scans them in tiles; the oracle
(oracles.ml_counters) scores the public encoder's whole codebook against
every trial, and the two must agree counter by counter on the same noise.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import binomial_tail, ml_counters

from mlbounds import (
    LinearCode,
    ResourceLimitError,
    SimConfig,
    ValidationError,
    q_function,
    simulate,
    wilson_interval,
)
from mlbounds import simulator
from mlbounds.codes import bch_15_7, bch_31_21, hamming_7_4, repetition_code, toy_code_10_5
from mlbounds.simulator import BLOCK, _layout, _noise_block

# a [72, 5] code whose nonzero codewords all have bits in both 64-bit words
CODE_72_5 = LinearCode(
    72, 5, tuple((1 << j) | (0b1011 << (62 + j)) | (0xF0F0F << (20 + 3 * j)) for j in range(5))
)


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
    script = f"""
import numpy.random
{imports}
from mlbounds.codes import bch_31_21
from mlbounds.spectrum import LinearCode

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

code = LinearCode(31, 18, bch_31_21().rows[:18])
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


class TestSimulateEngine:
    def test_matches_trialwise_reference(self):
        code = hamming_7_4()
        cfg = SimConfig(code=code, sigma=1.0, d_star=2, trials=700, seed=424242)
        y = _noise_block(cfg.seed, 0, cfg.trials, code.n, cfg.sigma)
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and want["joint"]
        assert_counters(simulate(cfg), want)

    def test_bit_reproducible_and_worker_invariant(self):
        cfg = SimConfig(code=toy_code_10_5(), sigma=0.9, d_star=3, trials=2500, seed=7)
        a = simulate(cfg)
        b = simulate(cfg)
        c = simulate(cfg, workers=3)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_trial_accounting_and_report_shape(self):
        cfg = SimConfig(code=hamming_7_4(), sigma=1.2, d_star=3, trials=1500, seed=11)
        report = simulate(cfg)
        assert report.trials == 1500
        assert 0 <= report.word_errors <= report.trials
        lo, hi = report.word_error_ci
        assert lo <= report.word_error_rate <= hi
        payload = json.loads(report.to_json())
        assert payload["word_errors"] == report.word_errors
        assert "joint_errors_by_weight" in payload
        assert "word errors" in report.to_text()

    def test_noiseless_limit(self):
        cfg = SimConfig(code=hamming_7_4(), sigma=0.05, d_star=3, trials=400, seed=3)
        report = simulate(cfg)
        assert report.word_errors == 0
        assert report.ties == 0

    def test_region_exit_matches_binomial_tail(self):
        sigma, d_star, trials = 0.8, 1, 40000
        cfg = SimConfig(code=hamming_7_4(), sigma=sigma, d_star=d_star, trials=trials, seed=2718)
        report = simulate(cfg)
        p_b = float(q_function(1.0 / sigma))
        expected = binomial_tail(p_b, 7, d_star + 1, 7)
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(report.region_exit_rate - expected) <= 3.0 * se

    def test_joint_counts_dominate_word_errors_in_region(self):
        # every in-region word error trips at least one per-weight event,
        # and the union over weights may double-count
        cfg = SimConfig(code=toy_code_10_5(), sigma=1.1, d_star=4, trials=4000, seed=55)
        report = simulate(cfg)
        total_joint = sum(report.joint_errors_by_weight.values())
        assert total_joint >= report.word_errors - report.region_exits
        assert total_joint > 0

    def test_config_refuses_long_codes_and_bad_work_limit(self):
        # the layout keeps weights as uint16; a config alone builds no layout
        with pytest.raises(ValidationError, match="n <= 65,535"):
            SimConfig(code=repetition_code(70_000), sigma=300.0, d_star=70_000, trials=200, seed=1)
        SimConfig(code=repetition_code(65_535), sigma=300.0, d_star=65_535, trials=200, seed=1)
        for limit in (0, -5):
            with pytest.raises(ValidationError, match="work_limit must be >= 1"):
                SimConfig(code=hamming_7_4(), sigma=1.0, d_star=3, trials=10, seed=1, work_limit=limit)

    def test_guards(self):
        # the codebook of a k = 28 code alone counts 2^28 * 18 bytes, ~4.8 GB
        code = LinearCode(28, 28, tuple(1 << j for j in range(28)))
        with pytest.raises(ResourceLimitError, match="GB"):
            simulate(SimConfig(code=code, sigma=1.0, d_star=3, trials=10, seed=1))
        code = toy_code_10_5()
        with pytest.raises(ResourceLimitError):
            simulate(SimConfig(code=code, sigma=1.0, d_star=3, trials=10**9, seed=1, work_limit=10**6))

    @pytest.mark.parametrize(
        "n,trials,workers,admitted",
        [(27, 1000, 107, True), (27, 1000, 108, False), (10_000, 2521, 1, True),
         (10_000, 2522, 1, False), (10_000, 1000, 2, False)],
    )
    def test_footprint_guard_limits_k_27(self, monkeypatch, n, trials, workers, admitted):
        # a k = 27 codebook counts 2^27 * 18 bytes and its tables, ~2.42 GB at
        # n = 27 and ~2.47 GB at n = 10,000; that leaves 107 workers of about
        # 10 MB of scan buffers at n = 27, or one worker of up to 2,521 trials
        # at n = 10,000, within the 3.5 GB limit
        class Built(Exception):
            pass

        def unbuilt(code):
            raise Built

        monkeypatch.setattr(simulator, "_layout", unbuilt)
        code = LinearCode(n, 27, tuple(1 << j for j in range(27)))
        cfg = SimConfig(code=code, sigma=1.0, d_star=3, trials=trials, seed=1)
        with pytest.raises(Built if admitted else ResourceLimitError):
            simulate(cfg, workers=workers)

    def test_config_validation(self):
        code = hamming_7_4()
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

    def test_long_code_matches_naive_oracle(self):
        code = CODE_72_5
        cfg = SimConfig(code=code, sigma=2.6, d_star=28, trials=300, seed=99)
        y = _noise_block(cfg.seed, 0, cfg.trials, code.n, cfg.sigma)
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and want["joint"]
        assert_counters(simulate(cfg), want)

    def test_class_tiles_match_full_codebook_oracle(self):
        # at low SNR the scan reaches the big middle classes of [31, 18],
        # each spread over many tiles
        code = LinearCode(31, 18, bch_31_21().rows[:18])
        sizes = [stop - start for _, start, stop in _layout(code).classes]
        assert max(sizes) > 8 * simulator._TILE
        cfg = SimConfig(code=code, sigma=1.0, d_star=9, trials=300, seed=17)
        y = _noise_block(cfg.seed, 0, cfg.trials, code.n, cfg.sigma)
        want = ml_counters(code, y, cfg.d_star)
        assert want["word_errors"] and want["region_exits"] and len(want["joint"]) > 3
        assert_counters(simulate(cfg), want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exact_ties_merge_across_tiles(self, monkeypatch, workers):
        # integer-valued received vectors make exact score ties common;
        # three-codeword tiles, 20-row score blocks and one-block superblocks
        # put the tied codewords in different tiles and classes
        def integer_noise(seed, block_index, m, n, sigma):
            rng = np.random.default_rng([seed, block_index])
            return rng.integers(-2, 4, size=(m, n)).astype(np.float64)

        monkeypatch.setattr(simulator, "_noise_block", integer_noise)
        monkeypatch.setattr(simulator, "_TILE", 3)
        monkeypatch.setattr(simulator, "_SCAN_CELLS", 60)
        monkeypatch.setattr(simulator, "_SUPERBLOCK", 1)
        code = bch_15_7()
        cfg = SimConfig(code=code, sigma=1.0, d_star=7, trials=BLOCK + 500, seed=5)
        y = np.concatenate([integer_noise(5, 0, BLOCK, 15, 1.0), integer_noise(5, 1, 500, 15, 1.0)])
        want = ml_counters(code, y, cfg.d_star)
        assert want["ties"] > 100 and want["word_errors"] > 100 and want["joint"]
        assert_counters(simulate(cfg, workers=workers), want)

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
        base = dict(code=hamming_7_4(), sigma=1.0, d_star=2, trials=3000)
        a = simulate(SimConfig(seed=1, **base))
        b = simulate(SimConfig(seed=2, **base))
        assert a.word_errors != b.word_errors or a.bit_errors != b.bit_errors
