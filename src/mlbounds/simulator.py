"""Monte Carlo validation harness: BPSK over AWGN with exact ML decoding.

The all-zero codeword is transmitted throughout (error probability of a
linear code on this channel does not depend on the transmitted word), so a
codeword c beats the transmitted one exactly when its support score
S(c) = sum_{t in supp(c)} y_t goes negative, and an ML word error happens
when min_c S(c) < 0.  A tie S(c) = 0 resolves to the smallest message
index, i.e. the transmitted word when it participates.

The batch engine does not score all 2^k codewords per trial.  Sorting y
ascending gives prefix sums LB(d) = sum of the d smallest samples, a lower
bound on every weight-d score, so only weight classes with LB(d) <= 0 can
contain a winner and only those are scanned (vectorized over the trials
that need them).  The pruning is exact: skipped classes provably have all
scores positive.  A scan looks up one small tile of codewords at a time in
the codebook's two XOR tables and expands it into 0/1 floats, so neither a
copy nor a score matrix of the whole codebook exists.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .spectrum import LinearCode, _codebook, _codebook_bytes, _weights

__all__ = [
    "BLOCK",
    "SimConfig",
    "SimReport",
    "wilson_interval",
    "simulate",
]

# trials per RNG block; the stream for block b is Philox(key=[seed, b]), so
# any worker partition of the blocks reproduces identical noise, and a
# partial final block is a prefix of the full block's stream
BLOCK = 1024

_WILSON_Z = 1.96  # 95% two-sided

# the counters SimReport gives a rate and a Wilson interval, by field stem
_RATED = ("word_error", "bit_error", "region_exit")


@dataclass(frozen=True)
class SimConfig:
    code: LinearCode
    sigma: float
    d_star: int
    trials: int
    seed: int
    work_limit: int = 400_000_000_000

    def __post_init__(self):
        if not (isinstance(self.sigma, (int, float)) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be finite and > 0, got {self.sigma!r}")
        # the report's Eb/N0 is -10 log10 of this product
        rate = self.code.rate
        if not 0.0 < 2.0 * rate * self.sigma * self.sigma < math.inf:
            raise ValidationError(f"sigma = {self.sigma!r} gives no finite Eb/N0 at rate {rate!r}")
        d_star = operator.index(self.d_star)
        if not 0 <= d_star <= self.code.n:
            raise ValidationError(f"need 0 <= d_star <= n, got {d_star}")
        if operator.index(self.trials) < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if operator.index(self.work_limit) < 1:
            raise ValidationError(f"work_limit must be >= 1, got {self.work_limit}")
        if self.code.n > 65_535:  # the codebook layout keeps weights as uint16
            raise ValidationError(f"simulation needs n <= 65,535, got n={self.code.n}")
        seed = operator.index(self.seed)
        if not 0 <= seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValidationError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimReport:
    """Aggregated counters of one simulation run with Wilson 95% CIs.

    joint_errors_by_weight[d] counts trials where some weight-d codeword
    beat the transmitted one AND the hard-decision word stayed within
    radius d_star (the joint events the combined bounds control);
    bit_errors totals information-bit errors across all trials.
    """

    n: int
    k: int
    sigma: float
    snr_db: float
    d_star: int
    trials: int
    seed: int
    word_errors: int
    bit_errors: int
    region_exits: int
    ties: int
    joint_errors_by_weight: dict[int, int]

    @property
    def word_error_rate(self) -> float:
        return self.word_errors / self.trials

    @property
    def word_error_ci(self) -> tuple[float, float]:
        return wilson_interval(self.word_errors, self.trials)

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / (self.trials * self.k)

    @property
    def bit_error_ci(self) -> tuple[float, float]:
        return wilson_interval(self.bit_errors, self.trials * self.k)

    @property
    def region_exit_rate(self) -> float:
        return self.region_exits / self.trials

    @property
    def region_exit_ci(self) -> tuple[float, float]:
        return wilson_interval(self.region_exits, self.trials)

    def to_dict(self) -> dict:
        """The JSON payload: every field plus each rate and its interval."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for stem in _RATED:
            payload[f"{stem}_rate"] = getattr(self, f"{stem}_rate")
            payload[f"{stem}_ci"] = list(getattr(self, f"{stem}_ci"))
        payload["joint_errors_by_weight"] = {
            str(d): c for d, c in sorted(self.joint_errors_by_weight.items())
        }
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"[{self.n},{self.k}] code, sigma={self.sigma!r} ({self.snr_db:.4f} dB Eb/N0), "
            f"d_star={self.d_star}, trials={self.trials}, seed={self.seed}"
        ]
        for stem in _RATED:
            lo, hi = getattr(self, f"{stem}_ci")
            lines.append(
                f"{stem.replace('_', ' ') + 's':<12}: {getattr(self, stem + 's')}  "
                f"rate={getattr(self, stem + '_rate'):.6e}  ci95=[{lo:.6e}, {hi:.6e}]"
            )
        lines.append(f"score ties  : {self.ties}")
        pairs = ", ".join(f"{d}:{c}" for d, c in sorted(self.joint_errors_by_weight.items()))
        lines.append(f"joint errors by competitor weight (within region): {pairs or 'none'}")
        return "\n".join(lines)


# --- weight-sorted codebook layout -------------------------------------------


class _ClassLayout:
    """The codebook's two XOR tables with its weight-sorted order.

    low and high are spectrum._codebook's tables of ceil(n/64) uint64 words.
    msgs lists the message indices sorted by Hamming weight; within a class
    they stay ascending (stable sort), so a first-occurrence argmin over any
    slice of a class is also the smallest-message tie-break within it;
    classes holds (d, start, stop) of each nonempty class d >= 1 in msgs.
    The scans look up codewords in the tables and expand them into 0/1
    floats one tile at a time (_tile_bits).
    """

    def __init__(self, code: LinearCode):
        self.low, self.high = _codebook(code)
        step = len(self.low)
        weights = np.empty(1 << code.k, dtype=np.uint16)
        for t, row in enumerate(self.high):
            weights[t * step : (t + 1) * step] = _weights(self.low ^ row)
        self.msgs = np.argsort(weights, kind="stable").astype(np.uint32)
        ends = np.cumsum(np.bincount(weights, minlength=code.n + 1)).tolist()
        self.classes = [(d, lo, hi) for d, (lo, hi) in enumerate(zip(ends, ends[1:]), 1) if lo < hi]


@lru_cache(maxsize=1)
def _layout(code: LinearCode) -> _ClassLayout:
    return _ClassLayout(code)


def _tile_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """0/1 float64 matrix of codeword rows given as uint64 words."""
    packed = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.float64)


# codewords per expanded tile, noise blocks per superblock (the scan expands
# each tile once per superblock) and the cap on the trials x codewords score
# cells of one matmul; small tiles and score blocks stay in cache
_TILE = 1 << 11
_SUPERBLOCK = 16
_SCAN_CELLS = 1 << 18


def _layout_bytes(code: LinearCode) -> int:
    """Peak bytes of building _layout(code): the two XOR tables and one
    chunk XORed from them (8 per word), and per codeword the uint16 weights
    and the stable argsort's int64 indices with its equal-size scratch
    buffer; msgs (4) is made after that buffer is freed."""
    return _codebook_bytes(code) + 18 * (1 << code.k)


def _scan_bytes(code: LinearCode, trials: int) -> int:
    """Peak bytes of one superblock scan: the noise with its hard-decision
    mask and prefix sums (17 per sample), one tile as its two uint32 table
    indices, two gathers of words and their XOR, unpacked bytes and floats,
    and one score block with the copy and mask of its tie rows (17 per
    cell).  glibc's malloc may keep up to twice the largest freed block
    mapped, the noise or a score block: 16 more each."""
    n, words = code.n, (code.n + 63) // 64
    samples = min(trials, _SUPERBLOCK * BLOCK) * n
    return 33 * samples + _TILE * (8 + 24 * words + 9 * n) + 33 * _SCAN_CELLS


def _noise_block(seed: int, block_index: int, m: int, n: int, sigma: float) -> np.ndarray:
    key = np.array([seed, block_index], dtype=np.uint64)
    y = np.random.Generator(np.random.Philox(key=key)).standard_normal((m, n))
    y *= sigma
    y += 1.0  # in place, rounding exactly like 1.0 + sigma * z
    return y


# --- batch engine ------------------------------------------------------------


def _run_superblock(
    layout: _ClassLayout, cfg: SimConfig, blocks: list[tuple[int, int]]
) -> Counter:
    """SimReport's four counters over the blocks, keyed by field name and
    all present, plus each nonzero joint count under its weight d."""
    n = cfg.code.n
    y = np.concatenate([_noise_block(cfg.seed, b, size, n, cfg.sigma) for b, size in blocks])
    m = len(y)

    in_region = np.count_nonzero(y <= 0.0, axis=1) <= cfg.d_star
    counters = Counter(region_exits=int(m - np.count_nonzero(in_region)))

    # LB[:, d] = sum of the d smallest samples: lower bound on every
    # weight-d support score, exact pruning criterion
    lb = np.sort(y, axis=1)
    np.cumsum(lb, axis=1, out=lb)

    best = np.zeros(m)
    mult = np.ones(m, dtype=np.int64)  # transmitted word scores exactly 0
    best_msg = np.zeros(m, dtype=np.uint32)

    # the minimum, its multiplicity and its smallest message merge the same
    # way in any order, so each tile of a class merges straight into them
    for d, start, stop in layout.classes:
        cand = np.nonzero(lb[:, d - 1] <= 0.0)[0]
        if cand.size == 0:
            continue
        negative = np.zeros(cand.size, dtype=bool)
        for lo in range(start, stop, _TILE):
            tile_msgs = layout.msgs[lo : min(lo + _TILE, stop)]
            t, m = np.divmod(tile_msgs, len(layout.low))
            bits_t = _tile_bits(layout.low[m] ^ layout.high[t], n).T
            step = max(1, _SCAN_CELLS // tile_msgs.size)
            for r in range(0, cand.size, step):
                rows = cand[r : r + step]
                scores = y[rows] @ bits_t
                col = np.argmin(scores, axis=1)
                tmin = scores[np.arange(rows.size), col]
                negative[r : r + step] |= tmin < 0.0
                sel = np.nonzero(tmin <= best[rows])[0]
                if sel.size == 0:
                    continue
                idx, tmin, msg = rows[sel], tmin[sel], tile_msgs[col[sel]]
                count = np.count_nonzero(scores[sel] == tmin[:, None], axis=1)
                same = tmin == best[idx]
                mult[idx] = np.where(same, mult[idx] + count, count)
                best_msg[idx] = np.where(same, np.minimum(best_msg[idx], msg), msg)
                best[idx] = tmin
        errors_in_region = int(np.count_nonzero(negative & in_region[cand]))
        if errors_in_region:
            counters[d] = errors_in_region

    errors = best < 0.0
    counters["word_errors"] = int(np.count_nonzero(errors))
    counters["bit_errors"] = int(np.bitwise_count(best_msg[errors].astype(np.uint64)).sum())
    counters["ties"] = int(np.count_nonzero(mult >= 2))
    return counters


def simulate(cfg: SimConfig, *, workers: int = 1) -> SimReport:
    """Run cfg.trials all-zero transmissions and aggregate exact counters.

    Noise for trial t comes from the Philox stream keyed (seed, t // BLOCK),
    so a trial's noise does not depend on the worker or trial count.  Workers
    split fixed superblocks of 16 blocks, so their count changes no matmul; a
    shorter final superblock changes matmul shapes, so equal counters across
    trial counts assume the BLAS rounds a score cell alike for every shape.
    """
    workers = operator.index(workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    code = cfg.code
    work = (1 << code.k) * cfg.trials
    if work > cfg.work_limit:
        raise ResourceLimitError(
            f"2^k * trials = {work:.3e} exceeds the work limit {cfg.work_limit:.3e}; "
            "raise work_limit only for deliberate long runs"
        )
    # malloc may keep the build's freed transients mapped, so the peaks add
    footprint = _layout_bytes(code) + workers * _scan_bytes(code, cfg.trials)
    if footprint > 3_500_000_000:
        raise ResourceLimitError(f"codebook tables would need ~{footprint / 1e9:.1f} GB")
    layout = _layout(code)

    starts = range(0, cfg.trials, BLOCK)
    blocks = [(lo // BLOCK, min(BLOCK, cfg.trials - lo)) for lo in starts]
    superblocks = [blocks[lo : lo + _SUPERBLOCK] for lo in range(0, len(blocks), _SUPERBLOCK)]
    total = Counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for counters in pool.map(lambda sb: _run_superblock(layout, cfg, sb), superblocks):
            total.update(counters)

    snr_db = -10.0 * math.log10(2.0 * code.rate * cfg.sigma * cfg.sigma)
    joint = {d: total.pop(d) for d in sorted(key for key in total if isinstance(key, int))}
    return SimReport(
        n=code.n,
        k=code.k,
        sigma=float(cfg.sigma),
        snr_db=snr_db,
        d_star=int(cfg.d_star),
        trials=int(cfg.trials),
        seed=int(cfg.seed),
        joint_errors_by_weight=joint,
        **total,  # the four counters left
    )
