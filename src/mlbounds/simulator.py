"""Monte Carlo validation harness: BPSK over AWGN with exact ML decoding.

The all-zero codeword is transmitted throughout (error probability of a
linear code on this channel does not depend on the transmitted word), so a
codeword c beats the transmitted one exactly when its support score
S(c) = sum_{t in supp(c)} y_t goes negative, and an ML word error happens
when min_c S(c) < 0.  A tie S(c) = 0 resolves to the smallest message
index, i.e. the transmitted word when it participates.

The batch engine does not score all 2^k codewords per trial.  Sorting y
ascending gives prefix sums LB(d) = sum of the d smallest samples, a lower
bound on every weight-d score.  Splitting the n positions into P contiguous
parts gives a tighter one: a codeword of weight d_i in part i scores at
least sum_i LB_i(d_i), where LB_i(j) is the sum of the j smallest samples of
part i and LB_i(0) = 0, and that sum is never below LB(d).  The codebook is
sorted into subclasses of equal weight and part weights, and a subclass is
scanned (vectorized over the trials that need it) only where LB(d) <= 0 and
its part bound <= 0.  The pruning is exact: a skipped codeword scores above
0, the transmitted word's score, so it cannot be a winner, a tie or an
error.  P is 3 where the sort key fits in 16 bits and the codebook fills
its subclasses densely enough for the tighter bound to repay their tests,
else 1, the plain weight classes (_part_bounds).  The keys come from the
chunk sweep that enumeration uses (spectrum._sweep), and the sort is a
counting sort over the 16-bit key, so it needs no index array of the whole
codebook: the layout build peaks near 6 bytes per codeword, the key and the
message order.  A scan looks up one small tile of codewords at a time in the
codebook's two XOR tables and expands it into 0/1 floats, so neither a copy
nor a score matrix of the whole codebook exists.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import operator
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .spectrum import _CHUNK_BITS, LinearCode, _codebook, _codebook_bytes, _sweep

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
        # numpy scalars are kept as Python numbers, so that products of the
        # fields neither round in float32 nor wrap at 64 bits
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
            raise ValidationError(f"sigma must be a real number, got {self.sigma!r}")
        try:
            object.__setattr__(self, "sigma", float(self.sigma))
        except OverflowError:  # an int beyond the float range
            object.__setattr__(self, "sigma", math.inf)
        for name in ("d_star", "trials", "seed", "work_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be finite and > 0, got {self.sigma!r}")
        # the report's Eb/N0 is -10 log10 of this product
        rate = self.code.rate
        if not 0.0 < 2.0 * rate * self.sigma * self.sigma < math.inf:
            raise ValidationError(f"sigma = {self.sigma!r} gives no finite Eb/N0 at rate {rate!r}")
        if not 0 <= self.d_star <= self.code.n:
            raise ValidationError(f"need 0 <= d_star <= n, got {self.d_star}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.work_limit < 1:
            raise ValidationError(f"work_limit must be >= 1, got {self.work_limit}")
        if self.code.n > 65_535:  # the codebook layout keeps its sort key as uint16
            raise ValidationError(f"simulation needs n <= 65,535, got n={self.code.n}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def wilson_interval(successes: float, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for successes out of trials, each in [0, 1], clamped
    to lo <= successes/trials <= hi, so it ends at exactly 0 or 1 where the rate does."""
    if trials <= 0:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValidationError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, min(p_hat, center - half)), min(1.0, max(p_hat, center + half)))


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
        # over trials, as bits err in bursts: X/k in [0, 1] has var <= mu (1 - mu)
        return wilson_interval(self.bit_errors / self.k, self.trials)

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


# the part split pays only where a subclass holds many codewords: below this
# many codewords per possible key, scanning whole weight classes was faster
# in timing runs on random codes of n = 24 to 200 and k = 7 to 22
_CODEWORDS_PER_KEY = 48


def _part_bounds(n: int, k: int) -> tuple[tuple[int, ...], int]:
    """The start of each of the P contiguous parts of the n positions, then
    n; and the base B = ceil(n/P) + 1 of the layout's sort key.

    A codeword's weight d and its weights in parts 1..P-1, as digits of base
    B, make a key below (n+1) B^(P-1).  P is 3 where that key fits in 16
    bits (n <= 81) and the 2^k codewords fill at least _CODEWORDS_PER_KEY
    per possible key; otherwise P is 1 and the key is the weight alone.
    Part sizes differ by at most 1.
    """
    base = -(-n // 3) + 1
    keys = (n + 1) * base * base
    if keys > 1 << 16 or keys * _CODEWORDS_PER_KEY > 1 << k:
        return (0, n), n + 1
    return tuple(i * n // 3 for i in range(4)), base


class _ClassLayout:
    """The codebook's two XOR tables, ordered by weight and part weights.

    low and high are spectrum._codebook's tables of ceil(n/64) uint64 words.
    bounds splits the n positions into the P parts of _part_bounds.  msgs
    lists the message indices sorted by the key (d, d_1, ..., d_{P-1}) of
    codeword weight d and part weights d_i; within a subclass of one key
    they stay ascending (a counting sort, which places each chunk in turn),
    so a first-occurrence argmin over any slice of a subclass is also the
    smallest-message tie-break within it.  The build reads the keys twice:
    spectrum._sweep yields each key chunk, which is stored and counted into
    the subclass sizes in one pass, and the sort then reads each stored
    chunk once.
    classes holds (d, weights, offsets) of each nonempty class d >= 1:
    weights[i] lists the part-i weight of each of its subclasses, which run
    over msgs[offsets[s] : offsets[s + 1]]; with P = 1 each class is one
    subclass.  The scans look up codewords in the tables and expand them
    into 0/1 floats one tile at a time (_tile_bits).
    """

    def __init__(self, code: LinearCode):
        self.low, self.high = _codebook(code)
        self.bounds, base = _part_bounds(code.n, code.k)
        splits = len(self.bounds) - 2
        step = len(self.low)
        key = np.empty(step * len(self.high), dtype=np.uint16)
        sizes = np.zeros((code.n + 1) * base**splits, dtype=np.int64)
        for t, chunk in enumerate(_sweep(code.n, self.low, self.high, self.bounds, base)):
            key[t * step : (t + 1) * step] = chunk
            sizes += np.bincount(chunk, minlength=sizes.size)  # copies the chunk as int64

        # distribution counting (Knuth, TAOCP 5.2): subclass v fills
        # msgs[cursor[v] : ...] chunk by chunk in message order, and each
        # chunk's stable sort lists its messages of key v in ascending order
        self.msgs = np.empty(key.size, dtype=np.uint32)
        cursor = np.cumsum(sizes) - sizes
        ranks, packed = np.arange(step, dtype=np.uint32), np.empty(step, dtype=np.uint32)
        for lo in range(0, key.size, step):
            chunk = key[lo : lo + step]
            counts = np.bincount(chunk, minlength=sizes.size)
            # entry i as key << 14 | i: sorting these distinct values sorts
            # the chunk stably by key, and the low bits give back i
            np.left_shift(chunk, _CHUNK_BITS, out=packed, dtype=np.uint32)
            packed |= ranks
            packed.sort()
            packed &= step - 1
            packed += lo
            # sorted entry r, the (r - first[v])-th of its key v, goes to
            # cursor[v] + r - first[v]
            first = np.cumsum(counts) - counts
            dest = np.repeat(cursor - first, counts)
            dest += ranks
            self.msgs[dest] = packed
            cursor += counts
        del key

        keys = np.flatnonzero(sizes)[1:]  # key 0 holds the zero codeword alone
        stops = np.cumsum(sizes)[keys]
        starts = stops - sizes[keys]
        d, *digits = np.unravel_index(keys, (code.n + 1, *[base] * splits))
        weights = np.array([d - sum(digits), *digits])
        firsts = np.flatnonzero(np.diff(d, prepend=0)).tolist()  # d ascends from 1
        self.classes = [
            (int(d[lo]), weights[:, lo:hi], np.append(starts[lo:hi], stops[hi - 1]))
            for lo, hi in zip(firsts, [*firsts[1:], len(keys)])
        ]


@lru_cache(maxsize=1)
def _layout(code: LinearCode) -> _ClassLayout:
    return _ClassLayout(code)


def _tile_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """0/1 float64 matrix of codeword rows given as uint64 words."""
    packed = rows.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.float64)


# codewords per expanded tile, noise blocks per superblock (the scan expands
# each tile once per superblock) and the cap on the trials x codewords score
# cells of one matmul; small tiles and score blocks stay in cache.  At
# [31,21] these keep a scan's buffers 5 MB below those of 16 blocks and 2^18
# cells; a 2 dB run of 20 blocks expands its tiles in 3 superblocks, not 2,
# and took 3-12 % longer, a 5 dB run about as long (2-core VM)
_TILE = 1 << 11
_SUPERBLOCK = 8
_SCAN_CELLS = 1 << 17


def _layout_bytes(code: LinearCode) -> int:
    """Peak bytes of building _layout(code): the two XOR tables plus the
    largest of three phases.  The sweep holds its own buffers
    (_codebook_bytes), the uint16 key (2 per codeword), per chunk row
    bincount's int64 copy of the chunk (8) and per possible key the sizes
    and a chunk's counts (16).  The counting sort, which reads each key
    chunk a second time, holds the key and msgs (6 per codeword); per chunk
    row the packed keys, the ranks, the previous chunk's destinations and
    bincount's copy (24); and per possible key the sizes, the cursors and
    two chunks' counts and first entries (40).  The class list holds msgs
    (4 per codeword) and at most 11 int64 arrays over the possible keys
    (88)."""
    bounds, base = _part_bounds(code.n, code.k)
    rows, codewords = 1 << min(code.k, _CHUNK_BITS), 1 << code.k
    keys = (code.n + 1) * base ** (len(bounds) - 2)
    tables, sweep = _codebook_bytes(code, bounds, base)
    phases = (
        sweep + 2 * codewords + 8 * rows + 16 * keys,
        6 * codewords + 24 * rows + 40 * keys,
        4 * codewords + 88 * keys,
    )
    return tables + max(phases)


def _scan_bytes(code: LinearCode, trials: int) -> int:
    """Peak bytes of one superblock scan of m trials.  Per sample: the noise
    (8), each class's candidate mask (at most 1), and the prefix sums or,
    once they are freed, the part prefix sums (8).  With P = 3, per trial:
    one part's gathered samples (8 per position of the largest part), the
    part sums' leading zeros (8 per part), the row map, a class's candidate
    indices and their rows (24), two masks (2) and a class's subclass tests
    (1 per subclass, at most the product of |part i| + 1 over parts i >= 1).
    With P = 1 there are no part sums, and a class's scan buffers (under 40
    per trial) fit in the room the freed prefix sums leave.  One tile: its
    two uint32 table indices, two gathers of words and their XOR, unpacked
    bytes and floats.  One score block with the copy and mask of its tie
    rows (17 per cell), or one chunk of subclass bounds with its gathered
    terms (16 per cell).  glibc's malloc may keep up to twice the largest
    freed block mapped, the noise or a score block: 16 more each."""
    n, words = code.n, (code.n + 63) // 64
    bounds, _ = _part_bounds(n, code.k)
    per_trial = 33 * n
    if len(bounds) > 2:
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        subclasses = math.prod(size + 1 for size in sizes[1:])
        per_trial += 8 * (max(sizes) + len(sizes)) + 26 + subclasses
    m = min(trials, _SUPERBLOCK * BLOCK)
    return m * per_trial + _TILE * (8 + 24 * words + 9 * n) + 33 * _SCAN_CELLS


def _noise(cfg: SimConfig, blocks: list[tuple[int, int]]) -> np.ndarray:
    """The received words of the blocks (index, size), stacked in order:
    block b's rows are drawn from Philox keyed (seed, b) into their slice."""
    stops = np.cumsum([size for _, size in blocks])
    y = np.empty((stops[-1], cfg.code.n))
    for (b, size), stop in zip(blocks, stops):
        key = np.array([cfg.seed, b], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=y[stop - size : stop])
    y *= cfg.sigma
    y += 1.0  # in place, rounding exactly like 1.0 + sigma * z
    return y


# --- batch engine ------------------------------------------------------------


def _subclass_hits(parts: list[np.ndarray], rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """hits[s, r] tells whether sum_i parts[i][rows[r], weights[i, s]] <= 0,
    computed for at most _SCAN_CELLS (r, s) cells at a time."""
    hits = np.empty((weights.shape[1], rows.size), dtype=bool)
    step = max(1, _SCAN_CELLS // weights.shape[1])
    for r in range(0, rows.size, step):
        at = rows[r : r + step, None]
        bound = parts[0][at, weights[0]]
        for part, w in zip(parts[1:], weights[1:]):
            bound += part[at, w]
        np.less_equal(bound.T, 0.0, out=hits[:, r : r + step])
    return hits


def _scan_class(layout, y, cand, hits, offsets, best, mult, best_msg, negative) -> None:
    """Score each subclass s of a class against the trials cand[hits[s]]
    and merge each trial's minimum into best, mult and best_msg; mark the
    trials where some codeword scores below 0 in negative.  A tile starts at
    the first codeword still to score and serves every subclass it covers."""
    scanned = np.flatnonzero(hits.any(axis=1))
    tile_lo = tile_hi = 0
    for s in scanned:
        rows = cand[hits[s]]
        lo, stop = offsets[s], offsets[s + 1]
        while lo < stop:
            if lo >= tile_hi:
                tile_lo, tile_hi = lo, min(lo + _TILE, offsets[scanned[-1] + 1])
                tile_msgs = layout.msgs[tile_lo:tile_hi]
                t, i = np.divmod(tile_msgs, len(layout.low))
                bits_t = _tile_bits(layout.low[i] ^ layout.high[t], y.shape[1]).T
            hi = min(stop, tile_hi)
            cols = slice(lo - tile_lo, hi - tile_lo)
            _score(y, rows, bits_t[:, cols], tile_msgs[cols], best, mult, best_msg, negative)
            lo = hi


def _score(y, cand, bits_t, msgs, best, mult, best_msg, negative) -> None:
    """Score the codewords bits_t (messages msgs) against the trials cand."""
    step = max(1, _SCAN_CELLS // msgs.size)
    for r in range(0, cand.size, step):
        rows = cand[r : r + step]
        scores = y[rows] @ bits_t
        col = np.argmin(scores, axis=1)
        tmin = scores[np.arange(rows.size), col]
        negative[rows] |= tmin < 0.0
        sel = np.nonzero(tmin <= best[rows])[0]
        if sel.size == 0:
            continue
        idx, tmin, msg = rows[sel], tmin[sel], msgs[col[sel]]
        count = np.count_nonzero(scores[sel] == tmin[:, None], axis=1)
        same = tmin == best[idx]
        mult[idx] = np.where(same, mult[idx] + count, count)
        best_msg[idx] = np.where(same, np.minimum(best_msg[idx], msg), msg)
        best[idx] = tmin


def _run_superblock(
    layout: _ClassLayout, cfg: SimConfig, blocks: list[tuple[int, int]]
) -> Counter:
    """SimReport's four counters over the blocks, keyed by field name and
    all present, plus each nonzero joint count under its weight d."""
    y = _noise(cfg, blocks)
    m = len(y)

    in_region = np.count_nonzero(y <= 0.0, axis=1) <= cfg.d_star
    counters = Counter(region_exits=int(m - np.count_nonzero(in_region)))

    # LB[:, d - 1] = sum of the d smallest samples: a lower bound on every
    # weight-d support score, so only trials with LB <= 0 can meet a winner
    lb = np.sort(y, axis=1)
    np.cumsum(lb, axis=1, out=lb)
    candidates = np.empty((len(layout.classes), m), dtype=bool)
    for mask, (d, _, _) in zip(candidates, layout.classes):
        np.less_equal(lb[:, d - 1], 0.0, out=mask)
    del lb

    # the same bound part by part, for the trials some class needs:
    # parts[i][r, j] = LB_i(j), the sum of the j smallest samples of part i;
    # with one part that is LB itself, so there is nothing to add
    parts = []
    if len(layout.bounds) > 2:
        needed = candidates.any(axis=0)
        row_of = np.cumsum(needed) - 1
        for lo, hi in zip(layout.bounds, layout.bounds[1:]):
            part = np.zeros((int(row_of[-1]) + 1, hi - lo + 1))
            part[:, 1:] = y[needed, lo:hi]
            part[:, 1:].sort(axis=1)
            np.cumsum(part[:, 1:], axis=1, out=part[:, 1:])
            parts.append(part)

    best = np.zeros(m)
    mult = np.ones(m, dtype=np.int64)  # transmitted word scores exactly 0
    best_msg = np.zeros(m, dtype=np.uint32)

    # a weight-d codeword with part weights d_i scores at least
    # sum_i LB_i(d_i) >= LB(d); the minimum, its multiplicity and its
    # smallest message merge the same way in any order, so each tile of a
    # subclass merges straight into them
    for mask, (d, weights, offsets) in zip(candidates, layout.classes):
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            continue
        if parts:
            hits = _subclass_hits(parts, row_of[cand], weights)
        else:  # the class is one subclass, whose bound LB(d) is <= 0
            hits = np.ones((1, cand.size), dtype=bool)
        negative = np.zeros(m, dtype=bool)
        _scan_class(layout, y, cand, hits, offsets, best, mult, best_msg, negative)
        errors_in_region = int(np.count_nonzero(negative & in_region))
        if errors_in_region:
            counters[d] = errors_in_region

    errors = best < 0.0
    counters["word_errors"] = int(np.count_nonzero(errors))
    counters["bit_errors"] = int(np.bitwise_count(best_msg[errors].astype(np.uint64)).sum())
    counters["ties"] = int(np.count_nonzero(mult >= 2))
    return counters


@lru_cache(maxsize=1)
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy carries no such library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# OpenBLAS's thread count belongs to the process: overlapping simulate calls
# share one saved count, restored when the last of them ends
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextmanager
def _blas_threads_at_most(limit: int):
    """Lower OpenBLAS's thread count to at most limit inside the block.  A
    lower count, or no bundled OpenBLAS, is left as it is; the count found
    by the first of overlapping blocks is restored when the last ends."""
    global _blas_users, _blas_saved
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, put = funcs
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
        _blas_users += 1
        if get() > limit:
            put(limit)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0 and get() != _blas_saved:
                put(_blas_saved)


def _usable_cores() -> int:
    """The cores this process may run on (its affinity mask), else the
    host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate(cfg: SimConfig, *, workers: int = 1) -> SimReport:
    """Run cfg.trials all-zero transmissions and aggregate exact counters.

    Noise for trial t comes from the Philox stream keyed (seed, t // BLOCK),
    so a trial's noise does not depend on the worker or trial count.  Workers
    split fixed superblocks of 8 blocks, so their count changes no matmul; a
    shorter final superblock changes matmul shapes, so equal counters across
    trial counts assume the BLAS rounds a score cell alike for every shape.
    OpenBLAS runs each worker's matmuls on at most its share of the usable
    cores; that thread count is the process's, so overlapping calls share it.
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
    # each worker's matmuls get an equal share of the cores
    threads = max(1, _usable_cores() // workers)
    with _blas_threads_at_most(threads), ThreadPoolExecutor(max_workers=workers) as pool:
        for counters in pool.map(lambda sb: _run_superblock(layout, cfg, sb), superblocks):
            total.update(counters)

    snr_db = -10.0 * math.log10(2.0 * code.rate * cfg.sigma * cfg.sigma)
    joint = {d: total.pop(d) for d in sorted(key for key in total if isinstance(key, int))}
    return SimReport(  # SimConfig holds Python numbers; total holds the four counters left
        n=code.n, k=code.k, sigma=cfg.sigma, snr_db=snr_db, d_star=cfg.d_star,
        trials=cfg.trials, seed=cfg.seed, joint_errors_by_weight=joint, **total,
    )
