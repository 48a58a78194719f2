"""Binary linear block codes and their weight spectra.

A code is a full-rank k x n generator matrix over GF(2); rows live as
integer bitmasks (bit t of a mask is column t) so encoding and enumeration
are single XORs.  One sweep (_sweep) yields each codeword's weight, or the
simulator layout's key, chunk by chunk: enumeration histograms the weights,
and the layout stores and counts each key chunk, then reads it once more
before its sort.  Weight spectra come in three kinds: exact multiplicities,
ensemble averages (real-valued), and truncated prefixes where only weights
up to some d_max are known.

Counts have one form from file to bound kernel: a read-only float64 array,
A_d at [d] or, in an input-output spectrum, A_{i,d} at [i, d], for every
weight up to the largest known one.  An array of more than 2^26 cells
(512 MiB) is refused with ResourceLimitError before it is allocated.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ResourceLimitError, ValidationError
from .numerics import log_factorials

__all__ = [
    "SpectrumKind",
    "LinearCode",
    "WeightSpectrum",
    "InputOutputSpectrum",
    "enumerate_spectrum",
    "macwilliams_transform",
    "ensemble_average",
    "load_spectrum",
    "format_spectrum",
    "load_generator",
]

_LN2 = math.log(2.0)


class SpectrumKind(enum.Enum):
    EXACT = "exact"
    ENSEMBLE_AVERAGE = "ensemble"
    TRUNCATED = "truncated"


def _gf2_rref(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    rows = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if (rows[i] >> c) & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@dataclass(frozen=True)
class LinearCode:
    """Binary [n, k] linear block code with a fixed (full-rank) encoder.

    rows[j] is the j-th generator row as a bitmask; message bit j toggles
    that row, so the encoder map is message -> XOR of selected rows.
    """

    n: int
    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = operator.index(self.n)
        k = operator.index(self.k)
        if not 1 <= k <= n:
            raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(self.rows) != k:
            raise ValidationError(f"expected {k} generator rows, got {len(self.rows)}")
        mask = (1 << n) - 1
        for j, row in enumerate(self.rows):
            if row & ~mask or row == 0:
                raise ValidationError(f"generator row {j} not a nonzero {n}-bit mask")
        _, pivots = _gf2_rref(list(self.rows), n)
        if len(pivots) != k:
            raise ValidationError(f"generator matrix has rank {len(pivots)}, need {k}")

    @property
    def rate(self) -> float:
        return self.k / self.n

    def dual(self) -> "LinearCode":
        """Generator of the [n, n-k] dual code (standard null-space basis)."""
        if self.k == self.n:
            raise ValidationError("an [n, n] code has a trivial dual with no generator rows")
        rref, pivots = _gf2_rref(list(self.rows), self.n)
        pivot_set = set(pivots)
        dual_rows = []
        for j in range(self.n):
            if j in pivot_set:
                continue
            h = 1 << j
            for i, p in enumerate(pivots):
                if (rref[i] >> j) & 1:
                    h |= 1 << p
            dual_rows.append(h)
        return LinearCode(self.n, self.n - self.k, tuple(dual_rows))


def _near_int(values: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    # beyond 2^52 a double has no fractional resolution left to check
    return (np.abs(values) >= 2.0**52) | (np.abs(values - np.round(values)) <= tol)


# The largest count array a spectrum may hold: 2^26 float64 cells, 512 MiB.
# The IOWE of a [8192,4096] code, 4097 x 8193 cells (268 MB), fits.
_MAX_CELLS = 2**26


def _guard_cells(cells: int, what: str) -> None:
    """Refuse, before it is allocated, work over more than _MAX_CELLS
    float64 cells; what names it, as in "a 3 x 8 count array holds"."""
    if cells > _MAX_CELLS:
        raise ResourceLimitError(
            f"{what} {cells:,} cells ({8 * cells:,} bytes), over the {_MAX_CELLS:,}-cell guard"
        )


def _count_shape(
    n: int, k: int, kind: SpectrumKind, truncation: int | None, iowe: bool
) -> tuple[int, ...]:
    """Check the k range, the kind/truncation pair and the array size of a
    spectrum; return the shape of its count array."""
    n = operator.index(n)
    k = operator.index(k)
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    if kind is SpectrumKind.TRUNCATED:
        if truncation is None or not 0 <= truncation:
            raise ValidationError("truncated spectra need a truncation radius >= 0")
    elif truncation is not None:
        raise ValidationError(f"{kind.value} spectra must not set a truncation")
    limit = n if truncation is None else min(n, truncation)
    shape = (k + 1, limit + 1) if iowe else (limit + 1,)
    _guard_cells(math.prod(shape), f"a {' x '.join(map(str, shape))} count array holds")
    return shape


def _refuse_first(counts: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise ValidationError naming the first count flagged in bad."""
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        raise ValidationError(f"count A{list(map(int, index))}={float(counts[index])!r} {rule}")


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """Fields, checks and equality of both spectrum types: counts is a
    read-only float64 copy of the array given, covering every weight up to
    max_known_weight; kind=TRUNCATED means only weights d <= truncation are
    known, while the other kinds describe the full range."""

    n: int
    k: int
    counts: np.ndarray
    kind: SpectrumKind
    truncation: int | None = None

    def __post_init__(self):
        iowe = isinstance(self, InputOutputSpectrum)
        shape = _count_shape(self.n, self.k, self.kind, self.truncation, iowe)
        counts = np.array(self.counts, dtype=np.float64)
        if counts.shape != shape:
            raise ValidationError(f"counts need shape {shape}, got {counts.shape}")
        _refuse_first(counts, ~(np.isfinite(counts) & (counts >= 0.0)), "must be finite and >= 0")
        if self.kind is SpectrumKind.EXACT:
            _refuse_first(counts, ~_near_int(counts), "must be an integer in an exact spectrum")
            total = float(counts.sum())
            if not math.isclose(total, 2.0**self.k, rel_tol=1e-6):
                raise ValidationError(f"exact spectrum sums to {total!r}, expected 2^{self.k}")
        # A_0, or A_{0,0} in an IOWE: the zero message and its zero codeword
        if self.kind is not SpectrumKind.TRUNCATED and counts.flat[0] != 1.0:
            raise ValidationError(f"{self.kind.value} spectrum needs A_0 = 1")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.k, self.kind, self.truncation) == (
            other.n, other.k, other.kind, other.truncation
        ) and np.array_equal(self.counts, other.counts)

    @property
    def max_known_weight(self) -> int:
        return self.n if self.truncation is None else min(self.n, self.truncation)


class WeightSpectrum(_Spectrum):
    """Weight multiplicities of an [n, k] code: counts[d] = A_d for d in
    [0, max_known_weight].  The exact and ensemble kinds need A_0 = 1."""

    def weights(self) -> np.ndarray:
        """Ascending positive weights with A_d > 0."""
        return np.flatnonzero(self.counts[1:]) + 1


class InputOutputSpectrum(_Spectrum):
    """Joint multiplicities of message weight i and codeword weight d under
    a fixed encoder for an [n, k] code: counts[i, d] = A_{i,d}, of shape
    (k+1, max_known_weight+1).  The exact and ensemble kinds need
    A_{0,0} = 1."""

    def weight_spectrum(self) -> WeightSpectrum:
        """Marginal over message weight: A_d = sum_i A_{i,d}, summed in
        ascending i."""
        marginal = np.zeros(self.counts.shape[1])
        for row in self.counts:
            marginal += row
        return WeightSpectrum(self.n, self.k, marginal, self.kind, self.truncation)


# message bits of the low XOR table: big enough to amortize the per-chunk
# numpy calls, small enough that a chunk's transients stay under a megabyte
# for n <= 64
_CHUNK_BITS = 14


def _as_words(mask: int, words: int) -> np.ndarray:
    """A bitmask as `words` little-endian uint64 words (bit t in word t // 64)."""
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")


def _codebook(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """The codebook as two XOR tables of ceil(n/64) uint64 words: low over
    the generator rows of the low min(k, 14) message bits, high over the
    rows above them.  Message t * len(low) + m encodes to low[m] ^ high[t],
    so chunk t of the codebook in message order is low ^ high[t]."""
    words = (code.n + 63) // 64
    rows = np.array([_as_words(row, words) for row in code.rows])
    split = min(code.k, _CHUNK_BITS)
    tables = []
    for part in (rows[:split], rows[split:]):
        table = np.zeros((1 << len(part), words), dtype=np.uint64)
        for j, row in enumerate(part):  # row m XORs the rows the bits of m select
            np.bitwise_xor(table[: 1 << j], row, out=table[1 << j : 2 << j])
        tables.append(table)
    return tables[0], tables[1]


def _key_type(n: int, bounds: tuple[int, ...] = (), base: int = 1) -> type:
    """The dtype of _sweep's keys: uint16 where every key, below
    (n+1) base^(P-1), fits in 16 bits, else uint32."""
    return np.uint16 if (n + 1) * base ** len(bounds[2:]) <= 1 << 16 else np.uint32


def _sweep(n: int, low: np.ndarray, high: np.ndarray, bounds: tuple[int, ...] = (), base: int = 1):
    """Yield the key of every codeword of chunk low ^ high[t] of
    _codebook's tables, for t = 0, 1, ...: its weight d or, given the
    bounds of P contiguous parts, (d * base + d_1) * base + d_2 ..., where
    d_i is its weight in part i >= 1.  Each chunk is XORed and counted into
    buffers reused from chunk to chunk, so a key array holds only until the
    next one is yielded."""
    words = low.shape[1]
    masks = [_as_words((1 << hi) - (1 << lo), words) for lo, hi in zip(bounds[1:], bounds[2:])]
    chunk, ones = np.empty_like(low), np.empty(low.shape, dtype=np.uint8)
    key = np.empty(len(low), dtype=_key_type(n, bounds, base))
    if masks:
        masked, part = np.empty_like(low), np.empty_like(key)
    for row in high:
        np.bitwise_xor(low, row, out=chunk)
        np.add.reduce(np.bitwise_count(chunk, out=ones), axis=1, out=key)
        for mask in masks:
            key *= base
            np.bitwise_and(chunk, mask, out=masked)
            np.add.reduce(np.bitwise_count(masked, out=ones), axis=1, out=part)
            key += part
        yield key


def _codebook_bytes(code: LinearCode, bounds: tuple[int, ...] = (), base: int = 1) -> tuple[int, int]:
    """Bytes of the two tables of _codebook(code), and of the buffers of a
    _sweep over them with these bounds and base: per chunk row the chunk
    (8 per word), its bit counts (1 per word) and its keys, and with P > 1
    the chunk masked to a part (8 per word) and a part's weights."""
    split, words = min(code.k, _CHUNK_BITS), (code.n + 63) // 64
    key = np.dtype(_key_type(code.n, bounds, base)).itemsize
    per_row = 9 * words + key + (8 * words + key if bounds[2:] else 0)
    return 8 * words * ((1 << split) + (1 << (code.k - split))), per_row << split


def enumerate_spectrum(code: LinearCode, *, max_k: int = 28) -> InputOutputSpectrum:
    """Exact IOWE by exhaustive message sweep, guarded by max_k.

    Each codebook chunk adds its (message weight, codeword weight) pairs to
    a (k+1) x (n+1) table with one bincount.
    """
    if max_k < 0:
        raise ValidationError(f"max_k must be >= 0, got {max_k}")
    if code.k > max_k:
        raise ResourceLimitError(
            f"enumeration over 2^{code.k} messages exceeds the k <= {max_k} guard"
        )
    n, k = code.n, code.k
    low, high = _codebook(code)
    # (n+1) times the message weight of each message within a chunk
    low_cells = np.bitwise_count(np.arange(len(low))).astype(np.int64) * (n + 1)
    table = np.zeros((k + 1) * (n + 1), dtype=np.int64)
    for t, weights in enumerate(_sweep(n, low, high)):
        # cell (message weight, codeword weight) of every message in chunk t
        cells = low_cells + weights
        cells += t.bit_count() * (n + 1)
        table += np.bincount(cells, minlength=table.size)
    return InputOutputSpectrum(n, k, table.reshape(k + 1, n + 1), SpectrumKind.EXACT)


def macwilliams_transform(dual_spectrum: WeightSpectrum) -> WeightSpectrum:
    """Weight spectrum of the primal [n, k] code from its [n, n-k] dual:
    A_j = 2^{k-n} sum_i A'_i K_j(i).

    Evaluated in exact integer arithmetic: the alternating Krawtchouk sums
    cancel catastrophically in doubles once n reaches high-rate sizes, while
    the integer sums are exactly divisible by 2^{n-k} for any dual spectrum
    that actually belongs to a code.  Inconsistent input (a negative or
    non-divisible transformed count) is rejected.

    K_j(i) is needed only where A'_i > 0, and the three-term recurrence
    (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i), from K_0 = 1 and
    K_1 = n-2i, walks j in O(n) exact integer steps per such i.
    """
    spec = dual_spectrum
    if spec.kind is not SpectrumKind.EXACT:
        raise ValidationError("transform needs an exact dual spectrum")
    n = spec.n
    k_dual = spec.k
    if k_dual == n:
        raise ValidationError("dual spectrum with k = n leaves no primal dimensions")
    sums = [0] * (n + 1)
    for i, c in enumerate(spec.counts.tolist()):
        a_i = round(c)
        if not a_i:
            continue
        prev, cur = 0, 1  # K_{-1}, K_0
        for j in range(n + 1):
            sums[j] += a_i * cur
            prev, cur = cur, ((n - 2 * i) * cur - (n - j + 1) * prev) // (j + 1)
    order = 1 << k_dual
    for j, s in enumerate(sums):
        if s < 0 or s % order:
            raise ValidationError(
                f"transformed count for weight {j} is {s}/{order}: dual spectrum inconsistent"
            )
    counts = [float(s // order) for s in sums]
    return WeightSpectrum(n, n - k_dual, counts, SpectrumKind.EXACT)


def ensemble_average(n: int, k: int) -> WeightSpectrum:
    """Average weight spectrum over the ensemble of [n, k] binary linear
    codes whose 2^k - 1 nonzero codewords are uniform over nonzero words:
    A_0 = 1 and A_d = C(n, d) (2^k - 1)/(2^n - 1) for d >= 1.

    Built in log space; C(100, 50) alone overflows any direct integer-free
    float path long before n reaches interesting sizes.  Where even the
    average overflows float64 (from n near 2100 at rate 1/2) the result is a
    TRUNCATED spectrum whose dmax is the last weight with a finite count:
    bounds then probe only d* <= dmax/2, union refuses it, and the bound
    stays valid but may be loose once d* sits at dmax/2.

    The log-factorials, log-binomials and averages peak near 5.0 float64
    arrays of n + 1 cells (tracemalloc, n = 1e5, 1e6 and 11,184,809); where
    6 such arrays would pass the count-array guard, ResourceLimitError is
    raised before any is allocated.
    """
    n = operator.index(n)
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    _guard_cells(6 * (n + 1), f"an [{n},{k}] ensemble average works through")
    lf = log_factorials(n)
    log_binom = lf[n] - lf[1:] - lf[n - 1 :: -1]  # log C(n, d) for d in [1, n]
    log_ratio = (k - n) * _LN2 + math.log1p(-(2.0**-k)) - math.log1p(-(2.0**-n))
    with np.errstate(over="ignore"):
        values = np.exp(log_binom + log_ratio)
    overflow = np.flatnonzero(np.isinf(values))  # index i is weight i + 1
    dmax = int(overflow[0]) if overflow.size else n
    counts = np.concatenate(([1.0], values[:dmax]))
    if dmax < n:
        return WeightSpectrum(n, k, counts, SpectrumKind.TRUNCATED, dmax)
    return WeightSpectrum(n, k, counts, SpectrumKind.ENSEMBLE_AVERAGE)


# --- text formats ---------------------------------------------------------
#
# Spectrum files: a header line then one record per line.
#
#   weight n=7 k=4 kind=exact          iowe n=7 k=4 kind=exact
#   0 1.0                              0 0 1.0
#   3 7.0                              1 3 3.0
#   ...                                ...
#
# kind is exact|ensemble|truncated; truncated headers carry dmax=<int>.
# '#' lines and blank lines are ignored.  Counts print via repr() so a
# format/load round trip is an identity.  Records are written in ascending
# order: an exact weight spectrum and every IOWE list their nonzero counts
# only, while an ensemble or truncated weight spectrum lists every weight in
# [0, max_known_weight], zeros included.  The reader takes records in any
# order and fills the counts a file omits with zeros.
#
# Generator files: a "n k" header line, then k rows of n characters in
# {0, 1}; row j, column t is the coefficient multiplying message bit j into
# code position t.

_KIND_TOKENS = {kind.value: kind for kind in SpectrumKind}


def _text_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes are refused with the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _content_lines(path: Path):
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(path: Path, lineno: int, line: str):
    tokens = line.split()
    tag = tokens[0]
    if tag not in ("weight", "iowe"):
        raise FileFormatError(f"{path}:{lineno}: expected 'weight' or 'iowe' header, got {tag!r}")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise FileFormatError(f"{path}:{lineno}: bad header token {token!r}")
        fields[key] = value
    try:
        n = int(fields.pop("n"))
        k = int(fields.pop("k"))
        kind = _KIND_TOKENS[fields.pop("kind")]
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}:{lineno}: header needs n=, k=, kind=: {exc}") from None
    truncation = None
    if kind is SpectrumKind.TRUNCATED:
        if "dmax" not in fields:
            raise FileFormatError(f"{path}:{lineno}: truncated spectra need dmax=")
        try:
            truncation = int(fields.pop("dmax"))
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: dmax must be an integer") from None
    if fields:
        raise FileFormatError(f"{path}:{lineno}: unknown header fields {sorted(fields)}")
    return tag, n, k, kind, truncation


def load_spectrum(path) -> WeightSpectrum | InputOutputSpectrum:
    """Read a spectrum file; the header tag picks the returned type.  The
    count array is sized from the header, and refused with
    ResourceLimitError before it is allocated if it would pass the cap."""
    path = Path(path)
    lines = _content_lines(path)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FileFormatError(f"{path}:1: empty spectrum file") from None
    tag, n, k, kind, truncation = _parse_header(path, lineno, line)
    cls = InputOutputSpectrum if tag == "iowe" else WeightSpectrum
    try:
        shape = _count_shape(n, k, kind, truncation, tag == "iowe")
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    arity = len(shape) + 1
    counts = np.zeros(shape)
    seen: set[tuple[int, ...]] = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != arity:
            raise FileFormatError(
                f"{path}:{lineno}: expected {arity} fields, got {len(parts)}"
            )
        try:
            key = tuple(int(p) for p in parts[:-1])
            value = float(parts[-1])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(0 <= index < size for index, size in zip(key, shape)):
            bounds = " x ".join(f"[0,{size - 1}]" for size in shape)
            raise FileFormatError(f"{path}:{lineno}: entry {key} outside {bounds}")
        if key in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate record for {key}")
        if not (math.isfinite(value) and value >= 0.0):
            raise FileFormatError(f"{path}:{lineno}: count must be finite and >= 0")
        seen.add(key)
        counts[key] = value
    try:
        return cls(n, k, counts, kind, truncation)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def format_spectrum(spectrum: WeightSpectrum | InputOutputSpectrum) -> str:
    """Render a spectrum in the text format load_spectrum reads back."""
    counts = spectrum.counts
    tag = "weight" if isinstance(spectrum, WeightSpectrum) else "iowe"
    dense = tag == "weight" and spectrum.kind is not SpectrumKind.EXACT
    cells = np.argwhere((counts != 0.0) | dense)
    records = [" ".join(map(str, cell)) for cell in cells.tolist()]
    values = counts[tuple(cells.T)].tolist()
    header = f"{tag} n={spectrum.n} k={spectrum.k} kind={spectrum.kind.value}"
    if spectrum.truncation is not None:
        header += f" dmax={spectrum.truncation}"
    return "\n".join([header, *(f"{key} {count!r}" for key, count in zip(records, values))]) + "\n"


def load_generator(path) -> LinearCode:
    """Read a generator matrix file ("n k" header, k rows of n 0/1 chars)."""
    path = Path(path)
    lines = _content_lines(path)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FileFormatError(f"{path}:1: empty generator file") from None
    parts = line.split()
    if len(parts) != 2:
        raise FileFormatError(f"{path}:{lineno}: expected 'n k' header")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: expected integer 'n k' header") from None
    rows = []
    for lineno, line in lines:
        if len(rows) == k:
            raise FileFormatError(f"{path}:{lineno}: more than {k} generator rows")
        if len(line) != n or set(line) - {"0", "1"}:
            raise FileFormatError(f"{path}:{lineno}: row must be {n} characters of 0/1")
        rows.append(sum(1 << t for t, ch in enumerate(line) if ch == "1"))
    if len(rows) != k:
        raise FileFormatError(f"{path}: expected {k} rows, found {len(rows)}")
    try:
        return LinearCode(n, k, tuple(rows))
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None

