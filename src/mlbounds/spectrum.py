"""Binary linear block codes and their weight spectra.

A code is a full-rank k x n generator matrix over GF(2); rows live as
integer bitmasks (bit t of a mask is column t) so encoding and enumeration
are single XORs.  Weight spectra come in three kinds: exact multiplicities,
ensemble averages (real-valued), and truncated prefixes where only weights
up to some d_max are known.
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
    "store_spectrum",
    "load_generator",
    "store_generator",
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

    @classmethod
    def from_matrix(cls, matrix) -> "LinearCode":
        arr = np.asarray(matrix)
        if arr.ndim != 2 or not np.isin(arr, (0, 1)).all():
            raise ValidationError("generator matrix must be a 2-D array over {0, 1}")
        k, n = arr.shape
        rows = tuple(int(sum(1 << t for t in range(n) if arr[j, t])) for j in range(k))
        return cls(n, k, rows)

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.k, self.n), dtype=np.uint8)
        for j, row in enumerate(self.rows):
            for t in range(self.n):
                out[j, t] = (row >> t) & 1
        return out

    def encode(self, message: int) -> int:
        """Codeword bitmask for a message given as a k-bit mask."""
        message = operator.index(message)
        if message < 0 or message >> self.k:
            raise ValidationError(f"message must be a {self.k}-bit mask")
        cw = 0
        m = message
        while m:
            j = (m & -m).bit_length() - 1
            cw ^= self.rows[j]
            m &= m - 1
        return cw

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


def _near_int(value: float, tol: float = 1e-6) -> bool:
    # beyond 2^52 a double has no fractional resolution left to check
    return abs(value) >= 2.0**52 or abs(value - round(value)) <= tol


def _check_shape(n: int, k: int, kind: SpectrumKind, truncation: int | None) -> int:
    """Check the k range and the kind/truncation pair of a spectrum; return
    the largest weight its entries may have."""
    n = operator.index(n)
    k = operator.index(k)
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    if kind is SpectrumKind.TRUNCATED:
        if truncation is None or not 0 <= truncation:
            raise ValidationError("truncated spectra need a truncation radius >= 0")
    elif truncation is not None:
        raise ValidationError(f"{kind.value} spectra must not set a truncation")
    return n if truncation is None else min(n, truncation)


@dataclass(frozen=True)
class WeightSpectrum:
    """Weight multiplicities {d: A_d} of an [n, k] code.

    Entries with A_d = 0 may be omitted.  kind=TRUNCATED means only weights
    d <= truncation are known; the other kinds describe the full range.
    """

    n: int
    k: int
    counts: dict[int, float]
    kind: SpectrumKind
    truncation: int | None = None

    def __post_init__(self):
        limit = _check_shape(self.n, self.k, self.kind, self.truncation)
        for d, count in self.counts.items():
            d = operator.index(d)
            if not 0 <= d <= limit:
                raise ValidationError(f"weight {d} outside [0, {limit}]")
            if not (math.isfinite(count) and count >= 0.0):
                raise ValidationError(f"count A_{d}={count!r} must be finite and >= 0")
        if self.kind is not SpectrumKind.TRUNCATED:
            if self.counts.get(0, 0.0) != 1.0:
                raise ValidationError(f"{self.kind.value} spectrum needs A_0 = 1")
        if self.kind is SpectrumKind.EXACT:
            for d, count in self.counts.items():
                if not _near_int(count):
                    raise ValidationError(f"exact spectrum has non-integer A_{d}={count!r}")
            total = sum(self.counts.values())
            if not math.isclose(total, 2.0**self.k, rel_tol=1e-6):
                raise ValidationError(
                    f"exact spectrum sums to {total!r}, expected 2^{self.k}"
                )

    def count(self, d: int) -> float:
        return self.counts.get(d, 0.0)

    def weights(self) -> list[int]:
        """Sorted positive weights with A_d > 0."""
        return sorted(d for d, c in self.counts.items() if d >= 1 and c > 0.0)

    @property
    def max_known_weight(self) -> int:
        return self.n if self.truncation is None else min(self.n, self.truncation)

    def restrict(self, max_weight: int) -> "WeightSpectrum":
        """Sub-spectrum keeping only weights d <= max_weight, marked truncated.

        The truncation records the requested cut as given, even when it
        exceeds n; max_known_weight caps it at n.
        """
        max_weight = operator.index(max_weight)
        if max_weight < 0:
            raise ValidationError(f"truncation radius must be >= 0, got {max_weight}")
        kept = {d: c for d, c in self.counts.items() if d <= max_weight}
        return WeightSpectrum(self.n, self.k, kept, SpectrumKind.TRUNCATED, max_weight)


@dataclass(frozen=True)
class InputOutputSpectrum:
    """Joint multiplicities {(i, d): A_{i,d}} of message weight i and
    codeword weight d under a fixed encoder for an [n, k] code."""

    n: int
    k: int
    counts: dict[tuple[int, int], float]
    kind: SpectrumKind
    truncation: int | None = None

    def __post_init__(self):
        limit = _check_shape(self.n, self.k, self.kind, self.truncation)
        for (i, d), count in self.counts.items():
            if not (0 <= operator.index(i) <= self.k and 0 <= operator.index(d) <= limit):
                raise ValidationError(f"entry ({i}, {d}) outside [0,{self.k}] x [0,{limit}]")
            if not (math.isfinite(count) and count >= 0.0):
                raise ValidationError(f"count A_({i},{d})={count!r} must be finite and >= 0")
        if self.kind is SpectrumKind.EXACT:
            if self.counts.get((0, 0), 0.0) != 1.0:
                raise ValidationError("exact IOWE needs A_{0,0} = 1")
            for key, count in self.counts.items():
                if not _near_int(count):
                    raise ValidationError(f"exact IOWE has non-integer A_{key}={count!r}")
            total = sum(self.counts.values())
            if not math.isclose(total, 2.0**self.k, rel_tol=1e-6):
                raise ValidationError(f"exact IOWE sums to {total!r}, expected 2^{self.k}")

    def weight_spectrum(self) -> WeightSpectrum:
        """Marginal over message weight: A_d = sum_i A_{i,d}."""
        marginal: dict[int, float] = {}
        for (i, d) in sorted(self.counts):
            marginal[d] = marginal.get(d, 0.0) + self.counts[(i, d)]
        return WeightSpectrum(self.n, self.k, marginal, self.kind, self.truncation)

    def slice(self, d: int) -> dict[int, float]:
        """Input-weight profile {i: A_{i,d}} of one codeword weight."""
        return {i: c for (i, dd), c in self.counts.items() if dd == d}


# log2 of the messages per codebook chunk: big enough to amortize the
# per-chunk numpy calls, small enough that a chunk's transients stay under a
# megabyte for n <= 64
_CHUNK_BITS = 14


def _as_words(mask: int, words: int) -> np.ndarray:
    """A bitmask as `words` little-endian uint64 words (bit t in word t // 64)."""
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype="<u8")


def _codewords(code: LinearCode):
    """Every codeword in message order, in chunks of 2^min(k, 14) rows of
    ceil(n/64) uint64 words.  All chunks share one buffer, so a caller
    copies what it keeps before taking the next.

    Chunk t covers messages t * 2^14 onwards: the XOR table of the low rows
    XORed with the combination of high rows selected by t.  Stepping t to
    t+1 flips its trailing ones and the bit above them, so the buffer
    advances by one XOR with a prefix of the high rows.
    """
    words = (code.n + 63) // 64
    rows = np.array([_as_words(row, words) for row in code.rows])
    low = min(code.k, _CHUNK_BITS)
    chunk = np.zeros((1 << low, words), dtype=np.uint64)
    for j in range(low):
        half = 1 << j
        np.bitwise_xor(chunk[:half], rows[j], out=chunk[half : 2 * half])
    flips = np.bitwise_xor.accumulate(rows[low:], axis=0)
    for t in range(1 << (code.k - low)):
        if t:
            chunk ^= flips[(t & -t).bit_length() - 1]
        yield chunk


def _weights(chunk: np.ndarray) -> np.ndarray:
    """Hamming weight of each codeword row of a chunk."""
    return np.bitwise_count(chunk).sum(axis=1, dtype=np.int64)


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
    low = min(k, _CHUNK_BITS)
    # (n+1) times the message weight within a chunk, by the same doubling
    low_cells = np.zeros(1 << low, dtype=np.int64)
    for j in range(low):
        half = 1 << j
        np.add(low_cells[:half], n + 1, out=low_cells[half : 2 * half])
    table = np.zeros((k + 1) * (n + 1), dtype=np.int64)
    for t, chunk in enumerate(_codewords(code)):
        # cell (message weight, codeword weight) of every message in the chunk
        cells = _weights(chunk)
        cells += low_cells
        cells += t.bit_count() * (n + 1)
        table += np.bincount(cells, minlength=table.size)
    table = table.reshape(k + 1, n + 1)
    counts = {(int(i), int(d)): float(table[i, d]) for i, d in zip(*np.nonzero(table))}
    return InputOutputSpectrum(n, k, counts, SpectrumKind.EXACT)


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
    for i, c in spec.counts.items():
        a_i = round(c)
        if not a_i:
            continue
        prev, cur = 0, 1  # K_{-1}, K_0
        for j in range(n + 1):
            sums[j] += a_i * cur
            prev, cur = cur, ((n - 2 * i) * cur - (n - j + 1) * prev) // (j + 1)
    order = 1 << k_dual
    counts: dict[int, float] = {}
    for j, s in enumerate(sums):
        if s < 0 or s % order:
            raise ValidationError(
                f"transformed count for weight {j} is {s}/{order}: dual spectrum inconsistent"
            )
        if s:
            counts[j] = float(s // order)
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
    """
    n = operator.index(n)
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    lf = log_factorials(n)
    log_binom = lf[n] - lf[1:] - lf[n - 1 :: -1]  # log C(n, d) for d in [1, n]
    log_ratio = (k - n) * _LN2 + math.log1p(-(2.0**-k)) - math.log1p(-(2.0**-n))
    with np.errstate(over="ignore"):
        values = np.exp(log_binom + log_ratio)
    overflow = np.flatnonzero(np.isinf(values))  # index i is weight i + 1
    dmax = int(overflow[0]) if overflow.size else n
    counts = {0: 1.0}
    counts.update({int(dd): float(v) for dd, v in zip(range(1, dmax + 1), values)})
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
# store/load round trip is an identity.
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
    """Read a spectrum file; the header tag picks the returned type."""
    path = Path(path)
    lines = _content_lines(path)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FileFormatError(f"{path}:1: empty spectrum file") from None
    tag, n, k, kind, truncation = _parse_header(path, lineno, line)
    arity = 2 if tag == "weight" else 3
    counts: dict = {}
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
        key = key[0] if arity == 2 else key
        if key in counts:
            raise FileFormatError(f"{path}:{lineno}: duplicate record for {key}")
        if not (math.isfinite(value) and value >= 0.0):
            raise FileFormatError(f"{path}:{lineno}: count must be finite and >= 0")
        counts[key] = value
    cls = WeightSpectrum if tag == "weight" else InputOutputSpectrum
    try:
        return cls(n, k, counts, kind, truncation)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def format_spectrum(spectrum: WeightSpectrum | InputOutputSpectrum) -> str:
    """Render a spectrum in the text format load_spectrum reads back."""
    if isinstance(spectrum, WeightSpectrum):
        tag, records = "weight", [(f"{d}", c) for d, c in sorted(spectrum.counts.items())]
    else:
        tag = "iowe"
        records = [(f"{i} {d}", c) for (i, d), c in sorted(spectrum.counts.items())]
    header = f"{tag} n={spectrum.n} k={spectrum.k} kind={spectrum.kind.value}"
    if spectrum.truncation is not None:
        header += f" dmax={spectrum.truncation}"
    return "\n".join([header, *(f"{key} {count!r}" for key, count in records)]) + "\n"


def store_spectrum(spectrum: WeightSpectrum | InputOutputSpectrum, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as handle:
        handle.write(format_spectrum(spectrum))


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


def store_generator(code: LinearCode, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{code.n} {code.k}\n")
        for row in code.rows:
            handle.write("".join("1" if (row >> t) & 1 else "0" for t in range(code.n)) + "\n")
