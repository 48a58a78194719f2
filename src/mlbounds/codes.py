"""Generator matrices for the codes used in tests and demos.

Cyclic codes are built from their generator polynomials (coefficient masks,
bit i = coefficient of x^i) and row-reduced to systematic [I | P] form; row
reduction changes only the encoder labeling, not the code.  All encoders
here are systematic, so message bits appear verbatim in the first k code
positions.
"""

from __future__ import annotations

import operator

from .errors import ValidationError
from .spectrum import LinearCode, _gf2_rref

__all__ = [
    "cyclic_code",
    "hamming_7_4",
    "repetition_code",
    "toy_code_10_5",
    "bch_15_7",
    "bch_31_21",
    "bch_31_26",
]


def cyclic_code(n: int, generator_poly: int) -> LinearCode:
    """[n, n - deg(g)] cyclic code generated by g(x).

    Rows start as the shifted coefficient masks of x^j * g(x); a nonzero
    constant term (every cyclic generator has one) makes the reduced form
    systematic in the first k positions.
    """
    n = operator.index(n)
    g = operator.index(generator_poly)
    if g <= 0 or not g & 1:
        raise ValidationError("generator polynomial needs a nonzero constant term")
    deg = g.bit_length() - 1
    if not 1 <= n - deg:
        raise ValidationError(f"degree {deg} polynomial leaves no message bits in length {n}")
    k = n - deg
    rows, _ = _gf2_rref([g << j for j in range(k)], n)
    return LinearCode(n, k, tuple(rows))


def _systematic(parity_rows: list[int], k: int) -> LinearCode:
    """[k + p, k] code with generator [I_k | P]; parity_rows[j] holds row j of P."""
    width = max(p.bit_length() for p in parity_rows)
    n = k + width
    rows = tuple((1 << j) | (parity_rows[j] << k) for j in range(k))
    return LinearCode(n, k, rows)


def hamming_7_4() -> LinearCode:
    """The [7, 4, 3] Hamming code, systematic encoder."""
    return _systematic([0b011, 0b101, 0b110, 0b111], 4)


def repetition_code(n: int) -> LinearCode:
    """The [n, 1, n] repetition code."""
    n = operator.index(n)
    return LinearCode(n, 1, ((1 << n) - 1,))


def toy_code_10_5() -> LinearCode:
    """A fixed [10, 5, 4] code with weight spectrum
    A_0..A_10 = 1, 0, 0, 0, 16, 0, 12, 0, 3, 0, 0; small enough for exact
    per-weight Monte Carlo cross-checks."""
    return _systematic([0b10101, 0b11111, 0b01101, 0b01110, 0b11010], 5)


def bch_15_7() -> LinearCode:
    """The [15, 7, 5] BCH code, g(x) = x^8 + x^7 + x^6 + x^4 + 1."""
    return cyclic_code(15, 0b111010001)


def bch_31_21() -> LinearCode:
    """The [31, 21, 5] BCH code, g(x) = x^10 + x^9 + x^8 + x^6 + x^5 + x^3 + 1."""
    return cyclic_code(31, 0b11101101001)


def bch_31_26() -> LinearCode:
    """The [31, 26, 3] BCH code, g(x) = x^5 + x^2 + 1."""
    return cyclic_code(31, 0b100101)
