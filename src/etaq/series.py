"""Exact truncated Laurent series over the integers.

A series value is a *window* of exactly known coefficients.  ``coeffs[i]``
is the coefficient of ``q**(offset + i)``; every coefficient below
``offset`` is exactly zero, and nothing is claimed at or above
``prec = offset + len(coeffs)``.  All arithmetic uses Python's big
integers, so results are exact, and every operation propagates the window
conservatively: a result never claims a coefficient it cannot actually
know from its inputs.

Products use one Kronecker-substitution kernel.  Both operands are cut to
the common length n; each coefficient becomes one signed base-2**(8w)
digit of a single Python int, the two ints are multiplied once (CPython's
Karatsuba, in C), and the low n digits of the product are read back.
Every product coefficient is a sum of at most n terms a_i * b_j, so
|c_k| <= n * max|a| * max|b|.  The digit width w is the smallest whole
number of bytes whose top bit is clear of that bound, so no digit ever
overflows into its neighbour and the result is the exact Cauchy product.
Packing and unpacking go through ``int.to_bytes``/``int.from_bytes``
(binary, linear time), never through decimal strings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient-precision"


class SeriesError(Exception):
    """Base class for window-arithmetic failures."""


class EmptyWindow(SeriesError):
    """An operation was asked to produce a window containing no exponent."""


class AllZeroWindow(SeriesError):
    """Inversion found no nonzero coefficient inside the window."""


class NonUnitLeadingCoefficient(SeriesError):
    """Inversion requires the lowest nonzero coefficient to be +1 or -1."""


def two_adic_valuation(x: int) -> int | float:
    """Largest e such that 2**e divides x, with ``math.inf`` for x == 0.

    The infinity convention makes "divisible by 2**e" read uniformly as
    ``two_adic_valuation(x) >= e``, zero included.
    """
    if x == 0:
        return math.inf
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class LaurentSeries:
    offset: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise EmptyWindow("a series window must contain at least one exponent")

    @property
    def prec(self) -> int:
        """First exponent whose coefficient is not known."""
        return self.offset + len(self.coeffs)

    def __getitem__(self, exponent: int) -> int:
        """Coefficient of q**exponent; exact zeros below the window."""
        if exponent >= self.prec:
            raise IndexError(
                f"coefficient of q^{exponent} is outside the window (prec={self.prec})"
            )
        if exponent < self.offset:
            return 0
        return self.coeffs[exponent - self.offset]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs over the window."""
        for i, c in enumerate(self.coeffs):
            yield self.offset + i, c

    def _span(self, lo: int, hi: int) -> tuple[int, ...]:
        """Coefficients on [lo, hi), zero-padded below the window; hi <= prec."""
        zeros = min(max(self.offset - lo, 0), hi - lo)
        return (0,) * zeros + self.coeffs[max(lo - self.offset, 0):max(hi - self.offset, 0)]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"LaurentSeries(offset={self.offset}, prec={self.prec}, coeffs=({head}{tail}))"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[int, int], lo: int, hi: int) -> LaurentSeries:
        """Series exactly equal to the given finite sum on the window [lo, hi)."""
        if hi <= lo:
            raise EmptyWindow(f"requested window [{lo}, {hi}) is empty")
        c = [0] * (hi - lo)
        for e, value in terms.items():
            if not lo <= e < hi:
                raise ValueError(f"term q^{e} lies outside the window [{lo}, {hi})")
            c[e - lo] = value
        return cls(lo, tuple(c))

    @classmethod
    def one(cls, prec: int) -> LaurentSeries:
        return cls.from_terms({0: 1}, 0, prec)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # Below min(offset) both operands are exact zeros, so the sum is
        # known from min(offset) up to min(prec).
        lo = min(self.offset, other.offset)
        hi = min(self.prec, other.prec)
        if hi <= lo:
            raise EmptyWindow(
                f"sum of windows [{self.offset}, {self.prec}) and "
                f"[{other.offset}, {other.prec}) is empty"
            )
        return LaurentSeries(
            lo, tuple(map(operator.add, self._span(lo, hi), other._span(lo, hi))))

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: int | LaurentSeries) -> LaurentSeries:
        if isinstance(other, int):
            return LaurentSeries(self.offset, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # Truncated Cauchy product.  The unknown tail of each operand first
        # pollutes exponent prec_a + offset_b (resp. prec_b + offset_a), so
        # the result window has length min(len(a), len(b)).
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        max_a, max_b = max(map(abs, a)), max(map(abs, b))
        # |c_k| <= n*max_a*max_b; the operands' own digits must fit too when
        # the other operand is all zeros.  One spare bit holds the sign.
        w = max(n * max_a * max_b, max_a, max_b).bit_length() // 8 + 1
        bias = int.from_bytes(b"\x80".rjust(w, b"\0") * n, "little")
        product = _pack(a, w, bias)
        # A square (self * self, as in _pow) takes CPython's squaring path.
        product *= product if b is a else _pack(b, w, bias)
        # With 2**(8w-1) added to every digit all digits are nonnegative,
        # so the mask keeps exactly c_0..c_{n-1}; the XOR turns each digit
        # back into the two's complement of its c_k.
        low = ((product + bias) & ((1 << (8 * w * n)) - 1)) ^ bias
        data = low.to_bytes(w * n, "little")
        return LaurentSeries(self.offset + other.offset, tuple(
            [int.from_bytes(data[i:i + w], "little", signed=True)
             for i in range(0, w * n, w)]))

    def __rmul__(self, other: int) -> LaurentSeries:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def shift(self, d: int) -> LaurentSeries:
        """Multiply by q**d (d may be negative)."""
        return LaurentSeries(self.offset + d, self.coeffs)

    def invert(self, n_terms: int) -> LaurentSeries:
        """Reciprocal, to n_terms coefficients.

        The lowest nonzero coefficient in the window must be a unit
        (+1 or -1); its exponent v makes the result start at -v.  The
        result length is also capped by the input's own precision.
        """
        coeffs = self.coeffs
        i0 = next((i for i, c in enumerate(coeffs) if c), None)
        if i0 is None:
            raise AllZeroWindow("cannot invert a window of zeros")
        lead = coeffs[i0]
        if lead not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"lowest nonzero coefficient is {lead}, expected +1 or -1"
            )
        v = self.offset + i0
        length = min(n_terms, self.prec - v)
        if length < 1:
            raise EmptyWindow("no coefficients requested from inversion")
        a = coeffs[i0:i0 + length]
        support = [(j, aj) for j, aj in enumerate(a) if aj and j > 0]
        out = [0] * length
        out[0] = lead  # 1/lead == lead for a unit
        for n in range(1, length):
            s = 0
            for j, aj in support:
                if j > n:
                    break
                s += aj * out[n - j]
            if s:
                out[n] = -lead * s
        return LaurentSeries(-v, tuple(out))

    # -- reindexing --------------------------------------------------------

    def extract(self, m: int, r: int) -> LaurentSeries:
        """Arithmetic-progression subseries: sum of self[m*n + r] * q**n.

        Keeps every exponent m*n + r that lies inside the window, zero
        extension below offset included.
        """
        if m < 1:
            raise ValueError(f"extraction step must be >= 1, got {m}")
        lo = -((r - self.offset) // m)  # smallest n with m*n + r >= offset
        hi = (self.prec - 1 - r) // m   # largest n with m*n + r < prec
        if hi < lo:
            raise EmptyWindow(
                f"window [{self.offset}, {self.prec}) contains no exponent "
                f"congruent to {r} mod {m}"
            )
        base = self.offset
        return LaurentSeries(
            lo, tuple(self.coeffs[m * n + r - base] for n in range(lo, hi + 1))
        )

    def alternate_signs(self) -> LaurentSeries:
        """Substitute q -> -q (negate coefficients at odd exponents)."""
        flip = self.offset & 1
        return LaurentSeries(
            self.offset,
            tuple(-c if (i + flip) & 1 else c for i, c in enumerate(self.coeffs)),
        )

    # -- serialization -----------------------------------------------------

    def dump(self) -> str:
        """Text form: a header line, then one decimal coefficient per line."""
        lines = [f"offset={self.offset} prec={self.prec}"]
        lines.extend(str(c) for c in self.coeffs)
        return "\n".join(lines)


def _pack(coeffs: tuple[int, ...], w: int, bias: int) -> int:
    """sum(c * 2**(8*w*i)) for coefficients with |c| < 2**(8*w - 1).

    Concatenated two's-complement digits, XOR the top bit of every digit,
    read c + 2**(8*w - 1) >= 0 per digit; subtracting ``bias`` (that
    offset in every digit) leaves the signed sum.
    """
    digits = b"".join([c.to_bytes(w, "little", signed=True) for c in coeffs])
    return (int.from_bytes(digits, "little") ^ bias) - bias


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two windows on their common exponent range."""

    status: str
    lo: int
    hi: int  # inclusive; hi < lo when the common range is empty
    overlap: int
    witness: tuple[int, int, int] | None = None  # (exponent, left, right)


def compare(a: LaurentSeries, b: LaurentSeries, min_overlap: int = 200) -> Comparison:
    """Coefficientwise equality on [max(offsets), min(precs)).

    Fewer than min_overlap common exponents (or none at all) yields
    insufficient-precision rather than a vacuous pass.
    """
    lo = max(a.offset, b.offset)
    hi = min(a.prec, b.prec)
    overlap = max(hi - lo, 0)
    if overlap < min_overlap or overlap == 0:
        return Comparison(INSUFFICIENT, lo, hi - 1, overlap)
    left, right = a._span(lo, hi), b._span(lo, hi)
    if left != right:
        i = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
        return Comparison(FAIL, lo, hi - 1, overlap, (lo + i, left[i], right[i]))
    return Comparison(PASS, lo, hi - 1, overlap)
