"""Exact truncated Laurent series over the integers.

A series value is a *window* of exactly known coefficients.  ``coeffs[i]``
is the coefficient of ``q**(offset + i)``; every coefficient below
``offset`` is exactly zero, and nothing is claimed at or above
``prec = offset + len(coeffs)``.  All arithmetic is exact integer
arithmetic, and every operation propagates the window conservatively: a
result never claims a coefficient it cannot actually know from its
inputs.

Products use one Kronecker-substitution kernel in two radixes.  Both
operands are cut to the common length n.  Each is packed into one big
number, coefficient c_i biased to be nonnegative in the i-th group of
radix R, and the bias is subtracted, which leaves sum(c_i * R**i)
exactly.  The two values are multiplied once, and the low n groups of
the product are read back.  Every product coefficient is bounded by
the triangle inequality: |c_k| <= sum_i |a_i| * max|b| (and the same with
a and b swapped), so with B the smaller of the two bounds, or the
operands' own largest coefficient if that is bigger, a group that holds
every integer of absolute value at most B never carries into its
neighbour: the result is the exact Cauchy product.

The radix is chosen by packed size alone.  With w the smallest byte
count with B < 2**(8w - 1), a product whose packed operand has at most
``_BINARY_BYTES`` (8 KiB) bytes runs in binary: ``_pack`` writes each c
as a w-byte two's-complement group at C level, the bytes are read as one
CPython int whose groups the bias flips to c + 2**(8w - 1), and
``_unpack`` reads the low n groups of their product back, with one struct
format for the product's three codec calls.  Only those n groups are
computed: past ``_SHORT_BITS`` Mulders' short product (``_low_product``)
splits the operands at 0.7 of the low half's bits, multiplies the low
parts in full (Karatsuba) and only the low halves of the two cross terms.
Every other product runs in decimal: d is the smallest digit count with
2*B < 10**d, each c becomes the d-digit string of c + 10**d/2, the
strings are concatenated (highest coefficient first) into one
``Decimal``, and libmpdec, whose multiply switches to a
number-theoretic transform on long operands, multiplies them.  Long
operands therefore take the decimal path; below the cut CPython's
multiply and the cheaper packing win.  The decimal arithmetic runs under
a private context with the largest precision and exponent range,
trapping ``Inexact`` and ``Rounded``, so a product that did not fit
would raise instead of returning a wrong coefficient; the thread's
``decimal.getcontext()`` is never changed.  The cap
``_MAX_PACKED_DIGITS`` on n*d is checked before either radix is chosen.
A product keeps its right operand's preparation, one entry deep
(``_right_operand``): the cut tuple, its max and sum of |c|, and its
packed int per group width.  A residue-class join multiplies g class
windows by one window, so that window is read and packed once, not g
times.  The entry is checked by identity and holds its tuples, so any
other operand only misses.

Division ``a / b`` needs the lowest nonzero coefficient of b to be +1 or
-1, and runs the exact power-series recurrence c_k = b_0 * (a_k -
sum_{j>=1} b_j c_{k-j}) (Knuth, TAOCP Vol. 2, 4.7) on blocks of 64
outputs.  The divisor terms that reach back past the current block are
kept by value and applied to it before it starts, in one C-level pass
that sums their shifted slices: the -1 terms' slices as they are, and
every other value's slices summed and scaled by -b_j once.  Only the
terms below 64 run one output at a time, in one function made for the
divisor's tuple of near terms (``_near_solver``, cached): one expression
per output, with no loop over the terms.  The cost is the window length
times the divisor's support, so a sparse divisor such as a theta series
needs no wide product.
``invert`` is 1 divided by the series, the same recurrence.  A caller
that divides by a series in q^g runs it on lanes: position i packs the
g coefficients a[i*g + r] into one int, sum_r a[i*g + r] * 2**(8w*r).
The positions are a product operand's packed bytes, each group's top bit
flipped, split into g*w-byte chunks by ``struct.iter_unpack`` and read by
a ``map`` of ``int.from_bytes`` (``_lanes``); the recurrence runs
unchanged on the ceil(N/g) positions with the divisor in q, and
``_unlanes`` reads the lanes back through ``_unpack``.  It is linear and
exact, so only the true quotient coefficients must fit their lanes,
which the caller proves (``eta._lane_width``).

The decimal path needs the C ``decimal`` module (``_decimal``, part of
the standard library, so etaq still has no runtime dependency); the
pure-Python ``_pydecimal`` fallback would be orders of magnitude slower.
CPython refuses int <-> str conversions of more than
``sys.get_int_max_str_digits()`` digits, and that limit may be set as
low as 640; digit groups wider than 640 digits are therefore converted
through ``Decimal`` (a binary conversion, with no limit) instead of
``%``-formatting and ``int``, and the global limit is never changed.
The binary path converts no int to or from a string.
"""

from __future__ import annotations

import bisect
import decimal
import functools
import itertools
import math
import operator
import struct
from decimal import Decimal
from typing import Callable, Iterable, Iterator, Mapping

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient-precision"
SKIPPED = "skipped"  # a claim not run, with the reason in its note

# worst() ranks statuses by this; a skipped claim weighs like a pass.
_SEVERITY = {PASS: 0, SKIPPED: 0, INSUFFICIENT: 1, FAIL: 2}


class SeriesError(Exception):
    """Base class for window-arithmetic failures."""


class EmptyWindow(SeriesError):
    """An operation was asked to produce a window containing no exponent."""


class AllZeroWindow(SeriesError):
    """Inversion found no nonzero coefficient inside the window."""


class NonUnitLeadingCoefficient(SeriesError):
    """Division requires the divisor's lowest nonzero coefficient to be +1 or -1."""


class ProductTooLarge(SeriesError):
    """A product would pack more than ``_MAX_PACKED_DIGITS`` digits per operand."""


def two_adic_valuation(x: int) -> int | float:
    """Largest e such that 2**e divides x, with ``math.inf`` for x == 0.

    The infinity convention makes "divisible by 2**e" read uniformly as
    ``two_adic_valuation(x) >= e``, zero included.
    """
    if x == 0:
        return math.inf
    return (x & -x).bit_length() - 1


_set = object.__setattr__


class _Record:
    """An immutable record whose ``__slots__`` name its fields in
    constructor order.

    It equals only a record of its own class with equal fields, hashes
    as the tuple of its fields, and refuses assignment and ``del``.
    ``__init__`` sets the fields, in order, from its arguments with
    ``object.__setattr__``; a subclass validates and then calls it.
    ``__reduce__`` rebuilds it through the constructor, so ``copy`` and
    ``pickle`` work although ``__setattr__`` raises.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __init_subclass__(cls) -> None:
        # The fields in one C call; with two or more names it returns a tuple.
        cls._values = property(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values


class LaurentSeries(_Record):
    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs: tuple[int, ...]) -> None:
        if not isinstance(coeffs, tuple):
            coeffs = tuple(coeffs)
        if not coeffs:
            raise EmptyWindow("a series window must contain at least one exponent")
        _set(self, "offset", offset)
        _set(self, "coeffs", coeffs)

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
        # known from min(offset) up to min(prec): never empty, since
        # min(prec) > offset >= min(offset) for the operand with min(prec).
        lo = min(self.offset, other.offset)
        hi = min(self.prec, other.prec)
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
            return LaurentSeries(self.offset,
                                 tuple(map(operator.mul, itertools.repeat(other), self.coeffs)))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # Truncated Cauchy product.  The unknown tail of each operand first
        # pollutes exponent prec_a + offset_b (resp. prec_b + offset_a), so
        # the result window has length min(len(a), len(b)).
        n = min(len(self.coeffs), len(other.coeffs))
        a = self.coeffs[:n]
        # The right operand is cut and read once for its max and sum, and a
        # run of products by one window (a residue-class join) reuses that
        # from ``_right_operand``; a square (self * self, as in _pow) passes
        # one tuple twice and reads the left side from it too.
        b, max_b, sum_b = _right_operand(other.coeffs, n)
        if b is a:
            max_a, sum_a = max_b, sum_b
        else:
            abs_a = list(map(abs, a))
            max_a, sum_a = max(abs_a), sum(abs_a)
        # No coefficient of the product or of an operand exceeds the bound
        # (the operands' own coefficients count when one side is all zeros),
        # so a group that holds +-bound never carries, in either radix.
        bound = max(min(sum_a * max_b, max_a * sum_b), max_a, max_b)
        d = _digit_count(2 * bound)
        if n * d > _MAX_PACKED_DIGITS:
            raise ProductTooLarge(
                f"product of two {n}-term windows needs {d}-digit groups: "
                f"{n * d} packed digits per operand, above the cap of {_MAX_PACKED_DIGITS}")
        # The cap above holds for both radixes; short windows multiply as
        # CPython ints in the narrowest w-byte groups that hold +-bound, the
        # rest through libmpdec.  Either path packs a square's one tuple once.
        w = bound.bit_length() // 8 + 1
        if n * w <= _BINARY_BYTES:
            coeffs = _binary_product(a, b, w)
        else:
            coeffs = _decimal_product(a, b, d)
        return LaurentSeries(self.offset + other.offset, coeffs)

    def __rmul__(self, other: int) -> LaurentSeries:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def shift(self, d: int) -> LaurentSeries:
        """Multiply by q**d (d may be negative)."""
        return LaurentSeries(self.offset + d, self.coeffs)

    def __truediv__(self, other: LaurentSeries) -> LaurentSeries:
        """Exact quotient self / other.

        The lowest nonzero coefficient of ``other`` in its window must be a
        unit (+1 or -1); its exponent v makes the quotient start at
        ``self.offset - v``.  The quotient is known on as many terms as
        ``self`` holds and ``other`` holds from v on.
        """
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        coeffs = other.coeffs
        i0 = next((i for i, c in enumerate(coeffs) if c), None)
        if i0 is None:
            raise AllZeroWindow("cannot divide by a window of zeros")
        lead = coeffs[i0]
        if lead not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"lowest nonzero coefficient is {lead}, expected +1 or -1"
            )
        v = other.offset + i0
        n = min(len(self.coeffs), other.prec - v)
        return LaurentSeries(self.offset - v, _quotient(self.coeffs[:n], coeffs[i0:i0 + n]))

    def invert(self, n_terms: int) -> LaurentSeries:
        """Reciprocal, to n_terms coefficients: 1 on [0, n_terms) / self.

        The lowest nonzero coefficient in the window must be a unit
        (+1 or -1); its exponent v makes the result start at -v.  The
        result length is also capped by the input's own precision.
        """
        if n_terms < 1:
            raise EmptyWindow("no coefficients requested from inversion")
        return LaurentSeries(0, (1,) + (0,) * (n_terms - 1)) / self

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
        base = r - self.offset
        return LaurentSeries(lo, self.coeffs[m * lo + base:m * hi + base + 1:m])

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
        return (f"offset={self.offset} prec={self.prec}"
                + "\n%d" * len(self.coeffs)) % self.coeffs


# Exact integer arithmetic: a result that needs rounding raises Inexact.
_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           Emin=decimal.MIN_EMIN, traps=[decimal.Inexact, decimal.Rounded])

# Most digits one packed operand of a product may have.  ``verify all
# --kmax 8`` packs at most 2.44M (n = 20000, d = 122) at the CLI's largest
# order.  Negative powers are divided, never multiplied, so an ``expand``
# within the CLI's exponent cap stays far below: ``"f1^100" --order 20000``
# packs 1.98M.  A library call such as ``expand_quotient({1: 1000},
# 20000)`` stops at 8.02M (d = 401).
_MAX_PACKED_DIGITS = 8_000_000

# Most bytes one packed operand of a binary product may have: about where
# 8-byte groups stop winning.  Timed on the same random windows (Python
# 3.11.7, 2-vCPU Xeon VM), the binary path took 0.2-0.6x the decimal
# path's time at 32 kbit per operand, and at 64 kbit 0.45-0.77x with
# 4-byte groups and 0.84-1.01x with 8-byte ones.  At 128 kbit 8-byte
# groups took 1.35-1.8x, as libmpdec's number-theoretic transform takes
# over; 2- and 4-byte groups broke even only near 192-256 kbit.  With 9-
# to 32-byte groups binary took 0.26-0.66x at 32 and 128 terms, 0.50-1.05x
# at 512 (4.5-7.5 KiB), and 0.69-1.27x at the cut, where libmpdec's time
# alternates between about 1.1 and 1.9 ms with the digit count.
_BINARY_BYTES = 8192

# Bits of a binary product's low half at or below which ``_low_product``
# multiplies in full.  On the 90 binary products of ``verify all --order
# 2000 --kmax 8`` wider than 4 kbit (4.8-64 kbit), the short product took
# a median 0.89x the full product's time with this cut, 0.89x at 4 kbit,
# 0.90x at 12 kbit and 0.92x at 24 kbit (60 interleaved rounds, Python
# 3.11.7, 2-vCPU VM).
_SHORT_BITS = 8192

# struct's signed format for a group of w <= 8 bytes, and its size k: the
# smallest of 1, 2, 4 or 8 bytes that holds w.
_GROUP_FORMAT = {w: ("bhiiqqqq"[w - 1], 1 << (w - 1).bit_length()) for w in range(1, 9)}

# Maps a group's top byte to the byte that extends its sign.
_SIGN_BYTES = bytes(0 if i < 0x80 else 0xFF for i in range(256))

# Maps a byte to the same byte with its top bit flipped.
_TOP_BIT = bytes(i ^ 0x80 for i in range(256))

# The lowest int <-> str digit limit CPython accepts; no limit refuses a
# conversion of this many digits or fewer.
_STR_DIGITS = 640


def _digit_count(t: int) -> int:
    """The smallest d >= 1 with t < 10**d, for t >= 0."""
    # 0.30102999 < log10(2), so the estimate never overshoots the answer.
    d = max(1, (t.bit_length() - 1) * 30102999 // 100000000)
    while 10 ** d <= t:
        d += 1
    return d


def _binary_product(a: tuple[int, ...], b: tuple[int, ...], w: int) -> tuple[int, ...]:
    """The low n = len(a) coefficients of a * b, packed in w-byte groups.

    Every operand and product coefficient must be below 2**(8w - 1) in
    absolute value.  A two's-complement group is c + 2**(8w - 1) with its
    top bit flipped, so flipping every group's top bit in ``_pack``'s
    bytes gives sum((c_i + 2**(8w - 1)) * 2**(8w*i)), and subtracting the
    bias leaves sum(c_i * 2**(8w*i)).  Adding the bias to the product
    makes each low group c_k + 2**(8w - 1), in (0, 2**8w); the mask drops
    the higher groups, a multiple of 2**(8nw) whatever their sign, and
    flipping the top bits back gives ``_unpack`` two's complement.
    """
    n = len(a)
    form = _group_format(n, w)  # one struct format for both operands and the result
    bias = _lane_bias(n, w)
    x = (int.from_bytes(_pack(a, w, form), "little") ^ bias) - bias
    if b is a:
        y = x
    else:
        # The last right operand (``_right_operand``) keeps its packed int
        # per group width, so a run of products by one window packs it once.
        entry = _last_right
        packed = entry[5] if b is entry[2] else {}
        y = packed.get(w)
        if y is None:
            y = packed[w] = (int.from_bytes(_pack(b, w, form), "little") ^ bias) - bias
    bits = 8 * n * w
    low = ((_low_product(x, y, bits) + bias) & ((1 << bits) - 1)) ^ bias
    return _unpack(low.to_bytes(n * w, "little"), w, form)


def _low_product(x: int, y: int, bits: int) -> int:
    """An int congruent to x * y mod 2**bits: Mulders' short product.

    With k = 0.7 bits, x = x1 2**k + x0 and y = y1 2**k + y0 (x0, y0 in
    [0, 2**k)), x*y = x0 y0 + 2**k (x0 y1 + x1 y0) mod 2**bits, as 2k >=
    bits; the two cross terms are needed only mod 2**(bits - k), so they
    are short products too.  The full product x0 y0 of 0.7-bit operands
    and the two short ones cost about three quarters of x * y under
    Karatsuba.  At or below ``_SHORT_BITS`` it is x * y.
    """
    if bits <= _SHORT_BITS:
        return x * y
    k = bits * 7 // 10
    low, high = (1 << k) - 1, (1 << bits - k) - 1
    x0, y0 = x & low, y & low
    cross = (_low_product(x0 & high, y >> k & high, bits - k)
             + _low_product(x >> k & high, y0 & high, bits - k))
    return x0 * y0 + (cross << k)


# The last right operand of a product, prepared: (source, n, cut, max|c|,
# sum|c|, {w: packed int}) with cut = source[:n].  It holds both tuples,
# so neither identity can pass to another tuple while it is kept, and an
# entry for any other operand only misses.
_NO_OPERAND: tuple = (None, 0, None, 0, 0, {})
_last_right = _NO_OPERAND


def _clear_memos() -> None:
    """Forget the last right operand and every near solver."""
    global _last_right
    _last_right = _NO_OPERAND
    _near_solver.cache_clear()


def _right_operand(coeffs: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int, int]:
    """(coeffs[:n], max|c|, sum|c|), from ``_last_right`` when coeffs is its
    source and n its length, else made and kept there."""
    global _last_right
    entry = _last_right
    if entry[0] is not coeffs or entry[1] != n:
        cut = coeffs[:n]
        magnitudes = list(map(abs, cut))
        entry = _last_right = (coeffs, n, cut, max(magnitudes), sum(magnitudes), {})
    return entry[2:5]


def _group_format(n: int, w: int) -> tuple[str, int]:
    """struct's format for n groups of w bytes packed k = 1, 2, 4 or 8 bytes
    wide, and k."""
    char, k = _GROUP_FORMAT[min(w, 8)]
    return f"<{n}{char}", k


def _pack(coeffs: tuple[int, ...], w: int, form: tuple[str, int] | None = None) -> bytes:
    """The w-byte two's-complement groups of coeffs, lowest first; every |c|
    must be below 2**(8w - 1).  When every c fits 8 bytes, struct packs
    them k = 1, 2, 4 or 8 bytes wide and ``_resized`` makes them w bytes;
    otherwise each c takes one ``to_bytes``.  ``form`` is
    ``_group_format(len(coeffs), w)``, made here when not given."""
    fmt, k = form or _group_format(len(coeffs), w)
    try:
        raw = struct.pack(fmt, *coeffs)
    except struct.error:  # a c wider than 8 bytes
        return b"".join([c.to_bytes(w, "little", signed=True) for c in coeffs])
    return _resized(raw, k, w)


def _unpack(raw: bytes, w: int, form: tuple[str, int] | None = None) -> tuple[int, ...]:
    """Inverse of ``_pack``: one ``struct.unpack`` of the groups made k bytes
    wide when every group fits 8 bytes, else one ``int.from_bytes`` each."""
    if w > 8 and any(raw[j::w] != raw[7::w].translate(_SIGN_BYTES) for j in range(8, w)):
        return tuple([int.from_bytes(group, "little", signed=True)
                      for group, in struct.iter_unpack(f"{w}s", raw)])
    fmt, k = form or _group_format(len(raw) // w, w)
    return struct.unpack(fmt, _resized(raw, w, k))


def _resized(raw: bytes, old: int, new: int) -> bytes:
    """raw's old-byte two's-complement groups made new bytes wide: their top
    bytes, copies of the sign, deleted, or the bytes that extend it added."""
    if new < old:
        raw = bytearray(raw)
        for j in range(old, new, -1):  # drop the top byte of each j-byte group
            del raw[j - 1::j]
    elif new > old:
        sign = raw[old - 1::old].translate(_SIGN_BYTES)
        wide = bytearray(len(sign) * new)
        for j in range(new):
            wide[j::new] = raw[j::old] if j < old else sign
        raw = wide
    return raw


def _lane_bias(g: int, w: int) -> int:
    """2**(8w - 1) in each of g groups of w bytes."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * g, "little")


def _lanes(coeffs: tuple[int, ...], g: int, w: int) -> list[int]:
    """Position i = sum_r c[i*g + r] * 2**(8w*r) for i < ceil(len(coeffs)/g),
    c zero past coeffs and every |c| < 2**(8w - 1): ``_pack``'s groups with
    their top bits flipped, read g*w bytes at a time, minus the per-lane
    bias."""
    raw = _flipped(_pack(coeffs, w) + bytes(-len(coeffs) % g * w), w)
    chunks = itertools.chain.from_iterable(struct.iter_unpack(f"{g * w}s", raw))
    return list(map(operator.sub, map(int.from_bytes, chunks, itertools.repeat("little")),
                    itertools.repeat(_lane_bias(g, w))))


def _unlanes(positions: tuple[int, ...], g: int, w: int) -> tuple[int, ...]:
    """Inverse of ``_lanes``: every lane value, lowest first, each below
    2**(8w - 1) in absolute value."""
    bias, size = _lane_bias(g, w), g * w
    return _unpack(_flipped(b"".join([(x + bias).to_bytes(size, "little")
                                      for x in positions]), w), w)


def _flipped(raw: bytes, w: int) -> bytes:
    """raw with the top bit of each w-byte group flipped: two's complement
    c to c + 2**(8w - 1), and back."""
    raw = bytearray(raw)
    raw[w - 1::w] = raw[w - 1::w].translate(_TOP_BIT)
    return bytes(raw)


def _decimal_product(a: tuple[int, ...], b: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The low n = len(a) coefficients of a * b, packed in d-digit groups.

    Every operand and product coefficient must be below 10**d/2 in
    absolute value.
    """
    n = len(a)
    bias = _bias(n, d)
    x = _CONTEXT.subtract(Decimal(_digits(a, d)), bias)
    y = x if b is a else _CONTEXT.subtract(Decimal(_digits(b, d)), bias)
    # Adding the bias turns c_0..c_{n-1} into nonnegative d-digit groups;
    # adding 10**(2nd) keeps the sum positive when the upper half of the
    # product is negative, so its last n*d digits are exactly those groups.
    product = _CONTEXT.fma(x, y, _CONTEXT.add(bias, Decimal(f"1E{2 * n * d}")))
    return _coefficients(str(product)[-n * d:], n, d)


def _bias(n: int, d: int) -> Decimal:
    """10**d/2 in each of n d-digit groups, by doubling the group count."""
    unit = Decimal("5" + "0" * (d - 1))
    bias, groups = Decimal(0), 0
    for bit in bin(n)[2:]:
        bias = _CONTEXT.add(bias, _CONTEXT.scaleb(bias, groups * d))
        groups *= 2
        if bit == "1":
            bias = _CONTEXT.add(_CONTEXT.scaleb(bias, d), unit)
            groups += 1
    return bias


# Outputs per block of the division recurrence; see ``_quotient``.
_BLOCK = 64


def _quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """c with b * c == a on len(a) terms, for b[0] in (1, -1), len(b) == len(a).

    The recurrence c_k = b_0 * (a_k - sum_{j>=1} b_j c_{k-j}) runs on
    blocks of ``_BLOCK`` outputs.  A divisor term b_j with j >= _BLOCK
    reaches a block only from outputs of earlier blocks, so these far
    terms are applied before the block starts, in one C-level pass
    ``map(sum, zip(...))`` over shifted slices of c.  They are kept in
    one dict keyed by value: the -1 terms' slices join the ``zip`` as
    they are, and every other value sums its slices in one ``zip`` (or
    takes its one slice) and scales them by -b_j in C, so theta(p, p/2)'s
    +-2 terms are two values and Jacobi's cube scales one slice per term.
    The values are visited in order of their first exponent until one
    does not reach the block (its j at or past the block's end), and one
    bisect on a value's sorted exponents picks its terms that do.  Their
    slices start at most _BLOCK - 1 outputs before the block, so _BLOCK -
    1 zeros in front of c make every slice whole.  Only the terms below
    _BLOCK run one output at a time, through ``_near_solver``'s function
    for their tuple ((j, b_j), ...): one expression per output, made once
    per distinct tuple, and no pass at all when the divisor has no such
    term.  The work is len(a) times the divisor's support.
    """
    if b[0] == -1:  # a / b == (-a) / (-b), whose divisor leads with +1
        a, b = tuple(map(operator.neg, a)), tuple(map(operator.neg, b))
    n = len(a)
    near = []
    far: dict[int, list[int]] = {}
    for j in itertools.compress(range(1, n), b[1:]):
        if j < _BLOCK:
            near.append((j, b[j]))
        else:
            far.setdefault(b[j], []).append(j)
    solve = _near_solver(tuple(near)) if near else None
    # In order of first exponent (the dict's insertion order): each value's
    # exponents, and an endless repeat of -x to scale by, or None for -1.
    far_terms = [(exponents, None if x == -1 else itertools.repeat(-x))
                 for x, exponents in far.items()]
    pad = _BLOCK - 1
    c = [0] * pad + list(a)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        lo, hi = start + pad, stop + pad
        slices = [c[lo:hi]]
        for exponents, scale in far_terms:
            if exponents[0] >= stop:
                break
            reached = [c[lo - j:hi - j] for j in exponents[:bisect.bisect_left(exponents, stop)]]
            if scale is None:
                slices += reached
            else:
                summed = map(sum, zip(*reached)) if len(reached) > 1 else reached[0]
                slices.append(map(operator.mul, scale, summed))
        c[lo:hi] = map(sum, zip(*slices))
        if solve:
            solve(c, lo, hi)
    return tuple(c[pad:])


@functools.lru_cache
def _near_solver(terms: tuple[tuple[int, int], ...]) -> Callable[[list[int], int, int], None]:
    """A function solve(c, lo, hi) that runs c[k] -= sum b_j c[k - j] over
    the terms (j, b_j), in order of k from lo to hi.

    Its source is one expression per output, built from the exponents j
    alone: a +-1 term is a plain ``- c[k - j]`` or ``+ c[k - j]``, and
    every other b_j is a default argument, bound as a value and never
    formatted, so no int <-> str limit or coefficient size touches it.
    The cache keeps the functions of the 128 most recently used tuples
    (``lru_cache``'s default bound); ``verify all`` makes six.
    """
    values = {f"x{i}": x for i, (_, x) in enumerate(terms) if x not in (1, -1)}
    expression = "".join(
        f" - c[k - {j}]" if x == 1 else f" + c[k - {j}]" if x == -1 else f" - x{i} * c[k - {j}]"
        for i, (j, x) in enumerate(terms))
    defaults = "".join(f", {name}={name}" for name in values)
    namespace: dict[str, object] = {}
    exec(f"def solve(c, lo, hi{defaults}):\n"
         f"    for k in range(lo, hi):\n"
         f"        c[k] = c[k]{expression}\n", values, namespace)
    return namespace["solve"]


def _digits(coeffs: tuple[int, ...], d: int) -> str:
    """The d-digit decimal strings of c + 10**d/2, highest c first.

    Every |c| must be below 10**d/2, so each string is d digits wide.
    """
    values = map((5 * 10 ** (d - 1)).__add__, reversed(coeffs))
    if d <= _STR_DIGITS:
        return (f"%0{d}d" * len(coeffs)) % tuple(values)
    return "".join([str(Decimal(v)).zfill(d) for v in values])


def _coefficients(text: str, n: int, d: int) -> tuple[int, ...]:
    """Inverse of ``_digits``: n groups of d digits, each minus 10**d/2."""
    if d <= _STR_DIGITS:
        # A fresh Struct: struct.unpack would keep one compiled format per (n, d).
        values = map(int, struct.Struct(f"{d}s" * n).unpack(text.encode()))
    else:
        values = (int(Decimal(text[i:i + d])) for i in range(0, n * d, d))
    out = list(map((-5 * 10 ** (d - 1)).__add__, values))
    out.reverse()
    return tuple(out)


class Comparison(_Record):
    """Outcome of comparing two windows on their common exponent range.

    ``hi`` is inclusive, and below ``lo`` when the common range is empty;
    ``witness`` is (exponent, left, right).
    """

    __slots__ = ("status", "lo", "hi", "overlap", "witness")

    def __init__(self, status: str, lo: int, hi: int, overlap: int,
                 witness: tuple[int, int, int] | None = None) -> None:
        super().__init__(status, lo, hi, overlap, witness)


def compare(a: LaurentSeries, b: LaurentSeries, min_overlap: int) -> Comparison:
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


def _checked(points: range) -> dict[str, int] | None:
    """The window a verdict rests on, or None when no point was reachable."""
    if not points:
        return None
    return {"from": points[0], "to": points[-1], "points": len(points)}


class Report(_Record):
    """One verdict of any verifier: an identity, a dissection, a congruence
    row, a sequence check or an oracle agreement.

    ``checked`` is the window the verdict rests on, ``{"from", "to",
    "points"}``; ``witness`` is the first counterexample found, big
    integers as decimal strings.  A comparison (``Report.of``) names
    ``{"exponent", "lhs", "rhs"}``; a scan (``Report.scan``) names the
    scanned point and the value that broke the claim, such as ``{"n",
    "exponent", "value", "v2"}`` for a congruence row.  ``note`` says
    whatever else the verdict needs, such as why a claim was skipped.
    """

    __slots__ = ("label", "status", "claim", "order", "checked", "witness", "note")

    def __init__(self, label: str, status: str, claim: str | None = None,
                 order: int | None = None, checked: dict[str, int] | None = None,
                 witness: dict[str, object] | None = None, note: str | None = None) -> None:
        super().__init__(label, status, claim, order, checked, witness, note)

    @property
    def identity(self) -> str:
        """The label; the session workload in ``perfbench/worker.py`` reads
        identity verdicts through this name."""
        return self.label

    @classmethod
    def of(cls, label: str, claim: str | None, order: int | None,
           comparison: Comparison, note: str | None = None) -> Report:
        """The verdict of one comparison: its status, window and witness."""
        witness = None
        if comparison.witness is not None:
            e, lhs, rhs = comparison.witness
            witness = {"exponent": e, "lhs": str(lhs), "rhs": str(rhs)}
        return cls(label, comparison.status, claim, order,
                   _checked(range(comparison.lo, comparison.hi + 1)), witness, note)

    @classmethod
    def scan(cls, label: str, claim: str | None, order: int | None, points: range,
             witnesses: Iterable[dict[str, object]], required: int = 1) -> Report:
        """The verdict of a scan over points that stops at the first witness.

        Fewer than required points is insufficient-precision; otherwise
        the first item of the lazy witnesses fails the claim, and none
        passes it.
        """
        checked = _checked(points)
        if len(points) < required:
            return cls(label, INSUFFICIENT, claim, order, checked,
                       note=(f"only {len(points)} reachable coefficients below order "
                             f"{order}, need {required}"))
        witness = next(iter(witnesses), None)
        return cls(label, PASS if witness is None else FAIL, claim, order, checked, witness)

    def to_dict(self) -> dict[str, object]:
        """The fields by name; ``checked`` and ``witness`` are copies, so
        changing the dict changes no report."""
        return dict(zip(self.__slots__, self._values),
                    checked=_copy(self.checked), witness=_copy(self.witness))


def _copy(fields: dict[str, object] | None) -> dict[str, object] | None:
    return None if fields is None else dict(fields)


def worst(statuses: Iterable[str]) -> str:
    """The overall verdict: fail over insufficient-precision over pass.

    Skipped claims count as passes, and no statuses at all is a pass.
    """
    return max((PASS, *statuses), key=_SEVERITY.__getitem__)


__all__ = [
    "AllZeroWindow",
    "Comparison",
    "EmptyWindow",
    "FAIL",
    "INSUFFICIENT",
    "LaurentSeries",
    "NonUnitLeadingCoefficient",
    "PASS",
    "ProductTooLarge",
    "Report",
    "SKIPPED",
    "SeriesError",
    "compare",
    "two_adic_valuation",
    "worst",
]
