"""Shared helpers for the randomized algebraic property checks.

Each ``assert_*`` function draws one random instance and asserts one
property group; callers control the instance counts and the RNG seed.
"""

from __future__ import annotations

import random

from etaq.series import PASS, LaurentSeries, compare


def random_quotients(count: int, seed: int) -> list[dict[int, int]]:
    """Seeded eta quotients {period: exponent} over the catalog's periods."""
    rng = random.Random(seed)
    periods = (1, 2, 4, 5, 8, 10, 20, 40)
    exponents = [e for e in range(-5, 6) if e]
    return [{m: rng.choice(exponents) for m in sorted(rng.sample(periods, rng.randint(1, 4)))}
            for _ in range(count)]


def random_series(rng: random.Random, *, min_len: int = 1, max_len: int = 32,
                  min_offset: int = -8, max_offset: int = 8,
                  coeff_bound: int = 9) -> LaurentSeries:
    offset = rng.randint(min_offset, max_offset)
    length = rng.randint(min_len, max_len)
    return LaurentSeries(
        offset, tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(length)))


def assert_ring_laws(rng: random.Random) -> None:
    a = random_series(rng)
    b = random_series(rng)
    c = random_series(rng)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # Distributivity: the two sides may carry different (both correct)
    # windows, so require equality on the entire common window.
    d1 = a * (b + c)
    d2 = a * b + a * c
    outcome = compare(d1, d2, min_overlap=1)
    assert outcome.status == PASS
    assert outcome.overlap == min(d1.prec, d2.prec) - max(d1.offset, d2.offset)


def assert_inverse_law(rng: random.Random) -> None:
    length = rng.randint(1, 32)
    coeffs = [rng.randint(-9, 9) for _ in range(length)]
    coeffs[0] = rng.choice((1, -1))
    a = LaurentSeries(rng.randint(-8, 8), tuple(coeffs))
    b = a.invert(rng.randint(1, 40))
    product = a * b
    assert product.offset == 0
    assert product[0] == 1
    assert all(product[e] == 0 for e in range(1, product.prec))


def assert_extraction_linearity(rng: random.Random) -> None:
    m = rng.randint(1, 4)
    r = rng.randint(-6, 6)
    a = random_series(rng, min_len=m + 4)
    b = random_series(rng, min_len=m + 4)
    assert (a + b).extract(m, r) == a.extract(m, r) + b.extract(m, r)


def assert_dissection_completeness(rng: random.Random) -> None:
    m = rng.randint(1, 5)
    a = random_series(rng, min_len=m + 2)
    rebuilt = None
    for r in range(m):
        part = a.extract(m, r)
        upsampled = LaurentSeries.from_terms(
            {m * n + r: c for n, c in part}, a.offset, a.prec)
        rebuilt = upsampled if rebuilt is None else rebuilt + upsampled
    assert rebuilt == a


def assert_precision_soundness(rng: random.Random) -> None:
    a = random_series(rng)
    b = random_series(rng)
    a_big = LaurentSeries(a.offset, a.coeffs + tuple(
        rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
    b_big = LaurentSeries(b.offset, b.coeffs + tuple(
        rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
    for small, big in ((a + b, a_big + b_big), (a * b, a_big * b_big)):
        assert big.offset == small.offset
        assert big.prec >= small.prec
        assert all(big[e] == small[e] for e in range(small.offset, small.prec))

    unit = list(a.coeffs)
    unit[0] = rng.choice((1, -1))
    u = LaurentSeries(a.offset, tuple(unit))
    u_big = LaurentSeries(a.offset, u.coeffs + tuple(
        rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
    n_terms = rng.randint(1, 20)
    small, big = u.invert(n_terms), u_big.invert(n_terms)
    assert big.offset == small.offset
    assert all(big[e] == small[e] for e in range(small.offset, small.prec))

    m = rng.randint(1, 4)
    r = rng.randint(-6, 6)
    wide = random_series(rng, min_len=m + 4)
    wider = LaurentSeries(wide.offset, wide.coeffs + tuple(
        rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
    small, big = wide.extract(m, r), wider.extract(m, r)
    assert big.offset == small.offset
    assert all(big[e] == small[e] for e in range(small.offset, small.prec))
