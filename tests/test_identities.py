"""Tests for the identity catalog and its verifier."""

from __future__ import annotations

import hashlib

import pytest

from etaq import eta, identities, oracle
from etaq.eta import expand_k, expand_quotient
from etaq.identities import (
    CATALOG,
    MIN_ORDER,
    _read_sides,
    _series,
    identity_sides,
    rhs_terms,
    verify_all_identities,
    verify_identity,
)
from etaq.oracle import direct_eta_product, direct_k
from etaq.series import FAIL, INSUFFICIENT, PASS, LaurentSeries, Report, compare

ALL_IDS = (
    "EQ21", "EQ22", "EQ23", "EQ24", "EQ25", "EQ26", "EQ27", "EQ28", "EQ29",
    "NEGQ", "L22", "EQ210", "EQ211", "EQ212_ODDFREE", "EQ213_ODDFREE",
)


def test_catalog_ids_fixed():
    assert tuple(CATALOG) == ALL_IDS
    assert all(isinstance(CATALOG[tag], str) and CATALOG[tag] for tag in ALL_IDS)


def test_all_identities_pass():
    for report in verify_all_identities(300):
        assert report.status == PASS, report.label
        assert report.witness is None


def test_all_identities_pass_at_min_order():
    # Every entry retains enough window to clear the order // 2 bar even
    # at the smallest admissible order.
    for report in verify_all_identities(MIN_ORDER):
        assert report.status == PASS, report.label


def test_eq21_lhs_matches_oracle():
    lhs, _ = identity_sides("EQ21", 16)
    frozen = direct_eta_product({2: 5, 10: -1}, 12)
    assert lhs.coeffs[:12] == frozen.coeffs


def test_eq27_collapses_to_constant():
    lhs, rhs = identity_sides("EQ27", 100)
    assert rhs[0] == 5
    assert lhs[0] == 5
    assert all(lhs[e] == 0 for e in range(lhs.offset, lhs.prec) if e != 0)


def test_negq_sign_flip_matches_oracle():
    lhs, rhs = identity_sides("NEGQ", 16)
    frozen = direct_eta_product({2: 3, 1: -1, 4: -1}, 12)
    assert lhs.coeffs[:12] == frozen.coeffs
    assert rhs.coeffs[:12] == frozen.coeffs


def test_even_index_extractions_match_frozen_targets():
    # The q^{-1} terms and the first few coefficients of the extracted
    # sides pin the offset bookkeeping to frozen oracle values.
    lhs_p, _ = identity_sides("L22", 40)
    assert lhs_p.offset == -1
    assert [lhs_p[n] for n in range(-1, 4)] == [-4, 8, -8, 0, 20]

    lhs_m, _ = identity_sides("EQ210", 40)
    assert lhs_m.offset == -1
    assert [lhs_m[n] for n in range(-1, 5)] == [1, -2, -8, 20, 5, -24]

    lhs_t, _ = identity_sides("EQ211", 40)
    assert lhs_t.offset == -1
    assert [lhs_t[n] for n in range(-1, 5)] == [1, 6, -8, -12, 5, -8]


def test_eq24_eq25_combine_into_eq28():
    # Multiplying EQ24 by f1 and EQ25 by f10 and subtracting reproduces
    # k times each side of EQ28, so the three entries are mutually
    # consistent rather than independently typed.
    order = 120
    k = expand_k(order)
    f1 = expand_quotient({1: 1}, order)
    f10 = expand_quotient({10: 1}, order)
    lhs24, rhs24 = identity_sides("EQ24", order)
    lhs25, rhs25 = identity_sides("EQ25", order)
    lhs28, rhs28 = identity_sides("EQ28", order)

    term1 = expand_quotient({2: 4, 5: 2, 10: 1}, order)
    term2 = expand_quotient({1: 2, 10: 5}, order).shift(1)

    left = compare(f10 * lhs25 - f1 * lhs24, k * (term1 - lhs28), min_overlap=40)
    right = compare(f10 * rhs25 - f1 * rhs24, k * term2, min_overlap=40)
    assert left.status == PASS
    assert right.status == PASS
    assert compare(rhs28, term1 - term2, min_overlap=40).status == PASS


def test_identity_sides_validation():
    with pytest.raises(ValueError):
        identity_sides("EQ99", 100)
    with pytest.raises(ValueError):
        identity_sides("EQ21", MIN_ORDER - 1)


def test_verify_identity_report_shape():
    report = verify_identity("EQ22", 64)
    payload = report.to_dict()
    assert payload == {
        "label": "EQ22", "status": PASS, "claim": CATALOG["EQ22"],
        "order": 64, "checked": {"from": 0, "to": 63, "points": 64},
        "witness": None, "note": None,
    }


def test_an_identity_needs_half_its_order_in_common(monkeypatch):
    # The overlap policy by value: f1 = extract(f3, 3, 0) is true, but at
    # order 300 its extracted side holds 100 terms, below order // 2 = 150,
    # so the verdict is insufficient-precision on those 100 points.
    monkeypatch.setattr(identities, "CATALOG", {"F1": "f1 = extract(f3, 3, 0)"})
    report = verify_identity("F1", 300)
    assert (report.status, report.checked) == (
        INSUFFICIENT, {"from": 0, "to": 99, "points": 100})
    # The sides agree there: only the policy refuses them, and a quarter
    # of the order would pass them.
    assert compare(*identity_sides("F1", 300), min_overlap=300 // 4).status == PASS


def test_identity_report_keeps_the_identity_name():
    report = verify_identity("EQ28", 64)
    assert report.identity == report.label == "EQ28"
    assert (report.order, report.status) == (64, PASS)


# BLAKE2b-64 digests of lhs.dump() and rhs.dump() for every entry, recorded
# from hand-written expansions of each side before the sides were read from
# the statement text: any shifted window or changed coefficient fails.
FROZEN_SIDES = {
    16: {
        "EQ21": ("2733dd14ec4642ca", "2733dd14ec4642ca"),
        "EQ22": ("18232d3945756b89", "18232d3945756b89"),
        "EQ23": ("745d9c4a279bab2a", "745d9c4a279bab2a"),
        "EQ24": ("674575912dfe6557", "79b9f73d57376259"),
        "EQ25": ("3c12121ed6ebf833", "5ad7a6e254f8c8d6"),
        "EQ26": ("d25f14eaa1d76741", "4acca90f93913119"),
        "EQ27": ("a45ffcd64c2d27a8", "a45ffcd64c2d27a8"),
        "EQ28": ("8c9d081a9f73695c", "8c9d081a9f73695c"),
        "EQ29": ("745d9c4a279bab2a", "745d9c4a279bab2a"),
        "NEGQ": ("fe230b46f0cfe599", "fe230b46f0cfe599"),
        "L22": ("91f90cb3d9b2c45a", "a57c5c1cb771c1b2"),
        "EQ210": ("303b0a4c62093931", "10aa2753ac86a801"),
        "EQ211": ("4a48e48463a6a7e9", "1704eebd6cfa1139"),
        "EQ212_ODDFREE": ("f09bbd8d9c8b353e", "3abcbee5862b04be"),
        "EQ213_ODDFREE": ("91eecd666ed11feb", "0c53ead1d5b32a98"),
    },
    301: {
        "EQ21": ("b34c1f1dc30d2c1a", "b34c1f1dc30d2c1a"),
        "EQ22": ("a05e657ee5c940ef", "a05e657ee5c940ef"),
        "EQ23": ("97c87cad2ae541b8", "97c87cad2ae541b8"),
        "EQ24": ("f61841871203e26b", "50b720443b5c8941"),
        "EQ25": ("e176f3aeb7f0fc4b", "ce92d6b16a789ceb"),
        "EQ26": ("c71c69d13d64929a", "10de2209bc95c89e"),
        "EQ27": ("9fecda478ea399c7", "9fecda478ea399c7"),
        "EQ28": ("563ab3a73776a340", "563ab3a73776a340"),
        "EQ29": ("97c87cad2ae541b8", "97c87cad2ae541b8"),
        "NEGQ": ("88106b91c5082667", "88106b91c5082667"),
        "L22": ("8c41163283735ff4", "64714d0d817ea6e6"),
        "EQ210": ("0c4ae249d0eeb962", "faf25bc2887b895a"),
        "EQ211": ("5de1a5faea1c2fbc", "70d3555989a125dc"),
        "EQ212_ODDFREE": ("2303a0c009d80b22", "cd5773cd45ed43a4"),
        "EQ213_ODDFREE": ("9ba08b19bae34840", "5f730430b5b80372"),
    },
}


@pytest.mark.parametrize("order", sorted(FROZEN_SIDES))
@pytest.mark.parametrize("tag", ALL_IDS)
def test_sides_read_from_the_statement_match_frozen_digests(tag, order):
    lhs, rhs = identity_sides(tag, order)
    digests = tuple(hashlib.blake2b(side.dump().encode(), digest_size=8).hexdigest()
                    for side in (lhs, rhs))
    assert digests == FROZEN_SIDES[order][tag]


@pytest.mark.parametrize("order", (16, 17, 64, 301, 999, 2000))
@pytest.mark.parametrize("tag", ALL_IDS)
def test_verify_identity_equals_the_full_window_comparison(tag, order):
    # verify_identity expands a term-list side only as far as an extracted
    # side reaches, and compares k's term lists times B^J; the full sides
    # give the same verdict and window.
    expected = Report.of(tag, CATALOG[tag], order,
                         compare(*identity_sides(tag, order), min_overlap=order // 2))
    assert verify_identity(tag, order) == expected


@pytest.mark.parametrize("tag", ("EQ25", "EQ26"))
def test_one_k_chain_per_quotient(tag, monkeypatch):
    # The rhs q Q (a + b k + c k^2) multiplies Q once by a q + b q k + c q k^2,
    # where a chain Q, Q k, Q k^2 took two products by k and one product
    # per term took three.  The window cache is warm, so Q, k and k^2
    # themselves take none.
    order = 500
    terms = rhs_terms(CATALOG[tag])
    assert sorted(j for _, _, j, _ in terms) == [0, 1, 2]
    expected = _series(terms, order)
    k = expand_k(order)
    real_mul = LaurentSeries.__mul__
    products = []

    def counting_mul(self, other):
        if isinstance(other, LaurentSeries):
            products.append((len(self.coeffs), other == k))
        return real_mul(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
    assert _series(terms, order) == expected
    assert products == [(order, False)]


def _times_b(series, power):
    """series times B^power on its own window, B = theta(10, 3) theta(10, 4)
    taken as prod (q^r; q^10)_inf over r = 3, 7, 4, 6, 10, 10 by the
    oracle's Euler sums, which share no code with the expander."""
    c = list(series.coeffs)
    for _ in range(power):
        for r in (3, 7, 4, 6, 10, 10):
            oracle._times_pochhammer(c, r, 10)
    return LaurentSeries(series.offset, c)


def _oracle_series(side, order):
    """A term list's series from the oracle's windows of k and of each
    quotient Q, every term c q^s Q k^j multiplied out by k one at a time."""
    k = direct_k(order)
    total = None
    for c, s, j, factors in side:
        term = direct_eta_product(factors, order)
        for _ in range(j):
            term = term * k
        term = (c * term).shift(s)
        total = term if total is None else total + term
    return total


def _cleared_mismatches(tag, order):
    """The sides of a k identity whose full series, or whose series times
    B^J with J = 2 the highest power of k, differs from the oracle's in
    window or coefficients."""
    sides = identities._read(CATALOG[tag], lambda *sides: [
        identities._evaluate(side, order) for side in sides])
    assert max(j for side in sides for _, _, j, _ in side) == 2
    mismatches = []
    for side in sides:
        full = _oracle_series(side, order)
        if (_series(side, order), _series(side, order, 2)) != (full, _times_b(full, 2)):
            mismatches.append(side)
    return mismatches


@pytest.mark.parametrize("order", (17, 500, 2000))
@pytest.mark.parametrize("tag", ("EQ24", "EQ25", "EQ26"))
def test_cleared_sides_are_the_full_sides_times_b(tag, order):
    assert _cleared_mismatches(tag, order) == []


def test_a_k_window_one_term_too_long_fails_the_cleared_check(monkeypatch):
    # Negative control: k^j B^J on [j, j + order), without k's - (j > 0).
    real_k_part = eta._k_part
    monkeypatch.setattr(identities, "_k_part",
                        lambda j, power, order: real_k_part(j, power, order + (j > 0)))
    assert all(_cleared_mismatches(tag, 500) for tag in ("EQ24", "EQ25", "EQ26"))


@pytest.mark.parametrize("tag", ("EQ24", "EQ25", "EQ26"))
def test_k_identities_make_no_k_product_or_division(tag, monkeypatch):
    # On a warm cache the cleared sides multiply each quotient Q once by
    # its sum of q^j A^j B^(J-j) terms: no k window, no division.  A k
    # window is any _k_part with more powers of k than of B, which divides.
    order = 2000
    expected = verify_identity(tag, order)
    k = expand_k(order)
    real_mul, real_div, real_k_part = (LaurentSeries.__mul__, LaurentSeries.__truediv__,
                                       eta._k_part)
    calls = {"k products": 0, "divisions": 0, "expand_k": 0}

    def counting_mul(self, other):
        calls["k products"] += self == k or other == k
        return real_mul(self, other)

    def counting_div(self, other):
        calls["divisions"] += 1
        return real_div(self, other)

    def counting_expand_k(order):
        calls["expand_k"] += 1
        return expand_k(order)

    def counting_k_part(j, power, order):
        calls["expand_k"] += j > power
        return real_k_part(j, power, order)

    monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
    monkeypatch.setattr(LaurentSeries, "__truediv__", counting_div)
    monkeypatch.setattr(eta, "expand_k", counting_expand_k)
    for module in (eta, identities):
        monkeypatch.setattr(module, "_k_part", counting_k_part)
    assert verify_identity(tag, order) == expected
    assert calls == {"k products": 0, "divisions": 0, "expand_k": 0}


def test_seeded_defect_in_k_denominator_fails_with_the_full_sides_witness(monkeypatch):
    # Negative control: add q^13 to theta(10, 3), a factor only k uses.
    # k and B change together, so the cleared sides fail where the full
    # sides do, and the witness (pinned from the full sides) is theirs.
    real_theta = eta._theta

    def broken(period, a, length):
        s = real_theta(period, a, length)
        if (period, a) != (10, 3) or length <= 13:
            return s
        coeffs = list(s.coeffs)
        coeffs[13] += 1
        return LaurentSeries(s.offset, coeffs)

    monkeypatch.setattr(eta, "_theta", broken)
    eta._expand_quotient_cached.cache_clear()
    try:
        reports = {tag: verify_identity(tag, 300) for tag in ("EQ24", "EQ25", "EQ26")}
        full = {tag: compare(*identity_sides(tag, 300), min_overlap=150) for tag in reports}
    finally:
        eta._expand_quotient_cached.cache_clear()
    assert {tag: (r.status, r.witness) for tag, r in reports.items()} == {
        "EQ24": (FAIL, {"exponent": 14, "lhs": "55", "rhs": "56"}),
        "EQ25": (FAIL, {"exponent": 14, "lhs": "87", "rhs": "88"}),
        "EQ26": (FAIL, {"exponent": 14, "lhs": "39", "rhs": "40"}),
    }
    assert all(r == Report.of(tag, CATALOG[tag], 300, full[tag]) for tag, r in reports.items())


def test_k_sides_that_start_apart_are_compared_in_full(monkeypatch):
    # The lhs gains a constant, so it starts at q^0 and the rhs at q^1:
    # B^2 times the constant would reach the common window, so the sides
    # are not cleared, and the full sides pass on [1, 300).
    statement = "1 + " + CATALOG["EQ24"]
    full = _read_sides(statement, 300)
    assert (full[0].offset, full[1].offset) == (0, 1)
    assert _read_sides(statement, 300, covered=True) == full
    monkeypatch.setitem(CATALOG, "EQ24", statement)
    report = verify_identity("EQ24", 300)
    assert report == Report.of("EQ24", statement, 300, compare(*full, min_overlap=150))
    assert (report.status, report.checked) == (PASS, {"from": 1, "to": 299, "points": 299})


@pytest.mark.parametrize("tag, old, new, witness", (
    ("EQ21", "5q", "6q", (1, 0, 1)),
    # L22's rhs once came from the dissection code, so this edit passed.
    ("L22", "-4", "-3", (-1, -4, -3)),
    # A k identity fails on its cleared sides, and the witness comes from the
    # full ones; below q^4 the two agree, as B^2 = 1 - 2q^3 - ...
    ("EQ26", "4k", "3k", (2, -4, -3)),
    ("EQ26", "k f1^3 f5", "k f1^3 f5^2", (6, -9, -8)),
))
def test_one_token_edit_of_a_statement_fails_with_a_witness(tag, old, new, witness,
                                                            monkeypatch):
    statement = CATALOG[tag]
    assert statement.count(old) == 1
    edited = statement.replace(old, new)
    outcome = compare(*_read_sides(edited, 300), min_overlap=150)
    assert (outcome.status, outcome.witness) == (FAIL, witness)
    monkeypatch.setitem(CATALOG, tag, edited)
    report = verify_identity(tag, 300)
    assert (report.status, report.claim) == (FAIL, edited)
    assert report.witness == {"exponent": witness[0], "lhs": str(witness[1]),
                              "rhs": str(witness[2])}


@pytest.mark.parametrize("statement, reason", (
    ("f1 f5 = g3 f5", "unknown name 'g3'"),
    ("f1 = f2/(f1 + f5)", "cannot divide by"),
    ("f1 = f1 f2/(k f2)", "cannot divide by"),
    ("f1 = f1^(1/2)", "expected a nonnegative integer literal"),
    ("f1 = f1^1.5", "expected a nonnegative integer literal"),
    ("f1 = extract(f1, 2, -1)", "expected a nonnegative integer literal"),
    ("f1 = f1^0", "positive integer"),
    ("f1 f5^3", "two sides"),
    ("f1 = f1 = f1", "two sides"),
    ("f1 = f1 % f2", "unsupported expression"),
    ("f1 = extract(f1, 2)", "unsupported expression"),
    ("f1 = f1 +", "invalid syntax"),
    ("sum_{n>=0} P*(2n+3) q^n = -4 f1^4 f5^4/q - 8 f2^4 f10^4", "starts at the wrong n"),
    ("sum_{n>=-1} P*(0n+3) q^n = f1", "invalid syntax"),
    ("sum_{n>=-1} Q*(2n+3) q^n = f1", "invalid syntax"),
))
def test_malformed_statement_raises_naming_it(statement, reason):
    with pytest.raises(ValueError) as info:
        _read_sides(statement, 64)
    assert repr(statement) in str(info.value)
    assert reason in str(info.value)


def test_bare_integer_side_takes_the_other_window():
    lhs, rhs = _read_sides("f2^4 f5^2/(q f1^2 f10^4) - f1^3 f5/(q f2 f10^3) = 5", 40)
    assert (lhs.offset, lhs.prec) == (rhs.offset, rhs.prec) == (-1, 39)
    lhs, rhs = _read_sides("5 = f2^4 f5^2/(q f1^2 f10^4) - f1^3 f5/(q f2 f10^3)", 40)
    assert (lhs.offset, lhs.prec, lhs[0]) == (-1, 39, 5)


def test_rhs_terms_reads_a_symbolic_rhs_and_refuses_a_series():
    # A trailing [...] remark, as on EQ24, is not part of the rhs.
    assert rhs_terms(CATALOG["EQ211"]) == [(1, -1, 0, {1: 4, 5: 4}),
                                           (10, 0, 0, {1: 1, 2: 1, 5: 3, 10: 3})]
    assert rhs_terms(CATALOG["EQ24"]) == [(1, 1, 0, {1: 1, 10: 5}), (-1, 1, 2, {1: 1, 10: 5})]
    # EQ29 squares a two-term sum: the square multiplies out to four terms.
    assert len(rhs_terms(CATALOG["EQ29"])) == 1 + 4
    # An extract reads its side's series, so that rhs is a series too.
    statement = "f2 = extract(f1^4 f5^4/q - 8 f2^4 f10^4, 2, 0)"
    with pytest.raises(ValueError, match="is a series") as info:
        rhs_terms(statement)
    assert repr(statement) in str(info.value)


@pytest.mark.parametrize("statement, reason", [
    ("f1", "expected two sides separated by ' = '"),
    ("f1 = f2 = f3", "expected two sides separated by ' = '"),
    ("f1 = f1 +", "invalid syntax"),
])
def test_rhs_terms_refuses_a_malformed_statement_by_name(statement, reason):
    # As _read_sides does: one side, three sides and a dangling operator.
    with pytest.raises(ValueError) as info:
        rhs_terms(statement)
    assert str(info.value).startswith(f"cannot read identity {statement!r}: {reason}")
    with pytest.raises(ValueError) as info:
        _read_sides(statement, MIN_ORDER)
    assert str(info.value).startswith(f"cannot read identity {statement!r}: {reason}")
