"""Catalog of exact series identities and their verifier.

Each ``statement`` is the only spelling of one identity among eta
quotients, k(q) and the named targets, in a cleared form where it would
divide by q or k: both sides are read from it, so a claim is what it checks.

Statement notation: `` = `` separates the sides, juxtaposition
multiplies, ``/`` divides by one term with coefficient +-1 and no k
(never by a sum), ``^`` is a positive integer power, the names are
``q``, ``k``, ``f<m>`` and the keys of ``eta.TARGETS``, and
``extract(side, m, r)`` is sum_n c(mn + r) q^n.  ``sum_{n>=L} X(an+b)
q^n`` is ``extract`` of the target printed as X, with L the first n
where an + b >= 0, and ``prod (1 - (-q)^n)`` is f1 at -q.  A trailing
``[...]`` remark is not checked, and a side that is a bare integer
takes the other side's window.  A side stays a list of terms
c q^s k^j prod f_m^e_m, powers of sums multiplied out, until an
``extract`` needs its series.

A term list's series expands each quotient Q once and multiplies it
once by the sum of its terms' c q^s k^j (``_series``), so EQ25's rhs
q Q (1 + k - k^2) takes one product.  ``verify_identity`` builds only
the windows its verdict reads: a term-list side facing an extracted
side, which stops near order / 2, is expanded only until its window
covers that side's, and term-list sides with k are compared times B^J,
a power of k's theta denominator, which takes no division.  A failure
is read again as the full sides, which ``identity_sides`` returns, so
its witness quotes their values.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Callable

from .eta import TARGET_ROWS, TARGETS, _k_part, expand_f, expand_quotient
from .series import FAIL, LaurentSeries, Report, compare

Term = tuple[int, int, int, dict[int, int]]  # (c, s, j, {m: e_m})
Value = list[Term] | LaurentSeries

_REMARK = re.compile(r"\s*\[[^\]]*\]$")
_SUM = re.compile(r"sum_\{n>=(-?\d+)\} (%s)\(([1-9]\d*)n\+(\d+)\) q\^n"
                  % "|".join(re.escape(row.name) for row in TARGET_ROWS.values() if row.name))
_PROD, _F1_AT_MINUS_Q = "prod (1 - (-q)^n)", "f1_at_minus_q"
# Whitespace between two operands, or an operand right after a closing
# parenthesis or a number: the places where juxtaposition multiplies.
_JUXTAPOSED = re.compile(r"(?<=[\w)])\s+(?=[\w(])|(?<=\))(?=[\w(])|(?<=\d)(?=[A-Za-z(])")
_FACTOR = re.compile(r"f([1-9][0-9]*)")


def _extraction(match: re.Match[str]) -> str:
    start, shown, step, residue = match.groups()
    if int(start) != -(int(residue) // int(step)):
        raise ValueError(f"sum over {shown}({step}n+{residue}) starts at the wrong n")
    target = next(tag for tag, row in TARGET_ROWS.items() if row.name == shown)
    return f"extract({target}, {step}, {residue})"


def _python_syntax(side: str) -> str:
    side = _SUM.sub(_extraction, side.replace(_PROD, _F1_AT_MINUS_Q))
    return _JUXTAPOSED.sub("*", side.replace("^", "**"))


def _integer(node: ast.expr) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise ValueError(f"expected a nonnegative integer literal, got {ast.unparse(node)!r}")


def _negate(x: Value) -> Value:
    return -x if isinstance(x, LaurentSeries) else [(-c, s, j, f) for c, s, j, f in x]


def _times(x: Term, y: Term) -> Term:
    factors = {m: x[3].get(m, 0) + y[3].get(m, 0) for m in x[3].keys() | y[3].keys()}
    return (x[0] * y[0], x[1] + y[1], x[2] + y[2], {m: e for m, e in factors.items() if e})


def _scaled(c: int, s: int, x: LaurentSeries) -> LaurentSeries:
    return (x if c == 1 else c * x).shift(s)


def _series(value: Value, order: int, power: int = 0) -> LaurentSeries:
    """A value's series times B^power, on the window it has at power 0.

    A term list's terms c q^s k^j Q are grouped by Q, and Q is expanded
    once and multiplied once by its group's sum of c q^s k^j B^power
    (``_k_part``); a group with no k at power 0 is scaled, shifted and
    added instead.
    """
    if isinstance(value, LaurentSeries):
        return value
    groups: dict[tuple[tuple[int, int], ...], list[tuple[int, int, int]]] = {}
    for c, s, j, factors in value:
        groups.setdefault(tuple(sorted(factors.items())), []).append((c, s, j))
    parts = []
    for key, terms in groups.items():
        quotient = expand_quotient(dict(key), order)
        if power or any(j for _, _, j in terms):
            ks = [_scaled(c, s, _k_part(j, power, order)) for c, s, j in terms]
            parts.append(quotient * sum(ks[1:], ks[0]))
        else:
            parts += [_scaled(c, s, quotient) for c, s, _ in terms]
    return sum(parts[1:], parts[0])


def _covered(value: Value, order: int, prec: int) -> LaurentSeries:
    """``_series`` of a value, a term list expanded only until its window reaches prec.

    A term c q^s k^j Q expanded to order N holds every exponent below
    s + N, so the sum reaches prec from N = prec - min(s) on, and never past order.
    """
    if isinstance(value, list):
        order = min(order, prec - min(s for _, s, _, _ in value))
    return _series(value, order)


def _leaf(name: str, order: int) -> Value:
    if name == _F1_AT_MINUS_Q:
        return expand_f(1, order).alternate_signs()
    if name in ("q", "k"):
        return [(1, int(name == "q"), int(name == "k"), {})]
    if name in TARGETS:
        return [(1, 0, 0, dict(TARGETS[name]))]
    if (factor := _FACTOR.fullmatch(name)) is None:
        raise ValueError(f"unknown name {name!r}")
    return [(1, 0, 0, {int(factor[1]): 1})]


def _product(x: Value, y: Value, order: int) -> Value:
    if isinstance(x, list) and isinstance(y, list):
        return [_times(a, b) for a in x for b in y]
    return _series(x, order) * _series(y, order)


def _evaluate(node: ast.expr, order: int) -> Value:
    """One side's value: a term list while it stays symbolic, else a series."""
    if isinstance(node, ast.Constant):
        return [(_integer(node), 0, 0, {})]
    if isinstance(node, ast.Name):
        return _leaf(node.id, order)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _negate(_evaluate(node.operand, order))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "extract" and len(node.args) == 3 and not node.keywords):
        side, step, residue = node.args
        return _series(_evaluate(side, order), order).extract(_integer(step), _integer(residue))
    op = type(node.op) if isinstance(node, ast.BinOp) else None
    if op not in (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow):
        raise ValueError(f"unsupported expression {ast.unparse(node)!r}")
    x = _evaluate(node.left, order)
    if op is ast.Pow:
        if (n := _integer(node.right)) < 1:
            raise ValueError(f"power must be a positive integer, got {n}")
        base = result = x
        for _ in range(n - 1):
            result = _product(result, base, order)
        return result
    y = _evaluate(node.right, order)
    if op is ast.Div:
        if not (isinstance(y, list) and len(y) == 1 and y[0][0] in (1, -1) and y[0][2] == 0):
            raise ValueError(f"cannot divide by {ast.unparse(node.right)!r}, not a unit term")
        y = [(c, -s, 0, {m: -e for m, e in factors.items()}) for c, s, _, factors in y]
    if op in (ast.Mult, ast.Div):
        return _product(x, y, order)
    y = _negate(y) if op is ast.Sub else y
    if isinstance(x, list) and isinstance(y, list):
        return x + y
    return _series(x, order) + _series(y, order)


def _read(statement: str, read: Callable[[ast.expr, ast.expr], Any]) -> Any:
    """``read`` of a statement's two sides, split and parsed; any failure names the statement."""
    try:
        sides = _REMARK.sub("", statement).split(" = ")
        if len(sides) != 2:
            raise ValueError("expected two sides separated by ' = '")
        return read(*(ast.parse(_python_syntax(side), mode="eval").body for side in sides))
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"cannot read identity {statement!r}: {exc}") from None


def _read_sides(statement: str, order: int,
                covered: bool = False) -> tuple[LaurentSeries, LaurentSeries]:
    """Both sides of a statement, expanded to the given order.

    With ``covered``, the sides compare as the full sides do, up to a
    witness's values: a term-list side facing a series (an ``extract``
    stops near order / 2) is expanded only as far as that series reaches,
    and term lists with k that start at one exponent are multiplied by B^J,
    J the highest power of k, which starts with 1: lhs - rhs keeps its
    first nonzero.
    """
    def expand(lhs: ast.expr, rhs: ast.expr) -> tuple[LaurentSeries, LaurentSeries]:
        if isinstance(lhs, ast.Constant):
            rhs = _series(_evaluate(rhs, order), order)
            return LaurentSeries.from_terms({0: _integer(lhs)}, rhs.offset, rhs.prec), rhs
        if isinstance(rhs, ast.Constant):
            lhs = _series(_evaluate(lhs, order), order)
            return lhs, LaurentSeries.from_terms({0: _integer(rhs)}, lhs.offset, lhs.prec)
        x, y = _evaluate(lhs, order), _evaluate(rhs, order)
        if covered and isinstance(x, LaurentSeries):
            return x, _covered(y, order, x.prec)
        if covered and isinstance(y, LaurentSeries):
            return _covered(x, order, y.prec), y
        if (covered and (power := max(j for _, _, j, _ in x + y))
                and len({min(s + j for _, s, j, _ in v) for v in (x, y)}) == 1):
            return _series(x, order, power), _series(y, order, power)
        return _series(x, order), _series(y, order)
    return _read(statement, expand)


CATALOG: dict[str, str] = {
    "EQ21": "f2^5/f10 = f1^5/f5 + 5q f1^2 f2 f10^3/f5^2",
    "EQ22": "f1/f5 = f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2)",
    "EQ23": "f1 f5^3 = f2^3 f10 - q f2 f8^2 f20^6/(f4^2 f10 f40^2)"
            " + 2q^2 f4 f20^3 - q^3 f4^4 f10 f40^2/(f2 f8^2)",
    "EQ24": "k f2 f5^5 = q f1 f10^5 (1 - k^2)   [cleared form of"
            " f2 f5^5/(q f1 f10^5) = 1/k - k]",
    "EQ25": "k f2^4 f5^2 = q f1^2 f10^4 (1 + k - k^2)   [cleared form of"
            " f2^4 f5^2/(q f1^2 f10^4) = 1/k + 1 - k]",
    "EQ26": "k f1^3 f5 = q f2 f10^3 (1 - 4k - k^2)   [cleared form of"
            " f1^3 f5/(q f2 f10^3) = 1/k - 4 - k]",
    "EQ27": "f2^4 f5^2/(q f1^2 f10^4) - f1^3 f5/(q f2 f10^3) = 5",
    "EQ28": "f1 f2 f5^5 = f2^4 f5^2 f10 - q f1^2 f10^5",
    "EQ29": "f1 f5^3 = f2^3 f10 - q (f10^5/f2)"
            " (f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2))^2",
    "NEGQ": "prod (1 - (-q)^n) = f2^3/(f1 f4)",
    "L22": "sum_{n>=-1} P*(2n+3) q^n = -4 f1^4 f5^4/q - 8 f2^4 f10^4",
    "EQ210": "sum_{n>=-1} M(2n+3) q^n = f1^4 f5^4/q - 8 f2^4 f10^4 + 10 f1 f2 f5^3 f10^3",
    "EQ211": "sum_{n>=-1} T*(2n+2) q^n = f1^4 f5^4/q + 10 f1 f2 f5^3 f10^3",
    "EQ212_ODDFREE": "extract(f2^3 f10 - q f2 f8^2 f20^6/(f4^2 f10 f40^2) + 2q^2 f4 f20^3"
                     " - q^3 f4^4 f10 f40^2/(f2 f8^2), 2, 0) = f1^3 f5 + 2q f2 f10^3",
    "EQ213_ODDFREE": "extract((f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2))^2, 2, 0)"
                     " = (f1 f4 f10^3/(f2 f5^3 f20))^2 + q (f2^2 f20/(f4 f5^2))^2",
}

MIN_ORDER = 16


def _statement(tag: str, order: int) -> str:
    """The catalog statement of one identity, once its id and order are checked."""
    if tag not in CATALOG:
        raise ValueError(f"unknown identity id {tag!r}; known ids: " + ", ".join(CATALOG))
    if order < MIN_ORDER:
        raise ValueError(f"order must be >= {MIN_ORDER}, got {order}")
    return CATALOG[tag]


def identity_sides(tag: str, order: int) -> tuple[LaurentSeries, LaurentSeries]:
    """Expand both sides of one catalog identity to the given order."""
    return _read_sides(_statement(tag, order), order)


def rhs_terms(statement: str) -> list[Term]:
    """The rhs of one statement as its terms (c, s, j, {m: e_m})."""
    terms = _read(statement, lambda _, rhs: _evaluate(rhs, MIN_ORDER))
    if not isinstance(terms, list):
        raise ValueError(f"the rhs of {statement!r} is a series, not a list of terms")
    return terms


def verify_identity(tag: str, order: int) -> Report:
    """Compare both sides coefficientwise, requiring order // 2 overlap.

    The halved requirement accommodates the 2-dissected entries, whose
    windows genuinely hold only about half as many coefficients.  The
    sides are read as ``_read_sides`` covers them, and a failure again in
    full, so the report equals that of the full sides from ``identity_sides``.
    """
    statement = _statement(tag, order)
    comparison = compare(*_read_sides(statement, order, covered=True), min_overlap=order // 2)
    if comparison.status == FAIL:  # the witness quotes the full sides' coefficients
        comparison = compare(*_read_sides(statement, order), min_overlap=order // 2)
    return Report.of(tag, statement, order, comparison)


def verify_all_identities(order: int) -> list[Report]:
    return [verify_identity(tag, order) for tag in CATALOG]


__all__ = [
    "CATALOG",
    "MIN_ORDER",
    "identity_sides",
    "rhs_terms",
    "verify_all_identities",
    "verify_identity",
]
