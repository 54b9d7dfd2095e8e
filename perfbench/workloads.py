"""Workload inputs and correctness gates for the etaq benchmark.

Nothing here imports etaq: the inputs are generated from the seed alone,
and every gate judges a response against data that does not come from
the timed code path (the CLI's own verdict rows, or coefficient digests
in ``reference.json`` computed with ``etaq.oracle.direct_eta_product``).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("verify_all", "oracle_check", "session")

CLI_ARGV = {
    "verify_all": ["verify", "all", "--order", "2000", "--kmax", "8", "--format", "json"],
    "oracle_check": ["oracle", "cross-check", "--order", "2000", "--format", "json"],
}
# Pass rows the seed commit reports for each CLI workload; fewer is a failure.
MIN_PASS_ROWS = {"verify_all": 92, "oracle_check": 16}

# The 31 distinct quotients the identity catalog expands (the targets M,
# T* and P* among them) and 1/f1 for p(n), written as a client would.
QUOTIENTS = (
    "f2^5*f10^-1", "f1^5*f5^-1", "f1^2*f2*f5^-2*f10^3", "f1*f5^-1",
    "f2*f8*f20^3*f4^-1*f10^-3*f40^-1", "f4^2*f40*f8^-1*f10^-2", "f1*f5^3",
    "f2^3*f10", "f2*f8^2*f20^6*f4^-2*f10^-1*f40^-2", "f4*f20^3",
    "f4^4*f10*f40^2*f2^-1*f8^-2", "f1*f10^5", "f2*f5^5", "f1^2*f10^4",
    "f2^4*f5^2", "f2*f10^3", "f1^3*f5", "f2^4*f5^2*f1^-2*f10^-4",
    "f1^3*f5*f2^-1*f10^-3", "f1*f2*f5^5", "f2^4*f5^2*f10", "f1^2*f10^5",
    "f10^5*f2^-1", "f2^3*f1^-1*f4^-1", "f1^4*f5^4", "f2^4*f10^4",
    "f1*f2*f5^3*f10^3", "f1^2*f4^2*f10^6*f2^-2*f5^-6*f20^-2",
    "f2^4*f20^2*f4^-2*f5^-4", "f2^5*f5^5*f1^-1*f10^-1",
    "f1^5*f10^5*f2^-1*f5^-1", "f1^-1",
)
IDENTITIES = (
    "EQ21", "EQ22", "EQ23", "EQ24", "EQ25", "EQ26", "EQ27", "EQ28", "EQ29",
    "NEGQ", "L22", "EQ210", "EQ211", "EQ212_ODDFREE", "EQ213_ODDFREE",
)

# The session is a synthetic design, not observed usage: nothing records
# how library clients call etaq.  Each class is there to exercise one
# path.  Every seed gets the same number of requests of each kind at each
# (cache class, order), so a session costs about the same whatever the
# seed; the seed picks which quotient gets which orders, the dissections,
# the coefficients and the interleaving.  Per quotient:
#   fill   first expansion, at an order from FIRST_ORDERS (a first look
#          at a few hundred terms): the cold expansion path
#   fill   the quotient again at TOP_ORDER, the CLI's order (a higher
#          order than before): the cache-write path that a window cache
#          would extend instead of recomputing
#   lower  one order from LOWER_ORDERS, below TOP_ORDER and never asked
#          before: a prefix-stable window cache would serve it, an
#          lru_cache keyed by (quotient, order) recomputes it
#   exact  13 repeats of a (quotient, order) asked before (REPEATS_OF):
#          the read path (cache hit, dump, extract), made the majority
#          so that a slower read shows in latency_p50_ms
# One lower-order request per quotient exercises the window-cache path for
# every quotient while fills keep most of the cost, as they do today.
# Thirteen exact repeats make reads the majority and keep a session to
# 6-7 s, so that a run holds several.
FIRST_ORDERS = (300, 400, 500, 600)  # each the first order of 8 quotients
TOP_ORDER = 2000
LOWER_ORDERS = (900, 1100)  # each the lower order of 16 quotients
# The exact repeats of each quotient, by the fill they repeat.
REPEATS_OF = {"first": 5, "top": 6, "lower": 2}
# Each catalog identity is verified once, at an order no expansion request
# uses, after every quotient's TOP_ORDER fill.  So today's lru_cache
# computes every identity cold, and a window cache could serve each of
# its catalog quotients from a TOP_ORDER window, whatever the seed.
IDENTITY_ORDER = 1000
DISSECTIONS = ((2, 0), (2, 1), (4, 3), (5, 4))
# Both parities and every residue class mod 4 and mod 5, so that quotients
# that are series in q^2 or q^4, and the zero classes of the congruences,
# also have indices with nonzero coefficients.
COEFF_INDICES = (1, 2, 7, 10, 48, 50, 99, 123, 199, 250, 299,
                 500, 512, 599, 876, 999, 1000, 1500, 1733, 1999)
# Shares of request kinds within each (cache class, order) group of
# quotient requests, rounded to whole requests. Identity requests come on top.
KIND_SHARES = {"expand": 0.4, "dissect": 0.2, "coeff": 0.4}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _balanced(values, n: int, rng: random.Random) -> list:
    """``n`` items cycling through ``values``, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _move_first(tokens: list[str], group: set[str], name: str) -> None:
    """Swap ``name`` into the earliest position held by a token of ``group``."""
    i = min(k for k, t in enumerate(tokens) if t in group)
    j = tokens.index(name)
    tokens[i], tokens[j] = tokens[j], tokens[i]


def session_requests(seed: int) -> list[dict]:
    """The seeded request stream of one library-client session.

    Each request is a dict with ``kind`` (expand, dissect, coeff or
    identity) and its arguments; quotient requests also carry ``cache``,
    the class of their (quotient, order) key: fill, exact or lower.
    Every seed gets the same number of requests of each kind at each
    (cache class, order); the seed decides which quotient, which
    dissection, which coefficient and when.
    """
    rng = random.Random(seed)
    orders, events = {}, {}
    firsts = _balanced(FIRST_ORDERS, len(QUOTIENTS), rng)
    lowers = _balanced(LOWER_ORDERS, len(QUOTIENTS), rng)
    for q, first, lower in zip(QUOTIENTS, firsts, lowers):
        orders[q] = {"first": first, "top": TOP_ORDER, "lower": lower}
        rest = ["top", "lower"] + [f"again-{fill}" for fill, count in REPEATS_OF.items()
                                   for _ in range(count)]
        rng.shuffle(rest)
        # A repeat comes after the fill it repeats, the lower order after the top one.
        _move_first(rest, {"top", "lower", "again-top", "again-lower"}, "top")
        _move_first(rest, {"lower", "again-lower"}, "lower")
        events[q] = ["first"] + rest
    turns = [q for q in QUOTIENTS for _ in events[q]]
    rng.shuffle(turns)

    seen: dict[str, list[int]] = {q: [] for q in QUOTIENTS}
    position = dict.fromkeys(QUOTIENTS, 0)
    requests = []
    for q in turns:
        order = orders[q][events[q][position[q]].removeprefix("again-")]
        position[q] += 1
        cache = "exact" if order in seen[q] else (
            "fill" if not seen[q] or order > max(seen[q]) else "lower")
        seen[q].append(order)
        requests.append({"kind": None, "quotient": q, "order": order, "cache": cache})

    groups: dict[tuple[str, int], list[dict]] = {}
    for request in requests:
        groups.setdefault((request["cache"], request["order"]), []).append(request)
    for key in sorted(groups):
        group = groups[key]
        n = len(group)
        kinds = [k for k, share in KIND_SHARES.items() for _ in range(round(share * n))]
        for request, kind in zip(group, _balanced((kinds + ["expand"] * n)[:n], n, rng)):
            request["kind"] = kind
        dissects = [r for r in group if r["kind"] == "dissect"]
        for request, (step, residue) in zip(dissects,
                                            _balanced(DISSECTIONS, len(dissects), rng)):
            request["step"], request["residue"] = step, residue
        for request in group:
            if request["kind"] == "coeff":
                request["index"] = rng.choice([i for i in COEFF_INDICES if i < key[1]])

    after_top = 1 + max(i for i, r in enumerate(requests) if r["order"] == TOP_ORDER
                        and r["cache"] == "fill")
    identities = list(IDENTITIES)
    rng.shuffle(identities)
    for tag in identities:
        requests.insert(rng.randrange(after_top, len(requests) + 1),
                        {"kind": "identity", "id": tag, "order": IDENTITY_ORDER})
    return requests


def session_shares(requests: list[dict]) -> dict[str, dict[str, float]]:
    """Share of each cache class among quotient requests, and of each kind."""
    quotient = [r for r in requests if r["kind"] != "identity"]
    cache = {c: sum(r["cache"] == c for r in quotient) / len(quotient)
             for c in ("fill", "exact", "lower")}
    kinds = {k: sum(r["kind"] == k for r in requests) / len(requests)
             for k in ("expand", "dissect", "coeff", "identity")}
    return {"cache": cache, "kind": kinds}


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def expected_digest(reference: dict, request: dict) -> str | None:
    """Recorded digest of the correct response to one quotient request."""
    entry = reference["quotients"].get(request["quotient"], {})
    order = str(request["order"])
    if request["kind"] == "expand":
        return entry.get("expand", {}).get(order)
    if request["kind"] == "dissect":
        key = f"{request['step']}:{request['residue']}"
        return entry.get("dissect", {}).get(key, {}).get(order)
    return entry.get("coeff", {}).get(str(request["index"]))


def session_response_ok(reference: dict, request: dict, response: dict) -> bool:
    """True when one session response matches the reference.

    A response is ``{"digest": ...}`` for quotient requests (the digest of
    the dump text, or of the decimal coefficient), ``{"status", "id",
    "order"}`` for identity requests, and ``{"error": ...}`` when the call
    raised; an error is always a failure.
    """
    if "error" in response:
        return False
    if request["kind"] == "identity":
        return (response.get("status") == "pass" and response.get("id") == request["id"]
                and response.get("order") == request["order"])
    expected = expected_digest(reference, request)
    return expected is not None and response.get("digest") == expected


def cli_output_ok(workload: str, exit_code: int, stdout: str) -> tuple[bool, dict]:
    """Gate for one CLI call: exit 0, no fail row, enough pass rows.

    Returns the verdict and the row counts it was based on.
    """
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError:
        return False, {"exit_code": exit_code, "parse_error": True}
    rows = document.get("reports" if workload == "verify_all" else "checks", [])
    statuses = [row.get("status") for row in rows]
    counts = {"exit_code": exit_code, "pass": statuses.count("pass"),
              "fail": statuses.count("fail"), "rows": len(statuses)}
    ok = (exit_code == 0 and counts["fail"] == 0
          and counts["pass"] >= MIN_PASS_ROWS[workload])
    return ok, counts
