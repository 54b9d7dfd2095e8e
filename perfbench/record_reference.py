"""Record the digests that gate the session workload into reference.json.

Coefficients come from ``etaq.oracle.direct_eta_product``, the literal
factor-by-factor product, never from the expander the session times; the
expected dump texts are rebuilt here from those coefficients.  Run once
from the repository root (it takes about 15 s):

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def factors_of(text: str) -> dict[int, int]:
    factors = {}
    for term in text.split("*"):
        m = re.fullmatch(r"f([0-9]+)(?:\^(-?[0-9]+))?", term)
        factors[int(m.group(1))] = int(m.group(2) or 1)
    return factors


def dump(offset: int, coeffs: list[int]) -> str:
    return "\n".join([f"offset={offset} prec={offset + len(coeffs)}"]
                     + [str(c) for c in coeffs])


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from etaq.oracle import direct_eta_product

    orders = sorted({*workloads.FIRST_ORDERS, *workloads.LOWER_ORDERS, workloads.TOP_ORDER})
    quotients = {}
    for q in workloads.QUOTIENTS:
        c = list(direct_eta_product(factors_of(q), workloads.TOP_ORDER).coeffs)
        quotients[q] = {
            "expand": {str(o): workloads.digest(dump(0, c[:o])) for o in orders},
            "dissect": {f"{m}:{r}": {str(o): workloads.digest(dump(0, c[r:o:m]))
                                     for o in orders}
                        for m, r in workloads.DISSECTIONS},
            "coeff": {str(n): workloads.digest(str(c[n])) for n in workloads.COEFF_INDICES},
        }
        print(q, file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump({"source": "etaq.oracle.direct_eta_product", "digest": "blake2b-64",
                   "orders": orders, "quotients": quotients}, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
