"""Exact q-series laboratory.

Expands eta-quotient generating functions as exact integer coefficient
windows, verifies a catalog of series identities and 2-power dissection /
congruence families against them, and cross-checks the expander with an
independent oracle: the Durfee-square sum for p(n), Euler's series for f1,
eta products built from those two sums, and k(q) from Euler's and
Cauchy's sums for its factors (q^r; q^10)_inf.

The package re-exports every module's ``__all__``, and those lists are
the only lists of public names.
"""

from .series import *
from .eta import *
from .identities import *
from .sequences import *
from .congruences import *
from .oracle import *

__version__ = "0.1.0"

# Importing a submodule binds its name here.  eta re-exports series'
# EmptyWindow, and dict.fromkeys keeps only its first place.
__all__ = list(dict.fromkeys([*series.__all__, *eta.__all__, *identities.__all__,
                              *sequences.__all__, *congruences.__all__, *oracle.__all__]))
