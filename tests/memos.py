"""The one call that clears the package's per-(shape, n) memos.

clear_memos clears every attribute with cache_clear in every grothtab
module: today the tableau sum and its diagonal (the counts by excess), the
bi-alternant's Kostka table, horizontal strips and orbit keys, the beta
tables and the one kernel's sums by exponent set (the Schur coefficients
of the bi-alternants and the shifted-exponent expansion's grouped
terms), the coupled series as a polynomial in z, alone and times
|SST|, the row and column checks' Gauss series, also a polynomial in
z, and thm-3.5's points (1, q, ..., q^(n-1)).  A memo is found where it is defined, so a
new module-level memo is cleared without being listed here, and a test
that clears through clear_memos clears every memo, not the one it names.
"""

import importlib
import pkgutil

import grothtab


def clear_memos() -> None:
    for info in pkgutil.iter_modules(grothtab.__path__):
        module = importlib.import_module(f"grothtab.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
