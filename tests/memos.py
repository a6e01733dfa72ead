"""The package's per-(shape, n) memos, and the one call that clears them.

MEMOS holds the tableau sum, its diagonal (the counts by excess), the
coupled series as a polynomial in z and the row and column checks' Gauss
series, also a polynomial in z.
test_mutants.test_every_memo_in_the_package_is_cleared requires every
grothtab module attribute with cache_clear to be in MEMOS, so a test
that clears through clear_memos clears every memo, not the one it names.
"""

from grothtab import grothendieck, hypergeom, identities

MEMOS = (grothendieck._tableau_sum, identities._diagonal, hypergeom._shape_series,
         identities._gauss_series)


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()
