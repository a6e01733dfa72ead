"""The package's per-(shape, n) memos, and the one call that clears them.

MEMOS holds the tableau sum, its diagonal and the series as a polynomial
in z.  test_mutants.test_every_memo_in_the_package_is_cleared requires
every grothtab module attribute with cache_clear to be in MEMOS, so a
test that clears through clear_memos clears every memo, not the one it
names.
"""

from grothtab import grothendieck, hypergeom, identities

MEMOS = (grothendieck._tableau_sum, identities._diagonal, hypergeom._shape_series)


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()
