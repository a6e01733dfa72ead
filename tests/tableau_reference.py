"""Test-only references for the tableau layer.

The recursive backtracker and the letter-loop tableau sum are the
straightforward forms of the package's iterative backtracker and packed
fill; the tests pin the package against them.  conjugate, entry,
is_semistandard, is_valid and schur_tableau_sum are used by the tests
alone.
"""

import operator

from grothtab.grothendieck import BETA
from grothtab.partitions import Partition
from grothtab.polynomials import Poly
from grothtab.tableaux import SetValuedTableau, enumerate_sst

from poly_reference import coefficient


def conjugate(shape) -> Partition:
    """Transpose of the diagram."""
    parts = Partition(shape).parts
    if not parts:
        return Partition()
    return Partition(sum(1 for p in parts if p > j) for j in range(parts[0]))


def is_semistandard(tableau: SetValuedTableau) -> bool:
    """Whether every entry is a single letter."""
    return all(len(cell) == 1 for row in tableau.rows for cell in row)


def entry(tableau: SetValuedTableau, i: int, j: int) -> tuple[int, ...]:
    """The letters assigned to cell (i, j), 1-based, sorted."""
    return tableau.rows[i - 1][j - 1]


def is_valid(tableau: SetValuedTableau) -> bool:
    """Whether the filling satisfies both ordering conditions.

    Also checks that every entry is a non-empty strictly increasing tuple
    of letters in 1..n; the constructor has matched the rows to the shape.
    """
    for cell in tableau.cells:
        if not cell:
            return False
        if any(v < 1 or v > tableau.n for v in cell):
            return False
        if any(a >= b for a, b in zip(cell, cell[1:])):
            return False
    for i, j in tableau.shape.cells():
        cell = entry(tableau, i, j)
        if j > 1 and entry(tableau, i, j - 1)[-1] > cell[0]:
            return False
        if i > 1 and entry(tableau, i - 1, j)[-1] >= cell[0]:
            return False
    return True


def _subsets_lex(lo: int, n: int):
    """Non-empty subsets of {lo..n} as sorted tuples, in lexicographic
    order."""
    for v in range(lo, n + 1):
        yield (v,)
        for tail in _subsets_lex(v + 1, n):
            yield (v,) + tail


def _singletons(lo: int, n: int):
    for v in range(lo, n + 1):
        yield (v,)


def _backtrack(shape, nvars: int, entries):
    """One recursive generator frame per cell, row-major, each cell taking
    entries(lo, nvars) for the smallest letter lo its neighbours allow."""
    shape, nvars = Partition(shape), operator.index(nvars)
    if len(shape) > nvars:
        return
    cells = shape.cells()
    grid = [[None] * p for p in shape.parts]

    def fill(idx):
        if idx == len(cells):
            yield SetValuedTableau(shape, nvars, grid)
            return
        i, j = cells[idx]
        lo = 1
        if j > 1:
            lo = max(lo, grid[i - 1][j - 2][-1])
        if i > 1:
            lo = max(lo, grid[i - 2][j - 1][-1] + 1)
        for entry in entries(lo, nvars):
            grid[i - 1][j - 1] = entry
            yield from fill(idx + 1)
        grid[i - 1][j - 1] = None

    yield from fill(0)


def reference_svt(shape, nvars: int):
    return _backtrack(shape, nvars, _subsets_lex)


def reference_sst(shape, nvars: int):
    return _backtrack(shape, nvars, _singletons)


def reference_tableau_sum(tableaux, shape, nvars: int) -> Poly:
    """Sum of b^excess x^weight over the given fillings, one letter at a
    time."""
    boxes = Partition(shape).size
    terms: dict[tuple[int, ...], int] = {}
    for tableau in tableaux:
        counts = [0] * nvars
        letters = 0
        for row in tableau.rows:
            for cell in row:
                letters += len(cell)
                for v in cell:
                    counts[v - 1] += 1
        key = (letters - boxes, *counts)
        terms[key] = terms.get(key, 0) + 1
    return Poly((BETA, *(f"x{i}" for i in range(1, nvars + 1))), terms)


def schur_tableau_sum(shape, nvars: int) -> Poly:
    """Sum of x^weight over all semistandard fillings; symmetric in the x's.

    Zero polynomial when the shape has more rows than variables.
    """
    return coefficient(reference_tableau_sum(enumerate_sst(shape, nvars), shape, nvars), BETA, 0)
