"""Brute-force enumeration of semistandard and set-valued tableaux.

This is the ground-truth oracle of the package: every polynomial identity
and counting formula is ultimately checked against these streams.  The
enumeration backtracks cell by cell in row-major order; the two ordering
conditions only constrain a cell against its left and upper neighbours, so
the pruning is exact and the generators are lazy.
"""

import operator

from .partitions import Partition


class SetValuedTableau:
    """Filling of a Young diagram by non-empty subsets of {1..n}.

    Entries are stored row-major as tuples of sorted letter tuples; the
    constructor sorts each cell it is given, and the enumerators build
    their tableaux, already sorted, unchecked.  A filling is valid when
    every row satisfies max(cell) <= min(right neighbour) and every column
    satisfies max(cell) < min(lower neighbour); an all-singleton filling is
    an ordinary semistandard tableau.
    """

    __slots__ = ("shape", "n", "rows")

    def __init__(self, shape, n: int, rows):
        self.shape = Partition(shape)
        self.n = operator.index(n)
        self.rows = tuple(tuple(tuple(sorted(cell)) for cell in row) for row in rows)

    @classmethod
    def _of(cls, shape: Partition, n: int, rows: tuple) -> "SetValuedTableau":
        """A tableau from a Partition, an int and rows of sorted letter
        tuples, set unchecked: the enumerators build only such values."""
        tableau = object.__new__(cls)
        tableau.shape = shape
        tableau.n = n
        tableau.rows = rows
        return tableau

    def entry(self, i: int, j: int) -> tuple[int, ...]:
        """The letters assigned to cell (i, j), 1-based, sorted."""
        return self.rows[i - 1][j - 1]

    @property
    def size(self) -> int:
        """Total number of assigned letters |T|."""
        return sum(len(cell) for row in self.rows for cell in row)

    @property
    def excess(self) -> int:
        """|T| minus the number of boxes; zero iff all entries are singletons."""
        return self.size - self.shape.size

    def is_semistandard(self) -> bool:
        return all(len(cell) == 1 for row in self.rows for cell in row)

    def __eq__(self, other):
        if not isinstance(other, SetValuedTableau):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"SetValuedTableau({self.shape!r}, {self.n}, {self.compact_str()!r})"

    def compact_str(self) -> str:
        """One-line rendering: letters of a cell concatenated ('23' for
        {2,3}), cells separated by spaces, rows by commas.  Meant for
        single-digit alphabets."""
        return ",".join(" ".join("".join(str(v) for v in cell) for cell in row) for row in self.rows)

    def to_json(self):
        """Nested arrays: rows of cells of letters."""
        return [[list(cell) for cell in row] for row in self.rows]

    @classmethod
    def from_json(cls, data, n: int) -> "SetValuedTableau":
        shape = Partition(len(row) for row in data)
        return cls(shape, n, data)


def is_valid(tableau: SetValuedTableau) -> bool:
    """Whether the filling satisfies both ordering conditions.

    Also checks the structural basics: the rows match the shape and every
    entry is a non-empty strictly increasing tuple of letters in 1..n.
    """
    shape = tableau.shape
    if tuple(len(row) for row in tableau.rows) != shape.parts:
        return False
    for row in tableau.rows:
        for cell in row:
            if not cell:
                return False
            if any(v < 1 or v > tableau.n for v in cell):
                return False
            if any(a >= b for a, b in zip(cell, cell[1:])):
                return False
    for i, j in shape.cells():
        cell = tableau.entry(i, j)
        if j > 1 and tableau.entry(i, j - 1)[-1] > cell[0]:
            return False
        if i > 1 and tableau.entry(i - 1, j)[-1] >= cell[0]:
            return False
    return True


def _subsets_lex(lo: int, n: int):
    """Non-empty subsets of {lo..n} as sorted tuples, in lexicographic
    order (equivalently: by minimum, then lexicographically)."""
    for v in range(lo, n + 1):
        yield (v,)
        for tail in _subsets_lex(v + 1, n):
            yield (v,) + tail


def _singletons(lo: int, n: int):
    """Singleton entries (v,) for v in lo..n, in increasing order."""
    for v in range(lo, n + 1):
        yield (v,)


def _backtrack(shape, nvars: int, entries):
    """Lazy stream of the fillings whose cells take entries from
    entries(lo, nvars), where lo is the smallest letter the left and upper
    neighbours allow; cells are filled row-major."""
    shape, nvars = Partition(shape), operator.index(nvars)
    if len(shape) > nvars:
        return
    cells = shape.cells()
    grid = [[None] * p for p in shape.parts]

    def fill(idx):
        if idx == len(cells):
            yield SetValuedTableau._of(shape, nvars, tuple(map(tuple, grid)))
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


def enumerate_svt(shape, nvars: int):
    """All set-valued tableaux of the given shape on letters 1..nvars.

    Lazy stream; each tableau appears exactly once, cells filled row-major
    with candidate entries in (min, lexicographic) order.  Empty when the
    shape has more rows than letters.
    """
    return _backtrack(shape, nvars, _subsets_lex)


def enumerate_sst(shape, nvars: int):
    """All semistandard tableaux (singleton entries), same conventions as
    enumerate_svt."""
    return _backtrack(shape, nvars, _singletons)
