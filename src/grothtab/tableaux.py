"""Brute-force enumeration of semistandard and set-valued tableaux.

This is the ground-truth oracle of the package: every polynomial identity
and counting formula is ultimately checked against these streams.  The
enumeration backtracks cell by cell in row-major order; the two ordering
conditions only constrain a cell against its left and upper neighbours, so
each cell is checked as it is set and the generators are lazy.  A cell's
largest letter is capped at n minus the number of cells below it in its
column, so that every partial filling has a completion.  One iterative
backtracker serves every stream: an explicit stack of entry iterators over
tables of (entry's weight, largest letter) for the alphabet {lo..hi}, one
list of them per cap hi, indexed by hi - lo and built on first use
(streamed instead for an alphabet of more than _TABLE_LETTERS letters),
and each filling yielded as the sum of its cells' weights.  In an alphabet
of at most _TABLE_LETTERS // 2 letters the last two cells are fused: the
second-last cell reads one table of its entries' weights each plus every
weight the last cell can then take, and yields the prefix plus each, so
the last cell opens no search node.  Weighing an
entry as the 1-tuple (entry,) gives a filling's row-major tuple of cells,
which is how a SetValuedTableau stores it (its rows are a view).  Given
int weights per letter, enumerate_svt weighs an entry by the sum of its
letters' weights and yields each filling's key in place of the tableau:
the tableau sum counts those keys, and no tableau is built.
enumerate_sst takes the same units, so a count of semistandard tableaux
builds none either.
"""

import operator
from itertools import accumulate

from .partitions import Partition

# The largest alphabet {lo..hi} whose entries the backtracker keeps in a
# table; a larger one streams its entries, so that memory and the time to
# the first filling do not grow as 2^n.
_TABLE_LETTERS = 12


def _letter(v) -> int:
    """v itself if it is an int (a bool is not); ValueError otherwise."""
    if type(v) is not int:
        raise ValueError(f"letter {v!r} is not an int")
    return v


class SetValuedTableau:
    """Filling of a Young diagram by non-empty subsets of {1..n}.

    Entries are stored as `cells`, the row-major tuple of sorted letter
    tuples, and `rows` cuts them by the shape's parts.  The constructor
    takes rows, refuses with ValueError rows off the shape and a letter
    that is not an int (bools included), and sorts each cell; the
    enumerators build their tableaux, already sorted, unchecked.  A filling
    is valid when every row satisfies max(cell) <= min(right neighbour) and
    every column satisfies max(cell) < min(lower neighbour); an
    all-singleton filling is an ordinary semistandard tableau.
    """

    __slots__ = ("shape", "n", "cells")

    def __init__(self, shape, n: int, rows):
        self.shape = Partition(shape)
        self.n = operator.index(n)
        rows = [tuple(row) for row in rows]
        if tuple(map(len, rows)) != self.shape.parts:
            raise ValueError(f"rows of lengths {tuple(map(len, rows))} do not fill the "
                             f"shape {self.shape.parts}")
        self.cells = tuple(tuple(sorted(map(_letter, cell))) for row in rows for cell in row)

    @classmethod
    def _of(cls, shape: Partition, n: int, cells: tuple) -> "SetValuedTableau":
        """A tableau from a Partition, an int and row-major sorted letter
        tuples, set unchecked: the enumerators build only such values."""
        tableau = object.__new__(cls)
        tableau.shape = shape
        tableau.n = n
        tableau.cells = cells
        return tableau

    @property
    def rows(self) -> tuple:
        """The cells cut into rows by the shape's parts."""
        return tuple(self.cells[end - p:end] for p, end in zip(self.shape, accumulate(self.shape)))

    @property
    def size(self) -> int:
        """Total number of assigned letters |T|."""
        return sum(map(len, self.cells))

    @property
    def excess(self) -> int:
        """|T| minus the number of boxes; zero iff all entries are singletons."""
        return self.size - self.shape.size

    def __eq__(self, other):
        if not isinstance(other, SetValuedTableau):
            return NotImplemented
        # (2,) and (1,1) can hold the same row-major cells
        return self.shape == other.shape and self.n == other.n and self.cells == other.cells

    def __hash__(self):
        return hash((self.shape, self.n, self.cells))

    def __repr__(self):
        return f"SetValuedTableau({self.shape!r}, {self.n}, {self.compact_str()!r})"

    def compact_str(self) -> str:
        """One-line rendering: cells separated by spaces, rows by commas.
        The letters of a cell are concatenated ('23' for {2,3}) when n <= 9
        and joined by dots ('1.2' for {1,2}) when n >= 10, so that {12} and
        {1,2} differ."""
        sep = "." if self.n >= 10 else ""
        return ",".join(" ".join(sep.join(map(str, cell)) for cell in row) for row in self.rows)

    def to_json(self):
        """Nested arrays: rows of cells of letters."""
        return [[list(cell) for cell in row] for row in self.rows]

    @classmethod
    def from_json(cls, data, n: int) -> "SetValuedTableau":
        shape = Partition(len(row) for row in data)
        return cls(shape, n, data)


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


def _backtrack(shape, nvars: int, entries, weigh, empty):
    """Lazy stream of the fillings whose cells take entries from
    entries(lo, hi), where lo is the smallest letter the left and upper
    neighbours allow and hi is nvars minus the number of cells below the
    cell in its column; cells are filled row-major.  Each filling is
    yielded as empty plus weigh(entry) for each of its cells in turn: each
    table item carries its entry's weight, prefix[k] holds the sum for
    cells 0..k-1 as the stack sets them.  Every cell before the leaf keeps
    an iterator on the stack; the leaf runs through its choices in a plain
    loop.  The leaf is the last cell, which yields prefix plus its own
    weight, or, in an alphabet of at most _TABLE_LETTERS // 2 letters, the
    second-last cell: the last two cells are fused, and the leaf yields
    prefix plus each item of one table holding the weight of each of its
    entries plus that of each entry the last cell can then take, in stream
    order (at most 63^2 sums), keyed by the leaf's lo and by the largest
    letter of the last cell's other neighbour, the one that is not the
    leaf, so the last cell opens no search node.  The cells with one cap
    hi share one list of _TABLE_LETTERS tables, the one for entries(lo, hi)
    at index hi - lo, so a table is found by two list reads and a larger
    alphabet streams: nothing kept grows with nvars (the fused tables are
    at most 7 x 7).

    Each cell below needs a larger letter than the one above it, so the
    cap drops only entries that no completion can hold: entries(lo, hi) is
    the subsequence of entries(lo, nvars) of largest letter at most hi.
    No partial filling is then a dead end.  A left neighbour has at
    least as many cells below it, so its largest letter is at most hi, and
    an upper neighbour's is at most hi - 1: lo <= hi at every cell.
    """
    shape, nvars = Partition(shape), operator.index(nvars)
    if len(shape) > nvars:
        return
    parts = shape.parts
    if not parts:
        yield empty
        return
    size = shape.size
    last = size - 1
    # for each cell: its left and upper neighbours (size, whose largest
    # letter is tops[size] = 0, where there is none), its largest letter
    # hi, and tables[k], one list shared by the cells with that hi:
    # tables[k][hi - lo] is (weight, largest letter) for each entry of
    # entries(lo, hi), built on first use; an alphabet {lo..hi} of more
    # than _TABLE_LETTERS letters is streamed each time instead
    left, up, caps = [], [], []
    start = 0
    for i, p in enumerate(parts):
        for j in range(p):
            left.append(start + j - 1 if j else size)
            up.append(start - parts[i - 1] + j if i else size)
            caps.append(nvars - sum(1 for below in parts[i + 1:] if below > j))
        start += p
    tables = [*map({hi: [None] * _TABLE_LETTERS for hi in caps}.get, caps)]
    stack = [None] * size
    prefix = [empty] * size
    tops = [0] * (size + 1)
    # the leaf, whose choices are yielded in a plain loop: the last cell,
    # or the second-last in an alphabet of at most _TABLE_LETTERS // 2
    # letters, where the last two cells are fused
    fuse = size > 1 and nvars <= _TABLE_LETTERS // 2
    leaf = last - 1 if fuse else last
    if fuse:
        # the fused tables, sums[lo][tops[other]]: other is the last cell's
        # neighbour that is not the leaf (size if none), and the leaf's lo
        # with that neighbour's largest letter fixes every choice of the
        # last two cells; at most 7 x 7 tables of at most 63^2 sums
        other = left[last] if up[last] == leaf else up[last]
        sums = [[None] * (nvars + 1) for _ in range(nvars + 1)]

    def pairs(k, lo):
        """(weight, largest letter) for each entry of cell k from lo."""
        hi = caps[k]
        if hi - lo >= _TABLE_LETTERS:
            return ((weigh(e), e[-1]) for e in entries(lo, hi))
        table = tables[k][hi - lo]
        if table is None:
            table = tables[k][hi - lo] = tuple((weigh(e), e[-1]) for e in entries(lo, hi))
        return table

    def fused(lo):
        """The leaf's summed weights from lo, kept in sums."""
        # the leaf's largest letter is set in tops as the stack would set
        # it, so the last cell's bound is read as at every cell
        table = []
        for weight, tops[leaf] in pairs(leaf, lo):
            lo_last = max(tops[left[last]], tops[up[last]] + 1)
            table += [weight + w for w, _ in pairs(last, lo_last)]
        table = sums[lo][tops[other]] = tuple(table)
        return table

    k = 0  # the cell to open
    while True:
        lo, above = tops[left[k]], tops[up[k]] + 1
        if above > lo:
            lo = above
        if k == leaf:
            stem = prefix[leaf]
            if fuse:
                table = sums[lo][tops[other]]
                if table is None:
                    table = fused(lo)
                for total in table:
                    yield stem + total
            else:
                hi = caps[last]
                table = tables[last][hi - lo] if hi - lo < _TABLE_LETTERS else None
                for weight, _ in pairs(last, lo) if table is None else table:
                    yield stem + weight
            k -= 1
        else:
            hi = caps[k]
            table = tables[k][hi - lo] if hi - lo < _TABLE_LETTERS else None
            stack[k] = iter(pairs(k, lo) if table is None else table)
        # the next choice of cell k, backing up past exhausted cells
        while k >= 0:
            for weight, tops[k] in stack[k]:
                prefix[k + 1] = prefix[k] + weight
                break
            else:
                k -= 1
                continue
            break
        else:
            return
        k += 1


def _tableaux(shape, nvars, entries):
    """The fillings of _backtrack as SetValuedTableau values: an entry
    weighs the 1-tuple (entry,), so a filling sums to its cells."""
    shape, nvars = Partition(shape), operator.index(nvars)
    make = SetValuedTableau._of
    for cells in _backtrack(shape, nvars, entries, lambda entry: (entry,), ()):
        yield make(shape, nvars, cells)


def enumerate_svt(shape, nvars: int, units=None):
    """All set-valued tableaux of the given shape on letters 1..nvars.

    Lazy stream; each tableau appears exactly once, cells filled row-major
    with candidate entries in (min, lexicographic) order.  Empty when the
    shape has more rows than letters.  With units, a sequence of int
    weights indexed by letter (index 0 unused), the stream yields in place
    of each tableau its key, the sum of the weights of all its letters.
    """
    if units is None:
        return _tableaux(shape, nvars, _subsets_lex)
    return _backtrack(shape, nvars, _subsets_lex, lambda e: sum(map(units.__getitem__, e)), 0)


def enumerate_sst(shape, nvars: int, units=None):
    """All semistandard tableaux (singleton entries), same conventions as
    enumerate_svt, units included."""
    if units is None:
        return _tableaux(shape, nvars, _singletons)
    return _backtrack(shape, nvars, _singletons, lambda e: units[e[0]], 0)
