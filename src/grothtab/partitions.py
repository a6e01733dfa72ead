"""Integer partitions, Young diagrams, hooks, and semistandard counts.

Cells are 1-based (row, column) pairs in matrix convention: the row index
grows downwards, the column index to the right.
"""

import operator
from fractions import Fraction
from math import prod

from .arith import exact_count


class Partition:
    """Weakly decreasing sequence of positive parts, e.g. Partition([4, 3]).

    Trailing zeros are stripped on construction, so (2, 1) and (2, 1, 0)
    denote the same value.  Non-weakly-decreasing or negative input is
    rejected rather than silently sorted, and a part that is not an int
    (2.5) raises TypeError rather than being cut down; a tuple that is no
    partition compares unequal.  Partition(p) of a Partition p shares
    p.parts, which were checked when p was made.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            self.parts = parts.parts
            return
        parts = tuple(operator.index(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts are not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def size(self) -> int:
        """Number of boxes in the diagram."""
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            try:
                return self == Partition(other)
            except (TypeError, ValueError):
                return False
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def padded(self, n: int) -> tuple[int, ...]:
        """The parts padded with zeros to length n (requires len <= n)."""
        if len(self.parts) > n:
            raise ValueError(f"cannot pad {self} to length {n}")
        return self.parts + (0,) * (n - len(self.parts))

    def contains(self, i: int, j: int) -> bool:
        """Whether the cell (i, j) lies in the diagram."""
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def cells(self) -> list[tuple[int, int]]:
        """All cells in row-major order: (1,1), (1,2), ..."""
        return [(i, j) for i, p in enumerate(self.parts, start=1) for j in range(1, p + 1)]

    def hook_length(self, i: int, j: int) -> int:
        """Arm + leg + 1 of the cell (i, j)."""
        if not self.contains(i, j):
            raise ValueError(f"cell ({i},{j}) outside {self}")
        arm = self.parts[i - 1] - j
        leg = sum(1 for p in self.parts[i:] if p >= j)
        return arm + leg + 1


def count_sst_product(shape, nvars: int) -> int:
    """Number of semistandard fillings with letters 1..nvars.

    Pairwise-difference product over the zero-padded shape:
    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i).
    Returns 0 when the shape has more rows than letters.
    """
    nvars = operator.index(nvars)
    shape = Partition(shape)
    if len(shape) > nvars:
        return 0
    lam = shape.padded(nvars)
    pairs = [(i, j) for j in range(nvars) for i in range(j)]
    total = Fraction(prod(lam[i] - lam[j] + j - i for i, j in pairs),
                     prod(j - i for i, j in pairs))
    return exact_count(total, f"count for {shape}, n={nvars}")


def count_sst_hook(shape, nvars: int) -> int:
    """Same count as a content-over-hook product over the diagram cells."""
    nvars = operator.index(nvars)
    shape = Partition(shape)
    if len(shape) > nvars:
        return 0
    cells = shape.cells()
    total = Fraction(prod(nvars + j - i for i, j in cells),
                     prod(shape.hook_length(i, j) for i, j in cells))
    return exact_count(total, f"count for {shape}, n={nvars}")


def partitions_of(total: int) -> list[Partition]:
    """All partitions of the given size, sorted lexicographically."""
    if total < 0:
        raise ValueError("size must be non-negative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in sorted(gen(total, total))]
