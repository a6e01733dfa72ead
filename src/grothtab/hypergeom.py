"""Terminating hypergeometric series in exact rational arithmetic.

The Gauss series 2F1, the coupled multi-index series with cross factors
(A_ij + k_i - k_j) / A_ij, and the classical summation conditions.  Each
summation index ends at its first vanishing numerator Pochhammer, one rule
(_cutoff) for both series; an index with none is refused rather than
approximated, and so is a series of more than arith.MAX_SERIES_TERMS terms.
The coupled series is arith.coupled_sum over its Pochhammer weight tables,
with integer cross factors, divided once by prod A_ij.  Parameters are ints, Fractions or 'p/q' strings; a float is
refused, since it is not the rational it was written as.
"""

import json
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .arith import _check_size, coupled_sum, exact_rational, format_rational
from .partitions import Partition


class NonTerminatingSeriesError(ValueError):
    """No numerator parameter truncates the series."""


def _cutoff(params) -> int | None:
    """The last index m with every Pochhammer (a)_m nonzero, where a series
    ends: the smallest -a over the non-positive integers a, else None."""
    return min((-a.numerator for a in params if a.denominator == 1 and a <= 0),
               default=None)


def _entries(values, what: str, convert) -> tuple:
    """The converted entries of a list or tuple; anything else is refused."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {values!r}")
    return tuple(convert(v) for v in values)


def _table(rows, what: str, convert) -> tuple[tuple, ...]:
    """The converted entries of a list of lists; anything else is refused."""
    return _entries(rows, what, lambda row: _entries(row, f"each row of {what}", convert))


def _coupling_entry(value) -> int:
    """A coupling entry, which is divided by: a positive int, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"coupling entry {value!r} is not a positive integer")
    return value


def gauss_2f1_terminating(alpha, beta, gamma, z) -> Fraction:
    """Exact value of the terminating Gauss series
    sum_m (alpha)_m (beta)_m / (gamma)_m * z^m / m!, summed up to the first
    m at which (alpha)_m or (beta)_m vanishes."""
    alpha, beta, gamma, z = map(exact_rational, (alpha, beta, gamma, z))
    bound = _cutoff((alpha, beta))
    if bound is None:
        raise NonTerminatingSeriesError(
            f"neither {alpha} nor {beta} is a non-positive "
            "integer; only terminating series are evaluated")
    _check_size(bound + 1)
    if _cutoff((gamma,)) in range(bound):
        raise ValueError(
            f"denominator Pochhammer ({gamma})_m vanishes inside "
            f"the summation range 0..{bound}")
    total = term = Fraction(1)
    for m in range(bound):
        term *= (alpha + m) * (beta + m) * z
        term /= (gamma + m) * (m + 1)
        total += term
    return total


def shape_coupling(shape, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Strict lower-triangle rows of A_ij = l_i - l_j + j - i for i < j,
    over the zero-padded shape.  Row t lists A_{1,t+1} .. A_{t,t+1}."""
    lam = Partition(shape).padded(nvars)
    return tuple(
        tuple(lam[i - 1] - lam[j - 1] + j - i for i in range(1, j))
        for j in range(2, nvars + 1)
    )


@dataclass(frozen=True)
class HolmanInstance:
    """Parameter pack of the coupled multi-index series.

    coupling: rows ((A_12,), (A_13, A_23), ...) of the strict lower
      triangle; every entry must be a positive integer (they are divided
      by). numerator / denominator: lists of columns, each column holding
      one parameter per summation index.  z: one argument per index.
    """

    coupling: tuple[tuple[int, ...], ...]
    numerator: tuple[tuple[Fraction, ...], ...]
    denominator: tuple[tuple[Fraction, ...], ...]
    z: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coupling", _table(self.coupling, "coupling", _coupling_entry))
        for name in ("numerator", "denominator"):
            object.__setattr__(self, name, _table(getattr(self, name), name, exact_rational))
        object.__setattr__(self, "z", _entries(self.z, "z", exact_rational))
        n = self.n
        if n < 1:
            raise ValueError("need at least one summation index")
        if len(self.coupling) != n - 1 or any(
                len(row) != t + 1 for t, row in enumerate(self.coupling)):
            raise ValueError(f"coupling triangle must have rows of lengths 1..{n - 1}")
        for col in self.numerator + self.denominator:
            if len(col) != n:
                raise ValueError(f"parameter columns must have length {n}")

    @property
    def n(self) -> int:
        return len(self.z)

    def A(self, i: int, j: int) -> int:
        """Coupling entry A_ij, 1-based, i < j."""
        if not 1 <= i < j <= self.n:
            raise IndexError(f"coupling index ({i},{j}) out of range")
        return self.coupling[j - 2][i - 1]

    def row_numerators(self, i: int) -> list[Fraction]:
        return [col[i - 1] for col in self.numerator]

    def row_denominators(self, i: int) -> list[Fraction]:
        return [col[i - 1] for col in self.denominator]

    def termination_bounds(self) -> tuple[int, ...]:
        """Tightest cutoff per summation index, from the non-positive
        integer numerator parameters; refuses non-terminating rows."""
        bounds = tuple(_cutoff(self.row_numerators(i)) for i in range(1, self.n + 1))
        if None in bounds:
            raise NonTerminatingSeriesError(
                f"no non-positive integer numerator parameter in row {bounds.index(None) + 1}; "
                "only terminating series are evaluated")
        return bounds

    @classmethod
    def from_shape(cls, shape, nvars: int, z) -> "HolmanInstance":
        """The instance attached to a shape: coupling A_ij = l_i - l_j + j - i,
        numerator column (0, -1, ..., -(n-1)), denominator column of ones,
        constant argument z.  Its value times the semistandard count gives
        the all-ones Grothendieck value at beta = -z.  A shape with more
        rows than n raises ValueError."""
        shape = Partition(shape)
        n = operator.index(nvars)
        if len(shape) > n:
            raise ValueError(f"shape {shape} has {len(shape)} rows, more than n = {n}")
        return cls(
            coupling=shape_coupling(shape, n),
            numerator=(tuple(range(0, -n, -1)),),
            denominator=((1,) * n,),
            z=(z,) * n,
        )

    def to_json(self) -> dict:
        return {
            "coupling": [list(row) for row in self.coupling],
            "numerator": [[format_rational(a) for a in col] for col in self.numerator],
            "denominator": [[format_rational(b) for b in col] for col in self.denominator],
            "z": [format_rational(v) for v in self.z],
        }

    @classmethod
    def from_json(cls, data) -> "HolmanInstance":
        """The instance a JSON document describes: an object with exactly
        the fields coupling, numerator, denominator and z."""
        if not isinstance(data, dict) or data.keys() != {f.name for f in fields(cls)}:
            found = sorted(data) if isinstance(data, dict) else f"a JSON {type(data).__name__}"
            raise ValueError("an instance is a JSON object with exactly the fields coupling, "
                             f"numerator, denominator and z, not {found}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "HolmanInstance":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


def holman_series(inst: HolmanInstance) -> Fraction:
    """Exact value of the terminating coupled series:

        sum over k in prod [0..N_i] of
            prod_{i<j} (A_ij + k_i - k_j) / A_ij
            * prod numerator Pochhammers (a_ij)_{k_i}
            / prod denominator Pochhammers (b_ij)_{k_i}
            * prod z_i^{k_i}
    """
    bounds = inst.termination_bounds()
    _check_size(prod(N + 1 for N in bounds))
    coupling = inst.coupling
    weights = []
    for i, top in enumerate(bounds):
        nums, dens = inst.row_numerators(i + 1), inst.row_denominators(i + 1)
        for b in dens:
            if _cutoff((b,)) in range(top):
                raise ValueError(
                    f"denominator Pochhammer ({b})_k vanishes inside the "
                    f"summation range 0..{top} of index {i + 1}")
        w = [Fraction(1)]
        for k in range(top):
            w.append(w[-1] * prod(a + k for a in nums) * inst.z[i] / prod(b + k for b in dens))
        weights.append(w)
    total = coupled_sum(weights, lambda i, j, ki, kj: coupling[j - 1][i] + ki - kj)
    return Fraction(total, prod(a for row in coupling for a in row))


class SummationConditionReport(NamedTuple):
    """Truth of the four classical parameter constraints, in order:

    1. coupling_additive:    A_id - A_ic = A_cd  for all i < c < d
    2. numerator_shifted:    a_id - a_cr = A_ic  for all i < c and all
                             column pairs (d, r)
    3. denominator_shifted:  the same with the denominator parameters
    4. unit_diagonal:        b_ii = 1 for every diagonal entry the column
                             count provides
    """

    coupling_additive: bool
    numerator_shifted: bool
    denominator_shifted: bool
    unit_diagonal: bool

    @property
    def all_satisfied(self) -> bool:
        return all(self)

    def as_dict(self) -> dict:
        return {**self._asdict(), "all_satisfied": self.all_satisfied}


def classical_summation_conditions(inst: HolmanInstance) -> SummationConditionReport:
    """Check the parameter constraints of the classical summation formula.

    The interesting negative case: instances built by
    HolmanInstance.from_shape violate exactly the two shift conditions
    (2 and 3) while satisfying 1 and 4.
    """
    n = inst.n
    c1 = all(
        inst.A(i, d) - inst.A(i, c) == inst.A(c, d)
        for i in range(1, n + 1)
        for c in range(i + 1, n + 1)
        for d in range(c + 1, n + 1)
    )

    def shifted(columns) -> bool:
        return all(
            col_d[i - 1] - col_r[c - 1] == inst.A(i, c)
            for i in range(1, n + 1)
            for c in range(i + 1, n + 1)
            for col_d in columns
            for col_r in columns
        )

    c2 = shifted(inst.numerator)
    c3 = shifted(inst.denominator)
    c4 = all(
        inst.denominator[i][i] == 1
        for i in range(min(n, len(inst.denominator)))
    )
    return SummationConditionReport(c1, c2, c3, c4)
