"""Terminating hypergeometric series in exact rational arithmetic.

Covers the one-variable Gauss series and the coupled multi-index series
whose cross factors are (A_ij + k_i - k_j) / A_ij.  Only terminating
instances are evaluated: every summation index must be cut off by a
numerator parameter that is a non-positive integer.  Anything else is
refused rather than approximated.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .arith import format_rational
from .partitions import Partition


class NonTerminatingSeriesError(ValueError):
    """No numerator parameter truncates the series."""


def _as_nonpositive_int(value: Fraction):
    """The int value of a non-positive integer rational, else None."""
    if value.denominator == 1 and value <= 0:
        return int(value)
    return None


@dataclass(frozen=True)
class Gauss2F1:
    """Parameter pack (alpha, beta; gamma; z) of the Gauss series
    sum_m (alpha)_m (beta)_m / (gamma)_m * z^m / m!."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    z: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "z"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def termination_bound(self) -> int | None:
        """Largest index with all numerator Pochhammers nonzero (the sum
        runs to it inclusively), or None when the series does not
        terminate."""
        caps = []
        for a in (self.alpha, self.beta):
            j = _as_nonpositive_int(a)
            if j is not None:
                caps.append(-j)
        return min(caps) if caps else None

    def value(self) -> Fraction:
        """Exact value of the terminating sum."""
        bound = self.termination_bound
        if bound is None:
            raise NonTerminatingSeriesError(
                f"neither {self.alpha} nor {self.beta} is a non-positive "
                "integer; only terminating series are evaluated")
        g = _as_nonpositive_int(self.gamma)
        if g is not None and -g < bound:
            raise ValueError(
                f"denominator Pochhammer ({self.gamma})_m vanishes inside "
                f"the summation range 0..{bound}")
        total = Fraction(1)
        term = Fraction(1)
        for m in range(bound):
            term *= (self.alpha + m) * (self.beta + m) * self.z
            term /= (self.gamma + m) * (m + 1)
            total += term
        return total


def gauss_2f1_terminating(alpha, beta, gamma, z) -> Fraction:
    """Exact value of the terminating Gauss series."""
    return Gauss2F1(alpha, beta, gamma, z).value()


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
        z = tuple(Fraction(v) for v in self.z)
        n = len(z)
        if n < 1:
            raise ValueError("need at least one summation index")
        coupling = tuple(tuple(int(a) for a in row) for row in self.coupling)
        if len(coupling) != n - 1 or any(len(row) != t + 1 for t, row in enumerate(coupling)):
            raise ValueError(f"coupling triangle must have rows of lengths 1..{n - 1}")
        if any(a <= 0 for row in coupling for a in row):
            raise ValueError("all coupling entries A_ij must be positive")
        numerator = tuple(tuple(Fraction(a) for a in col) for col in self.numerator)
        denominator = tuple(tuple(Fraction(b) for b in col) for col in self.denominator)
        for col in numerator + denominator:
            if len(col) != n:
                raise ValueError(f"parameter columns must have length {n}")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "z", z)

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
        bounds = []
        for i in range(1, self.n + 1):
            caps = []
            for a in self.row_numerators(i):
                j = _as_nonpositive_int(a)
                if j is not None:
                    caps.append(-j)
            if not caps:
                raise NonTerminatingSeriesError(
                    f"no non-positive integer numerator parameter in row {i}; "
                    "only terminating series are evaluated")
            bounds.append(min(caps))
        return tuple(bounds)

    @classmethod
    def from_shape(cls, shape, nvars: int, z) -> "HolmanInstance":
        """The instance attached to a shape: coupling A_ij = l_i - l_j + j - i,
        numerator column (0, -1, ..., -(n-1)), denominator column of ones,
        constant argument z.  Its value times the semistandard count gives
        the all-ones Grothendieck value at beta = -z.  A shape with more
        rows than n raises ValueError."""
        shape = Partition(shape)
        n = int(nvars)
        if len(shape) > n:
            raise ValueError(f"shape {shape} has {len(shape)} rows, more than n = {n}")
        zz = Fraction(z)
        return cls(
            coupling=shape_coupling(shape, n),
            numerator=(tuple(Fraction(-i) for i in range(n)),),
            denominator=(tuple(Fraction(1) for _ in range(n)),),
            z=tuple(zz for _ in range(n)),
        )

    def to_json(self) -> dict:
        return {
            "coupling": [list(row) for row in self.coupling],
            "numerator": [[format_rational(a) for a in col] for col in self.numerator],
            "denominator": [[format_rational(b) for b in col] for col in self.denominator],
            "z": [format_rational(v) for v in self.z],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HolmanInstance":
        return cls(
            coupling=tuple(tuple(row) for row in data["coupling"]),
            numerator=tuple(tuple(Fraction(a) for a in col) for col in data["numerator"]),
            denominator=tuple(tuple(Fraction(b) for b in col) for col in data["denominator"]),
            z=tuple(Fraction(v) for v in data["z"]),
        )

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
    n = inst.n
    bounds = inst.termination_bounds()
    for i in range(1, n + 1):
        for b in inst.row_denominators(i):
            g = _as_nonpositive_int(b)
            if g is not None and -g < bounds[i - 1]:
                raise ValueError(
                    f"denominator Pochhammer ({b})_k vanishes inside the "
                    f"summation range 0..{bounds[i - 1]} of index {i}")

    def poch_table(a: Fraction, top: int) -> list[Fraction]:
        table = [Fraction(1)]
        for m in range(top):
            table.append(table[-1] * (a + m))
        return table

    num_tables = [[poch_table(a, bounds[i]) for a in inst.row_numerators(i + 1)]
                  for i in range(n)]
    den_tables = [[poch_table(b, bounds[i]) for b in inst.row_denominators(i + 1)]
                  for i in range(n)]
    z_tables = [[inst.z[i] ** k for k in range(bounds[i] + 1)] for i in range(n)]

    total = Fraction(0)
    for ks in product(*(range(N + 1) for N in bounds)):
        term = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                a = inst.A(i + 1, j + 1)
                term *= Fraction(a + ks[i] - ks[j], a)
        for i in range(n):
            k = ks[i]
            for table in num_tables[i]:
                term *= table[k]
            if not term:
                break
            for table in den_tables[i]:
                term /= table[k]
            term *= z_tables[i][k]
        total += term
    return total


@dataclass(frozen=True)
class SummationConditionReport:
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
        return (self.coupling_additive and self.numerator_shifted
                and self.denominator_shifted and self.unit_diagonal)

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (self.coupling_additive, self.numerator_shifted,
                self.denominator_shifted, self.unit_diagonal)

    def as_dict(self) -> dict:
        return {
            "coupling_additive": self.coupling_additive,
            "numerator_shifted": self.numerator_shifted,
            "denominator_shifted": self.denominator_shifted,
            "unit_diagonal": self.unit_diagonal,
            "all_satisfied": self.all_satisfied,
        }


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
