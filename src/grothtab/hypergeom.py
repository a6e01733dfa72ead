"""Terminating hypergeometric series in exact rational arithmetic.

The coupled multi-index series with cross factors (A_ij + k_i - k_j) / A_ij,
and the Gauss series 2F1, which is that series with one index and no
cross factor.  _series_parts is the one evaluator, and holman_series
adds its parts: each summation index ends at its first vanishing
numerator Pochhammer (_cutoff); an index with none is refused rather
than approximated, and so is a series of more than
arith.MAX_SERIES_TERMS terms.  The coupled series is arith.coupled_sum
over its Pochhammer weight tables, each built on ints (the Fraction
recurrence's reduced terms, over the lcm of their denominators), with
integer cross factors, divided once by prod A_ij; the kernel grades its
sum by total index, so the parts are the series as a polynomial in z
when every index has the same argument z, and arith.polynomial_at reads
such parts at a rational z in one int pass.  shape_series is the one
reader of a shape's series (HolmanInstance.from_shape): it keeps one
memo entry per (shape, n), the series at z = 1 by degree and its
denominator, from from_shape's instance built on the ints it makes, with
nothing converted or checked again, so thm-3.9's betas, cor-3.11,
thm-3.13, `count-svt --method holman` and `eval-holman --from-shape`
read one n!-term walk.
_gauss_parts is the Gauss series as a polynomial in z, the one place its
parameters (alpha, beta; gamma, 1) are written: gauss_2f1_terminating
reads it at its z, and verify's row and column checks keep it per
(shape, n) and read it at each beta, so no Gauss memo here is keyed by a
caller's parameters.  holman_series is left to instances that do not
come from a shape (fixtures).  ones_value_by_series is the one home of
the series side of Thm 3.9 and Cor 3.11, |SST_n| times shape_series at
z = -beta, for verify and the CLI alike.  Parameters are ints, Fractions
or 'p/q' strings; a float is refused, since it is not the rational it
was written as.
"""

import json
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

from .arith import _check_size, coupled_sum, exact_rational, format_rational, polynomial_at
from .partitions import Partition, count_sst_product


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
    m at which (alpha)_m or (beta)_m vanishes: _gauss_parts read at z by
    arith.polynomial_at.  The four arguments are taken as exact rationals
    first, in order, so a float anywhere is refused before the series is
    looked at."""
    alpha, beta, gamma, z = map(exact_rational, (alpha, beta, gamma, z))
    return polynomial_at(*_gauss_parts(alpha, beta, gamma), z)


def _gauss_parts(alpha, beta, gamma) -> tuple[list, int]:
    """The terminating Gauss series 2F1(alpha, beta; gamma; z) as a
    polynomial in z, (parts, d) with coefficients parts[s] / d: the coupled
    series of one index, numerator parameters (alpha, beta) and denominator
    parameters (gamma, 1), where (1)_m is the m!, by _series_parts at
    z = 1.  Nothing is memoized here; a caller with few parameter sets
    keeps its own memo."""
    return _series_parts(HolmanInstance((), ((alpha,), (beta,)), ((gamma,), (1,)), (1,)))


def shape_coupling(shape, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Strict lower-triangle rows of A_ij = l_i - l_j + j - i for i < j,
    over the zero-padded shape.  Row t lists A_{1,t+1} .. A_{t,t+1}."""
    lam = Partition(shape).padded(nvars)
    return tuple(
        tuple(lam[i - 1] - lam[j - 1] + j - i for i in range(1, j))
        for j in range(2, nvars + 1)
    )


def _refuse_more_rows(shape: Partition, n: int) -> None:
    """A shape of more rows than n has no series: ValueError."""
    if len(shape) > n:
        raise ValueError(f"shape {shape} has {len(shape)} rows, more than n = {n}")


class _HolmanFields(NamedTuple):
    coupling: tuple[tuple[int, ...], ...]
    numerator: tuple[tuple[Fraction, ...], ...]
    denominator: tuple[tuple[Fraction, ...], ...]
    z: tuple[Fraction, ...]


class HolmanInstance(_HolmanFields):
    """Parameter pack of the coupled multi-index series.

    coupling: rows ((A_12,), (A_13, A_23), ...) of the strict lower
      triangle; every entry must be a positive integer (they are divided
      by). numerator / denominator: lists of columns, each column holding
      one parameter per summation index.  z: one argument per index.
    """

    __slots__ = ()

    def __new__(cls, coupling, numerator, denominator, z):
        self = super().__new__(cls, _table(coupling, "coupling", _coupling_entry),
                               _table(numerator, "numerator", exact_rational),
                               _table(denominator, "denominator", exact_rational),
                               _entries(z, "z", exact_rational))
        n = self.n
        if n < 1:
            raise ValueError("need at least one summation index")
        if len(self.coupling) != n - 1 or any(
                len(row) != t + 1 for t, row in enumerate(self.coupling)):
            raise ValueError(f"coupling triangle must have rows of lengths 1..{n - 1}")
        for col in self.numerator + self.denominator:
            if len(col) != n:
                raise ValueError(f"parameter columns must have length {n}")
        return self

    @property
    def n(self) -> int:
        return len(self.z)

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
        _refuse_more_rows(shape, n)
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
        if not isinstance(data, dict) or data.keys() != set(cls._fields):
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
    parts, d = _series_parts(inst)
    return Fraction(sum(parts), d)


def _series_parts(inst: HolmanInstance) -> tuple[list, int]:
    """The terms of holman_series(inst) summed by total index k_1 + ... +
    k_n, as (parts, d) over one denominator d (arith.coupled_sum's
    convention); when every z_i is z, parts[s] / d is the coefficient of
    z^s at z = 1.  Each index's Pochhammer table is built on ints: each
    term is the one before times the step prod (a + k) z / prod (b + k),
    kept in lowest terms as a Fraction product is (the step reduced by its
    own gcd, then each side's numerator by the other's denominator, so
    every gcd has one small argument), and the table is put over the lcm
    of its denominators: exactly
    arith.over_common_denominator of the Fraction recurrence, with no
    Fraction built.  coupled_sum then takes int tables, and d is the
    product of those lcms and of the coupling."""
    bounds = inst.termination_bounds()
    _check_size(prod(N + 1 for N in bounds))
    coupling = inst.coupling
    weights, scale = [], prod(a for row in coupling for a in row)
    for i, top in enumerate(bounds):
        nums, dens = inst.row_numerators(i + 1), inst.row_denominators(i + 1)
        for b in dens:
            if _cutoff((b,)) in range(top):
                raise ValueError(
                    f"denominator Pochhammer ({b})_k vanishes inside the "
                    f"summation range 0..{top} of index {i + 1}")
        # term k is num/den in lowest terms, the sign on either side (the
        # table takes num times the lcm over den); the step from it is p/q,
        # where a + k is (a.numerator + k a.denominator) / a.denominator and
        # so is b + k
        up = inst.z[i].numerator * prod(b.denominator for b in dens)
        down = inst.z[i].denominator * prod(a.denominator for a in nums)
        nums_k, dens_k, num, den = [1], [1], 1, 1
        for k in range(top):
            p = up * prod(a.numerator + k * a.denominator for a in nums)
            q = down * prod(b.numerator + k * b.denominator for b in dens)
            g = gcd(p, q)
            p, q = p // g, q // g
            g, h = gcd(num, q), gcd(p, den)
            num, den = num // g * (p // h), den // h * (q // g)
            nums_k.append(num)
            dens_k.append(den)
        d = lcm(*dens_k)
        weights.append([t * (d // u) for t, u in zip(nums_k, dens_k)])
        scale *= d
    parts, d = coupled_sum(weights, lambda i, j, ki, kj: coupling[j - 1][i] + ki - kj)
    return parts, d * scale


@lru_cache(maxsize=None)
def _shape_series(shape: Partition, n: int) -> tuple[tuple, int]:
    """(parts, d) for n variables: the series of
    HolmanInstance.from_shape(shape, n, z) as a polynomial in z, with
    coefficients parts[s] / d (_series_parts at z = 1).  The instance is
    from_shape's, made by NamedTuple._make from the ints built here, so
    none of them is converted or checked again; more rows than n raise
    from_shape's ValueError (_refuse_more_rows) first.  A refusal (more
    rows than n, or more than arith.MAX_SERIES_TERMS terms) leaves no
    entry.  In n = 0 variables the series of the empty shape is the empty
    product 1."""
    _refuse_more_rows(shape, n)
    if not n:
        return (1,), 1
    parts, d = _series_parts(HolmanInstance._make((
        shape_coupling(shape, n), (tuple(range(0, -n, -1)),), ((1,) * n,), (1,) * n)))
    return tuple(parts), d


def shape_series(shape, nvars: int, z) -> Fraction:
    """holman_series(HolmanInstance.from_shape(shape, nvars, z)), read off
    the one memoized walk per (shape, n) (_shape_series) at z by
    arith.polynomial_at: one int pass and one division.  A shape with more
    rows than n raises from_shape's ValueError."""
    n = operator.index(nvars)
    z = exact_rational(z)  # a float z is refused before the shape is looked at
    return polynomial_at(*_shape_series(Partition(shape), n), z)


def ones_value_by_series(shape, nvars: int, beta) -> Fraction:
    """The all-ones Grothendieck value G_shape(1^n) at the given beta by
    the coupled series (Thm 3.9): shape_series at z = -beta times
    |SST_n(shape)|, and 0 when the shape has more rows than n.  At beta = 1
    it is the set-valued count (Cor 3.11).  The product is kept per
    (shape, n) as one polynomial in z (_ones_series), so the count is
    taken once for every beta."""
    n = operator.index(nvars)
    shape = Partition(shape)
    if len(shape) > n:
        return Fraction(0)
    z = -exact_rational(beta)
    return polynomial_at(*_ones_series(shape, n), z)


@lru_cache(maxsize=None)
def _ones_series(shape: Partition, n: int) -> tuple[tuple, int]:
    """(parts, d): _shape_series times |SST_n(shape)|, a polynomial in z.
    The series comes before the count, so its n! terms are refused
    first, and a refusal leaves no entry."""
    parts, d = _shape_series(shape, n)
    count = count_sst_product(shape, n)
    return tuple(count * c for c in parts), d
