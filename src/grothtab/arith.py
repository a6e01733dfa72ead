"""Exact scalar arithmetic shared by every other module.

An exact number is a plain Python int (arbitrary precision, canonical zero)
or a fractions.Fraction, which is reduced on construction and keeps a
positive denominator, so equality is value equality across the two.
exact_rational is the one rule for a number taken from a caller: an int or
a Fraction is kept as it is, a 'p/q' string is parsed, and a float is
refused, since 0.1 is a binary approximation, not the rational it was
written as.  over_common_denominator is the one integer rule: a table over
the lcm of its Fraction denominators, so that a loop multiplies integer
numerators and divides once.  coupled_sum, the one loop of the n!-term sums
(the count formula, the coupled series and the principal specialization),
and Poly.substitute both follow it.  Every such sum is refused above
MAX_SERIES_TERMS terms (so is a determinant with more minors).  All
functions here are pure; values are immutable and safe to share between
threads.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod

# The most terms a series may have; a larger one is refused before any term
# is built, so a bad parameter cannot keep the evaluation busy indefinitely.
MAX_SERIES_TERMS = 10**6


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k lies outside 0..n.

    Negative n is rejected: the callers that need generalized arguments
    build rising factorials instead.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' (base-10 integers) into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def exact_rational(value) -> int | Fraction:
    """An exact number as given: an int or a Fraction is returned unchanged
    and a 'p/q' string is parsed to a Fraction; anything else, a float or a
    bool included, is refused."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{value!r} is not an exact rational; "
                         "write it as an integer or a 'p/q' string")
    return value


def format_rational(value) -> str:
    """Render a rational as 'p/q', or plain 'p' when the denominator is 1."""
    return str(Fraction(value))


def exact_count(value, what: str) -> int:
    """An exact rational count as an int; raises ArithmeticError (also
    under python -O) unless the value is a non-negative integer."""
    value = Fraction(value)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"{what}: {value} is not a non-negative integer")
    return value.numerator


def _check_size(count: int, what: str = "the series has {} terms") -> None:
    if count > MAX_SERIES_TERMS:
        raise ValueError(f"{what.format(count)}, more than the limit of {MAX_SERIES_TERMS}")


def over_common_denominator(values) -> tuple[list, int]:
    """(numerators, d): the values times d, the lcm of their Fraction
    denominators (1 when there is none).  Every Fraction becomes an int, a
    whole one too, or all-int data would not stay on ints; ints and Polys
    are multiplied by d.  The caller's values are not changed.
    """
    values = list(values)
    d = lcm(*(v.denominator for v in values if isinstance(v, Fraction)))
    return [v.numerator * (d // v.denominator) if isinstance(v, Fraction) else v * d
            for v in values], d


def coupled_sum(weights, cross):
    """The sum over k in range(len(w_1)) x ... x range(len(w_n)) of

        prod_i w_i[k_i] * prod_{i<j} cross(i, j, k_i, k_j)

    for the weight tables w_1 .. w_n (i and j 0-based).  Weights and cross
    factors may be ints, Fractions or Polys.  Each table is put over the lcm
    of its Fraction denominators (over_common_denominator), so the loop
    multiplies integer weights (or Polys, for symbolic ones) and the sum is
    divided once at the end; it
    stays an int while every cross factor is an int and every weight an int
    or a Fraction with denominator 1.  The caller's tables are not changed.
    A term whose weight product is zero is skipped without calling cross.
    More than MAX_SERIES_TERMS terms are refused with ValueError before the
    first one.
    """
    _check_size(prod(len(w) for w in weights))
    tables, denom = [], 1
    for table in weights:
        table, d = over_common_denominator(table)
        tables.append(table)
        denom *= d
    pairs = list(combinations(range(len(tables)), 2))
    total = 0
    for ks in product(*(range(len(w)) for w in tables)):
        term = prod(w[k] for w, k in zip(tables, ks))
        if term:
            for i, j in pairs:
                term *= cross(i, j, ks[i], ks[j])
            total += term
    return total if denom == 1 else total * Fraction(1, denom)
