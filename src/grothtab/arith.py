"""Exact scalar arithmetic shared by every other module.

An exact number is a plain Python int (arbitrary precision, canonical zero)
or a fractions.Fraction, which is reduced on construction and keeps a
positive denominator, so equality is value equality across the two.
exact_rational is the one rule for a number taken from a caller: an int or
a Fraction is kept as it is, a 'p/q' string is parsed, and a float is
refused, since 0.1 is a binary approximation, not the rational it was
written as.  over_common_denominator is the one integer rule: a table over
the lcm of its Fraction denominators, so that a loop multiplies integer
numerators and divides once.  coupled_sum, the depth-first kernel of
the coupled series' n!-term sums, whose coupling is arbitrary (the
shifted-exponent expansion groups its own terms by exponent set in
grothendieck), and Poly.substitute both follow it.  coupled_sum returns
its sum graded by total index, as integer (or Poly) parts over one
denominator, so a series whose indices share one argument z is summed
once as a polynomial in z.
Every such sum is refused above MAX_SERIES_TERMS terms.  polynomial_at
is the one reader of such parts: a polynomial in one variable, int
coefficients over one denominator, at z = p/q in one int pass by
Horner's rule and one division; the memoized series of a shape, the Gauss series and the
tableau sum's diagonal (its counts by excess) are all read by it.
determinant is the int determinant, by fraction-free elimination: every
division in it is exact and checked, and its cost is O(n^3) int products.  All functions
here are pure; values are immutable and safe to share between threads.
"""

from fractions import Fraction
from itertools import chain
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
    """Parse 'p/q' or 'p' (base-10 integers) into a Fraction; anything but
    a string is refused."""
    if not isinstance(text, str):
        raise ValueError(f"{text!r} is not a string")
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


def polynomial_at(parts, d: int, z) -> Fraction:
    """sum_s parts[s] z^s / d for int parts and a nonzero int d, at the
    exact rational z = p/q (exact_rational, so a float is refused), read
    as sum_s parts[s] p^s q^(top-s) over d q^top, top = len(parts) - 1:
    one int pass by Horner's rule from the top coefficient down, each step
    one product by p and one by the power of q so far, and one division.
    No parts give 0."""
    z = exact_rational(z)
    p, q = z.numerator, z.denominator
    total, scale = 0, 1
    for c in reversed(parts):
        total = total * p + c * scale
        scale *= q
    # scale is q^(top + 1) now, or 1 with no parts, when total is 0
    return Fraction(total * q, d * scale)


def over_common_denominator(values) -> tuple[list, int]:
    """(numerators, d): the values times d, the lcm of their Fraction
    denominators (1 when there is none).  Every Fraction becomes an int, a
    whole one too, or all-int data would not stay on ints; ints and Polys
    are multiplied by d.  Values that are all plain ints come back as they
    are, over 1, found by one pass over their types.  The caller's values
    are not changed.
    """
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    d = lcm(*(v.denominator for v in values if isinstance(v, Fraction)))
    return [v.numerator * (d // v.denominator) if isinstance(v, Fraction) else v * d
            for v in values], d


def determinant(matrix) -> int:
    """Determinant of a square matrix of ints, by fraction-free (Bareiss)
    elimination: step k replaces each entry below and right of the pivot p
    by (p a_ij - a_ik a_kj) / p', p' the pivot before, a minor of the
    matrix and so an int; each division is checked, and a remainder raises
    ArithmeticError (also under python -O).  A zero pivot is swapped with
    the first row below that has a nonzero entry there, negated so that
    the determinant keeps its value; a column with none gives 0.  O(n^3)
    int products.  A non-square matrix raises ValueError and an entry that
    is not an int (a Poly, a Fraction, a float or a bool) TypeError, found
    by one pass over the entries' distinct types, so a matrix of plain ints
    runs no Python code per entry; an int subclass is an int.  The caller's
    rows are not changed.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    types = set(map(type, chain.from_iterable(rows)))
    if types != {int} and any(issubclass(t, bool) or not issubclass(t, int) for t in types):
        raise TypeError("determinant entries must be ints")
    previous = 1
    for k in range(n):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = [-e for e in rows[pivot]], rows[k]
        top = rows[k]
        p = top[k]
        for row in rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j], remainder = divmod(p * row[j] - a * top[j], previous)
                if remainder:
                    raise ArithmeticError(f"inexact elimination step: remainder {remainder}")
        previous = p
    return previous


def coupled_sum(weights, cross) -> tuple[list, int]:
    """The sum over k in range(len(w_1)) x ... x range(len(w_n)) of

        prod_i w_i[k_i] * prod_{i<j} cross(i, j, k_i, k_j)

    for the weight tables w_1 .. w_n (i and j 0-based), split by total
    index: (parts, d), where parts[s] is d times the sum of the terms with
    k_1 + ... + k_n = s, for s = 0 .. sum_i (len(w_i) - 1), so the sum is
    sum(parts) / d; with n = 0 it is ([1], 1), the empty product, and an
    empty table, which leaves no term, gives no part.  A caller whose
    tables carry z^k (a series whose indices share one argument z) has its
    sum as a polynomial in z.  Weights and cross factors may be ints,
    Fractions or Polys.  Each table is put over the lcm of its Fraction
    denominators (over_common_denominator), and d is the product of those
    lcms, so the loop multiplies integer weights (or Polys, for symbolic
    ones); the parts are ints while every cross factor is an int and every
    weight an int or a Fraction.  The caller's tables are not changed.
    More than MAX_SERIES_TERMS terms (the product of the table lengths)
    are refused with ValueError before any work.

    Each table keeps only its nonzero entries, with their indices, and
    cross is called once per pair of kept indices, into one table per pair
    (i, j): an index whose weight is zero is skipped without calling cross.
    The sum then runs depth-first over the kept entries, carrying the
    product of the entries chosen so far and the sum of their indices.
    For each later index m it also carries row m: the weights of table m
    times their cross factors with the indices already chosen.  Choosing
    entry t at depth j multiplies the prefix by row j's entry t and each
    later row m by the cross factors (j, m) at t, and a choice whose factor
    is zero drops the prefix with every term below it.  A last index costs
    one multiplication per entry, added to the part of its total index.
    """
    _check_size(prod(len(w) for w in weights))
    kept, denom = [], 1
    for table in weights:
        table, d = over_common_denominator(table)
        kept.append([(k, w) for k, w in enumerate(table) if w])
        denom *= d
    # one part per total index 0 .. sum_i (len(w_i) - 1); none without a term
    parts = [0] * (1 + sum(len(w) - 1 for w in weights)) if all(map(len, weights)) else []
    if not all(kept):
        return parts, denom
    n = len(kept)
    if not n:
        return [1], 1
    # below[j][m - j - 1][s][t]: cross(j, m, .., ..) at kept entry s of table
    # j and kept entry t of table m
    below = [[[[cross(j, m, ks, kt) for kt, _ in kept[m]] for ks, _ in kept[j]]
              for m in range(j + 1, n)] for j in range(n)]
    last = [k for k, _ in kept[-1]]

    def walk(j, grade, prefix, rows):
        if len(rows) == 1:
            for k, factor in zip(last, rows[0]):
                parts[grade + k] += prefix * factor
            return
        for t, factor in enumerate(rows[0]):
            if factor:
                walk(j + 1, grade + kept[j][t][0], prefix * factor,
                     [[a * c for a, c in zip(row, pair[t])]
                      for row, pair in zip(rows[1:], below[j])])

    walk(0, 0, 1, [[w for _, w in table] for table in kept])
    return parts, denom
