"""Schur and Grothendieck polynomials, four independent ways.

Tableau generating sums (driven by the enumerators), determinant quotients
with exact Vandermonde division, the refined multi-parameter determinant
(taken over int columns, with the betas' denominators divided out once),
and the shifted-exponent expansion that evaluates the refined quotient at
the geometric point x = (1, q, ..., q^(n-1)) without any determinant.
Keeping the routes separate is the point: the verification harness compares
them against each other.  The expansion and the binomial-shift count formula
are arith.coupled_sum with integer cross factors over weight tables of exact
numbers or Polys, which the kernel puts over one denominator; the count
formula's sum is divided once by its product of differences, and the
expansion's by the q-Vandermonde.
A beta, q or point value is an int, a Fraction or a variable name; a float
is refused.  A variable count is an int; any other number raises TypeError
rather than being cut down.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import prod

from .arith import _check_size, binomial, coupled_sum, exact_count, exact_rational
from .partitions import Partition
from .polynomials import Poly, determinant
from .tableaux import enumerate_sst, enumerate_svt

BETA = "b"


def _x_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, nvars + 1))


def _scalar_or_var(value):
    if isinstance(value, str):
        return Poly.variable(value)
    return exact_rational(value)


def schur_tableau_sum(shape, nvars: int) -> Poly:
    """Sum of x^weight over all semistandard fillings; symmetric in the x's.

    Zero polynomial when the shape has more rows than variables.
    """
    shape, nvars = Partition(shape), operator.index(nvars)
    return _tableau_sum(enumerate_sst, shape, nvars).coefficient(BETA, 0)


def grothendieck_tableau_sum(shape, nvars: int) -> Poly:
    """Sum of b^excess x^weight over all set-valued fillings.

    The coefficient of b^0 is the Schur polynomial of the same shape.
    """
    return _tableau_sum(enumerate_svt, Partition(shape), operator.index(nvars))


@lru_cache(maxsize=None)
def _tableau_sum(enumerate_tableaux, shape: Partition, nvars: int) -> Poly:
    """Sum of b^excess x^weight over the fillings the enumerator yields."""
    names = tuple([BETA, *_x_names(nvars)])
    boxes = shape.size
    terms: dict[tuple[int, ...], int] = {}
    for tableau in enumerate_tableaux(shape, nvars):
        counts = [0] * nvars
        letters = 0
        for row in tableau.rows:
            for cell in row:
                letters += len(cell)
                for v in cell:
                    counts[v - 1] += 1
        key = (letters - boxes, *counts)
        terms[key] = terms.get(key, 0) + 1
    return Poly(names, terms)


def _divide_vandermonde(det: Poly, nvars: int) -> Poly:
    """Exact division by prod_{i<j} (x_i - x_j): one grouped pass per x_i."""
    out = det
    for i in range(1, nvars):
        out = out.divide_by_difference(f"x{i}", *(f"x{j}" for j in range(i + 1, nvars + 1)))
    return out


def grothendieck_bialternant(shape, nvars: int, beta=BETA) -> Poly:
    """Determinant quotient det[x_i^(l_j + n - j) (1 + beta x_i)^(j-1)] / V.

    The shape is zero-padded to n parts; beta may be a rational or a
    variable name.  Division by the Vandermonde is exact by construction,
    and a nonzero remainder raises (it would mean a real bug).
    """
    return refined_bialternant(shape, nvars, [beta] * (operator.index(nvars) - 1))


def _integral_factor(beta):
    """beta = p/d as (p, d), so that d + p x is d times 1 + beta x; a
    variable name is (its Poly, 1)."""
    if isinstance(beta, str):
        return Poly.variable(beta), 1
    beta = Fraction(exact_rational(beta))
    return beta.numerator, beta.denominator


def refined_bialternant(shape, nvars: int, betas) -> Poly:
    """Multi-parameter determinant quotient: column j carries the product
    (1 + beta_1 x_i) ... (1 + beta_(j-1) x_i).

    Exactly n-1 beta values (rationals or variable names) are required.
    Setting all of them equal recovers grothendieck_bialternant; setting
    them to zero recovers the Schur polynomial.

    With beta_k = p_k/d_k the columns carry (d_k + p_k x_i) instead, so the
    matrix, its determinant and the Vandermonde quotient have int
    coefficients; every coefficient is then divided once by
    prod_k d_k^(n-1-k), the factor that scaling the columns put in.  Int
    betas give int coefficients.  A determinant of more than
    arith.MAX_SERIES_TERMS minors (2^n) is refused with ValueError before
    any row is built.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(betas) != n - 1:
        raise ValueError(f"need exactly {n - 1} beta values, got {len(betas)}")
    if len(shape) > n:
        return Poly.constant(0)
    factors = [_integral_factor(b) for b in betas]
    _check_size(2 ** n, "the determinant has {} minors")
    lam = shape.padded(n)
    rows = []
    for x in (Poly.variable(name) for name in _x_names(n)):
        row = []
        entry_factor = Poly.constant(1)
        for j in range(n):
            if j > 0:
                p, d = factors[j - 1]
                entry_factor = entry_factor * (d + p * x)
            row.append(x ** (lam[j] + n - 1 - j) * entry_factor)
        rows.append(row)
    quotient = _divide_vandermonde(determinant(rows), n)
    scale = prod(d ** (n - 1 - k) for k, (_, d) in enumerate(factors))
    return quotient if scale == 1 else quotient * Fraction(1, scale)


def elementary_symmetric(k: int, values):
    """e_k of the given values (rationals or polynomials); e_0 = 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    values = list(values)
    if k > len(values):
        return 0
    table = [1] + [0] * k
    for v in values:
        for t in range(k, 0, -1):
            table[t] = table[t] + v * table[t - 1]
    return table[k]


def principal_specialization_q(shape, nvars: int, betas, q):
    """Value at x = (1, q, ..., q^(n-1)) of the refined quotient, computed
    by the shifted-exponent expansion instead of a determinant:

        sum over k_j in 0..j-1 of
            prod_j e_{k_j}(beta_1 .. beta_(j-1))
            * prod_{i<j} (q^(l_j+n-j+k_j) - q^(l_i+n-i+k_i))
                       / (q^(n-j) - q^(n-i))

    betas are rationals or variable names (exactly n-1 of them); q is a
    rational, which must be nonzero and keep every denominator factor
    nonzero (q = 1, and other small roots of unity, are rejected by that
    check).  Returns a Fraction when every beta is rational, otherwise a
    Poly in the symbolic betas.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(betas) != n - 1:
        raise ValueError(f"need exactly {n - 1} beta values, got {len(betas)}")
    if len(shape) > n:
        return Fraction(0)
    bvals = [_scalar_or_var(b) for b in betas]
    qval = exact_rational(q)
    if qval == 0:
        raise ValueError("q must be nonzero")

    # q^e = qp[e] / d^top for q = p/d and every e <= top; the sum and the
    # q-Vandermonde multiply equally many differences, so the d^top cancel
    c = [p + n - 1 - j for j, p in enumerate(shape.padded(n))]
    top = c[0]
    qp = [qval.numerator ** e * qval.denominator ** (top - e) for e in range(top + 1)]
    denom = prod(qp[n - 1 - j] - qp[n - 1 - i] for j in range(n) for i in range(j))
    if denom == 0:
        raise ValueError(f"q-Vandermonde vanishes at q = {q}")
    total = coupled_sum(
        [[elementary_symmetric(k, bvals[:j]) for k in range(j + 1)] for j in range(n)],
        lambda i, j, ki, kj: qp[c[j] + kj] - qp[c[i] + ki])
    return total * Fraction(1, denom)


def count_svt_formula(shape, nvars: int) -> int:
    """Number of set-valued tableaux by the nested binomial-shift sum:

        sum over k_j in 0..j-1 of prod_j C(j-1, k_j)
            * prod_{i<j} (l_i - l_j + k_i - k_j + j - i) / (j - i)

    The rational sum must be a non-negative integer; anything else raises
    ArithmeticError.  Zero when the shape has more rows than variables.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(shape) > n:
        return 0
    c = [p + n - 1 - j for j, p in enumerate(shape.padded(n))]
    total = coupled_sum([[binomial(j, k) for k in range(j + 1)] for j in range(n)],
                        lambda i, j, ki, kj: c[i] + ki - c[j] - kj)
    denom = prod(j - i for j in range(n) for i in range(j))
    return exact_count(Fraction(total, denom), f"formula for {shape}, n={n}")

