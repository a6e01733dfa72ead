"""The single-column polynomial expanded in elementary symmetric polynomials.

A test-only route: the regression tests use it to pin the binomial
coefficient of the expansion against the tableau sum.
"""

import operator
from itertools import combinations

from grothtab.arith import binomial
from grothtab.grothendieck import BETA
from grothtab.polynomials import Poly


def elementary_symmetric_poly(k: int, nvars: int) -> Poly:
    """e_k(x_1 .. x_n) as a polynomial."""
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    if k < 0 or k > nvars:
        return Poly(names, {})
    terms = {}
    for combo in combinations(range(nvars), k):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return Poly(names, terms)


def single_column_e_expansion(k: int, nvars: int, beta=BETA) -> Poly:
    """sum_{m=0}^{n-k} C(m+k-1, m) beta^m e_{m+k}(x).

    The binomial coefficient C(m+k-1, m) is pinned by cross-checking the
    expansion against the tableau sum for all k, n <= 4; the
    plausible-looking alternative C(n+k-1, m) disagrees already at k = 1,
    n = 2.  A float beta is refused, as everywhere in the package.
    """
    if k < 1:
        raise ValueError("column height k must be >= 1")
    n = operator.index(nvars)
    bval = Poly.variable(beta) if isinstance(beta, str) else Poly.constant(beta)
    total = Poly.constant(0)
    for m in range(0, n - k + 1):
        term = binomial(m + k - 1, m) * elementary_symmetric_poly(m + k, n)
        total = total + bval ** m * term
    return total
