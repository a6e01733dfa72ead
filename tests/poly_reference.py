"""Test-only helpers for Poly.

Full evaluation and the coefficient of one power of a variable are used by
the tests alone; the package substitutes and reads whole polynomials.  The
Leibniz sum is the reference determinant: the package takes determinants
of int matrices only (arith.determinant), and the tests need them of Poly
matrices too.
"""

from fractions import Fraction
from itertools import permutations

from grothtab.polynomials import Poly


def evaluate(poly: Poly, values: dict) -> Fraction:
    """Full evaluation; every variable must receive a value."""
    return poly.substitute(values).as_fraction()


def coefficient(poly: Poly, var: str, power: int) -> Poly:
    """The coefficient of var**power, as a polynomial without var."""
    if var not in poly.vars:
        return poly if power == 0 else Poly(poly.vars, {})
    i = poly.vars.index(var)
    return Poly(poly.vars[:i] + poly.vars[i + 1:],
                {exps[:i] + exps[i + 1:]: coeff
                 for exps, coeff in poly.terms.items() if exps[i] == power})


def leibniz(matrix):
    """Permutation-sum definition of the determinant, for entries of any
    ring type: ints give an int, Polys a Poly."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total
