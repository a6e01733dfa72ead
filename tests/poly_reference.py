"""Test-only helpers for Poly.

Full evaluation and the coefficient of one power of a variable are used by
the tests alone; the package substitutes and reads whole polynomials.  The
Leibniz sum is the reference determinant: the package takes determinants
of int matrices only (arith.determinant), and the tests need them of Poly
matrices too.  collapse is the reference for the tableau sum's diagonal,
which the package reads straight off the packed counts
(grothendieck._tableau_sum_diagonal).
"""

from fractions import Fraction
from itertools import permutations

from grothtab.polynomials import _NAME_RE, Poly, _var_key


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


def collapse(poly: Poly, names, var: str) -> Poly:
    """poly with every variable in names set equal to var: each term's
    exponents of those variables, and of var itself, are summed into var's.
    Names the polynomial does not use are ignored.  Exact: terms that meet
    add their coefficients, and nothing else changes.
    """
    if not _NAME_RE.match(var):
        raise ValueError(f"bad variable name: {var!r}")
    merged = set(names) | {var}
    keep = [i for i, v in enumerate(poly.vars) if v not in merged]
    vars = tuple(sorted([poly.vars[i] for i in keep] + [var], key=_var_key))
    at = vars.index(var)
    terms = {}
    for exps, coeff in poly.terms.items():
        e = [exps[i] for i in keep]
        # var's exponent: the term's degree less that of the kept variables
        e.insert(at, sum(exps) - sum(e))
        e = tuple(e)
        terms[e] = terms.get(e, 0) + coeff
    return Poly._of(vars, {e: c for e, c in terms.items() if c})
