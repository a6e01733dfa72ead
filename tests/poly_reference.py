"""Test-only helpers for Poly.

Full evaluation and the coefficient of one power of a variable are used by
the tests alone; the package substitutes and reads whole polynomials.
"""

from fractions import Fraction

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
