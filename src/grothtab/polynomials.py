"""Sparse multivariate polynomials over exact rationals.

Coefficients are the exact numbers arith.exact_rational admits: a Poly built
from ints keeps int coefficients, and Fractions appear only where a rational
input or a rational operation puts them.

Just enough ring machinery for the determinant formulas: arithmetic,
substitution, determinants of polynomial matrices, and exact synthetic
division by a product of differences (u - v_1) ... (u - v_k) sharing one
variable u, which groups the terms by their power of u once.  Division
checks the remainder of every factor and raises on a nonzero one instead of
ever returning an approximation; an int dividend keeps int coefficients.
Substitution sums integer numerators and divides each remaining coefficient
once (the integer rule of arith), so all-int data keeps int coefficients.

Polynomials are immutable values; every operation returns a fresh Poly.
"""

import re
from fractions import Fraction
from itertools import combinations

from .arith import exact_rational, format_rational, over_common_denominator, parse_rational

_NAME_RE = re.compile(r"[A-Za-z]+[0-9]*\Z")


def _var_key(name: str):
    # 'x2' sorts before 'x10'; bare names sort before numbered ones
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def _union_vars(a, b):
    return tuple(sorted(set(a) | set(b), key=_var_key))


def _accumulate(terms: dict, items) -> dict:
    """Add each (exponents, coeff) of items into terms, deleting a key whose
    sum is zero; returns terms."""
    for exps, coeff in items:
        new = terms.get(exps, 0) + coeff
        if new:
            terms[exps] = new
        else:
            terms.pop(exps, None)
    return terms


class Poly:
    """Polynomial as a map from exponent vectors to nonzero exact
    coefficients (ints or Fractions, kept as given) over unique variables in
    a canonical sorted order.  __init__ and from_json check this canonical
    form on data from outside; every operation preserves it, so results are
    built unchecked (_of).  Operands with different variable sets are
    aligned automatically, so a polynomial in (x1, x2) compares equal to
    the same polynomial built over (b, x1, x2) with unused b.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        if list(vars) != sorted(set(vars), key=_var_key):
            raise ValueError(f"variables must be unique and sorted: {vars}")
        self.vars = vars
        self.terms = {}
        for exps, coeff in (terms or {}).items():
            coeff = exact_rational(coeff)
            if coeff:
                self.terms[tuple(exps)] = coeff

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "Poly":
        poly = object.__new__(cls)
        poly.vars = vars
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, value) -> "Poly":
        value = exact_rational(value)
        return cls._of((), {(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if not _NAME_RE.match(name):
            raise ValueError(f"bad variable name: {name!r}")
        return cls._of((name,), {(1,): 1})

    # -- alignment ---------------------------------------------------

    def _terms_over(self, vars):
        """self.terms re-indexed over the (super)set of variables `vars`."""
        if vars == self.vars:
            return self.terms
        pos = [vars.index(v) for v in self.vars]
        width = len(vars)
        out = {}
        for exps, coeff in self.terms.items():
            e = [0] * width
            for p, k in zip(pos, exps):
                e[p] = k
            out[tuple(e)] = coeff
        return out

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.constant(value)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        vars = _union_vars(self.vars, other.vars)
        return Poly._of(vars, _accumulate(dict(self._terms_over(vars)),
                                          other._terms_over(vars).items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly._of(_union_vars(self.vars, other.vars), {})
        vars = _union_vars(self.vars, other.vars)
        left = self._terms_over(vars)
        right = other._terms_over(vars)
        if len(left) > len(right):
            left, right = right, left
        return Poly._of(vars, _accumulate({}, (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in left.items() for e2, c2 in right.items())))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative int: {exponent}")
        result = Poly.constant(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        vars = _union_vars(self.vars, other.vars)
        return self._terms_over(vars) == other._terms_over(vars)

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(next(iter(self.terms.values())))

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; -1 for the zero poly."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient(self, var: str, power: int) -> "Poly":
        """The coefficient of var**power, as a polynomial without var."""
        if var not in self.vars:
            return self if power == 0 else Poly._of(self.vars, {})
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                terms[exps[:i] + exps[i + 1:]] = coeff
        return Poly._of(rest, terms)

    def substitute(self, values: dict) -> "Poly":
        """Evaluate some variables at rationals; names the polynomial does
        not use are ignored.  Returns a Poly in the remaining variables.

        The coefficients go over one denominator (over_common_denominator),
        and a variable of top exponent D set to p/d becomes the int table
        p^e * d^(D-e), which scales the terms by d^D.  The terms are summed
        on ints and each remaining coefficient is divided once by the whole
        scale; at scale 1 the coefficients stay ints.
        """
        hit = [i for i, v in enumerate(self.vars) if v in values]
        if not hit:
            return self
        keep = [i for i in range(len(self.vars)) if i not in hit]
        coeffs, scale = over_common_denominator(self.terms.values())
        tables = []
        for i in hit:
            value = exact_rational(values[self.vars[i]])
            p, d = value.numerator, value.denominator
            top = max((e[i] for e in self.terms), default=0)
            tables.append((i, [p ** e * d ** (top - e) for e in range(top + 1)]))
            scale *= d ** top
        items = []
        for exps, coeff in zip(self.terms, coeffs):
            for i, table in tables:
                coeff *= table[exps[i]]
            items.append((tuple(exps[i] for i in keep), coeff))
        terms = _accumulate({}, items)
        if scale != 1:
            terms = {e: Fraction(c, scale) for e, c in terms.items()}
        return Poly._of(tuple(self.vars[i] for i in keep), terms)

    def evaluate(self, values: dict) -> Fraction:
        """Full evaluation; every variable must receive a value."""
        return self.substitute(values).as_fraction()

    # -- exact division ----------------------------------------------

    def divide_by_difference(self, u: str, *vs: str) -> "Poly":
        """Exact division by (u - v_1) ... (u - v_k) via synthetic division in u.

        The terms are grouped by their power of u once, and each factor in
        turn divides those groups.  The remainder of each step is the
        dividend with u := v; a nonzero one raises ValueError, which
        callers treat as a hard correctness failure.
        """
        if not vs or u in vs:
            raise ValueError("each divisor (u - v) needs a v, distinct from u")
        vars = _union_vars(self.vars, (u, *vs))
        ui = vars.index(u)
        # slices[k] holds the coefficient of u^k, with the u exponent zeroed
        slices: dict[int, dict] = {}
        for exps, coeff in self._terms_over(vars).items():
            slices.setdefault(exps[ui], {})[exps[:ui] + (0,) + exps[ui + 1:]] = coeff
        for v in vs:
            vi = vars.index(v)
            # from the top power of u down, step = slice_k + v * (the step
            # before) is the quotient's coefficient of u^(k-1); at k = 0 it
            # is the remainder
            quotient, step = {}, {}
            for k in range(max(slices, default=0), -1, -1):
                step = _accumulate({e[:vi] + (e[vi] + 1,) + e[vi + 1:]: c for e, c in step.items()},
                                   slices.get(k, {}).items())
                if k and step:
                    quotient[k - 1] = step
            if step:
                raise ValueError(f"inexact division by ({u} - {v})")
            slices = quotient
        return Poly._of(vars, {e[:ui] + (k,) + e[ui + 1:]: c
                               for k, terms in slices.items() for e, c in terms.items()})

    # -- presentation ------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical order (total degree, then exponents
        lexicographically descending) used for printing and JSON."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), tuple(-e for e in item[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(self.vars, exps) if e]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, format_rational(mag))
            body = "*".join(factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({str(self)!r})"

    def to_json(self):
        """Term-list form: {'variables': [...], 'terms': [{'exponents': [...],
        'coeff': 'p/q'}, ...]} in canonical term order."""
        return {
            "variables": list(self.vars),
            "terms": [{"exponents": list(exps), "coeff": format_rational(coeff)}
                      for exps, coeff in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data) -> "Poly":
        terms = {tuple(t["exponents"]): parse_rational(t["coeff"]) for t in data["terms"]}
        return cls(tuple(data["variables"]), terms)


def determinant(matrix) -> Poly:
    """Determinant of a square matrix of polynomials (or scalars).

    Minor expansion along columns, bottom-up, one layer of minors (keyed by
    surviving rows) at a time; fine for the small matrices handled here.
    """
    rows = [[Poly._coerce(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    minors = {(): Poly.constant(1)}
    for col in range(n - 1, -1, -1):
        layer = {}
        for alive in combinations(range(n), n - col):
            total = Poly.constant(0)
            for t, r in enumerate(alive):
                entry = rows[r][col]
                if entry:
                    term = entry * minors[alive[:t] + alive[t + 1:]]
                    total = total + term if t % 2 == 0 else total - term
            layer[alive] = total
        minors = layer
    return minors[tuple(range(n))]
