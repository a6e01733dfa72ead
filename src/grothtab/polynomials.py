"""Sparse multivariate polynomials over exact rationals.

Coefficients are the exact numbers arith.exact_rational admits: a Poly built
from ints keeps int coefficients, and Fractions appear only where a rational
input or a rational operation puts them.

Just enough ring machinery for the determinant formulas: arithmetic,
substitution, packed monomials and exact synthetic division by a product
of differences (u - v_1) ... (u - v_k) sharing one variable u, on the terms
grouped by their power of u once.  Division checks the remainder of every
factor and raises on a nonzero one instead of ever returning an
approximation; an int dividend keeps int coefficients.  Substitution sums
integer numerators and divides each remaining coefficient once (the
integer rule of arith), so all-int data keeps int coefficients.

The bi-alternants and the division run on packed monomials: an exponent
vector (e_0, ..., e_m) becomes the int key sum e_t << (w * t), with one
field width rule, 2^w > D for the degree bound D (_Packing says why D
bounds every exponent).  _Packed holds terms with their packing, compares
equal only to terms over an equal packing (a different one raises rather
than unpacking either side) and unpacks on request.  _shape_packing is the
one packing of a shape's polynomials in n variables, over (b, x_1, ...,
x_n), wide enough for the set-valued tableau sum and the bi-alternant's
Schur route (grothendieck._packed_bialternant), so the two compare on
keys; the refined quotient (grothendieck.refined_bialternant) takes the
same bound over its betas' names.  Poly.divide_by_difference is the one
synthetic division.  determinant here is arith.determinant, the int
kernel, which refuses a Poly entry with TypeError; the package takes no
determinant of Poly entries, since the refined quotient's Schur
coefficients come from the column expansion by exponent set
(grothendieck._exponent_set_sums).

Polynomials are immutable values; every operation returns a fresh Poly.
"""

import re
from fractions import Fraction
from operator import add

from .arith import exact_rational, format_rational, over_common_denominator, parse_rational
# arith's int kernel, also bound here: perfbench/spans.py traces it as
# polynomials.determinant
from .arith import determinant  # noqa: F401

_NAME_RE = re.compile(r"[A-Za-z]+[0-9]*\Z")


def _var_key(name: str):
    # 'x2' sorts before 'x10'; bare names sort before numbered ones; the
    # digits themselves break a tie ('x01' before 'x1'), so the order is total
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1, tail)


def _union_vars(a, b):
    # the operands of most products and sums share one variable tuple,
    # which is sorted already, or one of them has none
    return a or b if not (a and b) or a == b else tuple(sorted({*a, *b}, key=_var_key))


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
            exps = tuple(exps)
            if len(exps) != len(vars) or not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents {exps} are not {len(vars)} non-negative ints")
            coeff = exact_rational(coeff)
            if coeff:
                self.terms[exps] = coeff

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
            (tuple(map(add, e1, e2)), c1 * c2)
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
        if isinstance(other, bool):
            return NotImplemented
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

    # -- exact division ----------------------------------------------

    def divide_by_difference(self, u: str, *vs: str) -> "Poly":
        """Exact division by (u - v_1) ... (u - v_k) via synthetic division in u.

        The terms are packed (see _Packing), grouped by their power of u
        once, and each factor in turn divides those groups.  The remainder
        of each step is the dividend with u := v; a nonzero one raises
        ValueError, which callers treat as a hard correctness failure.
        """
        if not vs or u in vs:
            raise ValueError("each divisor (u - v) needs a v, distinct from u")
        packing = _Packing(tuple(sorted({*self.vars, u, *vs}, key=_var_key)), self.degree())
        groups = packing.split(packing.pack(self), u)
        return packing.unpack(packing.join(_divide_packed(packing, groups, u, vs), u))

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


def _field_width(degree: int) -> int:
    """Bits per packed exponent: the least w >= 1 with 2^w > degree."""
    return max(degree, 1).bit_length()


class _Packing:
    """Monomials over `vars` packed into one int each: the exponent vector
    (e_0, ..., e_m) becomes the key sum e_t << (w * t).  A product of
    monomials is then one int addition, times v is key + (1 << shift[v]),
    and the power of u is (key >> shift[u]) & mask.

    Keys add without carries while no exponent reaches 2^w, so the caller
    passes a bound D on every exponent that will arise and w is chosen with
    2^w > D (_field_width).

    A synthetic division step by (u - v) is a sum of the dividend's
    u^m-slices times v^(m-k), whose total degree is at most the
    dividend's, and every quotient has a smaller total degree than its
    dividend; so the dividend's degree bounds every key of every division
    step.

    A shape's polynomials in n variables have one packing, over
    (b, x_1, ..., x_n), by one rule (_shape_packing): D = |shape| n.  It
    is the tableau sum's bound (grothendieck._tableau_sum): a filling's
    key counts its letters in field b, at most n per cell, and letter v in
    field x_v, at most once per cell, and every prefix of a filling the
    backtracker carries counts fewer.  It covers the bi-alternant's Schur
    route (grothendieck._packed_bialternant) too: its x exponents are at
    most nu_1 = l_1 <= |shape|, and its power of b, |nu| - |shape| with
    every part of nu at most l_1, is at most |shape| (n - 1).  Packed terms
    over different packings do not compare (_Packed), so both sides take
    this one rule.  The refined quotient (grothendieck.refined_bialternant)
    packs over its betas' names and x_1, ..., x_n with the same D: its x
    exponents are those of the Schur route, and a coefficient a_nu is of
    degree |nu| - |shape| <= |shape| (n - 1) in the betas.
    """

    __slots__ = ("vars", "mask", "shift")

    def __init__(self, vars: tuple, degree: int):
        width = _field_width(degree)
        self.vars = vars
        self.mask = (1 << width) - 1
        self.shift = {v: width * t for t, v in enumerate(vars)}

    def variable(self, v) -> int:
        """The key of the monomial v."""
        return 1 << self.shift[v]

    def pack(self, poly: Poly) -> dict:
        """poly's terms as {key: coeff}."""
        shifts = [self.shift[v] for v in poly.vars]
        return {sum(e << s for e, s in zip(exps, shifts)): coeff
                for exps, coeff in poly.terms.items()}

    def unpack(self, terms: dict) -> Poly:
        shifts = [self.shift[v] for v in self.vars]
        mask = self.mask
        return Poly._of(self.vars, {tuple((key >> s) & mask for s in shifts): coeff
                                    for key, coeff in terms.items()})

    def split(self, terms: dict, u) -> dict:
        """The terms grouped by their power of u, {k: {key with u's
        exponent zeroed: coeff}}."""
        shift, mask = self.shift[u], self.mask
        groups = {}
        for key, coeff in terms.items():
            k = (key >> shift) & mask
            groups.setdefault(k, {})[key - (k << shift)] = coeff
        return groups

    def join(self, groups: dict, u) -> dict:
        """The terms that split grouped, less any zero coefficient."""
        shift = self.shift[u]
        return {e + (k << shift): c for k, group in groups.items() for e, c in group.items() if c}


def _shape_packing(names, size: int) -> _Packing:
    """The one packing of a shape's polynomials over names = (b, x_1, ...,
    x_n), for a shape of the given size: D = size n, which covers the
    tableau sum and the bi-alternant's Schur route (see _Packing)."""
    return _Packing(tuple(names), size * (len(names) - 1))


class _Packed:
    """Terms {key: nonzero coefficient} on the keys of a packing.

    Two compare equal when their terms are.  Packed terms over packings
    that differ, in their variables or their field width, raise ValueError
    instead: their keys stand for different monomials, and neither side is
    unpacked to compare them.  A value that is not packed raises
    TypeError.  str is that of the unpacked polynomial.
    """

    __slots__ = ("packing", "terms")

    def __init__(self, packing: _Packing, terms: dict):
        self.packing = packing
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, _Packed):
            raise TypeError(f"packed terms do not compare with {type(other).__name__}")
        mine, theirs = self.packing, other.packing
        if (mine.vars, mine.mask) != (theirs.vars, theirs.mask):
            raise ValueError(f"packed terms over {mine.vars} in {mine.mask.bit_length()}-bit "
                             f"fields do not compare with packed terms over {theirs.vars} "
                             f"in {theirs.mask.bit_length()}-bit fields")
        return self.terms == other.terms

    __hash__ = None

    def unpack(self) -> Poly:
        return self.packing.unpack(self.terms)

    def __str__(self):
        return str(self.unpack())


def _divide_packed(packing: _Packing, groups: dict, u: str, vs) -> dict:
    """sum_k u^k groups[k] divided by (u - v) for each v in vs, as the
    quotient's groups (_Packing.split): synthetic division in u.  A
    nonzero remainder raises ValueError.  Zero coefficients in the groups
    are allowed; the quotient has none."""
    for v in vs:
        one_v = packing.variable(v)
        # from the top power of u down, step = groups[k] + v * (the step
        # before) is the quotient's coefficient of u^(k-1); at k = 0 it is
        # the remainder
        quotient, step = {}, {}
        for k in range(max(groups, default=0), -1, -1):
            step = _accumulate({e + one_v: c for e, c in step.items()},
                               groups.get(k, {}).items())
            if k and step:
                quotient[k - 1] = step
        if step:
            raise ValueError(f"inexact division by ({u} - {v})")
        groups = quotient
    return groups
