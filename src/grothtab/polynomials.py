"""Sparse multivariate polynomials over exact rationals.

Coefficients are the exact numbers arith.exact_rational admits: a Poly built
from ints keeps int coefficients, and Fractions appear only where a rational
input or a rational operation puts them.

Just enough ring machinery for the determinant formulas: arithmetic,
substitution, setting variables equal (collapse), determinants of
polynomial matrices, and exact synthetic division by a product of
differences (u - v_1) ... (u - v_k) sharing one variable u, on the terms
grouped by their power of u once.  Division checks the remainder of every
factor and raises on a nonzero one instead of ever returning an
approximation; an int dividend keeps int coefficients.
Substitution sums integer numerators and divides each remaining coefficient
once (the integer rule of arith), so all-int data keeps int coefficients.

The determinant and the division run on packed monomials: an exponent
vector (e_0, ..., e_m) becomes the int key sum e_t << (w * t), with one
field width rule, 2^w > D for the degree bound D (_Packing says why D
bounds every exponent).  There is one expansion and one synthetic division
on these keys.  alternant_quotient(matrix, names), for a matrix whose row
i holds the column functions at names[i], is the determinant divided by
the Vandermonde in the names: it packs the entries once, expands along
the rows top down, divides each leading minor by the Vandermonde in its
rows' names as soon as the minor is summed, so that the full determinant
is never built, and unpacks once.  determinant is the same kernel with no
names, and Poly.divide_by_difference runs the same division.

Polynomials are immutable values; every operation returns a fresh Poly.
"""

import re
from fractions import Fraction
from itertools import combinations
from operator import add

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

    def collapse(self, names, var: str) -> "Poly":
        """The polynomial with every variable in names set equal to var:
        each term's exponents of those variables, and of var itself, are
        summed into var's.  Names the polynomial does not use are ignored.
        Exact: terms that meet add their coefficients, and nothing else
        changes.
        """
        if not _NAME_RE.match(var):
            raise ValueError(f"bad variable name: {var!r}")
        merged = set(names) | {var}
        keep = [i for i, v in enumerate(self.vars) if v not in merged]
        vars = tuple(sorted([self.vars[i] for i in keep] + [var], key=_var_key))
        at = vars.index(var)
        terms = {}
        for exps, coeff in self.terms.items():
            e = [exps[i] for i in keep]
            # var's exponent: the term's degree less that of the kept variables
            e.insert(at, sum(exps) - sum(e))
            e = tuple(e)
            terms[e] = terms.get(e, 0) + coeff
        return Poly._of(vars, {e: c for e, c in terms.items() if c})

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
        packing = _Packing(_union_vars(self.vars, (u, *vs)), self.degree())
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
    2^w > D (_field_width).  For a determinant or an alternant quotient, D
    is the sum over columns of the largest total degree of an entry (0 for
    a zero column).  A leading minor on the columns S is a sum of products
    of one entry per column, so its degree is at most the sum of its
    columns' degrees, and its quotient by a Vandermonde has a smaller
    degree still.  Each product rows[k][S_t] Q_(S - S_t) that a per-level
    dividend of _quotient_packed sums therefore has total degree at most
    the sum over the columns S, which is at most D: no monomial of any
    dividend has total degree, hence any exponent, above D.  A synthetic
    division step by (u - v) is a sum of the dividend's u^m-slices times
    v^(m-k), whose total degree is at most the dividend's, and every
    quotient has a smaller total degree than its dividend; so D also
    bounds every key of every division step.  The tableau sum
    (grothendieck._tableau_sum) packs its fillings' weights over (b, x_1,
    ..., x_n) with D = |shape| n, the bound on its letter count in b.
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
        exponent zeroed: coeff}}; with u None, all in group 0."""
        if u is None:
            return {0: terms} if terms else {}
        shift, mask = self.shift[u], self.mask
        groups = {}
        for key, coeff in terms.items():
            k = (key >> shift) & mask
            groups.setdefault(k, {})[key - (k << shift)] = coeff
        return groups

    def join(self, groups: dict, u) -> dict:
        """The terms that split grouped, less any zero coefficient."""
        shift = self.shift.get(u, 0)
        return {e + (k << shift): c for k, group in groups.items() for e, c in group.items() if c}


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


def _quotient_packed(packing: _Packing, rows, names) -> dict:
    """det(rows) / prod_(i<j) (names[i] - names[j]) on packed entries, row
    i being at names[i]; with no names, det(rows).

    Laplace expansion along the rows, top down.  Layer k holds, for each
    set S of k + 1 columns, Q_S: the minor on rows 0..k and the columns S
    divided by the Vandermonde in names[0..k].  Expanding that minor along
    its last row gives

        Q_S = sum_t (-1)^(k+t) rows[k][S_t] Q_(S - S_t) / prod_(i<k) (names[i] - names[k]),

    and each Q_S is divided, its remainder checked, as soon as it is summed.
    Only row k's entries hold names[k], so the sum is built already grouped
    by its power of names[k], as the division wants it (were names[k] in
    another row, the groups would keep its powers as coefficients, and
    each division's identity would still hold once they are joined).
    _divide_packed divides by prod_(i<k) (names[k] - names[i]), which is
    (-1)^k times the product above, so with names the term's sign is
    (-1)^t.  By induction on k, a result that every division let through
    satisfies Q V = det exactly.  Zero entries and zero quotients are
    skipped.
    """
    n = len(rows)
    layer = {(): {0: 1}}
    for k, row in enumerate(rows):
        # the name row k is at; row 0 has nothing to divide by
        u = names[k] if k and names else None
        # the cofactor's (-1)^k, unless the division takes it out
        level = -1 if k % 2 and not names else 1
        row = [packing.split(entry, u) for entry in row]
        quotients = {}
        for cols in combinations(range(n), k + 1):
            groups = {}
            for t, col in enumerate(cols):
                entry = row[col]
                minor = layer[cols[:t] + cols[t + 1:]]
                if entry and minor:
                    sign = -level if t % 2 else level
                    minor = minor.items()
                    for power, part in entry.items():
                        total = groups.setdefault(power, {})
                        for e1, c1 in part.items():
                            c1 *= sign
                            for e2, c2 in minor:
                                e = e1 + e2
                                total[e] = total.get(e, 0) + c1 * c2
            if u is not None:
                groups = _divide_packed(packing, groups, u, names[:k])
            quotients[cols] = packing.join(groups, u)
        layer = quotients
    return layer[tuple(range(n))]


def alternant_quotient(matrix, names) -> Poly:
    """det(matrix) / prod_{i<j} (names[i] - names[j]), exactly, for a
    matrix whose row i holds the column functions at names[i]: entry (i, j)
    is f_j(names[i]) for polynomials f_j in one name and in variables that
    are not names.

    One pass: the entries are packed once (see _Packing), expanded row by
    row and divided at every row (_quotient_packed), and unpacked once; the
    full determinant is never built.  A matrix whose determinant the
    Vandermonde does not divide (one that is not alternating) raises
    ValueError at a nonzero remainder, and so can rows that are not at
    their names; whatever is returned, times the Vandermonde, is the
    determinant exactly.  There must be one name per row, or none (the
    determinant).  The result is over the entries' variables, and the
    names when there are two or more.
    """
    rows = [[Poly._coerce(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    names = tuple(names)
    if names and len(names) != n:
        raise ValueError(f"need one name per row, got {len(names)} names for {n} rows")
    if len(set(names)) != len(names):
        raise ValueError(f"the names must be distinct: {names}")
    used = {v for row in rows for entry in row for v in entry.vars}
    if len(names) > 1:
        used.update(names)
    degree = sum(max(0, *(entry.degree() for entry in column)) for column in zip(*rows))
    packing = _Packing(tuple(sorted(used, key=_var_key)), degree)
    return packing.unpack(_quotient_packed(
        packing, [[packing.pack(entry) for entry in row] for row in rows], names))


def determinant(matrix) -> Poly:
    """Determinant of a square matrix of polynomials (or scalars): the
    alternant quotient with no names to divide by."""
    return alternant_quotient(matrix, ())
