"""Test-only helpers for Poly.

Full evaluation and the coefficient of one power of a variable are used by
the tests alone; the package substitutes and reads whole polynomials.  The
Leibniz sum is the reference determinant: the package takes determinants
of int matrices only (arith.determinant), and the tests need them of Poly
matrices too.  collapse is the reference for the tableau sum's diagonal,
which the package reads straight off the packed counts as its counts by
excess (grothendieck._tableau_sum_diagonal).  alternant_quotient is the generic
Horner chain of Lascoux-Schutzenberger divided differences, for any
alternant given by its first row, with its own divided difference and
symmetry guard; the package builds its bi-alternants from their Schur
coefficients (grothendieck._packed_bialternant, refined_bialternant), and
the tests hold the two against each other and against the Leibniz sum over
the Vandermonde.  series_parts is the coupled series' (parts, d) with each
Pochhammer table built by the Fraction recurrence, term k + 1 from term
k, the reference for hypergeom._series_parts, which builds its tables on
ints.  shifted_exponent_sum and geometric_powers are the shifted-exponent
expansion and principal_specialization_q's table of powers as they were
written before grothendieck._shifted_exponent_sum took each
q-Vandermonde by one product over combinations, returned an int sum as
one Fraction and built the powers by running products: a nested loop of
differences per set, the sum times 1 over the divisor, and each power
taken on its own.  lenart_support is the reference bound on the Schur
coefficients' partitions; the package searches none, since its one kernel
(grothendieck._exponent_set_sums) yields the exponent sets that occur.
"""

from fractions import Fraction
from itertools import permutations
from math import prod

from grothtab import grothendieck
from grothtab.arith import coupled_sum
from grothtab.polynomials import _NAME_RE, Poly, _Packing, _var_key


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


def lenart_support(lam) -> list:
    """The nu, of len(lam) parts (zeros allowed), whose Schur coefficient
    in G_lam can be nonzero (Lenart, "Combinatorial aspects of the
    K-theory of Grassmannians", 2000): nu contains lam, nu_1 = lam_1, and
    row i (0-based) is at most i cells longer than lam's."""
    support = [()]
    for i, part in enumerate(lam):
        support = [(*nu, p) for nu in support
                   for p in range(part, min(nu[-1] if nu else part, part + i) + 1)]
    return support


def vandermonde(names) -> Poly:
    """prod_(i<j) (names[i] - names[j])."""
    out = Poly.constant(1)
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            out = out * (Poly.variable(u) - Poly.variable(v))
    return out


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


def _divided_difference(terms: dict, su: int, sv: int, mask: int) -> dict:
    """The divided difference (f - f|u<->v) / (u - v) of the packed terms
    f, for the variables u and v at the shifts su and sv.  A term
    c u^a v^d m goes to c times the sum of u^(a-1-t) v^(d+t) m over
    0 <= t < a - d when a > d, to nothing when a = d, and, when d > a, to
    -c times the same sum for u^d v^a m; so the result is a polynomial by
    construction and nothing is divided.
    """
    one_u = 1 << su
    step = (1 << sv) - one_u  # times v / u
    out = {}
    for key, coeff in terms.items():
        gap = ((key >> su) & mask) - ((key >> sv) & mask)
        if not gap:
            continue
        if gap < 0:
            # u^a v^d with d > a: the swapped term u^d v^a, negated
            key += gap * step
            gap, coeff = -gap, -coeff
        key -= one_u
        for _ in range(gap):
            out[key] = out.get(key, 0) + coeff
            key += step
    return {e: c for e, c in out.items() if c}


def _check_symmetric(packing: _Packing, terms: dict, names):
    """Raise ArithmeticError unless the packed terms are unchanged by each
    swap of two adjacent names, hence symmetric in the names."""
    mask = packing.mask
    for u, v in zip(names, names[1:]):
        su, sv = packing.shift[u], packing.shift[v]
        step = (1 << sv) - (1 << su)
        # each key with u's and v's exponents swapped
        swapped = {key + (((key >> su) & mask) - ((key >> sv) & mask)) * step: coeff
                   for key, coeff in terms.items()}
        if swapped != terms:
            raise ArithmeticError(f"the alternant quotient is not symmetric in {u} and {v}")


def alternant_quotient(row, names) -> Poly:
    """det[f_j(names[i])]_(i,j<n) / prod_(i<j) (names[i] - names[j]),
    exactly, from the alternant's first row: row[j] is f_j(names[0]), a
    polynomial in names[0] and in variables that are not names.

    Each f_j is packed once with its names[0] field moved to names[j], and
    the divided differences d_i in names[i-1] and names[i] are applied in
    one Horner chain (the quotient is d_w0 of f_1(x_1) ... f_n(x_n), and
    f_(k+1)(x_(k+1)) is symmetric in x_1..x_k):

        Q_1 = f_1(x_1),
        Q_(k+1) = d_1 d_2 ... d_k [Q_k f_(k+1)(x_(k+1))]   (d_k applied first),

    where Q_k is the leading k x k alternant quotient, so nothing is
    divided.  The fields are 2^w > D wide for D the sum of the entries'
    total degrees: Q_k has total degree at most deg f_1 + ... + deg f_k
    less the k(k-1)/2 divided differences that made it, and a divided
    difference lowers the total degree of each term by one, so no key of
    the chain has an exponent above D.  An entry that holds another row's
    name raises ValueError, and a result that is not symmetric in the names
    ArithmeticError.  The result is over the entries' variables, and the
    names when there are two or more.
    """
    row = [Poly._coerce(entry) for entry in row]
    names = tuple(names)
    if len(names) != len(row):
        raise ValueError(f"need one name per entry, got {len(names)} names for {len(row)} entries")
    if len(set(names)) != len(names):
        raise ValueError(f"the names must be distinct: {names}")
    used = {v for entry in row for v in entry.vars}
    if used.intersection(names[1:]):
        held = sorted(used.intersection(names[1:]), key=_var_key)
        raise ValueError(f"the row is at {names[0]}, but its entries hold {', '.join(held)}")
    bound = sum(max(entry.degree(), 0) for entry in row)
    if len(names) > 1:
        used.update(names)
    packing = _Packing(tuple(sorted(used, key=_var_key)), bound)
    shift = packing.shift
    chain = {0: 1}
    for k, (entry, name) in enumerate(zip(row, names)):
        shifts = [shift[name if v == names[0] else v] for v in entry.vars]
        column = {sum(e << s for e, s in zip(exps, shifts)): coeff
                  for exps, coeff in entry.terms.items()}
        product = {}
        for e1, c1 in chain.items():
            for e2, c2 in column.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        chain = product
        for i in range(k, 0, -1):
            chain = _divided_difference(chain, shift[names[i - 1]], shift[names[i]], packing.mask)
    _check_symmetric(packing, chain, names)
    return packing.unpack(chain)


def series_parts(inst) -> tuple[list, int]:
    """(parts, d) of the coupled series, as hypergeom._series_parts gives
    them, from tables of Fractions, each term the one before times
    prod (a + k) z / prod (b + k), which arith.coupled_sum puts over the
    lcm of their denominators; no size guard and no vanishing check."""
    weights = []
    for i, top in enumerate(inst.termination_bounds()):
        nums, dens = inst.row_numerators(i + 1), inst.row_denominators(i + 1)
        w = [Fraction(1)]
        for k in range(top):
            w.append(w[-1] * prod(a + k for a in nums) * inst.z[i] / prod(b + k for b in dens))
        weights.append(w)
    coupling = inst.coupling
    parts, d = coupled_sum(weights, lambda i, j, ki, kj: coupling[j - 1][i] + ki - kj)
    return parts, d * prod(a for row in coupling for a in row)


def shifted_exponent_sum(shape, n, betas, power_table, vanishing="the divisor vanishes"):
    """grothendieck._shifted_exponent_sum as a nested loop: for each of the
    kernel's sets S (grothendieck._exponent_set_sums), its powers by
    increasing exponent and the product of their differences taken one at
    a time; the sum times 1 over the Vandermonde-type product and the
    tables' scale.  No size guard."""
    c = tuple(p + n - 1 - j for j, p in enumerate(shape.padded(n)))
    powers = power_table(max(c, default=0))
    if len(set(powers[:n])) < n:
        raise ValueError(vanishing)
    symbols = tuple(sorted({beta for beta in betas if isinstance(beta, str)}, key=_var_key))
    total = Poly._of(symbols, {}) if symbols else 0
    for mask, coeff in grothendieck._exponent_set_sums(c, *betas).items():
        s = [p for e, p in enumerate(powers) if mask >> e & 1]
        vandermonde = 1
        for u, su in enumerate(s):
            for sv in s[u + 1:]:
                vandermonde *= su - sv
        total += coeff * vandermonde
    denom = prod(powers[n - 1 - j] - powers[n - 1 - i] for j in range(n) for i in range(j))
    return total * Fraction(1, denom * grothendieck._beta_tables(*betas)[1])


def geometric_powers(q):
    """principal_specialization_q's table of powers for q = p/d: each
    p^e d^(top-e) taken on its own."""
    return lambda top: [q.numerator ** e * q.denominator ** (top - e) for e in range(top + 1)]
