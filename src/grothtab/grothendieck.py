"""Schur and Grothendieck polynomials, five independent ways.

The set-valued tableau generating sum (enumerate_svt weighs each filling
as the sum of its letters' packed int units, and the sum counts those
keys and keeps them, memoized per (shape, n); its diagonal
x_1 = ... = x_n = t is read off their b field as its counts by excess,
and the public sum is unpacked on request), the bi-alternant quotient at
one beta from its Schur coefficients (_packed_bialternant, on the keys of
the one packing polynomials._shape_packing gives a shape, which the
tableau sum takes too), its refined multi-parameter form from its refined
Schur coefficients (refined_bialternant), the integral bi-alternant
matrix taken at n distinct rational points on ints
(refined_bialternant_at: arith.determinant, fraction-free elimination in
O(n^3) int products, divided once, with no polynomial in x built), and
the shifted-exponent expansion that evaluates the refined quotient at the
geometric point x = (1, q, ..., q^(n-1)) without any determinant.  Every
refined route takes max(n - 1, 0) betas, so in n = 0 variables the empty
shape gives 1 on every route.
Keeping the routes separate is the point: the verification harness compares
them against each other.
One kernel gives every Schur coefficient.  _exponent_set_sums expands
the bi-alternant's columns x^(c_j) prod_(k<j) (d_k + p_k x), for
c_j = l_j + n - 1 - j and beta_k = p_k/d_k, one column at a time over
int (or int Poly) tables (_beta_tables), and keeps each signed product of
weights by its set S of shifted exponents, memoized per (c, betas).  Its
C_S is the coefficient of s_(S - delta) in the refined quotient (Lenart,
"Combinatorial aspects of the K-theory of Grassmannians", 2000, at one
beta), times the tables' scale prod_k d_k^(n-1-k).  _packed_bialternant
reads it at every beta = 1, where table j is C(j, .), and gives
s_(S - delta) the power b^(|S| - |c|); refined_bialternant reads it at
its betas and divides by the scale once.  Both expand each s_nu by its
Kostka numbers onto the packed keys of every rearrangement of each
exponent (_dominant_coefficients, _orbit_keys), so no row in x is built
and nothing is divided by the Vandermonde.  The shifted-exponent
expansion (_shifted_exponent_sum) reads the same sums with a table of
powers P[e] standing for q^e: the q-Vandermonde of a term's exponents is,
up to its sign, the one of S, so the value is sum_S C_S times the
q-Vandermonde of S, divided once by the q-Vandermonde of the same table
at (n - 1, ..., 0) and the scale (one Fraction of two ints when every beta
is rational).  The q-Vandermondes' digit products are counted before the
first is taken, and more than arith.MAX_SERIES_TERMS thousand are refused,
as the kernel refuses more products.  The binomial-shift count formula is
that sum at every beta = 1 in the limit q -> 1, where the table of powers
is the exponents themselves, so gg-eq-w's bi-alternant and cor-3.8's count
formula read one memo; no check has the kernel on both sides (gg-eq-w
holds it against the tableau sum, thm-3.5 against refined_bialternant_at
and cor-3.8 against enumeration).
Work that does not change between a check's rows or values of n is
memoized: the tableau sum and its diagonal per (shape, n), the kernel's
tables per betas and its sums per (c, betas), shared by thm-3.5's qs and,
at every beta = 1, by the count formula and the bi-alternant, the Kostka
table per (nu, n), a plain dict, and the orbits' packed keys per (mu,
packing shifts), each orbit built from the memoized sub-orbit that n - 1
variables on the same field width read too.
A beta is an int, a Fraction or a variable name: a string beta names a
variable, so '1/2' is refused as a bad name, and so is a name that sorts
as one of x1..xn, which would be that variable (refined_bialternant_at
alone, which takes no names, parses a 'p/q' string beta).  q and a point
value are an int, a Fraction or a 'p/q' string.  A float is refused.  A
variable count is an int; any other number raises TypeError rather than
being cut down.
"""

import operator
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product, repeat, starmap
from math import factorial, prod

from .arith import _check_size, determinant, exact_count, exact_rational
from .partitions import Partition
from .polynomials import Poly, _Packed, _Packing, _shape_packing, _var_key
from .tableaux import enumerate_svt

BETA = "b"
# the bits of one digit of an int, the unit its products work in
_DIGIT_BITS = sys.int_info.bits_per_digit


def _x_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, nvars + 1))


def grothendieck_tableau_sum(shape, nvars: int) -> Poly:
    """Sum of b^excess x^weight over all set-valued fillings.

    The coefficient of b^0 is the Schur polynomial of the same shape.
    """
    return _tableau_sum(Partition(shape), operator.index(nvars)).unpack()


@lru_cache(maxsize=None)
def _tableau_sum(shape: Partition, nvars: int) -> _Packed:
    """Sum of b^excess x^weight over the fillings enumerate_svt yields, on
    packed keys.

    Letter v weighs the packed monomial b x_v, so the key enumerate_svt
    yields for a filling counts its letters in field b and letter v in
    field x_v; the distinct keys are counted, and b^|shape| is taken off
    each (the excess is letters minus cells, and no cell is empty).  Field
    b is at most |shape| n and each x field at most |shape|; the packing
    is _shape_packing's, which covers that bound and the symbolic
    bi-alternant's, so _packed_bialternant comes out on the same keys.
    """
    packing = _shape_packing((BETA, *_x_names(nvars)), shape.size)
    b = packing.variable(BETA)
    units = [0, *(b + packing.variable(x) for x in packing.vars[1:])]
    counts = Counter(enumerate_svt(shape, nvars, units))
    cells = shape.size * b
    return _Packed(packing, {key - cells: count for key, count in counts.items()})


@lru_cache(maxsize=None)
def _tableau_sum_diagonal(shape: Partition, nvars: int) -> tuple[int, ...]:
    """The tableau sum at x_1 = ... = x_n = t as its counts by excess
    (c_0, ..., c_E): c_e fillings have excess e, read off the b field of
    _tableau_sum's packed counts with nothing unpacked, each added into a
    list over the field's whole range, whose trailing zeros are then
    dropped.  A filling of excess e has |shape| + e letters, so the
    diagonal is sum_e c_e b^e t^(|shape| + e) and the tuple loses
    nothing; it is empty when there is no filling.  Memoized per
    (shape, nvars), so a process passes over each full sum's terms once."""
    packed = _tableau_sum(shape, nvars)
    shift, mask = packed.packing.shift[BETA], packed.packing.mask
    by_excess = [0] * (mask + 1)
    for key, count in packed.terms.items():
        by_excess[(key >> shift) & mask] += count
    while by_excess and not by_excess[-1]:
        by_excess.pop()
    return tuple(by_excess)


def grothendieck_bialternant(shape, nvars: int, beta=BETA) -> Poly:
    """Determinant quotient det[x_i^(l_j + n - j) (1 + beta x_i)^(j-1)] / V.

    The shape is zero-padded to n parts; beta may be a rational or a
    variable name other than x1..xn.  The quotient is
    _packed_bialternant's, from its Schur coefficients at the symbolic b,
    read at beta: b renamed, or set to the rational.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    beta = _symbol(beta, n) if isinstance(beta, str) else exact_rational(beta)
    poly = _packed_bialternant(shape, n).unpack()
    if not isinstance(beta, str):
        return poly.substitute({BETA: beta})
    renamed = Poly._of((beta, *poly.vars[1:]), poly.terms)
    names = tuple(sorted(renamed.vars, key=_var_key))
    return Poly._of(names, renamed._terms_over(names))


def _beta_count(n: int) -> int:
    """The number of betas the refined routes take in n variables: one per
    column after the first."""
    return max(n - 1, 0)


def _ratio(value):
    """An exact rational value = p/d as (p, d), so that d + p x is d times
    1 + value x."""
    value = exact_rational(value)
    return value.numerator, value.denominator


def _integral_rows(lam, factors, points):
    """The integral bi-alternant's rows at the rational point
    refined_bialternant_at takes, one per x_i = num/den given as
    (num, den), and their scale: entry (i, j) is

        num^(l_j+n-1-j) den^(l_1-l_j) prod_(k<j) (d_k den + p_k num)

    for the factors (p_k, d_k), that is den^(l_1+n-1) times
    x^(l_j+n-1-j) prod_(k<j) (d_k + p_k x).  The scale
    prod_k d_k^(n-1-k) prod_i den_i^(l_1) is what scaling the columns and
    homogenising the rows put into the determinant.
    """
    n = len(lam)
    rows = []
    for num, den in points:
        row, entry_factor = [], 1
        for j in range(n):
            if j:
                p, d = factors[j - 1]
                entry_factor = entry_factor * (d * den + p * num)
            row.append(num ** (lam[j] + n - 1 - j) * den ** (lam[0] - lam[j]) * entry_factor)
        rows.append(row)
    scale = prod(d ** (n - 1 - k) for k, (_, d) in enumerate(factors))
    return rows, scale * prod(den ** lam[0] for _, den in points)


def refined_bialternant(shape, nvars: int, betas) -> Poly:
    """Multi-parameter determinant quotient: column j carries the product
    (1 + beta_1 x_i) ... (1 + beta_(j-1) x_i).

    Exactly n-1 beta values (rationals or variable names) are required.
    Setting all of them equal recovers grothendieck_bialternant; setting
    them to zero recovers the Schur polynomial.  A beta named like one of
    x1..xn is refused with ValueError.

    From its refined Schur coefficients, as _packed_bialternant at one
    beta: with c_j = l_j + n - 1 - j (0-based j < n) and beta_k = p_k/d_k
    (a variable is itself over 1), _dominant_coefficients reads the
    kernel's sums C_S by exponent set (_exponent_set_sums, over the int or
    int Poly tables of _beta_tables) at these betas, and
    sum_S C_S K(S - delta, mu), a polynomial in the betas, is the
    coefficient of x^mu at every distinct rearrangement of mu
    (_orbit_keys).  The keys are over the betas' names and x1..xn, in
    fields of _Packing's bound |shape| n, and each coefficient is divided
    once by the tables' scale prod_k d_k^(n-1-k), so int betas give int
    coefficients.  A quotient of more than arith.MAX_SERIES_TERMS
    monomials in x (the rearrangements of each mu whose coefficient is
    not 0) is refused with ValueError before any key is written, and the
    kernel refuses more products than that on its own.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(betas) != _beta_count(n):
        raise ValueError(f"need exactly {_beta_count(n)} beta values, got {len(betas)}")
    betas = [_symbol(beta, n) if isinstance(beta, str) else exact_rational(beta)
             for beta in betas]
    if len(shape) > n:
        return Poly.constant(0)
    dominant = _dominant_coefficients(shape, n, betas)
    _check_size(sum(factorial(n) // prod(map(factorial, Counter(mu).values()))
                    for mu, coeff in dominant.items() if coeff), "the quotient has {} monomials in x")
    names = _x_names(n)
    symbols = {beta for beta in betas if isinstance(beta, str)}
    packing = _Packing(tuple(sorted(symbols.union(names), key=_var_key)), shape.size * n)
    scale = _beta_tables(*betas)[1]
    shifts = tuple(packing.shift[x] for x in names)
    terms = {}
    for mu, coeff in dominant.items():
        for head, value in packing.pack(Poly._coerce(coeff)).items():
            terms.update(zip(map(head.__add__, _orbit_keys(mu, shifts)), repeat(value)))
    if scale != 1:
        terms = {key: Fraction(value, scale) for key, value in terms.items()}
    return packing.unpack(terms)


def _symbol(name: str, n: int) -> str:
    """A symbolic beta's name, once Poly.variable has checked it; a name
    numbered as one of x1..xn (x01 too) would read as that variable, so it
    raises ValueError."""
    head, index, _ = _var_key(Poly.variable(name).vars[0])
    if head == "x" and 1 <= index <= n:
        raise ValueError(f"the beta {name!r} is named like one of the variables x1..x{n}")
    return name


def _packed_bialternant(shape: Partition, nvars: int) -> _Packed:
    """grothendieck_bialternant(shape, nvars) at the symbolic beta b, on
    the keys of _shape_packing, the packing _tableau_sum's counts are on,
    so that the two compare without unpacking.

    From the quotient's Schur coefficients: expanding each column's
    (1 + b x)^j gives G_l = sum_nu b^(|nu| - |l|) a_nu s_nu, where a_nu is
    the kernel's sum C_S at every beta = 1 (_exponent_set_sums, whose table
    j is then C(j, .)) for S = nu + delta, the sums count_svt_formula
    reads too.  The coefficient of b^(|mu| - |l|) x^mu, for mu weakly
    decreasing, is then sum_nu a_nu K(nu, mu) (_dominant_coefficients),
    and it stands at every distinct rearrangement of mu (_orbit_keys).
    Nothing here enumerates a tableau.
    """
    packing = _shape_packing((BETA, *_x_names(nvars)), shape.size)
    if len(shape) > nvars:
        return _Packed(packing, {})
    shifts = tuple(packing.shift[x] for x in packing.vars[1:])
    terms = {}
    for mu, coeff in _dominant_coefficients(shape, nvars, [1] * _beta_count(nvars)).items():
        if coeff:
            head = (sum(mu) - shape.size) << packing.shift[BETA]
            terms.update(zip(map(head.__add__, _orbit_keys(mu, shifts)), repeat(coeff)))
    return _Packed(packing, terms)


def _dominant_coefficients(shape: Partition, n: int, betas) -> dict:
    """{mu: sum_S C_S K(S - delta, mu)} over the weakly decreasing mu of n
    parts, for the kernel's sums C_S by exponent set
    (_exponent_set_sums(c, *betas), c_j = l_j + n - 1 - j): each S with
    C_S nonzero, read as the partition nu = S - delta without zero parts
    (the t-th smallest exponent, from t = 0, less t is the t-th smallest
    part), weighs its Kostka numbers (_dominant_schur(nu, n)).  That is
    the refined quotient's coefficient of x^mu, and of every rearrangement
    of mu, times the tables' scale."""
    c = tuple(p + n - 1 - j for j, p in enumerate(shape.padded(n)))
    dominant = {}
    for mask, coeff in _exponent_set_sums(c, *betas).items():
        if coeff:
            exponents = [e for e in range(mask.bit_length()) if mask >> e & 1]
            nu = tuple(e - t for t, e in enumerate(exponents) if e > t)[::-1]
            for mu, count in _dominant_schur(nu, n).items():
                dominant[mu] = dominant.get(mu, 0) + coeff * count
    return dominant


@lru_cache(maxsize=None)
def _strips(nu: tuple, rows: int) -> tuple:
    """Each kappa of at most `rows` parts with nu/kappa a horizontal strip,
    as (the strip's cells, kappa without zero parts): kappa_i runs over
    nu_(i+1)..nu_i.  There are none when nu has more than rows + 1 parts."""
    if len(nu) > rows + 1:
        return ()
    size, nu = sum(nu), (*nu, *[0] * (rows + 1 - len(nu)))
    return tuple((size - sum(kappa), tuple(filter(None, kappa)))
                 for kappa in product(*(range(nu[i + 1], nu[i] + 1) for i in range(rows))))


@lru_cache(maxsize=None)
def _dominant_schur(nu: tuple, n: int) -> dict:
    """The Kostka numbers {mu: K(nu, mu)} of the partition nu (no zero
    parts) over the weakly decreasing mu of n parts, which are s_nu's
    coefficients at x^mu in n variables: the largest letter n fills a
    horizontal strip nu/kappa (_strips) of k cells, and k is mu's last,
    smallest part, so mu is each mu' of _dominant_schur(kappa, n - 1) with
    mu'_(n-1) >= k, followed by k.  _strips leaves kappa at most n - 1
    parts, so in no variables nu is empty.  Memoized; the table is not to
    be changed."""
    if not n:
        return {(): 1}
    kostka = {}
    for k, kappa in _strips(nu, n - 1):
        for mu, count in _dominant_schur(kappa, n - 1).items():
            if not mu or mu[-1] >= k:
                mu = (*mu, k)
                kostka[mu] = kostka.get(mu, 0) + count
    return kostka


@lru_cache(maxsize=None)
def _orbit_keys(mu: tuple, shifts: tuple) -> tuple:
    """The packed key sum_p m_p << shifts[p] of each distinct rearrangement
    m of the weakly decreasing mu: position 0 takes each distinct part in
    turn, followed by each rearrangement of the other parts.  Memoized per
    (mu, shifts), so every pair on one packing shares it.  The shifts are
    a packing's consecutive x fields, of one width w, so the other parts'
    keys on shifts[1:] are their keys on shifts[:-1] shifted up by w: each
    sub-orbit is read from the memo entry that n - 1 variables on the same
    width read too."""
    if not mu:
        return (0,)
    if len(mu) == 1:
        return (mu[0] << shifts[0],)
    keys, width = [], repeat(shifts[1] - shifts[0])
    for i, part in enumerate(mu):
        if not i or part != mu[i - 1]:
            rest = _orbit_keys(mu[:i] + mu[i + 1:], shifts[:-1])
            keys += map((part << shifts[0]).__add__, map(operator.lshift, rest, width))
    return tuple(keys)


def refined_bialternant_at(shape, nvars: int, betas, point) -> Fraction:
    """The refined quotient's value at the point (x_1, ..., x_n), taken on
    ints without building the polynomial in x.

    Exactly n-1 betas and n point coordinates, all exact rationals (a
    variable name or a float is refused), are required, and the
    coordinates must be distinct.  Each x_i = num_i/den_i is homogenised
    (_integral_rows), so the matrix has int entries; its determinant
    (arith.determinant, fraction-free elimination in O(n^3) int products,
    so no limit on n) is divided once by the int Vandermonde
    prod_(i<j) (num_i den_j - num_j den_i) and the scale
    prod_k d_k^(n-1-k) prod_i den_i^(l_1) that _integral_rows returns.  A
    repeated coordinate (the Vandermonde is 0) raises ValueError before
    the determinant.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(betas) != _beta_count(n) or len(point) != n:
        raise ValueError(f"need exactly {_beta_count(n)} beta values and {n} point "
                         f"coordinates, got {len(betas)} and {len(point)}")
    factors = [_ratio(b) for b in betas]
    points = [_ratio(x) for x in point]
    vandermonde = prod(num_i * den_j - num_j * den_i
                       for i, (num_i, den_i) in enumerate(points)
                       for num_j, den_j in points[i + 1:])
    if vandermonde == 0:
        raise ValueError(f"the point coordinates must be distinct: {list(point)}")
    if len(shape) > n:
        return Fraction(0)
    rows, scale = _integral_rows(shape.padded(n), factors, points)
    return Fraction(determinant(rows), vandermonde * scale)


@lru_cache(maxsize=None, typed=True)
def _beta_tables(*betas) -> tuple:
    """The shifted-exponent expansion's weight tables, which are the
    refined quotient's columns too, and their scale, for the betas as the
    caller passes them (a string names a variable).
    With beta_k = p_k/d_k (a variable is itself over 1), table j holds the
    coefficients of prod_(k<j) (d_k + p_k x), that is prod_(k<j) d_k
    times e_0..e_j(beta_1..beta_j), each from the one before; over all j
    the scale is prod_k d_k^(n-1-k), n = len(betas) + 1.  Memoized per
    betas, typed so that a bool is refused after an equal int."""
    n = len(betas) + 1
    pairs = [(Poly.variable(b), 1) if isinstance(b, str) else _ratio(b) for b in betas]
    tables = [(1,)]
    for p, d in pairs:
        t = tables[-1]
        tables.append((d * t[0], *(d * t[k] + p * t[k - 1] for k in range(1, len(t))), p * t[-1]))
    return tuple(tables), prod(d ** (n - 1 - k) for k, (_, d) in enumerate(pairs))


@lru_cache(maxsize=None, typed=True)
def _exponent_set_sums(c: tuple, *betas) -> dict:
    """The one source of Schur coefficients: the expansion of the
    bi-alternant's columns, for the strictly decreasing
    c_j = l_j + n - 1 - j, grouped by exponent set.  {S: C_S}, S the set
    of the shifted exponents a_j = c_j + k_j as a bitmask and C_S the sum,
    over the k (k_j in 0..j) whose a_j are distinct and form S, of
    sgn(k) prod_j table_j[k_j] (_beta_tables), where sgn(k) is the sign of
    sorting a into decreasing order, as c is: then det[x_i^(a_j)] is
    sgn(k) times the alternant of S sorted, and so is the q-Vandermonde
    prod_(i<j) (P[a_j] - P[a_i]).  The expansion goes column by column from
    {0: 1}: each partial sum at a mask, times each nonzero weight of the
    next column, moves to the mask with that column's exponent added, if
    it is not in it already (a repeated exponent makes the alternant 0),
    and changes sign once per exponent of the mask smaller than the new
    one.  Before each column the products taken so far and the column's
    (its partial sums times its nonzero weights) are counted, and more than
    arith.MAX_SERIES_TERMS raise ValueError, so a refusal comes after at
    most that many products; it clears the tables' memo, so no refused
    call keeps its tables (at n = 800, 27 MiB of binomials).  In no
    variables the sums stay {0: 1}.
    Memoized per (c, betas), typed as _beta_tables is."""
    sums, products = {0: 1}, 0
    for cj, table in zip(c, _beta_tables(*betas)[0]):
        row = [(1 << (cj + k), w) for k, w in enumerate(table) if w]
        products += len(sums) * len(row)
        try:
            _check_size(products, "the column expansion takes {} products")
        except ValueError:
            # the refused call's tables, which may be large, leave the memo
            _beta_tables.cache_clear()
            raise
        step = {}
        for mask, s in sums.items():
            for bit, w in row:
                if not mask & bit:
                    term = s * w
                    step[mask | bit] = step.get(mask | bit, 0) + (
                        -term if (mask & (bit - 1)).bit_count() & 1 else term)
        sums = step
    return sums


def _shifted_exponent_sum(shape, n, betas, power_table, vanishing="the divisor vanishes"):
    """The shifted-exponent expansion of the refined quotient, for a table
    of powers P with P[e] standing for q^e:

        sum over k_j in 0..j-1 of
            prod_j e_{k_j}(beta_1 .. beta_(j-1))
            * prod_{i<j} (P[l_j+n-j+k_j] - P[l_i+n-i+k_i])
                       / (P[n-j] - P[n-i])

    with l the shape padded to n parts and j 1-based.  power_table(top)
    builds the table P[0..top] for the largest shifted exponent top.  The
    geometric point x = (1, q, ..., q^(n-1)) takes P[e] = q^e, and the
    limit q -> 1 takes the exponents themselves (every ratio of
    q-differences becomes a ratio of exponent differences).  A vanishing
    divisor (a repeat among P[0..n-1]) raises ValueError with the message
    `vanishing`, before the kernel runs.
    The n! terms are summed once per (shape, n, betas), grouped by their
    set S of shifted exponents (_exponent_set_sums, the kernel that gives
    the bi-alternants their Schur coefficients, on _beta_tables' int
    weights, and refuses more than MAX_SERIES_TERMS products): the sum is
    sum_S C_S prod_(i<j) (P[s_j] - P[s_i]) over S sorted decreasing,
    divided once by the Vandermonde-type product, taken after the kernel,
    and the tables' scale prod_k d_k^(n-1-k): an int sum is one Fraction
    of the two, and a Poly sum is multiplied by one over their product.
    Before the first q-Vandermonde, more than MAX_SERIES_TERMS thousand
    digit products raise ValueError: (sets + 1) size^2, where size is
    n(n-1)/2 times the whole digits of the largest |P[e]|
    (sys.int_info.bits_per_digit bits each), so the count formula's
    exponent differences and a small q's powers, of less than one digit,
    count nothing (shape (1) at q = 2 passes up to n = 63).  A symbolic
    beta gives a Poly even where no term that carries it survives.
    """
    c = tuple(p + n - 1 - j for j, p in enumerate(shape.padded(n)))
    powers = power_table(max(c, default=0))
    if len(set(powers[:n])) < n:
        raise ValueError(vanishing)
    sums = _exponent_set_sums(c, *betas)
    # each set's q-Vandermonde, and the divisor's, is a running product of
    # n(n-1)/2 differences of at most d whole digits, so it reaches size
    # digits in at most size^2 digit products, counted in thousands so that
    # the limit takes about as long as the kernel's; differences of less
    # than one digit count nothing, as the kernel's count bounds their sets
    size = n * (n - 1) // 2 * (max(map(abs, powers), default=0).bit_length() // _DIGIT_BITS)
    _check_size((len(sums) + 1) * size * size // 1000,
                "the q-Vandermondes take {} thousand digit products")
    symbols = tuple(sorted({beta for beta in betas if isinstance(beta, str)}, key=_var_key))
    total = Poly._of(symbols, {}) if symbols else 0
    for mask, coeff in sums.items():
        # S's powers by increasing exponent: prod_(u<v) (s_u - s_v) is
        # the product over S sorted decreasing, factor for factor
        s = [p for e, p in enumerate(powers) if mask >> e & 1]
        total += coeff * prod(starmap(operator.sub, combinations(s, 2)))
    denom = prod(starmap(operator.sub, combinations(powers[:n], 2)))
    scale = _beta_tables(*betas)[1]
    if isinstance(total, int):
        return Fraction(total, denom * scale)
    return total * Fraction(1, denom * scale)


def principal_specialization_q(shape, nvars: int, betas, q):
    """Value at x = (1, q, ..., q^(n-1)) of the refined quotient, computed
    by the shifted-exponent expansion (_shifted_exponent_sum at P[e] = q^e)
    instead of a determinant; its terms are grouped once per
    (shape, n, betas), so each further q costs one q-Vandermonde per
    exponent set:

        sum over k_j in 0..j-1 of
            prod_j e_{k_j}(beta_1 .. beta_(j-1))
            * prod_{i<j} (q^(l_j+n-j+k_j) - q^(l_i+n-i+k_i))
                       / (q^(n-j) - q^(n-i))

    betas are rationals or variable names (exactly n-1 of them); q is a
    rational, which must be nonzero and keep every denominator factor
    nonzero (q = 1, and other small roots of unity, are rejected by that
    check).  Returns a Fraction when every beta is rational, otherwise a
    Poly in the symbolic betas, even where no term that carries them
    survives.  The sum has n! terms, grouped by exponent set; the kernel
    refuses more than MAX_SERIES_TERMS products, and the q-Vandermondes
    more than that many thousand digit products (_shifted_exponent_sum).
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(betas) != _beta_count(n):
        raise ValueError(f"need exactly {_beta_count(n)} beta values, got {len(betas)}")
    if len(shape) > n:
        return Fraction(0)
    qval = exact_rational(q)
    if qval == 0:
        raise ValueError("q must be nonzero")
    # P[e] = p^e d^(top-e) = q^e d^top for q = p/d and every e <= top; the
    # sum and the q-Vandermonde multiply equally many differences, so the
    # d^top cancel
    return _shifted_exponent_sum(shape, n, betas, lambda top: _geometric_powers(qval, top),
                                 f"q-Vandermonde vanishes at q = {q}")


def _geometric_powers(q, top: int) -> list:
    """principal_specialization_q's table [p^e d^(top-e) for e in 0..top],
    q = p/d: the powers of p and of d by running products, multiplied
    pairwise."""
    ups = list(accumulate(repeat(q.numerator, top), operator.mul, initial=1))
    downs = list(accumulate(repeat(q.denominator, top), operator.mul, initial=1))
    return list(map(operator.mul, ups, reversed(downs)))


def count_svt_formula(shape, nvars: int) -> int:
    """Number of set-valued tableaux by the nested binomial-shift sum:

        sum over k_j in 0..j-1 of prod_j C(j-1, k_j)
            * prod_{i<j} (l_i - l_j + k_i - k_j + j - i) / (j - i)

    which is _shifted_exponent_sum at every beta = 1 (e_k of j-1 ones is
    C(j-1, k)) in the limit q -> 1 (each power P[e] is the exponent e), so
    it reads the sums by exponent set that principal_specialization_q at
    the betas 1, ..., 1 and the one-beta bi-alternant (_packed_bialternant)
    read, with a product of exponent differences per set.
    The rational sum must be a non-negative integer; anything else raises
    ArithmeticError.  Zero when the shape has more rows than variables.
    The sum has n! terms, grouped by exponent set; the kernel refuses more
    than MAX_SERIES_TERMS products.
    """
    shape = Partition(shape)
    n = operator.index(nvars)
    if len(shape) > n:
        return 0
    total = _shifted_exponent_sum(shape, n, [1] * _beta_count(n), lambda top: range(top + 1))
    return exact_count(total, f"formula for {shape}, n={n}")
