import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothtab import arith, grothendieck
from grothtab.arith import binomial
from grothtab.grothendieck import (
    BETA,
    count_svt_formula,
    grothendieck_bialternant,
    grothendieck_tableau_sum,
    principal_specialization_q,
    refined_bialternant,
    refined_bialternant_at,
)
from grothtab.hypergeom import HolmanInstance, holman_series, ones_value_by_series
from grothtab.identities import DEFAULT_BETAS, Grid
from grothtab.partitions import Partition, count_sst_hook, count_sst_product, partitions_of
from grothtab.polynomials import Poly, _shape_packing
from grothtab.tableaux import SetValuedTableau, enumerate_sst, enumerate_svt

from column_expansion import elementary_symmetric_poly, single_column_e_expansion
from memos import clear_memos
from poly_reference import (
    alternant_quotient,
    coefficient,
    collapse,
    evaluate,
    geometric_powers,
    leibniz,
    lenart_support,
    shifted_exponent_sum,
    vandermonde,
)
from tableau_reference import reference_svt, reference_tableau_sum, schur_tableau_sum

x1, x2, x3 = (Poly.variable(f"x{i}") for i in (1, 2, 3))
b = Poly.variable(BETA)


def _ones(n):
    return {f"x{i}": 1 for i in range(1, n + 1)}


def test_schur_examples():
    assert schur_tableau_sum((1,), 2) == x1 + x2
    assert schur_tableau_sum((), 3) == 1
    assert schur_tableau_sum((1, 1, 1), 2) == 0
    p = schur_tableau_sum((2, 1), 3)
    assert sum(p.terms.values()) == 8
    assert p.substitute(_ones(3)).as_fraction() == 8


def test_grothendieck_tableau_sum_examples():
    assert grothendieck_tableau_sum((1,), 2) == x1 + x2 + b * x1 * x2
    g = grothendieck_tableau_sum((2, 1), 3)
    assert g.substitute(_ones(3)).substitute({BETA: 1}).as_fraction() == 27
    # the constant-in-b layer is the Schur polynomial
    assert coefficient(g, BETA, 0) == schur_tableau_sum((2, 1), 3)
    assert g.substitute({BETA: 0}) == schur_tableau_sum((2, 1), 3)


# the one packing's bound |shape| n (polynomials._shape_packing) at
# 2^k - 1 and 2^k, where the field width steps up: 7 and 8, 15 and 16,
# 31 and 32, with one to eight variables
WIDTH_BOUNDARIES = [((7,), 1), ((8,), 1), ((31,), 1), ((32,), 1), ((1,), 7), ((1,), 8),
                    ((3,), 5), ((4,), 4), ((2, 2), 4), ((5, 3), 4),
                    ((5,), 3), ((8,), 2), ((5, 3), 2), ((2, 1), 5), ((1, 1, 1), 5), ((3, 2), 3)]


def test_tableau_sum_equals_the_letter_loop_reference():
    cases = list(Grid(5, 5).shapes()) + [((), n) for n in (1, 2, 4)] + WIDTH_BOUNDARIES
    for shape, n in cases:
        got = grothendieck_tableau_sum(shape, n)
        want = reference_tableau_sum(reference_svt(shape, n), shape, n)
        assert (got.vars, got.terms) == (want.vars, want.terms), (shape, n)
        assert all(type(c) is int for c in got.terms.values())


def test_the_packed_diagonal_is_the_collapsed_tableau_sum():
    # the counts by excess, read off the b field of the packed counts, are
    # the diagonal sum_e c_e b^e t^(|shape| + e): against the reference
    # that collapses the unpacked sum, n = 1, shapes with more rows than n
    # (the sum is 0, and there are no counts) and the empty shape included
    cases = list(Grid(5, 5).shapes()) + [((1, 1, 1), 2), ((2, 1), 1), ((), 3), ((), 1)]
    for shape, n in cases:
        counts = grothendieck._tableau_sum_diagonal(Partition(shape), n)
        assert type(counts) is tuple and all(type(c) is int for c in counts), (shape, n)
        assert not counts or counts[-1], (shape, n)
        got = Poly((BETA, "t"), {(e, sum(shape) + e): c for e, c in enumerate(counts) if c})
        want = collapse(grothendieck_tableau_sum(shape, n), [f"x{i}" for i in range(1, n + 1)], "t")
        assert got == want, (shape, n)


def test_gg_eq_w_sides_are_packed_alike():
    # the fill and the bi-alternant's Schur route each take the one packing
    # of polynomials._shape_packing, so they compare on keys, and each
    # unpacks to its public route's polynomial: n = 0 and 1, the empty
    # shape, more rows than n and the width boundaries included
    cases = [(shape, n) for shape, n in WIDTH_BOUNDARIES if sum(shape) < 30]
    cases += [((), 0), ((), 1), ((), 3), ((1,), 0), ((2, 1), 1), ((1, 1, 1), 2)]
    for shape, n in list(Grid(5, 5).shapes()) + [(Partition(s), n) for s, n in cases]:
        fill = grothendieck._tableau_sum(shape, n)
        schur = grothendieck._packed_bialternant(shape, n)
        assert fill.packing.vars == ("b", *(f"x{i}" for i in range(1, n + 1))), (shape, n)
        assert (fill.packing.vars, fill.packing.mask) == (schur.packing.vars, schur.packing.mask)
        assert fill == schur, (shape, n)
        assert schur.unpack() == grothendieck_bialternant(shape, n)
        assert fill.unpack() == grothendieck_tableau_sum(shape, n)


def _schur_coefficient(lam, nu):
    """a_nu = det[C(j, e_i - c_j)] for lam and nu padded to n parts alike."""
    return arith.determinant([[binomial(j, p - i - (q - j)) for j, q in enumerate(lam)]
                              for i, p in enumerate(nu)])


def test_lenarts_support_holds_every_nonzero_schur_coefficient():
    # a one-sided bound: over the wider box nu >= lam with nu_i <= lam_i +
    # n - 1 (padded to n parts), every nu with a_nu != 0 lies in the support
    for shape, n in Grid(5, 5).shapes():
        lam = shape.padded(n)
        support = set(lenart_support(lam))
        box = [()]
        for i, part in enumerate(lam):
            box = [(*nu, p) for nu in box
                   for p in range(part, min(nu[-1] if nu else part + n - 1, part + n - 1) + 1)]
        assert support <= set(box), (shape, n)
        nonzero = {nu for nu in box if _schur_coefficient(lam, nu)}
        assert nonzero <= support, (shape, n, sorted(nonzero - support))


def test_dominant_schur_gives_the_kostka_numbers():
    # K(nu, mu) counts the semistandard tableaux of shape nu and content
    # mu: against the enumeration, for every weakly decreasing mu of n parts
    for shape, n in Grid(5, 4).shapes():
        contents = (tuple(map(Counter(v for cell in t.cells for v in cell).__getitem__,
                              range(1, n + 1))) for t in enumerate_sst(shape, n))
        want = Counter(mu for mu in contents if list(mu) == sorted(mu, reverse=True))
        got = {mu: k for mu, k in grothendieck._dominant_schur(shape.parts, n).items() if k}
        assert got == want, (shape, n)


def test_a_shape_without_a_first_cell_builds_no_weight_table():
    # a table of all 2^18 - 1 subsets of {1..18} would take about 50 MB
    tracemalloc.start()
    try:
        assert grothendieck_tableau_sum((), 18) == 1
        assert grothendieck_tableau_sum((1,) * 19, 18) == 0
        assert grothendieck_tableau_sum((1,) * 18, 18) == prod(Poly.variable(f"x{i}")
                                                               for i in range(1, 19))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_bialternant_hand_expansion_oracle():
    # 2x2 case written out by hand: det [[x_i^2, 1 + b x_i]] / (x1 - x2)
    det = x1 ** 2 * (1 + b * x2) - x2 ** 2 * (1 + b * x1)
    expected = det.divide_by_difference("x1", "x2")
    assert grothendieck_bialternant((1,), 2) == expected
    assert expected == x1 + x2 + b * x1 * x2


def test_bialternant_empty_shape():
    assert grothendieck_bialternant((), 2) == 1
    assert grothendieck_bialternant((), 1) == 1


def test_bialternant_matches_tableau_sum():
    for size in range(0, 5):
        for lam in partitions_of(size):
            for n in range(1, 4):
                if len(lam) > n:
                    assert grothendieck_bialternant(lam, n) == 0
                    continue
                assert grothendieck_bialternant(lam, n) == grothendieck_tableau_sum(lam, n)


def test_bialternant_rational_beta():
    beta = Fraction(-3, 5)
    got = grothendieck_bialternant((2, 1), 3, beta)
    want = grothendieck_tableau_sum((2, 1), 3).substitute({BETA: beta})
    assert got == want


def test_refined_specializations():
    beta = Fraction(2, 7)
    assert refined_bialternant((2, 1), 3, [beta, beta]) == grothendieck_bialternant((2, 1), 3, beta)
    assert refined_bialternant((2, 1), 3, [0, 0]) == schur_tableau_sum((2, 1), 3)
    with pytest.raises(ValueError):
        refined_bialternant((2, 1), 3, [beta])


def test_refined_symbolic_hand_oracle():
    # n=2, shape (1,1): det [[x_i^2, x_i (1 + b1 x_i)]] / (x1 - x2) = x1*x2
    got = refined_bialternant((1, 1), 2, ["b1"])
    assert got == x1 * x2
    # and a case where the refinement parameter survives
    got = refined_bialternant((1,), 2, ["b1"])
    assert got == x1 + x2 + Poly.variable("b1") * x1 * x2


def _fraction_rows(shape, n, betas):
    """The bi-alternant's matrix over Fraction rows: row i holds
    x_i^(l_j + n - 1 - j) (1 + beta_1 x_i) ... (1 + beta_j x_i)."""
    lam = Partition(shape).padded(n)
    factors = [Poly.variable(b) if isinstance(b, str) else Fraction(b) for b in betas]
    rows = []
    for i in range(1, n + 1):
        x = Poly.variable(f"x{i}")
        row, entry = [], Poly.constant(1)
        for j in range(n):
            if j:
                entry = entry * (1 + factors[j - 1] * x)
            row.append(x ** (lam[j] + n - 1 - j) * entry)
        rows.append(row)
    return rows


def _fraction_row_bialternant(shape, n, betas):
    """The refined quotient built over Fraction rows (1 + beta x_i): the
    Leibniz sum, with one division per Vandermonde factor."""
    out = leibniz(_fraction_rows(shape, n, betas))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out = out.divide_by_difference(f"x{i}", f"x{j}")
    return out


FITTING_SHAPES = {n: [lam for size in range(5) for lam in partitions_of(size) if len(lam) <= n]
                  for n in range(6)}
refinement_betas = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.sampled_from(["b1", "b2"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.sampled_from(FITTING_SHAPES[n]),
    st.lists(refinement_betas, min_size=n - 1, max_size=n - 1))))
def test_integral_quotient_equals_the_fraction_row_quotient(case):
    shape, betas = case
    n = len(betas) + 1
    got = refined_bialternant(shape, n, betas)
    assert got == _fraction_row_bialternant(shape, n, betas), (shape, betas)
    if all(not isinstance(b, str) and Fraction(b).denominator == 1 for b in betas):
        assert all(type(c) is int for c in got.terms.values()), (shape, betas)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(FITTING_SHAPES[n]),
    st.lists(st.one_of(refinement_betas, st.just("x9")), min_size=max(n - 1, 0),
             max_size=max(n - 1, 0)))), st.data())
def test_the_refined_schur_route_equals_the_generic_chain_and_the_determinant(case, data):
    # the generic Horner chain on the first row, and the Leibniz sum over
    # the Vandermonde, with rational and symbolic betas mixed
    n, shape, betas = case
    rows = _fraction_rows(shape, n, betas)
    names = [f"x{i}" for i in range(1, n + 1)]
    got = refined_bialternant(shape, n, betas)
    assert got == alternant_quotient(rows[0] if rows else [], names), (shape, betas)
    if n <= 4:
        assert got * vandermonde(names) == leibniz(rows), (shape, betas)
        return
    # at n = 5 the Leibniz sum of 120 Poly products takes about a second,
    # so the two sides are compared at a drawn point, every symbol set
    values = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
    point = {**{name: data.draw(st.integers(-3, 3)) for name in ("b1", "b2", "x9")},
             **dict(zip(names, values))}
    at = [[evaluate(entry, point) for entry in row] for row in rows]
    vandermonde_at = prod(u - v for i, u in enumerate(values) for v in values[i + 1:])
    assert evaluate(got, point) * vandermonde_at == leibniz(at), (shape, betas, point)


def test_the_refined_schur_route_equals_the_generic_chain_at_the_width_boundaries():
    # the shapes where the route's field width steps up, its bound |l| n
    # being 2^k - 1 or 2^k (WIDTH_BOUNDARIES), n = 7 and 8 included, at one
    # beta b and at distinct b1..b_(n-1), one more field each
    for shape, n in WIDTH_BOUNDARIES:
        names = [f"x{i}" for i in range(1, n + 1)]
        for betas in (["b"] * (n - 1), [f"b{k}" for k in range(1, n)]):
            row = _fraction_rows(shape, n, betas)[0]
            assert refined_bialternant(shape, n, betas) == alternant_quotient(row, names), \
                (shape, betas)


def test_a_beta_named_like_an_x_variable_is_refused():
    # x1 as a beta was taken for the variable x1, and b x1 x2 was lost;
    # every name numbered as one of x1..xn is refused, before any work
    for name in ("x1", "x2", "x10", "x01"):
        message = f"the beta '{name}' is named like one of the variables x1..x10"
        with pytest.raises(ValueError, match=message):
            refined_bialternant((1,), 10, [name] + [0] * 8)
        with pytest.raises(ValueError, match=message):
            grothendieck_bialternant((1,), 10, name)
    for build in (lambda: refined_bialternant((1,), 2, ["x1"]),
                  lambda: refined_bialternant((1,), 2, ["x2"]),
                  lambda: grothendieck_bialternant((1,), 2, "x1")):
        with pytest.raises(ValueError, match="is named like one of the variables x1..x2"):
            build()
    # a name past x_n is another variable, and a bad name is refused as one
    x3 = Poly.variable("x3")
    assert refined_bialternant((1,), 2, ["x3"]) == x1 + x2 + x3 * x1 * x2
    with pytest.raises(ValueError, match="bad variable name: '1/2'"):
        refined_bialternant((1,), 2, ["1/2"])


def test_refined_quotient_over_the_term_limit_is_refused_before_any_key(monkeypatch):
    # the refined quotient's bound is its monomials in x, which follow the
    # output and not n: s_(2,1) has 7 in 3 variables and 16 in 4, x1 + ... +
    # x4 has 4.  The kernel bounds its own products: at nonzero betas the
    # columns of (1) in 4 variables take 1, 2, 6 and 12.  The value at a
    # point (int determinants in O(n^3) products) has no such limit
    def not_run(*args):
        raise AssertionError("the keys were written")

    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 8)
    clear_memos()
    assert refined_bialternant((1,), 4, [0, 0, 0]) == x1 + x2 + x3 + Poly.variable("x4")
    assert len(refined_bialternant((2, 1), 3, [0, 0]).terms) == 7
    assert refined_bialternant_at((1,), 4, [1, 1, 1], [1, 2, 3, 4]) == 119
    with pytest.raises(ValueError, match="the column expansion takes 9 products, more than the "
                                         "limit of 8"):
        refined_bialternant((1,), 4, [1, 1, 1])
    monkeypatch.setattr(grothendieck, "_orbit_keys", not_run)
    with pytest.raises(ValueError, match="the quotient has 16 monomials in x, more than the "
                                         "limit of 8"):
        refined_bialternant((2, 1), 4, [0, 0, 0])


def test_the_symbolic_bi_alternant_builds_no_matrix(monkeypatch):
    # both symbolic routes start from the kernel's sums by exponent set:
    # neither builds a row in x, and only the value at a point takes the
    # integral rows
    def not_run(*args):
        raise AssertionError("the integral rows were built")

    monkeypatch.setattr(grothendieck, "_integral_rows", not_run)
    assert grothendieck_bialternant((2, 1), 4) == grothendieck_tableau_sum((2, 1), 4)
    assert refined_bialternant((1,), 3, ["b1", Fraction(1, 2)]) == \
        _fraction_row_bialternant((1,), 3, ["b1", Fraction(1, 2)])
    with pytest.raises(AssertionError, match="the integral rows were built"):
        refined_bialternant_at((1,), 3, [1, 2], [1, 2, 3])


def test_every_route_is_one_in_no_variables():
    # n = 0 takes no betas (max(n - 1, 0), the one count for every refined
    # route) and no point coordinates; the empty shape gives the empty
    # product 1 on every route, and a shape with a row gives 0
    assert grothendieck_tableau_sum((), 0) == 1
    assert count_svt_formula((), 0) == 1
    assert grothendieck_bialternant((), 0) == 1
    assert refined_bialternant((), 0, []) == 1
    assert refined_bialternant_at((), 0, [], []) == 1
    assert principal_specialization_q((), 0, [], 2) == 1
    assert ones_value_by_series((), 0, 1) == 1
    assert grothendieck_bialternant((1,), 0) == 0
    assert refined_bialternant_at((1,), 0, [], []) == 0
    assert principal_specialization_q((1,), 0, [], 2) == 0
    assert ones_value_by_series((1,), 0, 1) == 0
    with pytest.raises(ValueError, match="need exactly 0 beta values, got 1"):
        refined_bialternant((), 0, [1])
    with pytest.raises(ValueError, match="need exactly 0 beta values, got 1"):
        principal_specialization_q((), 0, [1], 2)


def test_value_at_a_point_equals_the_substituted_polynomial():
    # pins the symbolic route of eval-groth --refined, which verify no
    # longer evaluates at distinct betas
    grid = Grid(5, 4)
    for shape, n in grid.shapes():
        random_betas = grid.random_betas(shape, n)
        int_betas = [k - 2 for k in range(n - 1)]
        geometric = [[q ** i for i in range(n)] for q in (Fraction(2), Fraction(5, 7))]
        scattered = [[Fraction(1 - 2 * i, 1 + i) for i in range(n)], [3, -1, 0, 7][:n]]
        for betas in (random_betas, int_betas):
            poly = refined_bialternant(shape, n, betas)
            for point in geometric + scattered:
                got = refined_bialternant_at(shape, n, betas, point)
                want = poly.substitute({f"x{i + 1}": x for i, x in enumerate(point)})
                assert got == want.as_fraction(), (shape, n, betas, point)
                assert type(got) is Fraction


def test_value_at_a_point_refuses_bad_input():
    with pytest.raises(ValueError, match="must be distinct"):
        refined_bialternant_at((2, 1), 3, [1, 2], [1, Fraction(2, 4), Fraction(1, 2)])
    with pytest.raises(ValueError, match="must be distinct"):
        refined_bialternant_at((), 2, [1], [3, 3])
    for betas, point in (([1], [1, 2, 3]), ([1, 2, 3], [1, 2, 3]), ([1, 2], [1, 2])):
        with pytest.raises(ValueError, match="need exactly 2 beta values and 3 point"):
            refined_bialternant_at((2, 1), 3, betas, point)
    with pytest.raises(ValueError, match="not a rational number"):
        refined_bialternant_at((2, 1), 3, ["b1", 1], [1, 2, 3])
    assert refined_bialternant_at((1, 1, 1), 2, [1], [1, 2]) == 0


def test_principal_specialization_matches_determinant_route():
    rng = random.Random(7)
    for size in range(0, 5):
        for lam in partitions_of(size):
            for n in range(1, 4):
                if len(lam) > n:
                    continue
                betas = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(n - 1))
                q = Fraction(rng.randint(2, 5), 1)
                left = principal_specialization_q(lam, n, betas, q)
                point = {f"x{i + 1}": q ** i for i in range(n)}
                right = refined_bialternant(lam, n, betas).substitute(point).as_fraction()
                assert left == right, (lam, n, betas, q)


def test_principal_specialization_beta_zero_is_schur_specialization():
    q = Fraction(5, 7)
    for lam in [(2, 1), (3,), (2, 2)]:
        got = principal_specialization_q(lam, 3, [0, 0], q)
        want = schur_tableau_sum(lam, 3).substitute(
            {"x1": 1, "x2": q, "x3": q ** 2}).as_fraction()
        assert got == want


def test_principal_specialization_symbolic_betas():
    # symbolic refinement parameters with rational q
    q = Fraction(2)
    poly = principal_specialization_q((1, 1), 2, ["b1"], q)
    assert isinstance(poly, Poly)
    want = refined_bialternant((1, 1), 2, ["b1"]).substitute({"x1": 1, "x2": q})
    assert poly == want


def test_principal_specialization_mixes_rational_and_symbolic_betas():
    # one weight table over a denominator holds Fractions, another Polys
    for betas in ([Fraction(1, 2), "b1"], ["b1", Fraction(1, 3)]):
        for q in (Fraction(2), Fraction(3, 2)):
            point = {"x1": 1, "x2": q, "x3": q ** 2}
            for size in range(1, 5):
                for lam in partitions_of(size):
                    if len(lam) > 3:
                        continue
                    got = principal_specialization_q(lam, 3, betas, q)
                    want = refined_bialternant(lam, 3, betas).substitute(point)
                    assert got == want, (lam, betas, q)


def test_principal_specialization_rejects_degenerate_q():
    with pytest.raises(ValueError):
        principal_specialization_q((2, 1), 3, [1, 1], 0)
    with pytest.raises(ValueError):
        principal_specialization_q((2, 1), 3, [1, 1], 1)
    with pytest.raises(ValueError):
        principal_specialization_q((2, 1), 3, [1, 1], -1)


def test_a_vanishing_q_vandermonde_is_refused_before_the_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("the n!-term sum ran")

    monkeypatch.setattr(grothendieck, "_exponent_set_sums", no_sum)
    for q in (1, -1):
        with pytest.raises(ValueError, match="q-Vandermonde vanishes"):
            principal_specialization_q((1,), 3, [1, 1], q)


def test_the_expansion_refuses_bad_betas_through_its_memos():
    # _beta_tables refuses a float or a bool; both memos are typed, so a
    # bool is refused after an equal int has filled them, and an unhashable
    # beta raises TypeError in the memo
    assert principal_specialization_q((1, 1), 3, [1, 1], 2) == 30
    for betas, error in (([True, 1], ValueError), ([1, 0.5], ValueError),
                         ([1, [1]], TypeError)):
        with pytest.raises(error):
            principal_specialization_q((1, 1), 3, betas, 2)
    assert grothendieck._exponent_set_sums((2, 1), 1) == {0b110: 1}
    with pytest.raises(ValueError, match="is not an exact rational"):
        grothendieck._exponent_set_sums((2, 1), True)


def _term_by_term(shape, n, betas, powers):
    """The shifted-exponent expansion summed term by term, with no grouping:
    arith.coupled_sum over _beta_tables' weights with the cross factors
    P[a_j] - P[a_i] of the shifted exponents a_j = c_j + k_j, divided by
    the Vandermonde-type product and the tables' scale."""
    tables, scale = grothendieck._beta_tables(*betas)
    c = [p + n - 1 - j for j, p in enumerate(shape.padded(n))]
    denom = prod(powers[n - 1 - j] - powers[n - 1 - i] for j in range(n) for i in range(j))
    parts, d = arith.coupled_sum(tables, lambda i, j, ki, kj: powers[c[j] + kj] - powers[c[i] + ki])
    return sum(parts) * Fraction(1, d * denom * scale)


def _grid_betas(grid, shape, n):
    """The grid's random betas, b1..b_(n-1), zeros and ones."""
    return (grid.random_betas(shape, n), [f"b{k}" for k in range(1, n)], [0] * (n - 1),
            [1] * (n - 1))


def test_the_grouped_expansion_is_the_term_by_term_sum():
    # at P[e] = q^e d^top for q = p/d and at the q -> 1 limit P[e] = e,
    # in value and in type (int, Fraction or Poly over the same names)
    grid = Grid(5, 5)
    rows = 0
    for shape, n in [*grid.shapes(), (Partition(()), 0), (Partition(()), 1)]:
        top = max(shape.padded(n), default=0) + n - 1
        tables = [range(top + 1)] + [
            [q.numerator ** e * q.denominator ** (top - e) for e in range(top + 1)]
            for q in (Fraction(2), Fraction(-2, 3))]
        for betas in _grid_betas(grid, shape, n):
            for powers in tables:
                got = grothendieck._shifted_exponent_sum(shape, n, betas, lambda _: powers)
                want = _term_by_term(shape, n, betas, powers)
                assert got == want and type(got) is type(want), (shape, n, betas, powers)
                if isinstance(want, Poly):
                    assert got.vars == want.vars and str(got) == str(want), (shape, n, betas)
                rows += 1
    assert rows == 816


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2), Fraction(5, 7), Fraction(-2, 3)])
def test_the_shifted_exponent_sum_is_the_nested_loop_reference(q):
    # the same value, str and type (an int sum gives one Fraction of two
    # ints, a Poly sum a Poly over the same names) as the nested loop, on
    # the geometric table, its powers by running products against each
    # taken on its own, and on the exponents themselves (q -> 1)
    grid = Grid(6, 6)
    rows = 0
    for shape, n in grid.shapes():
        top = max(shape.padded(n)) + n - 1
        assert grothendieck._geometric_powers(q, top) == geometric_powers(q)(top)
        for betas in _grid_betas(grid, shape, n):
            for table, want_table in ((lambda top: grothendieck._geometric_powers(q, top),
                                       geometric_powers(q)),
                                      (lambda top: range(top + 1),) * 2):
                got = grothendieck._shifted_exponent_sum(shape, n, betas, table)
                want = shifted_exponent_sum(shape, n, betas, want_table)
                assert got == want and type(got) is type(want), (shape, n, betas, q)
                assert str(got) == str(want), (shape, n, betas, q)
                if isinstance(want, Poly):
                    assert got.vars == want.vars, (shape, n, betas, q)
                rows += 1
    assert rows == 1008


def test_the_q_vandermondes_refuse_more_digit_products_than_the_limit(monkeypatch):
    # shape (1) at q = 2: n = 63 has powers up to 2^63, two whole digits,
    # so each of its 63 sets and the divisor reach 1953 * 2 digits, and
    # 64 * 3906^2 // 1000 = 976,437 thousand digit products pass; n = 64
    # reaches 2^64, three digits
    n, betas = 63, [Fraction(1, 3)] * 62
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 976437)
    clear_memos()
    try:
        assert principal_specialization_q((1,), n, betas, 2) == \
            shifted_exponent_sum(Partition((1,)), n, betas, geometric_powers(Fraction(2)))
        monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 976436)
        with pytest.raises(ValueError, match="the q-Vandermondes take 976437 thousand digit "
                                             "products, more than the limit of 976436"):
            principal_specialization_q((1,), n, betas, 2)
        # the refusal comes after the kernel, whose sums stay in its memo
        assert grothendieck._exponent_set_sums.cache_info().currsize == 1
    finally:
        clear_memos()


def test_every_exponent_set_of_the_expansion_is_in_lenarts_support():
    # S - delta, S sorted decreasing and delta = (n - 1, ..., 0), is the nu
    # whose refined Schur coefficient C_S is
    grid = Grid(5, 5)
    for shape, n in grid.shapes():
        c = tuple(p + n - 1 - j for j, p in enumerate(shape.padded(n)))
        support = set(lenart_support(shape.padded(n)))
        for betas in _grid_betas(grid, shape, n):
            for mask, coeff in grothendieck._exponent_set_sums(c, *betas).items():
                s = [e for e in range(mask.bit_length()) if mask >> e & 1][::-1]
                assert len(s) == n, (shape, n, betas, s)
                assert not coeff or tuple(e - (n - 1 - i) for i, e in enumerate(s)) in support, \
                    (shape, n, betas, s)


def test_float_inputs_are_refused():
    for build in (lambda: principal_specialization_q((1,), 2, [0.5], 2),
                  lambda: principal_specialization_q((1,), 2, [1], 0.1),
                  lambda: refined_bialternant((1,), 2, [0.5]),
                  lambda: refined_bialternant_at((1,), 2, [0.5], [1, 2]),
                  lambda: refined_bialternant_at((1,), 2, [1], [1, 2.0]),
                  lambda: grothendieck_bialternant((1,), 2, 0.5),
                  lambda: single_column_e_expansion(1, 2, 0.5)):
        with pytest.raises(ValueError, match="is not an exact rational"):
            build()


def test_non_integer_sizes_are_refused():
    # 3.9 variables were cut down to 3, and a part of 2.5 to 2
    for build in (lambda: Partition((2.5, 1)),
                  lambda: count_svt_formula((2, 1), 3.9),
                  lambda: principal_specialization_q((2, 1), 3.2, [1, 2], 2),
                  lambda: grothendieck_tableau_sum((2, 1), 3.0),
                  lambda: HolmanInstance.from_shape((2, 1), 3.7, 1),
                  lambda: SetValuedTableau((1,), 2.5, [[(1,)]])):
        with pytest.raises(TypeError):
            build()


def test_n_factorial_sums_refuse_more_terms_than_the_limit(monkeypatch):
    # the kernel counts its products before each column: the columns of
    # (2, 1) take 1, 2, 6 and then 20 products, so 3 variables (9) pass and
    # 4 (29) are refused before the last column
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 9)
    clear_memos()
    assert count_svt_formula((2, 1), 3) == 27
    assert principal_specialization_q((2, 1), 3, [1, 1], 2) == 630
    for build in (lambda: count_svt_formula((2, 1), 4),
                  lambda: principal_specialization_q((2, 1), 4, [1, 1, 1], 2)):
        with pytest.raises(ValueError, match="the column expansion takes 29 products, more "
                                             "than the limit of 9"):
            build()


def test_a_refused_kernel_leaves_no_tables_in_the_memo(monkeypatch):
    # the tables are built before the first column; a refused call used to
    # leave them cached for the life of the process (27 MiB at n = 800)
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 9)
    clear_memos()
    try:
        for build in (lambda: count_svt_formula((2, 1), 4),
                      lambda: principal_specialization_q((2, 1), 4, [Fraction(1, 3)] * 3, 2),
                      lambda: refined_bialternant((2, 1), 4, ["b1", "b2", "b3"])):
            with pytest.raises(ValueError, match="the column expansion takes"):
                build()
            assert grothendieck._beta_tables.cache_info().currsize == 0
            assert grothendieck._exponent_set_sums.cache_info().currsize == 0
        # a call the kernel answers keeps its tables
        assert count_svt_formula((2, 1), 3) == 27
        assert grothendieck._beta_tables.cache_info().currsize == 1
    finally:
        clear_memos()


def test_n_factorial_sums_past_n_factorial_terms_are_answered():
    # 10! to 12! terms, in a few hundred products, against enumeration
    for shape, n, count in (((1, 1), 10, 4097), ((1, 1), 11, 9217), ((2,), 12, 45057)):
        assert count_svt_formula(shape, n) == sum(1 for _ in enumerate_svt(shape, n)) == count


@pytest.mark.parametrize("build", [
    lambda: principal_specialization_q((1,), 200, [Fraction(1, 3)] * 199, 2),
    lambda: count_svt_formula((1,), 800),
    lambda: ones_value_by_series((1,), 800, 1),
], ids=["principal_specialization_q", "count_svt_formula", "ones_value_by_series"])
def test_n_factorial_sums_are_refused_before_their_setup(build):
    # at the real limit: the q-Vandermonde and its per-set products, or the
    # semistandard count, of n = 200 or 800 would each take seconds; the
    # kernel refuses after about 144 of its columns
    start = perf_counter()
    with pytest.raises(ValueError, match="the series has|the column expansion takes"):
        build()
    assert perf_counter() - start < 1


def test_results_have_exact_types():
    # 0.5 == Fraction(1, 2), so only the type shows a float that leaked in
    for size in range(5):
        for lam in partitions_of(size):
            for n in range(1, 5):
                # int inputs give int coefficients; as_fraction is the one
                # place that makes a Fraction
                for poly in (grothendieck_tableau_sum(lam, n), grothendieck_bialternant(lam, n),
                             refined_bialternant(lam, n, [1 - k for k in range(n - 1)])):
                    assert all(type(c) is int for c in poly.terms.values()), (lam, n, poly)
                    assert type(evaluate(poly, {BETA: 2, **_ones(n)})) is Fraction, (lam, n)
                for count in (count_svt_formula, count_sst_product, count_sst_hook):
                    assert type(count(lam, n)) is int, (count.__name__, lam, n)
                for betas, q in (([1 - k for k in range(n - 1)], 2),
                                 ([Fraction(k + 1, 3) for k in range(n - 1)], Fraction(3, 2))):
                    value = principal_specialization_q(lam, n, betas, q)
                    assert type(value) is Fraction, (lam, n, betas, q)
                if len(lam) > n:
                    continue
                for z in (-1, Fraction(2, 5)):
                    value = holman_series(HolmanInstance.from_shape(lam, n, z))
                    assert type(value) is Fraction, (lam, n, z)
                if n > 1:
                    symbolic = [f"b{k + 1}" for k in range(n - 1)]
                    value = principal_specialization_q(lam, n, symbolic, Fraction(5, 7))
                    assert type(value) is Poly, (lam, n)


def test_count_formula_examples():
    assert count_svt_formula((2, 2), 3) == 13
    assert count_svt_formula((4, 3), 3) == 103
    assert count_svt_formula((1,), 1) == 1
    assert count_svt_formula((), 2) == 1
    assert count_svt_formula((1, 1, 1), 2) == 0
    # no shifted exponent at n = 0, and one with no betas at n = 1
    assert count_svt_formula((), 0) == 1
    assert principal_specialization_q((), 1, [], 2) == 1


def test_the_q_to_1_limit_at_equal_betas_is_thm_3_9():
    # with the exponents themselves as its powers, the shifted-exponent sum
    # is the all-ones value G_shape(1^n) at any beta, not only the count's
    # beta = 1; Thm 3.9 writes that value as the coupled series
    rows = 0
    for shape, n in Grid(5, 5).shapes():
        for beta in DEFAULT_BETAS:
            got = grothendieck._shifted_exponent_sum(shape, n, [beta] * (n - 1),
                                                     lambda top: range(top + 1))
            assert got == ones_value_by_series(shape, n, beta), (shape, n, beta)
            rows += 1
    assert rows == 330


def test_count_formula_matches_enumeration():
    for size in range(0, 6):
        for lam in partitions_of(size):
            for n in range(1, 5):
                assert count_svt_formula(lam, n) == sum(1 for _ in enumerate_svt(lam, n))


def test_symmetry_under_variable_swaps():
    g = grothendieck_tableau_sum((2, 1), 3)
    point = {"x1": Fraction(2, 3), "x2": Fraction(-1, 2), "x3": Fraction(5), BETA: Fraction(1, 3)}
    base = g.substitute(point).as_fraction()
    for swap in [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]:
        swapped = dict(point)
        swapped[swap[0]], swapped[swap[1]] = point[swap[1]], point[swap[0]]
        assert g.substitute(swapped).as_fraction() == base


def test_beta_degree_bound_and_constant_layer():
    for size in range(1, 5):
        for lam in partitions_of(size):
            for n in range(len(lam), 4):
                g = grothendieck_tableau_sum(lam, n)
                assert g.degree(BETA) <= lam.size * (n - 1)
                assert coefficient(g, BETA, 0) == schur_tableau_sum(lam, n)


def test_tilted_point_value_is_beta_power():
    for beta in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
        for lam, n in [((2, 1), 3), ((3,), 2), ((2, 2), 3), ((1, 1, 1), 3)]:
            lam = Partition(lam)
            point = {f"x{i}": beta for i in range(1, n + 1)}
            point[BETA] = -1 / beta
            got = grothendieck_tableau_sum(lam, n).substitute(point).as_fraction()
            assert got == beta ** lam.size


def test_single_row_schur_expansion_at_ones():
    # all-ones single-row values expand over hooks (k, 1^m) with counts
    for k in range(1, 5):
        for n in range(1, 5):
            ones = grothendieck_tableau_sum((k,), n).substitute(_ones(n))
            for beta in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-2)):
                want = sum(beta ** m * count_sst_product((k,) + (1,) * m, n)
                           for m in range(n))
                assert ones.substitute({BETA: beta}).as_fraction() == want


def test_single_column_expansion_pinned_coefficient():
    for k in range(1, 5):
        for n in range(k, 5):
            assert single_column_e_expansion(k, n) == grothendieck_tableau_sum((1,) * k, n)


def test_single_column_expansion_alternative_coefficient_fails():
    # the rejected variant uses C(n+k-1, m) in place of C(m+k-1, m)
    def alternative(k, n):
        total = Poly.constant(0)
        for m in range(0, n - k + 1):
            total = total + b ** m * (binomial(n + k - 1, m) * elementary_symmetric_poly(m + k, n))
        return total

    assert alternative(1, 2) != grothendieck_tableau_sum((1,), 2)
    assert alternative(2, 3) != grothendieck_tableau_sum((1, 1), 3)


def test_elementary_tables_follow_the_recurrence():
    # table j holds the coefficients of prod_(k<j) (d_k + p_k x) for
    # beta_k = p_k/d_k: prod_(k<j) d_k times e_0..e_j of the first j betas
    tables, scale = grothendieck._beta_tables(Fraction(1), Fraction(2), Fraction(3))
    assert tables == ((1,), (1, 1), (1, 3, 2), (1, 6, 11, 6))
    assert scale == 1
    point = {"x1": 1, "x2": 2, "x3": 3}
    assert list(tables[-1]) == [elementary_symmetric_poly(k, 3).substitute(point).as_fraction()
                                for k in range(4)]
    tables, scale = grothendieck._beta_tables(Fraction(1, 2), Fraction(-2, 3), 3)
    assert tables == ((1,), (2, 1), (6, -1, -2), (6, 17, -5, -6))
    assert [Fraction(c, 6) for c in tables[-1]] == [1, Fraction(17, 6), Fraction(-5, 6), -1]
    assert scale == 2 ** 3 * 3 ** 2
    # a string names a variable, which comes in over 1
    (*_, last), scale = grothendieck._beta_tables("x1", "x2", "x3")
    assert list(last) == [elementary_symmetric_poly(k, 3) for k in range(4)]
    assert scale == 1
    # equal values give binomial coefficients, count_svt_formula's ones too
    for one in (Fraction(1), 1):
        (*_, last), scale = grothendieck._beta_tables(*[one] * 4)
        assert list(last) == [binomial(4, k) for k in range(5)]
        assert scale == 1
    # memoized with the betas' types, so a bool is refused after an equal int
    assert grothendieck._beta_tables(1) == (((1,), (1, 1)), 1)
    with pytest.raises(ValueError, match="is not an exact rational"):
        grothendieck._beta_tables(True)


@given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6))
def test_beta_tables_are_scaled_elementary_symmetric_values(betas):
    tables, scale = grothendieck._beta_tables(*betas)
    assert len(tables) == len(betas) + 1
    for j, table in enumerate(tables):
        dens = prod(beta.denominator for beta in betas[:j])
        assert list(table) == [dens * sum(map(prod, combinations(betas[:j], k)))
                               for k in range(j + 1)]
        assert all(type(c) is int for c in table)
    assert scale == prod(table[0] for table in tables)


def test_schur_coefficient_is_the_n_by_n_determinant():
    # the kernel's C_S at every beta = 1, for S = nu + delta, against the
    # n x n determinant of binomials of lam and nu padded to n parts
    for shape, n in Grid(6, 6).shapes():
        lam = shape.padded(n)
        sums = grothendieck._exponent_set_sums(_exponents(lam), *[1] * (n - 1))
        for nu in lenart_support(lam):
            assert sums.get(_mask(nu), 0) == _schur_coefficient(lam, nu), (shape, n, nu)


def _exponents(parts):
    """parts + delta: part i (0-based) plus n - 1 - i, n = len(parts)."""
    return tuple(p + len(parts) - 1 - i for i, p in enumerate(parts))


def _mask(parts):
    """The bitmask of the exponent set parts + delta."""
    return sum(1 << e for e in _exponents(parts))


def test_the_kernel_is_the_determinant_of_its_tables():
    # C_S = det[table_j[e_i - c_j]] (0 outside 0..j) for S = e, by the
    # Leibniz sum, on every set the kernel keeps and every nu in Lenart's
    # support; so each nu of the support whose determinant is nonzero is
    # among the kernel's sets
    grid = Grid(5, 5)
    for shape, n in grid.shapes():
        lam = shape.padded(n)
        c = _exponents(lam)
        for betas in _grid_betas(grid, shape, n):
            tables = grothendieck._beta_tables(*betas)[0]
            sums = grothendieck._exponent_set_sums(c, *betas)
            masks = set(sums).union(map(_mask, lenart_support(lam)))
            for mask in masks:
                e = [k for k in range(mask.bit_length()) if mask >> k & 1][::-1]
                assert len(e) == n, (shape, n, betas, e)
                want = leibniz([[tables[j][ei - cj] if 0 <= ei - cj <= j else 0
                                 for j, cj in enumerate(c)] for ei in e])
                assert sums.get(mask, 0) == want, (shape, n, betas, e)
                assert not want or mask in sums, (shape, n, betas, e)


def test_orbit_keys_unpack_to_the_distinct_permutations():
    # in the order in which permutations() first yields each: every (mu,
    # shifts) that Grid(6, 5)'s bi-alternants read, and a few by hand
    cases = [(mu, _shape_packing(("b", *(f"x{i}" for i in range(1, len(mu) + 1))), 5))
             for mu in [(), (0,), (1, 0), (2, 2), (2, 1, 1, 0), (3, 3, 1, 0, 0), (1, 1, 1),
                        (4, 2, 1, 0)]]
    for shape, n in Grid(6, 5).shapes():
        packing = _shape_packing(("b", *(f"x{i}" for i in range(1, n + 1))), shape.size)
        cases += [(mu, packing) for mu, coeff in
                  grothendieck._dominant_coefficients(shape, n, [1] * (n - 1)).items() if coeff]
    assert len(cases) == 1247
    for mu, packing in cases:
        shifts = tuple(packing.shift[x] for x in packing.vars[1:])
        keys = grothendieck._orbit_keys(mu, shifts)
        unpacked = [tuple((key >> shift) & packing.mask for shift in shifts) for key in keys]
        assert unpacked == list(dict.fromkeys(permutations(mu))), (mu, shifts)
