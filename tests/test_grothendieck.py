import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothtab import arith, grothendieck
from grothtab.arith import binomial
from grothtab.grothendieck import (
    BETA,
    count_svt_formula,
    elementary_symmetric,
    grothendieck_bialternant,
    grothendieck_tableau_sum,
    principal_specialization_q,
    refined_bialternant,
    schur_tableau_sum,
)
from grothtab.hypergeom import HolmanInstance, holman_series
from grothtab.partitions import Partition, count_sst_hook, count_sst_product, partitions_of
from grothtab.polynomials import Poly, determinant
from grothtab.tableaux import SetValuedTableau, enumerate_svt

from column_expansion import elementary_symmetric_poly, single_column_e_expansion

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
    assert g.coefficient(BETA, 0) == schur_tableau_sum((2, 1), 3)
    assert g.substitute({BETA: 0}) == schur_tableau_sum((2, 1), 3)


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


def _fraction_row_bialternant(shape, n, betas):
    """The refined quotient built over Fraction rows (1 + beta x_i), with
    one division per Vandermonde factor."""
    lam = Partition(shape).padded(n)
    xs = [Poly.variable(f"x{i}") for i in range(1, n + 1)]
    factors = [Poly.variable(b) if isinstance(b, str) else Fraction(b) for b in betas]
    rows = []
    for x in xs:
        row, entry = [], Poly.constant(1)
        for j in range(n):
            if j:
                entry = entry * (1 + factors[j - 1] * x)
            row.append(x ** (lam[j] + n - 1 - j) * entry)
        rows.append(row)
    out = determinant(rows)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out = out.divide_by_difference(f"x{i}", f"x{j}")
    return out


FITTING_SHAPES = {n: [lam for size in range(5) for lam in partitions_of(size) if len(lam) <= n]
                  for n in range(1, 5)}
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


def test_determinant_over_the_minor_limit_is_refused_before_any_row(monkeypatch):
    # n variables give 2^n minors: 2^3 = 8 pass, 2^4 = 16 are refused
    def no_determinant(rows):
        raise AssertionError("the determinant ran")

    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 8)
    assert refined_bialternant((1,), 3, [0, 0]) == x1 + x2 + x3
    assert grothendieck_bialternant((1,), 3, 0) == x1 + x2 + x3
    monkeypatch.setattr(grothendieck, "determinant", no_determinant)
    for build in (lambda: refined_bialternant((1,), 4, [0, 0, 0]),
                  lambda: grothendieck_bialternant((2, 1), 4)):
        with pytest.raises(ValueError, match="the determinant has 16 minors, more than the limit of 8"):
            build()


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

    monkeypatch.setattr(grothendieck, "coupled_sum", no_sum)
    for q in (1, -1):
        with pytest.raises(ValueError, match="q-Vandermonde vanishes"):
            principal_specialization_q((1,), 3, [1, 1], q)


def test_float_inputs_are_refused():
    for build in (lambda: principal_specialization_q((1,), 2, [0.5], 2),
                  lambda: principal_specialization_q((1,), 2, [1], 0.1),
                  lambda: refined_bialternant((1,), 2, [0.5]),
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
    # n variables give n! terms: 3! = 6 pass, 4! = 24 are refused before any term
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 6)
    assert count_svt_formula((2, 1), 3) == 27
    assert principal_specialization_q((1,), 3, [0, 0], 2) == 7
    for build in (lambda: count_svt_formula((2, 1), 4),
                  lambda: principal_specialization_q((1,), 4, [0, 0, 0], 2)):
        with pytest.raises(ValueError, match="the series has 24 terms, more than the limit of 6"):
            build()


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
                    assert type(poly.evaluate({BETA: 2, **_ones(n)})) is Fraction, (lam, n)
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
                assert g.coefficient(BETA, 0) == schur_tableau_sum(lam, n)


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


def test_elementary_symmetric_values_and_polys():
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(0, vals) == 1
    assert elementary_symmetric(2, vals) == 11
    assert elementary_symmetric(4, vals) == 0
    point = {"x1": 1, "x2": 2, "x3": 3}
    for k in range(4):
        assert elementary_symmetric_poly(k, 3).substitute(point).as_fraction() \
            == elementary_symmetric(k, vals)
    # equal values give binomial coefficients
    assert elementary_symmetric(2, [Fraction(1)] * 4) == binomial(4, 2)
