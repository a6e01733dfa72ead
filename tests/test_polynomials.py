import gc
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothtab.polynomials import Poly, determinant

x1 = Poly.variable("x1")
x2 = Poly.variable("x2")
x3 = Poly.variable("x3")
b = Poly.variable("b")


def test_constructors():
    assert Poly.constant(0) == 0
    assert Poly.constant(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Poly.variable("2x")
    with pytest.raises(ValueError):
        Poly.variable("x 1")


def test_float_inputs_are_refused():
    # 0.1 is a binary approximation, not the rational it was written as
    for build in (lambda: Poly.constant(0.1), lambda: x1 + 0.5, lambda: 0.5 * x1,
                  lambda: x1.substitute({"x1": 0.5}), lambda: x1.evaluate({"x1": 0.1}),
                  lambda: Poly(("x1",), {(1,): 0.1})):
        with pytest.raises(ValueError, match="is not an exact rational"):
            build()


def test_basic_arithmetic():
    p = (x1 + x2) ** 2
    assert p == x1 ** 2 + 2 * x1 * x2 + x2 ** 2
    assert (x1 - x2) * (x1 + x2) == x1 ** 2 - x2 ** 2
    assert 1 - x1 + x1 == 1
    assert (x1 * 0) == 0
    assert x1 * Fraction(1, 2) + x1 * Fraction(1, 2) == x1


def test_alignment_across_variable_sets():
    # same polynomial built over different variable sets compares equal
    p = x1 + x2
    q = (x1 + x2) + 0 * b
    assert p == q
    assert p * b == b * x1 + b * x2


def test_pow():
    assert x1 ** 0 == 1
    assert (1 + b * x1) ** 3 == 1 + 3 * b * x1 + 3 * b ** 2 * x1 ** 2 + b ** 3 * x1 ** 3
    with pytest.raises(ValueError):
        x1 ** -1


def test_substitute_and_evaluate():
    p = x1 ** 2 + b * x1 * x2
    assert p.substitute({"x1": 2, "x2": 3, "b": Fraction(1, 2)}).as_fraction() == 7
    partial = p.substitute({"b": 0})
    assert partial == x1 ** 2
    # unused names are ignored
    assert p.substitute({"zz": 5}) == p
    # 0 ** 0 == 1: a term without x1 survives x1 := 0
    assert (x1 ** 2 + 3 * b).substitute({"x1": 0}) == 3 * b
    assert (x1 ** 3 * b).substitute({"x1": Fraction(-2, 3), "b": -3}).terms == {(): Fraction(8, 9)}
    zero = Poly(("b", "x1"), {}).substitute({"x1": Fraction(1, 2)})
    assert zero.vars == ("b",) and not zero.terms
    assert p.evaluate({"x1": 1, "x2": 1, "b": 1}) == 2
    with pytest.raises(ValueError):
        p.as_fraction()


def test_degree_and_coefficient():
    p = x1 ** 3 * b + x2
    assert p.degree() == 4
    assert p.degree("x1") == 3
    assert p.degree("q") == 0
    assert Poly.constant(0).degree() == -1
    assert p.coefficient("b", 1) == x1 ** 3
    assert p.coefficient("b", 0) == x2


def test_str_rendering():
    assert str(x1 + x2 + b * x1 * x2) == "x1 + x2 + b*x1*x2"
    assert str(-x1 + x2) == "-x1 + x2"
    # canonical order is graded (total degree ascending)
    assert str(Fraction(1, 2) * x1 ** 2 - 3 * x2) == "-3*x2 + 1/2*x1^2"
    assert str(Poly.constant(0)) == "0"
    assert str(Poly.constant(Fraction(-5, 3))) == "-5/3"


def test_divide_by_difference():
    p = x1 ** 2 - x2 ** 2
    assert p.divide_by_difference("x1", "x2") == x1 + x2
    alternant = x1 ** 3 * x2 - x2 ** 3 * x1
    assert alternant.divide_by_difference("x1", "x2") == x1 * x2 * (x1 + x2)
    assert Poly.constant(0).divide_by_difference("x1", "x2") == 0
    with pytest.raises(ValueError):
        (x1 ** 2 + x2).divide_by_difference("x1", "x2")
    with pytest.raises(ValueError):
        x1.divide_by_difference("x1", "x1")


def test_divide_by_difference_full_vandermonde():
    vandermonde = (x1 - x2) * (x1 - x3) * (x2 - x3)
    p = vandermonde * (x1 + 2 * x2 + 3 * x3 + b)
    out = p.divide_by_difference("x1", "x2") \
           .divide_by_difference("x1", "x3") \
           .divide_by_difference("x2", "x3")
    assert out == x1 + 2 * x2 + 3 * x3 + b


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=6),
       st.permutations(["b", "x1", "x2", "x3"]))
def test_divide_by_difference_undoes_the_product(terms, names):
    p = Poly(("b", "x1", "x2"), terms)
    u, v = names[:2]
    quotient = (p * (Poly.variable(u) - Poly.variable(v))).divide_by_difference(u, v)
    assert quotient == p
    # int coefficients in, int coefficients out
    assert all(type(c) is int for c in quotient.terms.values())


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=6),
       st.permutations(["b", "x1", "x2", "x3"]), st.integers(1, 3), st.booleans())
def test_grouped_division_equals_one_factor_divisions(terms, names, k, repeat):
    p = Poly(("b", "x1", "x2"), terms)
    u, vs = names[0], names[1:1 + k]
    if repeat:
        vs = vs + vs[:1]
    dividend = p
    for v in vs:
        dividend = dividend * (Poly.variable(u) - Poly.variable(v))
    grouped = dividend.divide_by_difference(u, *vs)
    one_by_one = dividend
    for v in vs:
        one_by_one = one_by_one.divide_by_difference(u, v)
    assert grouped.vars == one_by_one.vars and grouped.terms == one_by_one.terms
    assert grouped == p


def test_grouped_division_checks_every_factor():
    # divisible by (x1 - x2) but not by (x1 - x3): the second step's remainder
    p = (x1 - x2) * (x1 ** 2 + x3)
    assert p.divide_by_difference("x1", "x2") == x1 ** 2 + x3
    with pytest.raises(ValueError, match=r"inexact division by \(x1 - x3\)"):
        p.divide_by_difference("x1", "x2", "x3")
    with pytest.raises(ValueError, match=r"inexact division by \(x1 - x3\)"):
        (p * (x1 - b)).divide_by_difference("x1", "b", "x2", "x3")
    for vs in ((), ("x1",), ("x2", "x1"), ("x2", "x3", "x1")):
        with pytest.raises(ValueError, match="distinct from u"):
            (p * (x1 - x3)).divide_by_difference("x1", *vs)


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
NAMES = ("b", "x1", "x2")


@st.composite
def polys(draw):
    """A small polynomial over a random subset of NAMES, with int and
    Fraction coefficients."""
    names = tuple(name for name in NAMES if draw(st.booleans()))
    exponents = st.tuples(*[st.integers(0, 2)] * len(names))
    coeffs = st.one_of(st.integers(-6, 6), small_rationals)
    return Poly(names, draw(st.dictionaries(exponents, coeffs, max_size=4)))


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p and p * 1 == p and p * 0 == 0
    assert p - p == 0 and p - q == p + (-q)


@given(polys(), polys(), st.dictionaries(st.sampled_from(NAMES), small_rationals),
       st.sampled_from(NAMES), st.integers(0, 2), st.permutations(NAMES))
def test_operations_return_canonical_polys(p, q, point, name, power, names):
    # the operations build their results unchecked, so rebuilding one through
    # the checking constructor must change nothing
    u, v = names[:2]
    for r in (p + q, p - q, p * q, -p, p ** 2, p.substitute(point), p.coefficient(name, power),
              (p * (Poly.variable(u) - Poly.variable(v))).divide_by_difference(u, v)):
        rebuilt = Poly(r.vars, r.terms)
        assert rebuilt.vars == r.vars and rebuilt.terms == r.terms
        assert all(len(e) == len(r.vars) for e in r.terms)
        assert all(c != 0 and type(c) in (int, Fraction) for c in r.terms.values())


@given(polys(), polys(), st.dictionaries(st.sampled_from(NAMES), small_rationals))
def test_substitute_is_a_ring_homomorphism(p, q, point):
    assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)
    assert (p * q).substitute(point) == p.substitute(point) * q.substitute(point)
    assert Poly.constant(1).substitute(point) == 1


def _substituted(p, point):
    """p at point, written out: every term evaluated in Fractions."""
    terms = {}
    for exps, coeff in p.terms.items():
        value = Fraction(coeff)
        for name, e in zip(p.vars, exps):
            if name in point:
                value *= Fraction(point[name]) ** e
        rest = tuple(e for name, e in zip(p.vars, exps) if name not in point)
        terms[rest] = terms.get(rest, 0) + value
    return tuple(v for v in p.vars if v not in point), {e: c for e, c in terms.items() if c}


# 0, negatives, whole Fractions and proper fractions
point_values = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction), small_rationals)


@given(polys(), st.dictionaries(st.sampled_from(NAMES + ("zz",)), point_values))
def test_substitute_equals_the_term_by_term_reference(p, point):
    got = p.substitute(point)
    assert (got.vars, got.terms) == _substituted(p, point)
    used = [name for name in p.vars if name in point]
    if not used:
        assert got is p
        return
    # the type rule: whole data stays on ints, a scale above 1 gives Fractions
    scale = lcm(*(Fraction(c).denominator for c in p.terms.values()))
    for name in used:
        scale *= Fraction(point[name]).denominator ** p.degree(name)
    assert all(type(c) is (int if scale == 1 else Fraction) for c in got.terms.values())


def test_determinant_small_cases():
    assert determinant([]) == 1
    assert determinant([[x1]]) == x1
    assert determinant([[x1, x2], [x3, b]]) == x1 * b - x2 * x3
    with pytest.raises(ValueError):
        determinant([[x1, x2]])


def test_determinant_vandermonde_identity():
    m = [[xi ** e for e in (2, 1, 0)] for xi in (x1, x2, x3)]
    expected = (x1 - x2) * (x1 - x3) * (x2 - x3)
    assert determinant(m) == expected


def test_determinant_scalar_entries():
    assert determinant([[2, 1], [7, 4]]) == 1


def test_determinant_leaves_nothing_for_the_cyclic_collector():
    xs = [Poly.variable(f"x{i}") for i in range(1, 5)]
    matrix = [[x ** e for e in (3, 2, 1, 0)] for x in xs]
    gc.collect()
    gc.disable()
    try:
        determinant(matrix)
        assert gc.collect() == 0
    finally:
        gc.enable()


def leibniz(matrix):
    """Permutation-sum definition of the determinant."""
    n = len(matrix)
    total = Poly.constant(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Poly.constant((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


# zero entries exercise the skipped terms of the expansion
matrix_entries = st.one_of(
    st.just(0), small_rationals,
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-3, 3),
                    max_size=2).map(lambda terms: Poly(("x1", "x2"), terms)))


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(matrix_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_leibniz_sum(matrix):
    assert determinant(matrix) == leibniz(matrix)


def test_json_round_trip_and_canonical_order():
    p = x2 + x1 + Fraction(1, 3) * b * x1 ** 2
    data = p.to_json()
    assert data["variables"] == ["b", "x1", "x2"]
    assert [t["coeff"] for t in data["terms"]] == ["1", "1", "1/3"]
    assert Poly.from_json(data) == p
    # canonical term order is stable under rebuilding
    assert Poly.from_json(data).to_json() == data
