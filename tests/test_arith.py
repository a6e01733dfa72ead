import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothtab import arith
from grothtab.arith import (
    binomial,
    coupled_sum,
    determinant,
    exact_count,
    exact_rational,
    format_rational,
    over_common_denominator,
    parse_rational,
    polynomial_at,
)
from grothtab.polynomials import Poly

from poly_reference import leibniz

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)

SRC = str(Path(__file__).parent.parent / "src")


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(6, 3) == 20
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=-3, max_value=43))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(small_rationals)
def test_rational_string_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_parse_rational_accepts_plain_and_fraction_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-3/5") == Fraction(-3, 5)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


def test_parse_rational_rejects_junk():
    for bad in ("", "x", "1/0", "2/"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_exact_count_accepts_non_negative_integers():
    assert exact_count(Fraction(6, 2), "count") == 3
    assert exact_count(0, "count") == 0


def test_exact_count_raises_on_a_broken_count():
    with pytest.raises(ArithmeticError, match="1/2"):
        exact_count(Fraction(1, 2), "count")
    with pytest.raises(ArithmeticError):
        exact_count(-1, "count")


def test_exact_count_still_raises_under_optimize():
    code = ("from fractions import Fraction\n"
            "from grothtab.arith import exact_count\n"
            "try:\n"
            "    exact_count(Fraction(1, 2), 'count')\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert result.returncode == 0


# each snippet exits 0 only when an invariant guard raises its real error
OPTIMIZE_PROBES = {
    "inexact divide_by_difference": """
from grothtab.polynomials import Poly
x1, x2 = Poly.variable('x1'), Poly.variable('x2')
try:
    (x1 ** 2 + x2).divide_by_difference('x1', 'x2')
except ValueError:
    raise SystemExit(0)
raise SystemExit('an inexact divide_by_difference did not raise under python -O')
""",
    "beta named like an x variable": """
from grothtab.grothendieck import refined_bialternant
try:
    refined_bialternant((1,), 2, ['x1'])
except ValueError:
    raise SystemExit(0)
raise SystemExit('a beta named like an x variable did not raise under python -O')
""",
    "inexact pairwise count": """
from grothtab import partitions
products = iter([4, 3])
partitions.prod = lambda factors: next(products)
try:
    partitions.count_sst_product((2, 1), 3)
except ArithmeticError as exc:
    if str(exc) == 'count for (2,1), n=3: 4/3 is not a non-negative integer':
        raise SystemExit(0)
raise SystemExit('an inexact pairwise count did not raise its message under python -O')
""",
    "inexact elimination step": """
from grothtab.arith import determinant

class OffByOne(int):
    # products off by one, so that a later elimination step is inexact
    def __mul__(self, other):
        return int(self) * other + 1

try:
    determinant([[OffByOne(2), 1, 0], [1, 2, 1], [0, 1, 2]])
except ArithmeticError:
    raise SystemExit(0)
raise SystemExit('an inexact elimination step did not raise under python -O')
""",
    "negative exponent": """
from grothtab.polynomials import Poly
try:
    Poly(('x',), {(-1,): 1})
except ValueError:
    raise SystemExit(0)
raise SystemExit('a negative exponent did not raise under python -O')
""",
    "repeated coordinate": """
from grothtab.grothendieck import refined_bialternant_at
try:
    refined_bialternant_at((2, 1), 3, [1, 2], [1, 2, 2])
except ValueError:
    raise SystemExit(0)
raise SystemExit('a repeated coordinate did not raise under python -O')
""",
    "tableau rows off the shape or a non-int letter": """
from grothtab.tableaux import SetValuedTableau
for shape, rows in (((1,), [[[1.5]]]), ((2, 1), [[[1], [1]]])):
    try:
        SetValuedTableau(shape, 2, rows)
    except ValueError:
        continue
    raise SystemExit(f'{rows} for shape {shape} did not raise under python -O')
""",
}


@pytest.mark.parametrize("probe", sorted(OPTIMIZE_PROBES))
def test_invariant_guards_still_raise_under_optimize(probe):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-O", "-c", OPTIMIZE_PROBES[probe]], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_exact_rational_accepts_exact_values_and_refuses_the_rest():
    # an int or a Fraction is kept as it is; only a string is converted
    assert type(exact_rational(3)) is int and exact_rational(3) == 3
    third = Fraction(-2, 6)
    assert exact_rational(third) is third
    assert exact_rational("5/7") == Fraction(5, 7)
    for bad in (0.1, True, None, [1]):
        with pytest.raises(ValueError, match="is not an exact rational; write it as an integer "
                                             "or a 'p/q' string"):
            exact_rational(bad)


def _written_out(weights, cross, grade=None):
    """The coupled sum by one nested loop per index, then the double loop
    over the pairs, with no term skipped; with a grade, only the terms
    whose indices add up to it."""
    n = len(weights)

    def summed(ks):
        if len(ks) < n:
            return sum((summed(ks + [k]) for k in range(len(weights[len(ks)]))), 0)
        if grade is not None and sum(ks) != grade:
            return 0
        term = 1
        for i in range(n):
            term *= weights[i][ks[i]]
            for j in range(i + 1, n):
                term *= cross[i, j][ks[i]][ks[j]]
        return term

    return summed([])


def _over(part, d):
    """A graded part divided by the kernel's one denominator."""
    return part * Fraction(1, d)


scalars = st.one_of(st.integers(-6, 6), small_rationals)
# about half zeros, in some examples, so that the kernel drops indices and
# prunes prefixes
sparse = st.one_of(st.just(0), scalars)
b = Poly.variable("b")


@st.composite
def coupled_tables(draw):
    n = draw(st.integers(0, 5))
    sizes = [draw(st.integers(0, 3)) for _ in range(n)]
    values = draw(st.sampled_from((scalars, sparse)))
    weights = [draw(st.lists(values, min_size=s, max_size=s)) for s in sizes]
    if n <= 3 and draw(st.booleans()):
        # symbolic weights, as the principal specialization has for symbolic betas
        weights = [[v * (b + k) for k, v in enumerate(w)] for w in weights]
    cross = {(i, j): [[draw(values) for _ in range(sizes[j])] for _ in range(sizes[i])]
             for i in range(n) for j in range(i + 1, n)}
    return weights, cross


@settings(deadline=None)
@given(coupled_tables())
def test_coupled_sum_equals_the_written_out_loop(tables):
    weights, cross = tables
    calls = []

    def factor(i, j, ki, kj):
        calls.append((i, j, ki, kj))
        return cross[i, j][ki][kj]

    parts, d = coupled_sum(weights, factor)
    # one part per total index 0 .. sum of the largest indices, each the
    # written-out loop restricted to that grade; together, the whole sum
    assert len(parts) == (1 + sum(len(w) - 1 for w in weights) if all(weights) else 0)
    for grade, part in enumerate(parts):
        assert _over(part, d) == _written_out(weights, cross, grade)
    assert _over(sum(parts), d) == _written_out(weights, cross)
    # cross is called once per pair of nonzero-weight indices, and never elsewhere
    assert len(calls) == len(set(calls))
    assert all(weights[i][ki] and weights[j][kj] for i, j, ki, kj in calls)
    if all(type(v) is int for w in weights for v in w) and all(
            type(v) is int for t in cross.values() for row in t for v in row):
        assert d == 1 and all(type(part) is int for part in parts)


def test_coupled_sum_edge_cases():
    def no_pairs(*args):
        raise AssertionError(f"cross called with {args}")

    assert coupled_sum([], no_pairs) == ([1], 1)
    # one table over its lcm 3: the grades are its entries
    parts, d = coupled_sum([[2, Fraction(1, 3), -1]], no_pairs)
    assert (parts, d) == ([6, 1, -3], 3) and _over(sum(parts), d) == Fraction(4, 3)
    # an empty table leaves no term, so no part
    assert coupled_sum([[1, 2], []], no_pairs) == ([], 1)
    # a term whose weight product is zero never reaches cross
    seen = []
    parts, d = coupled_sum([[0, 1], [5, 0]], lambda i, j, ki, kj: seen.append((ki, kj)) or 3)
    assert (parts, d) == ([0, 15, 0], 1) and sum(parts) == 15 and seen == [(1, 0)]


def test_over_common_denominator_keeps_plain_ints_and_scales_the_rest():
    # a table of plain ints comes back as a new list of the same ints over
    # 1; a bool is no plain int and is scaled into one, as a Fraction or a
    # Poly is
    ints = [3, -1, 0]
    got, d = over_common_denominator(ints)
    assert (got, d) == ([3, -1, 0], 1) and got is not ints
    got, d = over_common_denominator([True, 2])
    assert (got, d) == ([1, 2], 1) and type(got[0]) is int
    x = Poly.variable("x")
    got, d = over_common_denominator([Fraction(1, 2), 3, Fraction(-2, 3), x])
    assert (got, d) == ([3, 18, -4, 6 * x], 6)


def test_coupled_sum_turns_whole_fractions_into_ints():
    # a Fraction with denominator 1 is scaled like any other, so the loop
    # multiplies ints and every part is an int
    weights = [[Fraction(1), Fraction(-2)], [Fraction(3), Fraction(0), Fraction(5)]]
    parts, d = coupled_sum(weights, lambda i, j, ki, kj: ki - kj + 2)
    assert parts == [1 * 3 * 2, -2 * 3 * 3, 1 * 5 * 0, -2 * 5 * 1] and d == 1
    assert sum(parts) == 1 * 3 * 2 + 1 * 5 * 0 + -2 * 3 * 3 + -2 * 5 * 1
    assert all(type(part) is int for part in parts)


def test_coupled_sum_leaves_the_tables_unchanged():
    weights = [[1, Fraction(1, 2)], [Fraction(2, 3), Fraction(4), 5]]
    before = [list(w) for w in weights]
    parts, d = coupled_sum(weights, lambda i, j, ki, kj: 1)
    # the tables over 2 and 3: (2, 1) and (2, 12, 15)
    assert (parts, d) == ([2 * 2, 2 * 12 + 1 * 2, 2 * 15 + 1 * 12, 1 * 15], 6)
    assert _over(sum(parts), d) == Fraction(3, 2) * Fraction(29, 3)
    assert weights == before
    assert [[type(v) for v in w] for w in weights] == [[type(v) for v in w] for w in before]


def test_coupled_sum_refuses_more_terms_than_the_limit(monkeypatch):
    # the table sizes multiply to the term count, checked before the first term
    def cross(*args):
        raise AssertionError(f"cross called with {args}")

    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 6)
    assert coupled_sum([[1], [1, 0], [1, 0, 0]], lambda i, j, ki, kj: 2) == ([8, 0, 0, 0], 1)
    with pytest.raises(ValueError, match="the series has 24 terms, more than the limit of 6"):
        coupled_sum([[1], [1, 0], [1, 0, 0], [1, 0, 0, 0]], cross)


@st.composite
def int_matrices(draw):
    """Square int matrices up to 6 x 6 with entries in -3..3, so that zero
    pivots and singular matrices come up often, and now and then a few
    entries of 60 bits and more."""
    n = draw(st.integers(0, 6))
    matrix = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    if n:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            matrix[i][j] = draw(st.integers(2 ** 60, 2 ** 70)) * draw(st.sampled_from([-1, 1]))
    return matrix


@given(int_matrices())
def test_determinant_matches_the_leibniz_sum(matrix):
    before = [list(row) for row in matrix]
    got = determinant(matrix)
    assert type(got) is int and got == leibniz(matrix)
    assert matrix == before


def test_determinant_examples():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    # step 2's pivot 1*4 - 2*2 is 0, so rows 2 and 3 are swapped
    assert determinant([[1, 2, 3], [2, 4, 5], [3, 7, 1]]) == 1
    assert determinant([[1, 2, 3], [2, 4, 6], [3, 7, 1]]) == 0


def test_determinant_refusals():
    with pytest.raises(ValueError, match="matrix must be square"):
        determinant([[1, 2]])
    for entry in (Poly.variable("x"), Fraction(1, 2), Fraction(2), 1.0, True):
        with pytest.raises(TypeError, match="determinant entries must be ints"):
            determinant([[1, 0], [0, entry]])


def test_determinant_raises_on_an_inexact_step():
    class OffByOne(int):
        def __mul__(self, other):
            return int(self) * other + 1

    # step 1 makes rows (4, 3) and (3, 5) with the wrong products; step 2's
    # 4 * 5 - 3 * 3 = 11 over the pivot 2 leaves remainder 1
    with pytest.raises(ArithmeticError, match="inexact elimination step: remainder 1"):
        determinant([[OffByOne(2), 1, 0], [1, 2, 1], [0, 1, 2]])


# z as an int (negative and zero included), a Fraction, or an unreduced
# 'p/q' string such as '2/4'
reader_points = st.one_of(
    st.integers(-9, 9), small_rationals,
    st.tuples(st.integers(-20, 20), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"))


@given(st.lists(st.integers(-10**6, 10**6), max_size=9), st.integers(1, 10**4), reader_points)
def test_polynomial_at_is_the_sum_of_its_terms(parts, d, z):
    got = polynomial_at(parts, d, z)
    value = Fraction(z)
    assert type(got) is Fraction
    assert got == sum((Fraction(c) * value ** s for s, c in enumerate(parts)), Fraction(0)) / d


def test_polynomial_at_examples():
    assert polynomial_at([], 3, Fraction(1, 2)) == 0
    assert polynomial_at([5], 2, 7) == Fraction(5, 2)
    assert polynomial_at([1, 2, 1], 4, "2/4") == Fraction(9, 16)
    assert polynomial_at([0, 0, 3], 1, 0) == 0
    assert polynomial_at([1, 1, 1, 1], 1, -1) == 0


def test_polynomial_at_refuses_an_inexact_z():
    for z in (0.5, -1.0, True, False, None):
        with pytest.raises(ValueError, match="is not an exact rational"):
            polynomial_at([1, 2], 1, z)
