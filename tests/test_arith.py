import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothtab import arith
from grothtab.arith import (
    binomial,
    coupled_sum,
    exact_count,
    exact_rational,
    format_rational,
    parse_rational,
)

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


def _written_out(weights, cross):
    """The coupled sum by one nested loop per index, then the double loop
    over the pairs, with no term skipped."""
    n = len(weights)

    def summed(ks):
        if len(ks) < n:
            return sum((summed(ks + [k]) for k in range(len(weights[len(ks)]))), 0)
        term = 1
        for i in range(n):
            term *= weights[i][ks[i]]
            for j in range(i + 1, n):
                term *= cross[i, j][ks[i]][ks[j]]
        return term

    return summed([])


scalars = st.one_of(st.integers(-6, 6), small_rationals)


@st.composite
def coupled_tables(draw):
    n = draw(st.integers(0, 3))
    sizes = [draw(st.integers(0, 3)) for _ in range(n)]
    weights = [draw(st.lists(scalars, min_size=s, max_size=s)) for s in sizes]
    cross = {(i, j): [[draw(scalars) for _ in range(sizes[j])] for _ in range(sizes[i])]
             for i in range(n) for j in range(i + 1, n)}
    return weights, cross


@given(coupled_tables())
def test_coupled_sum_equals_the_written_out_loop(tables):
    weights, cross = tables
    got = coupled_sum(weights, lambda i, j, ki, kj: cross[i, j][ki][kj])
    assert got == _written_out(weights, cross)
    if all(type(v) is int for w in weights for v in w) and all(
            type(v) is int for t in cross.values() for row in t for v in row):
        assert type(got) is int


def test_coupled_sum_edge_cases():
    def no_pairs(*args):
        raise AssertionError(f"cross called with {args}")

    assert coupled_sum([], no_pairs) == 1
    assert coupled_sum([[2, Fraction(1, 3), -1]], no_pairs) == Fraction(4, 3)
    assert coupled_sum([[1, 2], []], no_pairs) == 0
    # a term whose weight product is zero never reaches cross
    seen = []
    total = coupled_sum([[0, 1], [5, 0]], lambda i, j, ki, kj: seen.append((ki, kj)) or 3)
    assert total == 15 and seen == [(1, 0)]


def test_coupled_sum_turns_whole_fractions_into_ints():
    # a Fraction with denominator 1 is scaled like any other, so the loop
    # multiplies ints and the sum is an int
    weights = [[Fraction(1), Fraction(-2)], [Fraction(3), Fraction(0), Fraction(5)]]
    total = coupled_sum(weights, lambda i, j, ki, kj: ki - kj + 2)
    assert total == 1 * 3 * 2 + 1 * 5 * 0 + -2 * 3 * 3 + -2 * 5 * 1
    assert type(total) is int


def test_coupled_sum_leaves_the_tables_unchanged():
    weights = [[1, Fraction(1, 2)], [Fraction(2, 3), Fraction(4), 5]]
    before = [list(w) for w in weights]
    assert coupled_sum(weights, lambda i, j, ki, kj: 1) == Fraction(3, 2) * Fraction(29, 3)
    assert weights == before
    assert [[type(v) for v in w] for w in weights] == [[type(v) for v in w] for w in before]


def test_coupled_sum_refuses_more_terms_than_the_limit(monkeypatch):
    # the table sizes multiply to the term count, checked before the first term
    def cross(*args):
        raise AssertionError(f"cross called with {args}")

    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 6)
    assert coupled_sum([[1], [1, 0], [1, 0, 0]], lambda i, j, ki, kj: 2) == 8
    with pytest.raises(ValueError, match="the series has 24 terms, more than the limit of 6"):
        coupled_sum([[1], [1, 0], [1, 0, 0], [1, 0, 0, 0]], cross)
