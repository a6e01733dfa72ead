import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothtab.arith import binomial, exact_count, format_rational, parse_rational

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
