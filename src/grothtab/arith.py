"""Exact scalar arithmetic shared by every other module.

Integers are plain Python ints (arbitrary precision, canonical zero) and
rationals are fractions.Fraction, which is reduced on construction and keeps
a positive denominator, so equality is value equality.  All functions here
are pure; values are immutable and safe to share between threads.
"""

from fractions import Fraction
from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k lies outside 0..n.

    Negative n is rejected: the callers that need generalized arguments
    build rising factorials instead.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' (base-10 integers) into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value) -> str:
    """Render a rational as 'p/q', or plain 'p' when the denominator is 1."""
    return str(Fraction(value))


def exact_count(value, what: str) -> int:
    """An exact rational count as an int; raises ArithmeticError (also
    under python -O) unless the value is a non-negative integer."""
    value = Fraction(value)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"{what}: {value} is not a non-negative integer")
    return value.numerator
