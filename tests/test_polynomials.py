import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothtab import arith, polynomials
from grothtab.polynomials import Poly, determinant

import poly_reference
from poly_reference import alternant_quotient, coefficient, collapse, evaluate, leibniz, vandermonde

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
                  lambda: x1.substitute({"x1": 0.5}), lambda: evaluate(x1, {"x1": 0.1}),
                  lambda: Poly(("x1",), {(1,): 0.1})):
        with pytest.raises(ValueError, match="is not an exact rational"):
            build()


def test_bad_exponents_and_coefficients_are_refused():
    for vars, exps in ((("x",), (-1,)), (("x",), ()), (("x", "y"), (1,)), (("x",), (True,)),
                       (("x",), (1.0,)), (("x",), (1, 0))):
        with pytest.raises(ValueError, match="non-negative ints"):
            Poly(vars, {exps: 1})
    with pytest.raises(ValueError, match="non-negative ints"):
        Poly.from_json({"variables": ["x", "y"], "terms": [{"exponents": [1], "coeff": "1"}]})
    with pytest.raises(ValueError, match="not a string"):
        Poly.from_json({"variables": ["x"], "terms": [{"exponents": [1], "coeff": 1}]})


def test_equality_with_a_bool_is_false():
    assert (x1 == True) is False  # noqa: E712
    assert (Poly.constant(1) != True) is True  # noqa: E712
    assert Poly.constant(1) == 1


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
    assert evaluate(p, {"x1": 1, "x2": 1, "b": 1}) == 2
    with pytest.raises(ValueError):
        p.as_fraction()


def test_degree_and_coefficient():
    p = x1 ** 3 * b + x2
    assert p.degree() == 4
    assert p.degree("x1") == 3
    assert p.degree("q") == 0
    assert Poly.constant(0).degree() == -1
    assert coefficient(p, "b", 1) == x1 ** 3
    assert coefficient(p, "b", 0) == x2


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
       st.sampled_from(NAMES), st.permutations(NAMES))
def test_operations_return_canonical_polys(p, q, point, name, names):
    # the operations build their results unchecked, so rebuilding one through
    # the checking constructor must change nothing
    u, v = names[:2]
    for r in (p + q, p - q, p * q, -p, p ** 2, p.substitute(point), collapse(p, names[:2], name),
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
# every variable at once, at fractional points: a diagonal in (b, x1) with
# one term per excess, read at the tilted point x1 = beta, b = -1/beta
@example(Poly(("b", "x1"), {(0, 2): 3, (1, 3): 5, (2, 4): 2}),
         {"b": Fraction(5, 3), "x1": Fraction(-3, 5)})
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


def test_collapse_sets_the_names_equal_to_one_variable():
    t = Poly.variable("t")
    assert collapse(x1 ** 2 * x2 + b * x1, ["x1", "x2"], "t") == t ** 3 + b * t
    # terms that meet add their coefficients, and a zero sum is dropped
    collapsed = collapse(x1 - x2 + 3 * x1 * x2, ["x1", "x2", "x3"], "t")
    assert collapsed.vars == ("t",) and collapsed.terms == {(2,): 3}
    # var's own exponents count too; names the poly lacks are ignored
    assert collapse(x1 * x2 ** 2, ["x1", "zz"], "x2") == x2 ** 3
    assert collapse(b * x1, [], "t") == b * x1
    with pytest.raises(ValueError, match="bad variable name"):
        collapse(x1, ["x1"], "2t")


@given(polys(), st.lists(st.sampled_from(NAMES + ("zz",)), unique=True),
       st.sampled_from(NAMES + ("t",)), point_values)
def test_collapse_then_substitute_equals_substituting_every_name(p, names, var, value):
    # names the poly lacks ("zz", "t" and any NAMES it was not drawn over)
    # are ignored by both sides
    got = collapse(p, names, var).substitute({var: value})
    want = p.substitute({name: value for name in (*names, var)})
    assert (got.vars, got.terms) == (want.vars, want.terms)


def test_determinant_scalar_entries():
    # perfbench traces the determinant by this name, so it stays bound to
    # arith's int kernel, which refuses Poly entries
    assert determinant is arith.determinant
    assert determinant([[2, 1], [7, 4]]) == 1
    with pytest.raises(TypeError):
        determinant([[x1]])


@st.composite
def alternants(draw, size=st.integers(1, 4)):
    """(matrix, names): the names are x1..xn in a drawn order, and row i
    holds f_1(names[i], b), ..., f_n(names[i], b) for drawn f_j, so the
    determinant alternates in the names and each row is at its name."""
    n = draw(size)
    columns = draw(st.lists(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 4)),
                                            st.integers(-4, 4), max_size=3),
                            min_size=n, max_size=n))
    names = tuple(draw(st.permutations([f"x{i}" for i in range(1, n + 1)])))
    matrix = [[Poly(("b", x), f) for f in columns] for x in names]
    return matrix, names


# D, the sum of the entries' total degrees, at 2^6 - 1 and 2^6: b^D and
# x1^D fill a 6-bit field, b^64 needs a 7th bit
@example(([[b ** 31, b ** 32 + x1], [b ** 31, b ** 32 + x2]], ("x1", "x2")))
@example(([[b ** 32, b ** 32 + x1], [b ** 32, b ** 32 + x2]], ("x1", "x2")))
@example(([[x1 ** 63, 1], [x2 ** 63, 1]], ("x1", "x2")))
@example(([[x2 ** 40, x2 * b ** 23, 1], [x1 ** 40, x1 * b ** 23, 1], [x3 ** 40, x3 * b ** 23, 1]],
          ("x2", "x1", "x3")))
@settings(deadline=None)
@given(alternants())
def test_alternant_quotient_times_the_vandermonde_is_the_determinant(case):
    # the generic chain sees only the first row; the Leibniz sum over the
    # whole matrix checks it
    matrix, names = case
    quotient = alternant_quotient(matrix[0], names)
    assert quotient * vandermonde(names) == leibniz(matrix)
    assert all(type(c) is int for c in quotient.terms.values())


@settings(deadline=None)
@given(alternants(size=st.integers(2, 4)), st.data())
def test_alternant_quotient_of_a_non_alternating_matrix_raises(case, data):
    # an entry of the first row that holds another row's name: the rows
    # made from it would not alternate in the names, so it is refused
    # before any work
    matrix, names = case
    row = matrix[0]
    col = data.draw(st.integers(0, len(row) - 1))
    other = data.draw(st.sampled_from(names[1:]))
    row[col] = row[col] + data.draw(st.sampled_from([-2, -1, 1, 3])) * Poly.variable(other)
    with pytest.raises(ValueError, match=f"the row is at {names[0]}, but its entries hold {other}"):
        alternant_quotient(row, names)


def test_alternant_quotient_small_cases():
    assert alternant_quotient([x1 ** 2, 1], ("x1", "x2")) == x1 + x2
    assert alternant_quotient([x2 ** 2, 1], ("x2", "x1")) == x1 + x2
    assert alternant_quotient([x2 ** 2, x2], ("x2", "x1")) == x1 * x2
    assert alternant_quotient([x1 ** 4, x1 ** 2, 1], ("x1", "x2", "x3")) == (
        (x1 + x2) * (x1 + x3) * (x2 + x3))
    # constant columns alternate to 0 from two names on
    assert alternant_quotient([1, 2], ("x1", "x2")) == 0
    assert alternant_quotient([2 * x1], ("x1",)) == 2 * x1
    # a single name has nothing to move or divide, and adds no variable
    assert alternant_quotient([3], ("x1",)).vars == ()
    assert alternant_quotient([], ()) == 1
    with pytest.raises(ValueError, match="distinct"):
        alternant_quotient([x1, 1], ("x1", "x1"))
    with pytest.raises(ValueError, match="need one name per entry, got 2 names for 1 entries"):
        alternant_quotient([x1], ("x1", "x2"))
    with pytest.raises(ValueError, match="need one name per entry, got 3 names for 2 entries"):
        alternant_quotient([x1, 1], ("x1", "x2", "x3"))


def test_alternant_quotient_of_rows_not_at_their_names_raises():
    # the row is at x1, but the names put the first row at x3: its
    # entries hold x1, the second row's name
    row = [x1 ** 2, x1, 1]
    assert alternant_quotient(row, ("x1", "x2", "x3")) == 1
    with pytest.raises(ValueError, match="the row is at x3, but its entries hold x1"):
        alternant_quotient(row, ("x3", "x1", "x2"))
    with pytest.raises(ValueError, match="its entries hold x2, x3"):
        alternant_quotient([x1 * x3, x2, 1], ("x1", "x2", "x3"))


def test_a_chain_without_its_divided_differences_is_refused(monkeypatch):
    # with each divided difference a no-op the reference chain returns the
    # product of the diagonal x1^2 (1 + b x2), which is not symmetric; the
    # guard raises a real error
    monkeypatch.setattr(poly_reference, "_divided_difference", lambda terms, *fields: terms)
    with pytest.raises(ArithmeticError, match="not symmetric in x1 and x2"):
        alternant_quotient([x1 ** 2, 1 + b * x1], ("x1", "x2"))
    # x1 x2 is symmetric in x1 and x2, and the guard goes on to the next pair
    with pytest.raises(ArithmeticError, match="not symmetric in x2 and x3"):
        alternant_quotient([x1, x1, 1], ("x1", "x2", "x3"))


def test_packed_terms_compare_only_over_one_packing():
    # keys over another packing stand for other monomials: a different
    # variable tuple or field width raises, and nothing is unpacked
    packing = polynomials._Packing(("b", "x1"), 3)
    terms = packing.pack(b * x1 + 2 * x1 ** 3)
    packed = polynomials._Packed(packing, terms)
    assert packed == polynomials._Packed(polynomials._Packing(("b", "x1"), 3), dict(terms))
    assert packed != polynomials._Packed(packing, {**terms, 0: 1})
    assert str(packed) == str(b * x1 + 2 * x1 ** 3) and packed.unpack() == b * x1 + 2 * x1 ** 3
    for other in (polynomials._Packing(("b", "x1", "x2"), 3), polynomials._Packing(("b", "x1"), 4),
                  polynomials._Packing(("x1", "x2"), 3)):
        with pytest.raises(ValueError, match="do not compare"):
            packed == polynomials._Packed(other, dict(terms))
    for value in (b * x1 + 2 * x1 ** 3, 0):
        with pytest.raises(TypeError, match="do not compare"):
            packed == value
        with pytest.raises(TypeError, match="do not compare"):
            value == packed


def test_the_variable_order_is_total_under_any_hash_seed():
    # x01 and x1 are two variables; with one sort key for both, their order
    # (and the printed form) followed the set's iteration, so the hash seed
    names = ["x1", "x01", "x001", "x10", "x2", "x", "b", "y01", "y1"]
    code = ("from grothtab.polynomials import Poly\n"
            f"names = {names!r}\n"
            "p = sum((k + 1) * Poly.variable(v) for k, v in enumerate(names))\n"
            "q = sum((Poly.variable(v) for v in reversed(names)), Poly())\n"
            "print(p, p.vars == q.vars, p.to_json() == Poly.from_json(p.to_json()).to_json())\n")
    src = str(Path(__file__).parent.parent / "src")
    printed = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        printed.add(done.stdout)
    assert printed == {"7*b + 6*x + 3*x001 + 2*x01 + x1 + 5*x2 + 4*x10 + 8*y01 + 9*y1 True True\n"}
    with pytest.raises(ValueError, match="unique and sorted"):
        Poly(("x1", "x01"), {(1, 0): 1})
    assert Poly(("x01", "x1"), {(1, 0): 1}) == Poly.variable("x01")


def test_json_round_trip_and_canonical_order():
    p = x2 + x1 + Fraction(1, 3) * b * x1 ** 2
    data = p.to_json()
    assert data["variables"] == ["b", "x1", "x2"]
    assert [t["coeff"] for t in data["terms"]] == ["1", "1", "1/3"]
    assert Poly.from_json(data) == p
    # canonical term order is stable under rebuilding
    assert Poly.from_json(data).to_json() == data
