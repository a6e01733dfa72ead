import json
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

from grothtab import arith, hypergeom
from grothtab.arith import binomial
from grothtab.grothendieck import BETA, grothendieck_tableau_sum
from grothtab.hypergeom import (
    HolmanInstance,
    NonTerminatingSeriesError,
    gauss_2f1_terminating,
    holman_series,
    ones_value_by_series,
    shape_coupling,
    shape_series,
)
from grothtab.identities import DEFAULT_BETAS, Grid
from grothtab.partitions import count_sst_hook, count_sst_product
from grothtab.tableaux import enumerate_svt

DATA = Path(__file__).parent / "data"


def test_gauss_zero_numerator_parameter():
    for k in range(1, 5):
        assert gauss_2f1_terminating(k, 0, k + 1, -1) == 1


def test_gauss_two_term_sum():
    assert gauss_2f1_terminating(1, -1, 2, -1) == Fraction(3, 2)


def test_gauss_prefactor_gives_single_box_count():
    # C(2,1) * 3/2 = 3 = number of set-valued fillings of one box, n=2
    value = binomial(2, 1) * gauss_2f1_terminating(1, 1 - 2, 1 + 1, -1)
    assert value == 3 == sum(1 for _ in enumerate_svt((1,), 2))


def _rising(a, m):
    return prod((Fraction(a) + i for i in range(m)), start=Fraction(1))


def test_gauss_termination_bound():
    # the sum ends at the last nonzero numerator Pochhammer: m = 3, then m = 2
    for alpha, beta, gamma, z, bound in [(1, -3, 2, 1, 3), (-2, -5, 2, 1, 2)]:
        want = sum(_rising(alpha, m) * _rising(beta, m) / _rising(gamma, m)
                   * Fraction(z) ** m / factorial(m) for m in range(bound + 1))
        assert gauss_2f1_terminating(alpha, beta, gamma, z) == want
    for alpha, beta, gamma, z in [(1, 2, 3, Fraction(1, 2)), (Fraction(-3, 2), 2, 3, 1)]:
        with pytest.raises(NonTerminatingSeriesError):
            gauss_2f1_terminating(alpha, beta, gamma, z)


def test_gauss_refuses_non_terminating():
    with pytest.raises(NonTerminatingSeriesError):
        gauss_2f1_terminating(Fraction(1, 2), Fraction(1, 3), 2, Fraction(1, 2))


def test_gauss_rejects_vanishing_denominator_pochhammer():
    with pytest.raises(ValueError, match="vanishes"):
        gauss_2f1_terminating(-3, 1, -1, 1)
    # a gamma further out than the cutoff is fine: 1 + 2/5 + 1/10
    assert gauss_2f1_terminating(-2, 1, -5, 1) == Fraction(3, 2)


def test_gauss_refusals_keep_their_order():
    # every argument is taken as an exact rational first, in order, so a
    # float is refused before the series is looked at, a non-terminating
    # one included; then termination, the term limit and the denominator
    for args, error, message in [
            ((0.5, 1, 2, 0.25), ValueError, "0.5 is not"),
            ((1, 1, 2.0, 0.25), ValueError, "2.0 is not"),
            ((1, 1, 2, 0.25), ValueError, "0.25 is not"),
            ((-3, 1, -1, True), ValueError, "True is not"),
            ((1, 1, -1, 1), NonTerminatingSeriesError, "only terminating"),
            ((-10**7, 1, -1, 1), ValueError, "the series has 10000001 terms"),
            ((-3, 1, -1, 1), ValueError, "vanishes inside the summation range 0..3")]:
        with pytest.raises(error, match=message):
            gauss_2f1_terminating(*args)


def test_gauss_parts_are_the_series_as_a_polynomial_in_z():
    # the graded parts, read at z, are the series summed at that z; they
    # are rebuilt on each call, with no memo keyed by the parameters
    assert not hasattr(hypergeom._gauss_parts, "cache_clear")
    for alpha, beta, gamma in [(3, -2, 4), (-4, "3/2", 2), ("7/3", -8, "1/3"), (-2, 1, -5)]:
        parts, d = hypergeom._gauss_parts(alpha, beta, gamma)
        assert all(type(c) is int for c in parts) and type(d) is int and d > 0
        for z in (0, 1, -1, Fraction(2, 3), "-5/4"):
            want = holman_series(HolmanInstance(
                (), ((alpha,), (beta,)), ((gamma,), (1,)), (z,)))
            assert arith.polynomial_at(parts, d, z) == want, (alpha, beta, gamma, z)
            assert gauss_2f1_terminating(alpha, beta, gamma, z) == want


def test_shape_coupling_matrices():
    assert shape_coupling((2, 1), 3) == ((2,), (4, 2))
    assert shape_coupling((), 2) == ((1,),)
    assert shape_coupling((5,), 2) == ((6,),)


def test_from_shape_worked_instance():
    inst = HolmanInstance.from_shape((2, 1), 3, 1)
    assert inst.coupling == ((2,), (4, 2))
    assert inst.numerator == ((Fraction(0), Fraction(-1), Fraction(-2)),)
    assert inst.denominator == ((Fraction(1), Fraction(1), Fraction(1)),)
    assert inst.z == (Fraction(1), Fraction(1), Fraction(1))
    assert inst.termination_bounds() == (0, 1, 2)
    assert holman_series(inst) == Fraction(1, 8)


def test_from_shape_empty_partition():
    inst = HolmanInstance.from_shape((), 2, Fraction(1, 3))
    assert inst.coupling == ((1,),)
    assert inst.numerator == ((Fraction(0), Fraction(-1)),)


def test_from_shape_rejects_more_rows_than_indices():
    with pytest.raises(ValueError, match=r"shape \(2,1\) has 2 rows, more than n = 1"):
        HolmanInstance.from_shape((2, 1), 1, 1)


def test_all_zero_arguments_give_one():
    inst = HolmanInstance.from_shape((3, 1), 3, 0)
    assert holman_series(inst) == 1


def _gauss_reference(alpha, beta, gamma, z, bound):
    """The Gauss series summed term by term up to m = bound: each term is
    the one before times (alpha + m)(beta + m) z / ((gamma + m)(m + 1))."""
    alpha, beta, gamma, z = map(Fraction, (alpha, beta, gamma, z))
    total = term = Fraction(1)
    for m in range(bound):
        term *= (alpha + m) * (beta + m) * z
        term /= (gamma + m) * (m + 1)
        total += term
    return total


@pytest.mark.parametrize("alpha, beta, gamma, z, bound", [
    (-4, "3/2", 2, "2/3", 4),
    (2, -5, "7/3", "-1/2", 5),
    ("7/3", -8, "1/3", "1/2", 8),
    (-6, -3, "-5/2", -4, 3),
    (1, -3, 9, 0, 3),
    (0, "1/2", 3, 5, 0),
    # gamma = -5 vanishes at m = 5, past the cutoff m = 2
    (-2, 1, -5, 1, 2),
])
def test_gauss_matches_the_term_by_term_sum(alpha, beta, gamma, z, bound):
    # the one-index coupled series against the Gauss loop written out
    assert gauss_2f1_terminating(alpha, beta, gamma, z) == _gauss_reference(
        alpha, beta, gamma, z, bound)


def _pochhammer(a, k):
    return prod((a + m for m in range(k)), start=Fraction(1))


def _holman_reference(inst, cutoffs):
    """holman_series's docstring summed term by term over k in
    prod [0..N_i]: the cross factors (A_ij + k_i - k_j) / A_ij, with A_ij
    at row j - 2, place i - 1 of the coupling, then index i's own numerator
    and denominator Pochhammers and z_i^k_i."""
    n = inst.n
    total = Fraction(0)
    for k in product(*(range(N + 1) for N in cutoffs)):
        term = Fraction(1)
        for j in range(1, n):
            for i in range(j):
                a = inst.coupling[j - 1][i]
                term *= Fraction(a + k[i] - k[j], a)
        for i in range(n):
            term *= prod(_pochhammer(col[i], k[i]) for col in inst.numerator)
            term /= prod(_pochhammer(col[i], k[i]) for col in inst.denominator)
            term *= inst.z[i] ** k[i]
        total += term
    return total


@pytest.mark.parametrize("inst, cutoffs", [
    # A_13 = 1 is not A_12 + A_23, so no shape has this coupling; the
    # denominator -3 of index 3 vanishes at k = 3, past its cutoff 1
    (HolmanInstance.load(DATA / "holman_per_index.json"), (2, 3, 1)),
    (HolmanInstance(((2,), (7, 1)), ((-1, "1/3", -2), ("-5/2", -2, 4)),
                    (("3/2", 1, "-1/2"), (2, "7/4", 1)), ("-3/5", 4, "-1/2")), (1, 2, 2)),
    (HolmanInstance(((4,),), ((-3, 2), ("7/2", -2)), (("1/2", 4), (1, "-7/3")), ("-1/5", 6)),
     (3, 2)),
])
def test_holman_series_matches_the_term_by_term_sum(inst, cutoffs):
    # every index has its own parameters and argument, so an evaluator that
    # reads one index's data for another's, or the coupling at the wrong
    # place, gives another value
    assert inst.termination_bounds() == cutoffs
    assert holman_series(inst) == _holman_reference(inst, cutoffs)


def test_single_row_cross_evaluator_agreement():
    # shape (k) with n=2: coupling (k+1,); both evaluators give the same
    # all-ones value
    for k in range(1, 6):
        assert shape_coupling((k,), 2) == ((k + 1,),)
        for beta in (Fraction(1), Fraction(1, 3), Fraction(-2)):
            left = count_sst_product((k,), 2) * holman_series(
                HolmanInstance.from_shape((k,), 2, -beta))
            right = binomial(2 + k - 1, k) * gauss_2f1_terminating(k, 1 - 2, k + 1, -beta)
            assert left == right


def test_reciprocal_count_and_count_identities():
    for lam, n in [((2, 1), 3), ((2, 2), 3), ((3, 1), 4)]:
        sst = count_sst_product(lam, n)
        assert holman_series(HolmanInstance.from_shape(lam, n, 1)) == Fraction(1, sst)
        count = sst * holman_series(HolmanInstance.from_shape(lam, n, -1))
        assert count == sum(1 for _ in enumerate_svt(lam, n))


def test_all_ones_value_via_series():
    lam, n = (2, 2), 3
    ones = {f"x{i}": 1 for i in range(1, n + 1)}
    g = grothendieck_tableau_sum(lam, n).substitute(ones)
    for beta in (Fraction(2), Fraction(-3, 5)):
        left = count_sst_product(lam, n) * holman_series(
            HolmanInstance.from_shape(lam, n, -beta))
        assert left == g.substitute({BETA: beta}).as_fraction()


def test_ones_value_by_series_counts_and_is_zero_past_n_rows():
    # the count-svt counters all answer 0 for a shape with more rows than n
    assert ones_value_by_series((2, 1), 3, 1) == 27
    assert ones_value_by_series((2, 1), 1, 1) == 0


def test_ones_value_by_series_reads_the_series_of_each_beta():
    # the memoized polynomial in z, read at z = -beta, against the series
    # summed afresh at that z
    for shape, n in Grid(5, 5).shapes():
        sst = count_sst_product(shape, n)
        for beta in (*DEFAULT_BETAS, 0, Fraction(7, 3), Fraction(-11, 13)):
            expected = sst * holman_series(HolmanInstance.from_shape(shape, n, -beta))
            assert ones_value_by_series(shape, n, beta) == expected, (shape, n, beta)


def test_ones_value_by_series_sums_each_instance_once(monkeypatch):
    # the first call sums the series of (3,1,1) in 5 variables; every later
    # beta reads it without entering the kernel
    betas = (2, Fraction(-1, 2), 0)
    expected = [count_sst_product((3, 1, 1), 5) * holman_series(
        HolmanInstance.from_shape((3, 1, 1), 5, -beta)) for beta in betas]
    count = ones_value_by_series((3, 1, 1), 5, 1)

    def no_sum(*args):
        raise AssertionError("the series was summed again")

    monkeypatch.setattr(hypergeom, "coupled_sum", no_sum)
    assert [ones_value_by_series((3, 1, 1), 5, beta) for beta in betas] == expected
    assert ones_value_by_series((3, 1, 1), 5, 1) == count


def test_ones_value_by_series_refuses_inexact_betas():
    for beta in (0.5, -1.0, True, False):
        with pytest.raises(ValueError, match="is not an exact rational"):
            ones_value_by_series((2, 1), 3, beta)


def test_a_refused_series_leaves_no_memo_entry():
    before = hypergeom._shape_series.cache_info().currsize
    with pytest.raises(ValueError, match="the series has"):
        ones_value_by_series((1,), 800, 1)
    assert hypergeom._shape_series.cache_info().currsize == before


def test_shape_series_reads_the_from_shape_series():
    # the memoized polynomial in z, read at z, against the series of the
    # from_shape instance summed afresh at that z
    zs = (1, 0, -1, Fraction(7, 3), Fraction(-11, 13), *(-beta for beta in DEFAULT_BETAS))
    for shape, n in Grid(5, 5).shapes():
        for z in zs:
            expected = holman_series(HolmanInstance.from_shape(shape, n, z))
            assert shape_series(shape, n, z) == expected, (shape, n, z)


def test_shape_series_refuses_more_rows_than_n():
    # from_shape's refusal, in n = 0 variables too, where the empty shape's
    # series is the empty product 1
    assert shape_series((), 0, 1) == 1
    for shape, n in [((1,), 0), ((2, 1), 1), ((1, 1, 1), 2)]:
        with pytest.raises(ValueError, match=f"rows, more than n = {n}"):
            shape_series(shape, n, 1)


def test_shape_series_refuses_inexact_z():
    for z in (0.5, -1.0, True, False):
        with pytest.raises(ValueError, match="is not an exact rational"):
            shape_series((2, 1), 3, z)


def test_a_variable_count_is_an_int_even_past_the_rows():
    # the count is checked before the rows > n test, which would answer 0
    for call in (lambda: count_sst_product((1, 1), 1.5), lambda: count_sst_hook((1, 1), 1.5),
                 lambda: ones_value_by_series((1, 1), 1.5, 1),
                 lambda: shape_series((1, 1), 1.5, 1)):
        with pytest.raises(TypeError):
            call()


def test_gauss_prefactor_identities_up_to_five_variables():
    # single rows and single columns, k and n up to 5
    betas = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-2))
    for n in range(1, 6):
        ones = {f"x{i}": 1 for i in range(1, n + 1)}
        for k in range(1, 6):
            row = grothendieck_tableau_sum((k,), n).substitute(ones)
            for beta in betas:
                want = row.substitute({BETA: beta}).as_fraction()
                got = binomial(n + k - 1, k) * gauss_2f1_terminating(k, 1 - n, k + 1, -beta)
                assert got == want, ("row", k, n, beta)
            if k <= n:
                col = grothendieck_tableau_sum((1,) * k, n).substitute(ones)
                for beta in betas:
                    want = col.substitute({BETA: beta}).as_fraction()
                    got = binomial(n, k) * gauss_2f1_terminating(k, k - n, k + 1, -beta)
                    assert got == want, ("column", k, n, beta)


def test_instance_validation():
    with pytest.raises(ValueError, match="positive"):
        HolmanInstance(((0,),), ((0, -1),), ((1, 1),), (1, 1))
    with pytest.raises(ValueError, match="triangle"):
        HolmanInstance(((2,),), ((0, -1, -2),), ((1, 1, 1),), (1, 1, 1))
    with pytest.raises(ValueError, match="columns"):
        HolmanInstance(((2,), (4, 2)), ((0, -1),), ((1, 1, 1),), (1, 1, 1))
    with pytest.raises(ValueError):
        HolmanInstance((), (), (), ())


def test_refuses_non_terminating_row():
    inst = HolmanInstance(((1,),), ((Fraction(1, 2), Fraction(-1)),), ((1, 1),), (1, 1))
    with pytest.raises(NonTerminatingSeriesError, match="row 1"):
        holman_series(inst)


def test_rejects_denominator_pochhammer_zero():
    inst = HolmanInstance(((1,),), ((0, -2),), ((1, -1),), (1, 1))
    with pytest.raises(ValueError, match="vanishes"):
        holman_series(inst)


def test_json_round_trip_and_fixture_load():
    inst = HolmanInstance.from_shape((2, 1), 3, 1)
    assert HolmanInstance.from_json(inst.to_json()) == inst
    loaded = HolmanInstance.load(DATA / "holman_2_1_3.json")
    assert loaded == inst
    assert holman_series(loaded) == Fraction(1, 8)


def test_instance_is_an_immutable_value():
    inst = HolmanInstance.from_shape((2, 1), 3, Fraction(1, 2))
    same = HolmanInstance([[2], [4, 2]], [[0, -1, -2]], [["1", 1, 1]], ["1/2"] * 3)
    assert same == inst and hash(same) == hash(inst)
    assert same.numerator == ((Fraction(0), Fraction(-1), Fraction(-2)),)
    assert inst != HolmanInstance.from_shape((2, 1), 3, 1)
    with pytest.raises(AttributeError):
        inst.z = (1, 1, 1)
    data = inst.to_json()
    for document in ({k: v for k, v in data.items() if k != "z"}, {**data, "n": 3}):
        with pytest.raises(ValueError, match="exactly the fields"):
            HolmanInstance.from_json(document)


def test_fixture_file_matches_documented_layout():
    data = json.loads((DATA / "holman_2_1_3.json").read_text())
    assert set(data) == {"coupling", "numerator", "denominator", "z"}
    assert data["coupling"] == [[2], [4, 2]]


def test_series_size_limit(monkeypatch):
    # the bound is checked before any term: bound + 1 Gauss terms, prod(N_i + 1)
    # coupled terms
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 3)
    assert gauss_2f1_terminating(-2, 1, 1, 1) == 0
    with pytest.raises(ValueError, match="the series has 4 terms, more than the limit of 3"):
        gauss_2f1_terminating(-3, 1, 1, 1)
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 6)
    assert holman_series(HolmanInstance.from_shape((2, 1), 3, 1)) == Fraction(1, 8)
    with pytest.raises(ValueError, match="the series has 24 terms, more than the limit of 6"):
        holman_series(HolmanInstance.from_shape((2, 1), 4, 1))


def test_series_over_the_limit_is_refused():
    inst = HolmanInstance(((1,),), ((-3000, -3000),), ((1, 1),), (1, 1))
    with pytest.raises(ValueError, match="9006001 terms, more than the limit of 1000000"):
        holman_series(inst)
    with pytest.raises(ValueError, match="10000001 terms"):
        gauss_2f1_terminating(-10**7, 1, 2, 1)
    # a from-shape instance has n! terms, so n = 10 is the first one refused
    with pytest.raises(ValueError, match="3628800 terms"):
        holman_series(HolmanInstance.from_shape((), 10, 1))
