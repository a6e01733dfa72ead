import json
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from grothtab import arith
from grothtab.arith import binomial
from grothtab.grothendieck import BETA, grothendieck_tableau_sum
from grothtab.hypergeom import (
    HolmanInstance,
    NonTerminatingSeriesError,
    classical_summation_conditions,
    gauss_2f1_terminating,
    holman_series,
    shape_coupling,
)
from grothtab.partitions import count_sst_product
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


def test_single_index_degeneration_matches_gauss():
    # one summation index, numerator columns (alpha, beta), denominators
    # (gamma, 1): the coupled series IS the Gauss series
    alpha, beta_p, gamma, z = Fraction(-4), Fraction(3, 2), Fraction(2), Fraction(2, 3)
    inst = HolmanInstance(
        coupling=(),
        numerator=((alpha,), (beta_p,)),
        denominator=((gamma,), (Fraction(1),)),
        z=(z,),
    )
    assert holman_series(inst) == gauss_2f1_terminating(alpha, beta_p, gamma, z)


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


def test_conditions_for_shape_instance():
    report = classical_summation_conditions(HolmanInstance.from_shape((2, 1), 3, 1))
    assert tuple(report) == (True, False, False, True)
    assert not report.all_satisfied


def test_conditions_all_satisfied_instance():
    # built by solving the constraints for n=3, single columns:
    # A = ((1,), (2, 1)), a = (5, 4, 3), b = (1, 0, -1)
    inst = HolmanInstance(
        coupling=((1,), (2, 1)),
        numerator=((Fraction(5), Fraction(4), Fraction(3)),),
        denominator=((Fraction(1), Fraction(0), Fraction(-1)),),
        z=(1, 1, 1),
    )
    report = classical_summation_conditions(inst)
    assert tuple(report) == (True, True, True, True)
    assert report.all_satisfied


def test_conditions_unit_diagonal_violation():
    inst = HolmanInstance(
        coupling=((1,), (2, 1)),
        numerator=((Fraction(5), Fraction(4), Fraction(3)),),
        denominator=((Fraction(2), Fraction(1), Fraction(0)),),
        z=(1, 1, 1),
    )
    report = classical_summation_conditions(inst)
    assert report.unit_diagonal is False
    assert report.all_satisfied is False


def test_json_round_trip_and_fixture_load():
    inst = HolmanInstance.from_shape((2, 1), 3, 1)
    assert HolmanInstance.from_json(inst.to_json()) == inst
    loaded = HolmanInstance.load(DATA / "holman_2_1_3.json")
    assert loaded == inst
    assert holman_series(loaded) == Fraction(1, 8)


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
