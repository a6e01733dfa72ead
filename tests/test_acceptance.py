"""Acceptance suite: one test per release criterion.

Every comparison is exact (rational or polynomial equality); the only
tolerances are the stated wall-clock budgets.  Each test prints a single
pass/fail line (visible with pytest -s).
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from grothtab.grothendieck import (
    BETA,
    count_svt_formula,
    grothendieck_tableau_sum,
)
from grothtab.hypergeom import (
    HolmanInstance,
    holman_series,
)
from grothtab.identities import Grid, run_all
from grothtab.partitions import Partition, count_sst_product
from grothtab.tableaux import SetValuedTableau, enumerate_svt

from column_expansion import elementary_symmetric_poly, single_column_e_expansion

DATA = Path(__file__).parent / "data"

REFERENCE_COUNTS = [
    ((2, 1), 3, 27),
    ((2, 2), 3, 13),
    ((4, 3), 3, 103),
    ((2, 1), 4, 159),
    ((2, 2), 4, 97),
    ((4, 3), 4, 1759),
]

_SUITE_CACHE = {}


def _full_suite():
    if "suite" not in _SUITE_CACHE:
        start = time.perf_counter()
        _SUITE_CACHE["suite"] = run_all(Grid(max_size=6, max_vars=4))
        _SUITE_CACHE["seconds"] = time.perf_counter() - start
    return _SUITE_CACHE["suite"], _SUITE_CACHE["seconds"]


def _line(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"{name} failed {detail}"


def test_criterion_1_reference_count_table():
    ok = True
    worst = 0.0
    for shape, n, want in REFERENCE_COUNTS:
        start = time.perf_counter()
        by_enum = sum(1 for _ in enumerate_svt(shape, n))
        by_formula = count_svt_formula(shape, n)
        by_series = count_sst_product(shape, n) * holman_series(
            HolmanInstance.from_shape(shape, n, -1))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and by_enum == by_formula == by_series == want and elapsed < 10.0
    _line("1-count-table", ok, f"(slowest triple {worst:.2f}s)")


def test_criterion_2_displayed_tableaux_fixture():
    data = json.loads((DATA / "svt_2_1_3.json").read_text())
    fixture = {SetValuedTableau.from_json(rows, data["n"]) for rows in data["tableaux"]}
    enumerated = set(enumerate_svt(tuple(data["shape"]), data["n"]))
    ok = len(fixture) == 27 and fixture == enumerated
    _line("2-displayed-tableaux", ok)


def test_criterion_3_worked_series_value():
    inst = HolmanInstance.from_shape((2, 1), 3, 1)
    value = holman_series(inst)
    sst = count_sst_product((2, 1), 3)
    ok = value == Fraction(1, 8) and sst == 8 and value * sst == 1
    _line("3-worked-value", ok, f"(value {value}, |SST| {sst})")


def test_criterion_4_identity_suite():
    suite, seconds = _full_suite()
    failing = [c.id for c in suite.checks if not c.ok]
    ok = suite.ok and seconds < 300.0
    _line("4-identity-suite", ok,
          f"({suite.passed} instances, {seconds:.1f}s, failing={failing})")


def test_criterion_5_odd_counts():
    suite, _ = _full_suite()
    oddness = next(c for c in suite.checks if c.id == "oddness")
    ok = oddness.ok and oddness.instances > 0
    _line("5-odd-counts", ok, f"({oddness.instances} instances)")


def test_criterion_6a_coupling_sign_is_pinned():
    # the difference form passes; the sum form must fail on (2,1), n=3
    shape, n = Partition((2, 1)), 3
    target = grothendieck_tableau_sum(shape, n).substitute(
        {"x1": 1, "x2": 1, "x3": 1, BETA: 1}).as_fraction()
    sst = count_sst_product(shape, n)
    good = sst * holman_series(HolmanInstance.from_shape(shape, n, -1))

    lam = shape.padded(n)
    sum_coupling = tuple(
        tuple(lam[i - 1] + lam[j - 1] + j - i for i in range(1, j))
        for j in range(2, n + 1))
    variant = HolmanInstance(
        sum_coupling,
        (tuple(Fraction(-i) for i in range(n)),),
        (tuple(Fraction(1) for _ in range(n)),),
        (Fraction(-1),) * n)
    bad = sst * holman_series(variant)

    ok = good == target == 27 and bad != target
    _line("6a-coupling-sign", ok, f"(difference {good}, sum-variant {bad})")


def test_criterion_6b_column_expansion_coefficient():
    ok = True
    for k in range(1, 5):
        for n in range(k, 5):
            ok = ok and single_column_e_expansion(k, n) == grothendieck_tableau_sum((1,) * k, n)
    # the alternative binomial C(n+k-1, m) must not survive the oracle
    from grothtab.arith import binomial
    from grothtab.polynomials import Poly

    bad = Poly.constant(0)
    bvar = Poly.variable(BETA)
    k, n = 1, 2
    for m in range(0, n - k + 1):
        bad = bad + bvar ** m * (binomial(n + k - 1, m) * elementary_symmetric_poly(m + k, n))
    ok = ok and bad != grothendieck_tableau_sum((1,) * k, n)
    _line("6b-column-expansion", ok)
