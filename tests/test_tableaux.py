import inspect
import json
import tracemalloc
from itertools import combinations, islice, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothtab import tableaux
from grothtab.partitions import Partition, count_sst_hook, partitions_of
from grothtab.tableaux import SetValuedTableau, enumerate_sst, enumerate_svt

from tableau_reference import entry, is_semistandard, is_valid, reference_sst, reference_svt

DATA = Path(__file__).parent / "data"


def shapes_up_to(max_size):
    return st.integers(0, max_size).flatmap(lambda size: st.sampled_from(partitions_of(size)))


# with 2, every alphabet of more than two letters streams its entries, and
# only an alphabet of one letter fuses the last two cells
@pytest.mark.parametrize("table_letters", [tableaux._TABLE_LETTERS, 2])
def test_enumeration_equals_the_recursive_reference(table_letters, monkeypatch):
    monkeypatch.setattr(tableaux, "_TABLE_LETTERS", table_letters)
    # every pair of Grid(5, 5), shapes too tall for n and the empty shape;
    # the last two cells are fused up to n = 6 (with the last cell right
    # of, below, or neither, the second-last), kept apart at n = 7, and at
    # n = 13 the first cell's alphabet is streamed too
    cases = [(lam, n) for size in range(6) for lam in partitions_of(size) for n in range(1, 6)]
    for lam, n in cases + [((3, 2), 6), ((2, 1), 6), ((1, 1, 1), 6), ((4, 4, 4), 4),
                           ((2, 1), 7), ((1, 1), 7), ((1, 1), 13)]:
        for enumerate_tableaux, reference in ((enumerate_svt, reference_svt),
                                              (enumerate_sst, reference_sst)):
            got = [(t.shape, t.n, t.rows) for t in enumerate_tableaux(lam, n)]
            assert got == [(t.shape, t.n, t.rows) for t in reference(lam, n)], (lam, n)


def test_the_keyed_stream_weighs_each_tableau_in_turn():
    # every pair of Grid(5, 5), shapes too tall for n and the empty shape;
    # (1^k)/13 opens its first cell on {1..13}, an alphabet that is
    # streamed rather than kept in a table
    cases = [(lam, n) for size in range(6) for lam in partitions_of(size) for n in range(1, 6)]
    for lam, n in cases + [((1,), 13), ((1, 1), 13)]:
        # a count field and one 8-bit field per letter, so that distinct
        # letter multisets get distinct keys
        units = [1 + (1 << (8 * v)) for v in range(n + 1)]
        keys = list(enumerate_svt(lam, n, units))
        want = [sum(units[v] for cell in t.cells for v in cell) for t in enumerate_svt(lam, n)]
        assert keys == want, (lam, n)
    assert len(keys) == 45057


def test_the_streams_are_generators_that_close_mid_stream():
    units = [1 + (1 << (8 * v)) for v in range(5)]
    for stream in (enumerate_svt((2, 1), 4), enumerate_sst((2, 1), 4),
                   enumerate_svt((2, 1), 4, units)):
        assert inspect.isgenerator(stream)
        next(stream)
        stream.close()
        assert next(stream, None) is None


def test_column_counts():
    # a column filling is a set of m letters cut into k non-empty runs;
    # without the column cap, (1^18)/18 took minutes to find its one filling
    for k in range(1, 19):
        for n in (k, k + 1, k + 2):
            want = sum(comb(n, m) * comb(m - 1, k - 1) for m in range(k, n + 1))
            assert sum(1 for _ in enumerate_svt((1,) * k, n)) == want, (k, n)
    assert [t.rows for t in enumerate_svt((1,) * 18, 18)] == [tuple(((v,),) for v in range(1, 19))]


def test_sst_single_box():
    got = list(enumerate_sst((1,), 2))
    assert [t.rows for t in got] == [(((1,),),), (((2,),),)]


def test_sst_count_matches_hook_formula():
    assert sum(1 for _ in enumerate_sst((2, 1), 3)) == 8
    assert sum(1 for _ in enumerate_sst((2, 1), 3)) == count_sst_hook((2, 1), 3)


def test_too_many_rows_gives_empty_stream():
    assert list(enumerate_sst((1, 1, 1), 2)) == []
    assert list(enumerate_svt((1, 1, 1), 2)) == []


def test_svt_single_cell_single_letter():
    got = list(enumerate_svt((1,), 1))
    assert len(got) == 1 and entry(got[0], 1, 1) == (1,)


def test_svt_single_cell_two_letters_in_order():
    got = [entry(t, 1, 1) for t in enumerate_svt((1,), 2)]
    assert got == [(1,), (1, 2), (2,)]
    multi = [t for t in enumerate_svt((1,), 2) if t.excess > 0]
    assert len(multi) == 1
    assert multi[0].excess == 1


def test_empty_shape_has_one_empty_filling():
    got = list(enumerate_svt((), 3))
    assert len(got) == 1 and got[0].size == 0


def test_reference_counts():
    assert sum(1 for _ in enumerate_svt((2, 1), 3)) == 27
    assert sum(1 for _ in enumerate_svt((2, 2), 3)) == 13


def test_size_and_excess_of_displayed_tableau():
    t = SetValuedTableau((2, 1), 3, [[[1], [1, 2]], [[2, 3]]])
    assert t.size == 5
    assert t.excess == 2


def test_all_singleton_weight_has_no_excess():
    for t in enumerate_sst((2, 2), 3):
        assert t.excess == 0
        assert t.size == t.shape.size


def test_stream_order_is_deterministic_and_sorted():
    got = list(enumerate_svt((2, 1), 3))
    assert got == sorted(got, key=lambda t: t.rows)
    again = list(enumerate_svt((2, 1), 3))
    assert got == again


def test_streams_are_lazy():
    stream = enumerate_svt((4, 4, 4), 6)
    first = list(islice(stream, 3))
    assert len(first) == 3 and all(is_valid(t) for t in first)


def test_a_large_alphabet_is_streamed_not_listed():
    # listing the 2^18 - 1 entries on {1..18} up front takes about 100 MB;
    # the tables kept for alphabets of at most 12 letters take about 2 MB;
    # on 5000 letters no table is indexed by letter either
    tracemalloc.start()
    try:
        assert is_valid(next(enumerate_svt((2, 1), 18)))
        assert is_valid(next(enumerate_svt((1,), 18)))
        assert sum(1 for _ in enumerate_sst((1,), 5000)) == 5000
        assert sum(enumerate_sst((1,), 5000, range(5001))) == 5000 * 5001 // 2
        assert next(enumerate_sst((1, 1), 5000)).cells == ((1,), (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@settings(max_examples=20, deadline=None)
@given(shapes_up_to(4), st.integers(1, 3))
@example(Partition((2, 1)), 3)
@example(Partition((2, 2)), 3)
def test_validity_oracle_matches_enumeration(shape, n):
    # every possible filling, validated independently against membership
    cells = shape.cells()
    subsets = [s for size in range(1, n + 1)
               for s in combinations(range(1, n + 1), size)]
    enumerated = set(enumerate_svt(shape, n))
    for assignment in product(subsets, repeat=len(cells)):
        rows = [[None] * p for p in shape.parts]
        for (i, j), entry in zip(cells, assignment):
            rows[i - 1][j - 1] = entry
        t = SetValuedTableau(shape, n, rows)
        assert is_valid(t) == (t in enumerated)


def test_validity_rejects_structural_garbage():
    assert is_valid(SetValuedTableau((2, 1), 2, [[[1], [1]], [[2]]]))
    # letter outside 1..n
    assert not is_valid(SetValuedTableau((2, 1), 1, [[[1], [1]], [[2]]]))


@pytest.mark.parametrize("shape, rows", [
    # rows not matching the declared shape
    ((2, 1), [[[1], [1]]]),
    ((2, 1), [[[1]], [[1], [2]]]),
    ((1,), [[[1]], []]),
    # letters that are not ints
    ((1,), [[[1.5]]]),
    ((1,), [[[True]]]),
    ((2,), [[[1], [2, "3"]]]),
])
def test_constructor_refuses_rows_off_the_shape_and_non_int_letters(shape, rows):
    with pytest.raises(ValueError):
        SetValuedTableau(shape, 3, rows)


def test_from_json_refuses_a_non_int_letter():
    with pytest.raises(ValueError, match="not an int"):
        SetValuedTableau.from_json([[["a"]]], 2)


@settings(max_examples=20, deadline=None)
@given(shapes_up_to(6), st.integers(1, 4))
def test_singleton_restriction_equals_sst(extra_shape, extra_n):
    # every shape up to size 5 on up to 3 letters, plus one random instance
    cases = [(lam, n) for size in range(0, 6) for lam in partitions_of(size) for n in range(1, 4)]
    for lam, n in cases + [(extra_shape, extra_n)]:
        svt_singletons = {t for t in enumerate_svt(lam, n) if is_semistandard(t)}
        sst = set(enumerate_sst(lam, n))
        assert svt_singletons == sst


def test_fixture_tableaux_are_exactly_the_enumeration():
    data = json.loads((DATA / "svt_2_1_3.json").read_text())
    fixture = {SetValuedTableau.from_json(rows, data["n"]) for rows in data["tableaux"]}
    assert len(fixture) == 27
    assert fixture == set(enumerate_svt(tuple(data["shape"]), data["n"]))


def test_compact_str_and_json_round_trip():
    t = SetValuedTableau((2, 1), 3, [[[1], [2, 3]], [[2]]])
    assert t.compact_str() == "1 23,2"
    assert SetValuedTableau.from_json(t.to_json(), 3) == t


def test_enumerated_tableaux_equal_their_checked_construction():
    # the enumerators build tableaux unchecked from their row-major cells;
    # the public constructor takes rows, sorts each cell and normalises
    # shape and n; every pair of Grid(4, 4)
    for size in range(5):
        for shape in partitions_of(size):
            for n in range(1, 5):
                for t in enumerate_svt(shape, n):
                    checked = SetValuedTableau(t.shape, t.n, t.rows)
                    assert t == checked and hash(t) == hash(checked), t
                    assert t.shape == checked.shape
    assert SetValuedTableau((1,), 2, [[[2, 1]]]).rows == (((1, 2),),)


def test_cells_are_the_rows_row_major():
    t = SetValuedTableau((2, 1), 3, [[[1], [2, 3]], [[2]]])
    assert t.cells == ((1,), (2, 3), (2,))
    assert t.rows == (((1,), (2, 3)), ((2,),))
    assert SetValuedTableau((), 3, []).rows == ()


def test_equal_cells_in_different_shapes_are_different_tableaux():
    row = SetValuedTableau((2,), 2, [[[1], [2]]])
    column = SetValuedTableau((1, 1), 2, [[[1]], [[2]]])
    assert row.cells == column.cells
    assert row != column and len({row, column}) == 2


def test_compact_str_separates_letters_from_ten_letters_on():
    assert SetValuedTableau((1,), 12, [[[12]]]).compact_str() == "12"
    assert SetValuedTableau((1,), 12, [[[1, 2]]]).compact_str() == "1.2"
    assert SetValuedTableau((2, 1), 10, [[[1], [2, 10]], [[3]]]).compact_str() == "1 2.10,3"
    assert SetValuedTableau((1,), 9, [[[1, 2]]]).compact_str() == "12"
