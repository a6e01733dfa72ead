import json
from itertools import combinations, islice, product
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grothtab.partitions import Partition, count_sst_hook, partitions_of
from grothtab.tableaux import (
    SetValuedTableau,
    enumerate_sst,
    enumerate_svt,
    is_valid,
)

DATA = Path(__file__).parent / "data"


def shapes_up_to(max_size):
    return st.integers(0, max_size).flatmap(lambda size: st.sampled_from(partitions_of(size)))


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
    assert len(got) == 1 and got[0].entry(1, 1) == (1,)


def test_svt_single_cell_two_letters_in_order():
    got = [t.entry(1, 1) for t in enumerate_svt((1,), 2)]
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
    # rows not matching the declared shape
    assert not is_valid(SetValuedTableau((2, 1), 2, [[[1], [1]]]))


@settings(max_examples=20, deadline=None)
@given(shapes_up_to(6), st.integers(1, 4))
def test_singleton_restriction_equals_sst(extra_shape, extra_n):
    # every shape up to size 5 on up to 3 letters, plus one random instance
    cases = [(lam, n) for size in range(0, 6) for lam in partitions_of(size) for n in range(1, 4)]
    for lam, n in cases + [(extra_shape, extra_n)]:
        svt_singletons = {t for t in enumerate_svt(lam, n) if t.is_semistandard()}
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
    # the enumerators build tableaux unchecked; the public constructor sorts
    # each cell and normalises shape and n
    for size in range(5):
        for shape in partitions_of(size):
            for n in range(1, 4):
                for t in enumerate_svt(shape, n):
                    checked = SetValuedTableau(t.shape, t.n, t.rows)
                    assert t == checked and hash(t) == hash(checked), t
                    assert t.shape == checked.shape
    assert SetValuedTableau((1,), 2, [[[2, 1]]]).rows == (((1, 2),),)
