import pytest

from grothtab.partitions import (
    Partition,
    count_sst_hook,
    count_sst_product,
    partitions_of,
)
from grothtab.tableaux import enumerate_sst

from tableau_reference import conjugate


def test_trailing_zeros_are_stripped():
    assert Partition((2, 1, 0)) == Partition((2, 1))
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    assert Partition(()) == Partition((0, 0))
    assert len(Partition((2, 1, 0))) == 2


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_equality_with_a_bad_tuple_is_false():
    lam = Partition((2, 1))
    for other in ((1, 2), (2.5,), (-1,), ("2", "1")):
        assert (lam == other) is False
        assert (lam != other) is True
    assert lam == (2, 1, 0)


def test_size_and_parts_access():
    lam = Partition((4, 3))
    assert lam.size == 7
    assert list(lam) == [4, 3]
    assert lam.padded(4) == (4, 3, 0, 0)
    with pytest.raises(ValueError):
        lam.padded(1)


def test_cells_row_major():
    assert Partition((2, 1)).cells() == [(1, 1), (1, 2), (2, 1)]
    assert Partition(()).cells() == []
    assert Partition((3,)).cells() == [(1, 1), (1, 2), (1, 3)]


def test_conjugate():
    assert conjugate((4, 3)) == Partition((2, 2, 2, 1))
    assert conjugate(()) == Partition(())
    assert conjugate((2, 1)) == Partition((2, 1))


def test_hook_lengths():
    lam = Partition((2, 1))
    assert lam.hook_length(1, 1) == 3
    assert lam.hook_length(1, 2) == 1
    assert lam.hook_length(2, 1) == 1
    assert Partition((1,)).hook_length(1, 1) == 1
    with pytest.raises(ValueError):
        lam.hook_length(2, 2)


def test_hook_length_conjugation_symmetry():
    for size in range(1, 7):
        for lam in partitions_of(size):
            conj = conjugate(lam)
            for i, j in lam.cells():
                assert lam.hook_length(i, j) == conj.hook_length(j, i)


def test_count_examples():
    assert count_sst_product((2, 1), 3) == 8
    assert count_sst_hook((2, 1), 3) == 8
    assert count_sst_product((1,), 1) == 1
    assert count_sst_hook((), 5) == 1
    assert count_sst_product((), 3) == 1
    # brute-force oracle values
    assert count_sst_hook((2, 2), 3) == sum(1 for _ in enumerate_sst((2, 2), 3))
    assert count_sst_product((4, 3), 4) == sum(1 for _ in enumerate_sst((4, 3), 4))


def test_count_zero_iff_too_many_rows():
    for size in range(0, 6):
        for lam in partitions_of(size):
            for n in range(1, 5):
                zero = count_sst_product(lam, n) == 0
                assert zero == (len(lam) > n)
                assert (count_sst_hook(lam, n) == 0) == (len(lam) > n)


def test_three_way_count_agreement():
    # both closed forms against direct enumeration
    for size in range(0, 9):
        for lam in partitions_of(size):
            for n in range(1, 6):
                direct = sum(1 for _ in enumerate_sst(lam, n))
                assert count_sst_product(lam, n) == direct
                assert count_sst_hook(lam, n) == direct


def test_partitions_of_is_sorted_and_complete():
    sixes = partitions_of(6)
    assert len(sixes) == 11
    assert [tuple(p) for p in sixes] == sorted(tuple(p) for p in sixes)
    assert all(p.size == 6 for p in sixes)
    assert partitions_of(0) == [Partition(())]
    with pytest.raises(ValueError):
        partitions_of(-1)
