from math import factorial

import pytest
from hypothesis import given, strategies as st

from compstats.errors import LIMITS, TooLarge
from compstats.partitions import (
    b_statistic,
    enumerate_standard_tableaux,
    hook_lengths,
    partitions_of,
    q_eulerian_weight,
    syt_count,
    syt_count_q,
    tableau_descents,
    tableau_major_index,
)
from compstats.polynomial import Poly, q
from compstats.tables import conjugate


@st.composite
def partitions(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    index = draw(st.integers(0, len(partitions_of(n)) - 1))
    return partitions_of(n)[index]


def test_partitions_of_zero_and_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_refuses_a_size_past_the_table_limit(monkeypatch):
    from compstats import tables

    def enumerate_nothing(n, largest):
        raise AssertionError("the partitions were enumerated")

    monkeypatch.setattr(tables, "_descending_parts", enumerate_nothing)
    over = LIMITS["table"] + 1
    with pytest.raises(TooLarge, match=f"^n {over} exceeds the table limit {over - 1}$"):
        partitions_of(over)


def test_partition_counts():
    # p(n) for n = 0..16
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
    assert [len(partitions_of(n)) for n in range(17)] == expected


def test_partitions_reverse_lex_order():
    for n in range(1, 10):
        shapes = partitions_of(n)
        assert shapes == tuple(sorted(shapes, reverse=True))
        assert len(set(shapes)) == len(shapes)
        assert all(sum(shape) == n for shape in shapes)


def _reference_partitions(n, max_part):
    # recursive reverse-lexicographic listing: the largest first part first
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in _reference_partitions(n - first, first)]


def test_partitions_of_matches_a_recursive_reference():
    for n in range(21):
        assert partitions_of(n) == tuple(_reference_partitions(n, n))


def test_hook_lengths_known_grid():
    assert hook_lengths((4, 4, 2, 1)) == [[7, 5, 3, 2], [6, 4, 2, 1], [3, 1], [1]]
    assert hook_lengths((1,)) == [[1]]
    assert hook_lengths((2, 2)) == [[3, 2], [2, 1]]


def test_hook_lengths_empty():
    assert hook_lengths(()) == []


def test_b_statistic():
    assert b_statistic(()) == 0
    assert b_statistic((7,)) == 0
    assert b_statistic((2, 2, 1, 1, 1, 1, 1)) == 22


def test_conjugate():
    assert conjugate((4, 4, 2, 1)) == (4, 3, 2, 2)
    assert conjugate(()) == ()
    for n in range(9):
        for shape in partitions_of(n):
            assert conjugate(conjugate(shape)) == shape


def test_syt_count_values():
    assert syt_count((5,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((4, 4, 2, 1)) == 1320
    assert syt_count(()) == 1


def test_enumerate_tableaux_small():
    assert len(enumerate_standard_tableaux((1, 1))) == 1
    two = enumerate_standard_tableaux((2, 1))
    assert len(two) == 2
    assert ((1, 2), (3,)) in two
    assert ((1, 3), (2,)) in two


def test_enumerate_tableaux_rows_and_columns_increase():
    for tableau in enumerate_standard_tableaux((3, 2, 1)):
        for row in tableau:
            assert list(row) == sorted(row)
        for j in range(3):
            column = [row[j] for row in tableau if len(row) > j]
            assert column == sorted(column)


def test_enumerate_tableaux_too_large():
    with pytest.raises(TooLarge):
        enumerate_standard_tableaux((13,))


def test_figure_tableau_is_enumerated():
    tableaux = enumerate_standard_tableaux((4, 4, 2, 1))
    assert len(tableaux) == 1320
    assert ((1, 3, 4, 8), (2, 6, 9, 11), (5, 7), (10,)) in tableaux


@given(partitions(max_n=8))
def test_syt_count_matches_enumeration(shape):
    assert syt_count(shape) == len(enumerate_standard_tableaux(shape))


def test_squared_counts_sum_to_factorial():
    for k in range(1, 9):
        total = sum(syt_count(shape) ** 2 for shape in partitions_of(k))
        assert total == factorial(k)


def test_syt_count_q_values():
    assert syt_count_q((2,)) == Poly.one()
    assert syt_count_q((1, 1)) == q
    assert syt_count_q((2, 1)) == q + q ** 2
    assert syt_count_q(()) == Poly.one()


def test_tableau_descents_and_major_index():
    tableau = ((1, 3, 4, 8), (2, 6, 9, 11), (5, 7), (10,))
    assert tableau_descents(tableau) == (1, 4, 6, 8, 9)
    assert tableau_major_index(tableau) == 28


def test_syt_count_q_matches_major_index_oracle():
    for n in range(1, 8):
        for shape in partitions_of(n):
            oracle = Poly.zero()
            for tableau in enumerate_standard_tableaux(shape):
                oracle = oracle + Poly.variable("q", tableau_major_index(tableau))
            assert syt_count_q(shape) == oracle


@given(partitions(max_n=8))
def test_syt_count_q_at_one(shape):
    assert syt_count_q(shape).eval_at_one("q") == Poly.constant(syt_count(shape))


def test_q_eulerian_weight_values():
    assert q_eulerian_weight((2,)) == Poly.one()
    assert q_eulerian_weight((1, 1)) == 1 + q
    assert q_eulerian_weight((1, 1, 1)) == 1 + 2 * q + 2 * q ** 2 + q ** 3
    assert q_eulerian_weight(()) == Poly.one()


def test_check_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hook_lengths((1, 2))
    with pytest.raises(ValueError):
        hook_lengths((2, 0))
