from math import factorial

import pytest
from hypothesis import given, strategies as st

from compstats import statistics
from compstats.errors import TooLarge
from compstats.permutations import (
    STATISTICS,
    all_permutations,
    foata,
    foata_inverse,
    format_permutation,
    inverse_permutation,
    permutation_stats,
    statistic_distribution,
)
from compstats.polynomial import Poly, monomial_key, p, q, t
from compstats.qanalog import q_factorial


@st.composite
def permutations(draw, max_k=6):
    k = draw(st.integers(0, max_k))
    return tuple(draw(st.permutations(range(1, k + 1))))


def test_inverse_permutation():
    assert inverse_permutation((1, 2, 3)) == (1, 2, 3)
    assert inverse_permutation((6, 1, 7, 2, 4, 3, 5)) == (2, 4, 6, 5, 7, 1, 3)
    assert inverse_permutation((3, 1, 2)) == (2, 3, 1)


@given(permutations())
def test_inverse_is_involutive(pi):
    assert inverse_permutation(inverse_permutation(pi)) == pi


def test_permutation_validation():
    with pytest.raises(ValueError):
        permutation_stats((1, 3))
    with pytest.raises(ValueError):
        permutation_stats((1, 1, 2))


def test_stats_worked_example():
    stats = permutation_stats((6, 1, 7, 2, 4, 3, 5))
    assert stats.descent_set == (1, 3, 5)
    assert stats.maj == 9
    assert stats.inv == 10
    assert stats.imaj == 8
    assert stats.icomaj == 6
    assert stats.ides == 2


def test_stats_identity_and_reversal():
    for k in (1, 3, 5):
        stats = permutation_stats(tuple(range(1, k + 1)))
        assert (stats.inv, stats.des, stats.maj, stats.comaj) == (0, 0, 0, 0)
    stats = permutation_stats((3, 2, 1))
    assert stats.inv == 3
    assert stats.maj == 3
    assert stats.comaj == 3


@given(permutations())
def test_record_fields_read_the_table(pi):
    record = permutation_stats(pi)
    assert record._fields == (*STATISTICS, "descent_set")
    for name, statistic in STATISTICS.items():
        assert getattr(record, name) == statistic(pi)
    assert record.descent_set == statistics.descent_set(pi)
    inverse = inverse_permutation(pi)
    assert (record.imaj, record.ides, record.icomaj) == (
        statistics.major_index(inverse), statistics.descent_number(inverse),
        statistics.comajor_index(inverse))


@given(permutations())
def test_maj_plus_comaj_is_k_times_des(pi):
    stats = permutation_stats(pi)
    assert stats.maj + stats.comaj == len(pi) * stats.des


@given(permutations())
def test_inv_invariant_under_inverse(pi):
    assert permutation_stats(pi).inv == permutation_stats(inverse_permutation(pi)).inv


def test_all_permutations_counts_and_order():
    assert list(all_permutations(0)) == [()]
    assert len(list(all_permutations(3))) == 6
    assert len(list(all_permutations(6))) == factorial(6)
    listed = list(all_permutations(3))
    assert listed == sorted(listed)
    with pytest.raises(TooLarge):
        all_permutations(11)


def test_foata_small_cases():
    assert foata((1, 2)) == (1, 2)
    assert foata((2, 1)) == (2, 1)
    assert foata((1, 3, 2)) == (3, 1, 2)
    assert foata_inverse((3, 1, 2)) == (1, 3, 2)
    assert foata(()) == ()


def test_foata_properties_exhaustive():
    for k in range(7):
        for pi in all_permutations(k):
            image = foata(pi)
            assert permutation_stats(pi).maj == permutation_stats(image).inv
            assert (permutation_stats(inverse_permutation(pi)).descent_set
                    == permutation_stats(inverse_permutation(image)).descent_set)


def test_foata_round_trip_exhaustive():
    for k in range(6):
        seen = set()
        for pi in all_permutations(k):
            image = foata(pi)
            seen.add(image)
            assert foata_inverse(image) == pi
            assert foata(foata_inverse(pi)) == pi
        assert len(seen) == factorial(k)  # bijectivity


@given(permutations(max_k=7))
def test_foata_round_trip_random(pi):
    assert foata_inverse(foata(pi)) == pi


def _reference_foata(pi):
    # the block-splitting form of the transform: list the block ends, then
    # rebuild the word from slices
    image = [pi[0]] if pi else []
    for x in pi[1:]:
        if image[-1] < x:
            splits = [i for i, y in enumerate(image) if y < x]
        else:
            splits = [i for i, y in enumerate(image) if y > x]
        rebuilt, start = [], 0
        for end in splits:
            rebuilt.append(image[end])
            rebuilt.extend(image[start:end])
            start = end + 1
        rebuilt.append(x)
        image = rebuilt
    return tuple(image)


def _reference_foata_inverse(pi):
    word, tail = list(pi), []
    while len(word) > 1:
        x = word.pop()
        tail.append(x)
        if word[0] < x:
            satisfies = [y < x for y in word]
        else:
            satisfies = [y > x for y in word]
        rebuilt, block_head = [], None
        for y, hit in zip(word, satisfies):
            if hit:
                if block_head is not None:
                    rebuilt.append(block_head)
                block_head = y
            else:
                rebuilt.append(y)
        if block_head is not None:
            rebuilt.append(block_head)
        word = rebuilt
    tail.extend(word)
    return tuple(reversed(tail))


def test_foata_matches_the_block_splitting_reference():
    for k in range(8):
        for pi in all_permutations(k):
            assert foata(pi) == _reference_foata(pi)
            assert foata_inverse(pi) == _reference_foata_inverse(pi)


def test_distribution_examples():
    assert statistic_distribution(2, ("maj", "inv"), ("p", "q")) == 1 + p * q
    expected_a3 = 1 + (2 * q + 2 * q ** 2) * t + q ** 3 * t ** 2
    assert statistic_distribution(3, ("inv", "des"), ("q", "t")) == expected_a3
    # the three-variable distribution specializes to the (inv, des) one when
    # the maj variable is set to 1
    triple = statistic_distribution(4, ("inv", "maj", "des"), ("p", "q", "t"))
    a4 = (1 + (3 * q + 4 * q ** 2 + 3 * q ** 3 + q ** 4) * t
          + (q ** 2 + 3 * q ** 3 + 4 * q ** 4 + 3 * q ** 5) * t ** 2
          + q ** 6 * t ** 3)
    assert triple.eval_at_one("q").rename({"p": "q"}) == a4


def test_distribution_validation():
    with pytest.raises(ValueError):
        statistic_distribution(3, ("inv",), ("q", "t"))
    with pytest.raises(ValueError):
        statistic_distribution(3, ("inv", "des"), ("q", "q"))
    with pytest.raises(ValueError):
        statistic_distribution(3, ("size",), ("q",))
    with pytest.raises(TooLarge):
        statistic_distribution(11, ("inv",), ("q",))


def test_distribution_counts_each_table_statistic():
    for k in range(6):
        for name, statistic in STATISTICS.items():
            counts = {}
            for pi in all_permutations(k):
                counts[statistic(pi)] = counts.get(statistic(pi), 0) + 1
            expected = Poly({monomial_key({"q": r}): c for r, c in counts.items()})
            assert statistic_distribution(k, (name,), ("q",)) == expected


def test_equidistribution_and_symmetry():
    for k in range(7):
        reference = statistic_distribution(k, ("imaj", "maj"), ("p", "q"))
        assert statistic_distribution(k, ("inv", "imaj"), ("p", "q")) == reference
        assert statistic_distribution(k, ("maj", "inv"), ("p", "q")) == reference
        assert reference.rename({"p": "q", "q": "p"}) == reference


def test_maj_and_inv_generating_functions():
    for k in range(7):
        assert statistic_distribution(k, ("maj",), ("q",)) == q_factorial(k)
        assert statistic_distribution(k, ("inv",), ("q",)) == q_factorial(k)


def test_format_permutation():
    assert format_permutation((6, 1, 7, 2, 4, 3, 5)) == "6172435"
    assert format_permutation(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
