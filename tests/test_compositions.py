from math import comb
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from compstats import statistics
from compstats.compositions import (
    STATISTICS,
    all_compositions,
    composition_stats,
    compositions_of,
    format_composition,
    macmahon_forward,
    macmahon_inverse,
    parse_composition,
    reversed_composition,
    sorting_permutation,
    statistic_distribution,
)
from compstats.errors import LengthMismatch, TooLarge
from compstats.permutations import permutation_stats
from compstats.polynomial import Poly, monomial_key, p, q

compositions = st.lists(st.integers(1, 6), min_size=0, max_size=6).map(tuple)


def test_compositions_of_counts():
    assert list(compositions_of(3, 2)) == [(2, 1), (1, 2)]
    assert list(compositions_of(5, 1)) == [(5,)]
    assert list(compositions_of(5, 5)) == [(1, 1, 1, 1, 1)]
    assert list(compositions_of(0, 0)) == [()]
    assert list(compositions_of(3, 0)) == []
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert len(list(compositions_of(n, k))) == comb(n - 1, k - 1)


def test_compositions_colex_order():
    listed = list(compositions_of(6, 3))
    assert listed == sorted(listed, key=lambda sigma: tuple(reversed(sigma)))
    assert len(set(listed)) == len(listed)


def _reference_compositions(n, k):
    # recursive colex listing: the last part varies slowest
    if k == 0:
        return [()] if n == 0 else []
    return [prefix + (last,) for last in range(1, n - k + 2)
            for prefix in _reference_compositions(n - last, k - 1)]


def test_compositions_of_matches_a_recursive_reference():
    for n in range(13):
        for k in range(n + 2):
            assert list(compositions_of(n, k)) == _reference_compositions(n, k)


def test_compositions_too_large():
    with pytest.raises(TooLarge):
        compositions_of(25, 3)


def test_all_compositions_counts():
    assert list(all_compositions(0)) == [()]
    for n in range(1, 10):
        assert len(list(all_compositions(n))) == 2 ** (n - 1)


def test_composition_stats_worked_example():
    stats = composition_stats((4, 2, 1, 2, 1, 5, 3))
    assert stats.sum == 18
    flat = composition_stats((1,) * 6)
    assert (flat.inv, flat.des, flat.maj, flat.comaj) == (0, 0, 0, 0)
    two_one = composition_stats((2, 1))
    assert (two_one.inv, two_one.des, two_one.maj) == (1, 1, 1)


@given(compositions)
def test_record_fields_read_the_table(sigma):
    record = composition_stats(sigma)
    assert record._fields == (*STATISTICS, "descent_set")
    for name, statistic in STATISTICS.items():
        assert getattr(record, name) == statistic(sigma)
    assert record.sum == sum(sigma)
    assert record.descent_set == statistics.descent_set(sigma)


def test_distribution_counts_each_table_statistic():
    cap = 8
    for k in range(6):
        for name, statistic in STATISTICS.items():
            stats = tuple(dict.fromkeys(("sum", name)))  # ("sum",) for sum itself
            variables = ("p", "q")[:len(stats)]
            counts = {}
            for n in range(k, cap + 1):
                for sigma in compositions_of(n, k):
                    key = monomial_key(dict(zip(variables, (n, statistic(sigma)))))
                    counts[key] = counts.get(key, 0) + 1
            series = statistic_distribution(k, cap, stats, variables)
            assert series.body == Poly(counts)


def test_reversed_composition():
    assert reversed_composition((4, 2, 1, 2, 1, 5, 3)) == (3, 5, 1, 2, 1, 2, 4)
    assert reversed_composition((7,)) == (7,)


@given(compositions)
def test_reverse_is_involutive(sigma):
    assert reversed_composition(reversed_composition(sigma)) == sigma


def test_sorting_permutation():
    assert sorting_permutation((4, 2, 1, 2, 1, 5, 3)) == (6, 1, 7, 2, 4, 3, 5)
    assert sorting_permutation((5, 3, 1)) == (1, 2, 3)
    assert sorting_permutation((1, 2)) == (2, 1)
    assert sorting_permutation(()) == ()


@given(compositions)
def test_sorting_permutation_sorts_with_stable_ties(sigma):
    pi = sorting_permutation(sigma)
    values = [sigma[i - 1] for i in pi]
    assert values == sorted(values, reverse=True)
    for a, b in zip(pi, pi[1:]):
        if sigma[a - 1] == sigma[b - 1]:
            assert a < b


def test_macmahon_worked_example():
    sigma = (4, 2, 1, 2, 1, 5, 3)
    pi, lam = macmahon_forward(sigma)
    assert pi == (6, 1, 7, 2, 4, 3, 5)
    assert tuple(sigma[i - 1] for i in pi) == (5, 4, 3, 2, 2, 1, 1)
    assert lam == (2, 2, 1, 1, 1, 1, 1)
    assert macmahon_inverse(pi, lam) == sigma


def test_macmahon_trivial_cases():
    assert macmahon_forward((1, 1, 1)) == ((1, 2, 3), (1, 1, 1))
    assert macmahon_forward((3, 1)) == ((1, 2), (3, 1))
    assert macmahon_inverse((1, 2, 3), (4, 2, 1)) == (4, 2, 1)
    assert macmahon_forward(()) == ((), ())
    with pytest.raises(LengthMismatch):
        macmahon_inverse((1, 2), (3, 1, 1))


def test_size_zero_follows_the_general_formulas():
    # the empty composition, permutation and partition are the n = 0 cases of every
    # formula, not exceptions to them
    from compstats.distributions import maj_inv_poly
    from compstats.partitions import (enumerate_standard_tableaux, partitions_of, syt_count,
                                      syt_count_q)
    from compstats.permutations import foata, foata_inverse

    assert syt_count(()) == len(enumerate_standard_tableaux(())) == 1
    hook_sum = sum((syt_count_q(shape).rename({"q": "p"}) * syt_count_q(shape)
                    for shape in partitions_of(0)), Poly.zero())
    assert hook_sum == maj_inv_poly(0)
    assert macmahon_inverse(*macmahon_forward(())) == ()
    assert foata(()) == foata_inverse(()) == ()


@given(compositions)
def test_macmahon_round_trip_and_weight_split(sigma):
    pi, lam = macmahon_forward(sigma)
    assert sum(lam) + permutation_stats(pi).maj == sum(sigma)
    assert macmahon_inverse(pi, lam) == sigma


def test_macmahon_is_fast_on_many_parts():
    # 1..k sorts to the reversal, a descent at every position but the last
    sigma = tuple(range(1, 20001))
    start = perf_counter()
    pi, lam = macmahon_forward(sigma)
    assert sum(lam) + statistics.major_index(pi) == sum(sigma)
    assert macmahon_inverse(pi, lam) == sigma
    assert perf_counter() - start < 5


def test_macmahon_inverse_then_forward():
    # forward after inverse is the identity on (permutation, k-partition) pairs
    from itertools import permutations as iter_permutations

    from compstats.partitions import partitions_of

    for k in range(1, 6):
        for pi in iter_permutations(range(1, k + 1)):
            for total in range(k, 11):
                for lam in (shape for shape in partitions_of(total) if len(shape) == k):
                    sigma = macmahon_inverse(pi, lam)
                    assert macmahon_forward(sigma) == (pi, lam)


def test_lemma_sorting_statistics_match_reverse():
    for n in range(1, 11):
        for sigma in all_compositions(n):
            pi_stats = permutation_stats(sorting_permutation(sigma))
            rev = composition_stats(reversed_composition(sigma))
            assert pi_stats.inv == rev.inv
            assert pi_stats.imaj == rev.comaj
            assert pi_stats.icomaj == rev.maj
            assert pi_stats.ides == rev.des


def test_distribution_single_part():
    series = statistic_distribution(1, 6, ("sum",), ("p",))
    assert series.body == p + p ** 2 + p ** 3 + p ** 4 + p ** 5 + p ** 6


def test_distribution_two_parts_by_listing():
    series = statistic_distribution(2, 4, ("sum", "inv"), ("p", "q"))
    # compositions: (1,1); (2,1),(1,2); (3,1),(2,2),(1,3)
    assert series.coeff(p=3) == 1
    assert series.coeff(p=3, q=1) == 1
    assert series.body == p ** 2 + p ** 3 * (1 + q) + p ** 4 * (2 + q)


def test_distribution_empty_part_count():
    series = statistic_distribution(0, 5, ("sum",), ("p",))
    assert series.body == Poly.one()


def test_distribution_requires_sum():
    with pytest.raises(ValueError):
        statistic_distribution(2, 5, ("inv",), ("q",))
    with pytest.raises(TooLarge):
        statistic_distribution(2, 25, ("sum",), ("p",))


def test_distribution_reversal_invariance():
    # replacing each composition by its reverse keeps the aggregate distribution
    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(1, 6):
        forward = statistic_distribution(k, 12, stats, variables)
        acc = Poly.zero()
        for n in range(k, 13):
            for sigma in compositions_of(n, k):
                rec = composition_stats(reversed_composition(sigma))
                acc = acc + Poly({monomial_key({
                    "p": rec.sum, "q": rec.inv, "t": rec.comaj,
                    "u": rec.maj, "v": rec.des}): 1})
        assert forward.body == acc


def test_composition_equidistribution_sum_inv_maj_comaj():
    for k in range(1, 6):
        reference = statistic_distribution(k, 10, ("sum", "inv"), ("p", "q"))
        for stat in ("maj", "comaj"):
            assert statistic_distribution(k, 10, ("sum", stat), ("p", "q")) == reference


def test_parse_and_format():
    assert parse_composition("4,2,1,2,1,5,3") == (4, 2, 1, 2, 1, 5, 3)
    assert parse_composition(" 5 ") == (5,)
    assert parse_composition(" 3 , 1") == (3, 1)
    assert format_composition((4, 2, 1)) == "4,2,1"
    with pytest.raises(ValueError):
        parse_composition("4,x,1")
    with pytest.raises(ValueError):
        parse_composition("4,,1")
    with pytest.raises(ValueError):
        parse_composition("0,2")
    # int() takes "_" separators, signs and non-ASCII digits; a part does not
    for literal in ("1_0", "\uff13", "4,\u0663", "+3", "-3,1"):
        with pytest.raises(ValueError, match="malformed composition literal"):
            parse_composition(literal)
