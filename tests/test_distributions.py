import functools
import json
from itertools import accumulate
from math import comb, factorial

import pytest

from compstats import distributions, oracles, polynomial, qanalog, tables
from compstats.compositions import compositions_of, statistic_distribution as composition_distribution
from compstats.distributions import (
    _poly,
    comaj_des_gf,
    des_gf,
    des_gf_total,
    des_gf_total_rational,
    inv_gf,
    inv_gf_total,
    joint_gf,
    maj_inv_poly,
    q_eulerian_poly,
)
from compstats.errors import LIMITS, TooLarge, check_size
from compstats.oracles import (
    maj_inv_poly_carlitz,
    verify_composition_count_identity,
    verify_product_expansion,
    verify_q_eulerian_gf,
)
from compstats.partitions import b_statistic, q_eulerian_weight
from compstats.permutations import statistic_distribution as permutation_distribution
from compstats.polynomial import Poly, Series, monomial_key, p, q, t
from compstats.qanalog import gaussian_binomial, pochhammer_inverse_series, q_factorial
from compstats.tables import (
    SLOT_BITS,
    DistTable,
    _hook_sum,
    _q_eulerian_sum,
    hook_quotient,
    inversion_totals,
    pack,
    partitions_of,
    unpack,
)

# the displayed small polynomials, frozen term for term
H2 = 1 + p * q
H3 = 1 + (p + p ** 2) * q + (p + p ** 2) * q ** 2 + p ** 3 * q ** 3
H4 = (1
      + (p + p ** 2 + p ** 3) * q
      + (p + 2 * p ** 2 + p ** 3 + p ** 4) * q ** 2
      + (p + p ** 2 + 2 * p ** 3 + p ** 4 + p ** 5) * q ** 3
      + (p ** 2 + p ** 3 + 2 * p ** 4 + p ** 5) * q ** 4
      + (p ** 3 + p ** 4 + p ** 5) * q ** 5
      + p ** 6 * q ** 6)
A2 = 1 + q * t
A3 = 1 + (2 * q + 2 * q ** 2) * t + q ** 3 * t ** 2
A4 = (1
      + (3 * q + 4 * q ** 2 + 3 * q ** 3 + q ** 4) * t
      + (q ** 2 + 3 * q ** 3 + 4 * q ** 4 + 3 * q ** 5) * t ** 2
      + q ** 6 * t ** 3)


def _p_row(poly, n):
    """The coefficient of p^n in ``poly``, a polynomial in the other variables (p is the
    first exponent slot of a monomial)."""
    return Poly({(0, *key[1:]): coeff for key, coeff in poly.terms() if key[0] == n})


def test_maj_inv_poly_listed_values():
    assert maj_inv_poly(0) == Poly.one()
    assert maj_inv_poly(1) == Poly.one()
    assert maj_inv_poly(2) == H2
    assert maj_inv_poly(3) == H3
    assert maj_inv_poly(4) == H4


def test_carlitz_recurrence_matches_hook_sum():
    for k in range(8):
        assert maj_inv_poly_carlitz(k) == maj_inv_poly(k)


def test_maj_inv_poly_against_brute_force():
    for k in range(8):
        brute = permutation_distribution(k, ("maj", "inv"), ("p", "q"))
        assert maj_inv_poly(k) == brute


def test_maj_inv_poly_symmetry_and_degree():
    for k in range(8):
        poly = maj_inv_poly(k)
        assert poly.rename({"p": "q", "q": "p"}) == poly
        expected_degree = k * (k - 1) // 2 if k else 0
        assert poly.degree("p") == expected_degree
        assert poly.degree("q") == expected_degree


def test_maj_inv_poly_specializes_to_q_factorial():
    for k in range(8):
        assert maj_inv_poly(k).eval_at_one("p") == q_factorial(k)
        assert maj_inv_poly(k).eval_at_one("q") == q_factorial(k).rename({"q": "p"})


def test_q_eulerian_listed_values():
    assert q_eulerian_poly(0) == Poly.one()
    assert q_eulerian_poly(1) == Poly.one()
    assert q_eulerian_poly(2) == A2
    assert q_eulerian_poly(3) == A3
    assert q_eulerian_poly(4) == A4


def test_q_eulerian_against_brute_force():
    for k in range(8):
        assert q_eulerian_poly(k) == permutation_distribution(k, ("inv", "des"), ("q", "t"))


def test_q_eulerian_specializations():
    for k in range(8):
        assert q_eulerian_poly(k).eval_at_one("t") == q_factorial(k)
        at_one = q_eulerian_poly(k).eval_at_one("q").eval_at_one("t")
        assert at_one == Poly.constant(factorial(k))
    assert q_eulerian_poly(3).eval_at_one("q") == 1 + 4 * t + t ** 2


def test_q_eulerian_poly_is_the_partition_indexed_sum():
    # the kernel sums the weights of one length over compositions; the paper sums them over shapes
    for k in range(1, 9):
        by_shape = Poly.zero()
        for shape in partitions_of(k):
            length = len(shape)
            by_shape = by_shape + t ** (length - 1) * (1 - t) ** (k - length) * q_eulerian_weight(shape)
        assert q_eulerian_poly(k) == by_shape


def test_q_eulerian_sum_cut_is_exact_truncation():
    for k in range(9):
        exact = q_eulerian_poly(k)
        for max_q in range(comb(k, 2) + 1):
            cut = _poly(map(unpack, _q_eulerian_sum(k, max_q)), "q", "t")
            assert cut == exact.truncate({"q": max_q})


def _filtered_hook_sum(k, max_p):
    # the hook kernel as a filter over every partition of k, not a walk over the kept shapes
    kernel = [0] * (max_p + 1)
    for shape in partitions_of(k):
        b = b_statistic(shape)
        if b <= max_p:
            f = hook_quotient(shape) if shape else [1]
            packed = pack(f) << (SLOT_BITS * b)
            for a, c in enumerate(f[:max_p - b + 1], start=b):
                kernel[a] += c * packed
    return tuple(kernel)


def test_hook_sum_cut_is_exact_truncation():
    for k in range(9):
        exact = maj_inv_poly(k)
        for max_p in range(comb(k, 2) + 1):
            assert _poly(map(unpack, _hook_sum(k, max_p)), "p", "q") == exact.truncate({"p": max_p})
    # past the hk limit too, so the walk's edges (m = k - 1, mu_1 = k - m, b = max_p) are
    # reached on shapes that maj_inv_poly cannot build
    for k in range(13):
        for max_p in range(comb(k, 2) + 1):
            assert _hook_sum(k, max_p) == _filtered_hook_sum(k, max_p)


def test_the_hook_kernel_lists_only_the_shapes_it_keeps(monkeypatch, clear_memos):
    # a kept shape of k is (k - m, mu) with mu a partition of m <= min(k - 1, cap - k), so
    # within the limits no partition of more than max_k min(k - 1, 24 - k) = 11 cells is listed
    sizes = set()

    def recorded(m):
        sizes.add(m)
        return partitions_of(m)

    monkeypatch.setattr(tables, "partitions_of", recorded)
    clear_memos()
    DistTable.inversions(LIMITS["table"])
    inversion_totals(LIMITS["table"])
    maj_inv_poly(LIMITS["hk"])
    assert max(sizes) == 11


def test_q_eulerian_coefficients_nonnegative():
    for k in range(9):
        for _, coeff in q_eulerian_poly(k).terms():
            assert coeff > 0


def test_inv_gf_small():
    k1 = inv_gf(1, 5)
    assert k1.body == p + p ** 2 + p ** 3 + p ** 4 + p ** 5
    # six 3-compositions of 5: two have 2 inversions
    assert inv_gf(3, 6).coeff(p=5, q=2) == 2
    assert inv_gf(0, 4).body == Poly.one()


def test_inv_gf_cap_too_small():
    # p^k K_k / (p)_k starts at p^k, so a cap below k cuts it to zero
    assert inv_gf(4, 3) == Series(Poly.zero(), "p", 3)


def test_inv_gf_against_brute_force():
    for k in range(6):
        assert inv_gf(k, 10) == composition_distribution(
            k, 10, ("sum", "inv"), ("p", "q"))


def test_inv_gf_total_row_sums_and_partition_column():
    total = inv_gf_total(10)
    for n in range(1, 11):
        row = _p_row(total.body, n)
        assert row.eval_at_one("q") == Poly.constant(2 ** (n - 1))
        # r = 0 counts weakly increasing compositions = partitions of n
        assert row.coeff() == len(partitions_of(n))


def test_inv_gf_total_equals_sum_over_k():
    cap = 9
    total = inv_gf_total(cap)
    acc = inv_gf(0, cap)
    for k in range(1, cap + 1):
        acc = acc + inv_gf(k, cap)
    assert acc == total


def test_cross_checks_never_reach_the_q_quotient(monkeypatch):
    # the routes the hook and q-multinomial closed forms are checked against must not
    # share their one routine: break it, and the cross-checks still give the same values
    before = ([gaussian_binomial(n, k) for n in range(9) for k in range(n + 1)],
              maj_inv_poly_carlitz(6))

    def broken(*args):
        raise AssertionError("a cross-check called q_quotient")

    monkeypatch.setattr(qanalog, "q_quotient", broken)
    monkeypatch.setattr(tables, "q_quotient", broken)
    maj_inv_poly_carlitz.cache_clear()
    after = ([gaussian_binomial(n, k) for n in range(9) for k in range(n + 1)],
             maj_inv_poly_carlitz(6))
    assert after == before


def test_des_gf_small():
    assert des_gf(1, 4).body == q + q ** 2 + q ** 3 + q ** 4
    assert des_gf(2, 5).coeff(q=3, t=1) == 1   # only (2,1)
    assert des_gf(2, 5).coeff(q=5, t=1) == 2   # (3,2) and (4,1)
    assert des_gf(0, 3).body == Poly.one()


def test_des_gf_against_brute_force():
    for k in range(6):
        assert des_gf(k, 10) == composition_distribution(
            k, 10, ("sum", "des"), ("q", "t"))


def test_des_gf_total_matches_rational_form():
    # at every cap, past the n <= 16 that enumeration reaches
    for cap in range(LIMITS["table"] + 1):
        assert des_gf_total_rational(cap) == des_gf_total(cap)


def test_des_gf_total_spot_values():
    total = des_gf_total(12)
    assert total.coeff(q=3, t=1) == 1
    assert total.coeff(q=12, t=2) == 1013
    assert des_gf_total_rational(10).coeff(q=10, t=1) == 247


def test_rational_route_runs_on_packed_rows(monkeypatch):
    # the route solves on packed ints: no Poly division and no Series sums
    def refuse(*args):
        raise AssertionError("the rational route left the packed rows")

    monkeypatch.setattr(polynomial, "divexact", refuse)
    monkeypatch.setattr(Series, "__add__", refuse)
    assert des_gf_total_rational(LIMITS["table"]) == des_gf_total(LIMITS["table"])


def test_comaj_des_gf_matches_brute_force():
    for k in range(5):
        closed = comaj_des_gf(k, 8)
        brute = composition_distribution(k, 8, ("sum", "comaj", "des"),
                                         ("p", "q", "t"))
        assert closed == brute


def test_comaj_des_gf_specializes_to_descents():
    # at q = 1 the comaj marker disappears, leaving the descent series in p
    for k in range(5):
        specialized = comaj_des_gf(k, 8).body.eval_at_one("q")
        assert specialized == des_gf(k, 8).body.rename({"q": "p"})


def test_comaj_des_gf_too_large():
    with pytest.raises(TooLarge):
        comaj_des_gf(9, 12)


def test_a_negative_cap_is_refused_before_s_k_is_enumerated(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("S_k was enumerated")

    monkeypatch.setattr("compstats.permutations.statistic_distribution", enumerate_nothing)
    for gf in (inv_gf, des_gf, comaj_des_gf, joint_gf):
        with pytest.raises(ValueError, match="^cap must be nonnegative, got -1$"):
            gf(4, -1)


@pytest.mark.parametrize("cap", [0, 3])
def test_part_counts_above_the_cap_give_zero(cap):
    # a k-composition of n has n >= k, so every series and table of k parts is zero up to a
    # cap below k, as enumeration finds
    joint = (("sum", "inv", "comaj", "maj", "des"), ("p", "q", "t", "u", "v"))
    for k in range(cap + 1, cap + 5):
        for closed, stats, variables in ((inv_gf, ("sum", "inv"), ("p", "q")),
                                         (des_gf, ("sum", "des"), ("q", "t")),
                                         (joint_gf, *joint),
                                         (comaj_des_gf, ("sum", "comaj", "des"), ("p", "q", "t"))):
            zero = Series(Poly.zero(), variables[0], cap)
            assert closed(k, cap) == composition_distribution(k, cap, stats, variables) == zero
        assert DistTable.inversions(cap, k) == DistTable("ic_nk", cap, k, ((),) * (cap + 1))
        assert DistTable.descents(cap, k) == DistTable("dc_nk", cap, k, ((),) * (cap + 1))
        assert verify_composition_count_identity(k, cap)


def test_joint_gf_small_coefficient():
    series = joint_gf(2, 4)
    row = _p_row(series.body, 3)
    assert row == 1 + q * t * Poly.variable("u") * Poly.variable("v")


def test_joint_gf_matches_brute_force():
    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(5):
        assert joint_gf(k, 8) == composition_distribution(k, 8, stats, variables)


def test_joint_gf_specializations():
    for k in range(5):
        collapsed = joint_gf(k, 8).body
        for var in ("t", "u", "v"):
            collapsed = collapsed.eval_at_one(var)
        assert collapsed == inv_gf(k, 8).body
        maj_only = joint_gf(k, 8).body
        for var in ("q", "t", "v"):
            maj_only = maj_only.eval_at_one(var)
        # (sum, maj) is equidistributed with (sum, inv)
        assert maj_only.rename({"u": "q"}) == inv_gf(k, 8).body
        comaj_des = joint_gf(k, 8).body.eval_at_one("q").eval_at_one("u")
        assert comaj_des.rename({"t": "q", "v": "t"}) == comaj_des_gf(k, 8).body


def test_joint_gf_too_large():
    with pytest.raises(TooLarge):
        joint_gf(8, 10)


def test_inversion_totals():
    by_n, by_nk = inversion_totals(8)
    assert by_n[0] == 0
    assert by_n[3] == 1
    assert by_n[5] == 14
    assert by_nk[(3, 2)] == 1
    assert by_nk[(3, 3)] == 0
    # row consistency: summing over k recovers the total
    for n in range(1, 9):
        assert by_n[n] == sum(by_nk[(n, k)] for k in range(1, n + 1))


def test_inversion_totals_too_large():
    with pytest.raises(TooLarge):
        inversion_totals(25)


def test_verify_product_expansion(monkeypatch):
    assert verify_product_expansion(0, 4)
    assert verify_product_expansion(2, 6)
    # a closed form wrong in one coefficient, inside the caps, fails the check
    monkeypatch.setattr(oracles, "maj_inv_poly",
                        lambda k: maj_inv_poly(k) + (p * q if k == 2 else 0))
    assert not verify_product_expansion(2, 6)


@pytest.fixture
def kernel_calls(monkeypatch, clear_memos):
    """Empty memos, and both kernels wrapped to log each call as (kind, k)."""
    calls = []

    def logged(kind, kernel):
        def wrapper(k, cut):
            calls.append((kind, k))
            return kernel(k, cut)
        return wrapper

    # the tables and the series key the count-row memo by one kernel object, so both
    # modules get the same wrapper
    hook, eulerian = logged("ic", _hook_sum), logged("dc", _q_eulerian_sum)
    for module in (tables, distributions):
        monkeypatch.setattr(module, "_hook_sum", hook)
        monkeypatch.setattr(module, "_q_eulerian_sum", eulerian)
    clear_memos()
    return calls


def test_a_cold_read_builds_each_kernel_it_needs_once(kernel_calls):
    # a kernel is built once for the widest cap read so far: a smaller cap reads a prefix of
    # its rows, and a larger cap builds it again
    DistTable.inversions(14, k=5)
    assert kernel_calls == [("ic", 5)]
    kernel_calls.clear()
    DistTable.descents(9)
    assert kernel_calls == [("dc", k) for k in range(10)]
    kernel_calls.clear()
    inversion_totals(9)
    assert kernel_calls == [("ic", k) for k in range(1, 10) if k != 5]
    kernel_calls.clear()
    DistTable.inversions(14)
    assert kernel_calls == [("ic", k) for k in range(15) if k != 5]
    kernel_calls.clear()
    DistTable.descents(10)
    assert kernel_calls == [("dc", k) for k in range(11)]


def test_a_repeated_read_builds_no_kernel(kernel_calls):
    for read in (lambda: DistTable.inversions(9), lambda: DistTable.descents(9, k=4),
                 lambda: DistTable.inversions(9, k=40), lambda: inv_gf(3, 9),
                 lambda: inv_gf_total(9), lambda: des_gf(4, 9), lambda: des_gf_total(9),
                 lambda: inversion_totals(9)):
        first = read()
        calls = len(kernel_calls)
        assert read() == first
        assert len(kernel_calls) == calls


@pytest.mark.parametrize("kind, read", [("ic", DistTable.inversions), ("dc", DistTable.descents)])
def test_an_all_k_table_fills_the_rows_of_every_part_count(kernel_calls, kind, read):
    # the all-k rows are the sums of the per-k rows, so a later `--k` read at the same cap
    # finds its rows in the memo
    table = read(9)
    assert kernel_calls == [(kind, k) for k in range(10)]
    kernel_calls.clear()
    assert len(tables._count_rows) == 11
    by_k = [read(9, k=k) for k in range(10)]
    assert kernel_calls == []
    assert len(tables._count_rows) == 11
    for n, row in enumerate(table.rows):
        assert list(row) == [sum(per_k.count(n, r) for per_k in by_k) for r in range(len(row))]


def test_part_counts_above_the_cap_add_no_memo_entry(clear_memos):
    # a part count above the cap is answered in front of the count-row memo, so the memo
    # stays bounded; a Gaussian binomial outside 0 <= k <= n is 0
    clear_memos()
    for k in range(13, 1001):
        assert DistTable.inversions(12, k=k).rows == ((),) * 13
        assert DistTable.descents(12, k=k).rows == ((),) * 13
    for k in range(5, 1001):
        assert inv_gf(k, 4) == Series(Poly.zero(), "p", 4)
        assert des_gf(k, 4) == Series(Poly.zero(), "q", 4)
    assert tables._count_rows == {}
    for n in range(10):
        for k in (-2, -1, n + 1, n + 2):
            assert gaussian_binomial(n, k) == 0


def test_the_count_rows_are_the_only_distributions_memo(clear_memos):
    # inversion_totals keeps no memo of its own: every call sums the memoised rows again; the
    # closed forms keep none, and the table path's only other memo is the partitions
    def memos(module):
        return [name for name, value in vars(module).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")
                or hasattr(value, "cache_info") and value.__module__ == module.__name__]
    assert memos(distributions) == []
    assert memos(tables) == ["partitions_of", "_count_rows"]
    clear_memos()
    for _ in range(2):
        inversion_totals(9)
        assert len(tables._count_rows) == 9


def test_every_smaller_cap_reads_a_prefix_of_the_rows_at_the_limit(kernel_calls, clear_memos):
    # the rows at a cap are a prefix of the rows at any larger cap, so once both all-k tables
    # at the limit are built, the memo holds one entry per (kind, k), and every read at a
    # smaller cap slices them, builds no kernel and equals a cold read
    limit = LIMITS["table"]
    reads = (DistTable.inversions, DistTable.descents)
    cold = {}
    for cap in range(limit + 1):
        for read in reads:
            clear_memos()
            cold[read, cap, None] = read(cap)
            clear_memos()  # each per-k read below builds its own kernel only
            for k in range(cap + 2):
                cold[read, cap, k] = read(cap, k)
    clear_memos()
    for read in reads:
        read(limit)
    assert len(tables._count_rows) == 2 * (limit + 2) == 52
    kernel_calls.clear()
    for cap in range(limit, -1, -1):
        for read in reads:
            for k in (None, *range(cap + 2)):
                assert read(cap, k) == cold[read, cap, k]
    assert kernel_calls == []
    assert len(tables._count_rows) == 52


def test_packed_path_multiplies_no_polys(monkeypatch, clear_memos):
    # tables and totals read the packed kernels; cold caches rebuild them too
    calls = []
    multiply = Poly.__mul__

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    clear_memos()
    DistTable.inversions(16)
    DistTable.descents(16)
    inversion_totals(16)
    assert calls == []


def test_returned_tables_and_totals_are_fresh():
    # a table shares the memo's rows, so they are tuples; every totals call builds new dicts,
    # so a caller that edits what it got changes no later result
    for table in (DistTable.inversions(8), DistTable.descents(8), DistTable.inversions(8, k=3)):
        assert type(table.rows) is tuple
        assert all(type(row) is tuple for row in table.rows)
    for build in (lambda: inversion_totals(8)[0], lambda: inversion_totals(8)[1]):
        expected = dict(build())
        mutated = build()
        key = next(iter(mutated))
        mutated[key] += 1
        mutated[(99, 99)] = 1
        assert build() == expected
        del mutated[key]
        assert build() == expected


def test_full_kernels_stay_within_the_hk_limit():
    with pytest.raises(TooLarge):
        maj_inv_poly(LIMITS["hk"] + 1)
    with pytest.raises(TooLarge):
        maj_inv_poly_carlitz(LIMITS["hk"] + 1)
    with pytest.raises(TooLarge):
        q_eulerian_poly(LIMITS["hk"] + 1)
    # the identity checks over the S_k polynomials refuse an order past them before any work
    over = LIMITS["hk"] + 1
    with pytest.raises(TooLarge, match=f"^max_order {over} exceeds the hk limit"):
        verify_q_eulerian_gf(over)
    with pytest.raises(TooLarge, match=f"^max_t {over} exceeds the hk limit"):
        verify_product_expansion(over, 2)


def test_verify_q_eulerian_gf(monkeypatch):
    assert verify_q_eulerian_gf(1)
    assert verify_q_eulerian_gf(3)
    monkeypatch.setattr(oracles, "q_eulerian_poly",
                        lambda k: q_eulerian_poly(k) + (q * t if k == 2 else 0))
    assert not verify_q_eulerian_gf(3)


def test_verify_composition_count_identity(monkeypatch):
    assert verify_composition_count_identity(0, 0)
    assert verify_composition_count_identity(0, 4)
    assert verify_composition_count_identity(1, 5)
    assert verify_composition_count_identity(3, 10)
    assert verify_composition_count_identity(5, 12)
    assert verify_composition_count_identity(6, 3)
    monkeypatch.setattr(oracles, "q_factorial", lambda k: q_factorial(k) + (q if k == 3 else 0))
    assert not verify_composition_count_identity(3, 10)
    assert verify_composition_count_identity(2, 10)


# ---------------------------------------------------------------------------
# DistTable
# ---------------------------------------------------------------------------

def check_table_invariants(table: DistTable) -> None:
    """Known kind, nonnegative counts, and row sums 2^(n-1) for the all-k kinds."""
    assert table.kind in ("ic_n", "ic_nk", "dc_n", "dc_nk")
    assert len(table.rows) == table.cap + 1
    for n, row in enumerate(table.rows):
        assert not row or row[-1], f"row {n} ends in a zero"
        assert min(row, default=0) >= 0, f"negative count in row {n}"
    if table.kind in ("ic_n", "dc_n"):
        for n in range(1, table.cap + 1):
            total = sum(table.rows[n])
            assert total == 2 ** (n - 1), f"row {n} sums to {total}, expected {2 ** (n - 1)}"


# ---------------------------------------------------------------------------
# Plain-integer DPs over compositions, reaching the table limit
# ---------------------------------------------------------------------------

def _add_into(acc, poly, shift=0):
    # acc += q^shift poly, on coefficient lists
    acc.extend([0] * (len(poly) + shift - len(acc)))
    for e, c in enumerate(poly, start=shift):
        acc[e] += c


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@functools.lru_cache(maxsize=None)
def _inversion_dp(cap):
    """(sum, length) -> inversion polynomial of the compositions with that sum and part count.
    Part values are added in increasing order; m copies of a new largest value placed among
    L smaller letters contribute [L+m, m]_q (MacMahon)."""
    pascal = [[[1]]]  # pascal[n][m] = [n, m]_q by the q-Pascal rule
    for n in range(1, cap + 1):
        row = [[1]]
        for m in range(1, n):
            entry = list(pascal[n - 1][m - 1])
            _add_into(entry, pascal[n - 1][m], m)
            row.append(entry)
        pascal.append(row + [[1]])
    states = {(0, 0): [1]}
    for value in range(1, cap + 1):
        grown = {}
        for (total, length), poly in states.items():
            for m in range((cap - total) // value + 1):
                _add_into(grown.setdefault((total + m * value, length + m), []),
                          _convolve(poly, pascal[length + m][m]))
        states = grown
    return states


@functools.lru_cache(maxsize=None)
def _descent_dp(cap):
    """(sum, length) -> descent polynomial of the compositions with that sum and part count,
    by a transfer over (sum, last part, part count) that adds a descent when a part is smaller
    than the one before it."""
    states = {(part, part, 1): [1] for part in range(1, cap + 1)}
    by_size = {(0, 0): [1]}
    while states:
        grown = {}
        for (total, last, length), poly in states.items():
            _add_into(by_size.setdefault((total, length), []), poly)
            for part in range(1, cap - total + 1):
                _add_into(grown.setdefault((total + part, part, length + 1), []), poly,
                          int(part < last))
        states = grown
    return by_size


def _dp_entries(by_size, k):
    entries = {}
    for (n, length), poly in by_size.items():
        if k in (None, length):
            for r, c in enumerate(poly):
                if c:
                    entries[(n, r)] = entries.get((n, r), 0) + c
    return entries


def _dp_series(entries, size_var, stat_var, cap):
    return Series(Poly({monomial_key({size_var: n, stat_var: r}): c for (n, r), c in entries.items()}),
                  size_var, cap)


@pytest.mark.parametrize("k", [None, 1, 3, 12, LIMITS["table"]])
def test_tables_match_integer_dps_at_the_limit(k, clear_memos):
    # a cold read matches, the warm read after it returns the same tables, and the series
    # hold the same counts
    cap = LIMITS["table"]
    clear_memos()
    inversions, descents = _dp_entries(_inversion_dp(cap), k), _dp_entries(_descent_dp(cap), k)
    cold = DistTable.inversions(cap, k), DistTable.descents(cap, k)
    assert [{(n, r): c for n, r, c in table.sorted_entries()} for table in cold] == [inversions, descents]
    assert (DistTable.inversions(cap, k), DistTable.descents(cap, k)) == cold
    series = (inv_gf_total(cap), des_gf_total(cap)) if k is None else (inv_gf(k, cap), des_gf(k, cap))
    assert series == (_dp_series(inversions, "p", "q", cap), _dp_series(descents, "q", "t", cap))


def test_inversion_totals_match_the_integer_dp_at_the_limit(clear_memos):
    # A189052 (by n) and A189073 (by n and k), past the b-files' n = 16, cold and warm
    cap = LIMITS["table"]
    clear_memos()
    by_n, by_nk = inversion_totals(cap)
    assert inversion_totals(cap) == (by_n, by_nk)
    weighted = {key: sum(r * c for r, c in enumerate(poly))
                for key, poly in _inversion_dp(cap).items()}
    assert by_nk == {(n, k): weighted.get((n, k), 0)
                     for n in range(1, cap + 1) for k in range(1, n + 1)}
    assert by_n == {n: sum(weighted.get((n, k), 0) for k in range(n + 1)) for n in range(cap + 1)}


def _compositions(m, j):
    # c(m, j), the number of j-compositions of m
    return comb(m - 1, j - 1) if m >= j >= 1 else int(m == j == 0)


def test_the_two_kernels_agree_on_first_moments_at_the_limit():
    # reversal pairs each inversion (descent) with a strict non-inversion (ascent), and e
    # k-compositions of n tie at any given pair of positions (those whose first two parts are
    # equal), so 2 inv_total = C(k, 2) (c - e) and 2 des_total = (k - 1) (c - e) with
    # c = C(n - 1, k - 1): 2 inv_total = k des_total ties the hook kernel to the q-Eulerian one
    cap = LIMITS["table"]
    _, inv_totals = inversion_totals(cap)
    for k in range(1, cap + 1):
        descents = DistTable.descents(cap, k)
        for n in range(k, cap + 1):
            des_total = sum(r * count for r, count in enumerate(descents.row(n)))
            c = _compositions(n, k)
            e = sum(_compositions(n - 2 * a, k - 2) for a in range(1, n // 2 + 1))
            assert 2 * inv_totals[(n, k)] == k * des_total == comb(k, 2) * (c - e), (n, k)
            assert 2 * des_total == (k - 1) * (c - e), (n, k)


def _signed_row_sums(k, length):
    # the first ``length`` coefficients of (1 - x)^-ceil(k/2) (1 + x)^-floor(k/2): each factor
    # 1/(1 - x) is a running sum, and each 1/(1 + x) a running alternating difference
    coefficients = [1] + [0] * (length - 1)
    for sign in [1, -1] * (k // 2) + [1] * (k % 2):
        coefficients = list(accumulate(coefficients, lambda acc, c, sign=sign: c + sign * acc))
    return coefficients


def test_signed_row_sums_at_the_limit():
    # at q = -1 the hook kernel of S_k is the signed Mahonian prod_{i<=k} [i]_{(-1)^(i-1) p}
    # (Wachs 1992; Adin, Gessel and Roichman, Signed Mahonians), so over (p; p)_k each odd i
    # leaves 1/(1 - p) and each even i 1/(1 + p): sum_r (-1)^r c(n, k, r) is the coefficient
    # of p^(n-k) in (1 - p)^-ceil(k/2) (1 + p)^-floor(k/2), and over all k it is 2^floor(n/2)
    cap = LIMITS["table"]

    def signed(row):
        return sum(c if r % 2 == 0 else -c for r, c in enumerate(row))

    for k in range(cap + 1):
        rows = DistTable.inversions(cap, k).rows[k:]
        assert list(map(signed, rows)) == _signed_row_sums(k, cap - k + 1), k
    assert list(map(signed, DistTable.inversions(cap).rows)) == [2 ** (n // 2) for n in range(cap + 1)]


def test_dist_table_counts_and_rows():
    table = DistTable.inversions(6)
    assert table.kind == "ic_n"
    assert table.count(6, 4) == 2
    assert table.row(6) == [11, 8, 7, 4, 2]
    assert table.row(0) == [1]
    check_table_invariants(table)


def test_dist_table_reads_outside_the_triangle_are_zero():
    # a negative or past-the-end index reads 0; it never wraps into the rows
    table = DistTable.inversions(5)
    assert table.row(3) == [3, 1]
    for n, r in ((-1, 0), (-6, 0), (0, -1), (3, -1), (3, -2), (3, 2), (0, 1), (6, 0), (99, 2)):
        assert table.count(n, r) == 0, (n, r)
    for n in (-1, -6, 6, 99):
        assert table.row(n) == [0]
        assert table.max_r(n) == -1
    for table in (DistTable.inversions(3, k=5), DistTable.descents(3, k=4)):
        assert table.max_r() == -1
        assert table.to_csv(dense=True) == "n,r,count\n0,0,0\n1,0,0\n2,0,0\n3,0,0\n"


def test_dist_table_fixed_k():
    table = DistTable.inversions(6, k=2)
    assert table.kind == "ic_nk"
    assert table.k == 2
    assert table.count(3, 1) == 1
    check_table_invariants(table)


def test_dist_table_descents():
    table = DistTable.descents(6)
    assert table.kind == "dc_n"
    assert table.row(6) == [11, 19, 2]
    check_table_invariants(table)


def test_dist_table_more_parts_than_cap_is_all_zero():
    for table, kind in ((DistTable.inversions(3, k=5), "ic_nk"),
                        (DistTable.descents(3, k=4), "dc_nk")):
        assert (table.kind, table.cap) == (kind, 3)
        assert table.rows == ((),) * 4
        assert table.row(3) == [0]


def test_dist_table_too_large():
    with pytest.raises(TooLarge):
        DistTable.inversions(LIMITS["table"] + 1)
    with pytest.raises(TooLarge):
        DistTable.descents(LIMITS["table"] + 1, k=2)
    # the rational route that cross-checks the descent totals has the same limit,
    # and so do the identity checks' caps and genfuncid's part count
    over = LIMITS["table"] + 1
    for call, name in ((lambda: des_gf_total_rational(over), "cap"),
                       (lambda: verify_product_expansion(1, over), "cap"),
                       (lambda: verify_composition_count_identity(over, 5), "k"),
                       (lambda: verify_composition_count_identity(2, over), "cap")):
        with pytest.raises(TooLarge, match=f"^{name} {over} exceeds the table limit"):
            call()


def test_the_memo_serves_no_cap_past_the_limit(monkeypatch):
    # the limit is checked before the memo answers: rows built under a raised limit serve
    # no cap past it once it is restored
    limit = LIMITS["table"]
    monkeypatch.setitem(LIMITS, "table", limit + 2)
    DistTable.inversions(limit + 2)
    monkeypatch.setitem(LIMITS, "table", limit)
    with pytest.raises(TooLarge, match=f"^cap {limit + 1} exceeds the table limit {limit}$"):
        DistTable.inversions(limit + 1)


def test_negative_sizes_are_refused_at_the_library_boundary():
    # a negative size is a ValueError naming the argument, not an over-limit TooLarge
    # and not an error from deep inside the series arithmetic
    for call, name in ((lambda: DistTable.inversions(5, k=-1), "k"),
                       (lambda: DistTable.descents(5, k=-1), "k"),
                       (lambda: inv_gf(-1, 5), "k"),
                       (lambda: des_gf(-1, 5), "k"),
                       (lambda: DistTable.inversions(-1), "cap"),
                       (lambda: DistTable.descents(-1, k=2), "cap"),
                       (lambda: inversion_totals(-1), "cap"),
                       (lambda: joint_gf(-1, 4), "k"),
                       (lambda: comaj_des_gf(-1, 4), "k"),
                       (lambda: maj_inv_poly_carlitz(-1), "k"),
                       (lambda: verify_composition_count_identity(-1, 5), "k"),
                       (lambda: pochhammer_inverse_series(-1, "q", 5), "n"),
                       (lambda: verify_product_expansion(-1, 3), "max_t"),
                       (lambda: verify_product_expansion(2, -1), "cap"),
                       (lambda: verify_q_eulerian_gf(-1), "max_order"),
                       (lambda: oracles.check_q_exponential_inverse(-1), "max_order"),
                       (lambda: partitions_of(-1), "n"),
                       (lambda: compositions_of(3, -1), "k"),
                       (lambda: composition_distribution(-1, 5, ("sum",), ("p",)), "k"),
                       (lambda: q_factorial(-1), "n"),
                       (lambda: Series(Poly.one(), "q", -1), "cap")):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$") as exc:
            call()
        assert not isinstance(exc.value, TooLarge)
    check_size("table", "cap", 0)
    check_size("table", "cap", LIMITS["table"])
    over = LIMITS["table"] + 1
    with pytest.raises(TooLarge, match=f"cap {over} exceeds the table limit {over - 1}"):
        check_size("table", "cap", over)


def test_dist_table_rows_of_a_given_table():
    rows = ((1,), (), (1, 0, 0, 4), (0, 2))
    table = DistTable("ic_n", 3, None, rows)
    assert [table.row(n) for n in range(4)] == [[1], [0], [1, 0, 0, 4], [0, 2]]
    assert [table.max_r(n) for n in range(4)] == [0, -1, 3, 1]
    assert table.max_r() == 3
    assert table.sorted_entries() == [(0, 0, 1), (2, 0, 1), (2, 3, 4), (3, 1, 2)]
    assert table == DistTable("ic_n", 3, None, ((1,), (), (1, 0, 0, 4), (0, 2)))


def test_dist_table_is_an_immutable_value():
    table = DistTable.inversions(4)
    assert table == DistTable("ic_n", 4, None, table.rows)
    assert table != DistTable.inversions(4, k=2)
    assert table != DistTable("dc_n", 4, None, table.rows)
    assert table != ("ic_n", 4, None, table.rows)
    assert repr(table) == "DistTable(kind='ic_n', cap=4, k=None)"
    with pytest.raises(AttributeError):
        table.cap = 5
    with pytest.raises(AttributeError):
        del table.rows
    with pytest.raises(TypeError):
        hash(table)


def test_dist_table_csv():
    table = DistTable.descents(4)
    lines = table.to_csv().splitlines()
    assert lines[0] == "n,r,count"
    assert "3,1,1" in lines
    assert all(len(line.split(",")) == 3 for line in lines[1:])
    dense = table.to_csv(dense=True).splitlines()
    assert "2,1,0" in dense


def test_dist_table_json():
    table = DistTable.inversions(4, k=2)
    data = json.loads(table.to_json())
    assert data["kind"] == "ic_nk"
    assert data["k"] == 2
    assert data["cap"] == 4
    assert [3, 1, "1"] in data["entries"]
    assert all(isinstance(entry[2], str) for entry in data["entries"])
