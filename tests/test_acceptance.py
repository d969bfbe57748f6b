"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything here is exact integer arithmetic; the count
tables are frozen from their published source and compared entry by entry.
"""

import time
from math import factorial
from pathlib import Path

from compstats.compositions import (
    all_compositions,
    composition_stats,
    macmahon_forward,
    macmahon_inverse,
    reversed_composition,
    sorting_permutation,
    statistic_distribution as composition_distribution,
)
from compstats.distributions import (
    des_gf,
    des_gf_total,
    des_gf_total_rational,
    inv_gf,
    inv_gf_total,
    joint_gf,
    maj_inv_poly,
    q_eulerian_poly,
)
from compstats.oeis import check_sequence, load_bfile, load_metadata
from compstats.oracles import (
    check_q_exponential_inverse,
    maj_inv_poly_carlitz,
    verify_composition_count_identity,
    verify_product_expansion,
    verify_q_eulerian_gf,
)
from compstats.partitions import (
    enumerate_standard_tableaux,
    hook_lengths,
    partitions_of,
    syt_count,
    syt_count_q,
    tableau_major_index,
)
from compstats.permutations import (
    all_permutations,
    foata,
    foata_inverse,
    inverse_permutation,
    permutation_stats,
    statistic_distribution as permutation_distribution,
)
from compstats.polynomial import Poly, p, q, t
from compstats.qanalog import q_factorial

DATA = Path(__file__).parent / "data"

# count of compositions of n with r inversions, rows n = 0..16, columns r = 0..12
INVERSION_TABLE = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [7, 5, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [11, 8, 7, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    [15, 15, 14, 10, 6, 3, 1, 0, 0, 0, 0, 0, 0],
    [22, 23, 26, 21, 17, 10, 6, 2, 1, 0, 0, 0, 0],
    [30, 37, 44, 42, 36, 27, 19, 11, 6, 3, 1, 0, 0],
    [42, 55, 73, 74, 73, 60, 50, 34, 24, 13, 8, 4, 2],
    [56, 83, 115, 128, 133, 123, 109, 87, 68, 48, 32, 20, 12],
    [77, 118, 177, 209, 235, 230, 223, 192, 166, 129, 100, 70, 51],
    [101, 171, 265, 333, 391, 412, 419, 392, 359, 308, 256, 203, 157],
    [135, 238, 391, 512, 636, 700, 754, 743, 724, 657, 589, 499, 420],
    [176, 332, 563, 777, 997, 1156, 1292, 1343, 1363, 1315, 1235, 1116, 990],
    [231, 453, 803, 1146, 1536, 1844, 2148, 2322, 2461, 2470, 2435, 2301, 2148],
]

# count of compositions of n with r descents, rows n = 0..16, columns r = 0..5
DESCENT_TABLE = [
    [1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [2, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0],
    [5, 3, 0, 0, 0, 0],
    [7, 9, 0, 0, 0, 0],
    [11, 19, 2, 0, 0, 0],
    [15, 41, 8, 0, 0, 0],
    [22, 77, 29, 0, 0, 0],
    [30, 142, 81, 3, 0, 0],
    [42, 247, 205, 18, 0, 0],
    [56, 421, 469, 78, 0, 0],
    [77, 689, 1013, 264, 5, 0],
    [101, 1113, 2059, 786, 37, 0],
    [135, 1750, 4021, 2097, 189, 0],
    [176, 2712, 7558, 5179, 751, 8],
    [231, 4128, 13780, 11998, 2558, 73],
]

H_POLYNOMIALS = {
    0: Poly.one(),
    1: Poly.one(),
    2: 1 + p * q,
    3: 1 + (p + p ** 2) * q + (p + p ** 2) * q ** 2 + p ** 3 * q ** 3,
    4: (1
        + (p + p ** 2 + p ** 3) * q
        + (p + 2 * p ** 2 + p ** 3 + p ** 4) * q ** 2
        + (p + p ** 2 + 2 * p ** 3 + p ** 4 + p ** 5) * q ** 3
        + (p ** 2 + p ** 3 + 2 * p ** 4 + p ** 5) * q ** 4
        + (p ** 3 + p ** 4 + p ** 5) * q ** 5
        + p ** 6 * q ** 6),
}

A_POLYNOMIALS = {
    1: Poly.one(),
    2: 1 + q * t,
    3: 1 + (2 * q + 2 * q ** 2) * t + q ** 3 * t ** 2,
    4: (1
        + (3 * q + 4 * q ** 2 + 3 * q ** 3 + q ** 4) * t
        + (q ** 2 + 3 * q ** 3 + 4 * q ** 4 + 3 * q ** 5) * t ** 2
        + q ** 6 * t ** 3),
}


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {criterion}{suffix}")


def test_criterion_1_inversion_table_reproduction():
    started = time.time()
    series = inv_gf_total(16)
    mismatches = [
        (n, r, series.coeff(p=n, q=r), expected)
        for n, row in enumerate(INVERSION_TABLE)
        for r, expected in enumerate(row)
        if series.coeff(p=n, q=r) != expected
    ]
    elapsed = time.time() - started
    ok = not mismatches and elapsed < 10.0
    _report("criterion 1: inversion table n<=16, r<=12", ok, f"{elapsed:.2f}s")
    assert mismatches == []
    assert elapsed < 10.0


def test_criterion_2_descent_table_reproduction():
    started = time.time()
    series = des_gf_total(16)
    rational = des_gf_total_rational(16)
    mismatches = [
        (n, r, series.coeff(q=n, t=r), expected)
        for n, row in enumerate(DESCENT_TABLE)
        for r, expected in enumerate(row)
        if series.coeff(q=n, t=r) != expected
    ]
    routes_agree = rational == series
    elapsed = time.time() - started
    ok = not mismatches and routes_agree and elapsed < 10.0
    _report("criterion 2: descent table n<=16, r<=5, both routes", ok,
            f"{elapsed:.2f}s")
    assert mismatches == []
    assert routes_agree
    assert elapsed < 10.0


def test_criterion_3_listed_polynomials():
    ok = True
    for k, expected in H_POLYNOMIALS.items():
        ok = ok and maj_inv_poly(k) == expected
        ok = ok and maj_inv_poly_carlitz(k) == expected
    for k, expected in A_POLYNOMIALS.items():
        ok = ok and q_eulerian_poly(k) == expected
    _report("criterion 3: listed polynomials k<=4, all computation paths", ok)
    for k, expected in H_POLYNOMIALS.items():
        assert maj_inv_poly(k) == expected
        assert maj_inv_poly_carlitz(k) == expected
    for k, expected in A_POLYNOMIALS.items():
        assert q_eulerian_poly(k) == expected


def test_criterion_4_oracle_equivalence():
    started = time.time()
    failures = []
    for k in range(7):
        if inv_gf(k, 14) != composition_distribution(k, 14, ("sum", "inv"), ("p", "q")):
            failures.append(("inv", k))
        if des_gf(k, 14) != composition_distribution(k, 14, ("sum", "des"), ("q", "t")):
            failures.append(("des", k))
    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(5):
        if joint_gf(k, 9) != composition_distribution(k, 9, stats, variables):
            failures.append(("joint", k))
    elapsed = time.time() - started
    ok = not failures and elapsed < 120.0
    _report("criterion 4: closed forms equal enumeration (k<=6 cap 14; joint k<=4 cap 9)",
            ok, f"{elapsed:.2f}s")
    assert failures == []
    assert elapsed < 120.0


def test_criterion_5_bijection_suite():
    failures = []
    for n in range(1, 13):
        for sigma in all_compositions(n):
            pi, lam = macmahon_forward(sigma)
            if sum(lam) + permutation_stats(pi).maj != n:
                failures.append(("weight", sigma))
            if macmahon_inverse(pi, lam) != sigma:
                failures.append(("round-trip", sigma))
            pi_stats = permutation_stats(sorting_permutation(sigma))
            rev = composition_stats(reversed_composition(sigma))
            if (pi_stats.inv, pi_stats.imaj, pi_stats.icomaj, pi_stats.ides) != \
                    (rev.inv, rev.comaj, rev.maj, rev.des):
                failures.append(("sorting-statistics", sigma))
    sigma = (4, 2, 1, 2, 1, 5, 3)
    pi, lam = macmahon_forward(sigma)
    example_ok = (
        pi == (6, 1, 7, 2, 4, 3, 5)
        and tuple(sigma[i - 1] for i in pi) == (5, 4, 3, 2, 2, 1, 1)
        and lam == (2, 2, 1, 1, 1, 1, 1)
        and permutation_stats(pi).descent_set == (1, 3, 5)
        and permutation_stats(pi).maj == 9
        and inverse_permutation(pi) == (2, 4, 6, 5, 7, 1, 3)
        and macmahon_inverse(pi, lam) == sigma
    )
    ok = not failures and example_ok
    _report("criterion 5: bijection round-trip and sorting statistics, sums <= 12", ok)
    assert failures == []
    assert example_ok


def test_criterion_6_permutation_identities():
    ok = True
    for k in range(8):
        reference = permutation_distribution(k, ("imaj", "maj"), ("p", "q"))
        ok = ok and permutation_distribution(k, ("inv", "imaj"), ("p", "q")) == reference
        ok = ok and permutation_distribution(k, ("maj", "inv"), ("p", "q")) == reference
        ok = ok and reference.rename({"p": "q", "q": "p"}) == reference
        for pi in all_permutations(k):
            image = foata(pi)
            ok = ok and permutation_stats(pi).maj == permutation_stats(image).inv
            ok = ok and (permutation_stats(inverse_permutation(pi)).descent_set
                         == permutation_stats(inverse_permutation(image)).descent_set)
            ok = ok and foata_inverse(image) == pi
        ok = ok and permutation_distribution(k, ("maj",), ("q",)) == q_factorial(k)
        ok = ok and permutation_distribution(k, ("inv",), ("q",)) == q_factorial(k)
    _report("criterion 6: equidistribution, symmetry, and transform properties, k<=7", ok)
    assert ok


def test_criterion_7_identity_verifications():
    product_ok = verify_product_expansion(4, 8)
    eulerian_ok = verify_q_eulerian_gf(6)
    counting_ok = all(verify_composition_count_identity(k, 12) for k in range(6))
    qexp_ok = check_q_exponential_inverse(8)
    ok = product_ok and eulerian_ok and counting_ok and qexp_ok
    _report("criterion 7: generating-function identity checks", ok)
    assert product_ok
    assert eulerian_ok
    assert counting_ok
    assert qexp_ok


def test_criterion_8_hook_length_suite():
    grid_ok = hook_lengths((4, 4, 2, 1)) == [[7, 5, 3, 2], [6, 4, 2, 1], [3, 1], [1]]
    counts_ok = True
    for n in range(1, 9):
        for shape in partitions_of(n):
            counts_ok = counts_ok and syt_count(shape) == len(
                enumerate_standard_tableaux(shape))
    maj_ok = True
    for n in range(1, 8):
        for shape in partitions_of(n):
            oracle = Poly.zero()
            for tableau in enumerate_standard_tableaux(shape):
                oracle = oracle + Poly.variable("q", tableau_major_index(tableau))
            maj_ok = maj_ok and syt_count_q(shape) == oracle
    squares_ok = all(
        sum(syt_count(shape) ** 2 for shape in partitions_of(k)) == factorial(k)
        for k in range(1, 9)
    )
    ok = grid_ok and counts_ok and maj_ok and squares_ok
    _report("criterion 8: hook lengths, tableau counts, and q-analogs", ok)
    assert grid_ok
    assert counts_ok
    assert maj_ok
    assert squares_ok


def test_criterion_9_oeis_cross_checks():
    metadata = load_metadata(DATA / "oeis" / "metadata.json")
    reports = []
    for seq in ("A189052", "A189073", "A189074", "A238343", "A238344"):
        bfile = load_bfile(DATA / "oeis" / f"b{seq.lstrip('A')}.txt")
        reports.append(check_sequence(seq, bfile, 16, metadata))
    ok = all(report.agree and report.terms_checked > 0 for report in reports)
    detail = "; ".join(report.summary() for report in reports)
    _report("criterion 9: OEIS b-file agreement to n = 16", ok, detail)
    for report in reports:
        assert report.agree, report.summary()
        assert report.terms_checked > 0
