from itertools import combinations, permutations as iter_permutations
from math import comb, factorial, prod

import pytest

from compstats.errors import LIMITS, InexactDivision, TooLarge
from compstats.oracles import check_q_exponential_inverse
from compstats.partitions import hook_lengths
from compstats.polynomial import Poly, Series, from_coefficients, q
from compstats.qanalog import (
    gaussian_binomial,
    pochhammer_inverse_series,
    q_factorial,
    q_multinomial,
    q_quotient,
)
from compstats.statistics import inversions, major_index


def test_q_factorial_small():
    assert q_factorial(0) == Poly.one()
    assert q_factorial(2) == 1 + q
    # oracle: distribution of inversions over S_3
    expected = Poly.zero()
    for pi in iter_permutations((1, 2, 3)):
        expected = expected + Poly.variable("q", inversions(pi))
    assert expected == 1 + 2 * q + 2 * q ** 2 + q ** 3
    assert q_factorial(3) == expected


def _q_pochhammer(n):
    # (q)_n = (1 - q)(1 - q^2)...(1 - q^n), multiplied out in the ring
    return prod((1 - q ** i for i in range(1, n + 1)), start=Poly.one())


@pytest.mark.parametrize("n", range(13))
def test_pochhammer_factorial_identity(n):
    assert _q_pochhammer(n) == q_factorial(n) * (1 - q) ** n


def _binary_word_gaussian(n, k):
    # oracle: sum q^inv over 0/1 words with k ones (inv counts 1-before-0 pairs)
    total = Poly.zero()
    for positions in combinations(range(n), k):
        word = [0] * n
        for i in positions:
            word[i] = 1
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if word[a] > word[b])
        total = total + Poly.variable("q", inv)
    return total


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0) == Poly.one()
    assert gaussian_binomial(2, 1) == 1 + q
    expected = _binary_word_gaussian(4, 2)
    assert expected == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert gaussian_binomial(4, 2) == expected


@pytest.mark.parametrize("n", range(7))
def test_gaussian_binomial_against_word_oracle(n):
    for k in range(n + 1):
        assert gaussian_binomial(n, k) == _binary_word_gaussian(n, k)


def test_gaussian_binomial_out_of_range():
    # [n, k]_q counts k-subsets of n: none for k outside 0..n; a negative n is malformed
    assert gaussian_binomial(3, -1) == gaussian_binomial(3, 4) == 0
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        gaussian_binomial(-1, 0)


def test_gaussian_binomial_of_a_large_n_is_one_loop():
    # [n, 1]_q = 1 + q + ... + q^(n-1): a recursion over the rows would pass the stack limit
    assert gaussian_binomial(1100, 1) == from_coefficients([1] * 1100, "q")


MULTINOMIAL_PARTS = ((), (3,), (1, 1), (2, 1, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1), (3, 1, 2))


def _word_inversions(parts):
    # oracle: sum q^inv over the distinct words with parts[i] copies of letter i
    letters = tuple(i for i, part in enumerate(parts) for _ in range(part))
    total = Poly.zero()
    for word in set(iter_permutations(letters)):
        total = total + Poly.variable("q", inversions(word))
    return total


@pytest.mark.parametrize("parts", MULTINOMIAL_PARTS)
def test_q_multinomial_against_word_oracle(parts):
    assert q_multinomial(parts) == _word_inversions(parts)


def _geometric(b, var, cap):
    # 1/(1 - x^b) cut at x^cap: every b-th coefficient is 1
    return Series(from_coefficients([int(e % b == 0) for e in range(cap + 1)], var), var, cap)


def _series_quotient(up, down, cap):
    # prod (1 - q^a) / prod (1 - q^b) as a power series cut at q^cap, by Series arithmetic
    quotient = Series.one("q", cap)
    for a in up:
        quotient = quotient * (1 - q ** a)
    for b in down:
        quotient = quotient * _geometric(b, "q", cap)
    return quotient


@pytest.mark.parametrize("parts", MULTINOMIAL_PARTS)
def test_q_multinomial_cut_is_exact_truncation(parts):
    # the power series quotient, cut at any q^cap, is the truncation of the exact polynomial
    up, down = range(1, sum(parts) + 1), [v for m in parts for v in range(1, m + 1)]
    exact = q_multinomial(parts)
    for cap in range(exact.degree("q") + 2):
        assert _series_quotient(up, down, cap) == Series(exact, "q", cap)
    # the same for the hook quotient of the shape with these parts
    shape = tuple(sorted(parts, reverse=True))
    if shape:
        down = [h for row in hook_lengths(shape) for h in row]
        exact = from_coefficients(q_quotient(up, down), "q")
        for cap in range(exact.degree("q") + 2):
            assert _series_quotient(up, down, cap) == Series(exact, "q", cap)


def test_q_quotient_refuses_a_series():
    # (1 - q) / (1 - q^2) = 1 / (1 + q) is no polynomial
    with pytest.raises(InexactDivision):
        q_quotient((1,), (2,))
    # nor is (1 - q)^2 / (1 - q^2) = (1 - q) / (1 + q); its degree is 0, so only the
    # coefficients past its degree show it
    with pytest.raises(InexactDivision):
        q_quotient((1, 1), (2,))
    assert q_quotient((2,), (1,)) == [1, 1]


def test_q_exponential_inverse_refuses_an_order_past_the_hk_limit(monkeypatch):
    from compstats import oracles

    def refuse(n, k):
        raise AssertionError("a Gaussian binomial was built")

    monkeypatch.setattr(oracles, "gaussian_binomial", refuse)
    over = LIMITS["hk"] + 1
    with pytest.raises(TooLarge, match=f"^max_order {over} exceeds the hk limit {over - 1}$"):
        check_q_exponential_inverse(over)


def test_q_multinomial_refuses_negative_input():
    with pytest.raises(ValueError, match="^part must be nonnegative, got -1$"):
        q_multinomial((-1, 2))


def test_q_one_specializations():
    for n in range(9):
        assert q_factorial(n).eval_at_one("q") == Poly.constant(factorial(n))
        for k in range(n + 1):
            value = gaussian_binomial(n, k).eval_at_one("q")
            assert value == Poly.constant(comb(n, k))


def test_gaussian_symmetry():
    for n in range(13):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_maj_inv_equidistribution():
    # [k]_q! is both the inv and the maj generating function over S_k
    for k in range(7):
        by_inv = Poly.zero()
        by_maj = Poly.zero()
        for pi in iter_permutations(range(1, k + 1)):
            by_inv = by_inv + Poly.variable("q", inversions(pi))
            by_maj = by_maj + Poly.variable("q", major_index(pi))
        assert by_inv == q_factorial(k)
        assert by_maj == q_factorial(k)


def test_pochhammer_inverse_series():
    # coefficient of q^j in 1/(q)_n counts partitions of j into parts <= n
    series = pochhammer_inverse_series(3, "q", 8)
    assert series.coeff(q=0) == 1
    assert series.coeff(q=4) == 4   # 3+1, 2+2, 2+1+1, 1+1+1+1
    product = series * Series(_q_pochhammer(3), "q", 8)
    assert product == Series.one("q", 8)


def test_pochhammer_inverse_series_equals_the_geometric_product():
    # the reference multiplies one truncated 1/(1 - x^i) per factor
    for var in ("p", "q"):
        for cap in range(17):
            reference = Series.one(var, cap)
            for n in range(11):
                if n:
                    reference = reference * _geometric(n, var, cap)
                assert pochhammer_inverse_series(n, var, cap) == reference
    # a part past the cap divides by nothing, so a huge n costs no more than n = cap
    assert pochhammer_inverse_series(10 ** 12, "q", 4) == pochhammer_inverse_series(4, "q", 4)


def test_q_exponential_inverse_check():
    assert check_q_exponential_inverse(1)
    # m = 2 by hand: 1 - (1+q) + q = 0
    assert Poly.one() - gaussian_binomial(2, 1) + q == Poly.zero()
    assert check_q_exponential_inverse(6)
