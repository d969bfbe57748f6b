"""q-analog building blocks: [n]_q, [n]_q!, (q)_n, and Gaussian binomials.

All results are polynomials in the variable q; use Poly.rename to move them
to another variable when a p-analog is needed.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import OutOfRange
from .polynomial import Poly, Series, monomial_key


def q_int(n: int) -> Poly:
    """[n]_q = 1 + q + ... + q^(n-1); the zero polynomial for n = 0."""
    if n < 0:
        raise OutOfRange(f"q_int requires n >= 0, got {n}")
    return Poly({(0, e, 0, 0, 0): 1 for e in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> Poly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    if n < 0:
        raise OutOfRange(f"q_factorial requires n >= 0, got {n}")
    if n == 0:
        return Poly.one()
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_pochhammer(n: int) -> Poly:
    """(q)_n = (1-q)(1-q^2)...(1-q^n), with (q)_0 = 1."""
    if n < 0:
        raise OutOfRange(f"q_pochhammer requires n >= 0, got {n}")
    if n == 0:
        return Poly.one()
    return q_pochhammer(n - 1) * (1 - Poly.variable("q", n))


@lru_cache(maxsize=None)
def _gauss(n: int, k: int) -> Poly:
    if k == 0 or k == n:
        return Poly.one()
    # Pascal-type recurrence keeps everything inside the polynomial ring
    return _gauss(n - 1, k - 1) + Poly.variable("q", k) * _gauss(n - 1, k)


def gaussian_binomial(n: int, k: int) -> Poly:
    """The Gaussian binomial coefficient as a polynomial in q."""
    if k < 0 or k > n:
        raise OutOfRange(f"gaussian_binomial requires 0 <= k <= n, got (n, k) = ({n}, {k})")
    return _gauss(n, k)


def q_multinomial(parts: tuple[int, ...], max_q: int | None = None) -> Poly:
    """q-analog of the multinomial coefficient (sum parts; parts).

    Computed as a product of Gaussian binomials over suffix sums, which keeps
    the arithmetic division-free and shares the memoized Pascal table.  With
    ``max_q`` every factor and every partial product is cut at q^max_q; the
    coefficients up to q^max_q stay exact, since a dropped term only feeds
    higher powers.
    """
    cut = {} if max_q is None else {"q": max_q}
    remaining = sum(parts)
    result = Poly.one()
    for part in parts[:-1]:  # the last factor is gauss(part, part) = 1
        result = (result * gaussian_binomial(remaining, part).truncate(cut)).truncate(cut)
        remaining -= part
    return result


def pochhammer_inverse_series(n: int, var: str, cap: int) -> Series:
    """1/(x)_n as a series in ``var`` truncated at ``cap``: the coefficient of
    x^m counts the partitions of m into parts at most n."""
    counts = [1] + [0] * cap
    for part in range(1, n + 1):
        for m in range(part, cap + 1):
            counts[m] += counts[m - part]
    return Series(Poly({monomial_key({var: m}): c for m, c in enumerate(counts)}), var, cap)


def check_q_exponential_inverse(max_order: int) -> bool:
    """Verify that the two standard q-exponentials are reciprocal, order by order.

    The coefficient identity, cleared of factorial denominators, reads
    sum_{j=0..m} (-1)^j q^C(j,2) gauss(m, j) = 0 for every m >= 1.  Returns
    True iff it holds for all 1 <= m <= max_order.
    """
    for m in range(1, max_order + 1):
        total = Poly.zero()
        for j in range(m + 1):
            sign = -1 if j % 2 else 1
            total = total + sign * Poly.variable("q", comb(j, 2)) * gaussian_binomial(m, j)
        if total:
            return False
    return True
