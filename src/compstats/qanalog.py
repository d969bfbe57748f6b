"""q-analog building blocks: [n]_q!, Gaussian binomials, q-multinomials and 1/(q)_n.

The polynomials are in the variable q (Poly.rename moves them).  [n]_q!, the q-multinomials and
the hook quotients are all q_quotient; every division by a product of (1 - q^v) factors, there
and in over_pochhammer, is one in-place pass over a dense list per factor.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import InexactDivision, OutOfRange, check_nonnegative

# q_quotient and over_pochhammer work on lists, which is all a table call runs, so the
# functions that return a Poly or a Series import polynomial when called
if TYPE_CHECKING:
    from .polynomial import Poly, Series


def q_factorial(n: int) -> Poly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q = (q)_n / (1 - q)^n, with [0]_q! = 1."""
    from .polynomial import from_coefficients

    check_nonnegative("n", n)
    return from_coefficients(q_quotient(range(1, n + 1), [1] * n), "q")


@lru_cache(maxsize=None)
def _gauss(n: int, k: int) -> Poly:
    from .polynomial import Poly

    if k == 0 or k == n:
        return Poly.one()
    # Pascal-type recurrence keeps everything inside the polynomial ring
    return _gauss(n - 1, k - 1) + Poly.variable("q", k) * _gauss(n - 1, k)


def gaussian_binomial(n: int, k: int) -> Poly:
    """The Gaussian binomial coefficient as a polynomial in q."""
    if k < 0 or k > n:
        raise OutOfRange(f"gaussian_binomial requires 0 <= k <= n, got (n, k) = ({n}, {k})")
    return _gauss(n, k)


def _times_one_minus(coefficients: list[int], v: int) -> None:
    """Multiply the power series ``coefficients`` in place by (1 - q^v), keeping its length."""
    coefficients[v:] = [c - d for c, d in zip(coefficients[v:], coefficients)]


def _over_one_minus(coefficients: list[int], v: int) -> None:
    """Divide the power series ``coefficients`` in place by (1 - q^v), keeping its length."""
    for j in range(v, len(coefficients)):
        coefficients[j] += coefficients[j - v]


def q_quotient(up: Iterable[int], down: Iterable[int]) -> list[int]:
    """The coefficients of prod_{a in up} (1 - q^a) / prod_{b in down} (1 - q^b), all a, b > 0:
    common factors cancelled, then one (1 - q^v) pass per factor left on a power series as long
    as the numerator; its tail past the quotient's degree must vanish, or InexactDivision."""
    surplus = Counter(up)
    surplus.subtract(down)
    numerator = sum(v * c for v, c in surplus.items() if c > 0)
    degree = numerator + sum(v * c for v, c in surplus.items() if c < 0)
    coefficients = [1] + [0] * numerator
    for v, c in surplus.items():
        for _ in range(abs(c)):
            (_times_one_minus if c > 0 else _over_one_minus)(coefficients, v)
    if degree < 0 or any(coefficients[degree + 1:]):
        raise InexactDivision(f"prod (1 - q^b) over b in {sorted((-surplus).elements())} does "
                              f"not divide prod (1 - q^a) over a in {sorted(surplus.elements())}")
    return coefficients[:degree + 1]


def q_multinomial(parts: tuple[int, ...]) -> Poly:
    """q-analog of the multinomial coefficient (sum parts; parts):
    [n]_q! / prod [m]_q! over the parts m, that is (q)_n / prod (q)_m."""
    from .polynomial import from_coefficients

    check_nonnegative("part", min(parts, default=0))
    down = [v for m in parts for v in range(1, m + 1)]
    return from_coefficients(q_quotient(range(1, sum(parts) + 1), down), "q")


def over_pochhammer(coefficients: list[int], n: int) -> list[int]:
    """Divide the power series ``coefficients`` in place by (x)_n = (1 - x)(1 - x^2)...(1 - x^n),
    keeping its length, and return it: one pass per part, and a part past the length is a no-op.
    Packed entries divide as plain ints do.  On [1, 0, 0, ...] entry m counts the partitions of m
    into parts at most n."""
    for part in range(1, min(n, len(coefficients) - 1) + 1):
        _over_one_minus(coefficients, part)
    return coefficients


def pochhammer_inverse_series(n: int, var: str, cap: int) -> Series:
    """1/(x)_n as a series in ``var`` truncated at ``cap``: the coefficient of
    x^m counts the partitions of m into parts at most n."""
    from .polynomial import Series, from_coefficients

    check_nonnegative("n", n)
    return Series(from_coefficients(over_pochhammer([1] + [0] * cap, n), var), var, cap)
