"""q-analog building blocks: [n]_q!, Gaussian binomials, q-multinomials and 1/(q)_n.

The polynomials are in the variable q (Poly.rename moves them).  [n]_q!, the q-multinomials and
the hook quotients are all q_quotient; it and over_pochhammer, whose (1 - q^v) passes run on
dense lists, live in :mod:`compstats.tables` with the table path.
"""

from __future__ import annotations

from .errors import check_nonnegative
from .tables import over_pochhammer, q_quotient

# the functions that return a Poly or a Series import polynomial when called
TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .polynomial import Poly, Series


def q_factorial(n: int) -> Poly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q = (q)_n / (1 - q)^n, with [0]_q! = 1."""
    from .polynomial import from_coefficients

    check_nonnegative("n", n)
    return from_coefficients(q_quotient(range(1, n + 1), [1] * n), "q")


def gaussian_binomial(n: int, k: int) -> Poly:
    """The Gaussian binomial coefficient [n, k]_q as a polynomial in q: 0 for k outside 0..n.
    One q-Pascal pass over the rows s = 1..n, [s, c] = [s-1, c-1] + q^c [s-1, c], keeping
    c <= min(k, n - k) since [n, k] = [n, n - k]; the route kept apart from q_quotient."""
    from .polynomial import Poly

    check_nonnegative("n", n)
    if not 0 <= k <= n:
        return Poly.zero()
    k = min(k, n - k)
    row = [Poly.one()]
    for s in range(1, n + 1):
        inner = [row[c - 1] + Poly.variable("q", c) * row[c] for c in range(1, min(s, k + 1))]
        row = [Poly.one(), *inner, Poly.one()][:k + 1]
    return row[k]


def q_multinomial(parts: tuple[int, ...]) -> Poly:
    """q-analog of the multinomial coefficient (sum parts; parts):
    [n]_q! / prod [m]_q! over the parts m, that is (q)_n / prod (q)_m."""
    from .polynomial import from_coefficients

    check_nonnegative("part", min(parts, default=0))
    down = [v for m in parts for v in range(1, m + 1)]
    return from_coefficients(q_quotient(range(1, sum(parts) + 1), down), "q")


def pochhammer_inverse_series(n: int, var: str, cap: int) -> Series:
    """1/(x)_n as a series in ``var`` truncated at ``cap``: the coefficient of
    x^m counts the partitions of m into parts at most n."""
    from .polynomial import Series, from_coefficients

    check_nonnegative("n", n)
    return Series(from_coefficients(over_pochhammer([1] + [0] * cap, n), var), var, cap)
