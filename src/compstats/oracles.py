"""Named cross-checks and identity verifications: the routes no table call runs.

Each one recomputes a closed form of :mod:`compstats.distributions` or
:mod:`compstats.qanalog` by an independent route, or checks a generating
function identity it rests on, in ``Poly`` and ``Series`` arithmetic.  Living
apart from the closed forms, they are compiled only by the ``verify`` suites
and the tests that call them, never by a table call.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb

from .distributions import maj_inv_poly, q_eulerian_poly
from .errors import check_size
from .polynomial import Poly, Series, from_coefficients
from .qanalog import gaussian_binomial, pochhammer_inverse_series, q_factorial


@lru_cache(maxsize=None)
def maj_inv_poly_carlitz(k: int) -> Poly:
    """The same polynomial as :func:`maj_inv_poly`, via the Carlitz recurrence; k has its limit."""
    check_size("hk", "k", k)
    if k == 0:
        return Poly.one()
    total, ratio = Poly.zero(), Poly.one()  # ratio = prod_{i=j+1..k-1} (1 - p^i)
    for j in range(k - 1, -1, -1):
        total += Poly.variable("p", j) * ratio * gaussian_binomial(k, j) * maj_inv_poly_carlitz(j)
        ratio *= 1 - Poly.variable("p", j)
    return total


def _q_exponential_sum(m: int, x: Poly | int, a: Callable[[int], Poly | int]) -> Poly:
    """sum_{j=0..m} q^C(j,2) x^j gauss(m, j) a(m - j), x_j = x^j grown by one product per j: [m]_q!
    times the z^m coefficient of E(xz) sum_i a(i) z^i/[i]_q!, E(z) = sum_j q^C(j,2) z^j/[j]_q!."""
    total, x_j = Poly.zero(), Poly.one()
    for j in range(m + 1):
        total += Poly.variable("q", comb(j, 2)) * x_j * gaussian_binomial(m, j) * a(m - j)
        x_j *= x
    return total


def verify_product_expansion(max_t: int, cap: int) -> bool:
    """Check the two-alphabet product expansion against the hook-sum closed form.

    Expands prod over 0 <= a, b <= cap of 1/(1 - p^a q^b t) truncated at
    (t^max_t, p^cap, q^cap), one factor at a time: dividing the t-coefficients
    by 1 - p^a q^b t adds p^a q^b times the t^(k-1) coefficient to the t^k one,
    for k = 1..max_t in turn.  The coefficient of t^k is then compared with the
    hook-sum polynomial divided by both Pochhammer products, for every
    k <= max_t.  max_t has maj_inv_poly's limit and cap the table limit.
    """
    check_size("hk", "max_t", max_t)
    check_size("table", "cap", cap)
    caps = {"p": cap, "q": cap}
    by_t = [Poly.one()] + [Poly.zero()] * max_t
    for a in range(cap + 1):
        for b in range(cap + 1):
            monomial = Poly.variable("p", a) * Poly.variable("q", b)
            for k in range(1, max_t + 1):
                by_t[k] = by_t[k] + (monomial * by_t[k - 1]).truncate(caps)
    for k, coefficient in enumerate(by_t):
        closed = (maj_inv_poly(k)
                  * pochhammer_inverse_series(k, "p", cap).body
                  * pochhammer_inverse_series(k, "q", cap).body)
        if coefficient != closed.truncate(caps):
            return False
    return True


def verify_q_eulerian_gf(max_order: int) -> bool:
    """Check the exponential generating identity for the q-Eulerian polynomials.

    With the denominator cleared and coefficients of z^m compared, the
    identity reduces to, for every m >= 1:

        sum_{j=0..m} q^C(j,2) (t-1)^j gauss(m, j) A_{m-j}(q, t)  =  t A_m(q, t)

    where A_i is :func:`q_eulerian_poly`.  Pure polynomial arithmetic; max_order has
    q_eulerian_poly's limit.
    """
    check_size("hk", "max_order", max_order)
    t = Poly.variable("t")
    return all(_q_exponential_sum(m, t - 1, q_eulerian_poly) == t * q_eulerian_poly(m)
               for m in range(1, max_order + 1))


def verify_composition_count_identity(k: int, cap: int) -> bool:
    """Check q^k/(1-q)^k = [k]_q! q^k/(q)_k as series truncated at ``cap``.

    The left side generates k-composition counts by size, so its coefficient
    of q^n is the count C(n-1, k-1) of k-compositions of n (and 1 for the
    empty composition, n = k = 0); the right side is the maj distribution over
    S_k times the k-partition size series.  k and cap have the table limit.
    """
    check_size("table", "k", k)
    check_size("table", "cap", cap)
    counts = [comb(n - 1, k - 1) if n and k else int(n == k) for n in range(cap + 1)]
    lhs = Series(from_coefficients(counts, "q"), "q", cap)
    rhs = (pochhammer_inverse_series(k, "q", cap)
           * (q_factorial(k) * Poly.variable("q", k)))
    return lhs == rhs


def check_q_exponential_inverse(max_order: int) -> bool:
    """Verify that the two standard q-exponentials are reciprocal, order by order.

    The coefficient identity, cleared of factorial denominators, reads
    sum_{j=0..m} (-1)^j q^C(j,2) gauss(m, j) = 0 for every m >= 1.  Returns
    True iff it holds for all 1 <= m <= max_order; max_order has the hk limit.  It is the
    t^0 coefficient of the identity :func:`verify_q_eulerian_gf` checks.
    """
    check_size("hk", "max_order", max_order)
    return not any(_q_exponential_sum(m, -1, lambda i: 1) for m in range(1, max_order + 1))
