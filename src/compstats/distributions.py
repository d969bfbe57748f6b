"""Closed-form distributions of inversions and descents over compositions, as Poly and Series.

The closed forms here read the packed kernels and count rows of :mod:`compstats.tables`, which
also holds DistTable and inversion_totals; every one of them has a brute-force
enumeration counterpart (in :mod:`compstats.compositions` and
:mod:`compstats.permutations`) that the test suite plays against it.  The
Carlitz recurrence and the identity verifications live in
:mod:`compstats.oracles`; :func:`des_gf_total_rational`, the rational route
that cross-checks the descent totals, is here.

Truncation caps are explicit arguments everywhere.  A series truncated at
cap N has exact coefficients for every power of the size variable up to N;
nothing beyond the cap is claimed.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb
from operator import mul

from .errors import check_size
# DistTable and inversion_totals are not used here: perfbench looks them up in this module
from .tables import (DistTable, _counts, _hook_sum, _q_eulerian_sum, inversion_totals,  # noqa: F401
                     over_pochhammer, pack, unpack)

# only the functions that return a Poly or a Series import polynomial, when called
TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .polynomial import Poly, Series


# ---------------------------------------------------------------------------
# Closed forms over permutations
# ---------------------------------------------------------------------------

def maj_inv_poly(k: int) -> Poly:
    """Joint (maj, inv) distribution over S_k, in (p, q), as a hook-length partition sum.

    Equals sum over partitions of k of the product of the two single-variable
    tableau-counting polynomials; the constant 1 for k = 0.  k is capped at LIMITS["hk"].
    """
    check_size("hk", "k", k)
    return _poly(map(unpack, _hook_sum(k, comb(k, 2))), "p", "q")


def q_eulerian_poly(k: int) -> Poly:
    """Joint (inv, des) distribution over S_k, in (q, t), as a partition-indexed sum.

    Every partition of k contributes t^(length-1) (1-t)^(k-length) times its
    q-multinomial weight; the negative intermediate terms cancel.  k is capped at LIMITS["hk"].
    """
    check_size("hk", "k", k)
    return _poly(map(unpack, _q_eulerian_sum(k, comb(k, 2))), "q", "t")


def _poly(rows: Iterable[Iterable[int]], outer: str, inner: str) -> Poly:
    """Coefficient rows as a Poly: rows[i] lists the ``inner`` polynomial of outer^i."""
    from .polynomial import Poly, monomial_key

    return Poly({monomial_key({outer: i, inner: r}): c
                 for i, row in enumerate(rows) for r, c in enumerate(row)})


# ---------------------------------------------------------------------------
# Generating functions over compositions
# ---------------------------------------------------------------------------

def _series(kernel, size_var: str, stat_var: str, cap: int, k: int | None = None) -> Series:
    from .polynomial import Series

    return Series(_poly(_counts(kernel, cap, k), size_var, stat_var), size_var, cap)


def inv_gf(k: int, cap: int) -> Series:
    """Series in p, exact in q: coefficient of p^n q^r counts k-compositions of n with r inversions."""
    return _series(_hook_sum, "p", "q", cap, k)


def inv_gf_total(cap: int) -> Series:
    """Series in p, exact in q: coefficient of p^n q^r counts all compositions of n with r inversions.

    The sum over k of the k-part series :func:`inv_gf`, plus 1 for the empty composition.
    """
    return _series(_hook_sum, "p", "q", cap)


def des_gf(k: int, cap: int) -> Series:
    """Series in q, exact in t: coefficient of q^n t^r counts k-compositions of n with r descents."""
    return _series(_q_eulerian_sum, "q", "t", cap, k)


def des_gf_total(cap: int) -> Series:
    """Series in q, exact in t: coefficient of q^n t^r counts all compositions of n with r descents.

    The sum over k of the k-part series :func:`des_gf`, plus 1 for the empty composition.
    """
    return _series(_q_eulerian_sum, "q", "t", cap)


def des_gf_total_rational(cap: int) -> Series:
    """The descent series from its rational form, solved order by order in q on packed rows.

    The form is X = (1 - t) / D, D(q, t) = sum_j q^C(j+1,2) (t-1)^j / (q)_j - t.  Its j = 0 term
    is 1, so D = (1 - t)(1 - E) with E = sum_{j>=1} q^C(j+1,2) (t-1)^(j-1) / (q)_j: X = 1 / (1 - E).
    E, cut at q^cap, is one packed t-polynomial E_m per power q^m, with signed coefficients and
    E_0 = 0, so X_0 = 1 and X_n = sum_{m=1..n} E_m X_{n-m}, exact as packing is a ring map.  Only
    the count rows X_n are unpacked; they stay below 2^23.  cap has des_gf_total's limit.
    """
    from .polynomial import Series

    check_size("table", "cap", cap)
    by_q = [0] * (cap + 1)
    j = 1
    while comb(j + 1, 2) <= cap:
        shift, factor = comb(j + 1, 2), pack([-1, 1]) ** (j - 1)
        for m, c in enumerate(over_pochhammer([1] + [0] * (cap - shift), j), start=shift):
            by_q[m] += c * factor
        j += 1
    rows = [1]
    for n in range(1, cap + 1):
        rows.append(sum(map(mul, by_q[n:0:-1], rows)))
    return Series(_poly(map(unpack, rows), "q", "t"), "q", cap)


def _over_k_partitions(limit: str, k: int, cap: int, stats: tuple[str, ...],
                       variables: tuple[str, ...]) -> Series:
    """p^k / (p)_k, the size series of k-partitions, times the distribution of ``stats`` over
    S_k in ``variables``; k is capped at LIMITS[limit].  For k > cap the cut leaves zero."""
    from . import permutations
    from .polynomial import Poly
    from .qanalog import pochhammer_inverse_series

    check_size(limit, "k", k)
    size_series = pochhammer_inverse_series(k, "p", cap)  # refuses a negative cap first
    dist = permutations.statistic_distribution(k, stats, variables)
    return size_series * Poly.variable("p", k) * dist


def comaj_des_gf(k: int, cap: int) -> Series:
    """Series in p, exact in (q, t): coefficient of p^n q^c t^d counts
    k-compositions of n with comajor index c and d descents."""
    return _over_k_partitions("comaj_des", k, cap, ("maj", "imaj", "ides"), ("p", "q", "t"))


def joint_gf(k: int, cap: int) -> Series:
    """The five-variable closed form over k-compositions.

    Coefficient of p^n q^a t^b u^c v^d counts k-compositions of n with a
    inversions, comajor index b, major index c, and d descents.  Computed
    from the matching inverse statistics over S_k behind the k-partition
    size series.
    """
    return _over_k_partitions("joint", k, cap, ("maj", "inv", "imaj", "icomaj", "ides"),
                              ("p", "q", "t", "u", "v"))
