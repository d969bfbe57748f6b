"""Closed-form distributions of inversions and descents over compositions.

The closed forms here are partition-indexed sums, recurrences, and truncated
generating-function expansions; every one of them has a brute-force
enumeration counterpart (in :mod:`compstats.compositions` and
:mod:`compstats.permutations`) that the test suite plays against it.

Truncation caps are explicit arguments everywhere.  A series truncated at
cap N has exact coefficients for every power of the size variable up to N;
nothing beyond the cap is claimed.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb

from .errors import CapTooSmall, DenominatorNotUnit, check_size
from .partitions import b_statistic, partitions_of, q_eulerian_weight, syt_count_q
from .polynomial import Poly, Series, divexact, geometric_series
from .qanalog import gaussian_binomial, pochhammer_inverse_series, q_factorial


# ---------------------------------------------------------------------------
# Closed forms over permutations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hook_sum(k: int, max_p: int) -> Poly:
    """The hook sum of :func:`maj_inv_poly` with every f(p) cut at p^max_p.

    f(p) = p^b(shape) (1 + ...), so shapes with b(shape) > max_p are skipped.
    """
    total = Poly.zero()
    for shape in partitions_of(k):
        if not shape:
            total = total + 1
        elif b_statistic(shape) <= max_p:
            f_q = syt_count_q(shape)
            total = total + f_q.rename({"q": "p"}).truncate({"p": max_p}) * f_q
    return total


def maj_inv_poly(k: int) -> Poly:
    """Joint (maj, inv) distribution over S_k, in (p, q), as a hook-length partition sum.

    Equals sum over partitions of k of the product of the two single-variable
    tableau-counting polynomials; the constant 1 for k = 0.
    """
    return _hook_sum(k, comb(k, 2))


@lru_cache(maxsize=None)
def maj_inv_poly_carlitz(k: int) -> Poly:
    """The same polynomial as :func:`maj_inv_poly`, via the Carlitz recurrence."""
    if k == 0:
        return Poly.one()
    total = Poly.zero()
    for j in range(k):
        ratio = Poly.one()
        for i in range(j + 1, k):
            ratio = ratio * (1 - Poly.variable("p", i))
        term = Poly.variable("p", j) * ratio * gaussian_binomial(k, j)
        total = total + term * maj_inv_poly_carlitz(j)
    return total


@lru_cache(maxsize=None)
def _q_eulerian_sum(k: int, max_q: int) -> Poly:
    """The partition sum of :func:`q_eulerian_poly` with every weight cut at q^max_q.

    The weights of the shapes of one length l are summed first, then
    multiplied by t^(l-1) (1-t)^(k-l) once.
    """
    if k == 0:
        return Poly.one()
    by_length: dict[int, Poly] = {}
    for shape in partitions_of(k):
        weight = q_eulerian_weight(shape, max_q)
        by_length[len(shape)] = by_length.get(len(shape), Poly.zero()) + weight
    one_minus_t = 1 - Poly.variable("t")
    total = Poly.zero()
    for length, weight in by_length.items():
        total = total + Poly.variable("t", length - 1) * one_minus_t ** (k - length) * weight
    return total


def q_eulerian_poly(k: int) -> Poly:
    """Joint (inv, des) distribution over S_k, in (q, t), as a partition-indexed sum.

    Every partition of k contributes t^(length-1) (1-t)^(k-length) times its
    q-multinomial weight; the negative intermediate terms cancel.
    """
    return _q_eulerian_sum(k, comb(k, 2))


# ---------------------------------------------------------------------------
# Generating functions over compositions
# ---------------------------------------------------------------------------

def _leading_over_pochhammer(k: int, var: str, cap: int) -> Series:
    """x^k / (x)_k as a truncated series: the size generating function of k-partitions."""
    if cap < k:
        raise CapTooSmall(f"cap {cap} cannot hold the leading term of degree {k}")
    return pochhammer_inverse_series(k, var, cap) * Poly.variable(var, k)


# inv_gf and des_gf cut their kernel at min(cap - k, C(k, 2)): both kernels have
# degree C(k, 2) in the cut variable, so a larger cut would only add cache keys
def inv_gf(k: int, cap: int) -> Series:
    """Series in p, exact in q: coefficient of p^n q^r counts k-compositions of n with r inversions."""
    return _leading_over_pochhammer(k, "p", cap) * _hook_sum(k, min(cap - k, comb(k, 2)))


def inv_gf_recurrence(k: int, cap: int) -> Series:
    """Same series as :func:`inv_gf`, computed by the Gaussian-binomial recurrence."""
    if cap < k:
        raise CapTooSmall(f"cap {cap} cannot hold the leading term of degree {k}")
    memo: list[Series] = [Series.one("p", cap)]
    for m in range(1, k + 1):
        acc = Series(Poly.zero(), "p", cap)
        for j in range(m):
            acc = acc + gaussian_binomial(m, j) * memo[j]
        lead = geometric_series({"p": m}, "p", cap) * Poly.variable("p", m)
        memo.append(lead * acc)
    return memo[k]


def inv_gf_total(cap: int) -> Series:
    """Series in p, exact in q: coefficient of p^n q^r counts all compositions of n with r inversions.

    The sum over k of the k-part series :func:`inv_gf`, plus 1 for the empty composition.
    """
    return sum((inv_gf(m, cap) for m in range(1, cap + 1)), Series.one("p", cap))


def des_gf(k: int, cap: int) -> Series:
    """Series in q, exact in t: coefficient of q^n t^r counts k-compositions of n with r descents."""
    return _leading_over_pochhammer(k, "q", cap) * _q_eulerian_sum(k, min(cap - k, comb(k, 2)))


def des_gf_total(cap: int) -> Series:
    """Series in q, exact in t: coefficient of q^n t^r counts all compositions of n with r descents.

    The sum over k of the k-part series :func:`des_gf`, plus 1 for the empty composition.
    """
    return sum((des_gf(m, cap) for m in range(1, cap + 1)), Series.one("q", cap))


def des_gf_total_rational(cap: int) -> Series:
    """The descent series from its rational form, solved order by order in q.

    Assembles the denominator D(q, t) = sum_j q^C(j+1,2) (t-1)^j / (q)_j - t
    as a truncated series and solves D * X = 1 - t for X; the constant
    q-coefficient of D must be exactly 1 - t for the solve to start.
    """
    t_var = Poly.variable("t")
    denominator = Series(-t_var, "q", cap)
    j = 0
    while comb(j + 1, 2) <= cap:
        term = (pochhammer_inverse_series(j, "q", cap)
                * (Poly.variable("q", comb(j + 1, 2)) * (t_var - 1) ** j))
        denominator = denominator + term
        j += 1
    by_q = denominator.body.coefficients_in("q")
    one_minus_t = 1 - t_var
    if by_q.get(0, Poly.zero()) != one_minus_t:
        raise DenominatorNotUnit(
            f"constant q-coefficient of the denominator is {by_q.get(0, Poly.zero())}, "
            "expected 1 - t")
    coefficients: list[Poly] = [Poly.one()]
    for n in range(1, cap + 1):
        rhs = Poly.zero()
        for m in range(1, n + 1):
            d_m = by_q.get(m)
            if d_m is not None:
                rhs = rhs - d_m * coefficients[n - m]
        coefficients.append(divexact(rhs, one_minus_t, "t"))
    total = Poly.zero()
    for n, coefficient in enumerate(coefficients):
        total = total + Poly.variable("q", n) * coefficient
    return Series(total, "q", cap)


def comaj_des_gf(k: int, cap: int) -> Series:
    """Series in p, exact in (q, t): coefficient of p^n q^c t^d counts
    k-compositions of n with comajor index c and d descents."""
    check_size("comaj_des", "k", k)
    from . import permutations

    dist = permutations.statistic_distribution(k, ("maj", "imaj", "ides"), ("p", "q", "t"))
    return _leading_over_pochhammer(k, "p", cap) * dist


def joint_gf(k: int, cap: int) -> Series:
    """The five-variable closed form over k-compositions.

    Coefficient of p^n q^a t^b u^c v^d counts k-compositions of n with a
    inversions, comajor index b, major index c, and d descents.  Computed
    from the matching inverse statistics over S_k behind the k-partition
    size series.
    """
    check_size("joint", "k", k)
    from . import permutations

    dist = permutations.statistic_distribution(
        k, ("maj", "inv", "imaj", "icomaj", "ides"), ("p", "q", "t", "u", "v"))
    return _leading_over_pochhammer(k, "p", cap) * dist


def inversion_totals(cap: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Total inversion counts, read off the k-part series :func:`inv_gf`: n -> inversions
    over all compositions of n (the sum of its k-part totals), and (n, k) -> inversions
    over all k-compositions of n (1 <= k <= n)."""
    check_size("table", "cap", cap)
    by_nk = {(n, k): 0 for k in range(1, cap + 1) for n in range(k, cap + 1)}
    for k in range(1, cap + 1):
        for (n, r), count in _series_entries(inv_gf(k, cap), "p", "q").items():
            by_nk[(n, k)] += r * count
    by_n = {n: sum(by_nk[(n, k)] for k in range(1, n + 1)) for n in range(cap + 1)}
    return by_n, by_nk


# ---------------------------------------------------------------------------
# Identity verifications
# ---------------------------------------------------------------------------

def verify_product_expansion(max_t: int, cap: int) -> bool:
    """Check the two-alphabet product expansion against the hook-sum closed form.

    Expands prod over 0 <= a, b <= cap of 1/(1 - p^a q^b t) as a series
    truncated at (t^max_t, p^cap, q^cap) and compares the coefficient of t^k
    with the hook-sum polynomial divided by both Pochhammer products, for
    every k <= max_t.  The (a, b) = (0, 0) factor contributes the geometric
    series in t alone.
    """
    caps = {"p": cap, "q": cap, "t": max_t}
    product = Poly.one()
    for a in range(cap + 1):
        for b in range(cap + 1):
            factor_terms = {}
            j = 0
            while j <= max_t and a * j <= cap and b * j <= cap:
                factor_terms[(a * j, b * j, j, 0, 0)] = 1
                j += 1
            product = (product * Poly(factor_terms)).truncate(caps)
    by_t = product.coefficients_in("t")
    for k in range(max_t + 1):
        closed = (maj_inv_poly(k)
                  * pochhammer_inverse_series(k, "p", cap).body
                  * pochhammer_inverse_series(k, "q", cap).body)
        if by_t.get(k, Poly.zero()) != closed.truncate({"p": cap, "q": cap}):
            return False
    return True


def verify_q_eulerian_gf(max_order: int) -> bool:
    """Check the exponential generating identity for the q-Eulerian polynomials.

    With the denominator cleared and coefficients of z^m compared, the
    identity reduces to, for every m >= 1:

        sum_{j=0..m} q^C(j,2) (t-1)^j gauss(m, j) A_{m-j}(q, t)  =  t A_m(q, t)

    where A_i is :func:`q_eulerian_poly`.  Pure polynomial arithmetic.
    """
    t_minus_one = Poly.variable("t") - 1
    for m in range(1, max_order + 1):
        lhs = Poly.zero()
        for j in range(m + 1):
            lhs = lhs + (Poly.variable("q", comb(j, 2))
                         * t_minus_one ** j
                         * gaussian_binomial(m, j)
                         * q_eulerian_poly(m - j))
        if lhs != Poly.variable("t") * q_eulerian_poly(m):
            return False
    return True


def verify_composition_count_identity(k: int, cap: int) -> bool:
    """Check q^k/(1-q)^k = [k]_q! q^k/(q)_k as series truncated at ``cap``.

    The left side generates k-composition counts by size; the right side is
    the maj distribution over S_k times the k-partition size series.
    """
    lhs = Series.one("q", cap)
    for _ in range(k):
        lhs = lhs * geometric_series({"q": 1}, "q", cap)
    lhs = lhs * Poly.variable("q", k)
    rhs = (pochhammer_inverse_series(k, "q", cap)
           * (q_factorial(k) * Poly.variable("q", k)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------

class DistTable:
    """Triangle of counts: (n, r) -> number of compositions of n with r
    inversions (ic kinds) or r descents (dc kinds), optionally for a fixed
    part count k (all zero when k exceeds the cap).

    Immutable; equal when all four fields are equal; the repr omits ``entries``.
    """

    __slots__ = ("kind", "cap", "k", "entries")

    def __init__(self, kind: str, cap: int, k: int | None,
                 entries: dict[tuple[int, int], int]) -> None:
        for name, value in zip(self.__slots__, (kind, cap, k, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable DistTable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable DistTable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"DistTable(kind={self.kind!r}, cap={self.cap!r}, k={self.k!r})"

    @classmethod
    def inversions(cls, cap: int, k: int | None = None) -> DistTable:
        check_size("table", "cap", cap)
        series = inv_gf_total(cap) if k is None else _k_part_series(inv_gf, k, cap, "p")
        kind = "ic_n" if k is None else "ic_nk"
        return cls(kind=kind, cap=cap, k=k, entries=_series_entries(series, "p", "q"))

    @classmethod
    def descents(cls, cap: int, k: int | None = None) -> DistTable:
        check_size("table", "cap", cap)
        series = des_gf_total(cap) if k is None else _k_part_series(des_gf, k, cap, "q")
        kind = "dc_n" if k is None else "dc_nk"
        return cls(kind=kind, cap=cap, k=k, entries=_series_entries(series, "q", "t"))

    def count(self, n: int, r: int) -> int:
        return self.entries.get((n, r), 0)

    def max_r(self, n: int | None = None) -> int:
        """Largest r with a nonzero count, in row n or in the whole table; -1 if none."""
        candidates = [r for (row_n, r), c in self.entries.items()
                      if c and (n is None or row_n == n)]
        return max(candidates, default=-1)

    def row(self, n: int) -> list[int]:
        """Counts for r = 0 .. last nonzero r of row n (at least one value)."""
        top = max(self.max_r(n), 0)
        return [self.count(n, r) for r in range(top + 1)]

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(n, r, self.entries[(n, r)]) for n, r in sorted(self.entries)]

    def to_csv(self, dense: bool = False) -> str:
        """CSV with header n,r,count; ``dense`` pads every row with explicit zeros."""
        lines = ["n,r,count"]
        if dense:
            top = max(self.max_r(), 0)
            for n in range(self.cap + 1):
                for r in range(top + 1):
                    lines.append(f"{n},{r},{self.count(n, r)}")
        else:
            for n, r, count in self.sorted_entries():
                lines.append(f"{n},{r},{count}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "cap": self.cap,
            "entries": [[n, r, str(count)] for n, r, count in self.sorted_entries()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _k_part_series(gf, k: int, cap: int, size_var: str) -> Series:
    """gf(k, cap), or zero when k > cap: every k-composition has size >= k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return gf(k, cap) if k <= cap else Series(Poly.zero(), size_var, cap)


def _series_entries(series: Series, size_var: str, stat_var: str) -> dict[tuple[int, int], int]:
    entries: dict[tuple[int, int], int] = {}
    for size, sub_poly in series.body.coefficients_in(size_var).items():
        for stat, constant in sub_poly.coefficients_in(stat_var).items():
            entries[(size, stat)] = constant.coeff()
    return entries
