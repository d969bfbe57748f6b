"""Closed-form distributions of inversions and descents over compositions.

The closed forms here are partition-indexed sums and truncated
generating-function expansions; every one of them has a brute-force
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

import sys
from collections.abc import Iterable
from itertools import count, zip_longest
from math import comb
from operator import mul

from .errors import check_nonnegative, check_size
from .partitions import hook_quotient, partitions_of
from .qanalog import over_pochhammer, pochhammer_inverse_series

# the tables and totals work on packed ints, so only the functions that return a Poly or a
# Series import polynomial, when called: a table call never compiles it
TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .polynomial import Poly, Series

# A packed polynomial is one int, sum_e c_e 2^(SLOT_BITS e). Packing is a ring map, so packed
# sums and products stay exact; unpack reads back results with coefficients in [0, 2^SLOT_BITS).
SLOT_BITS = 64  # fixed, not a setting: unpack reads each slot as one 8-byte "Q" word


def pack(coefficients: Iterable[int]) -> int:
    return sum(c << (SLOT_BITS * e) for e, c in enumerate(coefficients))


def unpack(packed: int) -> list[int]:
    """The coefficients of a packed polynomial, up to its last nonzero one."""
    words = packed.to_bytes(-(-packed.bit_length() // SLOT_BITS) * (SLOT_BITS // 8), sys.byteorder)
    return memoryview(words).cast("Q").tolist()[::1 if sys.byteorder == "little" else -1]


# ---------------------------------------------------------------------------
# Closed forms over permutations
# ---------------------------------------------------------------------------

def _hook_sum(k: int, max_p: int) -> tuple[int, ...]:
    """The hook sum of :func:`maj_inv_poly` cut at p^max_p, packed: entry a is the q-polynomial
    of p^a, the sum over shapes of f[a] pack(f) with f = syt_count_q(shape).  As f(p) =
    p^b(shape) (1 + ...), only the shapes with b(shape) <= max_p count.  Each shape of k >= 1 is
    (k - m, mu) with mu a partition of m < k and mu_1 <= k - m, and b = m + b(mu) >= m, so the
    walk lists the partitions of m <= min(k - 1, max_p) only."""
    if k == 0:
        return (1,)
    kernel = [0] * (max_p + 1)
    for m in range(min(k - 1, max_p) + 1):
        for mu in partitions_of(m):
            if mu and mu[0] > k - m:
                continue
            b = sum(i * part for i, part in enumerate(mu, start=1))  # m + b(mu)
            if b <= max_p:
                f = hook_quotient((k - m, *mu))
                packed = pack(f) << (SLOT_BITS * b)
                for a, c in enumerate(f[:max_p - b + 1], start=b):
                    kernel[a] += c * packed
    return tuple(kernel)


def maj_inv_poly(k: int) -> Poly:
    """Joint (maj, inv) distribution over S_k, in (p, q), as a hook-length partition sum.

    Equals sum over partitions of k of the product of the two single-variable
    tableau-counting polynomials; the constant 1 for k = 0.  k is capped at LIMITS["hk"].
    """
    check_size("hk", "k", k)
    return _poly(map(unpack, _hook_sum(k, comb(k, 2))), "p", "q")


def _q_eulerian_sum(k: int, max_q: int) -> tuple[int, ...]:
    """The partition sum of :func:`q_eulerian_poly` with every weight cut at q^max_q, packed:
    entry a is the t-polynomial of q^a.  A shape with j parts carries j!/prod m_i! times its
    q-multinomial, so the weights of the j-part shapes sum to the q-multinomials of the j-part
    compositions of k: W[k][j], with W[s][j] = sum_c W[s-c][j-1] gauss(s, c) packed in q and
    cut at q^max_q.  Each W[k][j] then multiplies the packed t^(j-1) (1-t)^(k-j) once.  The
    mask drops only higher slots: within the limits a kept coefficient stays below 2^28."""
    mask = (1 << (SLOT_BITS * (max_q + 1))) - 1
    gauss, weights = [1], [[1]]  # gauss(s, c) by the q-Pascal rule; weights[s][j] = W[s][j]
    for s in range(1, k + 1):
        gauss = [1] + [(gauss[c - 1] + (gauss[c] << (SLOT_BITS * c))) & mask for c in range(1, s)] + [1]
        weights.append([0] + [sum(weights[s - c][j - 1] * gauss[c] for c in range(1, s - j + 2)) & mask
                              for j in range(1, s + 1)])
    factors = [pack([1, -1]) ** (k - j) << (SLOT_BITS * (j - 1)) for j in range(1, k + 1)]
    return tuple(sum(map(mul, factors, row))
                 for row in zip_longest(*map(unpack, weights[k][1:]), fillvalue=0)) or (1,)


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

_count_rows: dict = {}  # (kernel, k or None for all k) -> the rows at the widest cap built yet


def _counts(kernel, cap: int, k: int | None) -> tuple[tuple[int, ...], ...]:
    """Row n lists the counts of the (k-)compositions of n by the kernel's statistic r, up to
    the last nonzero one.  The k-compositions contribute x^k K_k / (x)_k: the kernel K_k, cut at
    min(cap - k, C(k, 2)) (its degree is C(k, 2)) and padded to cap - k + 1 entries, is divided
    by (x)_k in place; rows n < k are empty, so for k > cap all are, with no memo entry.  Row n
    reads K_k up to x^(n-k) only and the division is causal, so a smaller cap reads a prefix of
    the memoised rows; a larger one builds them again.  Packed counts stay below 2^(cap-1) <
    2^SLOT_BITS.  The all-k rows sum the rows of k = 0..cap, so they leave those in the memo.
    The rows are shared: callers read them, never copy them."""
    check_size("table", "cap", cap)
    rows = _count_rows.get((kernel, k), ())
    if cap < len(rows):
        return rows[:cap + 1]
    if k is None:
        by_k = [_counts(kernel, cap, j) for j in range(cap + 1)]
        rows = tuple(tuple(map(sum, zip_longest(*per_n, fillvalue=0))) for per_n in zip(*by_k))
    else:
        check_nonnegative("k", k)
        if k > cap:
            return ((),) * (cap + 1)
        kern = kernel(k, min(cap - k, comb(k, 2)))
        series = over_pochhammer(list(kern) + [0] * (cap - k + 1 - len(kern)), k)
        rows = ((),) * k + tuple(map(tuple, map(unpack, series)))
    _count_rows[kernel, k] = rows
    return rows


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
    check_size(limit, "k", k)
    size_series = pochhammer_inverse_series(k, "p", cap)  # refuses a negative cap first
    from . import permutations
    from .polynomial import Poly

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


def inversion_totals(cap: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Total inversion counts, read off the k-part rows of :func:`inv_gf`: n -> inversions
    over all compositions of n (the sum of its k-part totals), and (n, k) -> inversions
    over all k-compositions of n (1 <= k <= n)."""
    check_size("table", "cap", cap)
    by_n, by_nk = dict.fromkeys(range(cap + 1), 0), {}
    for k in range(1, cap + 1):
        for n, row in enumerate(_counts(_hook_sum, cap, k)[k:], start=k):
            by_nk[n, k] = total = sum(map(mul, count(), row))
            by_n[n] += total
    return by_n, by_nk


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------

class DistTable:
    """Triangle of counts: rows[n][r] is the number of compositions of n with r
    inversions (ic kinds) or r descents (dc kinds), optionally for a fixed part
    count k (all zero when k exceeds the cap).  Row n = 0..cap runs to its last
    nonzero count, so an all-zero row is empty; reads outside the rows give 0.

    Immutable; equal when all four fields are equal; the repr omits ``rows``.
    """

    _FIELDS = ("kind", "cap", "k", "rows")
    __slots__ = _FIELDS

    def __init__(self, kind: str, cap: int, k: int | None,
                 rows: tuple[tuple[int, ...], ...]) -> None:
        for name, value in zip(self._FIELDS, (kind, cap, k, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable DistTable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable DistTable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        return f"DistTable(kind={self.kind!r}, cap={self.cap!r}, k={self.k!r})"

    @classmethod
    def inversions(cls, cap: int, k: int | None = None) -> DistTable:
        return cls._read("ic", _hook_sum, cap, k)

    @classmethod
    def descents(cls, cap: int, k: int | None = None) -> DistTable:
        return cls._read("dc", _q_eulerian_sum, cap, k)

    @classmethod
    def _read(cls, kind: str, kernel, cap: int, k: int | None) -> DistTable:
        return cls(f"{kind}_n" if k is None else f"{kind}_nk", cap, k, _counts(kernel, cap, k))

    def _row(self, n: int) -> tuple[int, ...]:
        return self.rows[n] if 0 <= n < len(self.rows) else ()

    def count(self, n: int, r: int) -> int:
        row = self._row(n)
        return row[r] if 0 <= r < len(row) else 0

    def max_r(self, n: int | None = None) -> int:
        """Largest r with a nonzero count, in row n or in the whole table; -1 if none."""
        return (max(map(len, self.rows), default=0) if n is None else len(self._row(n))) - 1

    def row(self, n: int) -> list[int]:
        """Counts for r = 0 .. last nonzero r of row n (at least one value)."""
        return list(self._row(n)) or [0]

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        """(n, r, count) for every nonzero count, in order of n, then r."""
        return [(n, r, c) for n, row in enumerate(self.rows) for r, c in enumerate(row) if c]

    def to_csv(self, dense: bool = False) -> str:
        """CSV with header n,r,count; ``dense`` pads every row with explicit zeros."""
        if dense:
            width = max(self.max_r(), 0) + 1
            entries = [(n, r, self.count(n, r)) for n in range(self.cap + 1) for r in range(width)]
        else:
            entries = self.sorted_entries()
        return "n,r,count\n" + "".join(f"{n},{r},{c}\n" for n, r, c in entries)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "cap": self.cap,
            "entries": [[n, r, str(count)] for n, r, count in self.sorted_entries()],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj())
