"""Everything a ``table`` call runs below the CLI: the count tables and the packed kernels.

Packed polynomials, partitions and their hook lengths, the in-place (1 - q^v) passes, the
hook-length and q-Eulerian kernels, the memoised count rows and :class:`DistTable` work on
ints and lists only, so a table call compiles this module and no ``Poly`` or ``Series`` code.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import count, zip_longest
from math import comb
from operator import mul

from .errors import InexactDivision, check_nonnegative, check_partition, check_size

Partition = tuple[int, ...]

# A packed polynomial is one int, sum_e c_e 2^(SLOT_BITS e). Packing is a ring map, so packed
# sums and products stay exact; unpack reads back results with coefficients in [0, 2^SLOT_BITS).
SLOT_BITS = 64  # fixed, not a setting: unpack reads each slot as one 8-byte "Q" word


def pack(coefficients: Iterable[int]) -> int:
    return sum(c << (SLOT_BITS * e) for e, c in enumerate(coefficients))


def unpack(packed: int) -> list[int]:
    """The coefficients of a packed polynomial, up to its last nonzero one."""
    words = packed.to_bytes(-(-packed.bit_length() // SLOT_BITS) * (SLOT_BITS // 8), sys.byteorder)
    return memoryview(words).cast("Q").tolist()[::1 if sys.byteorder == "little" else -1]


def _descending_parts(n: int, largest: int) -> Iterator[Partition]:
    """The partitions of n into parts at most ``largest``, the largest first part first."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _descending_parts(n - first, first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order; n has the table limit."""
    check_size("table", "n", n)
    return tuple(_descending_parts(n, n))


def conjugate(shape: Sequence[int]) -> Partition:
    shape = check_partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part > j) for j in range(shape[0]))


def hook_lengths(shape: Sequence[int]) -> list[list[int]]:
    """Hook lengths of each diagram cell: arm + leg + 1, row by row."""
    shape = check_partition(shape)
    cols = conjugate(shape)
    return [
        [(row_len - j - 1) + (cols[j] - i - 1) + 1 for j in range(row_len)]
        for i, row_len in enumerate(shape)
    ]


def hook_quotient(shape: Sequence[int]) -> list[int]:
    """The coefficients of syt_count_q / q^b: [n]_q! / prod [h(u)]_q = (q)_n / prod (1 - q^h(u))."""
    hooks = [h for row in hook_lengths(shape) for h in row]
    try:
        return q_quotient(range(1, len(hooks) + 1), hooks)
    except InexactDivision:
        raise InexactDivision(
            f"the hook product of {tuple(shape)} does not divide [{len(hooks)}]_q!") from None


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


def over_pochhammer(coefficients: list[int], n: int) -> list[int]:
    """Divide the power series ``coefficients`` in place by (x)_n = (1 - x)(1 - x^2)...(1 - x^n),
    keeping its length, and return it: one pass per part, and a part past the length is a no-op.
    Packed entries divide as plain ints do.  On [1, 0, 0, ...] entry m counts the partitions of m
    into parts at most n."""
    for part in range(1, min(n, len(coefficients) - 1) + 1):
        _over_one_minus(coefficients, part)
    return coefficients


def _hook_sum(k: int, max_p: int) -> tuple[int, ...]:
    """The hook sum of distributions.maj_inv_poly cut at p^max_p, packed: entry a is the
    q-polynomial of p^a, the sum over shapes of f[a] pack(f) with f = syt_count_q(shape).  As
    f(p) = p^b(shape) (1 + ...), only the shapes with b(shape) <= max_p count.  Each shape of
    k >= 1 is (k - m, mu) with mu a partition of m < k and mu_1 <= k - m, and b = m + b(mu) >= m,
    so the walk lists the partitions of m <= min(k - 1, max_p) only."""
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


def _q_eulerian_sum(k: int, max_q: int) -> tuple[int, ...]:
    """The partition sum of distributions.q_eulerian_poly with every weight cut at q^max_q,
    packed: entry a is the t-polynomial of q^a.  A shape with j parts carries j!/prod m_i! times
    its q-multinomial, so the weights of the j-part shapes sum to the q-multinomials of the
    j-part compositions of k: W[k][j], with W[s][j] = sum_c W[s-c][j-1] gauss(s, c) packed in q
    and cut at q^max_q.  Each W[k][j] then multiplies the packed t^(j-1) (1-t)^(k-j) once.  The
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


def inversion_totals(cap: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Total inversion counts, read off the k-part rows of distributions.inv_gf: n -> inversions
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
        width = max(self.max_r(), 0) + 1 if dense else 0
        return "n,r,count\n" + "".join(
            f"{n},{r},{c}\n" for n, row in enumerate(self.rows)
            for r, c in enumerate(row + (0,) * (width - len(row))) if c or dense)

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
