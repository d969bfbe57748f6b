"""Integer partitions, Young diagrams, hook lengths, and tableau counting.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  Enumeration is reverse-lexicographic so
output order is stable across runs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import factorial, prod
from typing import TYPE_CHECKING

from .errors import InexactDivision, check_partition, check_size
from .qanalog import q_multinomial, q_quotient

# the hook kernel reads hook_quotient's lists, so syt_count_q alone imports polynomial, when called
if TYPE_CHECKING:
    from .polynomial import Poly

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


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


def b_statistic(shape: Sequence[int]) -> int:
    """sum_i (i - 1) * shape_i; the minimal major index of a tableau of this shape."""
    return sum(i * part for i, part in enumerate(check_partition(shape)))


def syt_count(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given shape (hook-length formula)."""
    hooks = [h for row in hook_lengths(shape) for h in row]
    n, product = len(hooks), prod(hooks)
    count, remainder = divmod(factorial(n), product)
    if remainder:
        raise InexactDivision(f"hook product {product} does not divide {n}!")
    return count


def hook_quotient(shape: Sequence[int]) -> list[int]:
    """The coefficients of syt_count_q / q^b: [n]_q! / prod [h(u)]_q = (q)_n / prod (1 - q^h(u))."""
    hooks = [h for row in hook_lengths(shape) for h in row]
    try:
        return q_quotient(range(1, len(hooks) + 1), hooks)
    except InexactDivision:
        raise InexactDivision(
            f"the hook product of {tuple(shape)} does not divide [{len(hooks)}]_q!") from None


def syt_count_q(shape: Sequence[int]) -> Poly:
    """q-analog of syt_count: q^b(shape) [n]_q! / prod [h(u)]_q."""
    from .polynomial import from_coefficients

    return from_coefficients([0] * b_statistic(shape) + hook_quotient(shape), "q")


def q_eulerian_weight(shape: Sequence[int]) -> Poly:
    """l! [n]_q! / prod_i (m_i! ([i]_q!)^m_i) over the part multiplicities m_i.

    This is the weight a partition carries in the partition-indexed formula
    for the joint (inv, des) distribution over permutations.
    """
    shape = check_partition(shape)
    arrangements = factorial(len(shape))
    for mult in Counter(shape).values():
        arrangements //= factorial(mult)
    return arrangements * q_multinomial(shape)


def enumerate_standard_tableaux(shape: Sequence[int]) -> list[Tableau]:
    """All standard fillings of the shape, entries 1..n increasing along rows and columns."""
    shape = check_partition(shape)
    n = sum(shape)
    check_size("tableaux", "shape size", n)
    results: list[Tableau] = []
    rows: list[list[int]] = [[] for _ in shape]

    def place(value: int) -> None:
        if value > n:
            results.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            if i and len(rows[i - 1]) <= len(row):
                continue
            row.append(value)
            place(value + 1)
            row.pop()

    place(1)
    return results


def tableau_descents(tableau: Tableau) -> tuple[int, ...]:
    """Entries i whose successor i+1 sits in a strictly lower row."""
    row_of: dict[int, int] = {}
    for i, row in enumerate(tableau):
        for value in row:
            row_of[value] = i
    n = len(row_of)
    return tuple(i for i in range(1, n) if row_of[i + 1] > row_of[i])


def tableau_major_index(tableau: Tableau) -> int:
    return sum(tableau_descents(tableau))
