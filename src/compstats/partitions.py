"""Tableau counting over Young diagrams: hook-length counts, their q-analogs, and tableaux.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  Their enumeration and hook lengths live in
:mod:`compstats.tables`, with the table path.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from math import factorial, prod

from .errors import InexactDivision, check_partition, check_size
from .qanalog import q_multinomial
# partitions_of is not used here: perfbench looks it up in this module
from .tables import hook_lengths, hook_quotient, partitions_of  # noqa: F401

# the hook kernel reads hook_quotient's lists, so syt_count_q alone imports polynomial, when called
TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .polynomial import Poly

Tableau = tuple[tuple[int, ...], ...]


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
