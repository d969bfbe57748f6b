"""Classical statistics of integer tuples: inversions, descents, maj, comaj.

These apply uniformly to permutations and to compositions (repetitions
allowed).  Positions are 1-based throughout, matching the usual combinatorial
conventions.  :data:`STATISTICS` names them; :mod:`.permutations` and
:mod:`.compositions` extend it with their own statistics, and
:func:`distribution` counts objects by any names of such a table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

# only distribution builds a Poly, so only it imports polynomial, when called:
# bij and the suites that compare no polynomials never compile it
if TYPE_CHECKING:
    from .polynomial import Poly


def inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    count = 0
    for i, a in enumerate(seq, start=1):
        for b in seq[i:]:
            if a > b:
                count += 1
    return count


def descent_set(seq: Sequence[int]) -> tuple[int, ...]:
    """1-based positions i with seq[i] > seq[i+1], in increasing order."""
    return tuple([i for i in range(1, len(seq)) if seq[i - 1] > seq[i]])


def descent_number(seq: Sequence[int]) -> int:
    return len(descent_set(seq))


def major_index(seq: Sequence[int]) -> int:
    """Sum of the descent positions."""
    return sum(descent_set(seq))


def comajor_index(seq: Sequence[int]) -> int:
    """Sum of k - i over descent positions i, where k is the tuple length."""
    k = len(seq)
    return sum(k - i for i in descent_set(seq))


Statistic = Callable[[Sequence[int]], int]

# statistic name -> its value on an integer tuple
STATISTICS: dict[str, Statistic] = {
    "inv": inversions,
    "des": descent_number,
    "maj": major_index,
    "comaj": comajor_index,
}


def distribution(objects: Iterable[Sequence[int]], stats: Sequence[str],
                 variables: Sequence[str], table: Mapping[str, Statistic]) -> Poly:
    """Sum over ``objects`` of prod var_i^stat_i, the statistics looked up by name in ``table``."""
    from .polynomial import Poly, monomial_key

    if len(stats) != len(variables):
        raise ValueError("need exactly one variable per statistic")
    if len(set(variables)) != len(variables):
        raise ValueError("statistic variables must be distinct")
    for stat in stats:
        if stat not in table:
            raise ValueError(f"unknown statistic {stat!r}; expected one of {tuple(table)}")
    measured = [(var, table[stat]) for stat, var in zip(stats, variables)]
    accumulator: dict = {}
    for obj in objects:
        key = monomial_key({var: statistic(obj) for var, statistic in measured})
        accumulator[key] = accumulator.get(key, 0) + 1
    return Poly(accumulator)
