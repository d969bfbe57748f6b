"""Classical statistics of integer tuples: inversions, descents, maj, comaj.

These apply uniformly to permutations and to compositions (repetitions
allowed).  Positions are 1-based throughout, matching the usual combinatorial
conventions.  :data:`STATISTICS` names them; :mod:`.permutations` and
:mod:`.compositions` extend it with their own statistics.  :func:`tally` counts objects
by the values of any statistics, and :func:`distribution` turns those counts into a
polynomial, the statistics named from such a table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

# only distribution builds a Poly, so only it imports polynomial, when called:
# bij and the suites that compare no polynomials never compile it
TYPE_CHECKING = False  # typing's flag, without importing typing
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


def descent_stats(seq: Sequence[int]) -> tuple[int, int, int]:
    """(des, maj, comaj) in one pass: the descent count, the sum of the descent positions i
    and the sum of k - i over them, where k is the tuple length."""
    des = maj = 0
    for i in range(1, len(seq)):
        if seq[i - 1] > seq[i]:
            des += 1
            maj += i
    return des, maj, len(seq) * des - maj


def descent_number(seq: Sequence[int]) -> int:
    return descent_stats(seq)[0]


def major_index(seq: Sequence[int]) -> int:
    """Sum of the descent positions."""
    return descent_stats(seq)[1]


def comajor_index(seq: Sequence[int]) -> int:
    """Sum of k - i over descent positions i, where k is the tuple length."""
    return descent_stats(seq)[2]


Statistic = Callable[[Sequence[int]], int]

# statistic name -> its value on an integer tuple
STATISTICS: dict[str, Statistic] = {
    "inv": inversions,
    "des": descent_number,
    "maj": major_index,
    "comaj": comajor_index,
}


def tally(objects: Iterable[Sequence[int]], measures: Sequence[Statistic]
          ) -> dict[tuple[int, ...], int]:
    """How many of ``objects`` give each tuple of values of ``measures``."""
    counts: dict[tuple[int, ...], int] = {}
    for obj in objects:
        values = tuple([measure(obj) for measure in measures])
        counts[values] = counts.get(values, 0) + 1
    return counts


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
    counts = tally(objects, [table[stat] for stat in stats])
    # distinct variables send distinct value tuples to distinct monomials
    return Poly({monomial_key(dict(zip(variables, values))): count
                 for values, count in counts.items()})
