"""Integer compositions, their statistics, and the composition <-> (permutation, partition) bijection.

A composition is a tuple of positive integers; the empty tuple is the unique
composition of 0.  ``compositions_of`` enumerates in colexicographic order so
results are deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations
from operator import sub

from . import statistics
from .errors import LengthMismatch, check_nonnegative, check_partition, check_size
from .permutations import Permutation, check_permutation

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .polynomial import Series

Composition = tuple[int, ...]

# statistic name -> its value on a composition
STATISTICS = {"sum": sum, **statistics.STATISTICS}


def check_composition(sigma: Sequence[int]) -> Composition:
    sigma = tuple(sigma)
    if any(part < 1 for part in sigma):
        raise ValueError(f"composition parts must be positive, got {sigma}")
    return sigma


def compositions_of(n: int, k: int) -> Iterator[Composition]:
    """All k-part compositions of n, colexicographically (last part varies slowest)."""
    check_size("compositions", "n", n)
    check_nonnegative("k", k)
    if not 0 < k <= n:
        return iter([()] if n == k else [])
    # decreasing cut points come in colex order of the compositions they cut
    return (tuple(map(sub, (n, *cuts), (*cuts, 0)))[::-1]
            for cuts in combinations(range(n - 1, 0, -1), k - 1))


def all_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n across every part count (just () for n = 0)."""
    for k in range(n + 1):
        yield from compositions_of(n, k)


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated part list such as "4,2,1,2,1,5,3"."""
    stripped = text.strip()
    if not stripped:
        return ()
    # int() would also take signs, "_" separators and non-ASCII digits
    pieces = [piece.strip() for piece in stripped.split(",")]
    if not all(piece.isascii() and piece.isdigit() for piece in pieces):
        raise ValueError(f"malformed composition literal {text!r}")
    return check_composition(map(int, pieces))


def format_composition(sigma: Sequence[int]) -> str:
    return ",".join(str(part) for part in sigma)


CompositionStats = namedtuple("CompositionStats", (*STATISTICS, "descent_set"))


def composition_stats(sigma: Sequence[int]) -> CompositionStats:
    """Every statistic of :data:`STATISTICS` and the descent set."""
    sigma = check_composition(sigma)
    return CompositionStats(*(statistic(sigma) for statistic in STATISTICS.values()),
                            statistics.descent_set(sigma))


def reversed_composition(sigma: Sequence[int]) -> Composition:
    return tuple(reversed(check_composition(sigma)))


def sorting_permutation(sigma: Sequence[int]) -> Permutation:
    """The unique permutation sorting sigma weakly decreasingly, ties by increasing index."""
    return _sorting_permutation(check_composition(sigma))


def _sorting_permutation(sigma: Composition) -> Permutation:
    # a stable sort, reversed or not, keeps tied parts in increasing index order
    return tuple(sorted(range(1, len(sigma) + 1), key=(0, *sigma).__getitem__, reverse=True))


def _descent_shifts(pi: Permutation) -> list[int]:
    """For every position j of pi, the number of descents of pi at positions >= j."""
    shifts = [0] * len(pi)
    for i in range(len(pi) - 2, -1, -1):
        shifts[i] = shifts[i + 1] + (pi[i] > pi[i + 1])
    return shifts


def macmahon_forward(sigma: Sequence[int]) -> tuple[Permutation, tuple[int, ...]]:
    """Map a composition to its (sorting permutation, partition) pair.

    Sorting sigma weakly decreasingly gives mu; subtracting from each mu_j
    the number of descents of the sorting permutation at positions >= j
    yields a partition with |partition| + maj(permutation) = |sigma|.
    """
    sigma = check_composition(sigma)
    pi = _sorting_permutation(sigma)
    lam = tuple([sigma[i - 1] - shift for i, shift in zip(pi, _descent_shifts(pi))])
    return pi, check_partition(lam)


def macmahon_inverse(pi: Sequence[int], lam: Sequence[int]) -> Composition:
    """Reconstruct the unique composition mapping to (pi, lam).

    Adds back, at position j, the number of descents of pi at positions >= j,
    then undoes the sort by sending position j to pi_j.
    """
    pi = check_permutation(pi)
    lam = check_partition(lam)
    if len(pi) != len(lam):
        raise LengthMismatch(
            f"permutation size {len(pi)} != partition length {len(lam)}")
    sigma = [0] * len(pi)
    for position, part, shift in zip(pi, lam, _descent_shifts(pi)):
        sigma[position - 1] = part + shift
    if any(part < 1 for part in sigma):
        raise ValueError(f"reconstruction produced nonpositive parts: {tuple(sigma)}")
    return tuple(sigma)


def statistic_distribution(k: int, cap: int, stats: Sequence[str],
                           variables: Sequence[str]) -> Series:
    """Joint distribution over all k-part compositions with sum <= cap, by brute force.

    ``stats`` must contain "sum"; its variable becomes the series cap variable.
    """
    from .polynomial import Series

    check_size("compositions", "cap", cap)
    if "sum" not in stats:
        raise ValueError('the "sum" statistic is required to anchor the truncation')
    check_nonnegative("k", k)
    objects = (sigma for n in range(k, cap + 1) for sigma in compositions_of(n, k))
    body = statistics.distribution(objects, stats, variables, STATISTICS)
    return Series(body, variables[list(stats).index("sum")], cap)
