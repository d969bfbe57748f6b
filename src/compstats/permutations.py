"""Permutations of {1..k} in one-line notation, their statistics, and the Foata bijection."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import permutations as _itertools_permutations
from typing import TYPE_CHECKING

from . import statistics
from .errors import check_size

if TYPE_CHECKING:
    from .polynomial import Poly

Permutation = tuple[int, ...]


def check_permutation(pi: Sequence[int]) -> Permutation:
    pi = tuple(pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return pi


def format_permutation(pi: Sequence[int]) -> str:
    """Digit string for sizes up to 9 (e.g. "6172435"), comma-separated beyond."""
    if len(pi) <= 9:
        return "".join(str(value) for value in pi)
    return ",".join(str(value) for value in pi)


def inverse_permutation(pi: Sequence[int]) -> Permutation:
    """Position map: result[i-1] = j where pi[j-1] = i."""
    pi = check_permutation(pi)
    inverse = [0] * len(pi)
    for position, value in enumerate(pi, start=1):
        inverse[value - 1] = position
    return tuple(inverse)


# imaj, ides and icomaj: maj, des and comaj of the inverse permutation
_ON_INVERSE = ("maj", "des", "comaj")


def _on_inverse(statistic: statistics.Statistic) -> statistics.Statistic:
    return lambda pi: statistic(inverse_permutation(pi))


# statistic name -> its value on a permutation
STATISTICS = {
    **statistics.STATISTICS,
    **{f"i{name}": _on_inverse(statistics.STATISTICS[name]) for name in _ON_INVERSE},
}

PermutationStats = namedtuple("PermutationStats", (*STATISTICS, "descent_set"))


def permutation_stats(pi: Sequence[int]) -> PermutationStats:
    """Every statistic of :data:`STATISTICS` and the descent set; the inverse is taken once."""
    pi = check_permutation(pi)
    inverse = inverse_permutation(pi)
    return PermutationStats(
        *(statistic(pi) for statistic in statistics.STATISTICS.values()),
        *(statistics.STATISTICS[name](inverse) for name in _ON_INVERSE),
        statistics.descent_set(pi),
    )


def all_permutations(k: int) -> Iterator[Permutation]:
    """All k! permutations in lexicographic one-line order."""
    check_size("permutations", "k", k)
    return _itertools_permutations(range(1, k + 1))


def foata(pi: Sequence[int]) -> Permutation:
    """The Foata transform: sends the major index to the inversion number.

    Processing the word left to right, each new letter x splits the prefix
    image into blocks ending at letters smaller (or larger, if the last
    letter exceeds x) than x; every block is cycled one step to the right
    before x is appended.  Beyond maj -> inv, the transform preserves the
    descent set of the inverse permutation.
    """
    pi = check_permutation(pi)
    image = list(pi[:1])
    for x in pi[1:]:
        low = image[-1] < x
        rebuilt: list[int] = []
        block: list[int] = []
        # a letter on the side of x that image[-1] is on ends a block and moves
        # to the block's front; image[-1] itself closes the last block
        for y in image:
            if (y < x) is low:
                rebuilt.append(y)
                rebuilt += block
                block = []
            else:
                block.append(y)
        rebuilt.append(x)
        image = rebuilt
    return tuple(image)


def foata_inverse(pi: Sequence[int]) -> Permutation:
    """Exact inverse of :func:`foata`."""
    word = list(check_permutation(pi))
    tail: list[int] = []
    while len(word) > 1:
        x = word.pop()
        tail.append(x)
        low = word[0] < x
        # blocks start at each letter on the side of x that word[0] is on;
        # cycle each one step left
        rebuilt: list[int] = []
        letters = iter(word)
        head = next(letters)
        for y in letters:
            if (y < x) is low:
                rebuilt.append(head)
                head = y
            else:
                rebuilt.append(y)
        rebuilt.append(head)
        word = rebuilt
    tail.extend(word)
    return tuple(reversed(tail))


def statistic_distribution(k: int, stats: Sequence[str], variables: Sequence[str]) -> Poly:
    """Joint distribution polynomial sum over S_k of prod var_i^stat_i, by brute force."""
    return statistics.distribution(all_permutations(k), stats, variables, STATISTICS)
