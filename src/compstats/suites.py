"""The checks behind ``compstats verify``: ``check_<suite>`` for each suite of ``cli.SUITES``.

Each check takes the bounds that ``cli.SUITES`` lists for its suite, in that
order, and returns ``(passed, detail)``.  Each imports what it runs: an
identity suite never loads the enumerations, an enumerating suite never loads
the closed forms, and only the suites that compare polynomials load
``polynomial``.  Only ``cli.cmd_verify`` imports this module.

The checks that test each object of an enumeration on its own (lemma, macmahon
and foata) run it through :func:`first_failure`, which splits the objects
between two processes where ``os.fork`` exists.  equidist, which counts its
objects, splits them through the same :func:`_in_two_processes`.  The forked
child sends only plain data: whether every object of its half passed, or its counts.
These four checks refuse a bound past its ``cli.SUITES`` limit before they test or count
anything.
"""

from __future__ import annotations

import os

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import TypeVar

    T = TypeVar("T")
    R = TypeVar("R")


def first_failure(objects: Callable[[], Iterable[T]], test: Callable[[T], str | None]
                  ) -> str | None:
    """The failure detail of the first object of ``objects()``, in its order, or None.

    ``objects`` returns a fresh enumeration at each call, and ``test`` returns a failure
    detail, or None for an object that passes.  Where ``os.fork`` exists, one child process
    tests the odd-numbered objects and this one the even-numbered ones, each enumerating
    on its own, and each tells only whether every object of its half passed.  Unless both
    did, this process makes one sequential pass over ``objects()``, so the result, or the
    exception raised, is the one a single pass gives.  A child that dies, exits nonzero or
    sends a malformed report raises ArithmeticError, and so does a sequential pass that
    finds no failure after a half failed.
    """
    split = hasattr(os, "fork")
    if split:
        def passes(start: int, step: int) -> bool:
            from itertools import islice

            try:
                return all(test(obj) is None for obj in islice(objects(), start, None, step))
            except Exception:  # the sequential pass raises it again
                return False

        mine, theirs = _in_two_processes(passes)
        if type(theirs) is not bool:
            raise _malformed(theirs)
        if mine and theirs:
            return None
    for obj in objects():
        detail = test(obj)
        if detail is not None:
            return detail
    if split:
        raise ArithmeticError("the objects failed when split between two processes and "
                              "passed in one pass")
    return None


def _in_two_processes(work: Callable[[int, int], R]) -> tuple[R, object]:
    """``work(0, 2)`` from this process and ``work(1, 2)``, ``marshal``led, from a child.

    The child is forked for its half and sends its result through a pipe, so the result
    must be plain data that ``marshal`` writes.  The child's result comes back unchecked:
    the caller checks its shape.  Both pipe ends are closed and the child is reaped
    whatever this process's half raises; a child that dies or exits nonzero, say when its
    half raises, or whose report does not decode raises ArithmeticError.
    """
    import marshal

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child: it never returns, whatever its half raises
        status = 1
        try:
            os.close(read_end)
            report = marshal.dumps(work(1, 2))
            while report:
                report = report[os.write(write_end, report):]
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(write_end)
        mine = work(0, 2)
        chunks = []
        while chunk := os.read(read_end, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        ending = f"signal {-status}" if status < 0 else f"exit status {status}"
        raise ArithmeticError(f"the process testing the odd-numbered objects ended with "
                              f"{ending} before it reported")
    report = b"".join(chunks)
    try:
        return mine, marshal.loads(report)
    except (EOFError, ValueError, TypeError):
        raise _malformed(report) from None


def _malformed(report: object) -> ArithmeticError:
    return ArithmeticError(f"the process testing the odd-numbered objects sent a malformed "
                           f"report {report!r:.80}")


def _check_bounds(suite: str, *values: int) -> None:
    """Refuse each bound of ``suite`` past the limit that ``cli.SUITES`` gives it."""
    from .cli import SUITES
    from .errors import check_size

    for (name, (_, limit)), value in zip(SUITES[suite].items(), values):
        check_size(limit, name, value)


def check_prod(max_t: int, cap: int) -> tuple[bool, str]:
    from . import oracles

    if not oracles.verify_product_expansion(max_t, cap):
        return False, f"product expansion differs within t-degrees 0..{max_t} (caps {cap},{cap})"
    return True, f"t-degrees 0..{max_t}, caps ({cap},{cap})"


def check_geneuler(max_order: int) -> tuple[bool, str]:
    from . import oracles

    if not oracles.verify_q_eulerian_gf(max_order):
        return False, f"q-Eulerian generating identity fails within orders 1..{max_order}"
    return True, f"orders 1..{max_order}"


def check_genfuncid(max_k: int, cap: int) -> tuple[bool, str]:
    from . import oracles

    for k in range(max_k + 1):
        if not oracles.verify_composition_count_identity(k, cap):
            return False, f"composition-count identity fails at k={k}, cap={cap}"
    return True, f"k 0..{max_k}, cap {cap}"


def check_lemma(max_n: int) -> tuple[bool, str]:
    from .compositions import (all_compositions, format_composition, reversed_composition,
                               sorting_permutation)
    from .permutations import inverse_permutation
    from .statistics import descent_stats, inversions

    _check_bounds("lemma", max_n)

    def test(sigma: tuple[int, ...]) -> str | None:
        pi = sorting_permutation(sigma)
        rev = reversed_composition(sigma)
        ides, imaj, icomaj = descent_stats(inverse_permutation(pi))
        des, maj, comaj = descent_stats(rev)
        pairs = (
            ("inv", inversions(pi), inversions(rev)),
            ("imaj=comaj^R", imaj, comaj),
            ("icomaj=maj^R", icomaj, maj),
            ("ides=des^R", ides, des),
        )
        for label, actual, expected in pairs:
            if actual != expected:
                return (f"sigma={format_composition(sigma)}: {label} "
                        f"expected {expected}, got {actual}")
        return None

    failure = first_failure(
        lambda: (sigma for n in range(max_n + 1) for sigma in all_compositions(n)), test)
    if failure is not None:
        return False, failure
    return True, f"all compositions with sum <= {max_n}"


def check_macmahon(max_n: int) -> tuple[bool, str]:
    from .compositions import (all_compositions, format_composition, macmahon_forward,
                               macmahon_inverse)
    from .statistics import major_index

    _check_bounds("macmahon", max_n)

    def test(sigma: tuple[int, ...]) -> str | None:
        pi, lam = macmahon_forward(sigma)
        n, maj = sum(sigma), major_index(pi)
        if sum(lam) + maj != n:
            return (f"sigma={format_composition(sigma)}: "
                    f"|lambda| + maj = {sum(lam)} + {maj} != {n}")
        back = macmahon_inverse(pi, lam)
        if back != sigma:
            return f"sigma={format_composition(sigma)}: round-trip gave {format_composition(back)}"
        return None

    failure = first_failure(
        lambda: (sigma for n in range(max_n + 1) for sigma in all_compositions(n)), test)
    if failure is not None:
        return False, failure
    return True, f"all compositions with sum <= {max_n}"


def check_jointstat(max_k: int, cap: int) -> tuple[bool, str]:
    from . import distributions
    from .compositions import statistic_distribution as composition_distribution
    from .polynomial import VARIABLES

    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(max_k + 1):
        closed = distributions.joint_gf(k, cap)
        brute = composition_distribution(k, cap, stats, variables)
        if closed != brute:
            difference = _first_count_difference(dict(closed.body.terms()),
                                                 dict(brute.body.terms()), VARIABLES)
            return False, f"k={k}, cap={cap}: {difference}"
    return True, f"k 0..{max_k}, cap {cap}"


def _inverse_descent_set(pi: tuple[int, ...]) -> tuple[int, ...]:
    """The descent set of the inverse of pi: i is in it when i + 1 stands left of i in pi."""
    where = [0] * (len(pi) + 1)
    for position, value in enumerate(pi):
        where[value] = position
    return tuple([i for i in range(1, len(pi)) if where[i] > where[i + 1]])


def check_foata(max_k: int) -> tuple[bool, str]:
    from .permutations import all_permutations, foata, foata_inverse, format_permutation
    from .statistics import inversions, major_index

    _check_bounds("foata", max_k)

    # foata checks pi and foata_inverse checks the image: one validation per permutation
    def test(pi: tuple[int, ...]) -> str | None:
        image = foata(pi)
        maj, inv = major_index(pi), inversions(image)
        if maj != inv:
            return f"pi={format_permutation(pi)}: maj {maj} != inv(foata) {inv}"
        before, after = _inverse_descent_set(pi), _inverse_descent_set(image)
        if before != after:
            return f"pi={format_permutation(pi)}: inverse descent set {before} became {after}"
        if foata_inverse(image) != pi:
            return f"pi={format_permutation(pi)}: foata round-trip failed"
        return None

    failure = first_failure(
        lambda: (pi for k in range(max_k + 1) for pi in all_permutations(k)), test)
    if failure is not None:
        return False, failure
    return True, f"S_k for k 0..{max_k}"


def check_equidist(max_k: int, cap: int) -> tuple[bool, str]:
    from itertools import chain, islice

    from . import compositions, permutations
    from .statistics import tally

    _check_bounds("equidist", max_k, cap)
    comp_max_k = min(max_k, 5)
    # one joint count per k, over S_k by (imaj, maj, inv) and over the k-part compositions
    # with sum <= cap by (sum, inv, maj, comaj); each pair is read off the joint one
    by_permutation = [permutations.STATISTICS[name] for name in ("imaj", "maj", "inv")]
    by_composition = [compositions.STATISTICS[name] for name in ("sum", "inv", "maj", "comaj")]

    def tallies(start: int, step: int) -> list[dict[tuple[int, ...], int]]:
        joints = [tally(islice(permutations.all_permutations(k), start, None, step),
                        by_permutation) for k in range(max_k + 1)]
        for k in range(comp_max_k + 1):
            objects = chain.from_iterable([compositions.compositions_of(n, k)
                                           for n in range(k, cap + 1)])
            joints.append(tally(islice(objects, start, None, step), by_composition))
        return joints

    if hasattr(os, "fork"):
        joints, theirs = _in_two_processes(tallies)
        _add_counts(joints, theirs)
    else:
        joints = tallies(0, 1)
    for k, joint in enumerate(joints[:max_k + 1]):
        reference = _pair_counts(joint, 0, 1)
        for label, first, second in (("inv,imaj", 2, 0), ("maj,inv", 1, 2)):
            difference = _first_count_difference(_pair_counts(joint, first, second), reference)
            if difference is not None:
                return False, f"k={k}: ({label}) distribution differs: {difference}"
        if any(reference.get((b, a)) != count for (a, b), count in reference.items()):
            return False, f"k={k}: joint distribution is not symmetric"
    for k, joint in enumerate(joints[max_k + 1:]):
        reference = _pair_counts(joint, 0, 1)
        for stat, index in (("maj", 2), ("comaj", 3)):
            difference = _first_count_difference(_pair_counts(joint, 0, index), reference)
            if difference is not None:
                return False, f"k={k}: (sum,{stat}) over compositions differs: {difference}"
    return True, f"S_k for k 0..{max_k}; compositions k 0..{comp_max_k}, cap {cap}"


def _add_counts(joints: list[dict[tuple[int, ...], int]], theirs: object) -> None:
    """Add the child's counts, a list like ``joints``, into ``joints``."""
    try:
        if type(theirs) is not list or len(theirs) != len(joints):
            raise ValueError
        for joint, more in zip(joints, theirs):
            for values, count in more.items():
                joint[values] = joint.get(values, 0) + count
    except Exception:
        raise _malformed(theirs) from None


def _pair_counts(joint: dict[tuple[int, ...], int], first: int, second: int
                 ) -> dict[tuple[int, int], int]:
    """The counts by the values at positions ``first`` and ``second`` of each key."""
    pair: dict[tuple[int, int], int] = {}
    for values, count in joint.items():
        key = values[first], values[second]
        pair[key] = pair.get(key, 0) + count
    return pair


def _first_count_difference(other: dict[tuple[int, ...], int],
                            reference: dict[tuple[int, ...], int],
                            variables: Iterable[str] = "pq") -> str | None:
    """The first exponent tuple, in graded lexicographic order, whose counts differ.

    Each key holds the exponents of ``variables`` in order; the message names the
    nonzero ones.
    """
    differing = [key for key in other.keys() | reference.keys()
                 if other.get(key, 0) != reference.get(key, 0)]
    if not differing:
        return None
    key = min(differing, key=lambda key: (sum(key), key))
    exponents = {name: exponent for name, exponent in zip(variables, key) if exponent}
    return (f"coefficient {exponents}: expected {reference.get(key, 0)}, "
            f"got {other.get(key, 0)}")
