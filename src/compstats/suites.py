"""The checks behind ``compstats verify``: ``check_<suite>`` for each suite of ``cli.SUITES``.

Each check takes the bounds that ``cli.SUITES`` lists for its suite, in that
order, and returns ``(passed, detail)``.  Each imports what it runs: an
identity suite never loads the enumerations, an enumerating suite never loads
the closed forms, and only the suites that compare polynomials load
``polynomial``.  Only ``cli.cmd_verify`` imports this module.

The checks that test each object of an enumeration on its own (lemma, macmahon
and foata) run it through :func:`first_failure`, which splits the objects
between two processes where ``os.fork`` exists.
"""

from __future__ import annotations

import os

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import TypeVar

    from .polynomial import Poly

    T = TypeVar("T")
    # (position, failure detail or exception), or None when every object passed
    Event = tuple[float, str | BaseException] | None

# where an enumeration that raised ranks: both halves enumerate every object, so both meet
# the exception at the same place, after every test either of them ran
_PAST_EVERY_TEST = float("inf")


def first_failure(objects: Callable[[], Iterable[T]], test: Callable[[T], str | None]
                  ) -> str | None:
    """The failure detail of the first object of ``objects()``, in its order, or None.

    ``objects`` returns a fresh enumeration at each call, and ``test`` returns a failure
    detail, or None for an object that passes.  Where ``os.fork`` exists, one child process
    tests the odd-numbered objects and this one the even-numbered ones, each enumerating
    on its own.  The earlier of the two first events (a failure or an exception) decides,
    so the result, or the exception raised, is the one a sequential pass gives.  A child
    that dies, exits nonzero or sends a malformed report raises ArithmeticError.
    """
    if not hasattr(os, "fork"):
        return _outcome(_first_event(objects, test, 0, 1))
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
            report = _encode(_first_event(objects, test, 1, 2))
            while report:
                report = report[os.write(write_end, report):]
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(write_end)
        mine = _first_event(objects, test, 0, 2)
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
    theirs = _decode(b"".join(chunks))
    if theirs is not None and (mine is None or theirs[0] < mine[0]):
        mine = theirs
    return _outcome(mine)


def _first_event(objects: Callable[[], Iterable[T]], test: Callable[[T], str | None],
                 start: int, step: int) -> Event:
    """The first event among the objects at positions start, start + step, ..."""
    from itertools import islice

    try:
        picked = islice(objects(), start, None, step)
    except Exception as exc:
        return _PAST_EVERY_TEST, exc
    position = start
    while True:
        try:
            obj = next(picked)
        except StopIteration:
            return None
        except Exception as exc:
            return _PAST_EVERY_TEST, exc
        try:
            detail = test(obj)
        except Exception as exc:
            return position, exc
        if detail is not None:
            return position, detail
        position += step


def _outcome(event: Event) -> str | None:
    if event is None:
        return None
    if isinstance(event[1], BaseException):
        raise event[1]
    return event[1]


def _encode(event: Event) -> bytes:
    """The child's report: an exception travels as its class's module, name and args."""
    import marshal

    if event is None or isinstance(event[1], str):
        return marshal.dumps(event)
    position, exc = event
    cls = type(exc)
    try:
        return marshal.dumps((position, cls.__module__, cls.__qualname__, exc.args))
    except ValueError:  # an argument marshal cannot write: keep the message
        return marshal.dumps((position, cls.__module__, cls.__qualname__, (str(exc),)))


def _decode(report: bytes) -> Event:
    import marshal
    import sys

    try:
        event = marshal.loads(report)
        if event is None:
            return None
        if len(event) == 2 and isinstance(event[0], (int, float)) and isinstance(event[1], str):
            return event
        position, module, qualname, args = event
        cls = sys.modules[module]
        for name in qualname.split("."):
            cls = getattr(cls, name)
        if (isinstance(position, (int, float)) and isinstance(args, tuple)
                and isinstance(cls, type) and issubclass(cls, BaseException)):
            return position, cls(*args)
    except Exception:
        pass
    raise ArithmeticError(f"the process testing the odd-numbered objects sent a malformed "
                          f"report {report[:80]!r}")


def _first_poly_difference(a: Poly, b: Poly) -> str:
    from .polynomial import monomial_exponents

    diff = a - b
    key, _ = next(diff.terms())
    exponents = monomial_exponents(key)
    return (f"coefficient {exponents}: expected {b.coeff(**exponents)}, "
            f"got {a.coeff(**exponents)}")


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
    from .statistics import comajor_index, descent_number, inversions, major_index

    def test(sigma: tuple[int, ...]) -> str | None:
        pi = sorting_permutation(sigma)
        inverse = inverse_permutation(pi)
        rev = reversed_composition(sigma)
        pairs = (
            ("inv", inversions(pi), inversions(rev)),
            ("imaj=comaj^R", major_index(inverse), comajor_index(rev)),
            ("icomaj=maj^R", comajor_index(inverse), major_index(rev)),
            ("ides=des^R", descent_number(inverse), descent_number(rev)),
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

    stats = ("sum", "inv", "comaj", "maj", "des")
    variables = ("p", "q", "t", "u", "v")
    for k in range(max_k + 1):
        closed = distributions.joint_gf(k, cap)
        brute = composition_distribution(k, cap, stats, variables)
        if closed != brute:
            return False, (f"k={k}, cap={cap}: "
                           + _first_poly_difference(closed.body, brute.body))
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


def _pair(joint: Poly, first: str, second: str) -> Poly:
    """The distribution of two variables of ``joint``, the others set to 1, renamed to (p, q)."""
    for var in joint.variables_used() - {first, second}:
        joint = joint.eval_at_one(var)
    return joint.rename({first: "p", second: "q"})


def check_equidist(max_k: int, cap: int) -> tuple[bool, str]:
    from .compositions import statistic_distribution as composition_distribution
    from .permutations import statistic_distribution as permutation_distribution

    # one enumeration per k; each pair distribution is read off the joint one
    variable = {"imaj": "p", "maj": "q", "inv": "t"}
    for k in range(max_k + 1):
        joint = permutation_distribution(k, tuple(variable), tuple(variable.values()))
        reference = _pair(joint, variable["imaj"], variable["maj"])
        for stats in (("inv", "imaj"), ("maj", "inv")):
            other = _pair(joint, variable[stats[0]], variable[stats[1]])
            if other != reference:
                return False, (f"k={k}: ({stats[0]},{stats[1]}) distribution differs: "
                               + _first_poly_difference(other, reference))
        swapped = reference.rename({"p": "q", "q": "p"})
        if swapped != reference:
            return False, f"k={k}: joint distribution is not symmetric"
    comp_max_k = min(max_k, 5)
    variable = {"sum": "p", "inv": "q", "maj": "t", "comaj": "u"}
    for k in range(comp_max_k + 1):
        joint = composition_distribution(k, cap, tuple(variable),
                                         tuple(variable.values())).body
        reference = _pair(joint, variable["sum"], variable["inv"])
        for stat in ("maj", "comaj"):
            other = _pair(joint, variable["sum"], variable[stat])
            if other != reference:
                return False, (f"k={k}: (sum,{stat}) over compositions differs: "
                               + _first_poly_difference(other, reference))
    return True, f"S_k for k 0..{max_k}; compositions k 0..{comp_max_k}, cap {cap}"
