"""The checks behind ``compstats verify``: ``check_<suite>`` for each suite of ``cli.SUITES``.

Each check takes the bounds that ``cli.SUITES`` lists for its suite, in that
order, and returns ``(passed, detail)``.  Each imports what it runs: an
identity suite never loads the enumerations, an enumerating suite never loads
the closed forms, and only the suites that compare polynomials load
``polynomial``.  Only ``cli.cmd_verify`` imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .polynomial import Poly


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

    for n in range(max_n + 1):
        for sigma in all_compositions(n):
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
                    return False, (f"sigma={format_composition(sigma)}: {label} "
                                   f"expected {expected}, got {actual}")
    return True, f"all compositions with sum <= {max_n}"


def check_macmahon(max_n: int) -> tuple[bool, str]:
    from .compositions import (all_compositions, format_composition, macmahon_forward,
                               macmahon_inverse)
    from .statistics import major_index

    for n in range(max_n + 1):
        for sigma in all_compositions(n):
            pi, lam = macmahon_forward(sigma)
            maj = major_index(pi)
            if sum(lam) + maj != n:
                return False, (f"sigma={format_composition(sigma)}: "
                               f"|lambda| + maj = {sum(lam)} + {maj} != {n}")
            back = macmahon_inverse(pi, lam)
            if back != sigma:
                return False, (f"sigma={format_composition(sigma)}: round-trip "
                               f"gave {format_composition(back)}")
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
    for k in range(max_k + 1):
        for pi in all_permutations(k):
            image = foata(pi)
            maj, inv = major_index(pi), inversions(image)
            if maj != inv:
                return False, f"pi={format_permutation(pi)}: maj {maj} != inv(foata) {inv}"
            before, after = _inverse_descent_set(pi), _inverse_descent_set(image)
            if before != after:
                return False, (f"pi={format_permutation(pi)}: inverse descent set "
                               f"{before} became {after}")
            if foata_inverse(image) != pi:
                return False, f"pi={format_permutation(pi)}: foata round-trip failed"
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
