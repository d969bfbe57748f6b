"""Exception types and size limits shared across the library.

An exception's category is its base class, and the CLI routes by category
alone: a violated precondition derives from ValueError (exit 2), a failed
internal invariant, which is a bug in this package, from ArithmeticError
(exit 3), and a b-file download that failed from OSError (exit 2).
"""

from collections.abc import Sequence


class CompstatsError(ValueError):
    """Base class for contract violations raised by this library."""


class CapVarMismatch(CompstatsError):
    """Arithmetic between truncated series with different cap variables."""


class InexactDivision(ArithmeticError):
    """A division that must be exact left a remainder (implementation bug)."""


class LengthMismatch(CompstatsError):
    pass


class TooLarge(CompstatsError):
    """Input exceeds the documented enumeration scale."""


class BFileParseError(CompstatsError):
    pass


class UnknownSequence(CompstatsError):
    pass


class NetworkUnavailable(OSError):
    """Remote b-file fetch failed; use a local file instead."""


# the largest size each enumeration or closed form accepts, by limit name; the
# library enforces these through check_size and the CLI bounds read them too
LIMITS = {
    "table": 24,          # DistTable, inversion_totals, des_gf_total_rational, partitions_of,
                          # verify --cap, genfuncid --k; the caps of verify_product_expansion
                          # and verify_composition_count_identity, and the latter's k
    "hk": 8,              # the S_k polynomials of hk and verify prod, geneuler; maj_inv_poly_carlitz,
                          # verify_product_expansion's max_t, the max_order of
                          # verify_q_eulerian_gf and check_q_exponential_inverse
    "joint": 7,           # joint_gf and verify jointstat, foata, equidist --k
    "comaj_des": 8,       # comaj_des_gf
    "permutations": 10,   # all_permutations
    "compositions": 24,   # compositions_of, compositions.statistic_distribution
    "tableaux": 12,       # enumerate_standard_tableaux
    "sweep": 16,          # verify lemma, macmahon --max-n
}


def check_nonnegative(what: str, value: int) -> None:
    """Refuse a negative ``value`` with a ValueError naming it as ``what``."""
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")


def check_size(limit: str, what: str, value: int) -> None:
    """Refuse a negative ``value`` (ValueError) or one above ``LIMITS[limit]`` (TooLarge)."""
    check_nonnegative(what, value)
    if value > LIMITS[limit]:
        raise TooLarge(f"{what} {value} exceeds the {limit} limit {LIMITS[limit]}")


def check_partition(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape`` as a tuple; a ValueError unless its parts are positive and weakly decreasing."""
    shape = tuple(shape)
    for i, part in enumerate(shape):
        if part < 1:
            raise ValueError(f"partition parts must be positive, got {shape}")
        if i and shape[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")
    return shape
