"""compstats: exact distributions of inversions and descents over integer compositions.

Closed forms (hook-length sums, q-Eulerian partition sums, truncated
generating functions) together with the exhaustive enumerations and the
independent routes in ``oracles`` that verify them, all over
arbitrary-precision integer arithmetic.

The names in ``__all__`` and the submodules resolve on first access
(PEP 562), so importing one submodule, as every CLI call does, does not
import the others: of them, a table call loads ``tables`` alone.
"""

import sys

_SUBMODULES = ("cli", "compositions", "distributions", "errors", "oeis", "oracles", "partitions",
               "permutations", "polynomial", "qanalog", "statistics", "suites", "tables")

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("polynomial", "Poly Series divexact"),
        ("qanalog", "gaussian_binomial pochhammer_inverse_series q_factorial"),
        ("tables", "DistTable hook_lengths inversion_totals partitions_of"),
        ("partitions", "b_statistic enumerate_standard_tableaux q_eulerian_weight syt_count "
                       "syt_count_q tableau_major_index"),
        ("permutations", "all_permutations foata foata_inverse inverse_permutation "
                         "permutation_stats"),
        ("compositions", "composition_stats compositions_of macmahon_forward "
                         "macmahon_inverse reversed_composition sorting_permutation"),
        ("distributions", "comaj_des_gf des_gf des_gf_total des_gf_total_rational inv_gf "
                          "inv_gf_total joint_gf maj_inv_poly q_eulerian_poly"),
        ("oracles", "check_q_exponential_inverse maj_inv_poly_carlitz "
                    "verify_composition_count_identity verify_product_expansion "
                    "verify_q_eulerian_gf"),
    )
    for name in names.split()
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    # __import__ rather than importlib.import_module, which a table call would otherwise load
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name in _SOURCES:
        return getattr(__getattr__(_SOURCES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
