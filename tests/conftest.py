import pytest

from compstats import distributions, oeis, oracles


@pytest.fixture
def clear_memos():
    """clear() empties the count-row memo of compstats.distributions and every lru_cache
    that compstats.distributions, compstats.oeis and compstats.oracles define, so that the
    next table, series, totals, cross-check or OEIS call runs the path a test names instead
    of reading what an earlier test cached.  The lru_caches are found by introspection, so a
    renamed or added one is cleared too."""
    def clear() -> None:
        distributions._count_rows.clear()
        for module in (distributions, oeis, oracles):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                    value.cache_clear()
    return clear
