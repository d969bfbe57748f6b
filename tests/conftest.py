import pytest

from compstats import distributions


@pytest.fixture
def clear_memos():
    """clear() empties every lru_cache that compstats.distributions defines, so that the next
    table, series or totals call runs the path a test names instead of reading what an earlier
    test cached.  The memos are found by introspection, so a renamed or added one is cleared too."""
    def clear() -> None:
        for value in vars(distributions).values():
            if hasattr(value, "cache_clear") and value.__module__ == distributions.__name__:
                value.cache_clear()
    return clear
