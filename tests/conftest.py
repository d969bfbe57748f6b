import sys

import pytest

from compstats import tables


@pytest.fixture
def clear_memos():
    """clear() empties the count-row memo of compstats.tables and every lru_cache
    that a loaded compstats module defines (the partitions of compstats.tables among
    them), so that the next table, series, totals, cross-check or OEIS call runs the path a
    test names instead of reading what an earlier test cached.  The modules and their
    lru_caches are found by introspection, so a renamed or added one is cleared too."""
    def clear() -> None:
        tables._count_rows.clear()
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "compstats":
                for value in vars(module).values():
                    if hasattr(value, "cache_clear") and value.__module__ == name:
                        value.cache_clear()
    return clear
