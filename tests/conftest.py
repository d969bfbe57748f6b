import pytest

from compstats import distributions


@pytest.fixture
def clear_memos():
    """clear(kernels=True) empties the memoised partition counts, table columns and inversion
    totals, and with ``kernels`` the hook and q-Eulerian kernels too, so that the next table
    or totals call runs the path a test names instead of reading what an earlier test cached."""
    def clear(kernels: bool = True) -> None:
        memos = [distributions._partition_table, distributions._column,
                 distributions._inversion_totals]
        if kernels:
            memos += [distributions._hook_sum, distributions._q_eulerian_sum]
        for memo in memos:
            memo.cache_clear()
    return clear
