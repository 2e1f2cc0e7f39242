import pytest

from drg.semireg import element_census


@pytest.fixture(autouse=True)
def _clear_latest_group_cache():
    # the census keeps only the latest group's walk; clearing it makes a
    # test's walk count independent of the tests that ran before it
    element_census.cache_clear()
