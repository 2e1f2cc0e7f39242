import pytest

from drg.graph import _derangements
from drg.semireg import element_census


@pytest.fixture(autouse=True)
def _clear_latest_group_caches():
    # each keeps only the latest group's walk; clearing both makes a test's
    # walk count independent of the tests that ran before it
    element_census.cache_clear()
    _derangements.cache_clear()
