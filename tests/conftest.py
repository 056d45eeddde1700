import pytest

from phasetop import mesh


@pytest.fixture(autouse=True)
def fresh_region_memo():
    # the n = 3 regions are kept per m; each test builds the ones it
    # reads, so no test passes on another test's build
    mesh._build_regions.cache_clear()
    yield
    mesh._build_regions.cache_clear()
