import pytest

from lagneed import special


@pytest.fixture
def registry(monkeypatch):
    """An empty cache registry in place of the package's, as in a fresh process:
    every cache of the package reads this one while the test runs."""
    cache = special._ArrayCache()
    monkeypatch.setattr(special, "_CACHE", cache)
    return cache
