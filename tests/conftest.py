"""Fixtures for every test."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def session_cache(tmp_path_factory):
    """An empty cache directory for the fixtures of a wider scope than one
    test (a module's default run), which run before table_cache does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("session-cache")))
        yield


@pytest.fixture(autouse=True)
def table_cache(tmp_path_factory, monkeypatch):
    """An empty cache directory of the test's own, so that no test reads an
    index of the user's cache or of another test: a table's row index (see
    brex.corpus.load_embeddings) or a corpus's record index (see
    brex.corpus.load_corpus); returns the directory that holds the
    indexes."""
    root = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "brex"
